"""Parser, graph invariants, labels, emit/JSON round trips."""
from __future__ import annotations

import json

import pytest

from conftest import FIXTURE_DIR, fixture_names, load_fixture
from htlab import (
    CircuitGraph,
    DanglingPinError,
    Gate,
    LabelSpec,
    MultipleDriverError,
    Net,
    NetlistError,
    ParseError,
    UnknownCellError,
    emit_verilog,
    parse_verilog,
)
from htlab.netlist import BUF, NOT

EXPECTED_GATES = {
    "alias_buf": 4,
    "comb_tree": 3,
    "const_mix": 5,
    "dff_pipe": 5,
    "diamond": 4,
    "fanout_hub": 5,
    "inv_chain": 9,
    "loop_counter": 3,
    "mux_ladder": 4,
    "seq_mix": 3,
    "troj_mini": 5,
    "vec_bus": 4,
    "wide_fan": 4,
}


def test_fixture_inventory():
    assert sorted(EXPECTED_GATES) == fixture_names()
    assert len(fixture_names()) >= 10


@pytest.mark.parametrize("stem", sorted(EXPECTED_GATES))
def test_fixture_parses_with_expected_gate_count(stem, fixture_circuits):
    c = fixture_circuits[stem]
    assert c.stats()["gates"] == EXPECTED_GATES[stem]
    assert c.name == stem
    # every gate pin references a known net, and every net id is keyed correctly
    for g in c.gates.values():
        for nid in (*g.inputs, *g.outputs):
            assert nid in c.nets
    for nid, net in c.nets.items():
        assert net.id == nid


def test_driver_consumer_consistency(fixture_circuits):
    for c in fixture_circuits.values():
        for g in c.gates.values():
            for out in g.outputs:
                assert c.driver(out) is g
            for pin, nid in enumerate(g.inputs):
                assert (g.id, pin) in c.consumers(nid)
        for nid in c.nets:
            if c.driver(nid) is None:
                assert c.is_primary_input(nid) or not c.consumers(nid)


def test_vector_ports_expand_to_bit_nets(fixture_circuits):
    c = fixture_circuits["vec_bus"]
    names = {n.name for n in c.nets.values()}
    assert {"a[0]", "a[1]", "y[0]", "y[1]"} <= names
    assert c.net_by_name("a[0]").id in c.primary_inputs
    assert c.net_by_name("y[1]").id in c.primary_outputs


def test_alias_assign_becomes_buf(fixture_circuits):
    c = fixture_circuits["alias_buf"]
    bufs = [g for g in c.gates.values() if g.kind.family == "BUF"]
    assert any(g.name.startswith("__buf_") for g in bufs)


def test_const_assign_becomes_const_gate(fixture_circuits):
    c = fixture_circuits["const_mix"]
    fams = sorted(g.kind.family for g in c.gates.values())
    assert "CONST0" in fams and "CONST1" in fams
    const = next(g for g in c.gates.values() if g.kind.family == "CONST0")
    assert const.inputs == () and len(const.outputs) == 1


def test_lookup_helpers(troj_mini):
    g = troj_mini.gate_by_name("troj_and")
    assert g.kind.family == "AND" and g.kind.fanin == 3
    n = troj_mini.net_by_name("t1")
    assert troj_mini.driver(n.id) is g
    with pytest.raises(KeyError):
        troj_mini.gate_by_name("nonexistent")
    with pytest.raises(KeyError):
        troj_mini.net_by_name("nonexistent")


# -- labels ------------------------------------------------------------------


def test_sidecar_labels(troj_mini):
    names = sorted(troj_mini.nets[n].name for n in troj_mini.trojan_net_ids)
    assert names == ["py", "t1", "t2"]
    gate_names = sorted(troj_mini.gates[g].name for g in troj_mini.trojan_gate_ids)
    assert gate_names == ["troj_and", "troj_inv", "troj_xor"]


def test_regex_labels_match_sidecar():
    src = (FIXTURE_DIR / "troj_mini.v").read_text()
    by_regex = parse_verilog(src, label_spec=LabelSpec.name_regex(r"^troj_"), name="troj_mini")
    by_sidecar = load_fixture("troj_mini")
    assert by_regex.trojan_gate_ids == by_sidecar.trojan_gate_ids
    assert by_regex.trojan_net_ids == by_sidecar.trojan_net_ids


def test_none_labels():
    src = (FIXTURE_DIR / "troj_mini.v").read_text()
    c = parse_verilog(src, label_spec=LabelSpec.none())
    assert not c.trojan_net_ids and not c.trojan_gate_ids


def test_sidecar_unknown_net_rejected():
    src = (FIXTURE_DIR / "comb_tree.v").read_text()
    with pytest.raises(NetlistError):
        parse_verilog(src, label_spec=LabelSpec.sidecar(["missing_net"]))


def test_label_spec_validation():
    with pytest.raises(ValueError):
        LabelSpec(mode="bogus")
    with pytest.raises(ValueError):
        LabelSpec(mode="regex", pattern="")


# -- parse errors ------------------------------------------------------------


def test_unknown_cell_reports_position():
    src = "module m (a, y);\n  input a;\n  output y;\n  FROBX1 u1 (y, a);\nendmodule\n"
    with pytest.raises(UnknownCellError) as exc:
        parse_verilog(src)
    assert "line 4" in str(exc.value)


def test_multiple_driver_error():
    src = (
        "module m (a, b, y);\n  input a, b;\n  output y;\n"
        "  INVX1 u1 (y, a);\n  INVX1 u2 (y, b);\nendmodule\n"
    )
    with pytest.raises(MultipleDriverError):
        parse_verilog(src)


def test_dangling_pin_error():
    src = "module m (a, y);\n  input a;\n  output y;\n  AND2X1 u1 (y, a, ghost);\nendmodule\n"
    with pytest.raises(DanglingPinError):
        parse_verilog(src)


def test_syntax_error_reports_line_and_col():
    src = "module m (a, y);\n  input a\n  output y;\nendmodule\n"
    with pytest.raises(ParseError) as exc:
        parse_verilog(src)
    msg = str(exc.value)
    assert "line" in msg and "col" in msg


def test_wrong_arity_rejected():
    src = "module m (a, y);\n  input a;\n  output y;\n  not u1 (y, a, a);\nendmodule\n"
    with pytest.raises(ParseError):
        parse_verilog(src)


def test_errors_are_netlist_errors():
    for exc_type in (ParseError, UnknownCellError, MultipleDriverError, DanglingPinError):
        assert issubclass(exc_type, NetlistError)


# -- round trips ---------------------------------------------------------------


@pytest.mark.parametrize("stem", sorted(EXPECTED_GATES))
def test_emit_verilog_round_trip(stem, fixture_circuits):
    c = fixture_circuits[stem]
    emitted = emit_verilog(c)
    spec = LabelSpec.sidecar([c.nets[n].name for n in c.trojan_net_ids])
    c2 = parse_verilog(emitted, label_spec=spec, name=c.name)
    assert c2.stats() == c.stats()
    assert sorted(n.name for n in c2.nets.values()) == sorted(n.name for n in c.nets.values())
    assert sorted(c2.nets[i].name for i in c2.primary_inputs) == sorted(
        c.nets[i].name for i in c.primary_inputs
    )
    assert {c2.nets[i].name for i in c2.trojan_net_ids} == {
        c.nets[i].name for i in c.trojan_net_ids
    }


@pytest.mark.parametrize("stem", sorted(EXPECTED_GATES))
def test_json_round_trip(stem, fixture_circuits):
    c = fixture_circuits[stem]
    blob = c.to_json()
    c2 = CircuitGraph.from_json_dict(json.loads(blob))
    assert c2.to_json() == blob
    assert c2.stats() == c.stats()


# -- immutability / replace ----------------------------------------------------


def test_replace_is_pure(troj_mini):
    before = troj_mini.to_json()
    nid = troj_mini.next_net_id()
    gid = troj_mini.next_gate_id()
    target = troj_mini.gate_by_name("u2")
    patched = troj_mini.replace(
        remove_gates=[target.id],
        upsert_gates=[
            Gate(gid, target.kind, target.inputs, (nid,), "u2_moved"),
            Gate(gid + 1, target.kind, (nid,), target.outputs, "u2_tail"),
        ],
        add_nets=[Net(nid, "u2_mid")],
    )
    assert troj_mini.to_json() == before
    assert patched.stats()["gates"] == troj_mini.stats()["gates"] + 1
    assert patched.gate_by_name("u2_tail").outputs == target.outputs


def test_replace_validates_duplicate_net(troj_mini):
    nid = next(iter(troj_mini.nets))
    with pytest.raises(NetlistError):
        troj_mini.replace(add_nets=[Net(nid, "dup")])


def test_replace_drops_trojan_membership(troj_mini):
    gid = next(iter(troj_mini.trojan_gate_ids))
    patched = troj_mini.replace(remove_gates=[gid])
    assert gid not in patched.trojan_gate_ids


def test_replace_rejects_unknown_removal(troj_mini):
    gid = troj_mini.next_gate_id()
    with pytest.raises(NetlistError, match=f"unknown gate id {gid}"):
        troj_mini.replace(remove_gates=[gid])


def _patch_defects(c: CircuitGraph) -> dict[str, dict]:
    """One ``replace`` patch per structural defect, keyed by test id."""
    a, b = c.net_by_name("a").id, c.net_by_name("b").id
    h = c.net_by_name("h").id
    gid, nid = c.next_gate_id(), c.next_net_id()
    fresh = Net(nid, "fresh")
    return {
        "net_name_taken": dict(add_nets=[Net(nid, "h")]),
        "instance_name_taken": dict(
            upsert_gates=[Gate(gid, NOT, (a,), (nid,), "u1")], add_nets=[fresh]),
        "input_on_unknown_net": dict(
            upsert_gates=[Gate(gid, NOT, (nid + 1,), (nid,), "g")], add_nets=[fresh]),
        "output_on_unknown_net": dict(upsert_gates=[Gate(gid, NOT, (a,), (nid + 1,), "g")]),
        "drives_primary_input": dict(upsert_gates=[Gate(gid, NOT, (a,), (b,), "g")]),
        "second_driver": dict(upsert_gates=[Gate(gid, NOT, (a,), (h,), "g")]),
        "unknown_trojan_gate": dict(extra_trojan_gates=[gid]),
        "unknown_trojan_net": dict(extra_trojan_nets=[nid]),
    }


def _rebuilt_with(c: CircuitGraph, upsert_gates=(), add_nets=(),
                  extra_trojan_gates=(), extra_trojan_nets=()) -> CircuitGraph:
    """The same patch applied through the full constructor."""
    gates = dict(c.gates)
    gates.update((g.id, g) for g in upsert_gates)
    return CircuitGraph(
        c.name, gates.values(), [*c.nets.values(), *add_nets],
        c.primary_inputs, c.primary_outputs,
        c.trojan_gate_ids | set(extra_trojan_gates),
        c.trojan_net_ids | set(extra_trojan_nets),
    )


@pytest.mark.parametrize("defect", sorted(_patch_defects(load_fixture("troj_mini"))))
def test_replace_rejects_what_construction_rejects(defect, troj_mini):
    patch = _patch_defects(troj_mini)[defect]
    with pytest.raises(NetlistError) as full:
        _rebuilt_with(troj_mini, **patch)
    with pytest.raises(NetlistError) as patched:
        troj_mini.replace(**patch)
    assert type(patched.value) is type(full.value)


def test_replace_frees_names_of_rewritten_gates(troj_mini):
    # A retargeted gate keeps its own name, and a removed gate's name is free.
    u1, u2 = troj_mini.gate_by_name("u1"), troj_mini.gate_by_name("u2")
    nid = troj_mini.next_net_id()
    patched = troj_mini.replace(
        remove_gates=[u2.id],
        upsert_gates=[
            Gate(u1.id, u1.kind, u1.inputs, (nid,), "u1"),
            Gate(troj_mini.next_gate_id(), BUF, (nid,), u1.outputs, "u2"),
        ],
        add_nets=[Net(nid, "u1_mid")],
    )
    assert patched.gate_by_name("u2").inputs == (nid,)
    assert patched.driver(nid).name == "u1"


# -- neighborhood ---------------------------------------------------------------


def test_neighborhood_levels_comb_tree(fixture_circuits):
    c = fixture_circuits["comb_tree"]
    y = c.net_by_name("y").id
    view = c.neighborhood(y, "input", depth=5)
    lv1 = view.gates_at(1)
    assert [c.gates[g].name for g in lv1] == ["u3"]
    assert [c.gates[g].name for g in view.gates_at(2)] == ["u2"]
    assert [c.gates[g].name for g in view.gates_at(3)] == ["u1"]
    assert set(view.gates_within(2)) == set(view.gates_at(1)) | set(view.gates_at(2))


def test_neighborhood_skips_dff_clock_pin(fixture_circuits):
    c = fixture_circuits["dff_pipe"]
    view = c.neighborhood(c.net_by_name("q2").id, "input", depth=5)
    assert c.gate_by_name("r2").id in view.gates_at(1)
    clk = c.net_by_name("clk").id
    assert clk not in view.net_levels


def test_neighborhood_rejects_bad_args(troj_mini):
    with pytest.raises(ValueError):
        troj_mini.neighborhood(0, "sideways", 3)
    with pytest.raises(KeyError):
        troj_mini.neighborhood(10_000, "input", 3)
