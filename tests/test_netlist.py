"""Parser, graph invariants, labels, emit/JSON round trips."""
from __future__ import annotations

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
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
    synth_circuit,
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
    # Random circuits read one net on several pins of a gate, and clock
    # their flip-flops from primary inputs that also feed data pins.
    random_circuits = [_oracles.random_circuit(seed, 4, 25, True) for seed in range(20)]
    control_only = 0
    for c in [*fixture_circuits.values(), *random_circuits]:
        for g in c.gates.values():
            for out in g.outputs:
                assert c.driver(out) is g
        for nid in c.nets:
            # Every data-pin reader once, by gate id; a gate that reads the
            # net only on a clock or reset pin is not a reader.
            want = [g for g in c.gates.values()
                    if nid in (g.inputs[:1] if g.kind.family == "DFF" else g.inputs)]
            assert list(c.readers(nid)) == sorted(want, key=lambda g: g.id)
            control_only += sum(1 for g in c.gates.values()
                                if nid in g.inputs and g not in want)
    assert control_only
    for c in fixture_circuits.values():
        for nid in c.nets:
            if c.driver(nid) is None and not c.is_primary_input(nid):
                # A floating fixture net is read by no pin at all, data or control.
                assert not any(nid in g.inputs for g in c.gates.values())


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


# Every parser error, pinned: exception class and message, with line and col.
_HEAD = "module m (a, b, y);\n  input a, b;\n  output y;\n"
_VEC_HEAD = "module m (a, y);\n  input [3:0] a;\n  output y;\n"


def _behavioral(keyword: str) -> str:
    return (
        f"behavioral construct {keyword!r} is not supported; "
        "only structural netlists are accepted at line 4"
    )


PARSE_ERRORS = [
    ("unknown_cell", _HEAD + "  FROBX1 u1 (y, a);\nendmodule\n",
     UnknownCellError, "unknown cell type 'FROBX1' at line 4"),
    ("missing_semicolon_declaration", "module m (a, y);\n  input a\n  output y;\nendmodule\n",
     ParseError, "expected ',' or ';' at line 3, col 3"),
    ("missing_semicolon_header", "module m (a, y)\n  input a;\n  output y;\nendmodule\n",
     ParseError, "expected ';' after module header at line 2, col 3"),
    ("missing_semicolon_instance", _HEAD + "  not u1 (y, a)\nendmodule\n",
     ParseError, "expected ';' at line 5, col 1"),
    ("missing_endmodule", _HEAD + "  not u1 (y, a);\n",
     ParseError, "missing endmodule at line 5, col 1"),
    ("trailing_text", _HEAD + "  not u1 (y, a);\nendmodule\nfoo\n",
     ParseError, "trailing text after endmodule at line 6, col 1"),
    ("second_module", _HEAD + "  not u1 (y, a);\nendmodule\nmodule n;\nendmodule\n",
     ParseError, "multiple modules per file are not supported at line 6"),
    ("behavioral_always", _HEAD + "  always @(a) y = a;\nendmodule\n",
     ParseError, _behavioral("always")),
    ("behavioral_initial", _HEAD + "  initial y = 0;\nendmodule\n",
     ParseError, _behavioral("initial")),
    ("behavioral_reg", _HEAD + "  reg r;\nendmodule\n",
     ParseError, _behavioral("reg")),
    ("behavioral_if", _HEAD + "  if (a) y = b;\nendmodule\n",
     ParseError, _behavioral("if")),
    ("behavioral_case", _HEAD + "  case (a)\nendmodule\n",
     ParseError, _behavioral("case")),
    ("behavioral_function", _HEAD + "  function f;\nendmodule\n",
     ParseError, _behavioral("function")),
    ("behavioral_task", _HEAD + "  task t;\nendmodule\n",
     ParseError, _behavioral("task")),
    ("expected_statement", _HEAD + "  ;\nendmodule\n",
     ParseError, "expected a statement at line 4, col 3"),
    ("expected_statement_number", _HEAD + "  42 u1 (y, a);\nendmodule\n",
     ParseError, "expected a statement at line 4, col 3"),
    ("undeclared_net", _HEAD + "  and u1 (y, a, ghost);\nendmodule\n",
     DanglingPinError, "connection references undeclared net 'ghost' (line 4)"),
    ("undeclared_bit", _VEC_HEAD + "  not u1 (y, a[5]);\nendmodule\n",
     DanglingPinError, "connection references undeclared net 'a[5]' (line 4)"),
    ("non_numeric_bit_select", _VEC_HEAD + "  not u1 (y, a[x]);\nendmodule\n",
     DanglingPinError, "connection references undeclared net 'a' (line 4)"),
    ("non_numeric_bit_select_of_scalar", _HEAD + "  not u1 (y, a[x]);\nendmodule\n",
     ParseError, "expected ',' or ')' at line 4, col 15"),
    ("positional_missing_comma", _HEAD + "  not u1 (y a);\nendmodule\n",
     ParseError, "expected ',' or ')' at line 4, col 13"),
    ("positional_missing_paren", _HEAD + "  not u1 (y, a;\nendmodule\n",
     ParseError, "expected ',' or ')' at line 4, col 15"),
    ("positional_empty", _HEAD + "  not u1 ();\nendmodule\n",
     ParseError, "expected connection at line 4, col 11"),
    ("positional_not_arity", _HEAD + "  not u1 (y, a, b);\nendmodule\n",
     ParseError, "not expects 2 connections, got 3 at line 4"),
    ("positional_and_arity", _HEAD + "  and u1 (y, a);\nendmodule\n",
     ParseError, "and supports 2..5 inputs, got 1 at line 4"),
    ("positional_lib_arity", _HEAD + "  AND3X1 u1 (y, a, b);\nendmodule\n",
     ParseError, "AND3X1 expects 4 connections, got 3 at line 4"),
    ("positional_dff_arity", _HEAD + "  dff u1 (y, a);\nendmodule\n",
     ParseError, "dff expects (q, d, clk[, rst]) at line 4"),
    ("positional_mux_arity", _HEAD + "  mux2 u1 (y, a, b);\nendmodule\n",
     ParseError, "mux2 expects (y, a, b, s) at line 4"),
    ("named_missing_dot", _HEAD + "  AND2X1 u1 (.A(a), B(b), .Y(y));\nendmodule\n",
     ParseError, "expected '.' at line 4, col 21"),
    ("named_unconnected", _HEAD + "  AND2X1 u1 (.A(a), .B(), .Y(y));\nendmodule\n",
     ParseError, "unconnected pin .B() is not supported at line 4"),
    ("named_pin_twice", _HEAD + "  AND2X1 u1 (.A(a), .A(b\n  ), .Y(y));\nendmodule\n",
     ParseError, "pin 'A' connected twice at line 5"),
    ("named_missing_close", _HEAD + "  AND2X1 u1 (.A(a b), .Y(y));\nendmodule\n",
     ParseError, "expected ')' at line 4, col 19"),
    ("named_missing_comma", _HEAD + "  AND2X1 u1 (.A(a) .B(b), .Y(y));\nendmodule\n",
     ParseError, "expected ',' or ')' at line 4, col 20"),
    ("named_no_output", _HEAD + "  AND2X1 u1 (.A(a), .B(b));\nendmodule\n",
     ParseError, "instance 'u1' has no output pin at line 4"),
    ("named_unsupported_pin", _HEAD + "  AND2X1 u1 (.A(a), .FOO(b), .Y(y));\nendmodule\n",
     ParseError, "instance 'u1' has unsupported pin 'FOO' at line 4"),
    ("named_wrong_data_pins", _HEAD + "  AND2X1 u1 (.A(a), .C(b), .Y(y));\nendmodule\n",
     ParseError, "instance 'u1' expects 2 data pins at line 4"),
    ("named_dff_missing_clock", _HEAD + "  DFFX1 u1 (.D(a), .Q(y));\nendmodule\n",
     ParseError, "dff 'u1' is missing D or clock pin at line 4"),
    ("named_dff_unsupported_pin",
     _HEAD + "  DFFX1 u1 (.D(a), .CK(b), .SE(b), .Q(y));\nendmodule\n",
     ParseError, "dff 'u1' has unsupported pins ['SE'] at line 4"),
    ("named_mux_no_select", _HEAD + "  MX2X1 u1 (.A(a), .B(b), .Y(y));\nendmodule\n",
     ParseError, "mux 'u1' is missing a select pin at line 4"),
    ("named_mux_unsupported_pin", _HEAD + "  MX2X1 u1 (.A(a), .C(b), .S(a), .Y(y));\nendmodule\n",
     ParseError, "mux 'u1' has unsupported pin 'C' at line 4"),
    ("input_declared_twice", _HEAD + "  input a;\nendmodule\n",
     ParseError, "net 'a' declared twice at line 4"),
    ("wire_declared_twice", _HEAD + "  wire w;\n  wire w;\nendmodule\n",
     ParseError, "net 'w' declared twice at line 5"),
    ("bit_range_not_numeric", "module m (a, y);\n  input [3:x] a;\n  output y;\nendmodule\n",
     ParseError, "expected bit range at line 2, col 9"),
    ("bit_range_single_bit", "module m (a, y);\n  input [3] a;\n  output y;\nendmodule\n",
     ParseError, "expected bit range at line 2, col 9"),
    ("assign_missing_equals", _HEAD + "  assign y a;\nendmodule\n",
     ParseError, "expected '=' at line 4, col 12"),
    ("assign_missing_source", _HEAD + "  assign y = ;\nendmodule\n",
     ParseError, "expected assign source at line 4, col 14"),
    ("assign_missing_semicolon", _HEAD + "  assign y = a\nendmodule\n",
     ParseError, "expected ';' at line 5, col 1"),
    ("duplicate_instance", _HEAD + "  not u1 (y, a);\n  wire w;\n  not u1 (w, b);\nendmodule\n",
     ParseError, "duplicate instance name 'u1' at line 6"),
    ("unterminated_comment", _HEAD + "  /* not u1 (y, a);\nendmodule\n",
     ParseError, "unterminated block comment at line 4"),
    ("empty_file", "",
     ParseError, "expected 'module' at line 1, col 1"),
    ("blank_file", "\n\n  \n",
     ParseError, "expected 'module' at line 4, col 1"),
    ("missing_module_name", "module (a);\nendmodule\n",
     ParseError, "expected module name at line 1, col 8"),
    ("missing_port_name", "module m (a, , y);\nendmodule\n",
     ParseError, "expected port name at line 1, col 14"),
    ("missing_instance_name", _HEAD + "  not [3] (y, a);\nendmodule\n",
     ParseError, "expected instance name at line 4, col 7"),
    ("bit_select_across_lines",
     _VEC_HEAD + "  wire w;\n  not u1 (w, a[\n0]);\n  not u2 (y w);\nendmodule\n",
     ParseError, "expected ',' or ')' at line 7, col 13"),
    ("bit_select_across_lines_as_instance_name", _HEAD + "  not [\n3] (y, a);\nendmodule\n",
     ParseError, "expected instance name at line 4, col 7"),
    ("missing_open_paren", _HEAD + "  not u1 y, a);\nendmodule\n",
     ParseError, "expected '(' at line 4, col 10"),
    ("multiple_drivers", _HEAD + "  not u1 (y, a);\n  not u2 (y, b);\nendmodule\n",
     MultipleDriverError, "net 'y' driven by both 'u1' and 'u2'"),
]


@pytest.mark.parametrize(
    "source, exc_type, message",
    [pytest.param(*row[1:], id=row[0]) for row in PARSE_ERRORS],
)
def test_parse_error_golden(source, exc_type, message):
    with pytest.raises(exc_type) as exc:
        parse_verilog(source)
    assert type(exc.value) is exc_type
    assert str(exc.value) == message


def test_column_counts_block_comment_on_same_line():
    for comment in ("/* c */", "/* c\n  more */"):
        src = _HEAD + f"  {comment} not u1 (y a);\nendmodule\n"
        with pytest.raises(ParseError) as exc:
            parse_verilog(src)
        assert exc.value.col == 21
        assert exc.value.line == 4 + comment.count("\n")


@pytest.mark.parametrize("middle", ["a//b", "a/*b", "a*/b"])
def test_escaped_name_with_comment_marker_round_trips(middle):
    nets = [Net(0, "a"), Net(1, middle), Net(2, "y")]
    gates = [Gate(0, NOT, (0,), (1,), "u1"), Gate(1, NOT, (1,), (2,), "u2")]
    c = CircuitGraph("m", gates, nets, (0,), (2,))
    assert _by_names(parse_verilog(emit_verilog(c))) == _by_names(c)


@pytest.mark.parametrize("net_name, inst_name", [("a b", "u2"), ("mid", "u 2")])
def test_emit_rejects_name_with_whitespace(net_name, inst_name):
    nets = [Net(0, "a"), Net(1, net_name), Net(2, "y")]
    gates = [Gate(0, NOT, (0,), (1,), "u1"), Gate(1, NOT, (1,), (2,), inst_name)]
    c = CircuitGraph("m", gates, nets, (0,), (2,))
    bad = net_name if " " in net_name else inst_name
    with pytest.raises(NetlistError, match=f"^name {bad!r} cannot be written"):
        emit_verilog(c)


def test_error_at_end_of_source_after_line_comment():
    with pytest.raises(ParseError, match=r"^missing endmodule at line 4, col 25$"):
        parse_verilog(_HEAD + "  not u1 (y, a); // done")


def test_source_may_end_without_newline():
    c = parse_verilog(_HEAD + "  not u1 (y, a);\nendmodule")
    assert c.stats()["gates"] == 1


@pytest.mark.parametrize("keyword", ["input", "wire"])
def test_declaration_keyword_may_touch_bit_range(keyword):
    src = (
        f"module m (a, y);\n  input a;\n  output y;\n  {keyword}[1:0] w;\n"
        "  not u1 (y, a);\nendmodule\n"
    )
    c = parse_verilog(src)
    assert {"w[0]", "w[1]"} <= {n.name for n in c.nets.values()}


def test_reg_touching_bit_range_is_behavioral():
    with pytest.raises(ParseError, match="behavioral construct 'reg'"):
        parse_verilog(_HEAD + "  reg[1:0] r;\nendmodule\n")


def test_unterminated_comment_after_syntax_error_reports_the_syntax_error():
    src = _HEAD + "  not u1 (y a);\n  /* open\nendmodule\n"
    with pytest.raises(ParseError, match=r"^expected ',' or '\)' at line 4, col 13$"):
        parse_verilog(src)


def test_long_chain_error_is_located_in_linear_time():
    """A 20k-gate chain whose last instance lacks a comma parses in seconds."""
    n = 20_000
    lines = [f"module chain (n0, n{n});", "  input n0;", f"  output n{n};"]
    lines += [f"  wire n{i};" for i in range(1, n)]
    lines += [f"  not u{i} (n{i + 1}, n{i});" for i in range(n - 1)]
    lines.append(f"  not u{n - 1} (n{n} n{n - 1});")
    lines.append("endmodule")
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_verilog("\n".join(lines) + "\n")
    elapsed = time.perf_counter() - start
    assert exc.value.line == len(lines) - 1
    assert exc.value.col == len(f"  not u{n - 1} (n{n} ") + 1
    assert elapsed < 10.0


def _by_names(c: CircuitGraph) -> tuple:
    name = {nid: net.name for nid, net in c.nets.items()}
    return (
        {
            g.name: (str(g.kind), [name[i] for i in g.inputs], name[g.output])
            for g in c.gates.values()
        },
        [name[i] for i in c.primary_inputs],
        [name[i] for i in c.primary_outputs],
        {name[i] for i in c.trojan_net_ids},
        {c.gates[g].name for g in c.trojan_gate_ids},
    )


@settings(max_examples=12, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=11),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_emit_parse_round_trip_is_isomorphic(index, seed):
    c = synth_circuit(index, seed=seed)
    spec = LabelSpec.sidecar([c.nets[n].name for n in c.trojan_net_ids])
    c2 = parse_verilog(emit_verilog(c), label_spec=spec)
    assert c2.name == c.name
    assert _by_names(c2) == _by_names(c)


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
