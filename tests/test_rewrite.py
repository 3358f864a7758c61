"""Rewrite catalog, pattern application, simulation, equivalence checking."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from conftest import fixture_names
from htlab import (
    FEATURE_NAMES,
    CircuitGraph,
    CombinationalCycleError,
    LabelSpec,
    PATTERN_IDS,
    PATTERNS,
    apply_pattern,
    applicable_patterns,
    check_equivalence,
    extract_all,
    parse_verilog,
    simulate,
    synth_circuit,
)


def _single_gate(family: str, fanin: int):
    """One-gate module exercising the given cell family."""
    if family == "MUX2":
        src = (
            "module fx (i0, i1, i2, y);\n  input i0, i1, i2;\n  output y;\n"
            "  MUX2X1 g (.A(i0), .B(i1), .S(i2), .Y(y));\nendmodule\n"
        )
    elif family == "DFF":
        src = (
            "module fx (d, ck, q);\n  input d, ck;\n  output q;\n"
            "  DFFX1 g (.D(d), .CK(ck), .Q(q));\nendmodule\n"
        )
    elif family in ("NOT", "BUF"):
        cell = "INVX1" if family == "NOT" else "BUFX1"
        src = f"module fx (i0, y);\n  input i0;\n  output y;\n  {cell} g (y, i0);\nendmodule\n"
    else:
        ins = ", ".join(f"i{k}" for k in range(fanin))
        src = (
            f"module fx ({ins}, y);\n  input {ins};\n  output y;\n"
            f"  {family}{fanin}X1 g (y, {ins});\nendmodule\n"
        )
    return parse_verilog(src, name=f"fx_{family.lower()}{fanin}")


def test_catalog_shape():
    assert PATTERN_IDS == tuple(f"m{i}" for i in range(1, 17))
    assert len(PATTERNS) == 16
    relaxed = [p.pattern_id for p in PATTERNS if p.relaxed]
    assert relaxed == ["m16"]


def test_applicable_patterns_by_family():
    cases = {
        ("AND", 2): ["m1", "m2", "m14"],
        ("NAND", 3): ["m5", "m6", "m14"],
        ("OR", 4): ["m3", "m4", "m14"],
        ("NOR", 5): ["m7", "m8", "m14"],
        ("XOR", 2): ["m9", "m14"],
        ("XNOR", 2): ["m10", "m14"],
        ("NOT", 1): ["m11", "m12", "m14"],
        ("BUF", 1): ["m14"],
        ("MUX2", 3): ["m13", "m14"],
        ("DFF", 2): ["m15"],
    }
    for (family, fanin), expect in cases.items():
        c = _single_gate(family, fanin)
        got = [p.pattern_id for p in applicable_patterns(c, c.gate_by_name("g").id)]
        assert got == expect, f"{family}{fanin}: {got}"


def test_relaxed_flag_exposes_m16():
    c = _single_gate("DFF", 2)
    gid = c.gate_by_name("g").id
    ids = [p.pattern_id for p in applicable_patterns(c, gid, allow_relaxed=True)]
    assert ids == ["m15", "m16"]


def test_apply_pattern_errors():
    c = _single_gate("AND", 2)
    gid = c.gate_by_name("g").id
    with pytest.raises(KeyError):
        apply_pattern(c, gid, "m99")
    with pytest.raises(ValueError):
        apply_pattern(c, gid, "m3")  # OR pattern on an AND gate
    d = _single_gate("DFF", 2)
    with pytest.raises(ValueError):
        apply_pattern(d, d.gate_by_name("g").id, "m16")  # needs allow_relaxed


def test_apply_pattern_is_pure():
    c = _single_gate("NAND", 2)
    before = c.to_json()
    apply_pattern(c, c.gate_by_name("g").id, "m5")
    assert c.to_json() == before


def test_rewrite_result_bookkeeping():
    c = _single_gate("AND", 3)
    gid = c.gate_by_name("g").id
    res = apply_pattern(c, gid, "m2")  # AND -> NOR of inverted inputs
    assert res.pattern_id == "m2"
    assert res.gate_id == gid
    assert gid in res.removed_gate_ids
    assert res.new_gate_ids and res.new_net_ids
    # new nets and gates actually exist in the rewritten circuit
    for ng in res.new_gate_ids:
        assert ng in res.circuit.gates
    for nn in res.new_net_ids:
        assert nn in res.circuit.nets
    # ports are untouched
    assert res.circuit.primary_inputs == c.primary_inputs
    assert res.circuit.primary_outputs == c.primary_outputs


def test_trojan_labels_propagate():
    src = (
        "module m (a, b, y);\n  input a, b;\n  output y;\n  wire t;\n"
        "  AND2X1 troj_g (t, a, b);\n  INVX1 u (y, t);\nendmodule\n"
    )
    c = parse_verilog(src, label_spec=LabelSpec.name_regex(r"^troj_"))
    gid = c.gate_by_name("troj_g").id
    res = apply_pattern(c, gid, "m1")
    for ng in res.new_gate_ids:
        assert res.circuit.is_trojan_gate(ng)
    for nn in res.new_net_ids:
        assert res.circuit.is_trojan_net(nn)
    # rewriting a normal gate must not invent Trojan members
    res2 = apply_pattern(c, c.gate_by_name("u").id, "m11")
    for ng in res2.new_gate_ids:
        assert not res2.circuit.is_trojan_gate(ng)


# -- copy-on-write replace vs. the full constructor ------------------------------


def _assert_rewrites_match_rebuild(c: CircuitGraph) -> None:
    """Every rewrite of ``c`` equals the same graph built from scratch."""
    for gid in c.gates:
        for pattern in applicable_patterns(c, gid, allow_relaxed=True):
            got = apply_pattern(c, gid, pattern.pattern_id, allow_relaxed=True).circuit
            want = CircuitGraph(
                got.name, got.gates.values(), got.nets.values(),
                got.primary_inputs, got.primary_outputs,
                got.trojan_gate_ids, got.trojan_net_ids,
            )
            assert got._driver_of == want._driver_of
            assert got._readers_of == want._readers_of
            # Delta scoring finds the nets whose readers changed by list
            # identity, so every other net shares its parent's list.
            touched = [g for g in c.gates.values() if got.gates.get(g.id) is not g]
            touched += [g for g in got.gates.values() if c.gates.get(g.id) is not g]
            patched = {nid for g in touched for nid in g.data_inputs}
            copied = [nid for nid in c.nets
                      if nid not in patched and got.readers(nid) is not c.readers(nid)]
            assert not copied, f"reader lists copied for nets {copied[:5]}"
            assert list(got.gates) == list(want.gates)
            assert list(got.nets) == list(want.nets)
            assert got.trojan_gate_ids == want.trojan_gate_ids
            assert got.trojan_net_ids == want.trojan_net_ids


@pytest.mark.parametrize("stem", fixture_names())
def test_fixture_rewrites_match_rebuild(stem, fixture_circuits):
    _assert_rewrites_match_rebuild(fixture_circuits[stem])


@settings(max_examples=5, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
    pick=st.integers(min_value=0, max_value=2**16),
)
def test_synth_rewrites_match_rebuild(index, seed, pick):
    # Check a synthetic circuit and one of its own rewrites, whose maps are
    # already partly shared with its parent's.
    _assert_circuit_and_child_match_rebuild(synth_circuit(index, seed=seed), pick)


@settings(max_examples=10, deadline=None)
@given(c=_oracles.feedback_circuits(), pick=st.integers(min_value=0, max_value=2**16))
def test_feedback_rewrites_match_rebuild(c, pick):
    # Flip-flop rings, clocks that also feed data pins, and floating nets.
    loops = slice(FEATURE_NAMES.index("loop_in_le1"), FEATURE_NAMES.index("loop_out_le5") + 1)
    assert extract_all(c).matrix[:, loops].any()
    _assert_circuit_and_child_match_rebuild(c, pick)


def _assert_circuit_and_child_match_rebuild(c: CircuitGraph, pick: int) -> None:
    rewrites = [(gid, p.pattern_id) for gid in sorted(c.gates)
                for p in applicable_patterns(c, gid, allow_relaxed=True)]
    gid, pattern_id = rewrites[pick % len(rewrites)]
    child = apply_pattern(c, gid, pattern_id, allow_relaxed=True).circuit
    for graph in (c, child):
        _assert_rewrites_match_rebuild(graph)


@pytest.mark.parametrize("pattern_id,family,fanin", [
    ("m1", "AND", 2),
    ("m4", "OR", 3),
    ("m6", "NAND", 4),
    ("m9", "XOR", 2),
    ("m13", "MUX2", 3),
    ("m14", "BUF", 1),
])
def test_representative_equivalence(pattern_id, family, fanin):
    c = _single_gate(family, fanin)
    res = apply_pattern(c, c.gate_by_name("g").id, pattern_id)
    rep = check_equivalence(c, res.circuit)
    assert rep.equivalent, rep.counterexample
    assert rep.mode == "exhaustive"
    assert rep.vectors == 2 ** len(c.primary_inputs)


def test_sequential_equivalence_m15():
    c = _single_gate("DFF", 2)
    res = apply_pattern(c, c.gate_by_name("g").id, "m15")
    rep = check_equivalence(c, res.circuit, seed=1)
    assert rep.equivalent
    assert rep.mode == "sequential"


def test_non_equivalence_detected():
    and2 = _single_gate("AND", 2)
    or_src = (
        "module fx (i0, i1, y);\n  input i0, i1;\n  output y;\n"
        "  OR2X1 g (y, i0, i1);\nendmodule\n"
    )
    or2 = parse_verilog(or_src, name="fx_and2")
    rep = check_equivalence(and2, or2)
    assert not rep.equivalent
    assert rep.counterexample is not None


@pytest.mark.parametrize("argument", ["num_random_vectors", "num_sequences", "sequence_length"])
@pytest.mark.parametrize("count", [0, -1])
def test_check_equivalence_rejects_counts_below_one(argument, count):
    c = _single_gate("AND", 2)
    with pytest.raises(ValueError, match=argument):
        check_equivalence(c, c, **{argument: count})


def test_m16_builds_latch_loop():
    c = _single_gate("DFF", 2)
    res = apply_pattern(c, c.gate_by_name("g").id, "m16", allow_relaxed=True)
    assert all(not g.kind.is_sequential for g in res.circuit.gates.values())
    with pytest.raises(CombinationalCycleError):
        simulate(res.circuit, {nid: 0 for nid in res.circuit.primary_inputs})


# -- simulation ----------------------------------------------------------------


def test_simulate_truth_table(fixture_circuits):
    c = fixture_circuits["comb_tree"]
    a, b, cc = (c.net_by_name(n).id for n in ("a", "b", "c"))
    y = c.net_by_name("y").id
    for va, vb, vc in itertools.product((0, 1), repeat=3):
        out = simulate(c, {a: va, b: vb, c: vc})
        expect = (1 - ((va & vb) & vc)) | va
        assert out[y] == expect


def test_simulate_constants(fixture_circuits):
    c = fixture_circuits["const_mix"]
    a = c.net_by_name("a").id
    for va in (0, 1):
        out = simulate(c, {a: va})
        assert out[c.net_by_name("y1").id] == (1 - (va & 1))
        assert out[c.net_by_name("y2").id] == va


def test_simulate_sequential_pipeline(fixture_circuits):
    c = fixture_circuits["dff_pipe"]
    d_in = c.net_by_name("d").id
    q = c.net_by_name("q").id
    dffs = [g for g in c.gates.values() if g.kind.is_sequential]
    state = {g.id: 0 for g in dffs}
    stream = [1, 0, 1, 1, 0]
    qs = []
    for bit in stream:
        out = simulate(c, {d_in: bit}, state=state)
        qs.append(out[q])
        # clock edge: every DFF captures its settled D value
        state = {g.id: out[g.inputs[0]] for g in dffs}
    # three registers with two inverters between: q(t) echoes d(t-3)
    assert qs[3] == stream[0] and qs[4] == stream[1]


def test_simulate_missing_inputs_default_to_zero(fixture_circuits):
    c = fixture_circuits["comb_tree"]
    zeros = {nid: 0 for nid in c.primary_inputs}
    assert simulate(c, {}) == simulate(c, zeros)
