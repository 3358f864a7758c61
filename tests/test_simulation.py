"""The bit-parallel simulator against the one-vector reference interpreter.

Circuits here are random and acyclic through their combinational gates:
every family appears, flip-flops (with and without reset) may feed back from
any net, and a few nets are left floating.
"""
from __future__ import annotations

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from htlab import (
    CellKind,
    CircuitGraph,
    Gate,
    Net,
    applicable_patterns,
    apply_pattern,
    check_equivalence,
    simulate,
)

# The family swaps of mutants; each changes the gate's function.
_SWAP = {"AND": "OR", "OR": "AND", "NAND": "NOR", "NOR": "NAND", "XOR": "XNOR",
         "XNOR": "XOR", "NOT": "BUF", "BUF": "NOT", "CONST0": "CONST1", "CONST1": "CONST0"}


def mutant(circuit: CircuitGraph, pick: int, drop_reset: bool) -> CircuitGraph:
    """``circuit`` with one gate's family swapped, or one flip-flop's reset dropped."""
    swappable = [g for g in circuit.gates.values()
                 if (g.kind.has_reset if drop_reset else g.kind.family in _SWAP)]
    if not swappable:
        return circuit
    target = swappable[pick % len(swappable)]
    if drop_reset:
        kind, pins = CellKind("DFF", 1), target.inputs[:2]
    else:
        kind, pins = CellKind(_SWAP[target.kind.family], target.kind.fanin), target.inputs
    gates = [Gate(g.id, kind, pins, g.output, g.name) if g is target else g
             for g in circuit.gates.values()]
    return CircuitGraph(circuit.name + "_mut", gates, circuit.nets.values(),
                        circuit.primary_inputs, circuit.primary_outputs)


@st.composite
def circuits(draw, mode: str, max_exhaustive_inputs: int):
    """A random circuit that ``check_equivalence`` checks in ``mode``."""
    n_inputs = {
        "exhaustive": st.integers(1, max_exhaustive_inputs),
        "random": st.integers(max_exhaustive_inputs + 1, max_exhaustive_inputs + 4),
        "sequential": st.integers(1, 6),
    }[mode]
    return _oracles.random_circuit(draw(st.integers(0, 2**32)), draw(n_inputs),
                                   draw(st.integers(1, 30)), mode == "sequential")


def relaid(data, circuit: CircuitGraph) -> CircuitGraph:
    """``circuit`` with a drawn id layout: maybe one rewrite, whose removed
    gate id leaves a hole and whose new gate and net ids lie past the old
    maximum, and maybe net ids spread out to every third integer."""
    gid = data.draw(st.sampled_from(sorted(circuit.gates)))
    patterns = applicable_patterns(circuit, gid)
    if patterns and data.draw(st.booleans()):
        circuit = apply_pattern(circuit, gid, data.draw(st.sampled_from(patterns)).pattern_id).circuit
    if data.draw(st.booleans()):
        gates = [Gate(g.id, g.kind, tuple(3 * n for n in g.inputs), 3 * g.output, g.name)
                 for g in circuit.gates.values()]
        circuit = CircuitGraph(
            circuit.name, gates, [Net(3 * n.id, n.name) for n in circuit.nets.values()],
            [3 * n for n in circuit.primary_inputs], [3 * n for n in circuit.primary_outputs],
            circuit.trojan_gate_ids, [3 * n for n in circuit.trojan_net_ids])
    return circuit


_MODES = st.sampled_from(["exhaustive", "random", "sequential"])


@settings(max_examples=60, deadline=None)
@given(mode=_MODES, data=st.data())
def test_simulate_matches_reference(mode, data):
    c = relaid(data, data.draw(circuits(mode, 6)))
    bit = st.integers(0, 1)
    assignment = {nid: data.draw(bit) for nid in c.primary_inputs}
    state = {gid: data.draw(bit) for gid, g in c.gates.items() if g.kind.is_sequential}
    want, _ = _oracles.reference_step(c, assignment, state)
    assert simulate(c, assignment, state) == want


@settings(max_examples=60, deadline=None)
@given(mode=_MODES, data=st.data())
def test_check_equivalence_matches_reference(mode, data):
    c1 = data.draw(circuits(mode, 6))
    c2 = mutant(c1, data.draw(st.integers(0, 2**16)), data.draw(st.booleans()))
    c1 = relaid(data, c1)
    kwargs = dict(
        seed=data.draw(st.integers(0, 2**16)),
        max_exhaustive_inputs=6,
        num_random_vectors=data.draw(st.integers(1, 64)),
        num_sequences=data.draw(st.integers(1, 8)),
        sequence_length=data.draw(st.integers(1, 8)),
    )
    rep = check_equivalence(c1, c2, **kwargs)
    assert rep.mode == mode
    want = _oracles.reference_equivalence(c1, c2, **kwargs)
    assert (rep.equivalent, rep.mode, rep.vectors, rep.counterexample) == want


def test_exhaustive_check_fails_in_the_second_chunk():
    # AND14 and CONST0 differ only on vector 16383, the last of the second
    # chunk of 2**13 vectors.
    pis = [Net(k, f"i{k}") for k in range(14)]
    nets = [*pis, Net(14, "y"), Net(15, "n0"), Net(16, "n1"), Net(17, "n2")]
    and14 = CircuitGraph("and14", [
        Gate(0, CellKind("AND", 5), (0, 1, 2, 3, 4), 15, "g0"),
        Gate(1, CellKind("AND", 5), (5, 6, 7, 8, 9), 16, "g1"),
        Gate(2, CellKind("AND", 4), (10, 11, 12, 13), 17, "g2"),
        Gate(3, CellKind("AND", 3), (15, 16, 17), 14, "g3"),
    ], nets, range(14), [14])
    const0 = CircuitGraph("const0", [Gate(0, CellKind("CONST0", 0), (), 14, "g0")],
                          nets[:15], range(14), [14])
    rep = check_equivalence(and14, const0)
    got = (rep.equivalent, rep.mode, rep.vectors, rep.counterexample)
    assert got == (False, "exhaustive", 8192, {f"i{k}": 1 for k in range(14)})
    assert got == _oracles.reference_equivalence(and14, const0)


def test_reset_clears_the_next_state():
    nets = [Net(0, "d"), Net(1, "ck"), Net(2, "r"), Net(3, "q")]
    ff = CircuitGraph("ff", [Gate(0, CellKind("DFF", 1, has_reset=True), (0, 1, 2), 3, "ff")],
                      nets, [0, 1, 2], [3])
    plain, kwargs = mutant(ff, 0, True), dict(num_sequences=8, sequence_length=4)
    rep = check_equivalence(ff, plain, **kwargs)
    assert not rep.equivalent
    assert (rep.equivalent, rep.mode, rep.vectors, rep.counterexample) == (
        _oracles.reference_equivalence(ff, plain, **kwargs))


def test_equivalence_reports_are_pinned(corpus12, scale300):
    # The hypothesis properties stop at 30 gates; these circuits have 220-300
    # gates and flip-flops.  Each is checked against one equivalent rewrite
    # (the first pattern on its middle gate) and two mutants.
    reports = []
    for c in [*corpus12, scale300]:
        gid = sorted(c.gates)[len(c.gates) // 2]
        pid = applicable_patterns(c, gid)[0].pattern_id
        for other in (apply_pattern(c, gid, pid).circuit, mutant(c, 7, False), mutant(c, 23, False)):
            rep = check_equivalence(c, other)
            reports.append((rep.equivalent, rep.mode, rep.vectors, rep.counterexample))
    assert sum(not r[0] for r in reports) == 22
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "538647904425e9e6561ad393baa17dbd055cca9f926675b1f60a06491235673c"


@settings(max_examples=30, deadline=None)
@given(mode=_MODES, data=st.data())
def test_patterns_preserve_equivalence_on_random_circuits(mode, data):
    c = data.draw(circuits(mode, 16))
    gid = data.draw(st.sampled_from(sorted(c.gates)))
    for pattern in applicable_patterns(c, gid):
        rep = check_equivalence(c, apply_pattern(c, gid, pattern.pattern_id).circuit)
        assert rep.mode == mode
        assert rep.equivalent, (pattern.pattern_id, rep.counterexample)
