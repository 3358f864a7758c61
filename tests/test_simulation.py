"""The bit-parallel simulator against the one-vector reference interpreter.

Circuits here are random and acyclic through their combinational gates:
every family appears, flip-flops (with and without reset) may feed back from
any net, and a few nets are left floating.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from htlab import (
    CellKind,
    CircuitGraph,
    Gate,
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
    gates = [Gate(g.id, kind, pins, g.outputs, g.name) if g is target else g
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


_MODES = st.sampled_from(["exhaustive", "random", "sequential"])


@settings(max_examples=60, deadline=None)
@given(mode=_MODES, data=st.data())
def test_simulate_matches_reference(mode, data):
    c = data.draw(circuits(mode, 6))
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


@settings(max_examples=30, deadline=None)
@given(mode=_MODES, data=st.data())
def test_patterns_preserve_equivalence_on_random_circuits(mode, data):
    c = data.draw(circuits(mode, 16))
    gid = data.draw(st.sampled_from(sorted(c.gates)))
    for pattern in applicable_patterns(c, gid):
        rep = check_equivalence(c, apply_pattern(c, gid, pattern.pattern_id).circuit)
        assert rep.mode == mode
        assert rep.equivalent, (pattern.pattern_id, rep.counterexample)
