"""The bit-parallel simulator against the one-vector reference interpreter.

Circuits here are random and acyclic through their combinational gates:
every family appears, flip-flops (with and without reset) may feed back from
any net, and a few nets are left floating.
"""
from __future__ import annotations

import random

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

# Constants are rare so that most outputs still depend on the inputs.
_FAMILIES = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR") * 2 + (
    "NOT", "BUF", "MUX2", "MUX2", "CONST0", "CONST1")
_FIXED_FANIN = {"NOT": 1, "BUF": 1, "MUX2": 3, "CONST0": 0, "CONST1": 0}
# The family swaps of mutants; each changes the gate's function.
_SWAP = {"AND": "OR", "OR": "AND", "NAND": "NOR", "NOR": "NAND", "XOR": "XNOR",
         "XNOR": "XOR", "NOT": "BUF", "BUF": "NOT", "CONST0": "CONST1", "CONST1": "CONST0"}


def random_circuit(seed: int, n_inputs: int, n_gates: int, sequential: bool) -> CircuitGraph:
    """A random circuit; flip-flops (only when ``sequential``) break every loop."""
    rng = random.Random(seed)
    pis = list(range(n_inputs))
    nets = [Net(k, f"i{k}") for k in pis]
    nets += [Net(len(nets) + k, f"f{k}") for k in range(rng.randint(0, 2))]  # floating
    sources = [n.id for n in nets]
    outs = [len(nets) + k for k in range(n_gates)]
    nets += [Net(nid, f"n{k}") for k, nid in enumerate(outs)]
    dffs = set()
    if sequential:
        dffs = set(rng.sample(range(n_gates), rng.randint(1, max(1, n_gates // 4))))
    gates = []
    for k, out in enumerate(outs):
        if k in dffs:
            pins = [rng.choice(sources + outs), rng.choice(pis)]
            if rng.random() < 0.5:
                pins.append(rng.choice(sources + outs))
            kind = CellKind("DFF", 1, has_reset=len(pins) == 3)
        else:
            family = rng.choice(_FAMILIES)
            kind = CellKind(family, _FIXED_FANIN.get(family, rng.randint(2, 5)))
            pins = [rng.choice(sources + outs[:k]) for _ in range(kind.fanin)]
        gates.append(Gate(k, kind, tuple(pins), (out,), f"g{k}"))
    # Every flip-flop is observable, so that its reset shows at an output.
    pos = sorted({outs[-1], *(outs[k] for k in dffs),
                  *rng.sample(outs, min(n_gates, rng.randint(1, 4)))})
    return CircuitGraph(f"rand{seed}", gates, nets, pis, pos)


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
    return random_circuit(draw(st.integers(0, 2**32)), draw(n_inputs),
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
