"""Logic-equivalent rewrite patterns m1-m16, simulation, and equivalence.

The catalog replaces one gate at a time with a functionally identical network
(De Morgan decompositions, double negation, MUX expansion, flip-flop
transformations).  Patterns never change the circuit's function, with one
exception: ``m16`` swaps an edge-triggered flip-flop for a four-NAND gated D
latch, which matches only under timing assumptions.  It is marked *relaxed*,
disabled unless explicitly allowed, and excluded from equivalence checking
(the latch's cross-coupled NANDs also form a combinational cycle that a
levelized simulator cannot order).

Patterns:

========  ==========================================================
 m1       AND(x1..xn)   -> NOT(NAND(x1..xn))
 m2       AND(x1..xn)   -> NOR(NOT x1, .., NOT xn)
 m3       OR(x1..xn)    -> NOT(NOR(x1..xn))
 m4       OR(x1..xn)    -> NAND(NOT x1, .., NOT xn)
 m5       NAND(x1..xn)  -> NOT(AND(x1..xn))
 m6       NAND(x1..xn)  -> OR(NOT x1, .., NOT xn)
 m7       NOR(x1..xn)   -> NOT(OR(x1..xn))
 m8       NOR(x1..xn)   -> AND(NOT x1, .., NOT xn)
 m9       XOR(x1..xn)   -> NOT(XNOR(x1..xn))
 m10      XNOR(x1..xn)  -> NOT(XOR(x1..xn))
 m11      NOT(a)        -> NAND(a, a)
 m12      NOT(a)        -> NOR(a, a)
 m13      MUX2(a,b,s)   -> OR(AND(a, NOT s), AND(b, s))
 m14      wire          -> two inverters in series on a gate's output
 m15      DFF           -> DFF whose D input goes through a MUX2 that always
                           selects D (constant-1 select; Q on the dead input)
 m16      DFF (no rst)  -> four-NAND gated D latch [relaxed]
========  ==========================================================

Multi-input XOR is odd parity and XNOR its complement, which makes m9/m10
exact at every fanin.  Rewrites are pure: they return a fresh
:class:`CircuitGraph`; introduced gates and nets use the reserved ``__rw_``
name prefix, and they inherit the Trojan label of the replaced gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_, xor
from typing import Callable, Iterable, Mapping

import numpy as np

from .netlist import (
    AND,
    CONST1,
    MUX2,
    NAND,
    NOR,
    NOT,
    OR,
    XNOR,
    XOR,
    CellKind,
    CircuitGraph,
    Gate,
    Net,
    NetlistError,
    COMBINATIONAL_FAMILIES,
)

__all__ = [
    "RewritePattern",
    "RewriteResult",
    "PATTERNS",
    "PATTERN_IDS",
    "applicable_patterns",
    "apply_pattern",
    "CombinationalCycleError",
    "topological_gate_order",
    "simulate",
    "check_equivalence",
    "EquivalenceReport",
]


class CombinationalCycleError(NetlistError):
    """The combinational portion of a circuit contains a cycle."""


# ---------------------------------------------------------------------------
# Pattern catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RewritePattern:
    """One catalog entry: what it matches and how it rebuilds the gate."""

    pattern_id: str
    description: str
    families: tuple[str, ...]
    relaxed: bool = False

    def applies_to(self, gate: Gate, allow_relaxed: bool = False) -> bool:
        if self.relaxed and not allow_relaxed:
            return False
        if gate.kind.family not in self.families:
            return False
        if self.pattern_id == "m16" and gate.kind.has_reset:
            return False
        return True


@dataclass(frozen=True)
class RewriteResult:
    """Outcome of one pattern application (the input circuit is untouched)."""

    circuit: CircuitGraph
    pattern_id: str
    gate_id: int
    new_gate_ids: tuple[int, ...]
    new_net_ids: tuple[int, ...]
    removed_gate_ids: tuple[int, ...]
    replaced_pin_nets: tuple[int, ...] = ()

    @property
    def touched_net_ids(self) -> tuple[int, ...]:
        """New nets plus the replaced gate's pins; seeds for local re-extraction."""
        return self.new_net_ids + self.replaced_pin_nets


class _Patch:
    """Accumulates the replacement network with fresh ids and ``__rw_`` names."""

    def __init__(self, circuit: CircuitGraph):
        self.circuit = circuit
        self._next_gate = circuit.next_gate_id()
        self._next_net = circuit.next_net_id()
        self.new_gates: list[Gate] = []
        self.new_nets: list[Net] = []
        self.updated_gates: list[Gate] = []
        self.removed: list[int] = []

    def net(self) -> int:
        nid = self._next_net
        self._next_net += 1
        self.new_nets.append(Net(nid, f"__rw_n{nid}"))
        return nid

    def gate(self, kind: CellKind, inputs: tuple[int, ...], output: int) -> int:
        gid = self._next_gate
        self._next_gate += 1
        self.new_gates.append(Gate(gid, kind, inputs, (output,), f"__rw_g{gid}"))
        return gid

    def update(self, gate: Gate) -> None:
        self.updated_gates.append(gate)

    def remove(self, gate_id: int) -> None:
        self.removed.append(gate_id)

    def build(self, replaced: Gate, pattern_id: str) -> RewriteResult:
        was_trojan = self.circuit.is_trojan_gate(replaced.id)
        new_gids = tuple(g.id for g in self.new_gates)
        new_nids = tuple(n.id for n in self.new_nets)
        circuit = self.circuit.replace(
            remove_gates=self.removed,
            upsert_gates=self.new_gates + self.updated_gates,
            add_nets=self.new_nets,
            extra_trojan_gates=new_gids if was_trojan else (),
            extra_trojan_nets=new_nids if was_trojan else (),
        )
        pins = tuple(dict.fromkeys(replaced.inputs + replaced.outputs))
        return RewriteResult(
            circuit, pattern_id, replaced.id, new_gids, new_nids,
            tuple(self.removed), pins,
        )


def _invert_inputs(p: _Patch, gate: Gate) -> tuple[int, ...]:
    inv = []
    for nid in gate.inputs:
        mid = p.net()
        p.gate(NOT, (nid,), mid)
        inv.append(mid)
    return tuple(inv)


def _demorgan_outer_not(p: _Patch, gate: Gate, inner_family: Mapping[int, CellKind]) -> None:
    mid = p.net()
    p.gate(inner_family[gate.kind.fanin], gate.inputs, mid)
    p.gate(NOT, (mid,), gate.output)
    p.remove(gate.id)


def _demorgan_inverted_inputs(p: _Patch, gate: Gate, outer_family: Mapping[int, CellKind]) -> None:
    inv = _invert_inputs(p, gate)
    p.gate(outer_family[gate.kind.fanin], inv, gate.output)
    p.remove(gate.id)


def _build_m11(p: _Patch, gate: Gate, kind_table: Mapping[int, CellKind]) -> None:
    a = gate.inputs[0]
    p.gate(kind_table[2], (a, a), gate.output)
    p.remove(gate.id)


def _build_m13(p: _Patch, gate: Gate) -> None:
    a, b, s = gate.inputs
    not_s = p.net()
    left = p.net()
    right = p.net()
    p.gate(NOT, (s,), not_s)
    p.gate(AND[2], (a, not_s), left)
    p.gate(AND[2], (b, s), right)
    p.gate(OR[2], (left, right), gate.output)
    p.remove(gate.id)


def _build_m14(p: _Patch, gate: Gate) -> None:
    n1 = p.net()
    n2 = p.net()
    p.update(Gate(gate.id, gate.kind, gate.inputs, (n1,), gate.name))
    p.gate(NOT, (n1,), n2)
    p.gate(NOT, (n2,), gate.output)


def _build_m15(p: _Patch, gate: Gate) -> None:
    d = gate.inputs[0]
    q = gate.output
    const_net = p.net()
    mux_out = p.net()
    p.gate(CONST1, (), const_net)
    p.gate(MUX2, (q, d, const_net), mux_out)
    p.update(
        Gate(gate.id, gate.kind, (mux_out,) + gate.inputs[1:], gate.outputs, gate.name)
    )


def _build_m16(p: _Patch, gate: Gate) -> None:
    d, clk = gate.inputs
    q = gate.output
    n1 = p.net()
    n2 = p.net()
    qbar = p.net()
    p.gate(NAND[2], (d, clk), n1)
    p.gate(NAND[2], (n1, clk), n2)
    p.gate(NAND[2], (n1, qbar), q)
    p.gate(NAND[2], (n2, q), qbar)
    p.remove(gate.id)


_BUILDERS: dict[str, Callable[[_Patch, Gate], None]] = {
    "m1": lambda p, g: _demorgan_outer_not(p, g, NAND),
    "m2": lambda p, g: _demorgan_inverted_inputs(p, g, NOR),
    "m3": lambda p, g: _demorgan_outer_not(p, g, NOR),
    "m4": lambda p, g: _demorgan_inverted_inputs(p, g, NAND),
    "m5": lambda p, g: _demorgan_outer_not(p, g, AND),
    "m6": lambda p, g: _demorgan_inverted_inputs(p, g, OR),
    "m7": lambda p, g: _demorgan_outer_not(p, g, OR),
    "m8": lambda p, g: _demorgan_inverted_inputs(p, g, AND),
    "m9": lambda p, g: _demorgan_outer_not(p, g, XNOR),
    "m10": lambda p, g: _demorgan_outer_not(p, g, XOR),
    "m11": lambda p, g: _build_m11(p, g, NAND),
    "m12": lambda p, g: _build_m11(p, g, NOR),
    "m13": _build_m13,
    "m14": _build_m14,
    "m15": _build_m15,
    "m16": _build_m16,
}


PATTERNS: tuple[RewritePattern, ...] = (
    RewritePattern("m1", "AND -> NOT(NAND)", ("AND",)),
    RewritePattern("m2", "AND -> NOR of inverted inputs", ("AND",)),
    RewritePattern("m3", "OR -> NOT(NOR)", ("OR",)),
    RewritePattern("m4", "OR -> NAND of inverted inputs", ("OR",)),
    RewritePattern("m5", "NAND -> NOT(AND)", ("NAND",)),
    RewritePattern("m6", "NAND -> OR of inverted inputs", ("NAND",)),
    RewritePattern("m7", "NOR -> NOT(OR)", ("NOR",)),
    RewritePattern("m8", "NOR -> AND of inverted inputs", ("NOR",)),
    RewritePattern("m9", "XOR -> NOT(XNOR)", ("XOR",)),
    RewritePattern("m10", "XNOR -> NOT(XOR)", ("XNOR",)),
    RewritePattern("m11", "NOT -> NAND(a, a)", ("NOT",)),
    RewritePattern("m12", "NOT -> NOR(a, a)", ("NOT",)),
    RewritePattern("m13", "MUX2 -> AND/OR/NOT network", ("MUX2",)),
    RewritePattern("m14", "output wire -> two inverters", COMBINATIONAL_FAMILIES),
    RewritePattern("m15", "DFF -> DFF behind an always-D MUX2", ("DFF",)),
    RewritePattern("m16", "DFF -> four-NAND gated D latch", ("DFF",), relaxed=True),
)

PATTERN_IDS: tuple[str, ...] = tuple(p.pattern_id for p in PATTERNS)
_BY_ID: dict[str, RewritePattern] = {p.pattern_id: p for p in PATTERNS}


def applicable_patterns(
    circuit: CircuitGraph, gate_id: int, allow_relaxed: bool = False
) -> tuple[RewritePattern, ...]:
    """Catalog entries applicable to one gate, in m1..m16 order."""
    gate = circuit.gates[gate_id]
    return tuple(p for p in PATTERNS if p.applies_to(gate, allow_relaxed))


def apply_pattern(
    circuit: CircuitGraph,
    gate_id: int,
    pattern_id: str,
    allow_relaxed: bool = False,
) -> RewriteResult:
    """Apply one pattern to one gate, returning a new circuit."""
    if pattern_id not in _BY_ID:
        raise KeyError(f"unknown pattern {pattern_id!r}")
    pattern = _BY_ID[pattern_id]
    gate = circuit.gates[gate_id]
    if not pattern.applies_to(gate, allow_relaxed):
        raise ValueError(
            f"pattern {pattern_id} does not apply to {gate.kind} gate {gate.name!r}"
        )
    patch = _Patch(circuit)
    _BUILDERS[pattern_id](patch, gate)
    return patch.build(gate, pattern_id)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


def topological_gate_order(circuit: CircuitGraph) -> list[int]:
    """Combinational gates in dependency order (DFF/CONST outputs are sources).

    Raises :class:`CombinationalCycleError` when the combinational portion is
    cyclic (e.g. after an m16 rewrite).
    """
    comb = [g for g in circuit.gates.values() if not g.kind.is_sequential]
    # A gate's indegree: its distinct data nets that combinational gates drive.
    indeg = {g.id: 0 for g in comb}
    for g in comb:
        for dep in circuit.readers(g.output):
            if not dep.kind.is_sequential:
                indeg[dep.id] += 1
    ready = sorted(gid for gid, d in indeg.items() if d == 0)
    order: list[int] = []
    i = 0
    while i < len(ready):
        gid = ready[i]
        i += 1
        order.append(gid)
        for dep in circuit.readers(circuit.gates[gid].output):
            if not dep.kind.is_sequential:
                indeg[dep.id] -= 1
                if indeg[dep.id] == 0:
                    ready.append(dep.id)
    if len(order) != len(comb):
        stuck = sorted(
            circuit.gates[gid].name for gid, d in indeg.items() if d > 0
        )
        raise CombinationalCycleError(
            f"combinational cycle involving gates {stuck[:6]}"
        )
    return order


# Family -> (fold over the inputs, whether the result is inverted).  NOT and
# BUF fold a single input, so the operator never applies to them.
_GATE_OPS = {
    "AND": (and_, False), "NAND": (and_, True),
    "OR": (or_, False), "NOR": (or_, True),
    "XOR": (xor, False), "XNOR": (xor, True),
    "BUF": (and_, False), "NOT": (and_, True),
}


_Step = Callable[[Mapping[int, int], Mapping[int, int], int], tuple[dict[int, int], dict[int, int]]]


def _bit_simulator(circuit: CircuitGraph) -> _Step:
    """A bit-parallel evaluator of ``circuit``: bit *j* of every value is vector *j*.

    The returned ``step(inputs, state, mask)`` takes net-id -> bit-vector
    inputs (unset and floating nets read 0), DFF gate id -> held Q (default
    0) and an all-ones ``mask`` of the vector width.  It returns every net's
    value and every DFF's next state: Q <- D, or 0 when an (active-high)
    reset is set.
    """
    gates = [circuit.gates[gid] for gid in topological_gate_order(circuit)]
    dffs = sorted(
        (g for g in circuit.gates.values() if g.kind.is_sequential), key=lambda g: g.id
    )

    def step(
        inputs: Mapping[int, int], state: Mapping[int, int], mask: int
    ) -> tuple[dict[int, int], dict[int, int]]:
        values = dict.fromkeys(circuit.nets, 0)
        values.update(inputs)
        for g in dffs:
            values[g.output] = state.get(g.id, 0)
        for g in gates:
            fam = g.kind.family
            if fam == "MUX2":
                a, b, s = (values[i] for i in g.inputs)
                v = (a & ~s) | (b & s)
            elif fam == "CONST1":
                v = mask
            elif fam == "CONST0":
                v = 0
            else:
                fold, inverted = _GATE_OPS[fam]
                v = reduce(fold, [values[i] for i in g.inputs])
                if inverted:
                    v ^= mask
            values[g.output] = v
        next_state = {}
        for g in dffs:
            d = values[g.inputs[0]]
            next_state[g.id] = d & ~values[g.inputs[2]] if g.kind.has_reset else d
        return values, next_state

    return step


def simulate(
    circuit: CircuitGraph,
    assignment: Mapping[int, int],
    state: Mapping[int, int] | None = None,
) -> dict[int, int]:
    """Evaluate every net for one primary-input assignment.

    ``assignment`` maps primary-input net ids to 0/1 (missing inputs default
    to 0); ``state`` optionally maps DFF gate ids to held values (default 0).
    """
    inputs = {nid: int(bool(assignment.get(nid, 0))) for nid in circuit.primary_inputs}
    held = {gid: int(bool(v)) for gid, v in (state or {}).items()}
    values, _ = _bit_simulator(circuit)(inputs, held, 1)
    return values


# ---------------------------------------------------------------------------
# Equivalence checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of :func:`check_equivalence`.

    ``vectors`` counts every vector checked, except on a mismatch in
    exhaustive mode, where it is the width of the failing chunk of at most
    2**13 vectors.  On a mismatch in random mode it is still the whole batch,
    and in sequential mode every planned cycle, even for a cycle-0 mismatch.
    """

    equivalent: bool
    mode: str  # "exhaustive" | "random" | "sequential"
    vectors: int
    counterexample: dict[str, int] | None = None

    def __bool__(self) -> bool:
        return self.equivalent


def _port_maps(c1: CircuitGraph, c2: CircuitGraph) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    def by_name(c: CircuitGraph, ids: Iterable[int]) -> dict[str, int]:
        return {c.nets[i].name: i for i in ids}

    pi1, pi2 = by_name(c1, c1.primary_inputs), by_name(c2, c2.primary_inputs)
    po1, po2 = by_name(c1, c1.primary_outputs), by_name(c2, c2.primary_outputs)
    if set(pi1) != set(pi2) or set(po1) != set(po2):
        raise NetlistError("circuits have different port names; cannot compare")
    pis = [(pi1[n], pi2[n]) for n in sorted(pi1)]
    pos = [(po1[n], po2[n]) for n in sorted(po1)]
    return pis, pos


def check_equivalence(
    c1: CircuitGraph,
    c2: CircuitGraph,
    seed: int = 0,
    max_exhaustive_inputs: int = 16,
    num_random_vectors: int = 10_000,
    num_sequences: int = 100,
    sequence_length: int = 64,
) -> EquivalenceReport:
    """Simulation-based equivalence of two circuits with matching port names.

    Combinational circuits are compared exhaustively up to
    ``max_exhaustive_inputs`` primary inputs, otherwise on seeded random
    vectors.  Circuits containing flip-flops are co-simulated from the
    all-zero state over random input sequences, comparing every primary
    output at every cycle.  Raises :class:`CombinationalCycleError` for
    cyclic combinational logic (relaxed rewrites are not checkable).
    """
    for name, count in (("num_random_vectors", num_random_vectors),
                        ("num_sequences", num_sequences),
                        ("sequence_length", sequence_length)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    pis, pos = _port_maps(c1, c2)
    step1, step2 = _bit_simulator(c1), _bit_simulator(c2)
    n_in = len(pis)
    rng = np.random.default_rng(seed)
    # Each round is an (n_in, width) 0/1 matrix, one column per vector.
    # Sequential rounds are cycles and carry the flip-flop state forward;
    # exhaustive rounds are chunks of the input space, to bound memory.
    if any(g.kind.is_sequential for c in (c1, c2) for g in c.gates.values()):
        mode, total = "sequential", num_sequences * sequence_length
        rounds = (rng.integers(0, 2, size=(n_in, num_sequences))
                  for _ in range(sequence_length))
    elif n_in <= max_exhaustive_inputs:
        mode, total = "exhaustive", 1 << n_in
        chunk = 1 << 13
        shifts = np.arange(n_in, dtype=np.uint32)[:, None]
        rounds = ((np.arange(start, min(start + chunk, total), dtype=np.uint32) >> shifts) & 1
                  for start in range(0, total, chunk))
    else:
        mode, total = "random", num_random_vectors
        rounds = [rng.integers(0, 2, size=(n_in, num_random_vectors))]
    st1: dict[int, int] = {}
    st2: dict[int, int] = {}
    for cycle, bits in enumerate(rounds):
        # Without inputs every vector is the same, so one stands for all.
        width = bits.shape[1] if n_in else 1
        words = [int.from_bytes(row.tobytes(), "little")
                 for row in np.packbits(bits.astype(bool), axis=1, bitorder="little")]
        mask = (1 << width) - 1
        v1, st1 = step1({nid: w for (nid, _), w in zip(pis, words)}, st1, mask)
        v2, st2 = step2({nid: w for (_, nid), w in zip(pis, words)}, st2, mask)
        for o1, o2 in pos:
            diff = v1[o1] ^ v2[o2]
            if diff:
                j = (diff & -diff).bit_length() - 1
                cex = {c1.nets[nid].name: int(bits[k, j]) for k, (nid, _) in enumerate(pis)}
                if mode != "sequential":
                    return EquivalenceReport(False, mode, width, cex)
                cex["__cycle"] = cycle
                return EquivalenceReport(False, mode, total, cex)
    return EquivalenceReport(True, mode, total)
