"""Seeded synthetic benchmark circuits with implanted trigger-style Trojans.

Each circuit is a layered random host of small (fanin <= 3) combinational
gates with a few flip-flops, plus an implanted Trojan: a wide-fanin (4-5)
AND-tree trigger tapping rarely-used host nets, optionally latched through a
flip-flop, and an XOR payload spliced into one host connection.  Host cells
never exceed fanin 3, so the wide trigger gates carry exactly the structural
signature the 51-feature detector keys on -- and the rewrite catalog can
displace that signature to deeper levels, which is what makes these circuits
usable for exercising the attack and the adversarial training loop at desk
scale.

Everything is derived from one integer seed; the same seed always produces
bit-identical graphs.  A host gate's kind is ``Generator.choice``'s draw for
``p``, written out here: one ``random()`` looked up in the weights' CDF.
Instance and net names use ``troj_`` prefixes for the implant so the corpus
also works with regex labeling, but the generator attaches exact label sets
directly.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .netlist import (
    AND,
    DFF,
    MUX2,
    NAND,
    NOR,
    NOT,
    OR,
    XOR,
    CellKind,
    CircuitGraph,
    Gate,
    Net,
)

__all__ = ["synth_circuit", "synth_corpus"]

_HOST_KINDS: tuple[tuple[CellKind, float], ...] = (
    (AND[2], 0.22),
    (OR[2], 0.18),
    (NAND[2], 0.14),
    (NOR[2], 0.10),
    (XOR[2], 0.14),
    (NOT, 0.08),
    (AND[3], 0.07),
    (OR[3], 0.07),
)
_KINDS = [k for k, _ in _HOST_KINDS]
_KIND_P = np.array([w for _, w in _HOST_KINDS])
_KIND_P = _KIND_P / _KIND_P.sum()
# As ``Generator.choice(len(_KINDS), p=_KIND_P)`` builds it before its search.
_KIND_CDF = (_KIND_P.cumsum() / _KIND_P.cumsum()[-1]).tolist()


class _Build:
    def __init__(self) -> None:
        self.nets: list[Net] = []
        self.gates: list[Gate] = []
        self.trojan_gates: set[int] = set()
        self.trojan_nets: set[int] = set()

    def net(self, name: str) -> int:
        nid = len(self.nets)
        self.nets.append(Net(nid, name))
        return nid

    def gate(
        self, kind: CellKind, inputs: tuple[int, ...], name: str, trojan: bool = False
    ) -> int:
        out = self.net(f"{name}_o")
        gid = len(self.gates)
        self.gates.append(Gate(gid, kind, inputs, out, name))
        if trojan:
            self.trojan_gates.add(gid)
            self.trojan_nets.add(out)
        return out


def _pick(rng: np.random.Generator, pool: list[int], k: int) -> list[int]:
    idx = rng.choice(len(pool), size=k, replace=False)
    return [pool[i] for i in sorted(idx.tolist())]


def synth_circuit(index: int, seed: int, with_trojan: bool = True) -> CircuitGraph:
    """One synthetic circuit; even indices latch the Trojan trigger in a DFF."""
    rng = np.random.default_rng(seed)
    b = _Build()

    n_pi = int(rng.integers(14, 19))
    pis = [b.net(f"pi{i}") for i in range(n_pi)]
    clk = b.net("clk")
    layers: list[list[int]] = [pis]

    n_layers = int(rng.integers(7, 10))
    for li in range(n_layers):
        pool = layers[-1] + (layers[-2] if len(layers) > 1 else [])
        width = int(rng.integers(20, 29))
        layer: list[int] = []
        for gi in range(width):
            kind = _KINDS[bisect_right(_KIND_CDF, rng.random())]
            ins = tuple(_pick(rng, pool, kind.fanin))
            layer.append(b.gate(kind, ins, f"g{li}_{gi}"))
        if li == 1:
            # A couple of pipeline registers and one host MUX for cell variety.
            for ri, src in enumerate(_pick(rng, layer, 2)):
                layer.append(
                    b.gate(DFF, (src, clk), f"r{li}_{ri}")
                )
            a, bb, s = _pick(rng, layer + pool, 3)
            layer.append(b.gate(MUX2, (a, bb, s), f"mx{li}"))
        layers.append(layer)

    mid_pool = layers[2] + layers[3]
    pos = _pick(rng, layers[-1], min(5, len(layers[-1])))

    if with_trojan:
        taps1 = tuple(_pick(rng, mid_pool, 5))
        taps2 = tuple(_pick(rng, mid_pool, 4))
        t1 = b.gate(AND[5], taps1, "troj_t1", trojan=True)
        t2 = b.gate(NOR[4], taps2, "troj_t2", trojan=True)
        trig = b.gate(AND[2], (t1, t2), "troj_trig", trojan=True)
        src = trig
        if index % 2 == 0:
            src = b.gate(DFF, (trig, clk), "troj_state", trojan=True)
        # The host combinational gates reading each net, in gate order.
        host_readers: dict[int, list[Gate]] = {}
        for g in b.gates:
            if g.id not in b.trojan_gates and not g.kind.is_sequential:
                for nid in dict.fromkeys(g.inputs):
                    host_readers.setdefault(nid, []).append(g)

        victim_candidates = [
            nid
            for nid in mid_pool + layers[-1]
            if nid not in b.trojan_nets and nid in host_readers
        ]
        victim = victim_candidates[int(rng.integers(len(victim_candidates)))]
        payload = b.gate(XOR[2], (victim, src), "troj_payload", trojan=True)
        readers = host_readers[victim]
        target = readers[int(rng.integers(len(readers)))]
        new_inputs = tuple(payload if i == victim else i for i in target.inputs)
        b.gates[target.id] = Gate(
            target.id, target.kind, new_inputs, target.output, target.name
        )

    # Sweep dangling nets into an OR-tree observability output.
    consumed = {nid for g in b.gates for nid in g.inputs}
    ports = set(pis + [clk] + pos)
    dangling = [n.id for n in b.nets if n.id not in consumed and n.id not in ports]
    oi = 0
    while len(dangling) > 1:
        a_, b_ = dangling[0], dangling[1]
        dangling = dangling[2:] + [b.gate(OR[2], (a_, b_), f"obs{oi}")]
        oi += 1
    if dangling:
        pos = pos + [dangling[0]]

    inputs = pis + [clk]
    return CircuitGraph(
        f"synth{index:02d}",
        b.gates,
        b.nets,
        tuple(inputs),
        tuple(dict.fromkeys(pos)),
        b.trojan_gates,
        b.trojan_nets,
    )


def synth_corpus(num_circuits: int = 12, seed: int = 2024) -> list[CircuitGraph]:
    """A reproducible corpus; circuit ``i`` uses child seed ``seed*10007 + i``."""
    return [synth_circuit(i, seed * 10_007 + i) for i in range(num_circuits)]
