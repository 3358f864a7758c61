"""Structural 51-dimensional feature vectors for netlist Trojan detection.

Feature layout (1-indexed to match the usual table; array index = feature - 1):

* 1-5    ``fanin_lvl{n}``   total data-input pins of *combinational* gates
                            whose minimal input-side level is exactly ``n``
                            (DFF and constant cells are excluded; a MUX2
                            contributes 3 pins including its select).
* 6-10   ``ff_in_le{n}``    distinct flip-flops within ``n`` levels, input side.
* 11-15  ``ff_out_le{n}``   same, output side.
* 16-20  ``mux_in_le{n}``   distinct MUX2 cells, input side.
* 21-25  ``mux_out_le{n}``  same, output side.
* 26-30  ``loop_in_le{n}``  directed cycles through the net with at most ``n``
                            gate crossings, discovered walking the input side;
                            cycles are deduplicated on their net-id set.  The
                            search steps back to a net only if the output
                            walk reaches it within the crossings left; a
                            cycle closes over such a path, so this is exact.
* 31-35  ``loop_out_le{n}`` same, walking the output side.  A directed cycle
                            through a net is reachable from both directions, so
                            these always equal 26-30; both are kept to preserve
                            the 51-column layout.
* 36-40  ``const_in_le{n}`` distinct constant cells within ``n`` levels, input
                            side.
* 41-45  ``const_out_le{n}`` constant cells on the output side.  Constants
                            have no input pins, so a strictly directional
                            forward walk can never reach one: these columns are
                            structurally zero and are retained for layout
                            compatibility.
* 46     ``dist_pi``        minimal gate crossings to any primary input.
* 47     ``dist_po``        minimal gate crossings to any primary output.
* 48     ``dist_ff_in``     minimal level of a flip-flop on the input side.
* 49     ``dist_ff_out``    minimal level of a flip-flop on the output side.
* 50     ``dist_mux_in``    minimal level of a MUX2 on the input side.
* 51     ``dist_mux_out``   minimal level of a MUX2 on the output side.

Distances use gate-crossing counts (the gate adjacent to the net is level 1; a
net that *is* a primary input has ``dist_pi`` 0) and saturate at the
unreachable sentinel 100.  Flip-flops are traversed through their D pin only;
clock/reset pins are never walked.  MUX2 select pins are ordinary data inputs.
That rule lives in one place, :meth:`CircuitGraph.readers`: every walk here
steps to a net's driver and its data inputs, or to the net's readers.

Normalization is per-column min/max learned on a training matrix.  Applied
values are clipped into [0, 1], so unseen larger values (including the
unreachable sentinel when absent from the fit data) map to 1.0; degenerate
columns (min == max) map to 0.0.
"""

from __future__ import annotations

import csv
from collections import ChainMap, deque
from dataclasses import dataclass
from functools import cache, partial
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain
from typing import Callable, Collection, Iterable, Mapping, Sequence

import numpy as np

from .netlist import CircuitGraph

__all__ = [
    "NUM_FEATURES",
    "FEATURE_NAMES",
    "FeatureMatrix",
    "NormStats",
    "extract_features",
    "extract_all",
    "extract_for_nets",
    "write_feature_csv",
    "DistanceIndex",
]

NUM_FEATURES = 51
_LEVELS = (1, 2, 3, 4, 5)
# The 51-feature layout fixes both: five levels per count block, and a
# distance for unreachable targets that exceeds every neighborhood level.
_DEPTH = len(_LEVELS)
_SENTINEL = 100


def _build_names() -> tuple[str, ...]:
    names = [f"fanin_lvl{n}" for n in _LEVELS]
    for stem in ("ff_in", "ff_out", "mux_in", "mux_out", "loop_in", "loop_out",
                 "const_in", "const_out"):
        names += [f"{stem}_le{n}" for n in _LEVELS]
    names += ["dist_pi", "dist_po", "dist_ff_in", "dist_ff_out",
              "dist_mux_in", "dist_mux_out"]
    return tuple(names)


FEATURE_NAMES: tuple[str, ...] = _build_names()
assert len(FEATURE_NAMES) == NUM_FEATURES


# ---------------------------------------------------------------------------
# Global distance index (exact, shared across nets of one circuit)
# ---------------------------------------------------------------------------


def _up(circuit: CircuitGraph, net_id: int) -> tuple[int, ...]:
    """The nets one gate crossing upstream: the driver's data inputs."""
    g = circuit.driver(net_id)
    return () if g is None else g.data_inputs


def _down(circuit: CircuitGraph, net_id: int) -> list[int]:
    """The nets one gate crossing downstream: the readers' outputs."""
    return [g.output for g in circuit.readers(net_id)]


def _bfs(seeds: Iterable[int], succs: Callable[[int], Iterable[int]]) -> dict[int, int]:
    """Unit-cost BFS over the net graph; returns minimal distance per net."""
    dist: dict[int, int] = {}
    queue: deque[int] = deque()
    for s in seeds:
        if s not in dist:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        for v in succs(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@dataclass(frozen=True)
class DistanceIndex:
    """Exact minimal gate-crossing distances for every net of one circuit.

    Built in O(V + E) with six multi-source BFS passes over the net graph
    (edges cross one gate from a data input to the output).
    """

    to_pi: Mapping[int, int]
    to_po: Mapping[int, int]
    ff_in: Mapping[int, int]
    ff_out: Mapping[int, int]
    mux_in: Mapping[int, int]
    mux_out: Mapping[int, int]

    @classmethod
    def build(cls, circuit: CircuitGraph) -> "DistanceIndex":
        ff_out_nets: list[int] = []
        ff_d_nets: list[int] = []
        mux_out_nets: list[int] = []
        mux_in_nets: list[int] = []
        for g in circuit.gates.values():
            if g.kind.family == "DFF":
                ff_out_nets.append(g.output)
                ff_d_nets.extend(g.data_inputs)
            elif g.kind.family == "MUX2":
                mux_out_nets.append(g.output)
                mux_in_nets.extend(g.data_inputs)
        up = partial(_up, circuit)
        down = partial(_down, circuit)
        level_up = lambda d: {k: v + 1 for k, v in d.items()}
        return cls(
            to_pi=_bfs(circuit.primary_inputs, down),
            to_po=_bfs(circuit.primary_outputs, up),
            ff_in=level_up(_bfs(ff_out_nets, down)),
            ff_out=level_up(_bfs(ff_d_nets, up)),
            mux_in=level_up(_bfs(mux_out_nets, down)),
            mux_out=level_up(_bfs(mux_in_nets, up)),
        )

    def lookup(self, net_id: int) -> list[int]:
        """One net's six distances; missing and None (unreachable) read as _SENTINEL."""
        return [_SENTINEL if (d := table.get(net_id)) is None or d > _SENTINEL else d
                for table in vars(self).values()]


# ---------------------------------------------------------------------------
# Local rewrites: the rows they can change, and repaired distance tables
# ---------------------------------------------------------------------------


def _reach(circuit: CircuitGraph, net_id: int, is_input: bool) -> set[int]:
    """Nets within ``_DEPTH - 1`` data-pin crossings of ``net_id`` on one
    side: toward drivers (``is_input``) or readers; ``net_id`` included.

    A row's input-side counts read the drivers of the nets in its input-side
    reach (gates at levels 1.._DEPTH), and its output-side counts read the
    reader lists of the nets in its output-side reach.  So a rewrite changes
    the first only if a net whose driver it changed lies in the input-side
    reach, and the second only if a net whose readers it changed lies in the
    output-side reach.  A cycle of at most ``_DEPTH`` crossings that the
    rewrite makes or breaks crosses a changed gate: it enters on a pin whose
    readers changed and leaves by an output whose driver changed.  The arcs
    from the net to that pin and from that output back to the net run over
    unchanged gates and are shorter than the cycle, so the pin lies in the
    output-side reach and the output in the input-side reach.  Loop columns
    change only when both sides are hit.
    """
    return {v for v, level in _walk(circuit, net_id, is_input, False)[2].items()
            if level < _DEPTH}


def _repair(old, seeds, preds, succs, is_source, base) -> dict[int, int | None]:
    """The entries of BFS table ``old`` (sources at ``base``) that change when
    the in-edges or source status of ``seeds`` change; None: unreachable.

    Ramalingam and Reps (J. Algorithms 1996): find the nets whose old distance
    lost all support, nearest first, then relax from them and the seeds.
    """
    lost: set[int] = set()
    heap = [(old[v], v) for v in seeds if v in old]
    heapify(heap)
    while heap:
        d, v = heappop(heap)
        if v in lost or (d == base and is_source(v)) or any(
                old.get(u) == d - 1 and u not in lost for u in preds(v)):
            continue
        lost.add(v)
        for w in succs(v):
            if old.get(w) == d + 1:
                heappush(heap, (d + 1, w))
    delta: dict[int, int | None] = dict.fromkeys(lost)
    for v in lost.union(seeds):
        d = base if is_source(v) else min(
            (old[u] + 1 for u in preds(v) if u in old and u not in lost), default=None)
        if d is not None and (v in lost or v not in old or d < old[v]):
            delta[v] = d
    heap = [(d, v) for v, d in delta.items() if d is not None]
    heapify(heap)
    while heap:
        d, v = heappop(heap)
        for w in succs(v) if delta[v] == d else ():
            cur = delta[w] if w in delta else old.get(w)
            if cur is None or d + 1 < cur:
                delta[w] = d + 1
                heappush(heap, (d + 1, w))
    return delta


def _patch_index(index: DistanceIndex, circuit: CircuitGraph,
                 along: Collection[int], against: Collection[int]) -> DistanceIndex:
    """``circuit``'s tables, each a ``ChainMap`` of its repaired entries
    (None: unreachable) over the same table of ``index``, its parent's.

    ``along`` and ``against`` are a rewrite's ``driver_changed`` and
    ``readers_changed`` nets.  Tables that run along the edges change first at
    an ``along`` net; tables that run against them, at an ``against`` net.
    """
    up = cache(lambda v: _up(circuit, v))
    down = cache(lambda v: _down(circuit, v))

    def driven_by(family):
        return lambda v: (g := circuit.driver(v)) is not None and g.kind.family == family

    def read_by(family):
        return lambda v: any(g.kind.family == family for g in circuit.readers(v))

    specs = (  # seeds, predecessors, successors, sources, the sources' level
        (along, up, down, frozenset(circuit.primary_inputs).__contains__, 0),
        (against, down, up, frozenset(circuit.primary_outputs).__contains__, 0),
        (along, up, down, driven_by("DFF"), 1),
        (against, down, up, read_by("DFF"), 1),
        (along, up, down, driven_by("MUX2"), 1),
        (against, down, up, read_by("MUX2"), 1),
    )
    return DistanceIndex(*(ChainMap(_repair(old, *spec), old)
                           for old, spec in zip(vars(index).values(), specs)))


def _merge(patched: DistanceIndex) -> DistanceIndex:
    """Fold each :func:`_patch_index` table's repaired entries into the table under them."""
    for delta, table in (chain.maps for chain in vars(patched).values()):
        for nid, d in delta.items():
            if d is None:
                table.pop(nid, None)
            else:
                table[nid] = d
    return DistanceIndex(*(chain.maps[1] for chain in vars(patched).values()))


# ---------------------------------------------------------------------------
# Per-net features: one levelized walk per side, plus bounded cycles
# ---------------------------------------------------------------------------


def _walk(
    circuit: CircuitGraph, net_id: int, is_input: bool, far: bool
) -> tuple[tuple[list[int], ...], tuple[int, int, int] | None, dict[int, int]]:
    """Levelized BFS over one side of a net along data pins: toward drivers
    (``is_input``) or readers.  The adjacent gate is level 1; each gate counts
    once, at its minimal level.  Returns, over levels 1.._DEPTH, combinational
    data-input pins (input side) and DFF, MUX2 and constant cells (a constant
    reads no net, so none is met on the output side); with ``far`` the first
    level of a primary input (output) net, a DFF and a MUX2, walking past
    _DEPTH until all three are found or the level reaches the sentinel; and
    each net reached, with the crossings from ``net_id`` to it.

    The input side steps from a net to its one driver, and every frontier net
    is new, so it meets each gate once.  The output side can meet a gate on
    several of its pins and counts it at the first.
    """
    fanin, ff, mux, const = ([0] * _DEPTH for _ in range(4))
    d_port = d_ff = d_mux = _SENTINEL
    if far:
        ports = frozenset(circuit.primary_inputs if is_input else circuit.primary_outputs)
        d_port = 0 if net_id in ports else _SENTINEL
    driver, readers = circuit._driver_of, circuit._readers_of
    levels = {net_id: 0}
    seen_gates: set[int] = set()
    frontier = [net_id]
    level = 0
    limit = _SENTINEL if far else _DEPTH
    while frontier and level < limit:
        level += 1
        n_fanin = n_ff = n_mux = n_const = 0
        nxt: list[int] = []
        if is_input:
            for nid in frontier:
                g = driver[nid]
                if g is None:
                    continue
                kind = g.kind
                if kind.is_combinational:
                    n_fanin += kind.fanin
                    n_mux += kind.family == "MUX2"
                elif kind.is_sequential:
                    n_ff += 1
                else:
                    n_const += 1
                for v in g.data_inputs:
                    if v not in levels:
                        levels[v] = level
                        nxt.append(v)
        else:
            for nid in frontier:
                for g in readers[nid]:
                    if g.id in seen_gates:
                        continue
                    seen_gates.add(g.id)
                    family = g.kind.family
                    n_ff += family == "DFF"
                    n_mux += family == "MUX2"
                    if g.output not in levels:
                        levels[g.output] = level
                        nxt.append(g.output)
        if level <= _DEPTH:
            fanin[level - 1] = n_fanin
            ff[level - 1] = n_ff
            mux[level - 1] = n_mux
            const[level - 1] = n_const
        if far:
            # A target found at the sentinel level reads the same as none.
            if d_port == _SENTINEL and not ports.isdisjoint(nxt):
                d_port = level
            if d_ff == _SENTINEL and n_ff:
                d_ff = level
            if d_mux == _SENTINEL and n_mux:
                d_mux = level
            if level >= _DEPTH and max(d_port, d_ff, d_mux) < _SENTINEL:
                break
        frontier = nxt
    return (fanin, ff, mux, const), ((d_port, d_ff, d_mux) if far else None), levels


def _cycles_through(circuit: CircuitGraph, net_id: int, max_gates: int,
                    ahead: Mapping[int, int]) -> list[int]:
    """Gate-crossing lengths of distinct directed cycles through ``net_id``.

    Walks drivers backward along data pins, bounded by ``max_gates``
    crossings; simple cycles only; deduplicated on the set of nets visited.
    ``ahead`` maps each net that ``net_id`` reaches forward within
    ``max_gates - 1`` crossings to the fewest it takes.  After ``c``
    crossings the walk steps back to ``prev`` only if
    ``ahead[prev] <= max_gates - c - 1``: a cycle through ``prev`` closes
    over a forward path from ``net_id`` to ``prev`` of at most that many
    crossings, so a pruned branch is one that finds no cycle.  On a net with
    no feedback the walk reads its driver and stops.
    """
    cycles: set[frozenset[int]] = set()
    stack = [(net_id, 0, (net_id,))]
    while stack:
        net, crossed, path = stack.pop()
        for prev in _up(circuit, net):
            if prev == net_id:
                cycles.add(frozenset(path))  # one net per crossing
            elif ahead.get(prev, max_gates) <= max_gates - crossed - 1 and prev not in path:
                stack.append((prev, crossed + 1, path + (prev,)))
    return sorted(map(len, cycles))


def _row(circuit: CircuitGraph, net_id: int, dist: DistanceIndex | None) -> list[int]:
    """The 51 feature values of one net; per-net walks find the distances
    when ``dist`` is None."""
    far = dist is None
    (fanin_at, ff_in, mux_in, const_in), near_in, _ = _walk(circuit, net_id, True, far)
    (_, ff_out, mux_out, const_out), near_out, ahead = _walk(circuit, net_id, False, far)
    cycle_lengths = _cycles_through(circuit, net_id, _DEPTH, ahead)
    loops = [sum(1 for c in cycle_lengths if c <= n) for n in _LEVELS]
    # dist_pi, dist_po, dist_ff_in, dist_ff_out, dist_mux_in, dist_mux_out
    dists = dist.lookup(net_id) if dist is not None else [
        d for pair in zip(near_in, near_out) for d in pair]
    return [*fanin_at, *accumulate(ff_in), *accumulate(ff_out), *accumulate(mux_in),
            *accumulate(mux_out), *loops, *loops, *accumulate(const_in),
            *accumulate(const_out), *dists]


# Each side's count columns, in :func:`_side_counts` order; loop columns read both sides.
_SIDE_COLS = {
    is_input: [i for i, name in enumerate(FEATURE_NAMES) if name.startswith(stems)]
    for is_input, stems in ((True, ("fanin_lvl", "ff_in", "mux_in", "const_in")),
                            (False, ("ff_out", "mux_out", "const_out")))}


def _side_counts(circuit: CircuitGraph, net_id: int, is_input: bool) -> list[int]:
    """The ``_SIDE_COLS[is_input]`` values of one net's row, from one walk."""
    (fanin, ff, mux, const), _, _ = _walk(circuit, net_id, is_input, False)
    return [*(fanin if is_input else ()), *accumulate(ff), *accumulate(mux),
            *accumulate(const)]


def extract_features(circuit: CircuitGraph, net_id: int) -> np.ndarray:
    """The 51-value feature vector of one net, as float64."""
    if net_id not in circuit.nets:
        raise KeyError(net_id)
    return np.array(_row(circuit, net_id, None), dtype=np.float64)


@dataclass
class FeatureMatrix:
    """Feature rows for a set of nets of one circuit."""

    circuit_name: str
    net_ids: tuple[int, ...]
    net_names: tuple[str, ...]
    labels: np.ndarray  # (n,) int, 1 = Trojan net
    matrix: np.ndarray  # (n, 51) float64

    def row_for(self, net_id: int) -> np.ndarray:
        return self.matrix[self.net_ids.index(net_id)]


# Above this many nets, one shared set of distance tables (a DistanceIndex,
# built or repaired from a parent circuit's) beats per-net early-stopping
# walks.  Both paths compute identical distances.
_INDEX_CUTOFF = 16


def extract_for_nets(
    circuit: CircuitGraph,
    net_ids: Sequence[int],
    _dist: DistanceIndex | None = None,
) -> FeatureMatrix:
    if _dist is None and len(net_ids) > _INDEX_CUTOFF:
        _dist = DistanceIndex.build(circuit)
    rows = np.fromiter(chain.from_iterable(_row(circuit, nid, _dist) for nid in net_ids),
                       np.float64, len(net_ids) * NUM_FEATURES).reshape(-1, NUM_FEATURES)
    labels = np.array(
        [1 if circuit.is_trojan_net(nid) else 0 for nid in net_ids], dtype=np.int64
    )
    names = tuple(circuit.nets[nid].name for nid in net_ids)
    return FeatureMatrix(circuit.name, tuple(net_ids), names, labels, rows)


def extract_all(circuit: CircuitGraph) -> FeatureMatrix:
    """Feature rows for every net, in sorted net-id order."""
    return extract_for_nets(circuit, circuit.sorted_net_ids())


# ---------------------------------------------------------------------------
# Min-max normalization
# ---------------------------------------------------------------------------


@dataclass
class NormStats:
    """Per-column min/max learned from a training matrix.

    The statistics are fixed once built: the degenerate-column mask and the
    span that :meth:`apply` divides by are computed here, not per call.
    """

    col_min: np.ndarray
    col_max: np.ndarray

    def __post_init__(self) -> None:
        self.degenerate = self.col_max == self.col_min
        self._span = np.where(self.degenerate, 1.0, self.col_max - self.col_min)

    @classmethod
    def fit(cls, matrix: np.ndarray) -> "NormStats":
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ValueError("need a non-empty 2-D matrix to fit normalization")
        return cls(matrix.min(axis=0).astype(np.float64),
                   matrix.max(axis=0).astype(np.float64))

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        """Scale into [0, 1] with clipping; degenerate columns map to 0.0."""
        out = np.asarray(matrix, dtype=np.float64) - self.col_min
        out /= self._span
        np.copyto(out, 0.0, where=self.degenerate)
        return np.clip(out, 0.0, 1.0, out=out)

    def to_dict(self) -> dict:
        return {"col_min": self.col_min.tolist(), "col_max": self.col_max.tolist()}


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

_CSV_HEADER = ["net", "label"] + [f"f{i}" for i in range(1, NUM_FEATURES + 1)]


def write_feature_csv(path: str, fm: FeatureMatrix) -> None:
    """Raw (unnormalized) feature rows: header ``net,label,f1..f51``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_HEADER)
        for name, label, row in zip(fm.net_names, fm.labels, fm.matrix):
            w.writerow([name, int(label)] + [_fmt(v) for v in row])


def _fmt(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))
