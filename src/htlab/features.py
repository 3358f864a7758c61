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
                            cycles are deduplicated on their net-id set.
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
from collections import deque
from dataclasses import dataclass, field
from functools import cache, partial
from heapq import heapify, heappop, heappush
from itertools import accumulate
from typing import Callable, Iterable, Mapping, Sequence

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
    "read_feature_csv",
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

    def lookup(self, net_id: int) -> tuple[int, ...]:
        vals = []
        for table in vars(self).values():
            d = table.get(net_id)
            vals.append(_SENTINEL if d is None else min(d, _SENTINEL))
        return tuple(vals)


# ---------------------------------------------------------------------------
# Local rewrites: the rows they can change, and repaired distance tables
# ---------------------------------------------------------------------------


def _reach(circuit: CircuitGraph, net_id: int) -> set[int]:
    """Nets within ``_DEPTH - 1`` data-pin crossings of ``net_id``, either side.

    Columns 0-44 of its row see only gates at walk levels 1.._DEPTH.  A path
    from the net to a gate a rewrite changed runs over unchanged gates until
    it meets a pin of that gate, and all such pins are touched; a pin ``k``
    crossings away puts the gate at level ``k + 1``.  So a rewrite whose
    touched nets miss this set leaves those columns as they are.
    """
    out = {net_id}
    for step in (_up, _down):
        frontier, seen = [net_id], {net_id}
        for _ in range(_DEPTH - 1):
            frontier = list(dict.fromkeys(
                v for u in frontier for v in step(circuit, u) if v not in seen))
            seen.update(frontier)
        out |= seen
    return out


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


class _Overlay(dict):
    """Changed entries of one distance table (None: unreachable) over it."""

    def __init__(self, delta: Mapping[int, int | None], table: dict[int, int]):
        super().__init__(delta)
        self.table = table

    def get(self, net_id: int, default=None):
        if net_id in self:
            return default if self[net_id] is None else self[net_id]
        return self.table.get(net_id, default)


def _patch_index(index: DistanceIndex, parent: CircuitGraph, circuit: CircuitGraph,
                 touched: Sequence[int]) -> DistanceIndex:
    """``circuit``'s tables as overlays on ``index``, ``parent``'s tables.

    The circuits differ only in gates whose pins are all ``touched``.  Tables
    that run along the edges change first at a new net or one whose driver
    changed; tables that run against them, where the readers changed, which
    :meth:`CircuitGraph.replace` marks with a new reader list object.
    """
    along = [v for v in touched
             if v not in parent.nets or parent.driver(v) is not circuit.driver(v)]
    against = [v for v in touched
               if v not in parent.nets or parent.readers(v) is not circuit.readers(v)]
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
    return DistanceIndex(*(_Overlay(_repair(old, *spec), old)
                           for old, spec in zip(vars(index).values(), specs)))


def _merge(overlay: DistanceIndex) -> DistanceIndex:
    """Fold a :func:`_patch_index` overlay into the tables under it."""
    for delta in vars(overlay).values():
        for nid, d in delta.items():
            if d is None:
                delta.table.pop(nid, None)
            else:
                delta.table[nid] = d
    return DistanceIndex(*(delta.table for delta in vars(overlay).values()))


# ---------------------------------------------------------------------------
# Per-net features: one levelized walk per side, plus bounded cycles
# ---------------------------------------------------------------------------


def _walk(
    circuit: CircuitGraph, net_id: int, is_input: bool, far: bool
) -> tuple[tuple[list[int], ...], tuple[int, int, int] | None]:
    """Levelized BFS over one side of a net along data pins: toward drivers
    (``is_input``) or readers.  The adjacent gate is level 1; each gate counts
    once, at its minimal level.  Returns, over levels 1.._DEPTH, combinational
    data-input pins and DFF, MUX2 and constant cells; with ``far`` also the
    first level of a primary input (output) net, a DFF and a MUX2, walking
    past _DEPTH until all three are found or the level reaches the sentinel.
    """
    fanin, ff, mux, const = ([0] * _DEPTH for _ in range(4))
    d_port = d_ff = d_mux = _SENTINEL
    if far:
        ports = frozenset(circuit.primary_inputs if is_input else circuit.primary_outputs)
        d_port = 0 if net_id in ports else _SENTINEL
    seen_nets = {net_id}
    seen_gates: set[int] = set()
    frontier = [net_id]
    level = 0
    limit = _SENTINEL if far else _DEPTH
    while frontier and level < limit:
        level += 1
        n_fanin = n_ff = n_mux = n_const = 0
        nxt: list[int] = []
        for nid in frontier:
            if is_input:
                drv = circuit.driver(nid)
                adjacent = () if drv is None else (drv,)
            else:
                adjacent = circuit.readers(nid)
            for g in adjacent:
                if g.id in seen_gates:
                    continue
                seen_gates.add(g.id)
                kind = g.kind
                if kind.is_combinational:
                    n_fanin += kind.fanin
                if kind.family == "DFF":
                    n_ff += 1
                elif kind.family == "MUX2":
                    n_mux += 1
                elif kind.is_constant:
                    n_const += 1
                for v in (g.data_inputs if is_input else g.outputs):
                    if v not in seen_nets:
                        seen_nets.add(v)
                        nxt.append(v)
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
    return (fanin, ff, mux, const), ((d_port, d_ff, d_mux) if far else None)


def _cycles_through(circuit: CircuitGraph, net_id: int, max_gates: int) -> list[int]:
    """Gate-crossing lengths of distinct directed cycles through ``net_id``.

    Walks drivers backward along data pins, bounded by ``max_gates``
    crossings; simple cycles only; deduplicated on the set of nets visited.
    """
    seen: dict[frozenset[int], int] = {}

    def dfs(net: int, crossed: int, path: tuple[int, ...]) -> None:
        driver = circuit.driver(net)
        if driver is None or crossed == max_gates:
            return
        for prev in driver.data_inputs:
            if prev == net_id:
                key = frozenset(path)
                length = crossed + 1
                if key not in seen or length < seen[key]:
                    seen[key] = length
                continue
            if prev in path:
                continue
            dfs(prev, crossed + 1, path + (prev,))

    dfs(net_id, 0, (net_id,))
    # dfs holds itself in its closure; without this the circuit lives on
    # until the cyclic garbage collector runs.
    del dfs
    return sorted(seen.values())


def extract_features(
    circuit: CircuitGraph,
    net_id: int,
    _dist: DistanceIndex | None = None,
) -> np.ndarray:
    """The 51-value feature vector of one net, as float64."""
    if net_id not in circuit.nets:
        raise KeyError(net_id)
    far = _dist is None
    (fanin_at, ff_in, mux_in, const_in), near_in = _walk(circuit, net_id, True, far)
    (_, ff_out, mux_out, const_out), near_out = _walk(circuit, net_id, False, far)
    cycle_lengths = _cycles_through(circuit, net_id, _DEPTH)
    loops = [sum(1 for c in cycle_lengths if c <= n) for n in _LEVELS]

    vec = np.empty(NUM_FEATURES, dtype=np.float64)
    vec[0:5] = fanin_at
    vec[5:10] = list(accumulate(ff_in))
    vec[10:15] = list(accumulate(ff_out))
    vec[15:20] = list(accumulate(mux_in))
    vec[20:25] = list(accumulate(mux_out))
    vec[25:30] = loops
    vec[30:35] = loops
    vec[35:40] = list(accumulate(const_in))
    vec[40:45] = list(accumulate(const_out))
    if far:
        vec[45:51:2] = near_in  # dist_pi, dist_ff_in, dist_mux_in
        vec[46:51:2] = near_out  # dist_po, dist_ff_out, dist_mux_out
    else:
        vec[45:51] = _dist.lookup(net_id)
    return vec


@dataclass
class FeatureMatrix:
    """Feature rows for a set of nets of one circuit."""

    circuit_name: str
    net_ids: tuple[int, ...]
    net_names: tuple[str, ...]
    labels: np.ndarray  # (n,) int, 1 = Trojan net
    matrix: np.ndarray  # (n, 51) float64
    _index: dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._index = {nid: i for i, nid in enumerate(self.net_ids)}

    def row_for(self, net_id: int) -> np.ndarray:
        return self.matrix[self._index[net_id]]


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
    rows = np.stack(
        [extract_features(circuit, nid, _dist=_dist) for nid in net_ids]
    ) if net_ids else np.empty((0, NUM_FEATURES))
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

    @classmethod
    def from_dict(cls, data: Mapping) -> "NormStats":
        return cls(np.asarray(data["col_min"], dtype=np.float64),
                   np.asarray(data["col_max"], dtype=np.float64))


# ---------------------------------------------------------------------------
# CSV round-trip
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


def read_feature_csv(path: str, circuit_name: str = "") -> FeatureMatrix:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected feature CSV header in {path!r}")
        names: list[str] = []
        labels: list[int] = []
        rows: list[list[float]] = []
        for rec in r:
            names.append(rec[0])
            labels.append(int(rec[1]))
            rows.append([float(x) for x in rec[2:]])
    n = len(names)
    return FeatureMatrix(
        circuit_name or path,
        tuple(range(n)),
        tuple(names),
        np.asarray(labels, dtype=np.int64),
        np.asarray(rows, dtype=np.float64).reshape(n, NUM_FEATURES),
    )
