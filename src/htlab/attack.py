"""Detectability metrics and the greedy gate-modification attack.

Metrics (natural log, probabilities clamped to [eps, 1-eps], eps = 1e-7):

* ``tcd``       mean log-probability over the Trojan nets; equals the
                alpha = 1 variant.
* ``alpha_tcd`` ``-(1/n) * sum(|log f|^alpha)`` for finite alpha;
                ``max(log f)`` for alpha = inf (minimax over the most
                detectable Trojan net).  Lower always means better hidden.
* ``ttcd``      log-probability of a single target net.

The attack (:func:`run_attack`) greedily applies logic-equivalent rewrites,
one per step, for at most ``k_max`` steps.  Each step enumerates every
(not-yet-modified original Trojan gate, applicable pattern) pair in
(gate id, catalog order) order, scores the rewritten circuit through a
*gray-box oracle* -- any callable mapping raw 51-feature rows to
probabilities -- and accepts the best candidate only if it strictly improves
on the best metric seen so far (initialized to the unmodified circuit's
metric).  Ties go to the earliest candidate in enumeration order, and the
attack terminates early once no candidate improves.

The metric reads the rows of the scored nets: the candidate's Trojan nets,
or the one target net.  Up to 16 of them (every TTCD candidate, small
alpha-TCD sets), each row is extracted from scratch with per-net distance
walks.  Above that, a greedy step keeps the parent circuit's rows and six
distance tables, and a candidate row starts as the parent's.  A net whose
driver the rewrite changed (``RewriteResult.driver_changed``: the rewritten
gate's output) re-walks the input side of each row whose input side reaches
it within ``_DEPTH - 1`` crossings; one whose readers changed
(``readers_changed``: its data inputs, Q for m15 and m16, the clock for m16)
re-walks the output side of each row whose output side reaches it.  A row
hit on both sides, or a new net, is extracted whole: a cycle through the
changed gate hits both, and only such a cycle moves loop columns (see
``features._reach``).  Rows are extracted against the parent's distance
tables; an incremental BFS finds the candidate's repaired entries, which
overwrite the scored nets' distance columns last and are folded into the
parent's tables on acceptance.  The oracle gets every scored row, in net-id
order, once per candidate, except that a TTCD attack answers a row it
already sent (whose metric has lost) from the first answer.
``full_reextract`` is the slow twin: it extracts every row of every
candidate, and the oracle inputs of the two modes are byte-identical.

Rows extracted from scratch are memoized, read-only, under (target net id or
``None``, rewrite path): the (gate id, pattern id) steps from the attacked
graph fix a candidate's rows, whatever the oracle or alpha.  This module
keeps one memo per attacked ``CircuitGraph``, made on first use and gone with
the graph, so epochs, alphas and folds that re-attack a graph extract a
repeated path's rows once; each candidate is still built once.  Delta scoring
and ``full_reextract`` bypass it.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .features import (
    _INDEX_CUTOFF,
    _SIDE_COLS,
    NUM_FEATURES,
    DistanceIndex,
    _capped,
    _merge,
    _patch_index,
    _reach,
    _side_counts,
    extract_all,
    extract_for_nets,
)
from .netlist import CircuitGraph
from .rewrite import RewriteResult, applicable_patterns, apply_pattern

__all__ = [
    "CLAMP_EPS",
    "tcd",
    "alpha_tcd",
    "ttcd",
    "Oracle",
    "AttackConfig",
    "AttackStep",
    "AttackResult",
    "run_attack",
    "attack_sweep",
]

CLAMP_EPS = 1e-7

Oracle = Callable[[np.ndarray], np.ndarray]

_ROW_MEMOS: weakref.WeakKeyDictionary[CircuitGraph, dict] = weakref.WeakKeyDictionary()


def _log_clamped(probs: np.ndarray) -> np.ndarray:
    # np.clip's exact twin here, without its wrapper, because CLAMP_EPS > 0.
    p = np.asarray(probs, dtype=np.float64)
    return np.log(np.minimum(np.maximum(p, CLAMP_EPS), 1.0 - CLAMP_EPS))


def tcd(probs: np.ndarray) -> float:
    """Trojan-net concealment degree: mean natural-log probability."""
    logs = _log_clamped(probs)
    if logs.size == 0:
        raise ValueError("TCD is undefined for an empty Trojan net set")
    return float(np.mean(logs))


def alpha_tcd(probs: np.ndarray, alpha: float) -> float:
    """Generalized concealment metric; ``alpha=inf`` is the minimax variant."""
    logs = _log_clamped(probs)
    if logs.size == 0:
        raise ValueError("alpha-TCD is undefined for an empty Trojan net set")
    if not alpha > 0:  # NaN included
        raise ValueError("alpha must be positive")
    if math.isinf(alpha):
        return float(np.max(logs))
    return float(-np.mean(np.abs(logs) ** alpha))


def ttcd(prob: float) -> float:
    """Targeted concealment degree of one net."""
    return float(_log_clamped(np.asarray([prob]))[0])


@dataclass(frozen=True)
class AttackConfig:
    """Attack hyperparameters."""

    alpha: float = 1.0
    k_max: int = 5
    allow_relaxed: bool = False
    full_reextract: bool = False

    def __post_init__(self) -> None:
        if self.k_max < 0:
            raise ValueError("k_max must be non-negative")
        if not self.alpha > 0:  # NaN included
            raise ValueError("alpha must be positive or inf")


@dataclass(frozen=True)
class AttackStep:
    """One accepted rewrite."""

    index: int  # 1-based step number
    gate_id: int
    gate_name: str
    pattern_id: str
    metric: float
    candidates_evaluated: int


@dataclass
class AttackResult:
    """Full trace of one attack run.

    ``circuits[k]`` is the circuit after ``k`` accepted steps
    (``circuits[0]`` is the unmodified input), so sweeping over smaller step
    budgets only needs prefixes of one run.  ``rows[k]`` is the oracle input
    that scored ``circuits[k]``; it may be read-only.  ``oracle_calls``
    counts queries answered: one per candidate, plus ``circuits[0]``'s.
    """

    original: CircuitGraph
    config: AttackConfig
    initial_metric: float
    steps: list[AttackStep] = field(default_factory=list)
    circuits: list[CircuitGraph] = field(default_factory=list)
    terminated_early: bool = False
    target_net_id: int | None = None
    oracle_calls: int = 0
    rows: list[np.ndarray] = field(default_factory=list, repr=False, compare=False)

    @property
    def final(self) -> CircuitGraph:
        return self.circuits[-1]

    @property
    def metrics(self) -> list[float]:
        return [self.initial_metric] + [s.metric for s in self.steps]

    def summary(self) -> dict:
        return {
            "alpha": "inf" if math.isinf(self.config.alpha) else self.config.alpha,
            "k_max": self.config.k_max,
            "target_net_id": self.target_net_id,
            "initial_metric": self.initial_metric,
            "final_metric": self.metrics[-1],
            "accepted_steps": [
                {
                    "index": s.index,
                    "gate": s.gate_name,
                    "gate_id": s.gate_id,
                    "pattern": s.pattern_id,
                    "metric": s.metric,
                    "candidates_evaluated": s.candidates_evaluated,
                }
                for s in self.steps
            ],
            "terminated_early": self.terminated_early,
            "oracle_calls": self.oracle_calls,
        }


class _Scorer:
    """Computes the attack metric from scored rows through the oracle."""

    def __init__(self, circuit: CircuitGraph, oracle: Oracle, config: AttackConfig,
                 target_net_id: int | None):
        self.oracle = oracle
        self.config = config
        self.target_net_id = target_net_id
        self.memo = _ROW_MEMOS.setdefault(circuit, {})
        self.calls = 0
        # TTCD metrics by row bytes; alpha-TCD row sets rarely repeat, and are large.
        self.answered: dict[bytes, float] = {}

    def net_ids(self, circuit: CircuitGraph) -> list[int]:
        if self.target_net_id is not None:
            return [self.target_net_id]
        net_ids = sorted(circuit.trojan_net_ids)
        if not net_ids:
            raise ValueError("attack metric undefined: circuit has no Trojan nets")
        return net_ids

    def metric(self, rows: np.ndarray) -> float:
        self.calls += 1
        key = rows.tobytes() if self.target_net_id is not None else None
        if key in self.answered:
            return self.answered[key]
        probs = np.asarray(self.oracle(rows), dtype=np.float64).reshape(-1)
        if probs.shape[0] != rows.shape[0]:
            raise ValueError("oracle returned a wrong-length probability vector")
        if not (probs.min() >= 0.0 and probs.max() <= 1.0):  # NaN included
            raise ValueError("oracle returned a probability outside [0, 1]")
        if key is None:
            return alpha_tcd(probs, self.config.alpha)
        m = self.answered[key] = ttcd(float(probs[0]))
        return m

    def scratch_rows(self, circuit: CircuitGraph, net_ids: Sequence[int],
                     path: tuple) -> np.ndarray:
        """The rows of ``circuit``, reached by ``path``: from the memo, or from scratch."""
        if self.config.full_reextract:
            fm = extract_all(circuit)
            return np.stack([fm.row_for(nid) for nid in net_ids])
        key = (self.target_net_id, path)
        rows = self.memo.get(key)
        if rows is None:
            rows = extract_for_nets(circuit, net_ids).matrix
            rows.flags.writeable = False  # a later hit hands the oracle these bytes
            self.memo[key] = rows
        return rows


class _Parent:
    """What delta scoring keeps of the circuit a greedy step rewrites: its
    scored rows, its distance tables, and per net the scored nets whose input
    side (``up_dependents``) or output side (``down_dependents``) reaches it.
    A candidate re-walks only the sides its rewrite reaches (see the module
    docstring); each scored parent net must stay scored."""

    def __init__(self, circuit: CircuitGraph, net_ids: Sequence[int],
                 rows: np.ndarray | None = None, index: DistanceIndex | None = None):
        self.index = DistanceIndex.build(circuit) if index is None else index
        if rows is None:
            rows = extract_for_nets(circuit, net_ids, _dist=self.index).matrix
        self.matrix = rows
        self.net_ids = tuple(net_ids)
        self.up_dependents: dict[int, list[int]] = {}
        self.down_dependents: dict[int, list[int]] = {}
        for nid in net_ids:
            for near in _reach(circuit, nid, True):
                self.up_dependents.setdefault(near, []).append(nid)
            for near in _reach(circuit, nid, False):
                self.down_dependents.setdefault(near, []).append(nid)

    def candidate_rows(self, res: RewriteResult,
                       net_ids: Sequence[int]) -> tuple[np.ndarray, tuple[dict, ...]]:
        circuit, along, against = res.circuit, res.driver_changed, res.readers_changed
        at = dict(zip(net_ids, range(len(net_ids))))
        rows = np.empty((len(net_ids), NUM_FEATURES))
        rows[[at[nid] for nid in self.net_ids]] = self.matrix
        ins = {nid for v in along for nid in self.up_dependents.get(v, ())}
        outs = {nid for v in against for nid in self.down_dependents.get(v, ())}
        for nids, is_input in ((ins - outs, True), (outs - ins, False)):
            for nid in nids:
                rows[at[nid], _SIDE_COLS[is_input]] = _side_counts(circuit, nid, is_input)
        redo = sorted((ins & outs).union(at.keys() - set(self.net_ids)))
        rows[[at[nid] for nid in redo]] = extract_for_nets(circuit, redo, _dist=self.index).matrix
        # Last, over the parent's distances; a new net with no repaired entry is unreachable.
        deltas = _patch_index(self.index, circuit, along, against)
        for col, delta in enumerate(deltas, NUM_FEATURES - 6):
            for nid, d in delta.items():
                if nid in at:
                    rows[at[nid], col] = _capped(d)
        return rows, deltas


def _use_delta(net_ids: Sequence[int], config: AttackConfig) -> bool:
    return not config.full_reextract and len(net_ids) > _INDEX_CUTOFF


def run_attack(
    circuit: CircuitGraph,
    oracle: Oracle,
    config: AttackConfig = AttackConfig(),
    target_net_id: int | None = None,
) -> AttackResult:
    """Greedy k-step gate-modification attack through a gray-box oracle.

    With ``target_net_id`` the objective is that net's TTCD (used for
    adversarial example generation); otherwise it is the alpha-TCD over the
    evolving Trojan net set.  The input circuit is never mutated.
    """
    if target_net_id is not None and target_net_id not in circuit.nets:
        raise KeyError(target_net_id)
    scorer = _Scorer(circuit, oracle, config, target_net_id)
    net_ids = scorer.net_ids(circuit)
    parent = _Parent(circuit, net_ids) if _use_delta(net_ids, config) else None
    rows = parent.matrix if parent else scorer.scratch_rows(circuit, net_ids, ())
    best = scorer.metric(rows)
    result = AttackResult(
        original=circuit,
        config=config,
        initial_metric=best,
        circuits=[circuit],
        target_net_id=target_net_id,
        rows=[rows],
    )
    pool = sorted(circuit.trojan_gate_ids)
    current, path = circuit, ()
    for step_index in range(1, config.k_max + 1):
        best_cand = None
        evaluated = 0
        for gid in pool:
            for pattern in applicable_patterns(current, gid, config.allow_relaxed):
                res = apply_pattern(current, gid, pattern.pattern_id,
                                    config.allow_relaxed)
                net_ids = scorer.net_ids(res.circuit)
                if parent:
                    rows, deltas = parent.candidate_rows(res, net_ids)
                else:
                    cand_path = path + ((gid, pattern.pattern_id),)
                    rows, deltas = scorer.scratch_rows(res.circuit, net_ids, cand_path), None
                m = scorer.metric(rows)
                evaluated += 1
                if best_cand is None or m < best_cand[0]:
                    best_cand = (m, res, net_ids, rows, deltas)
        if best_cand is None or best_cand[0] >= best:
            result.terminated_early = True
            break
        m, res, net_ids, rows, deltas = best_cand
        gid, current = res.gate_id, res.circuit
        best, path = m, path + ((gid, res.pattern_id),)
        if _use_delta(net_ids, config):
            parent = _Parent(current, net_ids, rows, deltas and _merge(parent.index, deltas))
        pool = [g for g in pool if g != gid]
        result.steps.append(
            AttackStep(step_index, gid, circuit.gates[gid].name, res.pattern_id,
                       m, evaluated)
        )
        result.circuits.append(current)
        result.rows.append(rows)
    result.oracle_calls = scorer.calls
    return result


def attack_sweep(
    circuit: CircuitGraph,
    oracle: Oracle,
    alphas: Iterable[float],
    k_values: Iterable[int],
    config: AttackConfig = AttackConfig(),
) -> dict[tuple[float, int], AttackResult]:
    """Attacks for each alpha, sharing one greedy run per alpha.

    The greedy trace is prefix-stable in ``k``: the result for a smaller
    budget is the first ``k`` steps of the same run.  Keys are
    ``(alpha, k)``; each value is the single per-alpha :class:`AttackResult`
    cut to its first ``k`` steps, so its ``final`` is the circuit after them.
    """
    ks = sorted(set(k_values))
    if not ks:
        raise ValueError("need at least one k value")
    out: dict[tuple[float, int], AttackResult] = {}
    for alpha in alphas:
        run_cfg = replace(config, alpha=alpha, k_max=max(ks))
        full = run_attack(circuit, oracle, run_cfg)
        for k in ks:
            out[(alpha, k)] = _prefix_result(full, k)
    return out


def _prefix_result(full: AttackResult, k: int) -> AttackResult:
    steps = [s for s in full.steps if s.index <= k]
    kept = len(steps) + 1
    return replace(full, config=replace(full.config, k_max=k), steps=steps,
                   circuits=full.circuits[:kept], rows=full.rows[:kept],
                   terminated_early=full.terminated_early or len(steps) < len(full.steps))
