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

Candidate scoring re-extracts features only for the nets the metric reads
(the candidate's Trojan nets, or the single target net), each row computed
from scratch on the candidate circuit.  This "local" mode is exact, not an
approximation.  Up to 16 nets (every TTCD candidate, small alpha-TCD sets),
each net's distances come from its own early-stopping walk; above that, one
exact distance index is rebuilt in O(V + E) per candidate and shared by its
nets.  Both give identical values.  The ``full_reextract`` flag instead
recomputes the whole feature matrix and is provided for auditability; both
modes produce identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .features import extract_all, extract_for_nets
from .netlist import CircuitGraph
from .rewrite import applicable_patterns, apply_pattern

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


def _log_clamped(probs: np.ndarray, eps: float) -> np.ndarray:
    p = np.clip(np.asarray(probs, dtype=np.float64), eps, 1.0 - eps)
    return np.log(p)


def tcd(probs: np.ndarray, eps: float = CLAMP_EPS) -> float:
    """Trojan-net concealment degree: mean natural-log probability."""
    logs = _log_clamped(probs, eps)
    if logs.size == 0:
        raise ValueError("TCD is undefined for an empty Trojan net set")
    return float(np.mean(logs))


def alpha_tcd(probs: np.ndarray, alpha: float, eps: float = CLAMP_EPS) -> float:
    """Generalized concealment metric; ``alpha=inf`` is the minimax variant."""
    logs = _log_clamped(probs, eps)
    if logs.size == 0:
        raise ValueError("alpha-TCD is undefined for an empty Trojan net set")
    if math.isinf(alpha):
        return float(np.max(logs))
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return float(-np.mean(np.abs(logs) ** alpha))


def ttcd(prob: float, eps: float = CLAMP_EPS) -> float:
    """Targeted concealment degree of one net."""
    return float(_log_clamped(np.asarray([prob]), eps)[0])


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
        if not math.isinf(self.alpha) and self.alpha <= 0:
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
    budgets only needs prefixes of one run.
    """

    original: CircuitGraph
    config: AttackConfig
    initial_metric: float
    steps: list[AttackStep] = field(default_factory=list)
    circuits: list[CircuitGraph] = field(default_factory=list)
    terminated_early: bool = False
    target_net_id: int | None = None
    oracle_calls: int = 0

    @property
    def final(self) -> CircuitGraph:
        return self.circuits[-1]

    @property
    def metrics(self) -> list[float]:
        return [self.initial_metric] + [s.metric for s in self.steps]

    def circuit_after(self, k: int) -> CircuitGraph:
        """Circuit after at most ``k`` accepted steps."""
        return self.circuits[min(k, len(self.steps))]

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
    """Computes the attack metric for candidate circuits through the oracle."""

    def __init__(self, oracle: Oracle, config: AttackConfig,
                 target_net_id: int | None):
        self.oracle = oracle
        self.config = config
        self.target_net_id = target_net_id
        self.calls = 0

    def metric(self, circuit: CircuitGraph) -> float:
        cfg = self.config
        if self.target_net_id is not None:
            net_ids: Sequence[int] = [self.target_net_id]
        else:
            net_ids = sorted(circuit.trojan_net_ids)
            if not net_ids:
                raise ValueError("attack metric undefined: circuit has no Trojan nets")
        if cfg.full_reextract:
            fm = extract_all(circuit)
            rows = np.stack([fm.row_for(nid) for nid in net_ids])
        else:
            rows = extract_for_nets(circuit, net_ids).matrix
        probs = np.asarray(self.oracle(rows), dtype=np.float64).reshape(-1)
        if probs.shape[0] != len(net_ids):
            raise ValueError("oracle returned a wrong-length probability vector")
        self.calls += 1
        if self.target_net_id is not None:
            return ttcd(float(probs[0]))
        return alpha_tcd(probs, cfg.alpha)


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
    scorer = _Scorer(oracle, config, target_net_id)
    best = scorer.metric(circuit)
    result = AttackResult(
        original=circuit,
        config=config,
        initial_metric=best,
        circuits=[circuit],
        target_net_id=target_net_id,
    )
    pool = sorted(circuit.trojan_gate_ids)
    current = circuit
    for step_index in range(1, config.k_max + 1):
        best_cand: tuple[float, int, str, CircuitGraph] | None = None
        evaluated = 0
        for gid in pool:
            for pattern in applicable_patterns(current, gid, config.allow_relaxed):
                res = apply_pattern(current, gid, pattern.pattern_id,
                                    config.allow_relaxed)
                m = scorer.metric(res.circuit)
                evaluated += 1
                if best_cand is None or m < best_cand[0]:
                    best_cand = (m, gid, pattern.pattern_id, res.circuit)
        if best_cand is None or best_cand[0] >= best:
            result.terminated_early = True
            break
        m, gid, pattern_id, current = best_cand
        best = m
        pool = [g for g in pool if g != gid]
        result.steps.append(
            AttackStep(step_index, gid, circuit.gates[gid].name, pattern_id,
                       m, evaluated)
        )
        result.circuits.append(current)
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
    ``(alpha, k)``; each value reuses the single per-alpha
    :class:`AttackResult` restricted via :meth:`AttackResult.circuit_after`.
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
    return AttackResult(
        original=full.original,
        config=replace(full.config, k_max=k),
        initial_metric=full.initial_metric,
        steps=steps,
        circuits=full.circuits[: len(steps) + 1],
        terminated_early=full.terminated_early or len(steps) < len(full.steps),
        target_net_id=full.target_net_id,
        oracle_calls=full.oracle_calls,
    )
