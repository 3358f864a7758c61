"""Adversarial training: hardening the detector with TTCD-generated examples.

The robust trainer interleaves normal mini-batch updates with adversarial
examples generated *for Trojan samples only*: when a sampled mini-batch
contains at least ``min_trojan_per_batch`` Trojan rows, ``ceil(l * m')`` of
them are re-attacked from their pristine source circuits in single-net TTCD
mode, using the current model as a frozen gray-box oracle, and the resulting
feature rows are appended to the batch (labeled Trojan) before the weight
update.  Training therefore needs *provenance*: every Trojan sample carries a
reference to its circuit and net id, not just its feature vector.

Phases: ``init_epochs`` of plain training first (normalization statistics are
fitted before the first update and stay frozen afterwards), then ``epochs``
adversarial epochs, in one loop.  Mini-batches are the plain detector's:
consecutive slices of a seeded permutation, optionally over an oversampled
index stream.  The trailing partial batch is dropped so every update sees
exactly ``m`` (or ``m + ceil(l*m')``) rows.  Generation within a batch
happens against the same model snapshot -- the update is applied only after
all of the batch's examples exist -- so generations are order-independent.

With ``trojan_modify_ratio`` 0, or an unsatisfiable ``min_trojan_per_batch``,
the loop degenerates to plain training with an identical random stream.

``weaken`` builds the "weak adversarial examples" used to probe robustness:
componentwise interpolation ``x + gamma * (x_adv - x)`` with per-coordinate
``gamma`` in [0, 1].
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .attack import AttackConfig, Oracle, run_attack
from .features import NormStats, extract_all, extract_features
from .model import MLPConfig, MLPDetector, TrainReport, _batches
from .netlist import CircuitGraph

__all__ = [
    "AdvTrainConfig",
    "ProvenancedSample",
    "AdvTrainReport",
    "PROFILES",
    "samples_from_circuits",
    "generate_adversarial",
    "train_robust",
    "weaken",
    # Re-exported, not called: perfbench's layer hooks rebind it by this name.
    "extract_features",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AdvTrainConfig:
    """Algorithm parameters; defaults follow the Trust-HUB-style profile."""

    epochs: int = 10  # j: adversarial epochs after warmup
    batch_size: int = 16  # m
    min_trojan_per_batch: int = 1  # m'
    trojan_modify_ratio: float = 0.1  # l
    init_epochs: int = 1
    attack_budget: int = 5  # K inside generation
    seed: int = 0
    oversample: bool = True
    class_weight: float = 1.0
    allow_relaxed: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.trojan_modify_ratio <= 1.0:
            raise ValueError("trojan_modify_ratio must be in [0, 1]")
        if self.min_trojan_per_batch < 1:
            raise ValueError("min_trojan_per_batch must be >= 1")
        if self.init_epochs < 0 or self.epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        if self.batch_size < 1 or self.attack_budget < 0:
            raise ValueError("need batch_size >= 1 and attack_budget >= 0")
        if not 0 < self.class_weight < math.inf:  # NaN included
            raise ValueError("class_weight must be finite and positive")

    @property
    def adversarial_per_batch(self) -> int:
        return math.ceil(self.trojan_modify_ratio * self.min_trojan_per_batch)


#: Paper-style hyperparameter presets, overridable field by field.
PROFILES: dict[str, dict] = {
    "trust-hub": dict(
        epochs=10, batch_size=16, min_trojan_per_batch=1,
        trojan_modify_ratio=0.1, init_epochs=1, attack_budget=5,
        oversample=True,
    ),
    "trit-tc": dict(
        epochs=15, batch_size=2, min_trojan_per_batch=1,
        trojan_modify_ratio=0.1, init_epochs=5, attack_budget=4,
        oversample=False,
    ),
}


@dataclass(frozen=True)
class ProvenancedSample:
    """A feature row that remembers where it came from.

    Trojan-labeled samples must carry a live circuit reference: adversarial
    generation re-attacks the *circuit*, not the vector.
    """

    features: np.ndarray
    label: int
    circuit: CircuitGraph | None = None
    net_id: int | None = None

    def __post_init__(self) -> None:
        if self.label == 1 and (self.circuit is None or self.net_id is None):
            raise ValueError("Trojan samples require circuit provenance")


def samples_from_circuits(circuits: Sequence[CircuitGraph]) -> list[ProvenancedSample]:
    """Extract every net of every circuit as a provenanced sample."""
    out: list[ProvenancedSample] = []
    for c in circuits:
        fm = extract_all(c)
        for nid, label, row in zip(fm.net_ids, fm.labels, fm.matrix):
            out.append(
                ProvenancedSample(
                    row, int(label),
                    circuit=c if label else None,
                    net_id=nid if label else None,
                )
            )
    return out


def generate_adversarial(
    sample: ProvenancedSample,
    oracle: Oracle,
    attack_budget: int = 5,
    allow_relaxed: bool = False,
) -> np.ndarray:
    """TTCD-attack one Trojan sample's pristine circuit; return the new row.

    When no rewrite is accepted (no applicable patterns, or nothing improves
    the target's TTCD) the original vector is returned unchanged -- a
    degenerate adversarial example, logged at debug level.
    """
    if sample.label != 1 or sample.circuit is None or sample.net_id is None:
        raise ValueError("adversarial examples are generated for Trojan samples only")
    cfg = AttackConfig(alpha=1.0, k_max=attack_budget, allow_relaxed=allow_relaxed)
    result = run_attack(sample.circuit, oracle, cfg, target_net_id=sample.net_id)
    if not result.steps:
        log.debug(
            "degenerate adversarial example for net %s of %s (no accepted rewrite)",
            sample.net_id, sample.circuit.name,
        )
        return np.array(sample.features, dtype=np.float64, copy=True)
    return np.array(result.rows[-1][0])  # the attack's scored row, as a writable copy


@dataclass
class AdvTrainReport:
    """Counters and loss curves from one robust training run."""

    init_losses: list[float] = field(default_factory=list)
    epoch_losses: list[float] = field(default_factory=list)
    triggered_batches: int = 0
    adversarial_generated: int = 0
    degenerate_examples: int = 0


def _stack(samples: Sequence[ProvenancedSample]) -> tuple[np.ndarray, np.ndarray]:
    """The samples' raw feature matrix and float labels, in order."""
    x_raw = np.stack([s.features for s in samples]).astype(np.float64)
    return x_raw, np.array([s.label for s in samples], dtype=np.float64)


def train_robust(
    samples: Sequence[ProvenancedSample], config: AdvTrainConfig = AdvTrainConfig()
) -> tuple[MLPDetector, AdvTrainReport]:
    """Adversarially train a detector on provenanced samples.

    Deterministic given ``config.seed``.  Returns the trained model, whose
    ``report`` has the losses of both phases, and what the loop actually did.
    """
    x_raw, y = _stack(samples)
    if not ((y == 1).any() and (y == 0).any()):
        raise ValueError("training data needs both classes")
    model = MLPDetector(MLPConfig(init_seed=config.seed))
    model.norm = NormStats.fit(x_raw)  # frozen for the whole run
    x01 = model.norm.apply(x_raw)
    rng = np.random.default_rng(config.seed)
    report = AdvTrainReport()
    n_adv = config.adversarial_per_batch
    losses_per_epoch = []
    for epoch in range(config.init_epochs + config.epochs):
        adversarial = epoch >= config.init_epochs and n_adv > 0
        losses = []
        for b in _batches(y, config.batch_size, config.oversample, rng):
            if len(b) < config.batch_size:
                continue
            xb, yb = x01[b], y[b]
            trojan_rows = b[yb == 1]
            if adversarial and len(trojan_rows) >= config.min_trojan_per_batch:
                report.triggered_batches += 1
                chosen = rng.choice(trojan_rows, size=n_adv, replace=False)
                # A live view of the model, not a snapshot: every example of
                # this batch sees the same weights because train_batch runs
                # only after generation.
                oracle = model.as_oracle()
                adv_raw = []
                for si in chosen:
                    vec = generate_adversarial(
                        samples[int(si)], oracle,
                        attack_budget=config.attack_budget,
                        allow_relaxed=config.allow_relaxed,
                    )
                    if np.array_equal(vec, samples[int(si)].features):
                        report.degenerate_examples += 1
                    adv_raw.append(vec)
                report.adversarial_generated += len(adv_raw)
                xb = np.vstack([xb, model.norm.apply(np.stack(adv_raw))])
                yb = np.concatenate([yb, np.ones(len(adv_raw))])
            losses.append(model.train_batch(xb, yb, config.class_weight))
        losses_per_epoch.append(float(np.mean(losses)) if losses else 0.0)
        model._check_epoch(config.class_weight)
    k = config.init_epochs
    report.init_losses, report.epoch_losses = losses_per_epoch[:k], losses_per_epoch[k:]
    model.report = TrainReport(
        config.init_epochs + config.epochs, config.batch_size, config.class_weight,
        config.oversample, losses_per_epoch,
    )
    model._work = None  # the trained model only predicts
    return model, report


def weaken(
    x: np.ndarray, x_adv: np.ndarray, gamma: float | np.ndarray
) -> np.ndarray:
    """Weak adversarial example: ``x + gamma * (x_adv - x)``, componentwise."""
    x = np.asarray(x, dtype=np.float64)
    x_adv = np.asarray(x_adv, dtype=np.float64)
    if x.shape != x_adv.shape:
        raise ValueError("x and x_adv must have the same shape")
    g = np.asarray(gamma, dtype=np.float64)
    if not np.all((g >= 0.0) & (g <= 1.0)):  # NaN included
        raise ValueError("gamma components must lie in [0, 1]")
    return x + g * (x_adv - x)
