"""Leave-one-out evaluation of detectors under gate-modification attacks.

For every fold, one benchmark circuit is held out; the requested detector
variants ("normal" plain training, "r-htd" adversarial training) are trained
on the remaining circuits, then evaluated on the held-out circuit both on
its original nets and after gate-modification attacks over a grid of
(alpha, k).  Attacked samples are regenerated against the *same* model being
evaluated -- the attacker adapts to the defender -- rather than transferring
one model's attacks to another.

TPR and TNR use threshold 0.5.  An undefined rate (zero denominator) is
reported as absent (``None``/empty cell), never coerced to 0 or 1.

Reports are deterministic for fixed seeds: ``summary.csv`` (per-fold and
average rows), ``plot_data.csv`` (min/q1/median/q3/max/mean of per-fold TPR
for each model and grid point, the data behind the usual boxplots), and
``report.json`` (everything, plus the option echo and the repository's
git-describe when available).
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .advtrain import AdvTrainConfig, ProvenancedSample, _stack, samples_from_circuits, train_robust
from .attack import AttackConfig, attack_sweep
from .features import extract_all
from .model import MLPConfig, MLPDetector
from .netlist import CircuitGraph

__all__ = [
    "Metrics",
    "compute_metrics",
    "LoocvOptions",
    "FoldResult",
    "LoocvReport",
    "run_loocv",
    "emit_reports",
]


@dataclass(frozen=True)
class Metrics:
    """Confusion counts and the derived rates at threshold 0.5."""

    tp: int
    fn: int
    tn: int
    fp: int

    @property
    def tpr(self) -> float | None:
        d = self.tp + self.fn
        return self.tp / d if d else None

    @property
    def tnr(self) -> float | None:
        d = self.tn + self.fp
        return self.tn / d if d else None

    def to_dict(self) -> dict:
        return {
            "tp": self.tp, "fn": self.fn, "tn": self.tn, "fp": self.fp,
            "tpr": self.tpr, "tnr": self.tnr,
        }


def compute_metrics(labels: np.ndarray, probs: np.ndarray) -> Metrics:
    labels = np.asarray(labels).astype(int)
    flagged = np.asarray(probs, dtype=np.float64) >= 0.5
    pos = labels == 1
    return Metrics(
        tp=int(np.sum(flagged & pos)),
        fn=int(np.sum(~flagged & pos)),
        tn=int(np.sum(~flagged & ~pos)),
        fp=int(np.sum(flagged & ~pos)),
    )


@dataclass(frozen=True)
class LoocvOptions:
    """Everything a LOOCV run needs besides the circuits themselves."""

    models: tuple[str, ...] = ("normal",)
    alphas: tuple[float, ...] = (1.0, 2.0, math.inf)
    k_values: tuple[int, ...] = (5,)
    epochs: int = 10
    batch_size: int = 16
    oversample: bool = True
    class_weight: float = 1.0
    adv: AdvTrainConfig = AdvTrainConfig()
    allow_relaxed: bool = False
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        for m in self.models:
            if m not in ("normal", "r-htd"):
                raise ValueError(f"unknown model variant {m!r}")
        if not self.models or len(set(self.models)) != len(self.models):
            raise ValueError("models must name each variant once, and at least one")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("LOOCV training needs epochs >= 0 and batch_size >= 1")
        if any(k < 0 for k in self.k_values):
            raise ValueError("k_values must be non-negative")
        if any(not a > 0 for a in self.alphas):  # NaN included
            raise ValueError("alphas must be positive or inf")
        if len(set(self.alphas)) != len(self.alphas):
            raise ValueError("alphas must not repeat a value")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.adv.seed != 0:
            raise ValueError("adv.seed must be 0: each fold seeds adversarial training"
                             " with seed + 1000 * fold")


@dataclass
class FoldResult:
    benchmark: str
    model: str
    original: Metrics
    attacked: dict[tuple[float, int], Metrics] = field(default_factory=dict)
    attack_summaries: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "model": self.model,
            "original": self.original.to_dict(),
            "attacked": {
                _grid_key(a, k): m.to_dict() for (a, k), m in sorted(self.attacked.items())
            },
            "attacks": self.attack_summaries,
        }


@dataclass
class LoocvReport:
    options_echo: dict
    folds: list[FoldResult]

    def results_for(self, model: str) -> list[FoldResult]:
        return [f for f in self.folds if f.model == model]

    def average(self, model: str) -> dict:
        """Macro-averages over folds (mean of per-fold rates, skipping absents)."""
        rows = self.results_for(model)
        out: dict = {
            "original_tpr": _mean([f.original.tpr for f in rows]),
            "original_tnr": _mean([f.original.tnr for f in rows]),
            "attacked_tpr": {},
            "attacked_tnr": {},
        }
        for key in sorted({k for f in rows for k in f.attacked}):
            out["attacked_tpr"][_grid_key(*key)] = _mean(
                [f.attacked[key].tpr for f in rows if key in f.attacked]
            )
            out["attacked_tnr"][_grid_key(*key)] = _mean(
                [f.attacked[key].tnr for f in rows if key in f.attacked]
            )
        return out

    def tpr_distribution(self, model: str, key: tuple[float, int]) -> dict | None:
        vals = [
            f.attacked[key].tpr
            for f in self.results_for(model)
            if key in f.attacked and f.attacked[key].tpr is not None
        ]
        if not vals:
            return None
        arr = np.asarray(vals, dtype=np.float64)
        q1, med, q3 = np.percentile(arr, [25, 50, 75])
        return {
            "min": float(arr.min()), "q1": float(q1), "median": float(med),
            "q3": float(q3), "max": float(arr.max()), "mean": float(arr.mean()),
            "n": int(arr.size),
        }

    def to_dict(self) -> dict:
        models = sorted({f.model for f in self.folds})
        return {
            "options": self.options_echo,
            "folds": [f.to_dict() for f in self.folds],
            "averages": {m: self.average(m) for m in models},
            "tpr_distributions": {
                m: {
                    _grid_key(*key): self.tpr_distribution(m, key)
                    for key in sorted({k for f in self.results_for(m) for k in f.attacked})
                }
                for m in models
            },
        }


def _mean(values: Sequence[float | None]) -> float | None:
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else None


def _grid_key(alpha: float, k: int) -> str:
    a = "inf" if math.isinf(alpha) else (int(alpha) if float(alpha).is_integer() else alpha)
    return f"alpha={a},k={k}"


def _train_fold_model(
    variant: str,
    train_samples: Sequence[ProvenancedSample],
    options: LoocvOptions,
    fold_seed: int,
) -> MLPDetector:
    if variant == "normal":
        x, y = _stack(train_samples)
        model = MLPDetector(MLPConfig(init_seed=fold_seed))
        model.fit(
            x, y,
            epochs=options.epochs,
            batch_size=options.batch_size,
            class_weight=options.class_weight,
            oversample=options.oversample,
            shuffle_seed=fold_seed + 1,
        )
        return model
    model, _ = train_robust(train_samples, replace(options.adv, seed=fold_seed))
    return model


def _evaluate_fold(
    index: int,
    circuits: Sequence[CircuitGraph],
    samples: Sequence[Sequence[ProvenancedSample]],
    options: LoocvOptions,
) -> list[FoldResult]:
    """One fold; ``samples`` holds each circuit's featurized nets, in order."""
    held_out = circuits[index]
    train_samples = [s for j, group in enumerate(samples) if j != index for s in group]
    fold_seed = options.seed + 1000 * index
    x_held, y_held = _stack(samples[index])
    results = []
    for variant in options.models:
        model = _train_fold_model(variant, train_samples, options, fold_seed)
        fr = FoldResult(held_out.name, variant,
                        compute_metrics(y_held, model.predict_proba(x_held)))
        if options.alphas and options.k_values:
            cfg = AttackConfig(k_max=max(options.k_values), allow_relaxed=options.allow_relaxed)
            sweep = attack_sweep(
                held_out, model.as_oracle(), options.alphas, options.k_values, cfg
            )
            # Alphas and k-prefixes that accept one path share its metrics, and
            # an empty path leaves the held-out circuit, already measured.
            by_path = {(): fr.original}
            for (alpha, k), res in sorted(sweep.items()):
                path = tuple((s.gate_id, s.pattern_id) for s in res.steps)
                if path not in by_path:
                    fm_att = extract_all(res.circuit_after(k))
                    pa = model.predict_proba(fm_att.matrix)
                    by_path[path] = compute_metrics(fm_att.labels, pa)
                fr.attacked[(alpha, k)] = by_path[path]
                if k == cfg.k_max:
                    fr.attack_summaries.append(res.summary())
        results.append(fr)
    return results


def run_loocv(
    circuits: Sequence[CircuitGraph], options: LoocvOptions = LoocvOptions()
) -> LoocvReport:
    """Leave-one-circuit-out evaluation across all requested model variants.

    Each circuit is featurized once, into provenanced samples; every fold and
    variant reuses them.
    """
    if len(circuits) < 2:
        raise ValueError("leave-one-out needs at least two circuits")
    names = [c.name for c in circuits]
    if len(set(names)) != len(names):
        raise ValueError("circuit names must be unique")
    for c in circuits:
        if not c.trojan_net_ids:
            raise ValueError(f"circuit {c.name!r} has no Trojan nets; fold would be untrainable")
    echo = _echo_options(options, names)
    samples = [samples_from_circuits([c]) for c in circuits]

    def fold(i: int) -> list[FoldResult]:
        return _evaluate_fold(i, circuits, samples, options)

    indices = range(len(circuits))
    if options.threads > 1:
        with ThreadPoolExecutor(max_workers=options.threads) as pool:
            per_fold = list(pool.map(fold, indices))
    else:
        per_fold = [fold(i) for i in indices]
    return LoocvReport(echo, [fr for group in per_fold for fr in group])


def _echo_options(options: LoocvOptions, names: list[str]) -> dict:
    alphas = ["inf" if math.isinf(a) else a for a in options.alphas]
    return {**asdict(options), "benchmarks": names, "alphas": alphas}


def _git_describe() -> str | None:
    """The checkout this package runs from, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip() or None
    except OSError:
        return None


def _fmt_rate(v: float | None) -> str:
    return "" if v is None else f"{v:.4f}"


def emit_reports(report: LoocvReport, out_dir: str) -> dict[str, str]:
    """Write summary.csv, plot_data.csv, and report.json; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    grid = sorted({k for f in report.folds for k in f.attacked})
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        header = ["benchmark", "model", "tpr", "tnr"]
        header += [f"attacked_tpr[{_grid_key(*k)}]" for k in grid]
        header += [f"attacked_tnr[{_grid_key(*k)}]" for k in grid]
        w.writerow(header)
        for f in report.folds:
            row = [f.benchmark, f.model, _fmt_rate(f.original.tpr), _fmt_rate(f.original.tnr)]
            row += [_fmt_rate(f.attacked[k].tpr) if k in f.attacked else "" for k in grid]
            row += [_fmt_rate(f.attacked[k].tnr) if k in f.attacked else "" for k in grid]
            w.writerow(row)
        for model in sorted({f.model for f in report.folds}):
            avg = report.average(model)
            row = ["average", model, _fmt_rate(avg["original_tpr"]), _fmt_rate(avg["original_tnr"])]
            row += [_fmt_rate(avg["attacked_tpr"].get(_grid_key(*k))) for k in grid]
            row += [_fmt_rate(avg["attacked_tnr"].get(_grid_key(*k))) for k in grid]
            w.writerow(row)

    plot_path = os.path.join(out_dir, "plot_data.csv")
    with open(plot_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["model", "alpha", "k", "min", "q1", "median", "q3", "max", "mean", "n"])
        for model in sorted({f.model for f in report.folds}):
            for alpha, k in grid:
                d = report.tpr_distribution(model, (alpha, k))
                if d is None:
                    continue
                w.writerow(
                    [model, "inf" if math.isinf(alpha) else alpha, k]
                    + [f"{d[c]:.4f}" for c in ("min", "q1", "median", "q3", "max", "mean")]
                    + [d["n"]]
                )

    json_path = os.path.join(out_dir, "report.json")
    payload = report.to_dict()
    payload["git_describe"] = _git_describe()
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return {"summary": summary_path, "plot_data": plot_path, "json": json_path}
