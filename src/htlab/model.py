"""A small fully-connected sigmoid network for net classification, in numpy.

Architecture 51-200-100-50-1 with a sigmoid after every layer.  Training is
mini-batch Adam on binary cross-entropy, with optional positive-class weighting
and optional oversampling of the (rare) Trojan rows to parity.

The model owns its input normalization: :meth:`MLPDetector.predict_proba`
takes *raw* feature vectors and applies the stored min-max statistics before
the forward pass.  That makes a trained model directly usable as the gray-box
oracle of the attack loop, which only ever sees raw structural features.

Everything is float64 and seeded; repeated runs with the same seeds produce
bit-identical parameters.  Models serialize to a JSON container
(``model_schema`` 1) whose float lists round-trip exactly through ``repr``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .features import NUM_FEATURES, NormStats

__all__ = [
    "MLPConfig",
    "MLPDetector",
    "TrainReport",
    "gradient_check",
    "save_model",
    "load_model",
    "MODEL_SCHEMA",
]

MODEL_SCHEMA = 1
DEFAULT_LAYER_SIZES = (NUM_FEATURES, 200, 100, 50, 1)


@dataclass(frozen=True)
class MLPConfig:
    """Topology and optimizer hyperparameters."""

    layer_sizes: tuple[int, ...] = DEFAULT_LAYER_SIZES
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clamp_eps: float = 1e-7
    init_seed: int = 0

    def __post_init__(self) -> None:
        if len(self.layer_sizes) < 2 or self.layer_sizes[-1] != 1:
            raise ValueError("need >= 1 hidden layer and a single output unit")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below: the same IEEE
    # operations per element as two masked branches, without the masks.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass
class TrainReport:
    """The options that produced a run, plus its per-epoch mean batch loss."""

    epochs: int = 0
    batch_size: int = 0
    class_weight: float = 1.0
    oversampled: bool = False
    epoch_losses: list[float] = field(default_factory=list)


class MLPDetector:
    """Feed-forward sigmoid MLP with Adam state and frozen input scaling."""

    def __init__(self, config: MLPConfig = MLPConfig()):
        self.config = config
        self.norm: NormStats | None = None
        rng = np.random.default_rng(config.init_seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(config.layer_sizes, config.layer_sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(
                rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float64)
            )
            self.biases.append(np.zeros(fan_out, dtype=np.float64))
        self._adam_m = [np.zeros_like(w) for w in self.weights] + [
            np.zeros_like(b) for b in self.biases
        ]
        self._adam_v = [np.zeros_like(p) for p in self._adam_m]
        self._adam_t = 0
        self.report = TrainReport()

    # -- inference -------------------------------------------------------------

    def _activations(self, x: np.ndarray) -> list[np.ndarray]:
        """Every layer's output for a 2-D float64 batch ``x``, input first."""
        acts = [x]
        for w, b in zip(self.weights, self.biases):
            z = acts[-1] @ w
            z += b
            acts.append(_sigmoid(z))
        return acts

    def forward(self, x01: np.ndarray) -> np.ndarray:
        """Probabilities from already-normalized inputs, shape (n,)."""
        return self._activations(np.atleast_2d(np.asarray(x01, dtype=np.float64)))[-1][:, 0]

    def predict_proba(self, x_raw: np.ndarray) -> np.ndarray:
        """Gray-box oracle entry point: raw feature rows in, probabilities out."""
        x = np.asarray(x_raw, dtype=np.float64)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        p = self._activations(self.norm.apply(x) if self.norm is not None else x)[-1]
        return float(p[0, 0]) if squeeze else p[:, 0]

    def as_oracle(self) -> Callable[[np.ndarray], np.ndarray]:
        return lambda x_raw: self.predict_proba(np.atleast_2d(x_raw))

    # -- loss / gradients --------------------------------------------------------

    def loss(self, x01: np.ndarray, y: np.ndarray, class_weight: float = 1.0) -> float:
        return self.loss_and_grads(x01, y, class_weight)[0]

    def loss_and_grads(
        self, x01: np.ndarray, y: np.ndarray, class_weight: float = 1.0
    ) -> tuple[float, list[np.ndarray]]:
        """BCE loss and gradients (weights then biases, layer order)."""
        acts = self._activations(np.atleast_2d(np.asarray(x01, dtype=np.float64)))
        y = np.asarray(y, dtype=np.float64)
        n = acts[0].shape[0]
        p = acts[-1][:, 0]
        eps = self.config.clamp_eps
        pc = np.clip(p, eps, 1.0 - eps)
        loss = float(-np.mean(class_weight * y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))
        # d(loss)/d(p) through the clamp: zero where the clamp is active.
        inside = (p > eps) & (p < 1.0 - eps)
        dp = (-class_weight * y / pc + (1.0 - y) / (1.0 - pc)) / n
        dz = (dp * inside * p * (1.0 - p))[:, None]
        grads_w: list[np.ndarray] = [None] * len(self.weights)  # type: ignore[list-item]
        grads_b: list[np.ndarray] = [None] * len(self.biases)  # type: ignore[list-item]
        for k in range(len(self.weights) - 1, -1, -1):
            grads_w[k] = acts[k].T @ dz
            grads_b[k] = dz.sum(axis=0)
            if k:
                # dz = (da * a) * (1 - a); a is not read again, so it holds 1 - a.
                dz = dz @ self.weights[k].T
                a = acts[k]
                dz *= a
                np.subtract(1.0, a, out=a)
                dz *= a
        return loss, grads_w + grads_b

    def adam_step(self, grads: Sequence[np.ndarray]) -> None:
        """One Adam update in place: the textbook formula, in its order of operations."""
        c = self.config
        self._adam_t += 1
        bias1, bias2 = 1 - c.beta1**self._adam_t, 1 - c.beta2**self._adam_t
        params = self.weights + self.biases
        for p, g, m, v in zip(params, grads, self._adam_m, self._adam_v):
            s = np.multiply(1 - c.beta1, g)  # m = b1*m + (1-b1)*g
            m *= c.beta1
            m += s
            np.multiply(1 - c.beta2, g, out=s)  # v = b2*v + ((1-b2)*g)*g
            s *= g
            v *= c.beta2
            v += s
            np.divide(m, bias1, out=s)  # p -= (lr*mhat) / (sqrt(vhat) + eps)
            s *= c.learning_rate
            den = np.divide(v, bias2)
            np.sqrt(den, out=den)
            den += c.adam_eps
            s /= den
            p -= s

    def train_batch(
        self, x01: np.ndarray, y: np.ndarray, class_weight: float = 1.0
    ) -> float:
        loss, grads = self.loss_and_grads(x01, y, class_weight)
        self.adam_step(grads)
        return loss

    # -- full training loop --------------------------------------------------------

    def fit(
        self,
        x_raw: np.ndarray,
        y: np.ndarray,
        epochs: int = 10,
        batch_size: int = 16,
        class_weight: float = 1.0,
        oversample: bool = False,
        shuffle_seed: int = 1,
    ) -> TrainReport:
        """Mini-batch Adam training on raw feature rows.

        Fits the normalization statistics on ``x_raw``, then trains on every
        batch of :func:`_batches`, the short last one included, each epoch.
        """
        if epochs < 0 or batch_size < 1:
            raise ValueError("fit needs epochs >= 0 and batch_size >= 1")
        x_raw = np.asarray(x_raw, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.norm = NormStats.fit(x_raw)
        x = self.norm.apply(x_raw)
        rng = np.random.default_rng(shuffle_seed)
        report = TrainReport(epochs, batch_size, class_weight, oversample)
        for _ in range(epochs):
            losses = [self.train_batch(x[b], y[b], class_weight)
                      for b in _batches(y, batch_size, oversample, rng)]
            report.epoch_losses.append(float(np.mean(losses)) if losses else 0.0)
        self.report = report
        return report

    # -- serialization ---------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "model_schema": MODEL_SCHEMA,
            "layer_sizes": list(self.config.layer_sizes),
            "config": {k: v for k, v in asdict(self.config).items() if k != "layer_sizes"},
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "norm": self.norm.to_dict() if self.norm is not None else None,
            "meta": asdict(self.report),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MLPDetector":
        if data.get("model_schema") != MODEL_SCHEMA:
            raise ValueError(f"unsupported model schema {data.get('model_schema')!r}")
        cfg = MLPConfig(layer_sizes=tuple(data["layer_sizes"]), **data["config"])
        model = cls(cfg)
        model.weights = [np.asarray(w, dtype=np.float64) for w in data["weights"]]
        model.biases = [np.asarray(b, dtype=np.float64) for b in data["biases"]]
        model.norm = (
            NormStats.from_dict(data["norm"]) if data.get("norm") is not None else None
        )
        model.report = TrainReport(**data.get("meta", {}))
        return model

    def clone(self) -> "MLPDetector":
        """Deep copy including optimizer state."""
        other = MLPDetector.__new__(MLPDetector)
        other.config = self.config
        other.norm = (NormStats(self.norm.col_min.copy(), self.norm.col_max.copy())
                      if self.norm else None)
        other.weights = [w.copy() for w in self.weights]
        other.biases = [b.copy() for b in self.biases]
        other._adam_m = [m.copy() for m in self._adam_m]
        other._adam_v = [v.copy() for v in self._adam_v]
        other._adam_t = self._adam_t
        other.report = replace(self.report, epoch_losses=list(self.report.epoch_losses))
        return other


def _batches(
    y: np.ndarray, batch_size: int, oversample: bool, rng: np.random.Generator
) -> list[np.ndarray]:
    """One epoch's batches: a seeded permutation of the row indices (of the
    oversampled index stream with ``oversample``), cut into ``batch_size``
    slices, the short tail included."""
    idx = rng.permutation(_oversampled_indices(y, rng) if oversample else np.arange(len(y)))
    return [idx[i : i + batch_size] for i in range(0, len(idx), batch_size)]


def _oversampled_indices(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Minority-class indices resampled (with replacement) to exact parity."""
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    if len(pos) == 0 or len(neg) == 0 or len(pos) == len(neg):
        return np.arange(len(y))
    minority, majority = (pos, neg) if len(pos) < len(neg) else (neg, pos)
    extra = rng.choice(minority, size=len(majority), replace=True)
    return np.concatenate([majority, extra])


def save_model(model: MLPDetector, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_json_dict(), fh)


def load_model(path: str) -> MLPDetector:
    with open(path, "r", encoding="utf-8") as fh:
        return MLPDetector.from_json_dict(json.load(fh))


def gradient_check(
    model: MLPDetector,
    x01: np.ndarray,
    y: np.ndarray,
    n_checks: int = 120,
    h: float = 1e-5,
    class_weight: float = 1.0,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per coordinate is ``|ga - gn| / (|ga| + |gn| + 1e-8)``.
    """
    rng = np.random.default_rng(seed)
    _, grads = model.loss_and_grads(x01, y, class_weight)
    params = model.weights + model.biases
    worst = 0.0
    for _ in range(n_checks):
        pi = int(rng.integers(len(params)))
        param = params[pi]
        flat = int(rng.integers(param.size))
        idx = np.unravel_index(flat, param.shape)
        orig = param[idx]
        param[idx] = orig + h
        lp = model.loss(x01, y, class_weight)
        param[idx] = orig - h
        lm = model.loss(x01, y, class_weight)
        param[idx] = orig
        gn = (lp - lm) / (2 * h)
        ga = grads[pi][idx]
        worst = max(worst, abs(ga - gn) / (abs(ga) + abs(gn) + 1e-8))
    return worst
