"""A small fully-connected sigmoid network for net classification, in numpy.

A fixed 51-200-100-50-1 network with a sigmoid after every layer, trained by
mini-batch Adam on binary cross-entropy, with optional positive-class weighting
and optional oversampling of the (rare) Trojan rows to parity.

The model owns its input normalization: :meth:`MLPDetector.predict_proba`
takes *raw* feature vectors and applies the stored min-max statistics before
the forward pass.  That makes a trained model directly usable as the gray-box
oracle of the attack loop, which only ever sees raw structural features.

Everything is float64 and seeded; repeated runs with the same seeds produce
bit-identical parameters.  Models serialize to a JSON container
(``model_schema`` 1) that records the fixed settings, and whose float lists
round-trip exactly through ``repr``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Collection, Mapping, Sequence

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
LAYER_SIZES = (NUM_FEATURES, 200, 100, 50, 1)
# Adam's step size, decays and epsilon (Kingma & Ba's defaults), and the clamp
# that keeps the loss of a saturated output finite.
LEARNING_RATE, BETA1, BETA2, ADAM_EPS = 1e-3, 0.9, 0.999, 1e-8
CLAMP_EPS = 1e-7
# A model file's keys, its norm's, and its config without the init_seed, in file order.
_FILE_KEYS = ("model_schema", "layer_sizes", "config", "weights", "biases", "norm", "meta")
_NORM_KEYS = ("col_min", "col_max")
_FIXED_CONFIG = {"learning_rate": LEARNING_RATE, "beta1": BETA1, "beta2": BETA2,
                 "adam_eps": ADAM_EPS, "clamp_eps": CLAMP_EPS}
# Weights then biases, in layer order: their shapes, and where each ends in a
# flat row of all parameters.
_SHAPES = [*zip(LAYER_SIZES, LAYER_SIZES[1:]), *((n,) for n in LAYER_SIZES[1:])]
_ENDS = np.cumsum([int(np.prod(s)) for s in _SHAPES])


def _views(flat: np.ndarray) -> list[np.ndarray]:
    """Weights then biases, in layer order, as reshaped views of one flat row."""
    return [part.reshape(s) for part, s in zip(np.split(flat, _ENDS[:-1]), _SHAPES)]


@dataclass(frozen=True)
class MLPConfig:
    """The seed of the initial weights; the topology and optimizer are fixed."""

    init_seed: int = 0


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below: the same IEEE
    # operations per element as two masked branches, without the masks.
    e = np.exp(np.copysign(z, -1.0))
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


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
        self._flat = np.zeros((3, _ENDS[-1]))
        self._bind()
        rng = np.random.default_rng(config.init_seed)
        for w in self.weights:
            limit = np.sqrt(6.0 / sum(w.shape))
            w[...] = rng.uniform(-limit, limit, size=w.shape)
        self._adam_t = 0
        self.report = TrainReport()

    def _bind(self) -> None:
        """Make ``weights``/``biases``, ``_adam_m`` and ``_adam_v`` views of ``_flat``'s rows."""
        params, self._adam_m, self._adam_v = map(_views, self._flat)
        self.weights, self.biases = params[: len(params) // 2], params[len(params) // 2 :]
        self._work: tuple[np.ndarray, list[np.ndarray]] | None = None

    def __getstate__(self) -> dict:
        # Copies and pickles carry the flat buffer and rebuild its views.
        views = ("weights", "biases", "_adam_m", "_adam_v", "_work")
        return {k: v for k, v in vars(self).items() if k not in views}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._bind()

    # -- inference -------------------------------------------------------------

    def _activations(self, x: np.ndarray) -> list[np.ndarray]:
        """Every layer's output for a 2-D float64 batch ``x``, input first."""
        acts = [x]
        for w, b in zip(self.weights, self.biases):
            z = acts[-1] @ w
            z += b
            acts.append(_sigmoid(z))
        return acts

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

    def _loss(self, p: np.ndarray, y: np.ndarray, class_weight: float):
        """BCE of output probabilities ``p`` through the clamp, float ``y`` and clamped ``p``."""
        y = np.asarray(y, dtype=np.float64)
        pc = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
        return float(-np.mean(class_weight * y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))), y, pc

    def loss(self, x01: np.ndarray, y: np.ndarray, class_weight: float = 1.0) -> float:
        """The loss of :meth:`loss_and_grads`, from the forward pass alone."""
        p = self._activations(np.atleast_2d(np.asarray(x01, dtype=np.float64)))[-1][:, 0]
        return self._loss(p, y, class_weight)[0]

    def loss_and_grads(
        self, x01: np.ndarray, y: np.ndarray, class_weight: float = 1.0
    ) -> tuple[float, list[np.ndarray]]:
        """BCE loss and fresh gradient arrays (weights then biases, layer order)."""
        grads = [np.empty_like(p) for p in self.weights + self.biases]
        return self._backprop(x01, y, class_weight, grads), grads

    def _backprop(
        self, x01: np.ndarray, y: np.ndarray, class_weight: float, grads: list[np.ndarray]
    ) -> float:
        """The BCE loss; its gradients are written into ``grads``."""
        acts = self._activations(np.atleast_2d(np.asarray(x01, dtype=np.float64)))
        p = acts[-1][:, 0]
        loss, y, pc = self._loss(p, y, class_weight)
        # d(loss)/d(p) through the clamp: zero where the clamp is active.
        inside = (p > CLAMP_EPS) & (p < 1.0 - CLAMP_EPS)
        dp = (-class_weight * y / pc + (1.0 - y) / (1.0 - pc)) / len(p)
        dz = (dp * inside * p * (1.0 - p))[:, None]
        layers = len(self.weights)
        for k in range(layers - 1, -1, -1):
            np.matmul(acts[k].T, dz, out=grads[k])
            np.sum(dz, axis=0, out=grads[layers + k])
            if k:
                # dz = (da * a) * (1 - a); a is not read again, so it holds 1 - a.
                dz = dz @ self.weights[k].T
                a = acts[k]
                dz *= a
                np.subtract(1.0, a, out=a)
                dz *= a
        return loss

    def _workspace(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Gradient and scratch rows, and the gradient row's views; one set per training run."""
        if self._work is None:
            work = np.empty_like(self._flat[:2])
            self._work = work, _views(work[0])
        return self._work

    def adam_step(self, grads: Sequence[np.ndarray]) -> None:
        """One Adam update in place: the textbook formula, in its order of operations.

        Each operation is one pass over every parameter.  The scratch row
        carries the update; the spent gradient row holds the denominator.
        """
        (g, s), views = self._workspace()
        if grads is not views:
            for view, grad in zip(views, grads):
                view[...] = grad
        self._adam_t += 1
        bias1, bias2 = 1 - BETA1**self._adam_t, 1 - BETA2**self._adam_t
        p, m, v = self._flat
        np.multiply(1 - BETA1, g, out=s)  # m = b1*m + (1-b1)*g
        m *= BETA1
        m += s
        np.multiply(1 - BETA2, g, out=s)  # v = b2*v + ((1-b2)*g)*g
        s *= g
        v *= BETA2
        v += s
        np.divide(m, bias1, out=s)  # p -= (lr*mhat) / (sqrt(vhat) + eps)
        s *= LEARNING_RATE
        np.divide(v, bias2, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPS
        s /= g
        p -= s

    def train_batch(self, x01: np.ndarray, y: np.ndarray, class_weight: float = 1.0) -> float:
        loss = self._backprop(x01, y, class_weight, self._workspace()[1])
        self.adam_step(self._work[1])
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
        if not class_weight > 0:  # NaN included
            raise ValueError("class_weight must be positive")
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
        self._work = None  # a trained model only predicts
        return report

    # -- serialization ---------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "model_schema": MODEL_SCHEMA,
            "layer_sizes": list(LAYER_SIZES),
            "config": {**_FIXED_CONFIG, "init_seed": self.config.init_seed},
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "norm": self.norm.to_dict() if self.norm is not None else None,
            "meta": asdict(self.report),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MLPDetector":
        """The model of a file :meth:`to_json_dict` wrote, for this module's network.

        ``norm`` and ``meta`` may be missing.  Any other difference raises a
        ``ValueError`` that names the entry.
        """
        _known(data, _FILE_KEYS, "model file")
        if data.get("model_schema") != MODEL_SCHEMA:
            raise ValueError(f"unsupported model schema {data.get('model_schema')!r}")
        if (sizes := data.get("layer_sizes")) != list(LAYER_SIZES):
            raise ValueError(f"layer_sizes must be {list(LAYER_SIZES)}, not {sizes!r}")
        config = _known(data.get("config"), [*_FIXED_CONFIG, "init_seed"], "config")
        for key, value in _FIXED_CONFIG.items():
            if config.get(key) != value:
                raise ValueError(f"config {key} must be {value!r}, not {config.get(key)!r}")
        seed = config.get("init_seed")
        if type(seed) is not int or seed < 0:
            raise ValueError(f"config init_seed must be a non-negative int, not {seed!r}")
        model = cls(MLPConfig(init_seed=seed))
        for key, views in (("weights", model.weights), ("biases", model.biases)):
            if not isinstance(data.get(key), list) or len(data[key]) != len(views):
                raise ValueError(f"{key} must be a list of {len(views)} arrays for layer_sizes "
                                 f"{LAYER_SIZES}")
            for i, (view, value) in enumerate(zip(views, data[key])):
                view[...] = _array(value, view.shape, f"{key}[{i}]")
        if data.get("norm") is not None:
            norm = _known(data["norm"], _NORM_KEYS, "norm")
            model.norm = NormStats(*(_array(norm.get(k), (NUM_FEATURES,), f"norm {k}")
                                     for k in _NORM_KEYS))
        meta = _known(data.get("meta", {}), [f.name for f in fields(TrainReport)], "meta")
        model.report = TrainReport(**meta)
        return model


def _known(data: object, keys: Collection[str], where: str) -> Mapping:
    """``data`` itself, if it is an object whose keys are all in ``keys``."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{where} must be an object")
    for key in data:
        if key not in keys:
            raise ValueError(f"unknown {where} key {key!r}")
    return data


def _array(value: object, shape: tuple[int, ...], name: str) -> np.ndarray:
    """``value`` as a float64 array of ``shape``, or ``ValueError`` naming the entry."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from None
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}; layer_sizes {LAYER_SIZES} need {shape}")
    return arr


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
