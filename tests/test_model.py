"""From-scratch MLP: gradients, determinism, persistence, training knobs."""
from __future__ import annotations

import copy
import hashlib
import json
import pickle
import tracemalloc

import numpy as np
import pytest

import _oracles
from htlab import (
    AdvTrainConfig,
    MLPConfig,
    MLPDetector,
    NormStats,
    extract_all,
    gradient_check,
    load_model,
    samples_from_circuits,
    save_model,
    synth_corpus,
    train_robust,
)
from htlab.attack import _log_clamped
from htlab.model import CLAMP_EPS, LAYER_SIZES, _oversampled_indices, _sigmoid


def _blob_data(seed: int = 0, n_neg: int = 60, n_pos: int = 60, dim: int = 51):
    rng = np.random.default_rng(seed)
    neg = rng.uniform(0.0, 0.35, size=(n_neg, dim))
    pos = rng.uniform(0.65, 1.0, size=(n_pos, dim))
    x = np.vstack([neg, pos])
    y = np.concatenate([np.zeros(n_neg), np.ones(n_pos)])
    return x, y


def test_default_architecture():
    m = MLPDetector()
    assert LAYER_SIZES == (51, 200, 100, 50, 1)
    shapes = [w.shape for w in m.weights]
    assert shapes == [(51, 200), (200, 100), (100, 50), (50, 1)]


def test_config_validation():
    # The network is fixed; a file that describes another one does not load.
    for sizes in ([51], [51, 10, 2]):
        data = MLPDetector().to_json_dict()
        data["layer_sizes"] = sizes
        with pytest.raises(ValueError) as exc:
            MLPDetector.from_json_dict(data)
        assert str(exc.value) == f"layer_sizes must be [51, 200, 100, 50, 1], not {sizes}"


def test_forward_shapes_and_range():
    m = MLPDetector(MLPConfig(init_seed=3))
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=(17, 51))
    p = m.predict_proba(x)
    assert p.shape == (17,)
    assert np.all((p > 0) & (p < 1))


def test_gradient_check_quick():
    m = MLPDetector(MLPConfig(init_seed=5))
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, size=(6, 51))
    y = rng.integers(0, 2, size=6).astype(np.float64)
    err = gradient_check(m, x, y, n_checks=40, seed=2)
    assert err < 1e-4
    # weighted loss gradients must check out too
    err_w = gradient_check(m, x, y, n_checks=40, class_weight=7.0, seed=3)
    assert err_w < 1e-4


def test_fit_learns_separable_data():
    x, y = _blob_data()
    m = MLPDetector(MLPConfig(init_seed=1))
    report = m.fit(x, y, epochs=12, batch_size=16, shuffle_seed=2)
    acc = np.mean((m.predict_proba(x) >= 0.5) == y.astype(bool))
    assert acc >= 0.95
    assert len(report.epoch_losses) == 12
    assert report.epoch_losses[-1] < report.epoch_losses[0]


def test_fit_is_bit_deterministic():
    x, y = _blob_data(seed=4)

    def run() -> MLPDetector:
        m = MLPDetector(MLPConfig(init_seed=9))
        m.fit(x, y, epochs=3, batch_size=8, shuffle_seed=5, oversample=True)
        return m

    a, b = run(), run()
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)
    probe = np.random.default_rng(6).uniform(0, 1, size=(5, 51))
    assert np.array_equal(a.predict_proba(probe), b.predict_proba(probe))


def test_different_seeds_differ():
    a = MLPDetector(MLPConfig(init_seed=0))
    b = MLPDetector(MLPConfig(init_seed=1))
    assert not np.array_equal(a.weights[0], b.weights[0])


def test_save_load_round_trip(tmp_path):
    x, y = _blob_data(seed=7)
    m = MLPDetector(MLPConfig(init_seed=2))
    m.fit(x, y, epochs=2, batch_size=16)
    path = str(tmp_path / "model.json")
    save_model(m, path)
    back = load_model(path)
    probe = np.random.default_rng(8).uniform(0, 3, size=(9, 51))
    assert np.array_equal(back.predict_proba(probe), m.predict_proba(probe))
    assert back.config == m.config
    assert back.report == m.report
    with open(path) as fh:
        data = json.load(fh)
    assert list(data["config"]) == [
        "learning_rate", "beta1", "beta2", "adam_eps", "clamp_eps", "init_seed"]
    assert list(data["meta"]) == [
        "epochs", "batch_size", "class_weight", "oversampled", "epoch_losses"]


def test_model_files_are_pinned(tmp_path):
    # A model file holds the network, its weights, its input scaling and its
    # training record; a change to any of them, or to the file format, shows here.
    corpus = synth_corpus(3, seed=7)
    fms = [extract_all(c) for c in corpus]
    plain = MLPDetector(MLPConfig(init_seed=5))
    plain.fit(np.vstack([fm.matrix for fm in fms]),
              np.concatenate([fm.labels for fm in fms]).astype(np.float64),
              epochs=2, batch_size=16, class_weight=2.0, oversample=True, shuffle_seed=3)
    robust, report = train_robust(samples_from_circuits(corpus),
                                  AdvTrainConfig(epochs=1, attack_budget=2, seed=6))
    assert report.adversarial_generated > 0
    digests = []
    for name, model in (("plain", plain), ("robust", robust)):
        path = tmp_path / f"{name}.json"
        save_model(model, str(path))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests == ["a4f084d8db8964ca669fa28dbec8405c18af47acbbdf7f53b76df19cb6bf1c80",
                       "63b6178975f779db8fae57b90b535cf1d8e1356ff71343219e47baed522094b8"]


_SIZES = (51, 200, 100, 50, 1)
_MISSING = object()


def _norm(width: int) -> dict:
    return {"col_min": [0.0] * width, "col_max": [1.0] * width}


@pytest.mark.parametrize("key,edit,needle", [
    ("biases", lambda b: b[:2], f"biases must be a list of 4 arrays for layer_sizes {_SIZES}"),
    ("weights", lambda w: w[:3], f"weights must be a list of 4 arrays for layer_sizes {_SIZES}"),
    ("weights", lambda w: w + w[-1:], "weights must be a list of 4 arrays"),
    ("weights", lambda w: 5, "weights must be a list of 4 arrays"),
    ("weights", lambda w: [w[0], [[0.0] * 100] * 5, *w[2:]],
     f"weights[1] has shape (5, 100); layer_sizes {_SIZES} need (200, 100)"),
    ("biases", lambda b: [*b[:3], [0.5, 0.5]], "biases[3] has shape (2,)"),
    ("biases", lambda b: [[[0.0], [1.0, 2.0]], *b[1:]], "biases[0]: "),
    ("weights", lambda w: _MISSING, "weights must be a list of 4 arrays"),
    ("biases", lambda b: _MISSING, "biases must be a list of 4 arrays"),
    ("norm", lambda n: _norm(1), f"norm col_min has shape (1,); layer_sizes {_SIZES} need (51,)"),
    ("norm", lambda n: _norm(50), "norm col_min has shape (50,)"),
    ("norm", lambda n: {**_norm(51), "col_max": [1.0] * 52}, "norm col_max has shape (52,)"),
    ("norm", lambda n: {"col_min": [0.0] * 51}, "norm col_max has shape ()"),
    ("norm", lambda n: {**_norm(51), "span": 1}, "unknown norm key 'span'"),
    ("norm", lambda n: [0.0] * 51, "norm must be an object"),
    ("meta", lambda m: {**m, "foo": 1}, "unknown meta key 'foo'"),
    ("layer_sizes", lambda s: [51, -3, 1], "layer_sizes must be [51, 200, 100, 50, 1], not "
                                           "[51, -3, 1]"),
    ("config", lambda c: {**c, "foo": 1}, "unknown config key 'foo'"),
    ("config", lambda c: {**c, "learning_rate": 0.01}, "config learning_rate must be 0.001"),
    ("config", lambda c: {k: v for k, v in c.items() if k != "beta2"},
     "config beta2 must be 0.999, not None"),
    ("config", lambda c: {**c, "init_seed": -1}, "config init_seed must be a non-negative int"),
    ("config", lambda c: {**c, "init_seed": 2.0}, "config init_seed must be a non-negative int"),
    ("extra", lambda x: 1, "unknown model file key 'extra'"),
], ids=["two_biases", "missing_weight", "extra_weight", "not_a_list", "weight_shape",
        "bias_shape", "ragged", "no_weights", "no_biases", "norm_one_column", "norm_50_columns",
        "norm_52_maxima", "norm_no_maxima", "norm_unknown_key", "norm_not_an_object",
        "meta_unknown_key", "negative_layer", "config_unknown_key", "learning_rate",
        "config_no_beta2", "negative_seed", "float_seed", "unknown_key"])
def test_model_json_names_the_bad_array(key, edit, needle):
    data = MLPDetector(MLPConfig(init_seed=31)).to_json_dict()
    data[key] = edit(data.get(key))
    if data[key] is _MISSING:
        del data[key]
    with pytest.raises(ValueError) as exc:
        MLPDetector.from_json_dict(data)
    assert needle in str(exc.value)


def test_model_file_must_be_an_object():
    with pytest.raises(ValueError, match="^model file must be an object$"):
        MLPDetector.from_json_dict([])


def test_model_file_without_norm_or_meta_loads():
    # An untrained model writes "norm": null; "norm" and "meta" may be left out.
    data = MLPDetector(MLPConfig(init_seed=37)).to_json_dict()
    assert data["norm"] is None
    for drop in ((), ("norm",), ("meta",), ("norm", "meta")):
        loaded = MLPDetector.from_json_dict({k: v for k, v in data.items() if k not in drop})
        assert loaded.to_json_dict() == data


def test_loaded_model_trains_its_own_parameters(tmp_path):
    x, y = _blob_data(seed=32)
    m = MLPDetector(MLPConfig(init_seed=33))
    m.fit(x, y, epochs=1, batch_size=16)
    path = str(tmp_path / "model.json")
    save_model(m, path)
    a, b = load_model(path), load_model(path)
    probe = np.random.default_rng(34).uniform(0, 1, size=(6, 51))
    before = a.predict_proba(probe)
    x01 = a.norm.apply(x)
    for start in range(0, 48, 16):
        for model in (a, b):
            model.train_batch(x01[start : start + 16], y[start : start + 16])
    after = a.predict_proba(probe)
    assert not np.array_equal(after, before)
    ref = _oracles.reference_activations(a, _oracles.reference_normalize(a.norm, probe))[-1]
    assert np.array_equal(after, ref[:, 0])
    assert _state_equal(_state(a), _state(b))


def test_copies_train_like_the_original():
    x, y = _blob_data(seed=35, n_neg=8, n_pos=8)
    m = MLPDetector(MLPConfig(init_seed=36))
    m.train_batch(x, y)
    copies = [copy.deepcopy(m), pickle.loads(pickle.dumps(m))]
    for model in (m, *copies):
        model.train_batch(x[::2], y[::2], 2.0)
    assert all(_state_equal(_state(c), _state(m)) for c in copies)


def test_oversample_balances_minority():
    rng = np.random.default_rng(11)
    neg = rng.uniform(0.0, 0.4, size=(120, 51))
    pos = rng.uniform(0.6, 1.0, size=(6, 51))
    x = np.vstack([neg, pos])
    y = np.concatenate([np.zeros(120), np.ones(6)])

    plain = MLPDetector(MLPConfig(init_seed=3))
    r1 = plain.fit(x, y, epochs=6, batch_size=16, shuffle_seed=1)
    over = MLPDetector(MLPConfig(init_seed=3))
    r2 = over.fit(x, y, epochs=6, batch_size=16, shuffle_seed=1, oversample=True)
    assert not r1.oversampled and r2.oversampled
    tpr_plain = np.mean(plain.predict_proba(pos) >= 0.5)
    tpr_over = np.mean(over.predict_proba(pos) >= 0.5)
    assert tpr_over >= tpr_plain


@pytest.mark.parametrize("minority", [1, 0])
def test_oversampled_indices_reach_exact_parity(minority):
    y = np.array([1 - minority] * 9 + [minority] * 2, dtype=np.float64)
    idx = _oversampled_indices(y, np.random.default_rng(0))
    assert np.sum(y[idx] == 1) == np.sum(y[idx] == 0) == 9
    majority = np.flatnonzero(y != minority)
    assert np.array_equal(idx[: len(majority)], majority)
    assert set(idx[len(majority):]) <= set(np.flatnonzero(y == minority))


@pytest.mark.parametrize("y", [np.zeros(5), np.ones(4), np.array([0, 1, 1, 0])])
def test_oversampled_indices_identity_without_draw(y):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert np.array_equal(_oversampled_indices(y, rng), np.arange(len(y)))
    assert rng.bit_generator.state == before


def test_class_weight_changes_training():
    x, y = _blob_data(seed=12, n_neg=40, n_pos=4)
    a = MLPDetector(MLPConfig(init_seed=4))
    a.fit(x, y, epochs=2, batch_size=8, class_weight=1.0, shuffle_seed=1)
    b = MLPDetector(MLPConfig(init_seed=4))
    b.fit(x, y, epochs=2, batch_size=8, class_weight=10.0, shuffle_seed=1)
    assert not np.array_equal(a.weights[0], b.weights[0])


def test_loss_matches_hand_bce():
    m = MLPDetector(MLPConfig(init_seed=6))
    rng = np.random.default_rng(13)
    x = rng.uniform(0, 1, size=(4, 51))
    y = np.array([0.0, 1.0, 1.0, 0.0])
    p = np.clip(m.predict_proba(x), 1e-7, 1 - 1e-7)
    expect = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
    assert np.isclose(m.loss(x, y), expect)
    w = 3.0
    expect_w = -np.mean(w * y * np.log(p) + (1 - y) * np.log(1 - p))
    assert np.isclose(m.loss(x, y, class_weight=w), expect_w)


def test_norm_is_fit_during_fit():
    x, y = _blob_data(seed=14)
    m = MLPDetector(MLPConfig(init_seed=7))
    assert m.norm is None
    m.fit(x, y, epochs=1, batch_size=16)
    assert m.norm.to_dict() == NormStats.fit(x).to_dict()


@pytest.mark.parametrize("bad", [dict(epochs=-1), dict(batch_size=0), dict(class_weight=0),
                                 dict(class_weight=float("nan"))])
def test_fit_rejects_bad_sizes(bad):
    x, y = _blob_data(seed=14, n_neg=4, n_pos=4)
    m = MLPDetector(MLPConfig(init_seed=7))
    with pytest.raises(ValueError):
        m.fit(x, y, **bad)
    assert m.norm is None  # rejected before any work


@pytest.mark.parametrize("oversample", [False, True])
def test_fit_matches_per_phase_reference(oversample):
    # 13 + 4 rows: every epoch ends on a short batch, with or without oversampling
    x, y = _blob_data(seed=26, n_neg=13, n_pos=4)
    m = MLPDetector(MLPConfig(init_seed=27))
    report = m.fit(x, y, epochs=3, batch_size=5, class_weight=2.5, oversample=oversample,
                   shuffle_seed=28)
    ref = MLPDetector(MLPConfig(init_seed=27))
    losses = _oracles.reference_fit(ref, x, y, 3, 5, 2.5, oversample, 28)
    assert report.epoch_losses == losses
    assert _state_equal(_state(m), _state(ref))


def test_as_oracle_matches_predict_proba():
    x, y = _blob_data(seed=15)
    m = MLPDetector(MLPConfig(init_seed=8))
    m.fit(x, y, epochs=1, batch_size=16)
    oracle = m.as_oracle()
    probe = np.random.default_rng(16).uniform(0, 1, size=(7, 51))
    assert np.array_equal(oracle(probe), m.predict_proba(probe))


def _state(m: MLPDetector) -> list:
    return [a.copy() for a in m.weights + m.biases + m._adam_m + m._adam_v] + [m._adam_t]


def _state_equal(a: list, b: list) -> bool:
    return a[-1] == b[-1] and all(np.array_equal(x, y) for x, y in zip(a[:-1], b[:-1]))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit patterns, except that any NaN matches any NaN."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


_SIGMOID_SPECIALS = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 745.2, -745.2, 709.8, -709.8,
    5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300, 36.7, -36.7, 1e300, -1e300,
])


def test_sigmoid_matches_masked_reference():
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(1, 68))  # every SIMD tail length
        z = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), size=n)
        k = int(rng.integers(0, n + 1))
        z[rng.choice(n, size=k, replace=False)] = rng.choice(_SIGMOID_SPECIALS, size=k)
        assert _same_bits(_sigmoid(z), _oracles.reference_sigmoid(z)), z
    z = rng.normal(0.0, 4.0, size=(16, 200))
    assert _same_bits(_sigmoid(z), _oracles.reference_sigmoid(z))


# Each edge with both signs: zero, inf, NaN, subnormals, the ends of exp's
# range, the largest doubles, and the metric clamp's bounds.
_EDGES = np.array([0.0, np.inf, np.nan, 5e-324, 2.2e-308, 745.0, 745.2, 1e308,
                   np.finfo(float).max, CLAMP_EPS, 0.5, 1.0 - CLAMP_EPS, 1.0])
_EDGES = np.concatenate([_EDGES, -_EDGES])


def test_forward_pass_matches_the_formulas_it_replaced_byte_for_byte():
    # The sigmoid and the metric clamp as written before they kept fewer
    # temporaries; comparing bytes also compares zero's sign and NaN's bits.
    rng = np.random.default_rng(24)
    draws = [rng.choice(_EDGES, size=int(rng.integers(1, 68))) for _ in range(300)]
    draws.append(np.where(rng.random((16, 200)) < 0.2, rng.choice(_EDGES, (16, 200)),
                          rng.normal(0.0, 30.0, (16, 200))))
    for x in draws:
        e = np.exp(-np.abs(x))
        assert _sigmoid(x).tobytes() == (np.where(x >= 0, 1.0, e) / (1.0 + e)).tobytes(), x
        old = np.log(np.clip(x, CLAMP_EPS, 1.0 - CLAMP_EPS))
        assert _log_clamped(x).tobytes() == old.tobytes(), x


def test_adam_step_matches_textbook_formula():
    m = MLPDetector(MLPConfig(init_seed=22))
    ref = copy.deepcopy(m)
    rng = np.random.default_rng(23)
    for _ in range(100):
        scale = 10.0 ** rng.uniform(-8, 1)
        grads = [rng.normal(0.0, scale, size=p.shape) for p in m.weights + m.biases]
        kept = [g.copy() for g in grads]
        m.adam_step(grads)
        _oracles.reference_adam_step(ref, kept)
        assert _state_equal(_state(m), _state(ref))
        assert all(np.array_equal(g, k) for g, k in zip(grads, kept))


def test_loss_and_grads_match_reference():
    rng = np.random.default_rng(24)
    m = MLPDetector(MLPConfig(init_seed=25))
    saturated = copy.deepcopy(m)  # outputs on both sides of the lower clamp, 1e-7
    saturated.weights[-1] *= 12.0
    saturated.biases[-1] -= 1.5
    clamped = []
    for model in (m, saturated):
        for class_weight in (1.0, 3.5, 0.25):
            n = int(rng.integers(1, 21))
            x = rng.uniform(0, 1, size=(n, 51))
            y = rng.integers(0, 2, size=n).astype(np.float64)
            if model is saturated:
                clamped += list(model.predict_proba(x) <= CLAMP_EPS)
            x_kept = x.copy()
            loss, grads = model.loss_and_grads(x, y, class_weight)
            ref_loss, ref_grads = _oracles.reference_loss_and_grads(model, x, y, class_weight)
            assert loss == ref_loss
            assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))
            assert np.array_equal(x, x_kept)
    assert any(clamped) and not all(clamped)


def test_train_batch_matches_textbook_step():
    rng = np.random.default_rng(37)
    m = MLPDetector(MLPConfig(init_seed=38))
    ref = copy.deepcopy(m)
    for class_weight in (1.0, 3.5, 0.25, 1.0):
        n = int(rng.integers(1, 21))
        x = rng.uniform(0, 1, size=(n, 51))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        loss = m.train_batch(x, y, class_weight)
        ref_loss, ref_grads = _oracles.reference_loss_and_grads(ref, x, y, class_weight)
        _oracles.reference_adam_step(ref, ref_grads)
        assert loss == ref_loss
        assert _state_equal(_state(m), _state(ref))


def test_loss_is_the_loss_of_loss_and_grads(monkeypatch):
    rng = np.random.default_rng(39)
    m = MLPDetector(MLPConfig(init_seed=40))
    m.weights[-1] *= 12.0  # some outputs under the clamp
    x = rng.uniform(0, 1, size=(12, 51))
    y = rng.integers(0, 2, size=12).astype(np.float64)
    expect = [m.loss_and_grads(x, y, w)[0] for w in (1.0, 3.5)]
    monkeypatch.setattr(MLPDetector, "_backprop", None)  # forward pass only
    assert [m.loss(x, y, w) for w in (1.0, 3.5)] == expect


def test_train_batch_allocates_less_than_one_parameter_set():
    rng = np.random.default_rng(41)
    m = MLPDetector(MLPConfig(init_seed=42))
    x = rng.uniform(0, 1, size=(16, 51))
    y = rng.integers(0, 2, size=16).astype(np.float64)
    for _ in range(3):
        m.train_batch(x, y)
    tracemalloc.start()
    try:
        for _ in range(20):
            m.train_batch(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 35_601 * 8  # one float64 parameter set
    m.fit(x, y, epochs=1)
    assert m._work is None  # the training workspace ends with the run


def test_returned_gradients_are_not_overwritten_by_later_calls():
    rng = np.random.default_rng(26)
    m = MLPDetector(MLPConfig(init_seed=27))
    x = rng.uniform(0, 1, size=(16, 51))
    y = rng.integers(0, 2, size=16).astype(np.float64)
    _, grads = m.loss_and_grads(x, y, 2.0)
    kept = [g.copy() for g in grads]
    m.train_batch(x, y, 2.0)
    m.loss_and_grads(x[::-1].copy(), y[::-1].copy(), 5.0)
    assert all(np.array_equal(g, k) for g, k in zip(grads, kept))


def test_oracle_matches_reference_forward():
    x, y = _blob_data(seed=28)
    x[:, 5] = 0.5  # a degenerate column, inside the probe range
    m = MLPDetector(MLPConfig(init_seed=29))
    m.fit(x, y, epochs=1, batch_size=16)
    probe = np.random.default_rng(30).uniform(-1.0, 2.0, size=(9, 51))
    ref = _oracles.reference_activations(m, _oracles.reference_normalize(m.norm, probe))[-1]
    assert np.array_equal(m.norm.apply(probe), _oracles.reference_normalize(m.norm, probe))
    assert np.array_equal(m.predict_proba(probe), ref[:, 0])
    for row in probe:
        one = _oracles.reference_activations(m, _oracles.reference_normalize(m.norm, row))[-1]
        assert m.predict_proba(row) == one[0, 0]
        assert np.array_equal(m.as_oracle()(row), one[:, 0])
