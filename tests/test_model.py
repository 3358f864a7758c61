"""From-scratch MLP: gradients, determinism, persistence, training knobs."""
from __future__ import annotations

import json

import numpy as np
import pytest

import _oracles
from htlab import (
    MLPConfig,
    MLPDetector,
    NormStats,
    gradient_check,
    load_model,
    save_model,
)
from htlab.model import _oversampled_indices, _sigmoid


def _blob_data(seed: int = 0, n_neg: int = 60, n_pos: int = 60, dim: int = 51):
    rng = np.random.default_rng(seed)
    neg = rng.uniform(0.0, 0.35, size=(n_neg, dim))
    pos = rng.uniform(0.65, 1.0, size=(n_pos, dim))
    x = np.vstack([neg, pos])
    y = np.concatenate([np.zeros(n_neg), np.ones(n_pos)])
    return x, y


def test_default_architecture():
    m = MLPDetector()
    assert m.config.layer_sizes == (51, 200, 100, 50, 1)
    shapes = [w.shape for w in m.weights]
    assert shapes == [(51, 200), (200, 100), (100, 50), (50, 1)]


def test_config_validation():
    with pytest.raises(ValueError):
        MLPConfig(layer_sizes=(51,))
    with pytest.raises(ValueError):
        MLPConfig(layer_sizes=(51, 10, 2))  # output layer must be width 1


def test_forward_shapes_and_range():
    m = MLPDetector(MLPConfig(init_seed=3))
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=(17, 51))
    p = m.forward(x)
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
    p = np.clip(m.forward(x), 1e-7, 1 - 1e-7)
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


@pytest.mark.parametrize("bad", [dict(epochs=-1), dict(batch_size=0)])
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


def test_clone_is_independent():
    m = MLPDetector(MLPConfig(init_seed=10))
    c = m.clone()
    c.weights[0][0, 0] += 1.0
    assert m.weights[0][0, 0] != c.weights[0][0, 0]
    # Adam updates parameters and moments in place: a step on one model must
    # leave every array of the other alone, in both directions.
    x, y = _blob_data(seed=17, n_neg=8, n_pos=8)
    m.fit(x, y, epochs=1, batch_size=8)
    for original_steps in (True, False):
        c = m.clone()
        trained, other = (m, c) if original_steps else (c, m)
        before = _state(other)
        trained.train_batch(x[:8], y[:8], 3.0)
        assert _state_equal(_state(other), before)
        assert not _state_equal(_state(trained), before)


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


def test_adam_step_matches_textbook_formula():
    m = MLPDetector(MLPConfig(init_seed=22))
    ref = m.clone()
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
    saturated = m.clone()  # outputs on both sides of the lower clamp, 1e-7
    saturated.weights[-1] *= 12.0
    saturated.biases[-1] -= 1.5
    clamped = []
    for model in (m, saturated):
        for class_weight in (1.0, 3.5, 0.25):
            n = int(rng.integers(1, 21))
            x = rng.uniform(0, 1, size=(n, 51))
            y = rng.integers(0, 2, size=n).astype(np.float64)
            if model is saturated:
                clamped += list(model.forward(x) <= model.config.clamp_eps)
            x_kept = x.copy()
            loss, grads = model.loss_and_grads(x, y, class_weight)
            ref_loss, ref_grads = _oracles.reference_loss_and_grads(model, x, y, class_weight)
            assert loss == ref_loss
            assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))
            assert np.array_equal(x, x_kept)
    assert any(clamped) and not all(clamped)


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
