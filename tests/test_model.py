"""From-scratch MLP: gradients, determinism, persistence, training knobs."""
from __future__ import annotations

import numpy as np
import pytest

from htlab import (
    MLPConfig,
    MLPDetector,
    NormStats,
    gradient_check,
    load_model,
    save_model,
)
from htlab.model import _oversampled_indices


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


def test_norm_is_fit_during_fit_and_frozen_on_request():
    x, y = _blob_data(seed=14)
    m = MLPDetector(MLPConfig(init_seed=7))
    m.fit(x, y, epochs=1, batch_size=16)
    assert m.norm is not None
    frozen = NormStats.fit(x * 2.0)
    m2 = MLPDetector(MLPConfig(init_seed=7), norm=frozen)
    m2.fit(x, y, epochs=1, batch_size=16, refit_norm=False)
    assert m2.norm is frozen


def test_as_oracle_matches_predict_proba():
    x, y = _blob_data(seed=15)
    m = MLPDetector(MLPConfig(init_seed=8))
    m.fit(x, y, epochs=1, batch_size=16)
    oracle = m.as_oracle()
    probe = np.random.default_rng(16).uniform(0, 1, size=(7, 51))
    assert np.array_equal(oracle(probe), m.predict_proba(probe))


def test_clone_is_independent():
    m = MLPDetector(MLPConfig(init_seed=10))
    c = m.clone()
    c.weights[0][0, 0] += 1.0
    assert m.weights[0][0, 0] != c.weights[0][0, 0]
