"""Adversarial training loop, provenance, and weak adversarial examples."""
from __future__ import annotations

import json

import numpy as np
import pytest

import _oracles
from conftest import load_fixture
from htlab import (
    AdvTrainConfig,
    MLPConfig,
    MLPDetector,
    ProvenancedSample,
    extract_all,
    generate_adversarial,
    load_model,
    samples_from_circuits,
    save_model,
    train_robust,
    weaken,
)
from htlab.advtrain import PROFILES


@pytest.fixture(scope="module")
def mini_samples():
    return samples_from_circuits([load_fixture("troj_mini")])


# -- config --------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        AdvTrainConfig(trojan_modify_ratio=1.5)
    with pytest.raises(ValueError):
        AdvTrainConfig(trojan_modify_ratio=-0.1)
    with pytest.raises(ValueError):
        AdvTrainConfig(min_trojan_per_batch=0)
    with pytest.raises(ValueError):
        AdvTrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        AdvTrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        AdvTrainConfig(attack_budget=-1)
    AdvTrainConfig(batch_size=1, attack_budget=0)


def test_adversarial_per_batch_uses_config_threshold():
    # ceil(l * m') with m' the configured minimum, not the realized count
    assert AdvTrainConfig(trojan_modify_ratio=0.1, min_trojan_per_batch=1).adversarial_per_batch == 1
    assert AdvTrainConfig(trojan_modify_ratio=0.5, min_trojan_per_batch=1).adversarial_per_batch == 1
    assert AdvTrainConfig(trojan_modify_ratio=0.5, min_trojan_per_batch=4).adversarial_per_batch == 2
    assert AdvTrainConfig(trojan_modify_ratio=0.0, min_trojan_per_batch=3).adversarial_per_batch == 0


def test_profiles_are_paper_presets():
    assert PROFILES["trust-hub"] == dict(
        epochs=10, batch_size=16, min_trojan_per_batch=1,
        trojan_modify_ratio=0.1, init_epochs=1, attack_budget=5, oversample=True,
    )
    assert PROFILES["trit-tc"] == dict(
        epochs=15, batch_size=2, min_trojan_per_batch=1,
        trojan_modify_ratio=0.1, init_epochs=5, attack_budget=4, oversample=False,
    )
    for name, fields in PROFILES.items():
        AdvTrainConfig(**fields)  # every profile must construct cleanly


# -- provenance ------------------------------------------------------------------


def test_provenanced_sample_requires_circuit_for_trojans():
    vec = np.zeros(51)
    ProvenancedSample(vec, 0)  # normal rows may be bare
    with pytest.raises(ValueError):
        ProvenancedSample(vec, 1)


def test_samples_from_circuits(mini_samples):
    c = load_fixture("troj_mini")
    assert len(mini_samples) == len(c.nets)
    trojans = [s for s in mini_samples if s.label == 1]
    assert len(trojans) == len(c.trojan_net_ids)
    for s in mini_samples:
        assert s.features.shape == (51,)
        if s.label:
            assert s.circuit is not None and s.net_id in s.circuit.trojan_net_ids
        else:
            assert s.circuit is None and s.net_id is None


# -- generation -------------------------------------------------------------------


def test_generate_adversarial_requires_trojan(mini_samples):
    normal = next(s for s in mini_samples if s.label == 0)
    with pytest.raises(ValueError):
        generate_adversarial(normal, lambda x: np.full(len(np.atleast_2d(x)), 0.5))


def test_generate_adversarial_zero_budget_is_identity(mini_samples):
    trojan = next(s for s in mini_samples if s.label == 1)
    vec = generate_adversarial(
        trojan, lambda x: np.full(len(np.atleast_2d(x)), 0.5), attack_budget=0
    )
    assert np.array_equal(vec, trojan.features)
    assert vec is not trojan.features  # defensive copy


def test_generate_adversarial_moves_feature_row(mini_samples):
    c = load_fixture("troj_mini")
    fm = extract_all(c)
    m = MLPDetector(MLPConfig(init_seed=0))
    m.fit(fm.matrix, fm.labels.astype(np.float64), epochs=60, batch_size=4,
          oversample=True, shuffle_seed=1)
    trojan = next(s for s in mini_samples if s.label == 1)
    vec = generate_adversarial(trojan, m.as_oracle(), attack_budget=5)
    assert vec.shape == (51,)
    assert not np.array_equal(vec, trojan.features)
    # the adversarial row scores lower (better concealed) than the original
    before = float(m.predict_proba(trojan.features[None, :])[0])
    after = float(m.predict_proba(vec[None, :])[0])
    assert after < before


# -- training loop -----------------------------------------------------------------


def test_train_robust_requires_both_classes():
    rng = np.random.default_rng(0)
    only_normal = [ProvenancedSample(rng.uniform(0, 1, 51), 0) for _ in range(8)]
    with pytest.raises(ValueError):
        train_robust(only_normal, AdvTrainConfig(epochs=1))


def test_train_robust_counts_and_phases(mini_samples):
    cfg = AdvTrainConfig(
        epochs=3, batch_size=4, init_epochs=2, attack_budget=3, seed=0,
        oversample=True,
    )
    model, report = train_robust(mini_samples, cfg)
    assert len(report.init_losses) == 2
    assert len(report.epoch_losses) == 3
    assert report.triggered_batches > 0
    # every triggered batch appends exactly ceil(l * m') rows
    assert report.adversarial_generated == report.triggered_batches * cfg.adversarial_per_batch
    assert report.degenerate_examples <= report.adversarial_generated


def test_train_robust_is_deterministic(mini_samples):
    cfg = AdvTrainConfig(epochs=2, batch_size=4, init_epochs=1, attack_budget=2, seed=3)

    a, ra = train_robust(mini_samples, cfg)
    b, rb = train_robust(mini_samples, cfg)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert ra.adversarial_generated == rb.adversarial_generated
    assert ra.epoch_losses == rb.epoch_losses


def test_zero_ratio_degenerates_to_plain_training(mini_samples):
    base = AdvTrainConfig(epochs=3, batch_size=4, init_epochs=1, seed=5,
                          trojan_modify_ratio=0.0)
    unsat = AdvTrainConfig(epochs=3, batch_size=4, init_epochs=1, seed=5,
                           min_trojan_per_batch=5)  # > batch trojan count: never triggers
    a, ra = train_robust(mini_samples, base)
    b, rb = train_robust(mini_samples, unsat)
    assert ra.adversarial_generated == 0 and rb.adversarial_generated == 0
    assert ra.triggered_batches == 0
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_norm_is_frozen_from_raw_features(mini_samples):
    from htlab import NormStats

    cfg = AdvTrainConfig(epochs=1, batch_size=4, init_epochs=1, seed=1)
    model, _ = train_robust(mini_samples, cfg)
    x_raw = np.stack([s.features for s in mini_samples])
    assert model.norm.to_dict() == NormStats.fit(x_raw).to_dict()


def test_batches_smaller_than_batch_size_are_dropped(mini_samples):
    # 10 samples without oversampling cannot fill a 16-batch: no updates happen
    cfg = AdvTrainConfig(epochs=2, batch_size=16, init_epochs=1, seed=2, oversample=False)
    model, report = train_robust(mini_samples, cfg)
    fresh = MLPDetector(MLPConfig(init_seed=cfg.seed))
    for wa, wb in zip(model.weights, fresh.weights):
        assert np.array_equal(wa, wb)
    assert report.epoch_losses == [0.0, 0.0]
    assert report.adversarial_generated == 0


@pytest.mark.parametrize("oversample", [True, False])
def test_train_robust_matches_per_phase_reference(mini_samples, oversample):
    cfg = AdvTrainConfig(epochs=2, batch_size=4, init_epochs=2, attack_budget=2, seed=6,
                         trojan_modify_ratio=1.0, oversample=oversample, class_weight=1.5)
    model, report = train_robust(mini_samples, cfg)
    ref, init_losses, epoch_losses, generated = _oracles.reference_train_robust(
        mini_samples, cfg)
    assert report.adversarial_generated == generated > 0
    assert (report.init_losses, report.epoch_losses) == (init_losses, epoch_losses)
    for a, b in zip(model.weights + model.biases, ref.weights + ref.biases):
        assert np.array_equal(a, b)


def test_saved_robust_model_records_its_training(mini_samples, tmp_path):
    cfg = AdvTrainConfig(epochs=2, batch_size=4, init_epochs=1, attack_budget=1, seed=4,
                         class_weight=2.0)
    model, report = train_robust(mini_samples, cfg)
    path = str(tmp_path / "robust.json")
    save_model(model, path)
    with open(path) as fh:
        meta = json.load(fh)["meta"]
    assert meta == {
        "epochs": 3, "batch_size": 4, "class_weight": 2.0, "oversampled": True,
        "epoch_losses": report.init_losses + report.epoch_losses,
    }
    assert load_model(path).report == model.report


# -- weak adversarial examples ---------------------------------------------------


def test_weaken_endpoints():
    rng = np.random.default_rng(1)
    x, x_adv = rng.uniform(0, 1, 51), rng.uniform(0, 1, 51)
    assert np.array_equal(weaken(x, x_adv, 0.0), x)
    assert np.array_equal(weaken(x, x_adv, 1.0), x_adv)


def test_weaken_scalar_matches_constant_vector():
    rng = np.random.default_rng(2)
    x, x_adv = rng.uniform(0, 1, 51), rng.uniform(0, 1, 51)
    assert np.allclose(weaken(x, x_adv, 0.3), weaken(x, x_adv, np.full(51, 0.3)))


def test_weaken_componentwise():
    x = np.zeros(4)
    x_adv = np.ones(4)
    g = np.array([0.0, 0.25, 0.5, 1.0])
    assert np.array_equal(weaken(x, x_adv, g), g)


def test_weaken_validation():
    with pytest.raises(ValueError):
        weaken(np.zeros(3), np.zeros(4), 0.5)
    with pytest.raises(ValueError):
        weaken(np.zeros(3), np.ones(3), 1.5)
    with pytest.raises(ValueError):
        weaken(np.zeros(3), np.ones(3), np.array([0.2, -0.1, 0.5]))
