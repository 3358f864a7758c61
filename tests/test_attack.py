"""Concealment metrics and the greedy gate-modification attack."""
from __future__ import annotations

import functools
import gc
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import InputLog, LookupOracle, RecordingOracle
from conftest import count_calls, load_fixture
from htlab import attack
from htlab import (
    AttackConfig,
    MLPConfig,
    MLPDetector,
    alpha_tcd,
    extract_all,
    run_attack,
    attack_sweep,
    synth_circuit,
    tcd,
    ttcd,
)

EPS = 1e-7
# Whole attacks per example.  A failing example is reported as drawn:
# shrinking one took over five minutes.
ATTACK_EXAMPLES = settings(max_examples=10, deadline=None,
                           phases=(Phase.explicit, Phase.reuse, Phase.generate))


# -- metric definitions ----------------------------------------------------------


def test_tcd_is_mean_log():
    p = np.array([0.5, 0.25])
    assert np.isclose(tcd(p), (math.log(0.5) + math.log(0.25)) / 2)


def test_tcd_clamps_extremes():
    assert np.isclose(tcd(np.array([0.0])), math.log(EPS))
    assert np.isclose(tcd(np.array([1.0])), math.log(1 - EPS))


def test_alpha_tcd_finite():
    p = np.array([0.5, 0.9])
    for alpha in (1.0, 2.0, 3.5):
        expect = -np.mean(np.abs(np.log(p)) ** alpha)
        assert np.isclose(alpha_tcd(p, alpha), expect)


def test_alpha_one_matches_tcd():
    p = np.array([0.3, 0.6, 0.99])
    assert np.isclose(alpha_tcd(p, 1.0), tcd(p))


def test_alpha_inf_is_max_log():
    p = np.array([0.2, 0.8])
    assert np.isclose(alpha_tcd(p, math.inf), math.log(0.8))


def test_ttcd_is_single_log():
    assert np.isclose(ttcd(0.42), math.log(0.42))
    assert np.isclose(ttcd(0.0), math.log(EPS))


def test_metric_validation():
    with pytest.raises(ValueError):
        tcd(np.array([]))
    with pytest.raises(ValueError):
        alpha_tcd(np.array([0.5]), 0.0)
    with pytest.raises(ValueError):
        alpha_tcd(np.array([0.5]), math.nan)
    with pytest.raises(ValueError):
        alpha_tcd(np.array([]), 1.0)


def test_attack_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(k_max=-1)
    with pytest.raises(ValueError):
        AttackConfig(alpha=-2.0)
    with pytest.raises(ValueError):
        AttackConfig(alpha=math.nan)


# -- the greedy attack -------------------------------------------------------------


@pytest.fixture(scope="module")
def mini_model(troj_mini_module):
    fm = extract_all(troj_mini_module)
    m = MLPDetector(MLPConfig(init_seed=0))
    m.fit(fm.matrix, fm.labels.astype(np.float64), epochs=60, batch_size=4,
          oversample=True, shuffle_seed=1)
    return m


@pytest.fixture(scope="module")
def troj_mini_module():
    from conftest import load_fixture

    return load_fixture("troj_mini")


def test_attack_accepts_and_decreases(troj_mini_module, mini_model):
    res = run_attack(troj_mini_module, mini_model.as_oracle(), AttackConfig(alpha=1.0, k_max=5))
    assert res.metrics[0] == res.initial_metric
    assert len(res.steps) >= 1
    for a, b in zip(res.metrics, res.metrics[1:]):
        assert b < a
    assert len(res.circuits) == len(res.steps) + 1
    assert res.oracle_calls > 0


def test_attack_budget_and_distinct_gates(troj_mini_module, mini_model):
    res = run_attack(troj_mini_module, mini_model.as_oracle(), AttackConfig(alpha=1.0, k_max=10))
    # only three Trojan gates exist, each modifiable once
    assert len(res.steps) <= 3
    gids = [s.gate_id for s in res.steps]
    assert len(gids) == len(set(gids))
    for gid in gids:
        assert gid in troj_mini_module.trojan_gate_ids
    assert res.terminated_early  # ran out of improving candidates before k_max


def test_attack_step_indices_and_counts(troj_mini_module, mini_model):
    res = run_attack(troj_mini_module, mini_model.as_oracle(), AttackConfig(alpha=2.0, k_max=5))
    for i, step in enumerate(res.steps, start=1):
        assert step.index == i
        assert step.candidates_evaluated > 0
        assert step.pattern_id in {f"m{j}" for j in range(1, 16)}


def test_attack_preserves_original(troj_mini_module, mini_model):
    before = troj_mini_module.to_json_dict()
    res = run_attack(troj_mini_module, mini_model.as_oracle(), AttackConfig(alpha=1.0, k_max=3))
    assert troj_mini_module.to_json_dict() == before
    assert res.original is troj_mini_module
    # rewritten gates keep the Trojan membership on their replacements
    assert res.final.trojan_net_ids >= troj_mini_module.trojan_net_ids


def test_attack_keeps_equivalence(troj_mini_module, mini_model):
    from htlab import check_equivalence

    res = run_attack(troj_mini_module, mini_model.as_oracle(), AttackConfig(alpha=1.0, k_max=5))
    rep = check_equivalence(troj_mini_module, res.final)
    assert rep.equivalent and rep.mode == "exhaustive"


def test_attack_zero_budget(troj_mini_module, mini_model):
    res = run_attack(troj_mini_module, mini_model.as_oracle(), AttackConfig(alpha=1.0, k_max=0))
    assert res.steps == []
    assert (res.final is res.original
            or res.final.to_json_dict() == troj_mini_module.to_json_dict())


def test_attack_requires_trojan_nets(fixture_circuits, mini_model):
    with pytest.raises(ValueError):
        run_attack(fixture_circuits["comb_tree"], mini_model.as_oracle(), AttackConfig(k_max=2))


def test_ttcd_targeting(troj_mini_module, mini_model):
    target = troj_mini_module.net_by_name("py").id
    res = run_attack(
        troj_mini_module,
        mini_model.as_oracle(),
        AttackConfig(alpha=1.0, k_max=5),
        target_net_id=target,
    )
    assert res.target_net_id == target
    # the metric is the targeted net's own log-probability
    fm = extract_all(troj_mini_module)
    row = fm.net_ids.index(target)
    p0 = float(mini_model.predict_proba(fm.matrix[row][None, :])[0])
    assert np.isclose(res.initial_metric, ttcd(p0))
    for a, b in zip(res.metrics, res.metrics[1:]):
        assert b < a


def test_gray_box_purity_record_replay(troj_mini_module, mini_model):
    cfg = AttackConfig(alpha=1.0, k_max=5)
    rec = RecordingOracle(mini_model.as_oracle())
    first = run_attack(troj_mini_module, rec, cfg)
    replay = run_attack(troj_mini_module, LookupOracle(rec.table), cfg)
    assert replay.summary() == first.summary()
    assert replay.metrics == first.metrics


def distinct(inputs):
    """Logged oracle inputs with repeats removed, in first-seen order."""
    return list(dict.fromkeys(inputs))


def assert_same_inputs(got, want):
    """Two logs of oracle inputs are equal.  A failure names the first
    differing indexes instead of printing logs of row bytes."""
    n_got, n_want = len(got), len(want)
    assert n_got == n_want, "the logs differ in length"
    bad = [k for k, (a, b) in enumerate(zip(got, want)) if a != b]
    assert not bad, f"oracle inputs {bad[:5]} differ"


def assert_twins_agree(circuit, oracle, config, target_net_id=None):
    """Delta scoring and ``full_reextract`` send the oracle identical inputs:
    every candidate's for alpha-TCD, each distinct row once for TTCD."""
    runs = []
    for full in (False, True):
        log = InputLog(oracle)
        res = run_attack(circuit, log, replace(config, full_reextract=full), target_net_id)
        runs.append((res, log.inputs))
    (base, fast_inputs), (full, slow_inputs) = runs
    assert full.summary() == base.summary()
    assert full.steps == base.steps
    assert_same_inputs(fast_inputs, slow_inputs)
    sent = len(fast_inputs)
    if target_net_id is None:
        assert base.oracle_calls == sent
    else:
        assert len(set(fast_inputs)) == sent <= base.oracle_calls, "a TTCD row was sent twice"
    return base


def fitted(circuit, epochs=8):
    fm = extract_all(circuit)
    m = MLPDetector(MLPConfig(init_seed=1))
    m.fit(fm.matrix, fm.labels.astype(np.float64), epochs=epochs, batch_size=16,
          oversample=True, shuffle_seed=2)
    return m


def test_full_reextract_matches_local_update(troj_mini_module, mini_model):
    target = troj_mini_module.net_by_name("py").id
    for alpha, target_id in ((1.0, None), (math.inf, None), (1.0, target)):
        res = assert_twins_agree(troj_mini_module, mini_model.as_oracle(),
                                 AttackConfig(alpha=alpha, k_max=5), target_id)
        assert res.steps


def test_full_reextract_matches_local_update_synth():
    # The Trojan net set grows past 16 during the alpha runs, so their later
    # steps score candidates by delta from the parent circuit.
    c = synth_circuit(0, seed=5)
    oracle = fitted(c).as_oracle()
    target = sorted(c.trojan_net_ids)[0]
    for alpha, target_id in ((1.0, None), (math.inf, None), (1.0, target)):
        res = assert_twins_agree(c, oracle, AttackConfig(alpha=alpha, k_max=5), target_id)
        assert res.steps
        if target_id is None:
            parents = res.circuits if res.terminated_early else res.circuits[:-1]
            assert max(len(g.trojan_net_ids) for g in parents) > 16


def test_full_reextract_matches_local_update_scalegen(scale300):
    res = assert_twins_agree(scale300, fitted(scale300, epochs=1).as_oracle(),
                             AttackConfig(alpha=1.0, k_max=2))
    assert len(scale300.trojan_net_ids) > 16 and res.steps


def loop_weighted(rows):
    """An oracle that weighs the loop columns (26-35)."""
    return 1.0 / (1.0 + np.exp(rows[:, 25:35].sum(axis=1) - 0.3 * rows[:, :5].sum(axis=1)))


@ATTACK_EXAMPLES
@given(c=_oracles.feedback_circuits(), alpha=st.sampled_from([1.0, math.inf]),
       targeted=st.booleans())
def test_full_reextract_matches_local_update_feedback(c, alpha, targeted):
    # Rows with loops reach the oracle.
    loops = []

    def oracle(rows):
        loops.append(rows[:, 25:35].any())
        return loop_weighted(rows)

    target = _oracles.ring_trojan_nets(c)[0] if targeted else None
    assert_twins_agree(c, oracle, AttackConfig(alpha=alpha, k_max=2), target)
    assert any(loops)


def test_sweep_prefix_stability(troj_mini_module, mini_model):
    grid = attack_sweep(
        troj_mini_module, mini_model.as_oracle(), alphas=(1.0, math.inf), k_values=(1, 2, 5)
    )
    assert set(grid) == {(a, k) for a in (1.0, math.inf) for k in (1, 2, 5)}
    for alpha in (1.0, math.inf):
        fullest = grid[(alpha, 5)]
        for k in (1, 2):
            small = grid[(alpha, k)]
            assert small.steps == fullest.steps[: len(small.steps)]
            assert len(small.steps) <= k
            assert small.initial_metric == fullest.initial_metric


def test_sweep_requires_k():
    c = synth_circuit(0, seed=1)
    with pytest.raises(ValueError):
        attack_sweep(c, lambda x: np.full(len(np.atleast_2d(x)), 0.5), alphas=(1.0,), k_values=())


def test_attack_on_synth_circuit_decreases_metric():
    c = synth_circuit(1, seed=5)
    res = run_attack(c, fitted(c).as_oracle(), AttackConfig(alpha=1.0, k_max=2))
    for a, b in zip(res.metrics, res.metrics[1:]):
        assert b < a


# -- the rewrite-path row memo ---------------------------------------------------


def test_memo_rows_are_read_only_and_hits_replay_misses(mini_model, monkeypatch):
    c = load_fixture("troj_mini")  # a fresh graph, whose memo is empty
    target = c.net_by_name("py").id
    cfg = AttackConfig(alpha=1.0, k_max=5)
    oracle = mini_model.as_oracle()

    def writing(x):
        x[0, 0] = -1.0
        return oracle(x)

    with pytest.raises(ValueError, match="read-only"):
        run_attack(c, writing, cfg, target)
    extracted = count_calls(monkeypatch, attack, "extract_for_nets")
    logs, counts, calls = [], [], set()
    # The slow twin, then a run whose unmodified row the writer left in the
    # memo, then a run that only hits.
    for config in (replace(cfg, full_reextract=True), cfg, cfg):
        log = InputLog(oracle)
        res = run_attack(c, log, config, target)
        assert res.steps
        logs.append(log.inputs)
        counts.append(len(extracted))
        calls.add(res.oracle_calls)
    for log in logs[1:]:
        assert_same_inputs(log, logs[0])
    (calls,) = calls
    assert counts == [0, calls - 1, calls - 1]


def test_row_memo_lives_and_dies_with_its_graph(mini_model):
    c = load_fixture("troj_mini")
    run_attack(c, mini_model.as_oracle(), AttackConfig(k_max=1))
    memo = attack._ROW_MEMOS[c]
    assert memo
    del c
    gc.collect()
    assert all(m is not memo for m in attack._ROW_MEMOS.values())


def test_sweep_with_memo_matches_a_memo_that_never_hits(request, monkeypatch):
    c = synth_circuit(1, seed=5)
    oracle = fitted(c).as_oracle()
    extracted = count_calls(monkeypatch, attack, "extract_for_nets")
    runs = []
    for _ in range(2):
        log = InputLog(oracle)
        sweep = attack_sweep(c, log, alphas=(1.0, 2.0, math.inf), k_values=(1, 3))
        runs.append(({key: r.summary() for key, r in sweep.items()}, log.inputs,
                     len(extracted)))
        extracted.clear()
        request.getfixturevalue("no_row_memo")
    (memo, memo_inputs, memo_calls), (slow, slow_inputs, slow_calls) = runs
    assert memo == slow
    assert_same_inputs(memo_inputs, slow_inputs)
    assert memo_calls < slow_calls


# -- the independent reference attack -------------------------------------------

# On the synthetic circuits the alpha runs take 2 to 5 steps, and most grow the
# Trojan net set past 16, so that their later steps score candidates by delta.
REFERENCE_CIRCUITS = {
    "troj_mini": lambda: load_fixture("troj_mini"),
    "synth0": lambda: synth_circuit(0, seed=5),
    "synth1": lambda: synth_circuit(1, seed=5),
    "synth3": lambda: synth_circuit(3, seed=99),
}


@functools.cache
def reference_setup(name):
    """A circuit, an oracle fitted to it, and its TTCD target."""
    circuit = REFERENCE_CIRCUITS[name]()
    return circuit, fitted(circuit).as_oracle(), min(circuit.trojan_net_ids)


def reference_config(name, mode):
    target = reference_setup(name)[2] if mode == "ttcd" else None
    return AttackConfig(alpha=1.0 if mode == "ttcd" else mode, k_max=5), target


@functools.cache
def reference_run(name, mode):
    """The reference attack's steps, metrics, oracle calls and oracle inputs."""
    circuit, oracle, _ = reference_setup(name)
    config, target = reference_config(name, mode)
    log = InputLog(oracle)
    return (*_oracles.reference_attack(circuit, log, config.alpha, config.k_max, target),
            log.inputs)


def assert_matches_reference(circuit, oracle, config, target, reference):
    """``run_attack`` takes the reference's steps and metrics, answers as many
    queries, and sends the oracle the reference's inputs: all of them for
    alpha-TCD, and for TTCD each distinct one once, in first-seen order."""
    steps, metrics, calls, inputs = reference
    log = InputLog(oracle)
    res = attack.run_attack(circuit, log, config, target)
    assert [(s.gate_id, s.pattern_id, s.metric, s.candidates_evaluated)
            for s in res.steps] == steps
    assert res.metrics == metrics and res.oracle_calls == calls == len(inputs)
    if target is not None:
        assert len(set(log.inputs)) == len(log.inputs), "a TTCD row was sent twice"
        inputs = distinct(inputs)
    assert_same_inputs(log.inputs, inputs)


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "no_row_memo"])
@pytest.mark.parametrize("mode", ["ttcd", 1.0, 2.0, math.inf])
@pytest.mark.parametrize("name", sorted(REFERENCE_CIRCUITS))
def test_attack_matches_reference_attack(request, name, mode, memo):
    if not memo:
        request.getfixturevalue("no_row_memo")
    circuit, oracle, _ = reference_setup(name)
    assert_matches_reference(circuit, oracle, *reference_config(name, mode),
                             reference_run(name, mode))


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "no_row_memo"])
def test_attack_matches_reference_attack_on_feedback_circuits(request, memo):
    if not memo:
        request.getfixturevalue("no_row_memo")

    @ATTACK_EXAMPLES
    @given(c=_oracles.feedback_circuits(), mode=st.sampled_from(["ttcd", 1.0, math.inf]))
    def check(c, mode):
        target = _oracles.ring_trojan_nets(c)[0] if mode == "ttcd" else None
        config = AttackConfig(alpha=1.0 if mode == "ttcd" else mode, k_max=3)
        log = InputLog(loop_weighted)
        reference = (*_oracles.reference_attack(c, log, config.alpha, config.k_max, target),
                     log.inputs)
        for _ in range(2):  # the second attack reads the rows the first memoized
            assert_matches_reference(c, loop_weighted, config, target, reference)

    check()


def test_alpha_attacks_send_every_candidate(troj_mini_module, mini_model, scale300):
    # An alpha-TCD attack, scratch (troj_mini) or delta-scored (scale300),
    # sends every candidate's rows, repeated ones included.
    repeats = []
    for circuit, oracle in ((troj_mini_module, mini_model.as_oracle()),
                            (scale300, loop_weighted)):
        log = InputLog(oracle)
        res = run_attack(circuit, log, AttackConfig(alpha=1.0, k_max=5))
        assert len(log.inputs) == res.oracle_calls
        repeats.append(len(log.inputs) - len(distinct(log.inputs)))
    assert repeats[0] > 0
