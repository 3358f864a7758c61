"""Leave-one-out evaluation harness: metrics, determinism, report artifacts."""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import subprocess

import numpy as np
import pytest

from _oracles import InputLog
from conftest import count_calls
from htlab import advtrain, attack, evaluation
from htlab import (
    AdvTrainConfig,
    LoocvOptions,
    Metrics,
    MLPDetector,
    compute_metrics,
    emit_reports,
    run_loocv,
    synth_corpus,
)


# -- metrics ------------------------------------------------------------------


def test_compute_metrics_counts():
    labels = np.array([1, 1, 0, 0, 1, 0])
    probs = np.array([0.9, 0.2, 0.1, 0.7, 0.5, 0.4])
    m = compute_metrics(labels, probs)
    assert (m.tp, m.fn, m.tn, m.fp) == (2, 1, 2, 1)
    assert np.isclose(m.tpr, 2 / 3)
    assert np.isclose(m.tnr, 2 / 3)
    assert m.to_dict()["tp"] == 2


def test_metrics_rates_none_on_empty_class():
    no_pos = compute_metrics(np.zeros(4), np.full(4, 0.1))
    assert no_pos.tpr is None and no_pos.tnr == 1.0
    no_neg = compute_metrics(np.ones(4), np.full(4, 0.9))
    assert no_neg.tnr is None and no_neg.tpr == 1.0


def test_threshold_is_inclusive():
    m = compute_metrics(np.array([1]), np.array([0.5]))
    assert m.tp == 1


# -- harness validation -----------------------------------------------------------


def test_run_loocv_needs_two_circuits():
    corpus = synth_corpus(2, seed=5)
    with pytest.raises(ValueError):
        run_loocv(corpus[:1])


def test_run_loocv_rejects_unknown_model():
    corpus = synth_corpus(2, seed=5)
    with pytest.raises(ValueError):
        run_loocv(corpus, LoocvOptions(models=("bogus",), epochs=1))


@pytest.mark.parametrize("bad", [
    dict(epochs=-1), dict(batch_size=0), dict(k_values=(1, -1)), dict(alphas=(1.0, 0.0)),
    dict(alphas=(-2.0,)), dict(alphas=(math.nan,)),
    dict(models=()), dict(models=("normal", "normal")), dict(alphas=(1.0, 1)),
    dict(adv=AdvTrainConfig(seed=12345)),
])
def test_loocv_options_validation(bad):
    with pytest.raises(ValueError):
        LoocvOptions(**bad)
    LoocvOptions(epochs=0, k_values=(0,), alphas=(0.5, math.inf))


@pytest.mark.parametrize("threads", [0, -1])
def test_loocv_options_reject_fewer_than_one_thread(threads):
    with pytest.raises(ValueError, match="threads"):
        LoocvOptions(threads=threads)


def test_run_loocv_rejects_unlabeled_circuit():
    corpus = synth_corpus(2, seed=5)
    from htlab import synth_circuit

    clean = synth_circuit(9, seed=5, with_trojan=False)
    with pytest.raises(ValueError):
        run_loocv([*corpus, clean])


# -- small end-to-end runs ----------------------------------------------------------


QUICK = LoocvOptions(
    models=("normal",),
    alphas=(1.0,),
    k_values=(0, 1),
    epochs=2,
    batch_size=16,
    oversample=True,
    seed=0,
)


@pytest.fixture(scope="module")
def small_corpus():
    return synth_corpus(4, seed=31)


@pytest.fixture(scope="module")
def quick_report(small_corpus):
    return run_loocv(small_corpus, QUICK)


def test_fold_structure(quick_report, small_corpus):
    assert len(quick_report.folds) == len(small_corpus)
    names = [f.benchmark for f in quick_report.folds]
    assert names == [c.name for c in small_corpus]
    for fold in quick_report.folds:
        assert fold.model == "normal"
        assert set(fold.attacked) == {(1.0, 0), (1.0, 1)}
        assert fold.attack_summaries  # one greedy trace per alpha


def test_k_zero_equals_original(quick_report):
    for fold in quick_report.folds:
        at0 = fold.attacked[(1.0, 0)]
        assert at0.tp == fold.original.tp
        assert at0.fn == fold.original.fn
        # normal nets are not re-scored differently at k=0 either
        assert at0.tn == fold.original.tn and at0.fp == fold.original.fp


def test_loocv_is_deterministic(small_corpus, quick_report):
    again = run_loocv(small_corpus, QUICK)
    assert again.to_dict() == quick_report.to_dict()


def test_threads_do_not_change_results(small_corpus, quick_report):
    threaded = run_loocv(small_corpus, dataclasses.replace(QUICK, threads=2))
    a, b = threaded.to_dict(), quick_report.to_dict()
    a["options"].pop("threads"), b["options"].pop("threads")
    assert a == b


def test_average_macro_skips_absent(quick_report):
    avg = quick_report.average("normal")
    assert 0.0 <= avg["original_tnr"] <= 1.0
    assert "alpha=1,k=1" in avg["attacked_tpr"]
    dist = quick_report.tpr_distribution("normal", (1.0, 1))
    assert dist is not None and dist["min"] <= dist["median"] <= dist["max"]


def test_both_model_variants_run(small_corpus):
    opts = LoocvOptions(
        models=("normal", "r-htd"),
        alphas=(1.0,),
        k_values=(1,),
        epochs=1,
        adv=AdvTrainConfig(epochs=1, init_epochs=1, attack_budget=1),
        seed=0,
    )
    rep = run_loocv(small_corpus[:2], opts)
    assert {f.model for f in rep.folds} == {"normal", "r-htd"}
    assert len(rep.folds) == 4  # 2 folds x 2 variants
    # the adversarially trained variant is a genuinely different model
    pairs = {(f.benchmark, f.model): f for f in rep.folds}
    for name in (small_corpus[0].name, small_corpus[1].name):
        normal = pairs[(name, "normal")]
        robust = pairs[(name, "r-htd")]
        # the adaptive attacker runs against each variant's own oracle,
        # so the greedy traces cannot coincide between distinct models
        assert normal.attack_summaries != robust.attack_summaries



# Confusion counts (tp, fn, tn, fp) per fold, original then attacked at
# alpha=1, k=1, as produced when every fold featurized its own circuits.
REUSE_COUNTS = {
    ("synth00", "normal"): ((5, 0, 223, 20), (4, 5, 223, 20)),
    ("synth00", "r-htd"): ((5, 0, 186, 57), (5, 4, 186, 57)),
    ("synth01", "normal"): ((0, 4, 219, 0), (0, 9, 219, 0)),
    ("synth01", "r-htd"): ((1, 3, 191, 28), (1, 8, 191, 28)),
    ("synth02", "normal"): ((0, 5, 261, 0), (0, 7, 261, 0)),
    ("synth02", "r-htd"): ((5, 0, 95, 166), (7, 0, 108, 153)),
}


@pytest.mark.parametrize("threads", [1, 2])
def test_loocv_featurizes_each_circuit_once(small_corpus, monkeypatch, threads):
    corpus = small_corpus[:3]
    # Every extract_all the run makes, by the module that calls it: evaluation
    # featurizes attacked circuits, advtrain (inside samples_from_circuits)
    # the unattacked ones.
    extracted: dict[str, list[str]] = {"evaluation": [], "advtrain": []}
    sampled: list[list[str]] = []
    real_samples = evaluation.samples_from_circuits

    def counting_extract(module):
        real = module.extract_all

        def extract_all(circuit):
            extracted[module.__name__.rsplit(".", 1)[1]].append(circuit.name)
            return real(circuit)
        return extract_all

    def counting_samples(circuits):
        sampled.append([c.name for c in circuits])
        return real_samples(circuits)

    for module in (evaluation, advtrain):
        monkeypatch.setattr(module, "extract_all", counting_extract(module))
    monkeypatch.setattr(evaluation, "samples_from_circuits", counting_samples)
    opts = LoocvOptions(
        models=("normal", "r-htd"),
        alphas=(1.0,),
        k_values=(1,),
        epochs=1,
        adv=AdvTrainConfig(epochs=1, init_epochs=1, attack_budget=1),
        seed=0,
        threads=threads,
    )
    report = run_loocv(corpus, opts).to_dict()
    names = [c.name for c in corpus]
    # Each circuit once, for both variants; then one attacked circuit per
    # distinct non-empty accepted path of each fold and variant.
    assert sorted(extracted["advtrain"]) == sorted(names)
    assert sorted(sampled) == [[n] for n in names]
    paths = [{tuple((s["gate_id"], s["pattern"]) for s in a["accepted_steps"])
              for a in f["attacks"]} - {()} for f in report["folds"]]
    assert len(extracted["evaluation"]) == sum(map(len, paths))
    counts = {
        (f["benchmark"], f["model"]): tuple(
            tuple(m[k] for k in ("tp", "fn", "tn", "fp"))
            for m in (f["original"], f["attacked"]["alpha=1,k=1"])
        )
        for f in report["folds"]
    }
    assert counts == REUSE_COUNTS


def test_attacks_sharing_a_path_share_its_metrics(small_corpus, monkeypatch):
    # Two alphas and two budgets over one held-out circuit; k=0 reuses the
    # original metrics, and each distinct accepted path is featurized once.
    extracted = count_calls(monkeypatch, evaluation, "extract_all")
    opts = dataclasses.replace(QUICK, alphas=(1.0, 2.0), k_values=(0, 1, 2))
    report = run_loocv(small_corpus[:2], opts)
    for fold in report.folds:
        assert fold.attacked[(1.0, 0)] is fold.original is fold.attacked[(2.0, 0)]
    paths = {(f.benchmark, tuple((s["gate_id"], s["pattern"]) for s in a["accepted_steps"][:k]))
             for f in report.folds for a in f.attack_summaries for k in (1, 2)}
    attacked = [p for p in paths if p[1]]
    assert len(extracted) == len(attacked) < len(report.folds) * 2 * 2


@pytest.mark.parametrize("threads", [1, 2])
def test_robust_loocv_with_memo_matches_a_memo_that_never_hits(request, monkeypatch, threads):
    oracle_inputs: list[tuple] = []
    real = MLPDetector.as_oracle

    def as_oracle(self):
        log = InputLog(real(self))
        log.inputs = oracle_inputs
        return log

    monkeypatch.setattr(MLPDetector, "as_oracle", as_oracle)
    extracted = count_calls(monkeypatch, attack, "extract_for_nets")
    opts = LoocvOptions(
        models=("r-htd",), alphas=(1.0,), k_values=(2,), threads=threads,
        adv=AdvTrainConfig(epochs=1, init_epochs=1, attack_budget=2),
    )
    runs = []
    for _ in range(2):
        # Fresh graphs, so the first run starts with empty memos.
        report = run_loocv(synth_corpus(2, seed=31), opts).to_dict()
        inputs = oracle_inputs if threads == 1 else sorted(oracle_inputs)
        runs.append((report, list(inputs), len(extracted)))
        oracle_inputs.clear(), extracted.clear()
        request.getfixturevalue("no_row_memo")
    (memo, memo_inputs, memo_calls), (slow, slow_inputs, slow_calls) = runs
    assert memo == slow
    assert memo_inputs == slow_inputs
    assert memo_calls < slow_calls


# -- artifacts -----------------------------------------------------------------------


def test_emit_reports_files(tmp_path, quick_report):
    paths = emit_reports(quick_report, str(tmp_path))
    assert sorted(paths) == ["json", "plot_data", "summary"]

    with open(paths["summary"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {"benchmark", "model"} <= set(rows[0])
    assert any(r["benchmark"] == "average" for r in rows)

    with open(paths["plot_data"], newline="") as fh:
        plot_rows = list(csv.DictReader(fh))
    assert {"model", "alpha", "k", "median", "mean"} <= set(plot_rows[0])

    with open(paths["json"]) as fh:
        blob = json.load(fh)
    assert set(blob) >= {"options", "folds", "averages"}
    assert blob["averages"]["normal"]["original_tpr"] is not None
    echoed = blob["options"]
    assert echoed["alphas"] == [1.0] and echoed["k_values"] == [0, 1]


def test_emit_reports_round_trip_determinism(tmp_path, quick_report):
    a = emit_reports(quick_report, str(tmp_path / "a"))
    b = emit_reports(quick_report, str(tmp_path / "b"))
    for key in a:
        with open(a[key]) as f1, open(b[key]) as f2:
            assert f1.read() == f2.read()


def test_report_names_the_package_checkout_from_any_directory(
    tmp_path, monkeypatch, quick_report
):
    # git runs in the package's directory: a run started elsewhere still names
    # the checkout htlab comes from, and a package outside one gives null.
    package_dir = os.path.dirname(os.path.abspath(evaluation.__file__))
    try:
        expect = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=package_dir,
                                capture_output=True, text=True).stdout.strip() or None
    except OSError:
        expect = None
    monkeypatch.chdir(tmp_path)
    paths = emit_reports(quick_report, str(tmp_path / "out"))
    with open(paths["json"]) as fh:
        assert json.load(fh)["git_describe"] == expect


def test_metrics_frozen():
    m = Metrics(1, 2, 3, 4)
    with pytest.raises(Exception):
        m.tp = 9


def test_alpha_inf_grid_key_serializes(small_corpus):
    opts = LoocvOptions(models=("normal",), alphas=(math.inf,), k_values=(1,), epochs=1, seed=1)
    rep = run_loocv(small_corpus[:2], opts)
    blob = rep.to_dict()
    key = next(iter(blob["averages"]["normal"]["attacked_tpr"]))
    assert key == "alpha=inf,k=1"
    json.dumps(blob)  # must be JSON-serializable end to end
