"""End-to-end CLI tests, run in-process through dispatch()."""
from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import json
import math
import os
import sys

import pytest

import htlab
import htlab.cli
from conftest import FIXTURE_DIR, assert_feature_csv
from htlab import AdvTrainConfig, AttackConfig, LoocvOptions, LoocvReport
from htlab.cli import GlobalConfig, build_parser, dispatch

TROJ = str(FIXTURE_DIR / "troj_mini.v")
COMB = str(FIXTURE_DIR / "comb_tree.v")


def read_manifest(out_dir) -> dict:
    with open(out_dir / "run_manifest.json") as fh:
        return json.load(fh)


# -- parse ----------------------------------------------------------------------


def test_parse_prints_stats(tmp_path, capsys):
    assert dispatch(["parse", TROJ, "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "troj_mini" in out and "gates=5" in out and "trojan_nets=3" in out
    manifest = read_manifest(tmp_path)
    assert manifest["command"] == "parse"
    assert manifest["package_version"] == htlab.__version__
    assert manifest["inputs"] == [TROJ]


def test_parse_emit_and_graph(tmp_path):
    emit = tmp_path / "round.v"
    graph = tmp_path / "graph.json"
    rc = dispatch([
        "parse", TROJ, "--emit", str(emit), "--dump-graph", str(graph),
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    reparsed = htlab.parse_verilog(emit.read_text(), name="troj_mini")
    assert reparsed.stats()["gates"] == 5
    blob = json.loads(graph.read_text())
    assert sum(n["trojan"] for n in blob["nets"]) == 3  # sidecar autodiscovered
    assert sorted(read_manifest(tmp_path)["outputs"]) == sorted([str(emit), str(graph)])


def test_parse_label_regex_overrides_sidecar(tmp_path):
    graph = tmp_path / "g.json"
    rc = dispatch([
        "parse", TROJ, "--dump-graph", str(graph), "--label-regex", "^u2$",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    blob = json.loads(graph.read_text())
    assert sum(g["trojan"] for g in blob["gates"]) == 1


def test_parse_error_is_diagnosed(tmp_path, capsys):
    bad = tmp_path / "bad.v"
    bad.write_text("module m (a, y);\n  input a;\n  output y;\n  FROB u (y, a);\nendmodule\n")
    rc = dispatch(["parse", str(bad), "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 4" in err


def test_missing_file_is_error(tmp_path, capsys):
    rc = dispatch(["parse", str(tmp_path / "nope.v"), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        dispatch(["rewrite", TROJ])  # missing required --pattern/--instance
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["--version"])
    assert exc.value.code == 0
    assert htlab.__version__ in capsys.readouterr().out


def test_bench_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HTLAB_BENCH_DIR", str(FIXTURE_DIR))
    assert dispatch(["parse", "troj_mini.v", "--out-dir", str(tmp_path)]) == 0
    assert read_manifest(tmp_path)["global"]["bench_dir"] == str(FIXTURE_DIR)


# -- featurize --------------------------------------------------------------------


def test_featurize_writes_csv(tmp_path, troj_mini):
    out = tmp_path / "f.csv"
    rc = dispatch(["featurize", TROJ, "--out", str(out), "--out-dir", str(tmp_path)])
    assert rc == 0
    fm = htlab.extract_all(troj_mini)
    assert fm.matrix.shape == (9, 51)
    assert int(fm.labels.sum()) == 3
    assert_feature_csv(out, fm)


# -- train / attack / rewrite / advtrain --------------------------------------------


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("model")
    model = out_dir / "model.json"
    rc = dispatch([
        "train", TROJ, "--epochs", "30", "--batch-size", "4",
        "--out", str(model), "--out-dir", str(out_dir), "--seed", "0",
    ])
    assert rc == 0
    return model


def test_train_manifest_settings(tmp_path, capsys):
    model = tmp_path / "m.json"
    rc = dispatch([
        "train", TROJ, "--epochs", "2", "--batch-size", "4",
        "--out", str(model), "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    assert "trained on 9 nets (3 Trojan)" in capsys.readouterr().out
    m = read_manifest(tmp_path)
    assert m["settings"]["epochs"] == 2
    assert m["settings"]["class_weight"] == 1.0
    htlab.load_model(str(model))
    assert json.loads(model.read_text())["layer_sizes"] == [51, 200, 100, 50, 1]


def test_train_zero_epochs_writes_untrained_model(tmp_path, capsys):
    model = tmp_path / "m.json"
    rc = dispatch(["train", TROJ, "--epochs", "0", "--out", str(model),
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "from 1 netlists; model ->" in out and "final loss" not in out
    meta = json.loads(model.read_text())["meta"]
    assert meta["epochs"] == 0 and meta["epoch_losses"] == []


def test_config_file_and_profile_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 3}))
    # profile alone: trit-tc presets epochs=15 and the ratio class weight
    dispatch(["train", TROJ, "--profile", "trit-tc", "--batch-size", "4",
              "--out", str(tmp_path / "a.json"), "--out-dir", str(tmp_path)])
    m = read_manifest(tmp_path)
    assert m["settings"]["epochs"] == 15
    assert m["settings"]["class_weight"] == pytest.approx(2.0)
    # config file beats profile
    dispatch(["train", TROJ, "--profile", "trit-tc", "--config", str(cfg),
              "--batch-size", "4", "--out", str(tmp_path / "b.json"),
              "--out-dir", str(tmp_path)])
    assert read_manifest(tmp_path)["settings"]["epochs"] == 3
    # flag beats both
    dispatch(["train", TROJ, "--profile", "trit-tc", "--config", str(cfg),
              "--epochs", "2", "--batch-size", "4",
              "--out", str(tmp_path / "c.json"), "--out-dir", str(tmp_path)])
    assert read_manifest(tmp_path)["settings"]["epochs"] == 2


@pytest.mark.skipif(sys.version_info >= (3, 11), reason="TOML loads natively on 3.11+")
def test_toml_config_rejected_before_311(tmp_path, capsys):
    cfg = tmp_path / "cfg.toml"
    cfg.write_text("epochs = 3\n")
    rc = dispatch(["parse", TROJ, "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "TOML config files need Python 3.11+" in capsys.readouterr().err


def test_attack_flow(tmp_path, trained_model, capsys):
    trace = tmp_path / "trace.json"
    sweep = tmp_path / "sweep.csv"
    emit = tmp_path / "attacked.v"
    rc = dispatch([
        "attack", TROJ, "--model", str(trained_model), "--alpha", "1",
        "--budget", "3", "--trace", str(trace), "--sweep-csv", str(sweep),
        "--emit", str(emit), "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    assert "accepted steps" in capsys.readouterr().out
    blob = json.loads(trace.read_text())
    assert blob["alpha"] == 1 and blob["k_max"] == 3
    assert blob["final_metric"] <= blob["initial_metric"]
    assert len(blob["metrics"]) == len(blob["accepted_steps"]) + 1
    with open(sweep, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["k"] for r in rows] == ["0", "1", "2", "3"]
    metrics = [float(r["metric"]) for r in rows]
    assert metrics == sorted(metrics, reverse=True)  # non-increasing over budget
    attacked = htlab.parse_verilog(emit.read_text(), name="attacked")
    assert attacked.stats()["gates"] >= 5


def test_relative_paths_resolve_against_bench_and_model_dirs(
    tmp_path, trained_model, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    trace = tmp_path / "trace.json"
    rc = dispatch([
        "attack", "troj_mini.v", "--bench-dir", str(FIXTURE_DIR),
        "--model", trained_model.name, "--model-dir", str(trained_model.parent),
        "--budget", "1", "--trace", str(trace), "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    assert json.loads(trace.read_text())["k_max"] == 1


def test_labels_flag_is_not_resolved_against_bench_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = dispatch([
        "parse", "troj_mini.v", "--bench-dir", str(FIXTURE_DIR),
        "--labels", "troj_mini.labels", "--out-dir", str(tmp_path),
    ])
    assert rc == 1
    assert "troj_mini.labels" in capsys.readouterr().err


def test_attack_sweep_alphas(tmp_path, trained_model, monkeypatch):
    # One greedy run per alpha: the sweep reuses the --alpha run's result.
    alphas = []
    for module in (htlab.attack, htlab.cli):
        def counted(circuit, oracle, config, *a, _run=module.run_attack, **kw):
            alphas.append(config.alpha)
            return _run(circuit, oracle, config, *a, **kw)
        monkeypatch.setattr(module, "run_attack", counted)
    sweep = tmp_path / "sweep.csv"
    rc = dispatch([
        "attack", TROJ, "--model", str(trained_model), "--alpha", "1",
        "--sweep-alphas", "2", "inf", "1", "--budget", "2",
        "--sweep-csv", str(sweep), "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    assert sorted(alphas) == [1, 2, math.inf]
    with open(sweep, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["alpha"] for r in rows} == {"1", "2", "inf"}
    assert len(rows) == 3 * 3  # three alphas x budgets 0..2


def test_attack_ttcd_mode(tmp_path, trained_model):
    trace = tmp_path / "trace.json"
    rc = dispatch([
        "attack", TROJ, "--model", str(trained_model), "--ttcd", "py",
        "--budget", "2", "--trace", str(trace), "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    blob = json.loads(trace.read_text())
    assert blob["target_net_id"] is not None


def test_attack_unknown_ttcd_net(tmp_path, trained_model, capsys):
    rc = dispatch([
        "attack", TROJ, "--model", str(trained_model), "--ttcd", "ghost",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 1
    assert "unknown net name 'ghost'" in capsys.readouterr().err


def test_rewrite_with_check(tmp_path, capsys):
    emit = tmp_path / "rew.v"
    diff = tmp_path / "diff.json"
    rc = dispatch([
        "rewrite", TROJ, "--pattern", "m1", "--instance", "troj_and",
        "--check", "--emit", str(emit), "--diff", str(diff),
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    assert "equivalent=True" in capsys.readouterr().out
    blob = json.loads(diff.read_text())
    assert blob["equivalent"] is True and blob["check_mode"] == "exhaustive"
    assert blob["check_vectors"] == 2 ** 4 and blob["counterexample"] is None
    assert blob["new_gates"]
    htlab.parse_verilog(emit.read_text())


def test_rewrite_check_records_sequential_vectors(tmp_path):
    diff = tmp_path / "diff.json"
    rc = dispatch([
        "rewrite", str(FIXTURE_DIR / "dff_pipe.v"), "--pattern", "m15", "--instance", "r2",
        "--check", "--diff", str(diff), "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    blob = json.loads(diff.read_text())
    assert blob["check_mode"] == "sequential" and blob["check_vectors"] == 100 * 64
    assert blob["equivalent"] is True and blob["counterexample"] is None


def test_rewrite_failed_check_writes_nothing(tmp_path, capsys):
    # The relaxed m16 latch closes a combinational loop, so the check raises
    # before any output file is opened.
    rc = dispatch([
        "rewrite", str(FIXTURE_DIR / "dff_pipe.v"), "--pattern", "m16", "--instance", "r2",
        "--allow-relaxed", "--check", "--out-dir", str(tmp_path),
    ])
    assert rc == 1
    assert "combinational cycle" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.v"))
    assert not list(tmp_path.glob("*_diff.json"))


def test_rewrite_unknown_instance(tmp_path, capsys):
    rc = dispatch([
        "rewrite", TROJ, "--pattern", "m1", "--instance", "ghost",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 1
    assert "unknown instance 'ghost'" in capsys.readouterr().err


def test_rewrite_inapplicable_pattern(tmp_path, capsys):
    rc = dispatch([
        "rewrite", TROJ, "--pattern", "m3", "--instance", "troj_and",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 1
    assert "does not apply" in capsys.readouterr().err


def test_advtrain_flow(tmp_path, capsys):
    model = tmp_path / "robust.json"
    rc = dispatch([
        "advtrain", TROJ, "--epochs", "1", "--init-epochs", "1",
        "--batch-size", "4", "--attack-budget", "1", "--out", str(model),
        "--out-dir", str(tmp_path), "--seed", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "adversarial examples" in out
    assert model.exists()
    m = read_manifest(tmp_path)
    assert m["settings"]["attack_budget"] == 1
    assert m["settings"]["batch_size"] == 4
    meta = json.loads(model.read_text())["meta"]
    assert meta["epochs"] == 2 and meta["batch_size"] == 4 and len(meta["epoch_losses"]) == 2


# -- evaluate ------------------------------------------------------------------------


def test_evaluate_synthetic_plan(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "corpus": {"synthetic": {"count": 3, "seed": 7}},
        "models": ["normal"],
        "alphas": [1],
        "k_values": [1],
        "epochs": 2,
        "seed": 0,
    }))
    out_dir = tmp_path / "rep"
    rc = dispatch(["evaluate", "--plan", str(plan), "--out", str(out_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "normal: TPR" in out and "attacked[alpha=1,k=1]" in out
    for name in ("summary.csv", "plot_data.csv", "report.json", "run_manifest.json"):
        assert (out_dir / name).exists()
    blob = json.loads((out_dir / "report.json").read_text())
    assert len(blob["folds"]) == 3


def test_evaluate_benchmark_plan(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "corpus": {"benchmarks": [
            {"path": TROJ},
            {"path": TROJ, "label_regex": "^troj_", "name": "troj_again"},
        ]},
        "models": ["normal"],
        "alphas": [1],
        "k_values": [1],
        "epochs": 2,
        "batch_size": 4,
    }))
    out_dir = tmp_path / "rep"
    rc = dispatch(["evaluate", "--plan", str(plan), "--out", str(out_dir)])
    assert rc == 0
    blob = json.loads((out_dir / "report.json").read_text())
    assert [f["benchmark"] for f in blob["folds"]] == ["troj_mini", "troj_again"]


@pytest.mark.parametrize("command", [
    "parse", "featurize", "train", "rewrite", "attack", "advtrain", "evaluate",
])
def test_every_subcommand_writes_its_manifest(tmp_path, trained_model, command):
    out = tmp_path / "out"
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"corpus": {"synthetic": {"count": 2}}, "models": ["normal"],
                                "alphas": [1], "k_values": [1], "epochs": 1}))

    def o(name):
        return str(out / name)

    adv = {f.name for f in dataclasses.fields(AdvTrainConfig)}
    argv, inputs, outputs, settings = {
        "parse": (["parse", TROJ, "--emit", str(tmp_path / "r.v"),
                   "--dump-graph", str(tmp_path / "g.json")],
                  [TROJ], [str(tmp_path / "r.v"), str(tmp_path / "g.json")], {"netlist"}),
        "featurize": (["featurize", TROJ], [TROJ], [o("troj_mini_features.csv")],
                      {"netlist", "out"}),
        "train": (["train", TROJ, COMB, "--epochs", "1"], [TROJ, COMB], [o("model.json")],
                  {"netlists", "epochs", "batch_size", "oversample", "class_weight", "out"}),
        "rewrite": (["rewrite", TROJ, "--pattern", "m1", "--instance", "troj_and"], [TROJ],
                    [o("troj_mini_m1.v"), o("troj_mini_m1_diff.json")],
                    {"netlist", "pattern", "instance", "allow_relaxed", "check"}),
        "attack": (["attack", TROJ, "--model", str(trained_model), "--budget", "1"],
                   [TROJ, str(trained_model)],
                   [o("troj_mini_attacked.v"), o("troj_mini_attack_trace.json"),
                    o("troj_mini_attack_sweep.csv")],
                   {"netlist", "model", "alpha", "ttcd", "budget", "allow_relaxed"}),
        "advtrain": (["advtrain", TROJ, "--epochs", "1", "--init-epochs", "1",
                      "--batch-size", "4", "--attack-budget", "1"],
                     [TROJ], [o("model_robust.json")], {"netlists", "out", *adv}),
        "evaluate": (["evaluate", "--plan", str(plan)], [str(plan)],
                     [o("plot_data.csv"), o("report.json"), o("summary.csv")],
                     {"plan_file", "plan"}),
    }[command]
    assert dispatch([*argv, "--out-dir", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["command"] == command
    assert (manifest["inputs"], manifest["outputs"]) == (inputs, outputs)
    assert set(manifest["settings"]) == settings
    assert all(os.path.exists(path) for path in outputs)


def test_bad_model_json_is_one_line_error(tmp_path, trained_model, capsys):
    good = json.loads(trained_model.read_text())
    for edit, needle in [
        (lambda d: d.update(biases=d["biases"][:2]), "biases must be a list of 4 arrays"),
        (lambda d: d.pop("weights"), "weights must be a list of 4 arrays"),
        (lambda d: d.pop("biases"), "biases must be a list of 4 arrays"),
        (lambda d: d["norm"].update(col_min=[0.0], col_max=[1.0]),
         "norm col_min has shape (1,)"),
        (lambda d: d["norm"].update(col_min=d["norm"]["col_min"][:50]),
         "norm col_min has shape (50,)"),
        (lambda d: d["meta"].update(foo=1), "unknown meta key 'foo'"),
        (lambda d: d["config"].update(foo=1), "unknown config key 'foo'"),
        (lambda d: d.update(layer_sizes=[51, -3, 1]), "layer_sizes must be [51, 200, 100, 50, 1]"),
    ]:
        data = copy.deepcopy(good)
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc = dispatch(["attack", TROJ, "--model", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
        assert len(err.strip().splitlines()) == 1


def test_evaluate_bad_plan(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"corpus": {}}))
    rc = dispatch(["evaluate", "--plan", str(plan), "--out", str(tmp_path)])
    assert rc == 1
    assert "corpus" in capsys.readouterr().err


@pytest.mark.parametrize("adv,needle", [
    ({"epoch": 1}, "'epoch'"),
    (3, "'adv' must be an object"),
])
def test_evaluate_bad_adv(tmp_path, capsys, adv, needle):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"corpus": {"synthetic": {"count": 2}}, "adv": adv}))
    rc = dispatch(["evaluate", "--plan", str(plan), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err
    assert len(err.strip().splitlines()) == 1


# -- settings resolution -------------------------------------------------------------


SYNTH_PLAN = {"corpus": {"synthetic": {"count": 2}}}


@pytest.mark.parametrize("kind,data,needle", [
    ("plan", {**SYNTH_PLAN, "epoch": 1}, "'epoch'"),
    ("plan", {**SYNTH_PLAN, "k_values": 5}, "'k_values'"),
    ("plan", {**SYNTH_PLAN, "models": "normal"}, "'models'"),
    ("plan", {"corpus": {"synthetic": {}, "benchmarks": [{"path": TROJ}]}}, "'benchmarks'"),
    ("plan", {"corpus": {"benchmarks": [{"path": TROJ, "label-regex": "^troj_"}]}},
     "'label-regex'"),
    ("config", {"epoch": 3}, "'epoch'"),
    ("config", {"threads": 2}, "'threads'"),
    ("config", {"profile": "trit_tc"}, "'profile'"),
    ("config", {"log_level": "verbose"}, "'log_level'"),
    ("config", {"epochs": "3"}, "'epochs'"),
    ("plan", {**SYNTH_PLAN, "epochs": -1}, "epochs"),
    ("plan", {**SYNTH_PLAN, "batch_size": 0}, "batch_size"),
    ("plan", {**SYNTH_PLAN, "k_values": [1, -1]}, "k_values"),
    ("plan", {**SYNTH_PLAN, "alphas": [0]}, "alphas"),
    ("plan", {**SYNTH_PLAN, "adv": {"batch_size": 0}}, "batch_size"),
    ("config", {"batch_size": 0}, "batch_size"),
    ("advtrain", {"batch_size": 0}, "batch_size"),
    ("advtrain", {"attack_budget": -1}, "attack_budget"),
    ("plan", {**SYNTH_PLAN, "alphas": [float("nan")]}, "alphas"),
    ("parse", ["--label-regex", "("], "invalid label regex '('"),
    ("plan", {"corpus": {"benchmarks": [{"path": TROJ, "label_regex": "("}]}},
     "invalid label regex '('"),
    ("plan", {**SYNTH_PLAN, "models": []}, "models"),
    ("plan", {**SYNTH_PLAN, "models": ["normal", "normal"]}, "models"),
    ("plan", {**SYNTH_PLAN, "alphas": [1.0, 1]}, "alphas"),
    ("plan", {**SYNTH_PLAN, "adv": {"seed": 12345}}, "adv.seed"),
    ("plan", {**SYNTH_PLAN, "threads": 2}, "threads must be 1"),
    ("plan", {**SYNTH_PLAN, "k_values": [1, 1]}, "k_values"),
    ("config", {"class_weight": -1.0}, "class_weight"),
    ("plan", {**SYNTH_PLAN, "class_weight": 0}, "class_weight"),
    ("plan", {**SYNTH_PLAN, "adv": {"class_weight": -1.0}}, "class_weight"),
    ("parse", ["--label-regex", ""], "regex label mode requires a pattern"),
    ("plan", {"corpus": {"benchmarks": [{"path": TROJ, "label_regex": ""}]}},
     "regex label mode requires a pattern"),
    # Rejected before the model file is read.
    ("attack", ["--model", "missing.json", "--ttcd", "py", "--sweep-alphas", "2", "inf"],
     "--sweep-alphas does not apply to a --ttcd attack"),
])
def test_bad_setting_is_one_line_error(tmp_path, capsys, kind, data, needle):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    if kind in ("parse", "attack"):
        argv = [kind, TROJ, *data]
    elif kind == "plan":
        argv = ["evaluate", "--plan", str(path)]
    else:
        command = "advtrain" if kind == "advtrain" else "train"
        argv = [command, TROJ, "--config", str(path), "--out", str(tmp_path / "m.json")]
    rc = dispatch(argv + ["--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "m.json").exists()  # rejected before any work


def test_train_defaults_are_advtrain_config_defaults(tmp_path):
    rc = dispatch(["train", TROJ, "--out", str(tmp_path / "m.json"), "--out-dir", str(tmp_path)])
    assert rc == 0
    settings = read_manifest(tmp_path)["settings"]
    keys = ("epochs", "batch_size", "oversample", "class_weight")
    assert {k: settings[k] for k in keys} == {k: getattr(AdvTrainConfig(), k) for k in keys}


def test_corpus_only_plan_gets_default_loocv_options(tmp_path, monkeypatch):
    seen = []

    def fake_run_loocv(circuits, options):
        seen.append(options)
        return LoocvReport({}, [])

    monkeypatch.setattr("htlab.cli.run_loocv", fake_run_loocv)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(SYNTH_PLAN))
    rc = dispatch(["evaluate", "--plan", str(plan), "--seed", "7", "--out", str(tmp_path)])
    assert rc == 0
    assert seen == [LoocvOptions(seed=7)]


def test_settings_flags_default_to_none():
    # A non-None argparse default would shadow the config file and the profile.
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    global_fields = {f.name for f in dataclasses.fields(GlobalConfig)}
    adv_fields = {f.name for f in dataclasses.fields(AdvTrainConfig)}
    attack_fields = {f.name for f in dataclasses.fields(AttackConfig)}
    checked = set()
    for command, parser in subparsers.choices.items():
        settings = global_fields | (adv_fields if command in ("train", "advtrain") else set())
        settings |= attack_fields if command in ("attack", "rewrite") else set()
        for action in parser._actions:
            if action.dest in settings:
                assert action.default is None, (command, action.dest)
                checked.add((command, action.dest))
    assert ("evaluate", "profile") in checked and ("train", "class_weight") in checked
    assert ("advtrain", "allow_relaxed") in checked
    assert {("attack", "alpha"), ("attack", "allow_relaxed"),
            ("rewrite", "allow_relaxed")} <= checked


def test_config_file_allow_relaxed_reaches_attack_and_rewrite(
    tmp_path, trained_model, monkeypatch
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"allow_relaxed": True}))
    seen = []
    run_attack = htlab.cli.run_attack
    monkeypatch.setattr(htlab.cli, "run_attack", lambda circuit, oracle, config, **kw:
                        seen.append(config) or run_attack(circuit, oracle, config, **kw))
    for flags, expect in (([], True), (["--no-allow-relaxed"], False)):
        rc = dispatch(["attack", TROJ, "--model", str(trained_model), "--budget", "1",
                       "--config", str(cfg), "--out-dir", str(tmp_path), *flags])
        assert rc == 0
        assert seen[-1].allow_relaxed is expect
        assert read_manifest(tmp_path)["settings"]["allow_relaxed"] is expect
    # The relaxed m16 latch applies only where relaxed patterns are allowed.
    rewrite = ["rewrite", str(FIXTURE_DIR / "dff_pipe.v"), "--pattern", "m16",
               "--instance", "r2", "--out-dir", str(tmp_path)]
    assert dispatch(rewrite) == 1
    assert dispatch([*rewrite, "--config", str(cfg)]) == 0
    assert read_manifest(tmp_path)["settings"]["allow_relaxed"] is True
    assert dispatch([*rewrite, "--config", str(cfg), "--no-allow-relaxed"]) == 1
