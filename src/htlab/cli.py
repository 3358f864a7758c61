"""Command-line front end: parse, featurize, train, rewrite, attack, advtrain,
evaluate.

Each setting resolves field by field: flag > config file (``--config``, JSON
always, TOML on Python 3.11+) > profile preset (``--profile trust-hub|trit-tc``)
> the dataclass field's own default.  A config file holds ``GlobalConfig`` and
``AdvTrainConfig`` fields; ``train`` reads ``AdvTrainConfig``'s ``epochs``,
``batch_size``, ``oversample`` and ``class_weight``, and ``attack`` and
``rewrite`` read its ``allow_relaxed``.  An ``evaluate`` plan holds
``corpus``, ``adv`` (an object of ``AdvTrainConfig`` fields) and the
``LoocvOptions`` fields.  An unknown key, a ``profile`` or ``log_level`` outside
the flag's choices, or a value of the wrong type is an error; an int passes
where a float belongs, and ``"inf"`` as infinity.  Each subcommand returns
its resolved settings, input paths and output paths, and :func:`dispatch`
writes them to ``run_manifest.json`` in the output directory, so any result
can be replayed from its manifest; every output's directory is made first.
``evaluate --out`` is ``--out-dir``: the report directory, which holds the
manifest too; the later of the two wins.

Netlist arguments and plan entries are loaded alike.  A netlist path that
does not resolve as given is also tried relative to the benchmark directory
(``--bench-dir`` or ``$HTLAB_BENCH_DIR``).  Trojan labels come from a label
regex, else a labels file, else a ``<stem>.labels`` file next to the netlist
if one exists.  A plan's ``labels`` path resolves against the benchmark
directory too; the ``--labels`` flag does not.

Exit codes: 0 success, 1 operational failure (bad input file, malformed plan,
missing net, ...), 2 usage errors (argparse).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields, is_dataclass
from typing import Sequence

import numpy as np

from . import __version__
from .advtrain import PROFILES, AdvTrainConfig, samples_from_circuits, train_robust
from .attack import AttackConfig, attack_sweep, run_attack
from .evaluation import LoocvOptions, emit_reports, run_loocv
from .features import extract_all, write_feature_csv
from .model import MLPConfig, MLPDetector, _known, load_model, save_model
from .netlist import (
    CircuitGraph,
    LabelSpec,
    NetlistError,
    emit_verilog,
    parse_verilog_file,
)
from .rewrite import PATTERN_IDS, apply_pattern, check_equivalence
from .synth import synth_corpus

__all__ = ["main", "dispatch", "GlobalConfig"]

log = logging.getLogger(__name__)

BENCH_DIR_ENV = "HTLAB_BENCH_DIR"
_PROFILE_NAMES = ("trust-hub", "trit-tc", "custom")
_LOG_LEVELS = ("debug", "info", "warning", "error")


@dataclass
class GlobalConfig:
    """Run-wide settings shared by every subcommand."""

    seed: int = 0
    log_level: str = "warning"
    bench_dir: str = ""
    model_dir: str = ""
    out_dir: str = "."
    profile: str = "custom"

    def __post_init__(self) -> None:
        for key, choices in (("log_level", _LOG_LEVELS), ("profile", _PROFILE_NAMES)):
            if getattr(self, key) not in choices:
                raise ValueError(f"{key!r} must be one of {', '.join(choices)}, "
                                 f"not {getattr(self, key)!r}")


# ---------------------------------------------------------------------------
# Settings: flags > config file or plan > profile preset > field default
# ---------------------------------------------------------------------------


def _load_config_file(path: str) -> dict:
    if path.endswith(".toml"):
        try:
            import tomllib
        except ModuleNotFoundError as exc:  # Python < 3.11
            raise ValueError(
                "TOML config files need Python 3.11+; use JSON instead"
            ) from exc
        with open(path, "rb") as fh:
            return tomllib.load(fh)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _fields(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def _settings(cls, where: str, *layers: dict):
    """A ``cls`` whose every field comes from the first layer that sets it.

    Layers run from flags through the config file or plan (``where``, for
    errors) to the profile preset.  ``None`` means unset, and a field that no
    layer sets keeps its own default.
    """
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        value = next((layer[f.name] for layer in layers if layer.get(f.name) is not None), None)
        if value is not None:
            values[f.name] = _typed(hints[f.name], value, where, f.name)
    return cls(**values)


def _typed(tp, value, where: str, key: str):
    """``value`` checked as a ``tp`` field; an int passes as a float, ``"inf"``
    as infinity, a list as a tuple and an object as a settings dataclass."""
    item = typing.get_args(tp)[0] if typing.get_origin(tp) is tuple else None
    if item is not None and isinstance(value, list):
        return tuple(_typed(item, v, where, key) for v in value)
    if is_dataclass(tp):
        inner = f"{where} {key!r}"
        return _settings(tp, inner, _known(value, _fields(tp), inner))
    if tp is float and (type(value) is int
                        or isinstance(value, str) and value.lower() in ("inf", "infinity")):
        return float(value)
    if type(value) is tp:
        return value
    name = f"a list of {item.__name__}" if item else tp.__name__
    raise ValueError(f"{where} key {key!r} must be {name}, not {value!r}")


def _adv_config(
    args: argparse.Namespace, file_cfg: dict, gcfg: GlobalConfig, labels: np.ndarray
) -> AdvTrainConfig:
    """The ``train``/``advtrain`` settings, seeded by the global seed."""
    preset = dict(PROFILES.get(gcfg.profile, {}))
    if gcfg.profile == "trit-tc":
        # The TRIT-TC recipe weights the positive class by the class ratio.
        n_pos = int(labels.sum())
        preset["class_weight"] = (labels.size - n_pos) / n_pos if n_pos else 1.0
    return _settings(AdvTrainConfig, "config file", {"seed": gcfg.seed}, vars(args),
                     file_cfg, preset)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _resolve_path(path: str, base_dir: str) -> str:
    """``path`` as given if it exists, else under ``base_dir`` if it exists there."""
    if os.path.exists(path) or not base_dir:
        return path
    candidate = os.path.join(base_dir, path)
    return candidate if os.path.exists(candidate) else path


def _load_circuit(path: str, label_regex: str | None, labels: str | None,
                  gcfg: GlobalConfig, name: str | None = None) -> CircuitGraph:
    """The netlist at ``path``, labelled by ``label_regex``, else the ``labels``
    file, else the ``<stem>.labels`` file next to the netlist, else unlabelled."""
    path = _resolve_path(path, gcfg.bench_dir)
    sidecar = os.path.splitext(path)[0] + ".labels"
    if label_regex is not None:
        spec = LabelSpec.name_regex(label_regex)
    elif labels is not None:
        spec = LabelSpec.from_sidecar_file(labels)
    elif os.path.exists(sidecar):
        log.info("using label sidecar %s", sidecar)
        spec = LabelSpec.from_sidecar_file(sidecar)
    else:
        spec = LabelSpec.none()
    return parse_verilog_file(path, spec, name=name)


def _write(path: str, content) -> str:
    """Makes ``path``'s directory, then writes a ``str`` as text, calls a callable
    with ``path``, or writes anything else as indented, key-sorted JSON."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if callable(content):
        content(path)
        return path
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(content, str):
            fh.write(content)
        else:
            json.dump(content, fh, indent=2, sort_keys=True)
    return path


def _out(gcfg: GlobalConfig, name: str) -> str:
    return os.path.join(gcfg.out_dir or ".", name)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


# Each subcommand returns its manifest's (settings, inputs, outputs).
_Manifest = tuple[dict, list, list]


def _cmd_parse(args: argparse.Namespace, gcfg: GlobalConfig, file_cfg: dict) -> _Manifest:
    circuit = _load_circuit(args.netlist, args.label_regex, args.labels, gcfg)
    outputs = []
    if args.emit:
        outputs.append(_write(args.emit, emit_verilog(circuit)))
    if args.dump_graph:
        outputs.append(_write(args.dump_graph, circuit.to_json_dict()))
    stats = circuit.stats()
    print(f"{circuit.name}: " + ", ".join(f"{k}={v}" for k, v in sorted(stats.items())))
    return {"netlist": args.netlist}, [args.netlist], outputs


def _cmd_featurize(args: argparse.Namespace, gcfg: GlobalConfig, file_cfg: dict) -> _Manifest:
    circuit = _load_circuit(args.netlist, args.label_regex, args.labels, gcfg)
    fm = extract_all(circuit)
    out_csv = _write(args.out or _out(gcfg, f"{circuit.name}_features.csv"),
                     lambda path: write_feature_csv(path, fm))
    print(f"{circuit.name}: wrote {fm.matrix.shape[0]} rows x "
          f"{fm.matrix.shape[1]} features to {out_csv}")
    return {"netlist": args.netlist, "out": out_csv}, [args.netlist], [out_csv]


def _cmd_train(args: argparse.Namespace, gcfg: GlobalConfig, file_cfg: dict) -> _Manifest:
    circuits = [_load_circuit(p, args.label_regex, args.labels, gcfg) for p in args.netlists]
    mats = [extract_all(c) for c in circuits]
    x = np.vstack([fm.matrix for fm in mats])
    y = np.concatenate([fm.labels for fm in mats])
    adv = _adv_config(args, file_cfg, gcfg, y)
    settings = {k: getattr(adv, k) for k in ("epochs", "batch_size", "oversample", "class_weight")}
    model = MLPDetector(MLPConfig(init_seed=gcfg.seed))
    report = model.fit(x, y, shuffle_seed=gcfg.seed + 1, **settings)
    out_model = _write(args.out or _out(gcfg, "model.json"), lambda path: save_model(model, path))
    final = f"; final loss {report.epoch_losses[-1]:.6f}" if report.epoch_losses else ""
    print(f"trained on {y.size} nets ({int(y.sum())} Trojan) from "
          f"{len(circuits)} netlists{final}; model -> {out_model}")
    return {"netlists": args.netlists, **settings, "out": out_model}, args.netlists, [out_model]


def _cmd_rewrite(args: argparse.Namespace, gcfg: GlobalConfig, file_cfg: dict) -> _Manifest:
    circuit = _load_circuit(args.netlist, args.label_regex, args.labels, gcfg)
    try:
        gate = circuit.gate_by_name(args.instance)
    except KeyError:
        raise ValueError(f"unknown instance {args.instance!r} in {circuit.name}") from None
    allow_relaxed = _settings(AttackConfig, "config file", vars(args), file_cfg).allow_relaxed
    result = apply_pattern(circuit, gate.id, args.pattern, allow_relaxed=allow_relaxed)
    rewritten = result.circuit
    diff = {
        "pattern": result.pattern_id,
        "instance": args.instance,
        "removed_gate_ids": list(result.removed_gate_ids),
        "new_gate_ids": list(result.new_gate_ids),
        "new_gates": [rewritten.gates[g].name for g in result.new_gate_ids],
        "new_net_ids": list(result.new_net_ids),
        "new_nets": [rewritten.nets[n].name for n in result.new_net_ids],
    }
    if args.check:
        eq = check_equivalence(circuit, rewritten, seed=gcfg.seed)
        diff["equivalent"] = eq.equivalent
        diff["check_mode"] = eq.mode
        diff["check_vectors"] = eq.vectors
        diff["counterexample"] = eq.counterexample
    stem = f"{circuit.name}_{args.pattern}"
    outputs = [_write(args.emit or _out(gcfg, f"{stem}.v"), emit_verilog(rewritten)),
               _write(args.diff or _out(gcfg, f"{stem}_diff.json"), diff)]
    print(f"applied {args.pattern} at {args.instance}: "
          f"+{len(result.new_gate_ids)} gates, +{len(result.new_net_ids)} nets"
          + (f", equivalent={diff['equivalent']}" if args.check else ""))
    settings = {"netlist": args.netlist, "pattern": args.pattern, "instance": args.instance,
                "allow_relaxed": allow_relaxed, "check": args.check}
    return settings, [args.netlist], outputs


def _cmd_attack(args: argparse.Namespace, gcfg: GlobalConfig, file_cfg: dict) -> _Manifest:
    if args.ttcd and args.sweep_alphas:
        raise ValueError("--sweep-alphas does not apply to a --ttcd attack")
    circuit = _load_circuit(args.netlist, args.label_regex, args.labels, gcfg)
    model = load_model(_resolve_path(args.model, gcfg.model_dir))
    oracle = model.as_oracle()
    target_net_id = None
    if args.ttcd:
        try:
            target_net_id = circuit.net_by_name(args.ttcd).id
        except KeyError:
            raise ValueError(f"unknown net name {args.ttcd!r} in {circuit.name}") from None
    cfg = _settings(AttackConfig, "config file", {
        "alpha": float(args.alpha) if args.alpha else None,
        "k_max": args.budget, "allow_relaxed": args.allow_relaxed,
    }, file_cfg)
    alpha = cfg.alpha
    result = run_attack(circuit, oracle, cfg, target_net_id=target_net_id)

    out_v = _write(args.emit or _out(gcfg, f"{circuit.name}_attacked.v"),
                   emit_verilog(result.final))
    trace = {**result.summary(), "metrics": result.metrics}
    out_trace = _write(args.trace or _out(gcfg, f"{circuit.name}_attack_trace.json"), trace)

    # Sweep CSV: the metric trajectory over budgets 0..K (k=0 is unattacked),
    # optionally across extra alphas; alpha's own rows come from ``result``.
    k_values = list(range(cfg.k_max + 1))
    grid = {(alpha, k): result for k in k_values}
    extra = set(map(float, args.sweep_alphas or [])) - {alpha}
    grid.update(attack_sweep(circuit, oracle, extra, k_values, cfg))

    def write_sweep(path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["alpha", "k", "metric", "accepted_steps"])
            for (a, k), res in sorted(grid.items(), key=lambda t: (math.isinf(t[0][0]), t[0])):
                n_acc = min(k, len(res.steps))
                w.writerow(["inf" if math.isinf(a) else _fmt_num(a), k,
                            repr(res.metrics[n_acc]), n_acc])

    out_sweep = _write(args.sweep_csv or _out(gcfg, f"{circuit.name}_attack_sweep.csv"),
                       write_sweep)

    print(f"attack on {circuit.name}: {len(result.steps)} accepted steps "
          f"(budget {cfg.k_max}), metric {result.initial_metric:.6f} -> "
          f"{result.metrics[-1]:.6f}, oracle calls {result.oracle_calls}")
    settings = {"netlist": args.netlist, "model": args.model,
                "alpha": "inf" if math.isinf(alpha) else alpha, "ttcd": args.ttcd,
                "budget": cfg.k_max, "allow_relaxed": cfg.allow_relaxed}
    return settings, [args.netlist, args.model], [out_v, out_trace, out_sweep]


def _cmd_advtrain(args: argparse.Namespace, gcfg: GlobalConfig, file_cfg: dict) -> _Manifest:
    circuits = [_load_circuit(p, args.label_regex, args.labels, gcfg) for p in args.netlists]
    samples = samples_from_circuits(circuits)
    adv = _adv_config(args, file_cfg, gcfg, np.array([s.label for s in samples]))
    model, report = train_robust(samples, adv)
    out_model = _write(args.out or _out(gcfg, "model_robust.json"),
                       lambda path: save_model(model, path))
    print(f"adversarially trained on {len(samples)} nets from {len(circuits)} "
          f"netlists; {report.adversarial_generated} adversarial examples "
          f"({report.degenerate_examples} degenerate) over "
          f"{report.triggered_batches} batches; model -> {out_model}")
    return {"netlists": args.netlists, **asdict(adv), "out": out_model}, args.netlists, [out_model]


def _plan_circuits(corpus, gcfg: GlobalConfig) -> list[CircuitGraph]:
    where = "plan 'corpus'"
    if len(_known(corpus, ("synthetic", "benchmarks"), where)) != 1:
        raise ValueError(f"{where} needs exactly one of 'synthetic' and 'benchmarks'")
    if "synthetic" in corpus:
        where = f"{where} 'synthetic'"
        spec = _known(corpus["synthetic"], ("count", "seed"), where)
        return synth_corpus(**{"num_circuits" if k == "count" else k: _typed(int, v, where, k)
                               for k, v in spec.items()})
    circuits = []
    for entry in _typed(list, corpus["benchmarks"], where, "benchmarks"):
        keys = ("path", "labels", "label_regex", "name")
        for key, value in _known(entry, keys, "plan benchmark entry").items():
            _typed(str, value, "plan benchmark entry", key)
        if "path" not in entry:
            raise ValueError("plan benchmark entry needs a 'path'")
        labels = entry.get("labels")
        labels = labels if labels is None else _resolve_path(labels, gcfg.bench_dir)
        circuits.append(_load_circuit(entry["path"], entry.get("label_regex"), labels, gcfg,
                                      entry.get("name")))
    return circuits


def _cmd_evaluate(args: argparse.Namespace, gcfg: GlobalConfig, file_cfg: dict) -> _Manifest:
    plan = _known(_load_config_file(args.plan), {"corpus", *_fields(LoocvOptions)}, "plan")
    options = _settings(LoocvOptions, "plan", {"seed": args.seed}, plan, {"seed": gcfg.seed})
    report = run_loocv(_plan_circuits(plan.get("corpus", {}), gcfg), options)
    paths = emit_reports(report, gcfg.out_dir or ".")
    for model in sorted({f.model for f in report.folds}):
        avg = report.average(model)
        parts = [f"{model}: TPR {_fmt_rate(avg['original_tpr'])}",
                 f"TNR {_fmt_rate(avg['original_tnr'])}"]
        parts += [f"attacked[{key}] TPR {_fmt_rate(v)}"
                  for key, v in sorted(avg["attacked_tpr"].items())]
        print("; ".join(parts))
    return {"plan_file": args.plan, "plan": plan}, [args.plan], sorted(paths.values())


def _fmt_rate(v: float | None) -> str:
    return "n/a" if v is None else f"{v:.3f}"


def _fmt_num(a: float) -> str:
    return str(int(a)) if float(a).is_integer() else str(a)


# ---------------------------------------------------------------------------
# Parser construction and dispatch
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, labels: bool = False) -> None:
    p.add_argument("--config", help="JSON (or TOML on 3.11+) config file")
    p.add_argument("--seed", type=int, default=None, help="global RNG seed")
    p.add_argument("--log-level", default=None, choices=_LOG_LEVELS)
    p.add_argument("--bench-dir", default=None,
                   help=f"benchmark directory (default ${BENCH_DIR_ENV})")
    p.add_argument("--model-dir", default=None, help="directory for model files")
    p.add_argument("--out-dir", default=None, help="output directory")
    p.add_argument("--profile", default=None, choices=_PROFILE_NAMES,
                   help="hyperparameter preset")
    if labels:
        p.add_argument("--labels", default=None,
                       help="Trojan-net sidecar file (one net name per line)")
        p.add_argument("--label-regex", default=None,
                       help="instance-name regex marking Trojan gates")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htlab",
        description="Hardware-Trojan detection, gate-modification attacks, "
                    "and adversarial training on gate-level netlists.",
    )
    parser.add_argument("--version", action="version", version=f"htlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a netlist; optionally re-emit it")
    p.add_argument("netlist")
    p.add_argument("--emit", help="write the round-tripped Verilog here")
    p.add_argument("--dump-graph", help="write the graph JSON here")
    _add_common(p, labels=True)

    p = sub.add_parser("featurize", help="emit the per-net feature CSV")
    p.add_argument("netlist")
    p.add_argument("--out", help="CSV path (default <name>_features.csv)")
    _add_common(p, labels=True)

    p = sub.add_parser("train", help="train the plain detector")
    p.add_argument("netlists", nargs="+")
    p.add_argument("--out", help="model JSON path")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--class-weight", type=float, default=None)
    p.add_argument("--oversample", action=argparse.BooleanOptionalAction, default=None)
    _add_common(p, labels=True)

    p = sub.add_parser("rewrite", help="apply one modification pattern")
    p.add_argument("netlist")
    p.add_argument("--pattern", required=True, choices=PATTERN_IDS)
    p.add_argument("--instance", required=True, help="gate instance name")
    p.add_argument("--allow-relaxed", action=argparse.BooleanOptionalAction, default=None,
                   help="permit the relaxed-equivalence DFF patterns")
    p.add_argument("--check", action="store_true",
                   help="run the equivalence check and record the verdict")
    p.add_argument("--emit", help="modified Verilog path")
    p.add_argument("--diff", help="JSON diff path")
    _add_common(p, labels=True)

    p = sub.add_parser("attack", help="greedy gate-modification attack")
    p.add_argument("netlist")
    p.add_argument("--model", required=True, help="detector model JSON")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--alpha", default=None, help="alpha-TCD: 1, 2, or inf")
    group.add_argument("--ttcd", default=None, metavar="NET",
                       help="target a single net by name (TTCD)")
    p.add_argument("--budget", type=int, default=None, help="max modifications K")
    p.add_argument("--allow-relaxed", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--sweep-alphas", nargs="*", default=None,
                   help="extra alphas for the sweep CSV")
    p.add_argument("--emit", help="attacked Verilog path")
    p.add_argument("--trace", help="attack trace JSON path")
    p.add_argument("--sweep-csv", help="metric-vs-budget CSV path")
    _add_common(p, labels=True)

    p = sub.add_parser("advtrain", help="adversarial (robust) training")
    p.add_argument("netlists", nargs="+")
    p.add_argument("--out", help="model JSON path")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--min-trojan-per-batch", type=int, default=None)
    p.add_argument("--trojan-modify-ratio", type=float, default=None)
    p.add_argument("--init-epochs", type=int, default=None)
    p.add_argument("--attack-budget", type=int, default=None)
    p.add_argument("--class-weight", type=float, default=None)
    p.add_argument("--oversample", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--allow-relaxed", action=argparse.BooleanOptionalAction, default=None)
    _add_common(p, labels=True)

    p = sub.add_parser("evaluate", help="leave-one-out evaluation from a plan file")
    p.add_argument("--plan", required=True, help="JSON (or TOML on 3.11+) plan")
    p.add_argument("--out", dest="out_dir", help="report directory (same as --out-dir)")
    _add_common(p)

    return parser


_COMMANDS = {
    "parse": _cmd_parse,
    "featurize": _cmd_featurize,
    "train": _cmd_train,
    "rewrite": _cmd_rewrite,
    "attack": _cmd_attack,
    "advtrain": _cmd_advtrain,
    "evaluate": _cmd_evaluate,
}


def dispatch(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_keys = _fields(GlobalConfig) | _fields(AdvTrainConfig)
        file_cfg = _known(_load_config_file(args.config), file_keys,
                          "config file") if args.config else {}
        gcfg = _settings(GlobalConfig, "config file", vars(args), file_cfg,
                         {"bench_dir": os.environ.get(BENCH_DIR_ENV)})
        logging.basicConfig(level=gcfg.log_level.upper())
        settings, inputs, outputs = _COMMANDS[args.command](args, gcfg, file_cfg)
        _write(_out(gcfg, "run_manifest.json"), {
            "package_version": __version__, "command": args.command, "global": asdict(gcfg),
            "settings": settings, "inputs": inputs, "outputs": outputs,
        })
        return 0
    except (NetlistError, ValueError, KeyError, OSError) as exc:
        detail = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {detail}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
