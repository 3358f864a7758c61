"""The benchmark's workloads: seeded inputs, one timed iteration, and checks.

Every workload hands htlab nothing but Verilog text made in set-up, then runs
the user-facing steps parse -> ... -> attack -> verify through the public API:

* ``loocv-rhtd``: leave-one-out evaluation of the adversarially trained
  detector (criterion-6 settings) on a synthetic corpus.
* ``loocv-normal``: the same for the plain detector (criterion-5 settings).
* ``scale-pipeline``: one large random netlist through parse, featurize,
  fit, a greedy alpha-TCD attack and an equivalence check.

The benchmark calls htlab through module attributes (``netlist.parse_verilog``
and so on), so that rebinding those attributes observes its calls.  Two kinds
of hooks exist.  :meth:`Observer.hooks` is installed on every iteration, costs
one timer or one small record per call on calls that take milliseconds, and
collects stage times, attack traces and the attacked circuits to verify.
:func:`layer_hooks` wraps every call into a layer: with a
:class:`~tracing.Tracer` on traced iterations, to record spans, and with
:class:`~tracing.Pace` on the others, where the paced clock may measure the
host's speed.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from htlab import advtrain, attack, evaluation, features, model, netlist, rewrite, synth

import scalegen

LABELS = netlist.LabelSpec.name_regex("^troj_")
STAGES = ("parse_s", "attack_s", "verify_s")
# The median synthetic circuit size, and how many circuits of the seed's
# stream compete for each corpus slot.
CORPUS_GATES = 240
CORPUS_POOL = 12


class Observer:
    """Stage times, checks and integer outcomes of one iteration."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.stages = dict.fromkeys(STAGES, 0.0)
        self.attempted = 0
        self.failures: list[str] = []
        # Per attack run: [target net, candidates, [[gate id, pattern], ...]].
        self.attacks: list[list] = []
        # Per robust training run: [generated, degenerate, triggered batches].
        self.adv: list[list[int]] = []
        # Per evaluation sweep: (held-out circuit, full-budget results).
        self.sweeps: list[tuple[netlist.CircuitGraph, list[attack.AttackResult]]] = []
        self.vectors = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @contextmanager
    def stage(self, name: str):
        t = self.clock()
        try:
            yield
        finally:
            self.stages[name] += self.clock() - t

    def verify(self, original: netlist.CircuitGraph, attacked: netlist.CircuitGraph) -> None:
        rep = rewrite.check_equivalence(original, attacked)
        self.vectors += rep.vectors
        self.check(rep.equivalent, f"attacked {original.name} equivalent ({rep.mode})")

    def hooks(self) -> list:
        def on_attack(fn):
            def run_attack(*args, **kwargs):
                res = fn(*args, **kwargs)
                m = res.metrics
                self.check(all(b < a for a, b in zip(m, m[1:])),
                           f"attack trace on {res.original.name} strictly decreasing")
                self.attacks.append([res.target_net_id, res.oracle_calls - 1,
                                     [[s.gate_id, s.pattern_id] for s in res.steps]])
                return res
            return run_attack

        def on_sweep(fn):
            def attack_sweep(circuit, oracle, alphas, k_values, *args, **kwargs):
                with self.stage("attack_s"):
                    out = fn(circuit, oracle, alphas, k_values, *args, **kwargs)
                k = max(k_values)
                self.sweeps.append((circuit, [r for (_, kk), r in sorted(out.items()) if kk == k]))
                return out
            return attack_sweep

        def on_robust(fn):
            def train_robust(*args, **kwargs):
                trained, report = fn(*args, **kwargs)
                self.adv.append([report.adversarial_generated, report.degenerate_examples,
                                 report.triggered_batches])
                return trained, report
            return train_robust

        return [
            (attack, "run_attack", on_attack),
            (advtrain, "run_attack", on_attack),
            (evaluation, "attack_sweep", on_sweep),
            (evaluation, "train_robust", on_robust),
        ]


def layer_hooks(wrap) -> list:
    """``wrap(name, fn, rows)`` around every call into a layer, named ``<module>.<operation>``."""

    def at(owner, attr, name, rows=None):
        return (owner, attr, lambda fn: wrap(name, fn, rows))

    def batch_rows(_self, x, *args, **kwargs):
        return 1 if getattr(x, "ndim", 2) == 1 else len(x)

    det = model.MLPDetector
    return [
        at(netlist, "parse_verilog", "netlist.parse", lambda src, *a, **k: src.count("\n")),
        at(features, "extract_all", "features.extract_all"),
        at(evaluation, "extract_all", "features.extract_all"),
        at(advtrain, "extract_all", "features.extract_all"),
        at(attack, "extract_all", "features.extract_all"),
        at(attack, "extract_for_nets", "features.extract_for_nets",
           lambda circuit, net_ids, *a, **k: len(net_ids)),
        at(advtrain, "extract_features", "features.extract_features"),
        at(det, "fit", "model.fit"),
        at(det, "train_batch", "model.train_batch", batch_rows),
        at(det, "predict_proba", "model.oracle", batch_rows),
        at(attack, "apply_pattern", "rewrite.apply_pattern"),
        at(rewrite, "check_equivalence", "rewrite.check_equivalence"),
        at(attack, "run_attack", "attack.run_attack"),
        at(advtrain, "run_attack", "attack.run_attack"),
        at(advtrain, "generate_adversarial", "advtrain.generate"),
        at(evaluation, "samples_from_circuits", "advtrain.samples"),
        at(evaluation, "train_robust", "advtrain.train_robust"),
        at(evaluation, "run_loocv", "evaluation.run_loocv"),
    ]


def segment_hooks(wrap) -> list:
    """:func:`layer_hooks` plus hooks inside calls too long to pace as one.

    ``check_equivalence`` is one call of up to a second; the simulator's
    per-cycle passes give :class:`~tracing.Pace` a chance to re-measure the
    host's speed every few milliseconds.  The simulator is private to
    ``htlab.rewrite``, so the hook is left out when htlab no longer has it.
    """
    hooks = layer_hooks(wrap)
    simulator = getattr(rewrite, "_BatchSimulator", None)
    if simulator is not None and "eval_nets" in vars(simulator):
        hooks.append((simulator, "eval_nets",
                      lambda fn: wrap("rewrite.simulate", fn, None)))
    return hooks


def setup_hooks(wrap) -> list:
    """``wrap(name, fn, None)`` around the htlab calls that build inputs."""
    return [(owner, attr, lambda fn, name=f"{owner.__name__}.{attr}": wrap(name, fn, None))
            for owner, attr in ((synth, "synth_circuit"), (rewrite, "topological_gate_order"),
                                (netlist, "emit_verilog"))]


def parse_all(inputs: Inputs) -> list[netlist.CircuitGraph]:
    """The user-facing parse step: every netlist of the workload."""
    return [netlist.parse_verilog(text, LABELS) for text in inputs.texts]


def digest(outcome: dict) -> str:
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Inputs:
    seed: int
    texts: tuple[str, ...]
    stats: tuple[dict, ...]
    rejected_cyclic: int = 0

    def describe(self) -> dict:
        return {
            "netlists": len(self.texts),
            "rejected_cyclic": self.rejected_cyclic,
            "lines": sum(t.count("\n") for t in self.texts),
            **{k: sum(s[k] for s in self.stats) for k in ("gates", "nets", "trojan_gates")},
        }


@dataclass(frozen=True)
class Loocv:
    """``run_loocv`` over a synthetic corpus delivered as Verilog text.

    Synthetic circuits vary in size by about 10 % from seed to seed.  To keep
    the work per seed steady, each corpus slot draws ``CORPUS_POOL`` circuits
    from the seed's stream (child seeds ``seed * 10007``, ``+ 1``, ...) and
    keeps the one whose gate count is closest to ``CORPUS_GATES``; a fixed
    number of draws also keeps set-up's work the same for every seed.  A few
    percent of the unlatched synthetic Trojans close a combinational loop
    through the host, which ``check_equivalence`` cannot simulate; those are
    skipped and counted in ``Inputs.rejected_cyclic``.

    Each fold's held-out circuit is verified once, against the full-budget
    attack with the most accepted steps: verifying every alpha's result would
    make ``check_equivalence`` the largest cost of the multi-alpha workload.
    """

    circuits: int
    options: evaluation.LoocvOptions

    def setup(self, seed: int) -> Inputs:
        corpus: list[netlist.CircuitGraph] = []
        child = seed * 10_007
        cyclic = 0
        for slot in range(self.circuits):
            best, drawn = None, 0
            while drawn < CORPUS_POOL or best is None:
                c = synth.synth_circuit(slot, child)
                child += 1
                drawn += 1
                try:
                    rewrite.topological_gate_order(c)
                except rewrite.CombinationalCycleError:
                    cyclic += 1
                    continue
                if best is None or (abs(len(c.gates) - CORPUS_GATES)
                                    < abs(len(best.gates) - CORPUS_GATES)):
                    best = c
            corpus.append(best)
        return Inputs(seed, tuple(netlist.emit_verilog(c) for c in corpus),
                      tuple(c.stats() for c in corpus), cyclic)

    def run(self, inputs: Inputs, obs: Observer) -> dict:
        with obs.stage("parse_s"):
            circuits = parse_all(inputs)
        for c, want in zip(circuits, inputs.stats):
            obs.check(c.stats() == want, f"parsed stats of {c.name} equal the generator's")
        report = evaluation.run_loocv(circuits, self.options)
        with obs.stage("verify_s"):
            for original, results in obs.sweeps:
                most = max(results, key=lambda r: len(r.steps))
                obs.verify(original, most.final)
        obs.sweeps.clear()  # the attacked circuits are not needed past this point
        folds = [
            [f.benchmark, f.model, _counts(f.original),
             {f"{a}/{k}": _counts(m) for (a, k), m in sorted(f.attacked.items())},
             [[s["gate_id"], s["pattern"], s["candidates_evaluated"]]
              for summary in f.attack_summaries for s in summary["accepted_steps"]]]
            for f in report.folds
        ]
        return {"stats": [c.stats() for c in circuits], "folds": folds,
                "attacks": obs.attacks, "adv": obs.adv}


@dataclass(frozen=True)
class Scale:
    """Parse -> featurize -> fit -> alpha-TCD attack -> verify on one netlist."""

    gates: int
    trigger_leaves: int
    epochs: int
    k_max: int

    def setup(self, seed: int) -> Inputs:
        net = scalegen.generate(seed, gates=self.gates, trigger_leaves=self.trigger_leaves)
        return Inputs(seed, (net.verilog,), (net.stats,))

    def run(self, inputs: Inputs, obs: Observer) -> dict:
        with obs.stage("parse_s"):
            (circuit,) = parse_all(inputs)
        obs.check(circuit.stats() == inputs.stats[0], "parsed stats equal the generator's")
        fm = features.extract_all(circuit)
        detector = model.MLPDetector(model.MLPConfig(init_seed=inputs.seed))
        detector.fit(fm.matrix, fm.labels, epochs=self.epochs, oversample=True,
                     shuffle_seed=inputs.seed + 1)
        config = attack.AttackConfig(alpha=1.0, k_max=self.k_max)
        with obs.stage("attack_s"):
            result = attack.run_attack(circuit, detector.as_oracle(), config)
        with obs.stage("verify_s"):
            obs.verify(circuit, result.final)
        return {"stats": circuit.stats(), "attacks": obs.attacks, "vectors": obs.vectors}


def _counts(m: evaluation.Metrics) -> list[int]:
    return [m.tp, m.fn, m.tn, m.fp]


def workloads(tiny: bool = False) -> dict[str, Loocv | Scale]:
    """The named workloads; ``tiny`` shrinks each to a few seconds for tests."""
    k = 1 if tiny else 5
    return {
        "loocv-rhtd": Loocv(
            circuits=2 if tiny else 4,
            options=evaluation.LoocvOptions(
                models=("r-htd",), alphas=(1.0,), k_values=(k,), threads=1,
                adv=advtrain.AdvTrainConfig(epochs=1 if tiny else 2, oversample=False,
                                            class_weight=24.0),
            ),
        ),
        "loocv-normal": Loocv(
            circuits=2 if tiny else 4,
            options=evaluation.LoocvOptions(
                models=("normal",), alphas=(1.0, 2.0, math.inf), k_values=(k,),
                epochs=1 if tiny else 6, threads=1,
            ),
        ),
        "scale-pipeline": Scale(
            gates=300 if tiny else 1000,
            trigger_leaves=9 if tiny else 16,
            epochs=1 if tiny else 2,
            k_max=1 if tiny else 2,
        ),
    }
