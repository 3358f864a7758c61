"""htlab benchmark: one seeded workload, timed, checked, reported as JSON.

Run from the root of a checkout:

    python3 perfbench/run.py --workload loocv-rhtd --seed 1 --seconds 20 --trace 0

Set-up makes the workload's inputs from ``--seed``.  Then whole iterations
run back to back (one caller, closed loop) until ``--seconds`` have passed;
each iteration runs the same inputs and must produce the same outcome digest.

``--trace 0`` reports the end-to-end metrics.  The shared CPUs this was
tuned on change speed by up to about 2x, for seconds and for hours, so raw
seconds from two runs measure the host's load as much as the program.  Each
time metric is therefore read from :class:`tracing.Pace`, a clock in seconds
at a fixed reference speed of the CPU: ``wall_s`` is the median iteration
and ``setup_s`` the median set-up (repeated before and between iterations).
``peak_rss_mb`` is the process's peak RSS.  The raw per-iteration times and
the reference kernel's durations are printed and written to the record file
below.

``--trace 1`` alternates untraced and traced iterations and reports per-layer
calls, rows and self seconds (medians over the traced iterations), the
paced parse, attack and verify stage times of the untraced iterations
(``stage.*``), the time no layer covers (``trace.residual_s``), the tracing
overhead against the untraced iterations and the corpus circuits set-up
skipped because ``htlab.synth`` closed a combinational loop
(``synth.rejected_cyclic``).  Spans and raw times are written to
``perfbench/out/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without ``src/htlab``
in the working directory the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

# BLAS reads these once, when numpy is first imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Set-up is short, so it runs a few times before the first iteration and
# once after each.
SETUP_REPEATS = 3
HERE = Path(__file__).resolve().parent


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "loadavg": os.getloadavg(),
    }


def run_once(workload, inputs, tracer=None, pace=None):
    """One iteration; returns (seconds, raw seconds, observer, digest).

    With ``tracer`` every call into a layer is a span; with ``pace`` the
    seconds, and the observer's stage times, are read from the paced clock.
    """
    from tracing import rebound
    from workloads import Observer, digest, layer_hooks, segment_hooks

    clock = pace.now if pace else perf_counter
    obs = Observer(clock)
    gc.collect()
    hooks = layer_hooks(tracer.wrap) if tracer else segment_hooks(pace.wrap) if pace else []
    with rebound(obs.hooks()), rebound(hooks):
        run = tracer.wrap("bench.iteration", workload.run) if tracer else workload.run
        t = clock()
        raw = pace.raw if pace else t
        outcome = run(inputs, obs)
        wall = clock() - t
        raw = pace.raw - raw if pace else wall
    return wall, raw, obs, digest(outcome)


def timed_setup(workload, seed: int, pace) -> tuple[float, object]:
    """One set-up on the paced clock; returns (seconds, inputs)."""
    from tracing import rebound
    from workloads import setup_hooks

    with rebound(setup_hooks(pace.wrap)):
        t = pace.now()
        inputs = workload.setup(seed)
        return pace.now() - t, inputs


def layer_metrics(layers: dict, obs, wall: float) -> dict[str, tuple[float, str]]:
    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    candidates = sum(a[1] for a in obs.attacks)
    accepted = sum(len(a[2]) for a in obs.attacks)
    generated = sum(a[0] for a in obs.adv)
    degenerate = sum(a[1] for a in obs.adv)
    apply_calls = get("rewrite.apply_pattern", "calls")
    apply_s = get("rewrite.apply_pattern", "self_s")
    parse_s = get("netlist.parse", "total_s")
    parse_lines = get("netlist.parse", "rows")
    residual = get("bench.iteration", "self_s") + get("evaluation.run_loocv", "self_s")
    out = {
        "rewrite.apply_pattern.calls": (apply_calls, "count"),
        "rewrite.apply_pattern.self_s": (apply_s, "s"),
        "rewrite.apply_pattern.us_per_call": (
            1e6 * apply_s / apply_calls if apply_calls else 0.0, "us"),
        "netlist.parse.s": (parse_s, "s"),
        "netlist.parse.lines_per_s": (parse_lines / parse_s if parse_s else 0.0, "1/s"),
        "model.fit.s": (get("model.fit", "total_s"), "s"),
        "rewrite.check_equivalence.s": (get("rewrite.check_equivalence", "total_s"), "s"),
        "rewrite.check_equivalence.vectors": (obs.vectors, "count"),
        "advtrain.degenerate": (degenerate, "count"),
        "advtrain.useful_ratio": (1 - degenerate / generated if generated else 0.0, "ratio"),
        "attack.candidates": (candidates, "count"),
        "attack.steps_accepted": (accepted, "count"),
        "attack.accept_ratio": (accepted / candidates if candidates else 0.0, "ratio"),
        "evaluation.run_loocv.self_s": (get("evaluation.run_loocv", "self_s"), "s"),
        "trace.residual_s": (residual, "s"),
        "trace.named_share": (1 - residual / wall, "ratio"),
    }
    for name, keys in (
        ("features.extract_for_nets", ("calls", "rows", "self_s")),
        ("features.extract_all", ("calls", "self_s")),
        ("model.oracle", ("calls", "rows", "self_s")),
        ("model.train_batch", ("calls", "rows", "self_s")),
        ("advtrain.generate", ("calls", "self_s")),
        ("attack.run_attack", ("calls", "self_s")),
    ):
        for key in keys:
            out[f"{name}.{key}"] = (get(name, key), "s" if key == "self_s" else "count")
    return out


def end_to_end_metrics(setups: list[float], plain: list) -> dict:
    """Median paced seconds of a set-up and of an untraced iteration."""
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(p[0] for p in plain), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def traced_metrics(plain: list, traced: list) -> dict:
    """Per-layer medians over traced iterations, where counts must repeat
    exactly, and paced stage times of the untraced ones."""
    from workloads import STAGES

    samples = [layer_metrics(tr.layers(), obs, wall) for tr, wall, _, obs, _ in traced]
    counts = [{k: v for k, (v, unit) in s.items() if unit == "count"} for s in samples]
    last = traced[-1][3]
    last.check(all(c == counts[0] for c in counts), "traced counts repeat exactly")
    last.check(all(s["rewrite.apply_pattern.calls"][0] == s["attack.candidates"][0]
                   for s in samples), "apply_pattern calls equal attack candidates")
    metrics = {
        name: {"value": statistics.median(s[name][0] for s in samples), "unit": unit}
        for name, (_, unit) in samples[0].items()
    }
    plain_raw = statistics.median(p[1] for p in plain)
    traced_raw = statistics.median(t[2] for t in traced)
    metrics["trace.overhead"] = {"value": traced_raw / plain_raw - 1, "unit": "ratio"}
    for stage in STAGES:
        metrics[f"stage.{stage}"] = {
            "value": statistics.median(p[2].stages[stage] for p in plain), "unit": "s"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    src = Path.cwd() / "src"
    if not (src / "htlab" / "__init__.py").is_file():
        print(f"perfbench: no htlab sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]

    env = environment()
    print("perfbench env " + json.dumps(env))
    from tracing import Pace, Tracer
    from workloads import Observer, workloads

    table = workloads()
    if args.workload not in table:
        ap.error(f"--workload must be one of {', '.join(table)}")
    workload = table[args.workload]
    inputs = workload.setup(args.seed)  # also warms up, so it is not timed
    print("perfbench setup " + json.dumps(inputs.describe()))
    extra = Observer()  # checks on set-up
    pace = Pace()
    setups: list[float] = []

    def setup_pass() -> None:
        seconds, again = timed_setup(workload, args.seed, pace)
        setups.append(seconds)
        extra.check(again == inputs, "set-up makes the same inputs every time")

    for _ in range(SETUP_REPEATS):
        setup_pass()
    plain, traced = [], []
    start = perf_counter()
    while not plain or perf_counter() - start < args.seconds:
        plain.append(run_once(workload, inputs, pace=pace))
        if args.trace:
            tracer = Tracer()
            traced.append((tracer, *run_once(workload, inputs, tracer)))
        else:
            setup_pass()

    recorded = json.loads((HERE / "digests.json").read_text()).get(args.workload, {})
    expected = recorded.get(str(args.seed), plain[0][3])
    for *_, obs, dig in plain + traced:
        obs.check(dig == expected, f"outcome digest {dig} equals {expected}")
    print(f"perfbench digest {args.workload} {args.seed} {plain[0][3]}")
    walls, raws = [p[0] for p in plain], [p[1] for p in plain]
    print(f"perfbench iterations {len(walls)}: wall_s median {statistics.median(walls):.4f}"
          f" max {max(walls):.4f}; raw median {statistics.median(raws):.4f}"
          f" max {max(raws):.4f}; reference kernel median"
          f" {1e3 * statistics.median(pace.kernel_s):.4f} ms")
    metrics = (traced_metrics(plain, traced) if args.trace
               else end_to_end_metrics(setups, plain))
    observers = [extra] + [p[2] for p in plain] + [t[3] for t in traced]
    attempted = sum(obs.attempted for obs in observers)
    failures = [what for obs in observers for what in obs.failures]
    failed = len(failures)
    print(f"perfbench fail_ratio {failed}/{attempted}")
    if args.trace:
        metrics["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
        metrics["synth.rejected_cyclic"] = {"value": inputs.rejected_cyclic, "unit": "count"}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "inputs": inputs.describe(), "metrics": metrics,
        "wall_s": walls, "raw_wall_s": raws, "setup_s": setups,
        "stages": [p[2].stages for p in plain], "kernel_s": pace.kernel_s,
        "traced_wall_s": [t[2] for t in traced],
        "failures": failures,
        "spans": [tr.spans for tr, *_ in traced],
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    for what in failures[:20]:
        print(f"perfbench FAILED: {what}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
