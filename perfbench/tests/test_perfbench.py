"""Smoke tests of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import htlab  # noqa: E402
import run  # noqa: E402
import scalegen  # noqa: E402
import tracing  # noqa: E402
from tracing import Pace, Tracer, rebound  # noqa: E402
from workloads import Observer, layer_hooks, workloads  # noqa: E402

TINY = workloads(tiny=True)


@pytest.fixture(scope="module", params=sorted(TINY))
def tiny_runs(request):
    workload = TINY[request.param]
    inputs = workload.setup(3)
    tracer = Tracer()
    traced = (tracer, *run.run_once(workload, inputs, tracer))
    pace = Pace()
    return request.param, run.run_once(workload, inputs, pace=pace), traced, pace


def test_workload_passes_its_checks(tiny_runs):
    name, (wall, raw, obs, _), _, pace = tiny_runs
    assert wall > 0
    assert pace.raw >= raw > 0
    assert obs.attempted > 0
    assert obs.failures == []
    assert all(v > 0 for v in obs.stages.values()), obs.stages
    assert sum(obs.stages.values()) < wall
    assert obs.attacks, f"{name} ran no attack"


def test_traced_and_untraced_digests_agree(tiny_runs):
    _, (*_, plain_digest), (*_, traced_obs, traced_digest), _ = tiny_runs
    assert traced_obs.failures == []
    assert traced_digest == plain_digest


def test_named_layers_cover_the_traced_wall(tiny_runs):
    _, _, (tracer, wall, _, obs, _), _ = tiny_runs
    metrics = run.layer_metrics(tracer.layers(), obs, wall)
    assert metrics["trace.named_share"][0] >= 0.9
    assert metrics["rewrite.apply_pattern.calls"][0] == metrics["attack.candidates"][0] > 0


def test_rebound_restores_every_original():
    targets = layer_hooks(Tracer().wrap) + Observer().hooks()
    before = [vars(owner)[attr] for owner, attr, _ in targets]
    original = htlab.attack.run_attack
    with pytest.raises(RuntimeError):
        with rebound(Observer().hooks()), rebound(layer_hooks(Pace().wrap)):
            assert htlab.attack.run_attack is not original
            raise RuntimeError("leave the block early")
    assert [vars(owner)[attr] for owner, attr, _ in targets] == before


def test_self_time_subtracts_child_coverage(monkeypatch):
    tracer = Tracer()
    clock = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    monkeypatch.setattr(tracing, "perf_counter", lambda: next(clock))
    inner = tracer.wrap("inner", lambda: None)

    def outer():
        inner()
        inner()

    tracer.wrap("outer", outer)()
    layers = tracer.layers()
    assert layers["inner"]["calls"] == 2
    assert layers["inner"]["self_s"] == pytest.approx(4.0)
    assert layers["outer"]["self_s"] == pytest.approx(6.0)


def test_pace_scales_by_the_reference_kernel_and_skips_it(monkeypatch):
    now = [0.0]

    def kernel():  # a host at half the reference speed
        now[0] += 2 * Pace.NOMINAL_S

    monkeypatch.setattr(tracing, "perf_counter", lambda: now[0])
    monkeypatch.setattr(tracing, "reference_kernel", kernel)
    pace = Pace(every=1.0, window=3)
    start = pace.now()
    now[0] += 0.5  # no sample due yet
    assert pace.now() - start == pytest.approx(0.25)
    now[0] += 1.0  # a sample is due; the kernel's own time is not counted
    assert pace.now() - start == pytest.approx(0.75)
    now[0] += 0.5
    assert pace.now() - start == pytest.approx(1.0)
    assert pace.raw == pytest.approx(2.0)
    assert len(pace.kernel_s) == 4


def test_scale_generator_is_seeded_and_parses_to_its_stats():
    a = scalegen.generate(5, gates=300, trigger_leaves=9)
    assert scalegen.generate(5, gates=300, trigger_leaves=9) == a
    assert scalegen.generate(6, gates=300, trigger_leaves=9).verilog != a.verilog
    parsed = htlab.parse_verilog(a.verilog, htlab.LabelSpec.name_regex("^troj_"))
    assert parsed.stats() == a.stats
    assert a.stats["trojan_nets"] == scalegen.trojan_gate_count(9) > 16


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "loocv-rhtd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reported_metrics_match_the_declared_ones(tiny_runs):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, plain, (tracer, wall, _, obs, _), _ = tiny_runs
    end_to_end = run.end_to_end_metrics([0.1], [plain])
    assert {k: v["unit"] for k, v in end_to_end.items()} == {
        m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {k: unit for k, (_, unit) in run.layer_metrics(tracer.layers(), obs, wall).items()}
    per_layer.update({"trace.overhead": "ratio", "fail_ratio": "ratio",
                      "synth.rejected_cyclic": "count",
                      **{f"stage.{stage}": "s" for stage in obs.stages}})
    assert per_layer == {m["name"]: m["unit"] for m in declared["per_layer"]}
