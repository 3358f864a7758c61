"""The benchmark's traced invariants, held on its tiny workloads.

``perfbench/run.py --trace 1`` counts the calls into each layer and fails an
iteration whose counts break these rules; the tests below apply the same
rules to the program in the main suite, through the benchmark's own
workloads and tracer.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"

# Seed -> (sha256 of the JSON list of Verilog texts, rejected cyclic draws) of
# the full-size LOOCV workloads' set-up: the corpora behind their digests in
# perfbench/digests.json.
LOOCV_SETUP = {
    0: ("83d60097a378ae1754b0d8443955b2db842bbb2788b7c0078f0bf76ab496f229", 1),
    1: ("d0e40878c71be826810c780f1feb92eeac5417a107834ac1df0c76e3e68def2b", 0),
    2: ("3f8cced0ac01efeb1ac44f9923d9701fa182f7456e70882040c1d56d5b8b7b3b", 0),
    3: ("0caf32936a1dd4e5b9a8508fdf790b5f75bd490791cb1179b951cf4501c4969e", 2),
}


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import run
        import tracing
        import workloads

        tiny = workloads.workloads(tiny=True)
        # Tiny loocv-rhtd has one adversarial epoch, so it attacks each Trojan
        # sample once; the full workload's second epoch re-attacks them.
        rhtd = tiny["loocv-rhtd"]
        adv = dataclasses.replace(rhtd.options.adv, epochs=2)
        tiny["loocv-rhtd-2"] = dataclasses.replace(
            rhtd, options=dataclasses.replace(rhtd.options, adv=adv))
        yield run, tracing.Tracer, tiny


@pytest.fixture(scope="module", params=["loocv-normal", "loocv-rhtd", "scale-pipeline"])
def traced_twice(request, bench):
    """Two traced iterations of one tiny workload, each parsing its inputs anew."""
    run, tracer_type, tiny = bench
    workload = tiny[request.param]
    inputs = workload.setup(3)
    out = []
    for _ in range(2):
        tracer = tracer_type()
        _, _, obs, digest = run.run_once(workload, inputs, tracer)
        assert obs.failures == []
        out.append((tracer.layers(), obs, digest))
    return request.param, out


def calls(layers: dict, name: str) -> int:
    return layers.get(name, {}).get("calls", 0)


def test_every_candidate_is_built_once(traced_twice):
    _, runs = traced_twice
    for layers, obs, _ in runs:
        candidates = sum(a[1] for a in obs.attacks)  # a[1] is oracle calls - 1
        assert calls(layers, "rewrite.apply_pattern") == candidates > 0


def test_traced_counts_repeat_on_freshly_parsed_inputs(traced_twice):
    # No memo outlives the graphs it belongs to: a second run on newly parsed
    # circuits extracts exactly as much as the first.
    _, ((first, _, digest), (second, _, again)) = traced_twice
    assert digest == again
    for name in ("features.extract_for_nets", "features.extract_all", "model.oracle"):
        assert first.get(name) and first[name]["calls"] == second[name]["calls"]
        assert first[name]["rows"] == second[name]["rows"]


@pytest.mark.parametrize("traced_twice", ["loocv-rhtd-2"], indirect=True)
def test_robust_training_scores_repeated_paths_from_the_memo(traced_twice):
    # The second epoch re-attacks each Trojan sample's circuit along the
    # first epoch's paths; fewer extractions than candidates means hits.
    _, runs = traced_twice
    for layers, obs, _ in runs:
        candidates = sum(a[1] for a in obs.attacks)
        assert calls(layers, "features.extract_for_nets") < candidates


def test_loocv_setup_inputs_are_pinned():
    # A shift in the synthetic corpus fails here, not only in the benchmark's
    # digest check.  Both LOOCV workloads make the same set-up call.
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads

    full = workloads.workloads()
    loocv = full["loocv-rhtd"]
    assert full["loocv-normal"].circuits == loocv.circuits
    got = {}
    for seed in LOOCV_SETUP:
        inputs = loocv.setup(seed)
        got[seed] = (hashlib.sha256(json.dumps(inputs.texts).encode()).hexdigest(),
                     inputs.rejected_cyclic)
    assert got == LOOCV_SETUP
