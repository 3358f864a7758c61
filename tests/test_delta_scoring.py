"""Delta scoring: patched distance tables and reused rows equal a rebuild."""
from __future__ import annotations

import math
import random
from dataclasses import fields

import numpy as np
from hypothesis import given, settings, strategies as st

import _oracles
from htlab import FEATURE_NAMES, AttackConfig, attack, features, run_attack, synth_circuit
from htlab.features import DistanceIndex, extract_for_nets
from htlab.rewrite import applicable_patterns, apply_pattern

TABLES = [f.name for f in fields(DistanceIndex)]
LOOPS = slice(FEATURE_NAMES.index("loop_in_le1"), FEATURE_NAMES.index("loop_out_le5") + 1)


def rewrites_by_family(circuit) -> dict[str, list[tuple[int, str]]]:
    """Every applicable non-relaxed (gate id, pattern id), by gate family."""
    out: dict[str, list[tuple[int, str]]] = {}
    for gid in circuit.sorted_gate_ids():
        for p in applicable_patterns(circuit, gid):
            out.setdefault(circuit.gates[gid].kind.family, []).append((gid, p.pattern_id))
    return out


def assert_tables_equal(index: DistanceIndex, circuit) -> None:
    rebuilt = DistanceIndex.build(circuit)
    for name in TABLES:
        got, want = getattr(index, name), getattr(rebuilt, name)
        bad = [nid for nid in circuit.nets if got.get(nid) != want.get(nid)]
        assert not bad, f"{name} differs on nets {bad[:5]}"


def assert_step_matches_rebuild(parent, res, scored):
    """Delta rows and tables of ``res`` equal a rebuild; returns the parent
    for the next step."""
    circuit = res.circuit
    rows, overlay = parent.candidate_rows(res, scored)
    assert_tables_equal(overlay, circuit)
    want = extract_for_nets(circuit, scored).matrix
    bad = [nid for nid, a, b in zip(scored, rows, want) if a.tobytes() != b.tobytes()]
    assert not bad, f"{res.pattern_id} rows differ on nets {bad[:5]}"
    merged = features._merge(overlay)
    assert_tables_equal(merged, circuit)
    return attack._Parent(circuit, scored, rows, merged)


@settings(max_examples=40, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
    steps=st.integers(min_value=1, max_value=3),
    trojan_only=st.booleans(),
    data=st.data(),
)
def test_delta_matches_rebuild(index, seed, steps, trojan_only, data):
    # The gate family is drawn first, so rewrites of the few MUX2 and DFF
    # cells (m13 removes a MUX2, m15 adds one) come up as often as the rest.
    circuit = synth_circuit(index, seed=seed)
    if trojan_only:
        scored = sorted(circuit.trojan_net_ids)
    else:
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**16)))
        scored = sorted(rng.sample(circuit.sorted_net_ids(), len(circuit.nets) // 2))
    dist = DistanceIndex.build(circuit)
    parent = attack._Parent(circuit, scored,
                            extract_for_nets(circuit, scored, _dist=dist).matrix, dist)
    for _ in range(steps):
        options = rewrites_by_family(circuit)
        family = data.draw(st.sampled_from(sorted(options)))
        gate_id, pattern_id = data.draw(st.sampled_from(options[family]))
        res = apply_pattern(circuit, gate_id, pattern_id)
        circuit = res.circuit
        if trojan_only:
            scored = sorted(circuit.trojan_net_ids)
        else:
            scored = sorted(set(scored).union(res.new_net_ids))
        parent = assert_step_matches_rebuild(parent, res, scored)


@settings(max_examples=30, deadline=None)
@given(circuit=_oracles.feedback_circuits(), steps=st.integers(min_value=1, max_value=3),
       data=st.data())
def test_delta_matches_rebuild_on_feedback_circuits(circuit, steps, data):
    # Every net is scored.  The first step rewrites a gate that drives a net
    # on a ring, so it lengthens or reroutes a cycle that rows count.
    scored = circuit.sorted_net_ids()
    dist = DistanceIndex.build(circuit)
    rows = extract_for_nets(circuit, scored, _dist=dist).matrix
    parent = attack._Parent(circuit, scored, rows, dist)
    ring_gates = sorted(circuit.driver(nid).id for nid, row in zip(scored, rows)
                        if row[LOOPS].any())
    assert ring_gates
    for step in range(steps):
        gate_ids = circuit.sorted_gate_ids() if step else ring_gates
        options = [(gid, p.pattern_id) for gid in gate_ids
                   for p in applicable_patterns(circuit, gid)]
        res = apply_pattern(circuit, *data.draw(st.sampled_from(options)))
        circuit = res.circuit
        scored = sorted(set(scored).union(res.new_net_ids))
        parent = assert_step_matches_rebuild(parent, res, scored)


def test_alpha_tcd_builds_distance_tables_once_per_step(scale300, monkeypatch):
    builds = []
    build = DistanceIndex.build.__func__

    def counted(cls, circuit):
        builds.append(circuit)
        return build(cls, circuit)

    monkeypatch.setattr(DistanceIndex, "build", classmethod(counted))
    # Any oracle will do; this one prefers nets with few pins at level 1.
    oracle = lambda rows: 1.0 / (1.0 + np.exp(-0.3 * rows[:, :5].sum(axis=1)))
    res = run_attack(scale300, oracle, AttackConfig(alpha=math.inf, k_max=3))
    assert len(scale300.trojan_net_ids) > 16
    assert res.oracle_calls - 1 > len(res.steps) + 1  # candidates outnumber builds
    assert len(builds) <= len(res.steps) + 1
