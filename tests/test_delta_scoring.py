"""Delta scoring: patched distance tables and reused rows equal a rebuild."""
from __future__ import annotations

import math
import random
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles
from conftest import fixture_names
from htlab import FEATURE_NAMES, AttackConfig, attack, features, run_attack, synth_circuit
from htlab.features import DistanceIndex, extract_for_nets
from htlab.rewrite import applicable_patterns, apply_pattern

TABLES = [f.name for f in fields(DistanceIndex)]
LOOPS = slice(FEATURE_NAMES.index("loop_in_le1"), FEATURE_NAMES.index("loop_out_le5") + 1)


def rewrites_by_family(circuit) -> dict[str, list[tuple[int, str]]]:
    """Every applicable (gate id, pattern id), relaxed ones included, by gate family."""
    out: dict[str, list[tuple[int, str]]] = {}
    for gid in circuit.sorted_gate_ids():
        for p in applicable_patterns(circuit, gid, allow_relaxed=True):
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
    # cells (m13 removes a MUX2, m15 adds one, m16 reads the clock on a data
    # pin and closes a loop through Q) come up as often as the rest.
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
        res = apply_pattern(circuit, gate_id, pattern_id, allow_relaxed=True)
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
    # on a ring, so it lengthens or reroutes a cycle that rows count; on a
    # flip-flop, m16 moves both sides of the rows on its ring at once.
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
                   for p in applicable_patterns(circuit, gid, allow_relaxed=True)]
        res = apply_pattern(circuit, *data.draw(st.sampled_from(options)), allow_relaxed=True)
        circuit = res.circuit
        scored = sorted(set(scored).union(res.new_net_ids))
        parent = assert_step_matches_rebuild(parent, res, scored)


@pytest.mark.parametrize("stem", fixture_names())
def test_delta_matches_rebuild_on_every_fixture_rewrite(stem, fixture_circuits):
    # Every net is scored, so a row on a ring that a rewrite reroutes (m16
    # on loop_counter's flip-flop, say) is hit on both sides.
    circuit = fixture_circuits[stem]
    scored = circuit.sorted_net_ids()
    for gid in circuit.sorted_gate_ids():
        for p in applicable_patterns(circuit, gid, allow_relaxed=True):
            res = apply_pattern(circuit, gid, p.pattern_id, allow_relaxed=True)
            # A fresh parent each time: the check merges the candidate's tables into its.
            assert_step_matches_rebuild(attack._Parent(circuit, scored), res,
                                        scored + list(res.new_net_ids))


def assert_reach_is_bfs(circuit) -> None:
    maps = _oracles._maps(circuit)
    for nid in circuit.sorted_net_ids():
        for is_input, side in ((True, "input"), (False, "output")):
            want = set(_oracles._net_levels(circuit, nid, side, features._DEPTH - 1, maps))
            assert features._reach(circuit, nid, is_input) == want, (nid, side)


# A wider reach re-walks sides that no rewrite can change: the rows stay
# equal, so only these comparisons catch it.
@pytest.mark.parametrize("stem", fixture_names())
def test_reach_equals_brute_force_bfs(stem, fixture_circuits):
    assert_reach_is_bfs(fixture_circuits[stem])


@pytest.mark.parametrize("index", [0, 1, 3])
def test_reach_equals_brute_force_bfs_on_synth_circuits(index):
    assert_reach_is_bfs(synth_circuit(index, seed=5))


@settings(max_examples=40, deadline=None)
@given(circuit=_oracles.feedback_circuits())
def test_reach_equals_brute_force_bfs_on_feedback_circuits(circuit):
    assert_reach_is_bfs(circuit)


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


def test_delta_extracts_only_new_nets_and_rows_hit_on_both_sides(scale300, monkeypatch):
    # Per candidate, the rows passed to extract_for_nets must be its new nets
    # plus the parent's scored nets that have, within _DEPTH - 1 crossings, a
    # net whose driver changed on the input side and one whose readers
    # changed on the output side.  Reaches and changes are recomputed here
    # by brute force over the whole graphs.  scale300 is acyclic, so no row
    # is hit on both sides; the rebuild tests above cover that case.
    seen = []  # (parent circuit, parent's scored nets, candidate, its scored nets, extracted)
    extracted: list[int] = []
    applied_to: list = []  # the circuit each candidate rewrites
    real_rows, real_extract = attack._Parent.candidate_rows, attack.extract_for_nets
    real_apply = attack.apply_pattern

    def apply_pattern(circuit, *args, **kwargs):
        applied_to.append(circuit)
        return real_apply(circuit, *args, **kwargs)

    def candidate_rows(self, res, net_ids):
        extracted.clear()
        out = real_rows(self, res, net_ids)
        seen.append((applied_to[-1], self.net_ids, res, list(net_ids), list(extracted)))
        return out

    def extract_for_nets(circuit, net_ids, *args, **kwargs):
        extracted.extend(net_ids)
        return real_extract(circuit, net_ids, *args, **kwargs)

    monkeypatch.setattr(attack._Parent, "candidate_rows", candidate_rows)
    monkeypatch.setattr(attack, "extract_for_nets", extract_for_nets)
    monkeypatch.setattr(attack, "apply_pattern", apply_pattern)
    w = np.random.default_rng(1).normal(scale=0.05, size=len(FEATURE_NAMES))
    oracle = lambda rows: 1.0 / (1.0 + np.exp(-rows @ w))
    res = run_attack(scale300, oracle, AttackConfig(alpha=math.inf, k_max=3))
    assert len(res.steps) == 3 and len(seen) == res.oracle_calls - 1

    reach: dict[int, dict[int, list[set[int]]]] = {}  # per parent, per scored net, per side
    old_rule = new_rule = 0
    for parent, scored, cand, net_ids, got in seen:
        if id(parent) not in reach:
            reach[id(parent)] = {
                nid: [set(_oracles._net_levels(parent, nid, side, features._DEPTH - 1))
                      for side in ("input", "output")]
                for nid in scored}
        sides = reach[id(parent)]
        drivers = [_oracles._driver_map(c) for c in (parent, cand.circuit)]
        readers = [_oracles._reader_map(c) for c in (parent, cand.circuit)]
        along = {v for v in parent.nets if drivers[0].get(v) != drivers[1].get(v)}
        against = {v for v in parent.nets
                   if set(readers[0].get(v, ())) != set(readers[1].get(v, ()))}
        fresh = set(net_ids) - set(scored)
        both = {nid for nid in scored if sides[nid][0] & along and sides[nid][1] & against}
        assert got == sorted(fresh | both), cand.pattern_id
        new_rule += len(got)
        # The rule it replaces: a touched net within reach on either side.
        touched = cand.driver_changed | cand.readers_changed
        old_rule += len(fresh) + sum(1 for nid in scored if (sides[nid][0] | sides[nid][1]) & touched)
    assert new_rule < old_rule
