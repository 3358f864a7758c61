"""51-dim structural feature extraction against the brute-force oracle."""
from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from conftest import assert_feature_csv, fixture_names, parse_scalegen
from htlab import (
    FEATURE_NAMES,
    NUM_FEATURES,
    CircuitGraph,
    Gate,
    MLPDetector,
    Net,
    NormStats,
    extract_all,
    extract_features,
    extract_for_nets,
    synth_circuit,
    write_feature_csv,
)
from htlab import features
from htlab.features import DistanceIndex, _cycles_through, _walk
from htlab.netlist import _KINDS, AND, DFF, MUX2
from htlab.rewrite import applicable_patterns, apply_pattern

IDX = {name: i for i, name in enumerate(FEATURE_NAMES)}


def test_feature_vector_shape():
    assert NUM_FEATURES == 51
    assert len(FEATURE_NAMES) == 51
    assert len(set(FEATURE_NAMES)) == 51


@pytest.mark.parametrize("stem", fixture_names())
def test_all_fixture_nets_match_oracle(stem, fixture_circuits):
    c = fixture_circuits[stem]
    for nid in c.sorted_net_ids():
        fast = extract_features(c, nid)
        slow = _oracles.oracle_features(c, nid)
        assert np.array_equal(fast, slow), (
            f"{stem}:{c.nets[nid].name} mismatch at "
            f"{[FEATURE_NAMES[i] for i in np.flatnonzero(fast != slow)]}"
        )


def test_spot_values_comb_tree(fixture_circuits):
    c = fixture_circuits["comb_tree"]
    f = extract_features(c, c.net_by_name("y").id)
    # y is driven by OR2 u3 (2 inputs) whose input-side level 2 holds NAND2 u2.
    assert f[IDX["fanin_lvl1"]] == 2
    assert f[IDX["fanin_lvl2"]] == 2
    assert f[IDX["fanin_lvl3"]] == 2
    assert f[IDX["fanin_lvl4"]] == 0
    # no flip-flops, muxes, loops, or constants anywhere
    assert not f[5:45].any()
    # y is a primary output; nearest PI is one gate crossing away (a feeds u3)
    assert f[IDX["dist_po"]] == 0
    assert f[IDX["dist_pi"]] == 1
    # unreachable gate classes sit at the sentinel
    assert f[IDX["dist_ff_in"]] == 100
    assert f[IDX["dist_mux_out"]] == 100


def test_spot_values_dff_pipe(fixture_circuits):
    c = fixture_circuits["dff_pipe"]
    f = extract_features(c, c.net_by_name("n1").id)
    # n1 = INV(q1); one DFF (r1) within level 2 input-side, r2 at level 1 output-side
    assert f[IDX["ff_in_le1"]] == 0
    assert f[IDX["ff_in_le2"]] == 1
    assert f[IDX["ff_out_le1"]] == 1
    # adjacent gate counts as level 1: r1 is behind i1 (2), r2 consumes n1 (1)
    assert f[IDX["dist_ff_in"]] == 2
    assert f[IDX["dist_ff_out"]] == 1


def test_spot_values_loop_counter(fixture_circuits):
    c = fixture_circuits["loop_counter"]
    f = extract_features(c, c.net_by_name("q").id)
    # q sits on the mux->dff feedback ring, so loops are seen both ways
    assert f[IDX["loop_in_le5"]] >= 1
    assert f[IDX["loop_out_le5"]] >= 1


def test_loop_in_equals_loop_out_everywhere(fixture_circuits):
    lo = slice(IDX["loop_in_le1"], IDX["loop_in_le5"] + 1)
    hi = slice(IDX["loop_out_le1"], IDX["loop_out_le5"] + 1)
    for c in fixture_circuits.values():
        for nid in c.sorted_net_ids():
            f = extract_features(c, nid)
            assert np.array_equal(f[lo], f[hi])


def test_const_out_always_zero(fixture_circuits):
    sl = slice(IDX["const_out_le1"], IDX["const_out_le5"] + 1)
    for c in fixture_circuits.values():
        for nid in c.sorted_net_ids():
            assert not extract_features(c, nid)[sl].any()


def test_const_in_counts(fixture_circuits):
    c = fixture_circuits["const_mix"]
    f = extract_features(c, c.net_by_name("t").id)
    # t = AND(a, c1) with c1 a constant-1 generator at input level 2
    assert f[IDX["const_in_le1"]] == 0
    assert f[IDX["const_in_le2"]] == 1


def test_unknown_net_raises_key_error(troj_mini):
    with pytest.raises(KeyError):
        extract_features(troj_mini, 10_000)


def test_dff_clock_pin_is_never_walked(fixture_circuits):
    c = fixture_circuits["dff_pipe"]
    # q2 <- r2 <- n1 <- i1 <- q1 <- r1 <- d: the primary input clk on r2's
    # clock pin would be one crossing away if clock pins were walked.
    f = extract_features(c, c.net_by_name("q2").id)
    assert f[IDX["dist_pi"]] == 3
    assert f[IDX["ff_in_le3"]] == 2
    # clk reaches every flip-flop through clock pins only.
    f = extract_features(c, c.net_by_name("clk").id)
    assert not f[IDX["ff_out_le1"]:IDX["ff_out_le5"] + 1].any()
    assert f[IDX["dist_ff_out"]] == 100
    assert f[IDX["dist_po"]] == 100


def test_unreachable_distance_is_sentinel(fixture_circuits):
    c = fixture_circuits["inv_chain"]
    nid = c.net_by_name("y").id
    full = extract_features(c, nid)
    assert full[IDX["dist_ff_in"]] == 100  # no flip-flops -> sentinel


def test_extract_all_matches_single(fixture_circuits):
    c = fixture_circuits["troj_mini"]
    fm = extract_all(c)
    assert fm.matrix.shape == (len(c.nets), NUM_FEATURES)
    assert fm.circuit_name == "troj_mini"
    for row, nid in enumerate(fm.net_ids):
        assert np.array_equal(fm.matrix[row], extract_features(c, nid))
        assert fm.labels[row] == (1 if c.is_trojan_net(nid) else 0)
        assert fm.net_names[row] == c.nets[nid].name


def test_index_path_equals_direct_path():
    # extract_for_nets flips to the precomputed DistanceIndex above 16 nets;
    # both paths must agree exactly.
    c = synth_circuit(3, seed=99)
    nids = c.sorted_net_ids()[:40]
    fm = extract_for_nets(c, nids)
    for row, nid in enumerate(nids):
        assert np.array_equal(fm.matrix[row], extract_features(c, nid))


def test_synth_circuit_net_matches_oracle():
    c = synth_circuit(0, seed=7)
    rng = np.random.default_rng(0)
    sample = list(rng.choice(c.sorted_net_ids(), size=12, replace=False))
    sample += sorted(c.trojan_net_ids)[:4]
    for nid in sample:
        assert np.array_equal(extract_features(c, int(nid)), _oracles.oracle_features(c, int(nid)))


@settings(max_examples=8, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_hypothesis_index_and_direct_agree(index, seed):
    c = synth_circuit(index, seed=seed)
    nids = c.sorted_net_ids()
    pick = nids[:: max(1, len(nids) // 20)][:24]
    fm = extract_for_nets(c, pick)
    for row, nid in enumerate(pick):
        assert np.array_equal(fm.matrix[row], extract_features(c, nid))


@settings(max_examples=16, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_hypothesis_direct_path_matches_oracle(index, seed, data):
    # No DistanceIndex is passed, so every distance comes from the per-net
    # walk.  One net is drawn among those the index puts 6..99 crossings
    # from a target, so the walk past depth 5 is exercised every time.
    c = synth_circuit(index, seed=seed)
    nids = c.sorted_net_ids()
    dist = DistanceIndex.build(c)
    far = [nid for nid in nids if any(5 < d < 100 for d in dist.lookup(nid))]
    sample = data.draw(st.lists(st.sampled_from(nids), min_size=4, max_size=4))
    sample.append(data.draw(st.sampled_from(far)))
    rows = [extract_features(c, nid) for nid in sample]
    for nid, row in zip(sample, rows):
        slow = _oracles.oracle_features(c, nid)
        assert np.array_equal(row, slow), (
            f"{c.nets[nid].name} mismatch at "
            f"{[FEATURE_NAMES[i] for i in np.flatnonzero(row != slow)]}"
        )
    assert any(((row[45:] > 5) & (row[45:] < 100)).any() for row in rows)


@settings(max_examples=40, deadline=None)
@given(c=_oracles.feedback_circuits())
def test_hypothesis_feedback_rows_match_oracle(c):
    # Every net of a circuit with flip-flop rings, by the per-net walk and by
    # the DistanceIndex path; its clocks are primary inputs that may also
    # feed data pins.
    nids = c.sorted_net_ids()
    rows = np.stack([extract_features(c, nid) for nid in nids])
    assert np.array_equal(extract_all(c).matrix, rows)
    for nid, row in zip(nids, rows):
        slow = _oracles.oracle_features(c, nid)
        assert np.array_equal(row, slow), (
            f"{c.nets[nid].name} mismatch at "
            f"{[FEATURE_NAMES[i] for i in np.flatnonzero(row != slow)]}"
        )
    assert rows[:, IDX["loop_in_le1"]:IDX["loop_out_le5"] + 1].any()


def _dff_ring(crossings: int) -> CircuitGraph:
    """A ring of ``crossings`` gates: AND2s gated by a primary input, closed
    by one DFF.  Net ``r0`` is the DFF's Q; the ring nets are ``r*``."""
    nets = [Net(0, "clk"), Net(1, "en")] + [Net(2 + i, f"r{i}") for i in range(crossings)]
    ring = [n.id for n in nets[2:]]
    gates = [Gate(0, DFF, (ring[-1], 0), ring[0], "ff")]
    gates += [Gate(i, AND[2], (ring[i - 1], 1), ring[i], f"u{i}") for i in range(1, crossings)]
    return CircuitGraph(f"ring{crossings}", gates, nets, [0, 1], [ring[-1]])


def _mux_ring(crossings: int) -> CircuitGraph:
    """A combinational ring of ``crossings`` gates through net ``r0``: AND2s
    gated by a primary input, closed by the MUX2 that drives ``r0``.  That
    MUX2 reads the ring on both data pins (both ``r0`` when ``crossings`` is
    1), so an output-side walk from ``r0`` can meet it at two levels."""
    nets = [Net(0, "en")] + [Net(1 + i, f"r{i}") for i in range(crossings)]
    ring = [n.id for n in nets[1:]]
    gates = [Gate(0, MUX2, (ring[-1], ring[max(crossings - 2, 0)], 0), ring[0], "mux")]
    gates += [Gate(i, AND[2], (ring[i - 1], 0), ring[i], f"u{i}") for i in range(1, crossings)]
    return CircuitGraph(f"muxring{crossings}", gates, nets, [0], [ring[-1]])


def test_loop_budget_is_exact():
    # A cycle of exactly _DEPTH crossings is counted at level 5 and no lower;
    # one crossing more and it is out of every loop column.
    loop_in = slice(IDX["loop_in_le1"], IDX["loop_in_le5"] + 1)
    loops = slice(IDX["loop_in_le1"], IDX["loop_out_le5"] + 1)
    for crossings in (5, 6):
        c = _dff_ring(crossings)
        fm = extract_all(c)
        for nid in c.sorted_net_ids():
            row = extract_features(c, nid)
            assert np.array_equal(row, fm.row_for(nid))
            assert np.array_equal(row, _oracles.oracle_features(c, nid))
            on_ring = c.nets[nid].name.startswith("r")
            want = [0, 0, 0, 0, int(on_ring and crossings == 5)]
            assert list(row[loop_in]) == want
            assert np.array_equal(row[loops], want * 2)
    # On a ring through the start net, the output-side walk meets the net's
    # own driver, whose output it has held since level 0; it counts once.
    for c in map(_mux_ring, range(1, 6)):
        for nid in c.sorted_net_ids():
            assert np.array_equal(extract_features(c, nid), _oracles.oracle_features(c, nid))


def _every_kind() -> CircuitGraph:
    """One gate of each of the 31 kinds, all reading the same five primary
    inputs and each driving a primary output."""
    nets = [Net(i, f"p{i}") for i in range(5)]
    gates = []
    for gid, kind in enumerate(_KINDS.values()):
        nets.append(Net(5 + gid, f"y{gid}"))
        gates.append(Gate(gid, kind, tuple(range(kind.num_inputs)), 5 + gid, f"g{gid}"))
    return CircuitGraph("kinds", gates, nets, list(range(5)), [n.id for n in nets[5:]])


def test_every_kind_counts_as_the_oracle_does():
    # Every input's row meets all kinds on its output side, and every
    # output's row meets its own gate's kind.
    assert len(_KINDS) == 31
    c = _every_kind()
    for nid in c.sorted_net_ids():
        row = extract_features(c, nid)
        slow = _oracles.oracle_features(c, nid)
        assert np.array_equal(row, slow), (
            f"{c.nets[nid].name} mismatch at "
            f"{[FEATURE_NAMES[i] for i in np.flatnonzero(row != slow)]}"
        )


def _per_net(circuit: CircuitGraph) -> np.ndarray:
    """Every net's row from :func:`extract_features`, the slow twin of
    :func:`extract_all`, in sorted net-id order."""
    return np.array([extract_features(circuit, nid) for nid in circuit.sorted_net_ids()],
                    dtype=np.float64).reshape(-1, NUM_FEATURES)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), inputs=st.integers(1, 6), gates=st.integers(1, 60),
       sequential=st.booleans(), steps=st.integers(0, 3), data=st.data())
def test_hypothesis_extract_all_matches_per_net_rows(seed, inputs, gates, sequential, steps, data):
    # The pattern is drawn before the gate, so m13 (a MUX2 becomes AND/OR/NOT),
    # m15 (a DFF gains a MUX2) and m16 (a DFF becomes a four-NAND loop) come
    # up as often as the rest; rewrites leave gaps in the net ids.
    c = _oracles.random_circuit(seed, inputs, gates, sequential)
    for _ in range(steps):
        sites: dict[str, list[int]] = {}
        for gid in c.sorted_gate_ids():
            for p in applicable_patterns(c, gid, allow_relaxed=True):
                sites.setdefault(p.pattern_id, []).append(gid)
        if not sites:
            break
        pattern_id = data.draw(st.sampled_from(sorted(sites)))
        gate_id = data.draw(st.sampled_from(sites[pattern_id]))
        c = apply_pattern(c, gate_id, pattern_id, allow_relaxed=True).circuit
    assert np.array_equal(extract_all(c).matrix, _per_net(c))


_EDGE_CIRCUITS = {
    "empty": lambda: CircuitGraph("empty", [], [], [], []),
    "gateless": lambda: CircuitGraph("gateless", [], [Net(3, "a"), Net(9, "f")], [3], [3]),
    "inputs_only": lambda: CircuitGraph("inputs", [], [Net(i, f"p{i}") for i in range(4)],
                                        range(4), []),
    "every_kind": _every_kind,
    **{f"dff_ring{n}": (lambda n=n: _dff_ring(n)) for n in range(1, 7)},
    **{f"mux_ring{n}": (lambda n=n: _mux_ring(n)) for n in range(1, 6)},
}


@pytest.mark.parametrize("name", _EDGE_CIRCUITS)
def test_extract_all_matches_per_net_rows_on_edge_circuits(name):
    c = _EDGE_CIRCUITS[name]()
    fm = extract_all(c)
    assert fm.matrix.shape == (len(c.nets), NUM_FEATURES)
    assert np.array_equal(fm.matrix, _per_net(c))


def test_cycle_search_runs_only_for_nets_on_short_cycles(monkeypatch, scale300):
    # extract_all runs the cycle search for a net only when a cycle of at
    # most five crossings passes through it: exactly the nets with a loop.
    searched = []
    search = features._cycles_through

    def counted(circuit, net_id, *args):
        searched.append(net_id)
        return search(circuit, net_id, *args)

    monkeypatch.setattr(features, "_cycles_through", counted)
    feedback_free = [_oracles.random_circuit(s, 3, 40, False) for s in range(4)] + [scale300]
    for c in feedback_free:
        extract_all(c)
        assert searched == []
    for c, on_ring in ((_dff_ring(5), 5), (_dff_ring(6), 0), (_mux_ring(3), 3)):
        fm = extract_all(c)
        assert searched == [nid for nid, row in zip(fm.net_ids, fm.matrix)
                            if row[IDX["loop_in_le5"]]]
        assert len(searched) == on_ring
        searched.clear()


class _CountingGraph:
    """A graph whose driver lookups are counted."""

    def __init__(self, circuit: CircuitGraph):
        self.circuit = circuit
        self.lookups = 0

    def driver(self, net_id: int):
        self.lookups += 1
        return self.circuit.driver(net_id)


def test_cycle_search_on_feedback_free_nets_reads_one_driver():
    # Seven layers of 40 AND5 gates, each reading 5 nets of the layer above:
    # every net five layers down has 5**4 backward paths of 4 crossings, and
    # none closes a cycle, so the exact search stops at the net's driver.
    rng = random.Random(5)
    layer = list(range(40))
    nets = [Net(i, f"i{i}") for i in layer]
    gates = []
    for _ in range(7):
        out = list(range(len(nets), len(nets) + 40))
        nets += [Net(i, f"n{i}") for i in out]
        for v in out:
            gates.append(Gate(len(gates), AND[5], tuple(rng.sample(layer, 5)), v, f"g{v}"))
        layer = out
    c = CircuitGraph("layered", gates, nets, range(40), layer)
    # With every net one crossing ahead, only the length bound prunes.
    unpruned = _CountingGraph(c)
    _cycles_through(unpruned, layer[0], 5, dict.fromkeys(c.nets, 1))
    assert unpruned.lookups == 1 + 5 + 25 + 125 + 625
    for nid in c.sorted_net_ids():
        counted = _CountingGraph(c)
        assert _cycles_through(counted, nid, 5, _walk(c, nid, False, False)[2]) == []
        assert counted.lookups == 1


def test_feature_matrices_are_pinned(corpus12, fixture_circuits):
    # The acceptance thresholds, the benchmark's digests and every trained
    # model read these bytes; any change to a feature value shows here.
    circuits = [*corpus12, *(fixture_circuits[stem] for stem in fixture_names()),
                parse_scalegen(1000, 16)]
    digest = hashlib.sha256()
    for c in circuits:
        fm = extract_all(c)
        digest.update(fm.matrix.tobytes())
        digest.update(fm.labels.tobytes())
    assert digest.hexdigest() == (
        "25647794e74d082f67177b089ea857cac14d3161dfa43c0fc00956765502d3cc")


# -- normalization -------------------------------------------------------------


def test_norm_stats_fit_apply():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 50, size=(40, NUM_FEATURES))
    stats = NormStats.fit(x)
    z = stats.apply(x)
    assert z.min() >= 0.0 and z.max() <= 1.0
    assert np.isclose(z.max(), 1.0)
    # constant column maps to 0, not NaN
    x[:, 7] = 4.2
    z2 = NormStats.fit(x).apply(x)
    assert np.all(z2[:, 7] == 0.0)
    assert np.isfinite(z2).all()


def test_norm_stats_round_trip():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 9, size=(10, NUM_FEATURES))
    stats = NormStats.fit(x)
    model = MLPDetector()
    model.norm = stats
    clone = MLPDetector.from_json_dict(json.loads(json.dumps(model.to_json_dict()))).norm
    assert np.array_equal(clone.apply(x), stats.apply(x))


def test_norm_stats_degenerate_mask():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 9, size=(10, NUM_FEATURES))
    x[:, 3] = 7.0
    stats = NormStats.fit(x)
    assert stats.degenerate[3]
    assert not stats.degenerate[0]


# -- CSV export ------------------------------------------------------------------


def test_feature_csv_round_trip(tmp_path, fixture_circuits):
    fm = extract_all(fixture_circuits["troj_mini"])
    path = str(tmp_path / "f.csv")
    write_feature_csv(path, fm)
    assert_feature_csv(path, fm)
