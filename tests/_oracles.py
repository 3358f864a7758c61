"""Brute-force reference feature extractor, independent of htlab.features,
plus reference simulation, textbook MLP arithmetic, a reference greedy
attack, gray-box oracle doubles and the random circuits with flip-flop
feedback that property tests draw.

Everything here is recomputed from the raw gate/net tables with naive
breadth-first and depth-first walks: no DistanceIndex, no CircuitGraph
adjacency queries, no shared adjacency caches.  Slow and simple on purpose --
these values are the ground truth the fast extractor is checked against.

Conventions restated from the feature definitions:

* Levels are minimal gate crossings; the gate adjacent to the start net is
  level 1.  Flip-flops are crossed through the D pin only; the MUX2 select
  pin is an ordinary data input.
* Features 1-5: total data-input pins of combinational gates at exact
  input-side level n (flip-flops and constants excluded).
* Features 6-45: distinct DFF / MUX2 / loop / constant counts within n
  levels per side (cumulative).  Loops are simple directed cycles through
  the net, deduplicated on their net-id set, counted by minimal crossing
  length; the input-side and output-side walks must find the same cycles.
* Features 46-51: minimal crossings to a primary input / primary output /
  DFF / MUX2 per side, saturated at the sentinel (100).
"""

from __future__ import annotations

import math
import random

import numpy as np
from hypothesis import strategies as st

from htlab import CellKind, CircuitGraph, Gate, Net

COMBINATIONAL = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF", "MUX2")


def _data_inputs(gate) -> list[int]:
    if gate.kind.family == "DFF":
        return [gate.inputs[0]]
    return list(gate.inputs)


def _driver_map(circuit) -> dict[int, object]:
    out = {}
    for g in circuit.gates.values():
        out[g.output] = g
    return out


def _reader_map(circuit) -> dict[int, list[object]]:
    out: dict[int, list[object]] = {}
    for g in circuit.gates.values():
        for nid in _data_inputs(g):
            out.setdefault(nid, []).append(g)
    return out


def _maps(circuit) -> tuple[dict, dict]:
    return _driver_map(circuit), _reader_map(circuit)


def _gate_levels(circuit, net_id: int, direction: str, max_level: int,
                 maps=None) -> dict[int, int]:
    """Minimal level of every gate reachable within ``max_level`` crossings."""
    drivers, readers = maps or _maps(circuit)
    levels: dict[int, int] = {}
    seen_nets = {net_id}
    frontier = [net_id]
    for level in range(1, max_level + 1):
        nxt = []
        for nid in frontier:
            if direction == "input":
                gates = [drivers[nid]] if nid in drivers else []
            else:
                gates = readers.get(nid, [])
            for g in gates:
                if g.id in levels:
                    continue
                levels[g.id] = level
                nets = _data_inputs(g) if direction == "input" else [g.output]
                for v in nets:
                    if v not in seen_nets:
                        seen_nets.add(v)
                        nxt.append(v)
        frontier = nxt
        if not frontier:
            break
    return levels


def _net_levels(circuit, net_id: int, direction: str, max_level: int,
                maps=None) -> dict[int, int]:
    """Minimal level of every net reachable within ``max_level`` crossings."""
    drivers, readers = maps or _maps(circuit)
    levels = {net_id: 0}
    frontier = [net_id]
    level = 0
    while frontier and level < max_level:
        level += 1
        nxt = []
        for nid in frontier:
            if direction == "input":
                gates = [drivers[nid]] if nid in drivers else []
            else:
                gates = readers.get(nid, [])
            for g in gates:
                nets = _data_inputs(g) if direction == "input" else [g.output]
                for v in nets:
                    if v not in levels:
                        levels[v] = level
                        nxt.append(v)
        frontier = nxt
    return levels


def _cycles(circuit, net_id: int, direction: str, max_gates: int, maps=None) -> list[int]:
    """Minimal lengths of distinct simple cycles through ``net_id``."""
    drivers, readers = maps or _maps(circuit)
    found: dict[frozenset[int], int] = {}

    def neighbors(nid: int) -> list[int]:
        if direction == "input":
            g = drivers.get(nid)
            return _data_inputs(g) if g is not None else []
        out = []
        for g in readers.get(nid, []):
            out.append(g.output)
        return out

    def walk(nid: int, crossed: int, path: frozenset[int]) -> None:
        if crossed == max_gates:
            return
        for nxt in neighbors(nid):
            if nxt == net_id:
                key = path
                if key not in found or crossed + 1 < found[key]:
                    found[key] = crossed + 1
            elif nxt not in path:
                walk(nxt, crossed + 1, path | {nxt})

    walk(net_id, 0, frozenset({net_id}))
    return sorted(found.values())


def oracle_features(circuit, net_id: int, depth: int = 5, sentinel: int = 100) -> np.ndarray:
    """All 51 features of one net, recomputed the slow way."""
    gates = circuit.gates
    maps = _maps(circuit)  # the helpers' driver and reader tables, built once
    in_levels = _gate_levels(circuit, net_id, "input", depth, maps)
    out_levels = _gate_levels(circuit, net_id, "output", depth, maps)

    vec = np.zeros(51, dtype=np.float64)
    for gid, level in in_levels.items():
        kind = gates[gid].kind
        if kind.family in COMBINATIONAL:
            vec[level - 1] += len(_data_inputs(gates[gid]))

    def fill_counts(base: int, levels: dict[int, int], families: tuple[str, ...]) -> None:
        for n in range(1, depth + 1):
            vec[base + n - 1] = sum(
                1 for gid, lv in levels.items()
                if lv <= n and gates[gid].kind.family in families
            )

    fill_counts(5, in_levels, ("DFF",))
    fill_counts(10, out_levels, ("DFF",))
    fill_counts(15, in_levels, ("MUX2",))
    fill_counts(20, out_levels, ("MUX2",))

    loops_in = _cycles(circuit, net_id, "input", depth, maps)
    loops_out = _cycles(circuit, net_id, "output", depth, maps)
    for n in range(1, depth + 1):
        vec[25 + n - 1] = sum(1 for c in loops_in if c <= n)
        vec[30 + n - 1] = sum(1 for c in loops_out if c <= n)

    fill_counts(35, in_levels, ("CONST0", "CONST1"))
    fill_counts(40, out_levels, ("CONST0", "CONST1"))

    in_gates_far = _gate_levels(circuit, net_id, "input", sentinel, maps)
    out_gates_far = _gate_levels(circuit, net_id, "output", sentinel, maps)
    in_nets_far = _net_levels(circuit, net_id, "input", sentinel, maps)
    out_nets_far = _net_levels(circuit, net_id, "output", sentinel, maps)

    def gate_dist(levels: dict[int, int], family: str) -> int:
        best = [lv for gid, lv in levels.items() if gates[gid].kind.family == family]
        return min(min(best), sentinel) if best else sentinel

    def net_dist(levels: dict[int, int], targets: set[int]) -> int:
        best = [lv for nid, lv in levels.items() if nid in targets]
        return min(min(best), sentinel) if best else sentinel

    vec[45] = net_dist(in_nets_far, set(circuit.primary_inputs))
    vec[46] = net_dist(out_nets_far, set(circuit.primary_outputs))
    vec[47] = gate_dist(in_gates_far, "DFF")
    vec[48] = gate_dist(out_gates_far, "DFF")
    vec[49] = gate_dist(in_gates_far, "MUX2")
    vec[50] = gate_dist(out_gates_far, "MUX2")
    return vec


# ---------------------------------------------------------------------------
# Random circuits with flip-flop feedback
# ---------------------------------------------------------------------------

# Constants are rare so that most outputs still depend on the inputs.
_FAMILIES = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR") * 2 + (
    "NOT", "BUF", "MUX2", "MUX2", "CONST0", "CONST1")
_FIXED_FANIN = {"NOT": 1, "BUF": 1, "MUX2": 3, "CONST0": 0, "CONST1": 0}


def random_circuit(seed: int, n_inputs: int, n_gates: int, sequential: bool) -> CircuitGraph:
    """A random circuit; flip-flops (only when ``sequential``) break every loop.

    A flip-flop's D and reset may read any net, so flip-flops can close
    rings, and its clock is a primary input that may also feed data pins.  A few nets are left floating.  A random gate set, and the nets
    those gates drive, is labelled Trojan.
    """
    rng = random.Random(seed)
    pis = list(range(n_inputs))
    nets = [Net(k, f"i{k}") for k in pis]
    nets += [Net(len(nets) + k, f"f{k}") for k in range(rng.randint(0, 2))]  # floating
    sources = [n.id for n in nets]
    outs = [len(nets) + k for k in range(n_gates)]
    nets += [Net(nid, f"n{k}") for k, nid in enumerate(outs)]
    dffs = set()
    if sequential:
        dffs = set(rng.sample(range(n_gates), rng.randint(1, max(1, n_gates // 4))))
    gates = []
    for k, out in enumerate(outs):
        if k in dffs:
            pins = [rng.choice(sources + outs), rng.choice(pis)]
            if rng.random() < 0.5:
                pins.append(rng.choice(sources + outs))
            kind = CellKind("DFF", 1, has_reset=len(pins) == 3)
        else:
            family = rng.choice(_FAMILIES)
            kind = CellKind(family, _FIXED_FANIN.get(family, rng.randint(2, 5)))
            pins = [rng.choice(sources + outs[:k]) for _ in range(kind.fanin)]
        gates.append(Gate(k, kind, tuple(pins), out, f"g{k}"))
    # Every flip-flop is observable, so that its reset shows at an output.
    pos = sorted({outs[-1], *(outs[k] for k in dffs),
                  *rng.sample(outs, min(n_gates, rng.randint(1, 4)))})
    trojan = rng.sample(range(n_gates), rng.randint(1, max(1, n_gates // 2)))
    return CircuitGraph(f"rand{seed}", gates, nets, pis, pos,
                        trojan, [outs[k] for k in trojan])


def ring_trojan_nets(circuit) -> list[int]:
    """Trojan nets on a simple data-pin cycle of at most 5 gate crossings."""
    return [nid for nid in sorted(circuit.trojan_net_ids) if _cycles(circuit, nid, "input", 5)]


def feedback_circuits():
    """Strategy: sequential random circuits in which a Trojan net lies on a
    short ring, so loop columns reach every row set and oracle call."""
    return st.builds(random_circuit, st.integers(0, 2**32), st.integers(2, 6),
                     st.integers(20, 40), st.just(True)).filter(ring_trojan_nets)


# ---------------------------------------------------------------------------
# Reference simulator, independent of htlab.rewrite
# ---------------------------------------------------------------------------


def _gate_value(family: str, ins: list[int]) -> int:
    if family == "AND":
        return int(all(ins))
    if family == "NAND":
        return 1 - all(ins)
    if family == "OR":
        return int(any(ins))
    if family == "NOR":
        return 1 - any(ins)
    if family == "XOR":
        return sum(ins) % 2
    if family == "XNOR":
        return 1 - sum(ins) % 2
    if family == "NOT":
        return 1 - ins[0]
    if family == "BUF":
        return ins[0]
    if family == "MUX2":
        a, b, s = ins
        return b if s else a
    return int(family == "CONST1")


def reference_step(circuit, inputs: dict[int, int], state: dict[int, int]):
    """One vector, one cycle: (every net's 0/1 value, every DFF's next Q).

    Nets are evaluated on demand through their drivers, one gate at a time.
    Undriven nets read ``inputs`` (default 0); a DFF's Q reads ``state``
    (default 0); a reset (third pin, active high) clears the next Q.
    """
    drivers = _driver_map(circuit)
    values: dict[int, int] = {}

    def value(nid: int) -> int:
        if nid not in values:
            g = drivers.get(nid)
            if g is None:
                values[nid] = inputs.get(nid, 0)
            elif g.kind.family == "DFF":
                values[nid] = state.get(g.id, 0)
            else:
                values[nid] = _gate_value(g.kind.family, [value(i) for i in g.inputs])
        return values[nid]

    for nid in circuit.nets:
        value(nid)
    next_state = {}
    for g in circuit.gates.values():
        if g.kind.family == "DFF":
            reset = len(g.inputs) == 3 and values[g.inputs[2]]
            next_state[g.id] = 0 if reset else values[g.inputs[0]]
    return values, next_state


def reference_equivalence(c1, c2, seed=0, max_exhaustive_inputs=16,
                          num_random_vectors=10_000, num_sequences=100,
                          sequence_length=64):
    """``(equivalent, mode, vectors, counterexample)`` one vector at a time.

    The same vectors as ``check_equivalence`` draws: exhaustive inputs count
    up in chunks of 2**13 (input k of vector j is bit k of j); random and
    sequential inputs are ``default_rng(seed).integers(0, 2, (n_in, width))``
    per round, one round per cycle.  Within the first failing round the
    counterexample is the lowest vector on which the first differing output,
    in sorted-name order, differs.
    """
    pi_names = sorted(c1.nets[n].name for n in c1.primary_inputs)
    po_names = sorted(c1.nets[n].name for n in c1.primary_outputs)
    sequential = any(g.kind.family == "DFF"
                     for c in (c1, c2) for g in c.gates.values())
    n_in = len(pi_names)
    rng = np.random.default_rng(seed)
    if sequential:
        mode, total = "sequential", num_sequences * sequence_length
        rounds = [rng.integers(0, 2, size=(n_in, num_sequences))
                  for _ in range(sequence_length)]
    elif n_in <= max_exhaustive_inputs:
        mode, total = "exhaustive", 2 ** n_in
        spans = [range(start, min(start + 2 ** 13, total)) for start in range(0, total, 2 ** 13)]
        rounds = [np.array([[(j >> k) & 1 for j in span] for k in range(n_in)],
                           dtype=np.int64).reshape(n_in, len(span))
                  for span in spans]
    else:
        mode, total = "random", num_random_vectors
        rounds = [rng.integers(0, 2, size=(n_in, num_random_vectors))]
    width = rounds[0].shape[1] if n_in else 1
    states = {c: [{} for _ in range(width)] for c in (c1, c2)}
    for cycle, bits in enumerate(rounds):
        width = bits.shape[1] if n_in else 1
        outs = {}
        for c in (c1, c2):
            outs[c] = []
            for j in range(width):
                inputs = {c.net_by_name(name).id: int(bits[k, j])
                          for k, name in enumerate(pi_names)}
                values, states[c][j] = reference_step(c, inputs, states[c][j])
                outs[c].append({name: values[c.net_by_name(name).id] for name in po_names})
        for name in po_names:
            for j in range(width):
                if outs[c1][j][name] != outs[c2][j][name]:
                    cex = {pi: int(bits[k, j]) for k, pi in enumerate(pi_names)}
                    if sequential:
                        cex["__cycle"] = cycle
                    return False, mode, total if sequential else width, cex
    return True, mode, total, None


# ---------------------------------------------------------------------------
# Textbook MLP arithmetic, independent of htlab.model
# ---------------------------------------------------------------------------
#
# Every temporary is a fresh array and every formula is written out whole.
# htlab.model computes the same float64 operations in the same order with
# fewer temporaries, so its results must match these bit for bit.


def reference_sigmoid(z: np.ndarray) -> np.ndarray:
    """``1/(1+exp(-z))`` on ``z >= 0`` and ``exp(z)/(1+exp(z))`` below, by masks."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_normalize(norm, x_raw: np.ndarray) -> np.ndarray:
    """Min-max scaling into [0, 1]; constant columns map to 0."""
    degenerate = norm.col_max == norm.col_min
    span = np.where(degenerate, 1.0, norm.col_max - norm.col_min)
    out = (np.asarray(x_raw, dtype=np.float64) - norm.col_min) / span
    return np.clip(np.where(degenerate, 0.0, out), 0.0, 1.0)


def reference_activations(model, x01: np.ndarray) -> list[np.ndarray]:
    acts = [np.atleast_2d(np.asarray(x01, dtype=np.float64))]
    for w, b in zip(model.weights, model.biases):
        acts.append(reference_sigmoid(acts[-1] @ w + b))
    return acts


def reference_loss_and_grads(model, x01, y, class_weight: float = 1.0):
    """Weighted BCE through the output clamp, and its gradients by backprop."""
    acts = reference_activations(model, x01)
    y = np.asarray(y, dtype=np.float64)
    n = acts[0].shape[0]
    p = acts[-1][:, 0]
    eps = 1e-7  # the clamp keeps log() finite on a saturated output
    pc = np.clip(p, eps, 1.0 - eps)
    loss = float(-np.mean(class_weight * y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))
    inside = (p > eps) & (p < 1.0 - eps)
    dp = (-class_weight * y / pc + (1.0 - y) / (1.0 - pc)) / n
    dz = (dp * inside * p * (1.0 - p))[:, None]
    grads_w, grads_b = [], []
    for k in range(len(model.weights) - 1, -1, -1):
        grads_w.insert(0, acts[k].T @ dz)
        grads_b.insert(0, dz.sum(axis=0))
        if k:
            da = dz @ model.weights[k].T
            dz = da * acts[k] * (1.0 - acts[k])
    return loss, grads_w + grads_b


def reference_adam_step(model, grads) -> None:
    """Kingma & Ba's Adam update of ``model``'s parameters and moments, with
    their suggested step size, decays and epsilon."""
    lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8
    model._adam_t += 1
    t = model._adam_t
    params = model.weights + model.biases
    for i, (p, g) in enumerate(zip(params, grads)):
        m = model._adam_m[i] = beta1 * model._adam_m[i] + (1 - beta1) * g
        v = model._adam_v[i] = beta2 * model._adam_v[i] + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        p -= lr * mhat / (np.sqrt(vhat) + eps)


# ---------------------------------------------------------------------------
# Training loops written out per phase
# ---------------------------------------------------------------------------
#
# Each loop draws its own epoch permutation and, in robust training, picks
# Trojan rows with the same generator, in this order.  htlab's two loops share
# only their batch routine (``model._batches``), so each is held to its own
# reference here, and its weights must match bit for bit.


def _epoch_indices(y, oversample, rng):
    from htlab.model import _oversampled_indices

    idx = np.arange(len(y))
    if oversample:
        idx = _oversampled_indices(y, rng)
    return rng.permutation(idx)


def reference_fit(model, x_raw, y, epochs, batch_size, class_weight, oversample, shuffle_seed):
    """Plain training: fit the scaling, then every slice of each epoch's shuffle."""
    from htlab.features import NormStats

    y = np.asarray(y, dtype=np.float64)
    model.norm = NormStats.fit(x_raw)
    x = model.norm.apply(x_raw)
    rng = np.random.default_rng(shuffle_seed)
    losses = []
    for _ in range(epochs):
        idx = _epoch_indices(y, oversample, rng)
        batch = [model.train_batch(x[idx[s : s + batch_size]], y[idx[s : s + batch_size]],
                                   class_weight)
                 for s in range(0, len(idx), batch_size)]
        losses.append(float(np.mean(batch)))
    return losses


def reference_train_robust(samples, config):
    """Warm-up epochs, then adversarial epochs; full batches only."""
    from htlab import MLPConfig, MLPDetector, NormStats, generate_adversarial

    x_raw = np.stack([s.features for s in samples]).astype(np.float64)
    y = np.array([s.label for s in samples], dtype=np.float64)
    model = MLPDetector(MLPConfig(init_seed=config.seed))
    model.norm = NormStats.fit(x_raw)
    x01 = model.norm.apply(x_raw)
    rng = np.random.default_rng(config.seed)
    m = config.batch_size

    def full_batches():
        idx = _epoch_indices(y, config.oversample, rng)
        return [idx[i * m : (i + 1) * m] for i in range(len(idx) // m)]

    init_losses, epoch_losses, generated = [], [], 0
    for _ in range(config.init_epochs):
        losses = [model.train_batch(x01[b], y[b], config.class_weight) for b in full_batches()]
        init_losses.append(float(np.mean(losses)) if losses else 0.0)
    n_adv = config.adversarial_per_batch
    for _ in range(config.epochs):
        losses = []
        for b in full_batches():
            xb, yb = x01[b], y[b]
            trojan_rows = b[y[b] == 1]
            if len(trojan_rows) >= config.min_trojan_per_batch and n_adv > 0:
                chosen = rng.choice(trojan_rows, size=n_adv, replace=False)
                oracle = model.as_oracle()
                adv = [generate_adversarial(samples[int(i)], oracle, config.attack_budget,
                                            config.allow_relaxed) for i in chosen]
                generated += len(adv)
                xb = np.vstack([xb, model.norm.apply(np.stack(adv))])
                yb = np.concatenate([yb, np.ones(len(adv))])
            losses.append(model.train_batch(xb, yb, config.class_weight))
        epoch_losses.append(float(np.mean(losses)) if losses else 0.0)
    return model, init_losses, epoch_losses, generated


# ---------------------------------------------------------------------------
# Reference greedy attack, independent of htlab.attack
# ---------------------------------------------------------------------------


def reference_attack(circuit, oracle, alpha, k_max, target=None):
    """The greedy attack written out whole: ``(steps, metrics, oracle_calls)``.

    Each step tries every (remaining original Trojan gate, applicable pattern)
    pair in (gate id, catalog order) order.  It rebuilds each rewritten
    circuit from its parts, scores it from ``oracle_features`` rows of its
    Trojan nets (or of the one ``target`` net) in net-id order, and keeps the
    first strict minimum.  That candidate is taken only if its metric is below
    the current one; otherwise the attack stops.  A taken gate leaves the
    pool.  Each step is ``(gate id, pattern id, metric, candidates
    evaluated)``; ``metrics`` starts with the unmodified circuit's.
    """
    from htlab.rewrite import PATTERNS, apply_pattern

    calls = 0

    def metric(c) -> float:
        nonlocal calls
        nets = [target] if target is not None else sorted(c.trojan_net_ids)
        rows = np.stack([oracle_features(c, nid) for nid in nets])
        probs = np.asarray(oracle(rows), dtype=np.float64).reshape(-1)
        calls += 1
        logs = np.log(np.clip(probs, 1e-7, 1.0 - 1e-7))
        if target is not None:
            return float(logs[0])
        if math.isinf(alpha):
            return float(np.max(logs))
        return float(-np.mean(np.abs(logs) ** alpha))

    current = circuit
    metrics = [metric(circuit)]
    pool = sorted(circuit.trojan_gate_ids)
    steps = []
    for _ in range(k_max):
        best, evaluated = None, 0
        for gid in pool:
            for pattern in PATTERNS:
                if not pattern.applies_to(current.gates[gid]):
                    continue
                got = apply_pattern(current, gid, pattern.pattern_id).circuit
                cand = CircuitGraph(got.name, got.gates.values(), got.nets.values(),
                                    got.primary_inputs, got.primary_outputs,
                                    got.trojan_gate_ids, got.trojan_net_ids)
                m = metric(cand)
                evaluated += 1
                if best is None or m < best[0]:
                    best = (m, gid, pattern.pattern_id, cand)
        if best is None or not best[0] < metrics[-1]:
            break
        m, gid, pattern_id, current = best
        pool.remove(gid)
        steps.append((gid, pattern_id, m, evaluated))
        metrics.append(m)
    return steps, metrics, calls


# ---------------------------------------------------------------------------
# Gray-box oracle doubles for attack purity tests
# ---------------------------------------------------------------------------


class RecordingOracle:
    """Wraps a probability oracle and memorizes every row it ever answered.

    Rows are evaluated one at a time on fixed-shape contiguous copies so that
    identical row bytes always map to bit-identical probabilities (batched
    BLAS calls can differ in the last ulp depending on the batch layout),
    making the table a pure function of the row.
    """

    def __init__(self, fn):
        self.fn = fn
        self.table: dict[bytes, float] = {}
        self.calls = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.calls += 1
        x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.empty(x2.shape[0], dtype=np.float64)
        for i, row in enumerate(x2):
            key = row.tobytes()
            if key not in self.table:
                single = np.ascontiguousarray(row, dtype=np.float64)[None, :]
                self.table[key] = float(np.asarray(self.fn(single)).ravel()[0])
            out[i] = self.table[key]
        return out


class LookupOracle:
    """Answers only from a recorded table; any novel query is an error."""

    def __init__(self, table: dict[bytes, float]):
        self.table = table
        self.calls = 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.calls += 1
        x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return np.array([self.table[row.tobytes()] for row in x2])


class InputLog:
    """Wraps an oracle and records every call's input: shape, dtype and bytes."""

    def __init__(self, fn):
        self.fn = fn
        self.inputs: list[tuple] = []

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.inputs.append((x.shape, x.dtype.str, x.tobytes()))
        return self.fn(x)
