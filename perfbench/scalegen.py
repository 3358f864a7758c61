"""Seeded random-layered netlist with an implanted Trojan trigger tree.

The host is a stream of 2- and 3-input gates whose inputs are drawn from a
sliding window over the most recent nets (primary inputs first), with a D
flip-flop in place of every ``DFF_EVERY``-th gate.  The Trojan is a balanced
AND tree over ``trigger_leaves`` AND/NOR leaf gates that tap early host nets,
and an XOR payload spliced into one late host connection.  Every Trojan instance
and net is named ``troj_*``, so ``LabelSpec.name_regex("^troj_")`` recovers
the labels.  Unread nets become primary outputs.

Gate kinds in the Trojan are fixed; the seed only moves taps and host
structure, so the attack's candidate count per step does not depend on it.

The generator is stdlib-only and writes Verilog text itself: the program
under test sees nothing but that text.  ``ScaleNetlist.stats`` uses the keys
of ``CircuitGraph.stats()`` so a parse can be checked against it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

HOST_FAMILIES = ("and", "or", "nand", "nor", "xor", "xnor")
INPUTS = 64
WINDOW = 400
DFF_EVERY = 50
LEAF_FANIN = 4


@dataclass(frozen=True)
class ScaleNetlist:
    verilog: str
    stats: dict[str, int]


def trojan_gate_count(trigger_leaves: int) -> int:
    """Leaves, the AND tree above them, and the payload XOR."""
    return 2 * trigger_leaves - 1 + 1


def generate(seed: int, gates: int, trigger_leaves: int) -> ScaleNetlist:
    """One netlist of exactly ``gates`` gates (host plus Trojan)."""
    n_troj = trojan_gate_count(trigger_leaves)
    n_host = gates - n_troj
    if n_host < 10 or trigger_leaves < 1:
        raise ValueError("netlist too small for its Trojan")
    rng = random.Random(seed)
    pis = [f"pi{i}" for i in range(INPUTS)]
    recent = deque(pis, maxlen=WINDOW)
    # (instance, primitive, output net, input nets); "dff" inputs are (D, clk).
    cells: list[tuple[str, str, str, list[str]]] = []
    for i in range(n_host):
        out = f"n{i}"
        if (i + 1) % DFF_EVERY == 0:
            cells.append((f"r{i}", "dff", out, [rng.choice(recent), "clk"]))
        else:
            fam = rng.choice(HOST_FAMILIES)
            ins = rng.sample(list(recent), rng.choice((2, 3)))
            cells.append((f"g{i}", fam, out, ins))
        recent.append(out)

    # Trigger taps come from the first 60 % of the host and the payload
    # lands in the last 20 %, so the implant cannot close a combinational loop.
    taps = [c[2] for c in cells[: n_host * 6 // 10]]
    level = []
    for j in range(trigger_leaves):
        fam = "and" if j % 2 == 0 else "nor"
        out = f"troj_l{j}_o"
        cells.append((f"troj_l{j}", fam, out, rng.sample(taps, LEAF_FANIN)))
        level.append(out)
    depth = 0
    while len(level) > 1:
        nxt = []
        for k in range(0, len(level) - 1, 2):
            out = f"troj_a{depth}_{k // 2}_o"
            cells.append((f"troj_a{depth}_{k // 2}", "and", out, level[k : k + 2]))
            nxt.append(out)
        if len(level) % 2:
            nxt.append(level[-1])
        level, depth = nxt, depth + 1
    late = [i for i in range(n_host * 8 // 10, n_host) if cells[i][1] != "dff"]
    victim_cell = cells[rng.choice(late)]
    pin = rng.randrange(len(victim_cell[3]))
    cells.append(("troj_payload", "xor", "troj_payload_o",
                  [victim_cell[3][pin], level[0]]))
    victim_cell[3][pin] = "troj_payload_o"
    assert len(cells) == gates

    read = {n for c in cells for n in c[3]}
    outputs = [c[2] for c in cells if c[2] not in read]
    wires = [c[2] for c in cells if c[2] in read]
    ports = pis + ["clk"] + outputs
    lines = [f"module scale{seed} ({', '.join(ports)});"]
    lines += [f"  input {n};" for n in pis + ["clk"]]
    lines += [f"  output {n};" for n in outputs]
    lines += [f"  wire {n};" for n in wires]
    for inst, fam, out, ins in cells:
        if fam == "dff":
            lines.append(f"  dff {inst} (.D({ins[0]}), .CK({ins[1]}), .Q({out}));")
        else:
            lines.append(f"  {fam} {inst} ({', '.join([out] + ins)});")
    lines.append("endmodule")
    stats = {
        "gates": gates,
        "nets": INPUTS + 1 + gates,
        "primary_inputs": INPUTS + 1,
        "primary_outputs": len(outputs),
        "trojan_gates": n_troj,
        "trojan_nets": n_troj,
    }
    return ScaleNetlist("\n".join(lines) + "\n", stats)
