"""Gate-level structural Verilog frontend and immutable circuit-graph IR.

The IR is a flat bipartite graph of gates and nets.  Supported cells are the
combinational primitives (AND/NAND/OR/NOR/XOR/XNOR with 2..5 inputs, NOT, BUF),
a 2-to-1 multiplexer, a positive-edge D flip-flop with optional reset, and
constant-0/1 sources.  Multi-bit wires are expanded to scalar nets at parse
time (``w[3]`` becomes an ordinary net named ``"w[3]"``).

Trojan labels live on the graph as two id sets (``trojan_gate_ids`` and
``trojan_net_ids``).  They are assigned at parse time from a :class:`LabelSpec`
(instance/net name regex, or a sidecar list of Trojan net names) and carried
through rewrites explicitly; nothing ever re-derives them from names.

``CircuitGraph`` instances are immutable by contract: every editing operation
returns a new graph via :meth:`CircuitGraph.replace`.  Construction validates
the structural invariants (single driver per net, known arities, no dangling
pin references) over the whole graph; ``replace`` checks the same invariants
on the patch only, against a parent that is already valid, and shares the
parent's unchanged adjacency.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "CellKind",
    "Gate",
    "Net",
    "CircuitGraph",
    "LabelSpec",
    "NetlistError",
    "ParseError",
    "UnknownCellError",
    "MultipleDriverError",
    "DanglingPinError",
    "parse_verilog",
    "parse_verilog_file",
    "emit_verilog",
    "AND",
    "NAND",
    "OR",
    "NOR",
    "XOR",
    "XNOR",
    "NOT",
    "BUF",
    "MUX2",
    "DFF",
    "DFF_R",
    "CONST0",
    "CONST1",
]

GRAPH_SCHEMA = 1

# Families with a single output and 2..5 symmetric data inputs.
_MULTI_INPUT_FAMILIES = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR")
COMBINATIONAL_FAMILIES = _MULTI_INPUT_FAMILIES + ("NOT", "BUF", "MUX2")
ALL_FAMILIES = COMBINATIONAL_FAMILIES + ("DFF", "CONST0", "CONST1")


class NetlistError(Exception):
    """Base class for all netlist construction and parsing errors."""


class ParseError(NetlistError):
    """Syntax error in a Verilog source, with 1-based line/column."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(message + where)


class UnknownCellError(ParseError):
    """An instance references a cell type the frontend does not know."""


class MultipleDriverError(NetlistError):
    """A net is driven by more than one source (gate output or primary input)."""


class DanglingPinError(NetlistError):
    """A gate pin references a net id/name that does not exist."""


@dataclass(frozen=True)
class CellKind:
    """A cell type: family name plus data-input arity.

    ``fanin`` counts *data* inputs only.  For a DFF that is 1 (the D pin);
    clock and reset are extra non-data pins encoded by ``has_reset``.  For a
    MUX2 the select line counts as a data input (fanin 3): select values
    propagate logic and are traversed like any other input.
    """

    family: str
    fanin: int
    has_reset: bool = False

    def __post_init__(self) -> None:
        if self.family not in ALL_FAMILIES:
            raise ValueError(f"unknown cell family {self.family!r}")
        expected = {
            "NOT": (1,),
            "BUF": (1,),
            "MUX2": (3,),
            "DFF": (1,),
            "CONST0": (0,),
            "CONST1": (0,),
        }.get(self.family, (2, 3, 4, 5))
        if self.fanin not in expected:
            raise ValueError(f"{self.family} cannot have fanin {self.fanin}")
        if self.has_reset and self.family != "DFF":
            raise ValueError("has_reset is only meaningful for DFF")

    # cached_property is safe on this frozen dataclass: every field is
    # immutable, so the derived values can never go stale.
    @cached_property
    def is_sequential(self) -> bool:
        return self.family == "DFF"

    @cached_property
    def is_constant(self) -> bool:
        return self.family in ("CONST0", "CONST1")

    @cached_property
    def is_combinational(self) -> bool:
        return self.family in COMBINATIONAL_FAMILIES

    @cached_property
    def num_inputs(self) -> int:
        """Total input pins, including DFF clock/reset."""
        if self.family == "DFF":
            return 3 if self.has_reset else 2
        return self.fanin

    @cached_property
    def data_input_indices(self) -> tuple[int, ...]:
        """Positions in ``Gate.inputs`` that carry logic (not clock/reset)."""
        if self.family == "DFF":
            return (0,)
        return tuple(range(self.fanin))

    def __str__(self) -> str:  # e.g. "NAND3", "DFF", "DFF_R"
        if self.family in _MULTI_INPUT_FAMILIES:
            return f"{self.family}{self.fanin}"
        if self.family == "DFF" and self.has_reset:
            return "DFF_R"
        return self.family


def _kind_from_str(text: str) -> CellKind:
    """Inverse of ``str(CellKind)``; used by the JSON graph loader."""
    if text == "DFF_R":
        return CellKind("DFF", 1, has_reset=True)
    m = re.fullmatch(r"([A-Z]+?)(\d)", text)
    if m and m.group(1) in _MULTI_INPUT_FAMILIES:
        return CellKind(m.group(1), int(m.group(2)))
    if text == "MUX2":
        return MUX2
    return CellKind(text, {"NOT": 1, "BUF": 1, "DFF": 1}.get(text, 0))


# Convenience kind constants.
def _mk(family: str, fanin: int) -> CellKind:
    return CellKind(family, fanin)


AND = {n: _mk("AND", n) for n in range(2, 6)}
NAND = {n: _mk("NAND", n) for n in range(2, 6)}
OR = {n: _mk("OR", n) for n in range(2, 6)}
NOR = {n: _mk("NOR", n) for n in range(2, 6)}
XOR = {n: _mk("XOR", n) for n in range(2, 6)}
XNOR = {n: _mk("XNOR", n) for n in range(2, 6)}
NOT = CellKind("NOT", 1)
BUF = CellKind("BUF", 1)
MUX2 = CellKind("MUX2", 3)
DFF = CellKind("DFF", 1)
DFF_R = CellKind("DFF", 1, has_reset=True)
CONST0 = CellKind("CONST0", 0)
CONST1 = CellKind("CONST1", 0)


@dataclass(frozen=True)
class Gate:
    """One cell instance.  ``inputs``/``outputs`` are net ids, pin order fixed.

    Pin order: multi-input gates are symmetric; MUX2 is ``(d0, d1, select)``
    and the output is ``select ? d1 : d0``; DFF is ``(D, CLK)`` or
    ``(D, CLK, RST)`` with output Q.
    """

    id: int
    kind: CellKind
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    name: str
    # The pins that carry logic: every input but a DFF's clock and reset.
    # Set at construction, since the graph's reader index reads every gate's.
    data_inputs: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.inputs) != self.kind.num_inputs:
            raise ValueError(
                f"gate {self.name!r}: {self.kind} expects {self.kind.num_inputs}"
                f" input pins, got {len(self.inputs)}"
            )
        if len(self.outputs) != 1:
            raise ValueError(f"gate {self.name!r}: exactly one output pin required")
        data = self.inputs
        if self.kind.family == "DFF":
            data = tuple(self.inputs[i] for i in self.kind.data_input_indices)
        object.__setattr__(self, "data_inputs", data)

    @property
    def output(self) -> int:
        return self.outputs[0]


@dataclass(frozen=True)
class Net:
    """One scalar wire."""

    id: int
    name: str


@dataclass(frozen=True)
class LabelSpec:
    """How Trojan labels are derived at parse time.

    * ``regex`` mode: gates whose instance name matches ``pattern`` form the
      Trojan gate set; the Trojan net set is every net driven by a Trojan gate
      plus any net whose own name matches.
    * ``sidecar`` mode: ``trojan_nets`` lists Trojan net names explicitly; the
      Trojan gate set is the drivers of those nets.
    * ``none`` mode: both sets empty.
    """

    mode: str = "none"
    pattern: str = ""
    trojan_nets: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.mode not in ("none", "regex", "sidecar"):
            raise ValueError(f"unknown label mode {self.mode!r}")
        if self.mode == "regex" and not self.pattern:
            raise ValueError("regex label mode requires a pattern")

    @classmethod
    def none(cls) -> "LabelSpec":
        return cls()

    @classmethod
    def name_regex(cls, pattern: str) -> "LabelSpec":
        return cls(mode="regex", pattern=pattern)

    @classmethod
    def sidecar(cls, net_names: Iterable[str]) -> "LabelSpec":
        return cls(mode="sidecar", trojan_nets=frozenset(net_names))

    @classmethod
    def from_sidecar_file(cls, path: str) -> "LabelSpec":
        """One net name per line; blank lines and ``#`` comments ignored."""
        names = []
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if line:
                    names.append(line)
        return cls.sidecar(names)


class CircuitGraph:
    """Immutable gate/net graph with Trojan label sets.

    Do not mutate ``gates``/``nets`` after construction; derive edited copies
    through :meth:`replace`.
    """

    def __init__(
        self,
        name: str,
        gates: Iterable[Gate],
        nets: Iterable[Net],
        primary_inputs: Sequence[int],
        primary_outputs: Sequence[int],
        trojan_gate_ids: Iterable[int] = (),
        trojan_net_ids: Iterable[int] = (),
    ):
        self.name = name
        self.gates: dict[int, Gate] = {}
        for g in gates:
            if g.id in self.gates:
                raise NetlistError(f"duplicate gate id {g.id}")
            self.gates[g.id] = g
        self.nets: dict[int, Net] = {}
        for n in nets:
            if n.id in self.nets:
                raise NetlistError(f"duplicate net id {n.id}")
            self.nets[n.id] = n
        self.primary_inputs = tuple(primary_inputs)
        self.primary_outputs = tuple(primary_outputs)
        self.trojan_gate_ids = frozenset(trojan_gate_ids)
        self.trojan_net_ids = frozenset(trojan_net_ids)
        self._driver_of: dict[int, int | None] = {}
        self._readers_of: dict[int, list[Gate]] = {}
        self._validate()

    # -- construction / validation -------------------------------------------

    def _validate(self) -> None:
        if len({g.name for g in self.gates.values()}) != len(self.gates):
            seen: set[str] = set()
            for g in self.gates.values():
                if g.name in seen:
                    raise NetlistError(f"duplicate instance name {g.name!r}")
                seen.add(g.name)
        if len({n.name for n in self.nets.values()}) != len(self.nets):
            seen = set()
            for n in self.nets.values():
                if n.name in seen:
                    raise NetlistError(f"duplicate net name {n.name!r}")
                seen.add(n.name)

        driver: dict[int, int | None] = {nid: None for nid in self.nets}
        readers: dict[int, list[Gate]] = {nid: [] for nid in self.nets}
        pi_set = self._primary_input_set
        for nid in self.primary_inputs + self.primary_outputs:
            if nid not in self.nets:
                raise DanglingPinError(f"port references unknown net id {nid}")
        _connect(self.gates.values(), self.gates, self.nets, pi_set, driver, readers)
        _check_trojan_ids(self.trojan_gate_ids, self.trojan_net_ids, self.gates, self.nets)
        # Gate-id order; parsed and synthesised graphs list their gates by
        # id, which leaves every list in that order already.
        if list(self.gates) != sorted(self.gates):
            for gates_reading in readers.values():
                gates_reading.sort(key=attrgetter("id"))
        self._driver_of = driver
        self._readers_of = readers

    # -- basic queries --------------------------------------------------------

    def driver(self, net_id: int) -> Gate | None:
        """The gate driving ``net_id``, or None (primary input or floating)."""
        gid = self._driver_of[net_id]
        return None if gid is None else self.gates[gid]

    def readers(self, net_id: int) -> Sequence[Gate]:
        """The gates reading ``net_id`` on a data pin, each once, by gate id.

        This is the one place the data-pin rule lives: a flip-flop reads its
        D pin only, never its clock or reset, and a MUX2 select is data.
        The list may be shared with the graphs this one was derived from or
        derives (see :meth:`replace`); do not mutate it.
        """
        return self._readers_of[net_id]

    def is_primary_input(self, net_id: int) -> bool:
        return net_id in self._primary_input_set

    def is_trojan_net(self, net_id: int) -> bool:
        return net_id in self.trojan_net_ids

    def is_trojan_gate(self, gate_id: int) -> bool:
        return gate_id in self.trojan_gate_ids

    def net_by_name(self, name: str) -> Net:
        return self._net_by_name[name]

    def gate_by_name(self, name: str) -> Gate:
        return self._gate_by_name[name]

    # Lookup indexes, built on first use: most graphs (attack candidates
    # among them) are never queried by name.  Safe to cache because the
    # graph is not mutated after construction.
    @cached_property
    def _primary_input_set(self) -> frozenset[int]:
        return frozenset(self.primary_inputs)

    @cached_property
    def _net_by_name(self) -> dict[str, Net]:
        return {n.name: n for n in self.nets.values()}

    @cached_property
    def _gate_by_name(self) -> dict[str, Gate]:
        return {g.name: g for g in self.gates.values()}

    def sorted_net_ids(self) -> list[int]:
        return sorted(self.nets)

    def sorted_gate_ids(self) -> list[int]:
        return sorted(self.gates)

    def next_gate_id(self) -> int:
        return self._next_ids[0]

    def next_net_id(self) -> int:
        return self._next_ids[1]

    # One scan per graph: every candidate built from it shares the result.
    @cached_property
    def _next_ids(self) -> tuple[int, int]:
        return max(self.gates, default=-1) + 1, max(self.nets, default=-1) + 1

    def stats(self) -> dict[str, int]:
        return {
            "gates": len(self.gates),
            "nets": len(self.nets),
            "primary_inputs": len(self.primary_inputs),
            "primary_outputs": len(self.primary_outputs),
            "trojan_gates": len(self.trojan_gate_ids),
            "trojan_nets": len(self.trojan_net_ids),
        }

    # -- editing --------------------------------------------------------------

    def replace(
        self,
        remove_gates: Iterable[int] = (),
        upsert_gates: Iterable[Gate] = (),
        add_nets: Iterable[Net] = (),
        extra_trojan_gates: Iterable[int] = (),
        extra_trojan_nets: Iterable[int] = (),
    ) -> "CircuitGraph":
        """Return a new validated graph with the given patch applied.

        ``upsert_gates`` may carry existing ids (pin retarget) or fresh ids;
        every id in ``remove_gates`` must exist.  Trojan sets are copied,
        dropped for removed gates, and extended with the ids listed
        explicitly.

        The new graph is derived from this one, which is already valid: the
        patch is checked for every invariant the constructor enforces, with
        the same exception classes, and only the reader lists of nets read on
        a data pin by a removed or upserted gate (old or new version) are
        rebuilt, in gate-id order.  Every other reader list object is shared
        with this graph, so ``readers(v)`` is a new list only where ``v``'s
        readers may have changed; do not mutate it.  Beyond one C-level copy
        of each map, the cost is proportional to the patch and the fan-out of
        the nets it reads; the name indexes it checks against are built once
        per parent graph.
        """
        upserts = list(upsert_gates)
        new_nets = list(add_nets)
        gates = dict(self.gates)
        removed = set(remove_gates)
        for gid in removed:
            if gates.pop(gid, None) is None:
                raise NetlistError(f"cannot remove unknown gate id {gid}")
        for g in upserts:
            gates[g.id] = g
        nets = dict(self.nets)
        for n in new_nets:
            if n.id in nets:
                raise NetlistError(f"net id {n.id} already exists")
            nets[n.id] = n

        touched = removed.union(g.id for g in upserts)
        old = [self.gates[gid] for gid in sorted(touched) if gid in self.gates]
        new = [gates[gid] for gid in sorted(touched) if gid in gates]
        net_names: set[str] = set()
        for n in new_nets:
            if n.name in self._net_by_name or n.name in net_names:
                raise NetlistError(f"duplicate net name {n.name!r}")
            net_names.add(n.name)
        gate_names: set[str] = set()
        for g in new:
            other = self._gate_by_name.get(g.name)
            if (other is not None and other.id not in touched) or g.name in gate_names:
                raise NetlistError(f"duplicate instance name {g.name!r}")
            gate_names.add(g.name)

        pi_set = self._primary_input_set
        driver = dict(self._driver_of)
        readers = dict(self._readers_of)
        for n in new_nets:
            driver[n.id] = None
            readers[n.id] = []
        for g in old:
            driver[g.output] = None
        # Readers of every net a touched gate reads on a data pin, minus the
        # touched gates; _connect adds the new versions back (and rejects
        # unknown nets on every pin).
        patched: dict[int, list[Gate]] = {}
        for g in old + new:
            for nid in g.data_inputs:
                if nid not in patched:
                    patched[nid] = [r for r in readers.get(nid, ()) if r.id not in touched]
        _connect(new, gates, nets, pi_set, driver, patched)
        for nid, gates_reading in patched.items():
            gates_reading.sort(key=attrgetter("id"))
            readers[nid] = gates_reading

        extra_gates = set(extra_trojan_gates)
        extra_nets = set(extra_trojan_nets)
        _check_trojan_ids(extra_gates, extra_nets, gates, nets)

        child = CircuitGraph.__new__(CircuitGraph)
        child.name = self.name
        child.gates = gates
        child.nets = nets
        child.primary_inputs = self.primary_inputs
        child.primary_outputs = self.primary_outputs
        child.trojan_gate_ids = (self.trojan_gate_ids - removed) | extra_gates
        child.trojan_net_ids = self.trojan_net_ids | extra_nets
        child._driver_of = driver
        child._readers_of = readers
        child._primary_input_set = pi_set
        return child

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "graph_schema": GRAPH_SCHEMA,
            "name": self.name,
            "nets": [
                {"id": n.id, "name": n.name, "trojan": n.id in self.trojan_net_ids}
                for n in (self.nets[i] for i in self.sorted_net_ids())
            ],
            "gates": [
                {
                    "id": g.id,
                    "kind": str(g.kind),
                    "name": g.name,
                    "inputs": list(g.inputs),
                    "outputs": list(g.outputs),
                    "trojan": g.id in self.trojan_gate_ids,
                }
                for g in (self.gates[i] for i in self.sorted_gate_ids())
            ],
            "primary_inputs": list(self.primary_inputs),
            "primary_outputs": list(self.primary_outputs),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "CircuitGraph":
        if data.get("graph_schema") != GRAPH_SCHEMA:
            raise NetlistError(
                f"unsupported graph schema {data.get('graph_schema')!r}"
            )
        nets = [Net(d["id"], d["name"]) for d in data["nets"]]
        gates = [
            Gate(
                d["id"],
                _kind_from_str(d["kind"]),
                tuple(d["inputs"]),
                tuple(d["outputs"]),
                d["name"],
            )
            for d in data["gates"]
        ]
        return cls(
            data["name"],
            gates,
            nets,
            tuple(data["primary_inputs"]),
            tuple(data["primary_outputs"]),
            [d["id"] for d in data["gates"] if d.get("trojan")],
            [d["id"] for d in data["nets"] if d.get("trojan")],
        )


def _connect(
    new_gates: Iterable[Gate],
    gates: Mapping[int, Gate],
    nets: Mapping[int, Net],
    pi_set: frozenset[int],
    driver: dict[int, int | None],
    readers: Mapping[int, list[Gate]],
) -> None:
    """Check each gate's pins, then record it as its output's driver and once
    as a reader of each data input (``readers`` must hold a list per data
    input net)."""
    for g in new_gates:
        for pin_idx, nid in enumerate(g.inputs):
            if nid not in nets:
                raise DanglingPinError(
                    f"gate {g.name!r} input pin {pin_idx} references unknown net id {nid}"
                )
        for nid in g.data_inputs:
            gates_reading = readers[nid]
            if not gates_reading or gates_reading[-1] is not g:  # each gate once
                gates_reading.append(g)
        out = g.output
        if out not in nets:
            raise DanglingPinError(f"gate {g.name!r} output references unknown net id {out}")
        if out in pi_set:
            raise MultipleDriverError(
                f"net {nets[out].name!r} is a primary input but is driven by gate {g.name!r}"
            )
        if driver[out] is not None:
            other = gates[driver[out]]
            raise MultipleDriverError(
                f"net {nets[out].name!r} driven by both {other.name!r} and {g.name!r}"
            )
        driver[out] = g.id


def _check_trojan_ids(
    gate_ids: Iterable[int], net_ids: Iterable[int],
    gates: Mapping[int, Gate], nets: Mapping[int, Net],
) -> None:
    for gid in gate_ids:
        if gid not in gates:
            raise NetlistError(f"trojan gate id {gid} not in graph")
    for nid in net_ids:
        if nid not in nets:
            raise NetlistError(f"trojan net id {nid} not in graph")


# ---------------------------------------------------------------------------
# Verilog parsing
# ---------------------------------------------------------------------------

# Cell-name table for named instances.  Lowercase primitive names double as
# positional-style instances (output listed first).
_PRIMITIVE_FAMILIES = {
    "and": "AND",
    "nand": "NAND",
    "or": "OR",
    "nor": "NOR",
    "xor": "XOR",
    "xnor": "XNOR",
    "not": "NOT",
    "buf": "BUF",
    "inv": "NOT",
}

# Library cell name -> family, e.g. NAND3X2 -> NAND fanin 3.  Drive-strength
# suffixes (X1, X2, XL ...) are ignored.
_LIB_CELL_RE = re.compile(
    r"^(AND|NAND|OR|NOR|XOR|XNOR|INV|NOT|BUF|MUX|MX|DFF|SDFF)(\d*)(X\d*|XL|X)?$",
    re.IGNORECASE,
)

_INPUT_PIN_NAMES = {
    "A": 0, "B": 1, "C": 2, "D": 3, "E": 4,
    "A0": 0, "A1": 1, "A2": 2, "A3": 3, "A4": 4,
    "IN1": 0, "IN2": 1, "IN3": 2, "IN4": 3, "IN5": 4,
    "I0": 0, "I1": 1, "I2": 2, "I3": 3, "I4": 4,
}
_OUTPUT_PIN_NAMES = ("Y", "Z", "OUT", "O", "Q")
_MUX_SELECT_NAMES = ("S", "S0", "SEL")
_DFF_DATA_NAMES = ("D",)
_DFF_CLOCK_NAMES = ("CK", "CLK", "C", "CP", "G")
_DFF_RESET_NAMES = ("R", "RST", "RN", "RB", "CLR", "RESET")


def _normalize_cell(name: str, nconns: int, line: int) -> CellKind:
    """Map an instance's cell name to a CellKind, or raise UnknownCellError.

    ``nconns`` is the number of port connections; it disambiguates arity for
    primitive names (``nand g (y, a, b, c)`` is a NAND3) and DFF reset.
    """
    low = name.lower()
    if low in _PRIMITIVE_FAMILIES:
        family = _PRIMITIVE_FAMILIES[low]
        if family in ("NOT", "BUF"):
            if nconns != 2:
                raise ParseError(f"{name} expects 2 connections, got {nconns}", line)
            return CellKind(family, 1)
        fanin = nconns - 1
        if not 2 <= fanin <= 5:
            raise ParseError(
                f"{name} supports 2..5 inputs, got {fanin}", line
            )
        return CellKind(family, fanin)
    if low in ("mux2", "mux21", "mux"):
        return MUX2
    if low in ("dff", "dffr", "dff_r", "fd", "fdr"):
        return DFF_R if nconns >= 4 else DFF
    m = _LIB_CELL_RE.match(name)
    if m:
        fam = m.group(1).upper()
        digits = m.group(2)
        if fam in ("INV", "NOT"):
            return CellKind("NOT", 1)
        if fam == "BUF":
            return CellKind("BUF", 1)
        if fam in ("MUX", "MX"):
            return MUX2
        if fam in ("DFF", "SDFF"):
            return DFF_R if nconns >= 4 else DFF
        fanin = int(digits) if digits else nconns - 1
        if 2 <= fanin <= 5:
            return CellKind(fam, fanin)
    raise UnknownCellError(f"unknown cell type {name!r}", line)


@dataclass
class _Builder:
    """Mutable state while parsing one module."""

    name: str = ""
    ports: list[str] = field(default_factory=list)
    net_ids: dict[str, int] = field(default_factory=dict)
    nets: list[Net] = field(default_factory=list)
    gates: list[Gate] = field(default_factory=list)
    inputs: list[int] = field(default_factory=list)
    outputs: list[int] = field(default_factory=list)
    directions: dict[str, str] = field(default_factory=dict)
    const_nets: dict[int, int] = field(default_factory=dict)
    gate_names: set[str] = field(default_factory=set)

    def declare_net(self, name: str, line: int) -> int:
        if name in self.net_ids:
            raise ParseError(f"net {name!r} declared twice", line)
        nid = len(self.nets)
        self.net_ids[name] = nid
        self.nets.append(Net(nid, name))
        return nid

    def lookup_net(self, name: str, line: int) -> int:
        if name not in self.net_ids:
            raise DanglingPinError(
                f"connection references undeclared net {name!r} (line {line})"
            )
        return self.net_ids[name]

    def const_net(self, value: int, line: int) -> int:
        """Shared constant-source net, materialized on first use."""
        if value not in self.const_nets:
            name = f"__const{value}"
            if name in self.net_ids:
                nid = self.net_ids[name]
            else:
                nid = self.declare_net(name, line)
            self.const_nets[value] = nid
            self.add_gate(
                CONST1 if value else CONST0, (), (nid,), f"__constgen{value}", line
            )
        return self.const_nets[value]

    def add_gate(
        self,
        kind: CellKind,
        inputs: tuple[int, ...],
        outputs: tuple[int, ...],
        name: str,
        line: int,
    ) -> None:
        if name in self.gate_names:
            raise ParseError(f"duplicate instance name {name!r}", line)
        self.gate_names.add(name)
        self.gates.append(Gate(len(self.gates), kind, inputs, outputs, name))


# The parser's only scanner.  Each match skips whitespace and comments, then
# takes at most one token; only the match at the end of the source takes none.
# A bit select is one token so that ``a[x]`` needs no backtracking.  Inside it
# only whitespace is skipped: the comment-skipping repetition, nested there,
# would backtrack exponentially when the select does not match.
_TOKEN_RE = re.compile(
    r"""(?:\s+|//[^\n]*|/\*.*?\*/)*
    (?:
        (?P<open>/\*)                   # a block comment that is never closed
      | (?P<const>1'[bh][01])
      | (?P<id>[A-Za-z_][A-Za-z0-9_$]*)
      | (?P<esc>\\\S+)
      | (?P<index>\[\s*\d+\s*\])
      | (?P<num>\d+)
      | (?P<char>.)
    )?""",
    re.DOTALL | re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str | None  # a group name of _TOKEN_RE; None at the end of the source
    text: str
    pos: int
    line: int


_BEHAVIORAL_KEYWORDS = ("always", "initial", "reg", "if", "case", "function", "task")


class _Parser:
    """Recursive-descent parser over the tokens of ``_TOKEN_RE``.

    Tokens are read lazily from ``finditer`` with one token of lookahead
    (``self.tok``).  A token's line is counted from the newlines skipped
    before it; its column is computed only when an error is raised.
    Keywords are plain identifiers compared by text: an escaped ``\\wire``
    keeps its backslash in ``text``, so it never reads as a keyword.
    """

    def __init__(self, source: str):
        self.src = source
        self._matches = _TOKEN_RE.finditer(source)
        self._line = 1
        self.b = _Builder()
        self.tok = self._scan()

    def _scan(self) -> _Token:
        # Nothing consumes the end-of-source token, so a match is always left.
        m = next(self._matches)
        kind = m.lastgroup
        pos = m.start(kind) if kind else m.end()
        line = self._line + self.src.count("\n", m.start(), pos)
        self._line = line + self.src.count("\n", pos, m.end())
        if kind == "open":
            raise ParseError("unterminated block comment", line)
        return _Token(kind, m.group(kind) if kind else "", pos, line)

    def _advance(self) -> _Token:
        """Consume the current token and return it."""
        tok, self.tok = self.tok, self._scan()
        return tok

    def _error(self, message: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self.tok
        return ParseError(message, tok.line, tok.pos - self.src.rfind("\n", 0, tok.pos))

    def _accept(self, text: str) -> bool:
        if self.tok.text != text:
            return False
        self._advance()
        return True

    def _expect(self, text: str, what: str) -> _Token:
        if self.tok.text != text:
            raise self._error(f"expected {what}")
        return self._advance()

    def _ident(self, what: str) -> str:
        kind = self.tok.kind
        if kind not in ("id", "esc"):
            raise self._error(f"expected {what}")
        text = self._advance().text
        return text[1:] if kind == "esc" else text

    # Statement parsing --------------------------------------------------------
    def parse(self) -> _Builder:
        self._parse_module_header()
        while not self._accept("endmodule"):
            tok = self.tok
            if tok.kind is None:
                raise self._error("missing endmodule")
            if tok.text in ("input", "output", "wire"):
                self._parse_declaration()
            elif tok.text == "assign":
                self._parse_assign()
            elif tok.text in _BEHAVIORAL_KEYWORDS:
                raise ParseError(
                    f"behavioral construct {tok.text!r} is not supported; "
                    "only structural netlists are accepted",
                    tok.line,
                )
            elif tok.kind in ("id", "esc"):
                self._parse_instance()
            else:
                raise self._error("expected a statement")
        if self.tok.kind is not None:
            if self.tok.text == "module":
                raise ParseError(
                    "multiple modules per file are not supported", self.tok.line
                )
            raise self._error("trailing text after endmodule")
        return self.b

    def _parse_module_header(self) -> None:
        self._expect("module", "'module'")
        self.b.name = self._ident("module name")
        if self._accept("("):
            while not self._accept(")"):
                self.b.ports.append(self._ident("port name"))
                self._accept(",")
        self._expect(";", "';' after module header")

    def _bit_range(self) -> tuple[int, int]:
        """``[msb:lsb]``; a mistake anywhere in it is reported at the ``[``."""
        bracket = self._advance()  # "[", or a whole bit select such as "[3]"
        parts = []
        for want in ("num", ":", "num", "]"):
            found = self.tok.kind if want == "num" else self.tok.text
            if bracket.text != "[" or found != want:
                raise self._error("expected bit range", bracket)
            parts.append(self._advance().text)
        return int(parts[0]), int(parts[2])

    def _parse_declaration(self) -> None:
        keyword = self._advance()
        kw, line = keyword.text, keyword.line
        rng = self._bit_range() if self.tok.text.startswith("[") else None
        names = [self._ident("net name")]
        while not self._accept(";"):
            if not self._accept(","):
                raise self._error("expected ',' or ';'")
            names.append(self._ident("net name"))
        for base in names:
            scalars: list[str]
            if rng is None:
                scalars = [base]
            else:
                msb, lsb = rng
                step = -1 if msb >= lsb else 1
                scalars = [f"{base}[{i}]" for i in range(msb, lsb + step, step)]
            for sc in scalars:
                if kw == "wire" and sc in self.b.net_ids:
                    # `wire` redeclaration of a port net is routine in
                    # synthesized netlists; ignore it.
                    if self.b.directions.get(sc):
                        continue
                    raise ParseError(f"net {sc!r} declared twice", line)
                nid = (
                    self.b.net_ids[sc]
                    if sc in self.b.net_ids
                    else self.b.declare_net(sc, line)
                )
                if kw == "input":
                    if self.b.directions.get(sc) is not None:
                        raise ParseError(f"net {sc!r} declared twice", line)
                    self.b.directions[sc] = "input"
                    self.b.inputs.append(nid)
                elif kw == "output":
                    if self.b.directions.get(sc) is not None:
                        raise ParseError(f"net {sc!r} declared twice", line)
                    self.b.directions[sc] = "output"
                    self.b.outputs.append(nid)

    def _parse_assign(self) -> None:
        line = self._advance().line
        lhs = self._net_ref("assign target")
        self._expect("=", "'='")
        if self.tok.kind == "const":
            kind = CONST1 if self._advance().text.endswith("1") else CONST0
            self.b.add_gate(kind, (), (lhs,), f"__const_{self.b.nets[lhs].name}", line)
        else:
            rhs = self._net_ref("assign source")
            self.b.add_gate(
                BUF, (rhs,), (lhs,), f"__buf_{self.b.nets[lhs].name}", line
            )
        self._expect(";", "';'")

    def _net_ref(self, what: str) -> int:
        """Parse a net reference: identifier, identifier[index], or constant."""
        line = self.tok.line
        if self.tok.kind == "const":
            return self.b.const_net(int(self._advance().text[-1]), line)
        name = self._ident(what)
        if self.tok.kind == "index":
            name = f"{name}[{self._advance().text[1:-1].strip()}]"
        return self.b.lookup_net(name, line)

    def _parse_instance(self) -> None:
        line = self.tok.line
        cell = self._ident("cell name")
        inst_name = "" if self.tok.text == "(" else self._ident("instance name")
        self._expect("(", "'('")
        if self.tok.text == ".":
            conns = self._parse_named_conns()
            self._build_named(cell, inst_name, conns, line)
        else:
            refs = [self._net_ref("connection")]
            while not self._accept(")"):
                if not self._accept(","):
                    raise self._error("expected ',' or ')'")
                refs.append(self._net_ref("connection"))
            self._expect(";", "';'")
            self._build_positional(cell, inst_name, refs, line)

    def _parse_named_conns(self) -> dict[str, int]:
        conns: dict[str, int] = {}
        while True:
            self._expect(".", "'.'")
            pin = self._ident("pin name").upper()
            self._expect("(", "'('")
            if self.tok.text == ")":
                raise ParseError(
                    f"unconnected pin .{pin}() is not supported", self.tok.line
                )
            ref = self._net_ref("pin connection")
            close = self._expect(")", "')'")
            if pin in conns:
                raise ParseError(f"pin {pin!r} connected twice", close.line)
            conns[pin] = ref
            if self._accept(")"):
                break
            if not self._accept(","):
                raise self._error("expected ',' or ')'")
        self._expect(";", "';'")
        return conns

    def _auto_name(self, inst_name: str) -> str:
        return inst_name or f"__g{len(self.b.gates)}"

    def _build_positional(
        self, cell: str, inst_name: str, refs: list[int], line: int
    ) -> None:
        kind = _normalize_cell(cell, len(refs), line)
        name = self._auto_name(inst_name)
        if kind.family == "DFF":
            # Positional DFF: (Q, D, CLK[, RST])
            if len(refs) not in (3, 4):
                raise ParseError("dff expects (q, d, clk[, rst])", line)
            kind = DFF_R if len(refs) == 4 else DFF
            self.b.add_gate(kind, tuple(refs[1:]), (refs[0],), name, line)
            return
        if kind.family == "MUX2":
            # Positional MUX2: (Y, A, B, S)
            if len(refs) != 4:
                raise ParseError("mux2 expects (y, a, b, s)", line)
            self.b.add_gate(kind, (refs[1], refs[2], refs[3]), (refs[0],), name, line)
            return
        if len(refs) != kind.num_inputs + 1:
            raise ParseError(
                f"{cell} expects {kind.num_inputs + 1} connections, got {len(refs)}",
                line,
            )
        self.b.add_gate(kind, tuple(refs[1:]), (refs[0],), name, line)

    def _build_named(
        self, cell: str, inst_name: str, conns: dict[str, int], line: int
    ) -> None:
        kind = _normalize_cell(cell, len(conns), line)
        name = self._auto_name(inst_name)
        out_ref = None
        for pn in _OUTPUT_PIN_NAMES:
            if pn in conns and not (kind.family != "DFF" and pn == "Q"):
                out_ref = conns.pop(pn)
                break
        if out_ref is None:
            raise ParseError(f"instance {name!r} has no output pin", line)
        if kind.family == "DFF":
            try:
                d = conns.pop(next(p for p in _DFF_DATA_NAMES if p in conns))
                ck = conns.pop(next(p for p in _DFF_CLOCK_NAMES if p in conns))
            except StopIteration:
                raise ParseError(f"dff {name!r} is missing D or clock pin", line)
            rst = None
            for p in _DFF_RESET_NAMES:
                if p in conns:
                    rst = conns.pop(p)
                    break
            if conns:
                raise ParseError(
                    f"dff {name!r} has unsupported pins {sorted(conns)}", line
                )
            if rst is None:
                self.b.add_gate(DFF, (d, ck), (out_ref,), name, line)
            else:
                self.b.add_gate(DFF_R, (d, ck, rst), (out_ref,), name, line)
            return
        if kind.family == "MUX2":
            sel = None
            for p in _MUX_SELECT_NAMES:
                if p in conns:
                    sel = conns.pop(p)
                    break
            if sel is None:
                raise ParseError(f"mux {name!r} is missing a select pin", line)
            slots: dict[int, int] = {}
            for pin, ref in conns.items():
                if pin not in _INPUT_PIN_NAMES or _INPUT_PIN_NAMES[pin] > 1:
                    raise ParseError(
                        f"mux {name!r} has unsupported pin {pin!r}", line
                    )
                slots[_INPUT_PIN_NAMES[pin]] = ref
            if sorted(slots) != [0, 1]:
                raise ParseError(f"mux {name!r} needs two data pins", line)
            self.b.add_gate(MUX2, (slots[0], slots[1], sel), (out_ref,), name, line)
            return
        slots = {}
        for pin, ref in conns.items():
            if pin not in _INPUT_PIN_NAMES:
                raise ParseError(
                    f"instance {name!r} has unsupported pin {pin!r}", line
                )
            slots[_INPUT_PIN_NAMES[pin]] = ref
        if sorted(slots) != list(range(kind.num_inputs)):
            raise ParseError(
                f"instance {name!r} expects {kind.num_inputs} data pins", line
            )
        self.b.add_gate(
            kind,
            tuple(slots[i] for i in range(kind.num_inputs)),
            (out_ref,),
            name,
            line,
        )


def _apply_labels(
    b: _Builder, spec: LabelSpec
) -> tuple[set[int], set[int]]:
    trojan_gates: set[int] = set()
    trojan_nets: set[int] = set()
    if spec.mode == "regex":
        rx = re.compile(spec.pattern)
        driven_by: dict[int, int] = {g.output: g.id for g in b.gates}
        for g in b.gates:
            if rx.search(g.name):
                trojan_gates.add(g.id)
                trojan_nets.add(g.output)
        for net in b.nets:
            if rx.search(net.name):
                trojan_nets.add(net.id)
                if net.id in driven_by:
                    trojan_gates.add(driven_by[net.id])
    elif spec.mode == "sidecar":
        driven_by = {g.output: g.id for g in b.gates}
        for name in sorted(spec.trojan_nets):
            if name not in b.net_ids:
                raise NetlistError(f"sidecar lists unknown net {name!r}")
            nid = b.net_ids[name]
            trojan_nets.add(nid)
            if nid in driven_by:
                trojan_gates.add(driven_by[nid])
    return trojan_gates, trojan_nets


def parse_verilog(
    source: str,
    label_spec: LabelSpec | None = None,
    name: str | None = None,
) -> CircuitGraph:
    """Parse one structural Verilog module into a :class:`CircuitGraph`.

    Raises :class:`ParseError` (with line/col) on syntax errors or behavioral
    constructs, :class:`UnknownCellError` for unrecognized cell types,
    :class:`DanglingPinError` for references to undeclared nets, and
    :class:`MultipleDriverError` when a net has two drivers.
    """
    spec = label_spec or LabelSpec.none()
    builder = _Parser(source).parse()
    tg, tn = _apply_labels(builder, spec)
    return CircuitGraph(
        name or builder.name,
        builder.gates,
        builder.nets,
        tuple(builder.inputs),
        tuple(builder.outputs),
        tg,
        tn,
    )


def parse_verilog_file(
    path: str, label_spec: LabelSpec | None = None, name: str | None = None
) -> CircuitGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_verilog(fh.read(), label_spec, name=name)


# ---------------------------------------------------------------------------
# Verilog emission
# ---------------------------------------------------------------------------

_PLAIN_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*$")
_VERILOG_KEYWORDS = frozenset(
    "module endmodule input output wire assign and nand or nor xor xnor not buf".split()
)


def _emit_id(name: str) -> str:
    if _PLAIN_ID_RE.fullmatch(name) and name not in _VERILOG_KEYWORDS:
        return name
    # An escaped identifier ends at the first whitespace character.
    if not name or any(ch.isspace() for ch in name):
        raise NetlistError(f"name {name!r} cannot be written as a Verilog identifier")
    return f"\\{name} "


def emit_verilog(circuit: CircuitGraph) -> str:
    """Serialize a graph back to structural Verilog.

    Round-trip property: parsing the emitted text (with the labels carried
    over) yields a graph isomorphic to the input.  Vector-expanded net names
    are written as escaped identifiers.  A name that is empty or contains
    whitespace fits no Verilog identifier and raises :class:`NetlistError`.
    """
    nets = circuit.nets
    pi = set(circuit.primary_inputs)
    po = set(circuit.primary_outputs)
    lines: list[str] = []
    ports = [nets[n].name for n in circuit.primary_inputs + circuit.primary_outputs]
    lines.append(f"module {_emit_id(circuit.name)} (")
    lines.append("  " + ", ".join(_emit_id(p) for p in ports))
    lines.append(");")
    for nid in circuit.primary_inputs:
        lines.append(f"  input {_emit_id(nets[nid].name)};")
    for nid in circuit.primary_outputs:
        lines.append(f"  output {_emit_id(nets[nid].name)};")
    for nid in circuit.sorted_net_ids():
        if nid in pi or nid in po:
            continue
        lines.append(f"  wire {_emit_id(nets[nid].name)};")
    for gid in circuit.sorted_gate_ids():
        g = circuit.gates[gid]
        fam = g.kind.family
        nm = _emit_id(g.name)
        out = _emit_id(nets[g.output].name)
        ins = [_emit_id(nets[i].name) for i in g.inputs]
        if fam in ("CONST0", "CONST1"):
            lines.append(f"  assign {out} = 1'b{1 if fam == 'CONST1' else 0};")
        elif fam == "DFF":
            pins = [f".D({ins[0]})", f".CK({ins[1]})"]
            if g.kind.has_reset:
                pins.append(f".RST({ins[2]})")
            pins.append(f".Q({out})")
            lines.append(f"  dff {nm} ({', '.join(pins)});")
        elif fam == "MUX2":
            lines.append(
                f"  mux2 {nm} (.A({ins[0]}), .B({ins[1]}), .S({ins[2]}), .Y({out}));"
            )
        else:
            prim = {"NOT": "not", "BUF": "buf"}.get(fam, fam.lower())
            lines.append(f"  {prim} {nm} ({', '.join([out] + ins)});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
