"""Gate-level structural Verilog frontend and immutable circuit-graph IR.

The IR is a flat bipartite graph of gates and nets.  Supported cells are the
combinational primitives (AND/NAND/OR/NOR/XOR/XNOR with 2..5 inputs, NOT, BUF),
a 2-to-1 multiplexer, a positive-edge D flip-flop with optional reset, and
constant-0/1 sources: 31 cell kinds, each one shared :class:`CellKind` object.
Every gate drives exactly one net (``Gate.output``), and the graph indexes
each net's driving gate and the gates that read it on a data pin.  Multi-bit
wires are expanded to scalar nets at parse time (``w[3]`` becomes an ordinary
net named ``"w[3]"``).

Trojan labels live on the graph as two id sets (``trojan_gate_ids`` and
``trojan_net_ids``).  They are assigned at parse time from a :class:`LabelSpec`
(instance/net name regex, or a sidecar list of Trojan net names) and carried
through rewrites explicitly; nothing ever re-derives them from names.

``CircuitGraph`` instances are immutable by contract: every editing operation
returns a new graph via :meth:`CircuitGraph.replace`.  One routine checks the
structural invariants (unique ids and names, single driver per net, no
dangling pin references, known Trojan ids) and builds the net indexes, for a
patch on a graph that is already valid: ``replace`` runs it on the patch
only and shares the parent's unchanged adjacency, and construction runs it
as a patch that adds every net and gate to an empty graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Callable, Container, Iterable, NamedTuple, Sequence

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

    The 31 legal kinds are interned in one module table keyed by
    ``str(kind)``; the parser and the kind constants below both hand out
    its members.  The derived flags are plain attributes, set once per kind
    at construction; ``_walk_counts`` holds what a feature walk adds per gate:
    data-input pins if combinational, then MUX2, DFF and constant cells.
    """

    family: str
    fanin: int
    has_reset: bool = False
    is_sequential: bool = field(init=False, repr=False, compare=False)
    is_constant: bool = field(init=False, repr=False, compare=False)
    is_combinational: bool = field(init=False, repr=False, compare=False)
    # Total input pins, including DFF clock/reset.
    num_inputs: int = field(init=False, repr=False, compare=False)
    _walk_counts: tuple[int, bool, bool, bool] = field(init=False, repr=False, compare=False)

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
        sequential = self.family == "DFF"
        object.__setattr__(self, "is_sequential", sequential)
        object.__setattr__(self, "is_constant", self.family in ("CONST0", "CONST1"))
        object.__setattr__(self, "is_combinational", self.family in COMBINATIONAL_FAMILIES)
        object.__setattr__(self, "num_inputs", 2 + self.has_reset if sequential else self.fanin)
        object.__setattr__(self, "_walk_counts", (self.fanin * self.is_combinational,
                                                 self.family == "MUX2", sequential,
                                                 self.is_constant))

    def __str__(self) -> str:  # e.g. "NAND3", "DFF", "DFF_R"
        if self.family in _MULTI_INPUT_FAMILIES:
            return f"{self.family}{self.fanin}"
        if self.family == "DFF" and self.has_reset:
            return "DFF_R"
        return self.family


_KINDS: dict[str, CellKind] = {
    str(k): k
    for k in (
        *(CellKind(f, n) for f in _MULTI_INPUT_FAMILIES for n in range(2, 6)),
        CellKind("NOT", 1),
        CellKind("BUF", 1),
        CellKind("MUX2", 3),
        CellKind("DFF", 1),
        CellKind("DFF", 1, has_reset=True),
        CellKind("CONST0", 0),
        CellKind("CONST1", 0),
    )
}


# Convenience kind constants.
AND, NAND, OR, NOR, XOR, XNOR = (
    {n: _KINDS[f"{f}{n}"] for n in range(2, 6)} for f in _MULTI_INPUT_FAMILIES
)
NOT = _KINDS["NOT"]
BUF = _KINDS["BUF"]
MUX2 = _KINDS["MUX2"]
DFF = _KINDS["DFF"]
DFF_R = _KINDS["DFF_R"]
CONST0 = _KINDS["CONST0"]
CONST1 = _KINDS["CONST1"]


@dataclass(frozen=True)
class Gate:
    """One cell instance: ``inputs`` and ``output`` are net ids, pin order fixed.

    Every cell drives exactly one net.  Pin order: multi-input gates are
    symmetric; MUX2 is ``(d0, d1, select)`` and the output is
    ``select ? d1 : d0``; DFF is ``(D, CLK)`` or ``(D, CLK, RST)`` with
    output Q.
    """

    id: int
    kind: CellKind
    inputs: tuple[int, ...]
    output: int
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
        data = self.inputs[:1] if self.kind.is_sequential else self.inputs
        object.__setattr__(self, "data_inputs", data)


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
        if self.mode == "regex":
            if not self.pattern:
                raise ValueError("regex label mode requires a pattern")
            try:
                re.compile(self.pattern)
            except re.error as exc:
                raise ValueError(f"invalid label regex {self.pattern!r}: {exc}") from None

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
        self.primary_inputs = tuple(primary_inputs)
        self.primary_outputs = tuple(primary_outputs)
        self._patch(_EMPTY, (), gates, nets, trojan_gate_ids, trojan_net_ids)

    # -- basic queries --------------------------------------------------------

    def driver(self, net_id: int) -> Gate | None:
        """The gate driving ``net_id``, or None (primary input or floating)."""
        return self._driver_of[net_id]

    def readers(self, net_id: int) -> Sequence[Gate]:
        """The gates reading ``net_id`` on a data pin, each once, by gate id.

        This is the one place the data-pin rule lives: a flip-flop reads its
        D pin only, never its clock or reset, and a MUX2 select is data.
        The list may be shared with the graphs this one was derived from or
        derives (see :meth:`replace`); do not mutate it.
        """
        return self._readers_of[net_id]

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
    def _primary_output_set(self) -> frozenset[int]:
        return frozenset(self.primary_outputs)

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

        ``upsert_gates`` may carry existing ids (pin retarget) or fresh ids,
        each id once; every id in ``remove_gates`` must exist.  Trojan sets
        are copied, dropped for removed gates, and extended with the ids
        listed explicitly.

        The constructor builds a graph with the same routine, as a patch on
        an empty graph, so a patch is rejected exactly when the graph it
        yields would be, with the same exception and message.  Only the
        reader lists of nets read on a data pin by a removed or upserted gate
        (old or new version) are rebuilt, in gate-id order.  Every other
        reader list object is shared with this graph; do not mutate it.
        Beyond one C-level copy of each map, the cost is proportional to
        the patch and the fan-out of the nets it reads; the name indexes it
        checks against are built once per parent graph.
        """
        child = CircuitGraph.__new__(CircuitGraph)
        child.name = self.name
        child.primary_inputs = self.primary_inputs
        child.primary_outputs = self.primary_outputs
        child._primary_input_set = self._primary_input_set
        child._primary_output_set = self._primary_output_set
        child._patch(self, remove_gates, upsert_gates, add_nets,
                     extra_trojan_gates, extra_trojan_nets)
        return child

    def _patch(
        self,
        base: CircuitGraph,
        remove_gates: Iterable[int],
        upsert_gates: Iterable[Gate],
        add_nets: Iterable[Net],
        trojan_gates: Iterable[int],
        trojan_nets: Iterable[int],
    ) -> None:
        """Fill this graph, whose name and ports are set, with ``base``
        patched, checking every invariant the patch or new ports can break."""
        removed = set(remove_gates)
        upserts = list(upsert_gates)
        new_nets = list(add_nets)
        gates = dict(base.gates)
        for gid in removed:
            if gates.pop(gid, None) is None:
                raise NetlistError(f"cannot remove unknown gate id {gid}")
        ups = {g.id: g for g in upserts}
        if len(ups) < len(upserts):
            raise NetlistError(f"duplicate gate id {_first_repeat(g.id for g in upserts)}")
        # The base gates the patch removes or rewrites.
        touched = removed | (base.gates.keys() & ups.keys())
        old = [base.gates[gid] for gid in touched]
        gates.update(ups)
        nets = dict(base.nets)
        for n in new_nets:
            nets[n.id] = n
        if len(nets) < len(base.nets) + len(new_nets):
            nid = _first_repeat((n.id for n in new_nets), base.nets)
            raise NetlistError(f"duplicate net id {nid}")

        # New gates in id order, so that each reader list they start stays sorted.
        new = upserts if list(ups) == sorted(ups) else sorted(upserts, key=attrgetter("id"))
        names = {g.name for g in upserts}
        taken = {s for s in base._gate_by_name.keys() & names
                 if base._gate_by_name[s].id not in touched}
        if len(names) < len(upserts) or taken:
            name = _first_repeat((g.name for g in upserts), taken)
            raise NetlistError(f"duplicate instance name {name!r}")
        names = {n.name for n in new_nets}
        taken = base._net_by_name.keys() & names
        if len(names) < len(new_nets) or taken:
            name = _first_repeat((n.name for n in new_nets), taken)
            raise NetlistError(f"duplicate net name {name!r}")
        del ups, names, taken  # graph-sized; free them before the indexes grow
        # A derived graph keeps its base's ports, which name base nets.
        if self.primary_inputs is not base.primary_inputs:
            for nid in self.primary_inputs + self.primary_outputs:
                if nid not in nets:
                    raise DanglingPinError(f"port references unknown net id {nid}")

        pi_set = self._primary_input_set
        driver = dict(base._driver_of)
        readers = dict(base._readers_of)
        for n in new_nets:
            driver[n.id] = None
            readers[n.id] = []
        for g in old:
            driver[g.output] = None
        # A base net a touched gate reads on a data pin gets a copy of its
        # reader list without the touched gates; the new versions join below.
        # An empty base, as in construction, has no lists to copy.
        copied: dict[int, list[Gate]] = {}
        for g in old + new if base.nets else ():
            for nid in g.data_inputs:
                if nid in base._readers_of and nid not in copied:
                    copied[nid] = readers[nid] = [
                        r for r in base._readers_of[nid] if r.id not in touched]
        for g in new:
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
            other = driver[out]
            if other is not None:
                raise MultipleDriverError(
                    f"net {nets[out].name!r} driven by both {other.name!r} and {g.name!r}"
                )
            driver[out] = g
        for gates_reading in copied.values():
            gates_reading.sort(key=attrgetter("id"))

        trojan_gates, trojan_nets = set(trojan_gates), set(trojan_nets)
        for what, unknown in (("gate", trojan_gates.difference(gates)),
                              ("net", trojan_nets.difference(nets))):
            if unknown:
                raise NetlistError(f"trojan {what} id {min(unknown)} not in graph")
        self.gates = gates
        self.nets = nets
        self.trojan_gate_ids = (base.trojan_gate_ids - removed) | trojan_gates
        self.trojan_net_ids = base.trojan_net_ids | trojan_nets
        self._driver_of = driver
        self._readers_of = readers

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The graph JSON that ``htlab parse --dump-graph`` writes.

        htlab writes graph JSON and reads none: it is an output artifact.
        """
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
                    "outputs": [g.output],
                    "trojan": g.id in self.trojan_gate_ids,
                }
                for g in (self.gates[i] for i in self.sorted_gate_ids())
            ],
            "primary_inputs": list(self.primary_inputs),
            "primary_outputs": list(self.primary_outputs),
        }


# The base the constructor patches: no gates, nets or ports.
_EMPTY = CircuitGraph.__new__(CircuitGraph)
_EMPTY.gates, _EMPTY.nets, _EMPTY._driver_of, _EMPTY._readers_of = {}, {}, {}, {}
_EMPTY.primary_inputs = _EMPTY.primary_outputs = None
_EMPTY.trojan_gate_ids = _EMPTY.trojan_net_ids = frozenset()


def _first_repeat(items: Iterable, taken: Container = ()):
    """The first of ``items`` that is in ``taken`` or repeats an earlier one."""
    seen = set()
    for x in items:
        if x in taken or x in seen:
            return x
        seen.add(x)


# ---------------------------------------------------------------------------
# Verilog parsing
# ---------------------------------------------------------------------------

# Cell name -> family, e.g. NAND3X2 -> NAND fanin 3.  Drive-strength
# suffixes (X1, X2, XL ...) are ignored.  A bare primitive name such as
# ``nand`` takes its fanin from the connection count.
_LIB_CELL_RE = re.compile(
    r"^(AND|NAND|OR|NOR|XOR|XNOR|INV|NOT|BUF|MUX|MX|DFF|SDFF)(\d*)(X\d*|XL|X)?$",
    re.IGNORECASE,
)
_FAMILY_ALIASES = {"INV": "NOT", "MUX": "MUX2", "MX": "MUX2", "SDFF": "DFF"}
# Flip-flop cell names the regex does not match, in any case.
_DFF_CELL_ALIASES = ("dffr", "dff_r", "fd", "fdr")

_INPUT_PIN_NAMES = {
    "A": 0, "B": 1, "C": 2, "D": 3, "E": 4,
    "A0": 0, "A1": 1, "A2": 2, "A3": 3, "A4": 4,
    "IN1": 0, "IN2": 1, "IN3": 2, "IN4": 3, "IN5": 4,
    "I0": 0, "I1": 1, "I2": 2, "I3": 3, "I4": 4,
}
_OUTPUT_PIN_NAMES = ("Y", "Z", "OUT", "O", "Q")  # Q, the last, on flip-flops only
_MUX_SELECT_NAMES = ("S", "S0", "SEL")
_DFF_DATA_NAMES = ("D",)
_DFF_CLOCK_NAMES = ("CK", "CLK", "C", "CP", "G")
_DFF_RESET_NAMES = ("R", "RST", "RN", "RB", "CLR", "RESET")
# Positional arity errors that show the pin order.
_POSITIONAL_USAGE = {
    "DFF": "dff expects (q, d, clk[, rst])",
    "MUX2": "mux2 expects (y, a, b, s)",
}


# Cached: a regex match costs about twice a dict hit, and a netlist repeats
# a handful of cell names over every instance.
@lru_cache(maxsize=1024)
def _cell_family(name: str) -> tuple[str | None, int | None, bool]:
    """The family of a cell name (None if unknown), the fanin its digits spell
    (None if none, 0 past 99), and whether it is a bare primitive such as ``and``."""
    m = _LIB_CELL_RE.match(name)
    if m is None:
        return ("DFF" if name.lower() in _DFF_CELL_ALIASES else None), None, False
    family, digits, suffix = m.groups()
    family = _FAMILY_ALIASES.get(family.upper(), family.upper())
    bare = not digits and suffix is None and family not in ("MUX2", "DFF")
    sig = digits.lstrip("0")  # int() refuses a run of 4,300 digits
    return family, None if not digits else 0 if len(sig) > 2 else int(sig or 0), bare


def _normalize_cell(name: str, nconns: int, line: int) -> CellKind:
    """Map an instance's cell name to a CellKind, or raise UnknownCellError.

    ``nconns`` is the number of port connections; it disambiguates arity for
    primitive names (``nand g (y, a, b, c)`` is a NAND3) and DFF reset.  A
    bare primitive name with the wrong count is a ParseError instead.
    """
    family, fanin, bare = _cell_family(name)
    if family == "DFF":
        return DFF_R if nconns >= 4 else DFF
    if family in ("NOT", "BUF", "MUX2"):
        if bare and nconns != 2:
            raise ParseError(f"{name} expects 2 connections, got {nconns}", line)
        return _KINDS[family]
    if family is not None:
        fanin = nconns - 1 if fanin is None else fanin
        if 2 <= fanin <= 5:
            return _KINDS[f"{family}{fanin}"]
        if bare:
            raise ParseError(f"{name} supports 2..5 inputs, got {fanin}", line)
    raise UnknownCellError(f"unknown cell type {name!r}", line)


def _take(conns: dict[str, int], names: Sequence[str]) -> int | None:
    """Pop the connection of the first of ``names`` present in ``conns``."""
    for pin in names:
        if pin in conns:
            return conns.pop(pin)
    return None


@dataclass
class _Builder:
    """Mutable state while parsing one module."""

    name: str = ""
    # Header ports by name, each with its token until a declaration covers it.
    ports: dict[str, _Token | None] = field(default_factory=dict)
    net_ids: dict[str, int] = field(default_factory=dict)
    nets: list[Net] = field(default_factory=list)
    gates: list[Gate] = field(default_factory=list)
    inputs: list[int] = field(default_factory=list)
    outputs: list[int] = field(default_factory=list)
    port_nets: set[str] = field(default_factory=set)
    const_nets: dict[int, int] = field(default_factory=dict)
    gate_names: set[str] = field(default_factory=set)
    drivers: dict[int, str] = field(default_factory=dict)

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
            nid = self.net_ids.get(f"__const{value}")
            if nid is None:
                nid = self.declare_net(f"__const{value}", line)
            self.const_nets[value] = nid
            self.add_gate(CONST1 if value else CONST0, (), nid, f"__constgen{value}", line)
        return self.const_nets[value]

    def drive(self, net_id: int, driver: str, line: int) -> None:
        """Record the one driver of ``net_id``: an instance name or the input port."""
        here = f"{driver} (line {line})"
        if net_id in self.drivers:
            raise MultipleDriverError(f"net {self.nets[net_id].name!r} driven by both "
                                      f"{self.drivers[net_id]} and {here}")
        self.drivers[net_id] = here

    def add_gate(
        self,
        kind: CellKind,
        inputs: tuple[int, ...],
        output: int,
        name: str,
        line: int,
    ) -> None:
        self.drive(output, repr(name), line)
        if name in self.gate_names:
            raise ParseError(f"duplicate instance name {name!r}", line)
        self.gate_names.add(name)
        self.gates.append(Gate(len(self.gates), kind, inputs, output, name))


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
_MAX_BUS_BITS = 1 << 16  # far above any Trust-HUB bus; each bit is a net


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

    def _comma_list(self, item: Callable[[], object], close: str) -> list:
        """The results of ``item()`` over a comma-separated list, through
        ``close``."""
        items = [item()]
        while not self._accept(close):
            if not self._accept(","):
                raise self._error(f"expected ',' or {close!r}")
            items.append(item())
        return items

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
        for port, tok in self.b.ports.items():
            if tok is not None:
                raise self._error(f"port {port!r} has no input or output declaration", tok)
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
        if self._accept("(") and not self._accept(")"):
            ports = self._comma_list(lambda: (self.tok, self._ident("port name")), ")")
            for tok, port in ports:
                if port in self.b.ports:
                    raise self._error(f"port {port!r} listed twice", tok)
                self.b.ports[port] = tok
        self._expect(";", "';' after module header")

    def _bit_range(self) -> range:
        """The bit indexes of ``[msb:lsb]``, msb first; a mistake anywhere in
        it is reported at the ``[``."""
        bracket = self._advance()  # "[", or a whole bit select such as "[3]"
        parts = []
        for want in ("num", ":", "num", "]"):
            found = self.tok.kind if want == "num" else self.tok.text
            if bracket.text != "[" or found != want:
                raise self._error("expected bit range", bracket)
            parts.append(self._advance().text.lstrip("0") or "0")
        # Leading zeros dropped: int() refuses over 4300 digits; 20 pass the bound.
        msb, lsb = (int(p) if len(p) < 20 else -1 for p in parts[::2])
        if min(msb, lsb) < 0 or abs(msb - lsb) >= _MAX_BUS_BITS:
            raise self._error(f"bit range wider than {_MAX_BUS_BITS} bits", bracket)
        step = -1 if msb >= lsb else 1
        return range(msb, lsb + step, step)

    def _parse_declaration(self) -> None:
        keyword = self._advance()
        kw, line = keyword.text, keyword.line
        bits = self._bit_range() if self.tok.text.startswith("[") else None
        for base in self._comma_list(lambda: self._ident("net name"), ";"):
            if kw != "wire":
                # A vector declaration covers the port named by its base.
                if base not in self.b.ports:
                    raise ParseError(f"{kw} {base!r} is not in the module header", line)
                self.b.ports[base] = None
            for sc in [base] if bits is None else [f"{base}[{i}]" for i in bits]:
                nid = self.b.net_ids.get(sc)
                if nid is None:
                    nid = self.b.declare_net(sc, line)
                elif kw == "wire" and sc in self.b.port_nets:
                    # `wire` redeclaration of a port net is routine in
                    # synthesized netlists; ignore it.
                    continue
                elif kw == "wire" or sc in self.b.port_nets:
                    raise ParseError(f"net {sc!r} declared twice", line)
                if kw != "wire":
                    if kw == "input":
                        self.b.drive(nid, "the input port", line)
                    self.b.port_nets.add(sc)
                    (self.b.inputs if kw == "input" else self.b.outputs).append(nid)

    def _parse_assign(self) -> None:
        line = self._advance().line
        lhs = self._net_ref("assign target")
        self._expect("=", "'='")
        if self.tok.kind == "const":
            kind = CONST1 if self._advance().text.endswith("1") else CONST0
            self.b.add_gate(kind, (), lhs, f"__const_{self.b.nets[lhs].name}", line)
        else:
            rhs = self._net_ref("assign source")
            self.b.add_gate(BUF, (rhs,), lhs, f"__buf_{self.b.nets[lhs].name}", line)
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
            self._expect(";", "';'")
            self._build_named(cell, inst_name, conns, line)
        else:
            refs = self._comma_list(lambda: self._net_ref("connection"), ")")
            self._expect(";", "';'")
            self._build_positional(cell, inst_name, refs, line)

    def _parse_named_conns(self) -> dict[str, int]:
        conns: dict[str, int] = {}

        def conn() -> None:
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

        self._comma_list(conn, ")")
        return conns

    def _auto_name(self, inst_name: str) -> str:
        return inst_name or f"__g{len(self.b.gates)}"

    def _build_positional(
        self, cell: str, inst_name: str, refs: list[int], line: int
    ) -> None:
        # The output first, then the inputs in pin order: (Q, D, CLK[, RST])
        # for a DFF, whose reset _normalize_cell reads off len(refs).
        kind = _normalize_cell(cell, len(refs), line)
        if len(refs) != kind.num_inputs + 1:
            usage = f"{cell} expects {kind.num_inputs + 1} connections, got {len(refs)}"
            raise ParseError(_POSITIONAL_USAGE.get(kind.family, usage), line)
        self.b.add_gate(kind, tuple(refs[1:]), refs[0], self._auto_name(inst_name), line)

    def _build_named(
        self, cell: str, inst_name: str, conns: dict[str, int], line: int
    ) -> None:
        kind = _normalize_cell(cell, len(conns), line)
        name = self._auto_name(inst_name)
        dff = kind.is_sequential
        out_ref = _take(conns, _OUTPUT_PIN_NAMES if dff else _OUTPUT_PIN_NAMES[:-1])
        if out_ref is None:
            raise ParseError(f"instance {name!r} has no output pin", line)
        if dff:
            d, ck = _take(conns, _DFF_DATA_NAMES), _take(conns, _DFF_CLOCK_NAMES)
            if d is None or ck is None:
                raise ParseError(f"dff {name!r} is missing D or clock pin", line)
            rst = _take(conns, _DFF_RESET_NAMES)
            if conns:
                raise ParseError(
                    f"dff {name!r} has unsupported pins {sorted(conns)}", line
                )
            # No pin is left, so the connection count gave ``kind`` its reset.
            inputs = (d, ck) if rst is None else (d, ck, rst)
        else:
            # A mux takes its select first and fills data slots 0-1 like a gate.
            mux = kind is MUX2
            slots = {2: _take(conns, _MUX_SELECT_NAMES)} if mux else {}
            if mux and slots[2] is None:
                raise ParseError(f"mux {name!r} is missing a select pin", line)
            for pin, ref in conns.items():
                slot = _INPUT_PIN_NAMES.get(pin)
                if slot is None or (mux and slot > 1):
                    what = "mux" if mux else "instance"
                    raise ParseError(f"{what} {name!r} has unsupported pin {pin!r}", line)
                slots[slot] = ref
            if sorted(slots) != list(range(kind.num_inputs)):
                raise ParseError(
                    f"mux {name!r} needs two data pins" if mux
                    else f"instance {name!r} expects {kind.num_inputs} data pins",
                    line,
                )
            inputs = tuple(slots[i] for i in range(kind.num_inputs))
        self.b.add_gate(kind, inputs, out_ref, name, line)


def _apply_labels(b: _Builder, spec: LabelSpec) -> tuple[set[int], set[int]]:
    """The Trojan gates and nets; in every mode the gates drive the nets."""
    if spec.mode == "regex":
        rx = re.compile(spec.pattern)
        nets = {g.output for g in b.gates if rx.search(g.name)}
        nets.update(net.id for net in b.nets if rx.search(net.name))
    elif spec.mode == "sidecar":
        unknown = sorted(spec.trojan_nets - b.net_ids.keys())
        if unknown:
            raise NetlistError(f"sidecar lists unknown net {unknown[0]!r}")
        nets = {b.net_ids[name] for name in spec.trojan_nets}
    else:
        return set(), set()
    return {g.id for g in b.gates if g.output in nets}, nets


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
