"""Parser, graph invariants, labels, Verilog round trips, graph-JSON dump."""
from __future__ import annotations

import hashlib
import json
import random
import re
import time
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from conftest import FIXTURE_DIR, fixture_names, load_fixture, parse_scalegen
from htlab import (
    CircuitGraph,
    DanglingPinError,
    Gate,
    LabelSpec,
    MultipleDriverError,
    Net,
    NetlistError,
    ParseError,
    UnknownCellError,
    emit_verilog,
    parse_verilog,
    synth,
    synth_circuit,
)
from htlab.netlist import (
    _DFF_CLOCK_NAMES,
    _DFF_DATA_NAMES,
    _DFF_RESET_NAMES,
    _INPUT_PIN_NAMES,
    _KINDS,
    _MUX_SELECT_NAMES,
    _OUTPUT_PIN_NAMES,
    AND,
    BUF,
    GRAPH_SCHEMA,
    NOT,
)

EXPECTED_GATES = {
    "alias_buf": 4,
    "comb_tree": 3,
    "const_mix": 5,
    "dff_pipe": 5,
    "diamond": 4,
    "fanout_hub": 5,
    "inv_chain": 9,
    "loop_counter": 3,
    "mux_ladder": 4,
    "seq_mix": 3,
    "troj_mini": 5,
    "vec_bus": 4,
    "wide_fan": 4,
}


def test_fixture_inventory():
    assert sorted(EXPECTED_GATES) == fixture_names()
    assert len(fixture_names()) >= 10


@pytest.mark.parametrize("stem", sorted(EXPECTED_GATES))
def test_fixture_parses_with_expected_gate_count(stem, fixture_circuits):
    c = fixture_circuits[stem]
    assert c.stats()["gates"] == EXPECTED_GATES[stem]
    assert c.name == stem
    # every gate pin references a known net, and every net id is keyed correctly
    for g in c.gates.values():
        for nid in (*g.inputs, g.output):
            assert nid in c.nets
    for nid, net in c.nets.items():
        assert net.id == nid


def test_driver_consumer_consistency(fixture_circuits):
    # Random circuits read one net on several pins of a gate, and clock
    # their flip-flops from primary inputs that also feed data pins.
    random_circuits = [_oracles.random_circuit(seed, 4, 25, True) for seed in range(20)]
    control_only = 0
    for c in [*fixture_circuits.values(), *random_circuits]:
        for g in c.gates.values():
            assert c.driver(g.output) is g
        for nid in c.nets:
            # Every data-pin reader once, by gate id; a gate that reads the
            # net only on a clock or reset pin is not a reader.
            want = [g for g in c.gates.values()
                    if nid in (g.inputs[:1] if g.kind.family == "DFF" else g.inputs)]
            assert list(c.readers(nid)) == sorted(want, key=lambda g: g.id)
            control_only += sum(1 for g in c.gates.values()
                                if nid in g.inputs and g not in want)
    assert control_only
    for c in fixture_circuits.values():
        for nid in c.nets:
            if c.driver(nid) is None and nid not in c.primary_inputs:
                # A floating fixture net is read by no pin at all, data or control.
                assert not any(nid in g.inputs for g in c.gates.values())


def test_vector_ports_expand_to_bit_nets(fixture_circuits):
    c = fixture_circuits["vec_bus"]
    names = {n.name for n in c.nets.values()}
    assert {"a[0]", "a[1]", "y[0]", "y[1]"} <= names
    assert c.net_by_name("a[0]").id in c.primary_inputs
    assert c.net_by_name("y[1]").id in c.primary_outputs


def test_alias_assign_becomes_buf(fixture_circuits):
    c = fixture_circuits["alias_buf"]
    bufs = [g for g in c.gates.values() if g.kind.family == "BUF"]
    assert any(g.name.startswith("__buf_") for g in bufs)


def test_const_assign_becomes_const_gate(fixture_circuits):
    c = fixture_circuits["const_mix"]
    fams = sorted(g.kind.family for g in c.gates.values())
    assert "CONST0" in fams and "CONST1" in fams
    const = next(g for g in c.gates.values() if g.kind.family == "CONST0")
    assert const.inputs == () and const.output in c.nets


def test_lookup_helpers(troj_mini):
    g = troj_mini.gate_by_name("troj_and")
    assert g.kind.family == "AND" and g.kind.fanin == 3
    n = troj_mini.net_by_name("t1")
    assert troj_mini.driver(n.id) is g
    with pytest.raises(KeyError):
        troj_mini.gate_by_name("nonexistent")
    with pytest.raises(KeyError):
        troj_mini.net_by_name("nonexistent")


# -- labels ------------------------------------------------------------------


def test_sidecar_labels(troj_mini):
    names = sorted(troj_mini.nets[n].name for n in troj_mini.trojan_net_ids)
    assert names == ["py", "t1", "t2"]
    gate_names = sorted(troj_mini.gates[g].name for g in troj_mini.trojan_gate_ids)
    assert gate_names == ["troj_and", "troj_inv", "troj_xor"]


def test_regex_labels_match_sidecar():
    src = (FIXTURE_DIR / "troj_mini.v").read_text()
    by_regex = parse_verilog(src, label_spec=LabelSpec.name_regex(r"^troj_"), name="troj_mini")
    by_sidecar = load_fixture("troj_mini")
    assert by_regex.trojan_gate_ids == by_sidecar.trojan_gate_ids
    assert by_regex.trojan_net_ids == by_sidecar.trojan_net_ids


def test_none_labels():
    src = (FIXTURE_DIR / "troj_mini.v").read_text()
    c = parse_verilog(src, label_spec=LabelSpec.none())
    assert not c.trojan_net_ids and not c.trojan_gate_ids


def test_sidecar_unknown_net_rejected():
    src = (FIXTURE_DIR / "comb_tree.v").read_text()
    with pytest.raises(NetlistError):
        parse_verilog(src, label_spec=LabelSpec.sidecar(["missing_net"]))


def test_label_spec_validation():
    with pytest.raises(ValueError):
        LabelSpec(mode="bogus")
    with pytest.raises(ValueError):
        LabelSpec(mode="regex", pattern="")
    with pytest.raises(ValueError) as exc:
        LabelSpec.name_regex("(")
    assert str(exc.value) == (
        "invalid label regex '(': missing ), unterminated subpattern at position 0")


# -- parse errors ------------------------------------------------------------


def test_unknown_cell_reports_position():
    src = "module m (a, y);\n  input a;\n  output y;\n  FROBX1 u1 (y, a);\nendmodule\n"
    with pytest.raises(UnknownCellError) as exc:
        parse_verilog(src)
    assert "line 4" in str(exc.value)


def test_multiple_driver_error():
    src = (
        "module m (a, b, y);\n  input a, b;\n  output y;\n"
        "  INVX1 u1 (y, a);\n  INVX1 u2 (y, b);\nendmodule\n"
    )
    with pytest.raises(MultipleDriverError):
        parse_verilog(src)


def test_dangling_pin_error():
    src = "module m (a, y);\n  input a;\n  output y;\n  AND2X1 u1 (y, a, ghost);\nendmodule\n"
    with pytest.raises(DanglingPinError):
        parse_verilog(src)


def test_syntax_error_reports_line_and_col():
    src = "module m (a, y);\n  input a\n  output y;\nendmodule\n"
    with pytest.raises(ParseError) as exc:
        parse_verilog(src)
    msg = str(exc.value)
    assert "line" in msg and "col" in msg


def test_wrong_arity_rejected():
    src = "module m (a, y);\n  input a;\n  output y;\n  not u1 (y, a, a);\nendmodule\n"
    with pytest.raises(ParseError):
        parse_verilog(src)


def test_errors_are_netlist_errors():
    for exc_type in (ParseError, UnknownCellError, MultipleDriverError, DanglingPinError):
        assert issubclass(exc_type, NetlistError)


# Every parser error, pinned: exception class and message, with line and col.
_HEAD = "module m (a, b, y);\n  input a, b;\n  output y;\n"
_VEC_HEAD = "module m (a, y);\n  input [3:0] a;\n  output y;\n"


def _behavioral(keyword: str) -> str:
    return (
        f"behavioral construct {keyword!r} is not supported; "
        "only structural netlists are accepted at line 4"
    )


PARSE_ERRORS = [
    ("unknown_cell", _HEAD + "  FROBX1 u1 (y, a);\nendmodule\n",
     UnknownCellError, "unknown cell type 'FROBX1' at line 4"),
    ("missing_semicolon_declaration", "module m (a, y);\n  input a\n  output y;\nendmodule\n",
     ParseError, "expected ',' or ';' at line 3, col 3"),
    ("missing_semicolon_header", "module m (a, y)\n  input a;\n  output y;\nendmodule\n",
     ParseError, "expected ';' after module header at line 2, col 3"),
    ("missing_semicolon_instance", _HEAD + "  not u1 (y, a)\nendmodule\n",
     ParseError, "expected ';' at line 5, col 1"),
    ("missing_endmodule", _HEAD + "  not u1 (y, a);\n",
     ParseError, "missing endmodule at line 5, col 1"),
    ("trailing_text", _HEAD + "  not u1 (y, a);\nendmodule\nfoo\n",
     ParseError, "trailing text after endmodule at line 6, col 1"),
    ("second_module", _HEAD + "  not u1 (y, a);\nendmodule\nmodule n;\nendmodule\n",
     ParseError, "multiple modules per file are not supported at line 6"),
    ("behavioral_always", _HEAD + "  always @(a) y = a;\nendmodule\n",
     ParseError, _behavioral("always")),
    ("behavioral_initial", _HEAD + "  initial y = 0;\nendmodule\n",
     ParseError, _behavioral("initial")),
    ("behavioral_reg", _HEAD + "  reg r;\nendmodule\n",
     ParseError, _behavioral("reg")),
    ("behavioral_if", _HEAD + "  if (a) y = b;\nendmodule\n",
     ParseError, _behavioral("if")),
    ("behavioral_case", _HEAD + "  case (a)\nendmodule\n",
     ParseError, _behavioral("case")),
    ("behavioral_function", _HEAD + "  function f;\nendmodule\n",
     ParseError, _behavioral("function")),
    ("behavioral_task", _HEAD + "  task t;\nendmodule\n",
     ParseError, _behavioral("task")),
    ("expected_statement", _HEAD + "  ;\nendmodule\n",
     ParseError, "expected a statement at line 4, col 3"),
    ("expected_statement_number", _HEAD + "  42 u1 (y, a);\nendmodule\n",
     ParseError, "expected a statement at line 4, col 3"),
    ("undeclared_net", _HEAD + "  and u1 (y, a, ghost);\nendmodule\n",
     DanglingPinError, "connection references undeclared net 'ghost' (line 4)"),
    ("undeclared_bit", _VEC_HEAD + "  not u1 (y, a[5]);\nendmodule\n",
     DanglingPinError, "connection references undeclared net 'a[5]' (line 4)"),
    ("non_numeric_bit_select", _VEC_HEAD + "  not u1 (y, a[x]);\nendmodule\n",
     DanglingPinError, "connection references undeclared net 'a' (line 4)"),
    ("non_numeric_bit_select_of_scalar", _HEAD + "  not u1 (y, a[x]);\nendmodule\n",
     ParseError, "expected ',' or ')' at line 4, col 15"),
    ("positional_missing_comma", _HEAD + "  not u1 (y a);\nendmodule\n",
     ParseError, "expected ',' or ')' at line 4, col 13"),
    ("positional_missing_paren", _HEAD + "  not u1 (y, a;\nendmodule\n",
     ParseError, "expected ',' or ')' at line 4, col 15"),
    ("positional_empty", _HEAD + "  not u1 ();\nendmodule\n",
     ParseError, "expected connection at line 4, col 11"),
    ("positional_not_arity", _HEAD + "  not u1 (y, a, b);\nendmodule\n",
     ParseError, "not expects 2 connections, got 3 at line 4"),
    ("positional_and_arity", _HEAD + "  and u1 (y, a);\nendmodule\n",
     ParseError, "and supports 2..5 inputs, got 1 at line 4"),
    ("positional_lib_arity", _HEAD + "  AND3X1 u1 (y, a, b);\nendmodule\n",
     ParseError, "AND3X1 expects 4 connections, got 3 at line 4"),
    ("positional_dff_arity", _HEAD + "  dff u1 (y, a);\nendmodule\n",
     ParseError, "dff expects (q, d, clk[, rst]) at line 4"),
    ("positional_mux_arity", _HEAD + "  mux2 u1 (y, a, b);\nendmodule\n",
     ParseError, "mux2 expects (y, a, b, s) at line 4"),
    ("named_missing_dot", _HEAD + "  AND2X1 u1 (.A(a), B(b), .Y(y));\nendmodule\n",
     ParseError, "expected '.' at line 4, col 21"),
    ("named_unconnected", _HEAD + "  AND2X1 u1 (.A(a), .B(), .Y(y));\nendmodule\n",
     ParseError, "unconnected pin .B() is not supported at line 4"),
    ("named_pin_twice", _HEAD + "  AND2X1 u1 (.A(a), .A(b\n  ), .Y(y));\nendmodule\n",
     ParseError, "pin 'A' connected twice at line 5"),
    ("named_missing_close", _HEAD + "  AND2X1 u1 (.A(a b), .Y(y));\nendmodule\n",
     ParseError, "expected ')' at line 4, col 19"),
    ("named_missing_comma", _HEAD + "  AND2X1 u1 (.A(a) .B(b), .Y(y));\nendmodule\n",
     ParseError, "expected ',' or ')' at line 4, col 20"),
    ("named_no_output", _HEAD + "  AND2X1 u1 (.A(a), .B(b));\nendmodule\n",
     ParseError, "instance 'u1' has no output pin at line 4"),
    ("named_unsupported_pin", _HEAD + "  AND2X1 u1 (.A(a), .FOO(b), .Y(y));\nendmodule\n",
     ParseError, "instance 'u1' has unsupported pin 'FOO' at line 4"),
    ("named_wrong_data_pins", _HEAD + "  AND2X1 u1 (.A(a), .C(b), .Y(y));\nendmodule\n",
     ParseError, "instance 'u1' expects 2 data pins at line 4"),
    ("named_dff_missing_clock", _HEAD + "  DFFX1 u1 (.D(a), .Q(y));\nendmodule\n",
     ParseError, "dff 'u1' is missing D or clock pin at line 4"),
    ("named_dff_unsupported_pin",
     _HEAD + "  DFFX1 u1 (.D(a), .CK(b), .SE(b), .Q(y));\nendmodule\n",
     ParseError, "dff 'u1' has unsupported pins ['SE'] at line 4"),
    ("named_mux_no_select", _HEAD + "  MX2X1 u1 (.A(a), .B(b), .Y(y));\nendmodule\n",
     ParseError, "mux 'u1' is missing a select pin at line 4"),
    ("named_mux_unsupported_pin", _HEAD + "  MX2X1 u1 (.A(a), .C(b), .S(a), .Y(y));\nendmodule\n",
     ParseError, "mux 'u1' has unsupported pin 'C' at line 4"),
    ("input_declared_twice", _HEAD + "  input a;\nendmodule\n",
     ParseError, "net 'a' declared twice at line 4"),
    ("wire_declared_twice", _HEAD + "  wire w;\n  wire w;\nendmodule\n",
     ParseError, "net 'w' declared twice at line 5"),
    ("bit_range_not_numeric", "module m (a, y);\n  input [3:x] a;\n  output y;\nendmodule\n",
     ParseError, "expected bit range at line 2, col 9"),
    ("bit_range_single_bit", "module m (a, y);\n  input [3] a;\n  output y;\nendmodule\n",
     ParseError, "expected bit range at line 2, col 9"),
    ("bit_range_too_wide", _HEAD + "  wire [0:65536] w;\nendmodule\n",
     ParseError, "bit range wider than 65536 bits at line 4, col 8"),
    ("bit_range_past_int_digits", _HEAD + f"  wire [{'9' * 5000}:0] w;\nendmodule\n",
     ParseError, "bit range wider than 65536 bits at line 4, col 8"),
    ("assign_missing_equals", _HEAD + "  assign y a;\nendmodule\n",
     ParseError, "expected '=' at line 4, col 12"),
    ("assign_missing_source", _HEAD + "  assign y = ;\nendmodule\n",
     ParseError, "expected assign source at line 4, col 14"),
    ("assign_missing_semicolon", _HEAD + "  assign y = a\nendmodule\n",
     ParseError, "expected ';' at line 5, col 1"),
    ("duplicate_instance", _HEAD + "  not u1 (y, a);\n  wire w;\n  not u1 (w, b);\nendmodule\n",
     ParseError, "duplicate instance name 'u1' at line 6"),
    ("unterminated_comment", _HEAD + "  /* not u1 (y, a);\nendmodule\n",
     ParseError, "unterminated block comment at line 4"),
    ("empty_file", "",
     ParseError, "expected 'module' at line 1, col 1"),
    ("blank_file", "\n\n  \n",
     ParseError, "expected 'module' at line 4, col 1"),
    ("missing_module_name", "module (a);\nendmodule\n",
     ParseError, "expected module name at line 1, col 8"),
    ("missing_port_name", "module m (a, , y);\nendmodule\n",
     ParseError, "expected port name at line 1, col 14"),
    ("missing_instance_name", _HEAD + "  not [3] (y, a);\nendmodule\n",
     ParseError, "expected instance name at line 4, col 7"),
    ("bit_select_across_lines",
     _VEC_HEAD + "  wire w;\n  not u1 (w, a[\n0]);\n  not u2 (y w);\nendmodule\n",
     ParseError, "expected ',' or ')' at line 7, col 13"),
    ("bit_select_across_lines_as_instance_name", _HEAD + "  not [\n3] (y, a);\nendmodule\n",
     ParseError, "expected instance name at line 4, col 7"),
    ("missing_open_paren", _HEAD + "  not u1 y, a);\nendmodule\n",
     ParseError, "expected '(' at line 4, col 10"),
    # A second driver fails with both drivers named, each with its line.
    ("multiple_drivers", _HEAD + "  not u1 (y, a);\n  not u2 (y, b);\nendmodule\n",
     MultipleDriverError, "net 'y' driven by both 'u1' (line 4) and 'u2' (line 5)"),
    ("multiple_drivers_on_wire",
     _HEAD + "  wire w;\n  and g1 (w, a, b);\n  or g2 (w, a, b);\nendmodule\n",
     MultipleDriverError, "net 'w' driven by both 'g1' (line 5) and 'g2' (line 6)"),
    ("gate_drives_assign_target", _HEAD + "  assign y = a;\n  not g (y, a);\nendmodule\n",
     MultipleDriverError, "net 'y' driven by both '__buf_y' (line 4) and 'g' (line 5)"),
    ("gate_drives_input", _HEAD + "  not g (a, b);\nendmodule\n",
     MultipleDriverError, "net 'a' driven by both the input port (line 2) and 'g' (line 4)"),
    ("input_declared_after_its_driver",
     "module m (a, b, y);\n  input b;\n  output y;\n  wire a;\n  not g (a, b);\n"
     "  input a;\nendmodule\n",
     MultipleDriverError, "net 'a' driven by both 'g' (line 5) and the input port (line 6)"),
    ("constant_assigned_twice", _HEAD + "  assign y = 1'b1;\n  assign y = 1'b0;\nendmodule\n",
     MultipleDriverError,
     "net 'y' driven by both '__const_y' (line 4) and '__const_y' (line 5)"),
    ("named_not_arity", _HEAD + "  not u1 (.A(a), .B(b), .Y(y));\nendmodule\n",
     ParseError, "not expects 2 connections, got 3 at line 4"),
    ("named_q_on_gate", _HEAD + "  AND2X1 u1 (.A(a), .B(b), .Q(y));\nendmodule\n",
     ParseError, "instance 'u1' has no output pin at line 4"),
    ("digitless_lib_arity", _HEAD + "  ANDX1 u1 (y, a);\nendmodule\n",
     UnknownCellError, "unknown cell type 'ANDX1' at line 4"),
    ("cell_name_past_int_digits", _HEAD + f"  AND{'7' * 5000}X1 u1 (y, a, b);\nendmodule\n",
     UnknownCellError, f"unknown cell type 'AND{'7' * 5000}X1' at line 4"),
    # The module header: every port an input or output, listed once.
    ("header_missing_comma", "module m (a y);\n  input a;\n  output y;\nendmodule\n",
     ParseError, "expected ',' or ')' at line 1, col 13"),
    ("header_trailing_comma", "module m (a, y,);\n  input a;\n  output y;\nendmodule\n",
     ParseError, "expected port name at line 1, col 16"),
    ("header_ansi_style", "module m (input a, output y);\nendmodule\n",
     ParseError, "expected ',' or ')' at line 1, col 17"),
    ("header_port_twice", "module m (a, y, a);\n  input a;\n  output y;\nendmodule\n",
     ParseError, "port 'a' listed twice at line 1, col 17"),
    ("header_port_only_a_wire",
     "module m (a, y, w);\n  input a;\n  output y;\n  wire w;\nendmodule\n",
     ParseError, "port 'w' has no input or output declaration at line 1, col 17"),
    ("input_not_in_header", _HEAD + "  input w;\nendmodule\n",
     ParseError, "input 'w' is not in the module header at line 4"),
    ("output_vector_not_in_header", _HEAD + "  output [1:0] w;\nendmodule\n",
     ParseError, "output 'w' is not in the module header at line 4"),
    ("input_without_header", "module m;\n  input a;\nendmodule\n",
     ParseError, "input 'a' is not in the module header at line 2"),
    ("header_bit_for_vector_input",
     "module m (\\a[0] , y);\n  input [1:0] a;\n  output y;\nendmodule\n",
     ParseError, "input 'a' is not in the module header at line 2"),
]


@pytest.mark.parametrize(
    "source, exc_type, message",
    [pytest.param(*row[1:], id=row[0]) for row in PARSE_ERRORS],
)
def test_parse_error_golden(source, exc_type, message):
    with pytest.raises(exc_type) as exc:
        parse_verilog(source)
    assert type(exc.value) is exc_type
    assert str(exc.value) == message


def test_header_ports_match_declarations_by_base_or_full_name():
    src = ("module m (a, \\b[0] , y);\n  input [1:0] a;\n  input \\b[0] ;\n  output y;\n"
           "  and u1 (y, a[0], a[1], \\b[0] );\nendmodule\n")
    c = parse_verilog(src)
    assert [c.nets[i].name for i in c.primary_inputs] == ["a[1]", "a[0]", "b[0]"]
    assert [c.nets[i].name for i in c.primary_outputs] == ["y"]


# -- accepted spellings --------------------------------------------------------

# Named pins by role: one instance of each cell, in canonical spelling.
_GATE5 = {"A": "a", "B": "b", "C": "c", "D": "d", "E": "e", "Y": "y"}
_MUX = {"A": "a", "B": "b", "S": "s", "Y": "y"}
_DFF_R = {"D": "d", "CK": "ck", "R": "r", "Q": "y"}
_DFF = {"D": "d", "CK": "ck", "Q": "y"}


def _named(cell: str, pins: dict[str, str]) -> str:
    return f"{cell} u1 ({', '.join(f'.{pin}({net})' for pin, net in pins.items())})"


def _respelled(pins: dict[str, str], canonical: str, alias: str) -> dict[str, str]:
    return {alias if pin == canonical else pin: net for pin, net in pins.items()}


def _spellings() -> list:
    """(id, instance, the same instance in canonical spelling)."""
    rows = [(f"input_{pin}", _named("AND5X1", _respelled(_GATE5, "ABCDE"[slot], pin)),
             _named("AND5X1", _GATE5)) for pin, slot in _INPUT_PIN_NAMES.items()]
    rows += [(f"output_{pin}", _named("AND5X1", _respelled(_GATE5, "Y", pin)),
              _named("AND5X1", _GATE5)) for pin in _OUTPUT_PIN_NAMES if pin != "Q"]
    rows += [(f"dff_output_{pin}", _named("DFFX1", _respelled(_DFF_R, "Q", pin)),
              _named("DFFX1", _DFF_R)) for pin in _OUTPUT_PIN_NAMES]
    rows += [(f"select_{pin}", _named("MUX2X1", _respelled(_MUX, "S", pin)),
              _named("MUX2X1", _MUX)) for pin in _MUX_SELECT_NAMES]
    for canonical, names in (("D", _DFF_DATA_NAMES), ("CK", _DFF_CLOCK_NAMES),
                             ("R", _DFF_RESET_NAMES)):
        rows += [(f"dff_{pin}", _named("DFFX1", _respelled(_DFF_R, canonical, pin)),
                  _named("DFFX1", _DFF_R)) for pin in names]
    # Primitive names in two cases, each with its fanin from the connections.
    conns = ["y", "a", "b", "c", "d", "e"]
    for i, prim in enumerate(("and", "nand", "or", "nor", "xor", "xnor")):
        fanin = 2 + i % 4
        lib, args = f"{prim.upper()}{fanin}X1", ", ".join(conns[:fanin + 1])
        rows += [(f"cell_{cell}", f"{cell} u1 ({args})", f"{lib} u1 ({args})")
                 for cell in (prim, prim.upper())]
    for prim, lib in (("not", "INVX1"), ("inv", "INVX1"), ("buf", "BUFX1")):
        rows += [(f"cell_{cell}", f"{cell} u1 (y, a)", f"{lib} u1 (y, a)")
                 for cell in (prim, prim.upper())]
    rows.append(("cell_NANDX1", "NANDX1 u1 (y, a, b)", "NAND2X1 u1 (y, a, b)"))
    rows += [(f"cell_{cell}", _named(cell, _MUX), _named("MUX2X1", _MUX))
             for cell in ("mux", "mux2", "mux21", "MX2X1", "MUX4X1")]
    for cell in ("dff", "dffr", "dff_r", "fd", "fdr", "SDFFX1"):
        rows += [(f"cell_{cell}{suffix}", _named(cell, pins), _named("DFFX1", pins))
                 for suffix, pins in (("", _DFF), ("_reset", _DFF_R))]
    return [pytest.param(instance, canonical, id=rid) for rid, instance, canonical in rows]


@pytest.mark.parametrize("instance, canonical", _spellings())
def test_every_accepted_spelling_parses_as_its_canonical_one(instance, canonical):
    head = "module m (a, b, c, d, e, s, ck, r, y);\n  input a, b, c, d, e, s, ck, r;\n  output y;\n"
    parsed = [parse_verilog(f"{head}  {text};\nendmodule\n").to_json_dict()
              for text in (instance, canonical)]
    assert parsed[0] == parsed[1]


def test_parsed_graphs_are_pinned(corpus12, fixture_circuits):
    # Every accepted netlist spelling the repo writes, through the parser:
    # the fixtures, the synthetic corpus as emitted, and the benchmark's
    # scale netlists; any change to a parsed graph shows here.
    circuits = [fixture_circuits[stem] for stem in fixture_names()]
    for c in corpus12:
        spec = LabelSpec.sidecar(c.nets[n].name for n in c.trojan_net_ids)
        circuits.append(parse_verilog(emit_verilog(c), label_spec=spec))
    circuits += [parse_scalegen(1000, 16), parse_scalegen(4000, 16)]
    digest = hashlib.sha256()
    for c in circuits:
        digest.update(json.dumps(c.to_json_dict(), indent=2).encode())
    assert digest.hexdigest() == (
        "3f61da12056701c127486664889eb5713d6736cdeb4cc3237e29c4a5068d7df1")


def test_column_counts_block_comment_on_same_line():
    for comment in ("/* c */", "/* c\n  more */"):
        src = _HEAD + f"  {comment} not u1 (y a);\nendmodule\n"
        with pytest.raises(ParseError) as exc:
            parse_verilog(src)
        assert exc.value.col == 21
        assert exc.value.line == 4 + comment.count("\n")


@pytest.mark.parametrize("middle", ["a//b", "a/*b", "a*/b"])
def test_escaped_name_with_comment_marker_round_trips(middle):
    nets = [Net(0, "a"), Net(1, middle), Net(2, "y")]
    gates = [Gate(0, NOT, (0,), 1, "u1"), Gate(1, NOT, (1,), 2, "u2")]
    c = CircuitGraph("m", gates, nets, (0,), (2,))
    assert _by_names(parse_verilog(emit_verilog(c))) == _by_names(c)


@pytest.mark.parametrize("net_name, inst_name", [("a b", "u2"), ("mid", "u 2")])
def test_emit_rejects_name_with_whitespace(net_name, inst_name):
    nets = [Net(0, "a"), Net(1, net_name), Net(2, "y")]
    gates = [Gate(0, NOT, (0,), 1, "u1"), Gate(1, NOT, (1,), 2, inst_name)]
    c = CircuitGraph("m", gates, nets, (0,), (2,))
    bad = net_name if " " in net_name else inst_name
    with pytest.raises(NetlistError, match=f"^name {bad!r} cannot be written"):
        emit_verilog(c)


def test_error_at_end_of_source_after_line_comment():
    with pytest.raises(ParseError, match=r"^missing endmodule at line 4, col 25$"):
        parse_verilog(_HEAD + "  not u1 (y, a); // done")


def test_source_may_end_without_newline():
    c = parse_verilog(_HEAD + "  not u1 (y, a);\nendmodule")
    assert c.stats()["gates"] == 1


@pytest.mark.parametrize("keyword", ["input", "wire"])
def test_declaration_keyword_may_touch_bit_range(keyword):
    ports = "a, y, w" if keyword == "input" else "a, y"  # an input is a header port
    src = (
        f"module m ({ports});\n  input a;\n  output y;\n  {keyword}[1:0] w;\n"
        "  not u1 (y, a);\nendmodule\n"
    )
    c = parse_verilog(src)
    assert {"w[0]", "w[1]"} <= {n.name for n in c.nets.values()}


def test_reg_touching_bit_range_is_behavioral():
    with pytest.raises(ParseError, match="behavioral construct 'reg'"):
        parse_verilog(_HEAD + "  reg[1:0] r;\nendmodule\n")


def test_unterminated_comment_after_syntax_error_reports_the_syntax_error():
    src = _HEAD + "  not u1 (y a);\n  /* open\nendmodule\n"
    with pytest.raises(ParseError, match=r"^expected ',' or '\)' at line 4, col 13$"):
        parse_verilog(src)


def test_wide_bus_fails_fast_and_the_widest_allowed_parses():
    # Each declared bit is a net: 71 bytes must not ask for a million of them.
    src = "module m (a, y);\n  input a;\n  output y;\n  wire [999999:0] w;\nendmodule\n"
    start = time.perf_counter()
    with pytest.raises(ParseError, match="wider than 65536 bits at line 4, col 8"):
        parse_verilog(src)
    assert time.perf_counter() - start < 0.1
    c = parse_verilog(src.replace("999999:0", "65535:0"))
    assert len(c.nets) == 2 + 65536 and c.net_by_name("w[65535]")
    c = parse_verilog(src.replace("999999:0", "0" * 5000 + "1:0"))
    assert [c.nets[nid].name for nid in c.sorted_net_ids()[2:]] == ["w[1]", "w[0]"]


def test_long_chain_error_is_located_in_linear_time():
    """A 20k-gate chain whose last instance lacks a comma parses in seconds."""
    n = 20_000
    lines = [f"module chain (n0, n{n});", "  input n0;", f"  output n{n};"]
    lines += [f"  wire n{i};" for i in range(1, n)]
    lines += [f"  not u{i} (n{i + 1}, n{i});" for i in range(n - 1)]
    lines.append(f"  not u{n - 1} (n{n} n{n - 1});")
    lines.append("endmodule")
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_verilog("\n".join(lines) + "\n")
    elapsed = time.perf_counter() - start
    assert exc.value.line == len(lines) - 1
    assert exc.value.col == len(f"  not u{n - 1} (n{n} ") + 1
    assert elapsed < 10.0


_FUZZ_CHARS = "()[]:;,.=\\/*01x \nabyANDXNOTdffwireinput"


def _mutants(text: str, rng: random.Random, count: int):
    """Seeded mutants of one netlist: a deleted span, inserted characters, a
    duplicated line, or a truncation."""
    lines = text.splitlines(keepends=True)
    for _ in range(count):
        kind, i = rng.randrange(4), rng.randrange(len(text))
        if kind == 0:
            yield text[:i] + text[i + rng.randint(1, 16):]
        elif kind == 1:
            yield text[:i] + "".join(rng.choices(_FUZZ_CHARS, k=rng.randint(1, 4))) + text[i:]
        elif kind == 2:
            k = rng.randrange(len(lines))
            yield "".join(lines[:k + 1] + lines[k:])
        else:
            yield text[:i]


def _copied_instances(text: str):
    """Mutants that repeat one instance line under a fresh instance name, so
    that its output gets a second driver; each with the copy's line number."""
    lines = text.splitlines(keepends=True)
    for k, line in enumerate(lines):
        m = re.match(r"\s*(\w+) (\w+) \(", line)
        if m and m[1] != "module":
            copy = line.replace(f" {m[2]} (", f" {m[2]}_copy (", 1)
            yield "".join(lines[:k + 1] + [copy] + lines[k + 1:]), k + 2


def test_parser_fuzz_fails_located_in_time_proportional_to_length():
    # Every mutant parses, or fails with a NetlistError that names a line of
    # it, within a bound linear in its length.  The long cases once raised a
    # bare ValueError from int(), or made a million nets.
    rng = random.Random(2024)
    sources = []
    for stem in fixture_names():
        sources += _mutants((FIXTURE_DIR / f"{stem}.v").read_text(), rng, 30)
    troj = (FIXTURE_DIR / "troj_mini.v").read_text()
    sources += [troj.replace("AND2X1", f"AND{'7' * 5000}X1"),
                troj.replace("wire h,", f"wire [{'9' * 5000}:0] h,"),
                troj.replace("wire h,", "wire [999999:0] w;\n  wire h,")]
    copies = [c for stem in fixture_names()
              for c in _copied_instances((FIXTURE_DIR / f"{stem}.v").read_text())]
    for text, line in copies:
        with pytest.raises(MultipleDriverError, match=rf"_copy' \(line {line}\)$"):
            parse_verilog(text)
    sources += [text for text, _ in copies]
    failed = 0
    for text in sources:
        start = time.perf_counter()
        try:
            parse_verilog(text)
        except NetlistError as exc:
            failed += 1
            line = re.search(r"\bline (\d+)", str(exc))
            assert line and 1 <= int(line[1]) <= text.count("\n") + 1, repr(exc)[:200]
        assert time.perf_counter() - start < 0.05 + 2e-4 * len(text), repr(text[:200])
    assert 0 < failed < len(sources)


def _by_names(c: CircuitGraph) -> tuple:
    name = {nid: net.name for nid, net in c.nets.items()}
    return (
        {
            g.name: (str(g.kind), [name[i] for i in g.inputs], name[g.output])
            for g in c.gates.values()
        },
        [name[i] for i in c.primary_inputs],
        [name[i] for i in c.primary_outputs],
        {name[i] for i in c.trojan_net_ids},
        {c.gates[g].name for g in c.trojan_gate_ids},
    )


@settings(max_examples=12, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=11),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_emit_parse_round_trip_is_isomorphic(index, seed):
    c = synth_circuit(index, seed=seed)
    spec = LabelSpec.sidecar([c.nets[n].name for n in c.trojan_net_ids])
    c2 = parse_verilog(emit_verilog(c), label_spec=spec)
    assert c2.name == c.name
    assert _by_names(c2) == _by_names(c)


# -- round trips ---------------------------------------------------------------


@pytest.mark.parametrize("stem", sorted(EXPECTED_GATES))
def test_emit_verilog_round_trip(stem, fixture_circuits):
    c = fixture_circuits[stem]
    emitted = emit_verilog(c)
    spec = LabelSpec.sidecar([c.nets[n].name for n in c.trojan_net_ids])
    c2 = parse_verilog(emitted, label_spec=spec, name=c.name)
    assert c2.stats() == c.stats()
    assert sorted(n.name for n in c2.nets.values()) == sorted(n.name for n in c.nets.values())
    assert sorted(c2.nets[i].name for i in c2.primary_inputs) == sorted(
        c.nets[i].name for i in c.primary_inputs
    )
    assert {c2.nets[i].name for i in c2.trojan_net_ids} == {
        c.nets[i].name for i in c.trojan_net_ids
    }


def _assert_dump_matches_graph(c: CircuitGraph) -> dict:
    """The graph-JSON text of ``c``, read back with ``json``, lists every net
    and gate of ``c`` in id order, field by field, and its port lists."""
    data = json.loads(json.dumps(c.to_json_dict(), indent=2))
    assert data["graph_schema"] == GRAPH_SCHEMA and data["name"] == c.name
    assert data["nets"] == [
        {"id": n.id, "name": n.name, "trojan": c.is_trojan_net(n.id)}
        for n in sorted(c.nets.values(), key=lambda n: n.id)
    ]
    assert data["gates"] == [
        {"id": g.id, "kind": str(g.kind), "name": g.name, "inputs": list(g.inputs),
         "outputs": [g.output], "trojan": c.is_trojan_gate(g.id)}
        for g in sorted(c.gates.values(), key=lambda g: g.id)
    ]
    assert data["primary_inputs"] == list(c.primary_inputs)
    assert data["primary_outputs"] == list(c.primary_outputs)
    return data


@pytest.mark.parametrize("stem", sorted(EXPECTED_GATES))
def test_json_round_trip(stem, fixture_circuits):
    _assert_dump_matches_graph(fixture_circuits[stem])


def test_json_round_trip_every_kind():
    kinds = list(_KINDS.values())
    nets = [Net(i, f"n{i}") for i in range(5 + len(kinds))]
    gates = [Gate(i, k, tuple(range(k.num_inputs)), 5 + i, f"u{i}") for i, k in enumerate(kinds)]
    c = CircuitGraph("every_kind", gates, nets, range(5), range(5, len(nets)), [3], [8])
    data = _assert_dump_matches_graph(c)
    assert [g["kind"] for g in data["gates"]] == list(_KINDS)


def test_gate_rejects_wrong_pin_count():
    with pytest.raises(ValueError) as exc:
        Gate(1, AND[2], (0,), 5, "u1")
    assert str(exc.value) == "gate 'u1': AND2 expects 2 input pins, got 1"


def test_synthetic_corpus_is_pinned(corpus12):
    # The acceptance thresholds and the benchmark's digests assume these
    # graphs; any change to the generator or the graph JSON shows here.
    draws = [synth_circuit(i, s) for i, s in ((0, 11), (1, 11), (6, 99), (7, 12345))]
    digest = hashlib.sha256()
    for c in [*corpus12, *draws, synth_circuit(3, 5, with_trojan=False)]:
        digest.update(json.dumps(c.to_json_dict(), indent=2).encode())
    assert digest.hexdigest() == (
        "5d9e3a02a8fe49e63f532217132ca7e337d9dac3640b02a5f382c4d7646f8c95")


@pytest.mark.parametrize("seed", [0, 1, 7, 2024, 10_007 * 2024 + 11])
def test_kind_draw_is_numpys_weighted_choice(seed):
    # The generator draws host gate kinds by inverse CDF; numpy's weighted
    # ``choice`` must give the same indexes and leave the same stream behind.
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    n = len(synth._KINDS)
    drawn = [bisect_right(synth._KIND_CDF, ours.random()) for _ in range(10_000)]
    assert drawn == [int(numpys.choice(n, p=synth._KIND_P)) for _ in range(10_000)]
    assert set(drawn) == set(range(n))
    assert ours.bit_generator.state == numpys.bit_generator.state


def _assert_gate_order_free(c: CircuitGraph) -> None:
    """Building ``c`` from its gates in reverse or shuffled order gives the
    same driver index and the same reader lists, each in gate-id order."""
    gates = list(c.gates.values())
    shuffled = gates[:]
    random.Random(len(gates)).shuffle(shuffled)
    for order in (gates[::-1], shuffled):
        c2 = CircuitGraph(c.name, order, c.nets.values(), c.primary_inputs,
                          c.primary_outputs, c.trojan_gate_ids, c.trojan_net_ids)
        assert c2._driver_of == c._driver_of
        assert c2._readers_of == c._readers_of
        for gates_reading in c2._readers_of.values():
            assert [g.id for g in gates_reading] == sorted(g.id for g in gates_reading)


@pytest.mark.parametrize("stem", sorted(EXPECTED_GATES))
def test_gate_order_does_not_change_the_indexes(stem, fixture_circuits):
    _assert_gate_order_free(fixture_circuits[stem])


@settings(max_examples=10, deadline=None)
@given(_oracles.feedback_circuits())
def test_gate_order_does_not_change_the_indexes_with_feedback(c):
    _assert_gate_order_free(c)


def test_kind_table_interns_every_kind():
    assert len(_KINDS) == 31
    for text, kind in _KINDS.items():
        assert str(kind) == text
        assert _KINDS[str(kind)] is kind


def test_parsed_graphs_share_one_object_per_kind(fixture_circuits):
    for c in [*fixture_circuits.values(), parse_scalegen(1000, 16)]:
        kinds = [g.kind for g in c.gates.values()]
        assert len({id(k) for k in kinds}) == len(set(kinds)) <= 31
        assert all(k is _KINDS[str(k)] for k in kinds)


# -- immutability / replace ----------------------------------------------------


def test_replace_is_pure(troj_mini):
    before = troj_mini.to_json_dict()
    nid = troj_mini.next_net_id()
    gid = troj_mini.next_gate_id()
    target = troj_mini.gate_by_name("u2")
    patched = troj_mini.replace(
        remove_gates=[target.id],
        upsert_gates=[
            Gate(gid, target.kind, target.inputs, nid, "u2_moved"),
            Gate(gid + 1, target.kind, (nid,), target.output, "u2_tail"),
        ],
        add_nets=[Net(nid, "u2_mid")],
    )
    assert troj_mini.to_json_dict() == before
    assert patched.stats()["gates"] == troj_mini.stats()["gates"] + 1
    assert patched.gate_by_name("u2_tail").output == target.output


def test_replace_validates_duplicate_net(troj_mini):
    nid = next(iter(troj_mini.nets))
    with pytest.raises(NetlistError):
        troj_mini.replace(add_nets=[Net(nid, "dup")])


def test_replace_drops_trojan_membership(troj_mini):
    gid = next(iter(troj_mini.trojan_gate_ids))
    patched = troj_mini.replace(remove_gates=[gid])
    assert gid not in patched.trojan_gate_ids


def test_replace_rejects_unknown_removal(troj_mini):
    gid = troj_mini.next_gate_id()
    with pytest.raises(NetlistError, match=f"unknown gate id {gid}"):
        troj_mini.replace(remove_gates=[gid])


def _patch_defects(c: CircuitGraph) -> dict[str, dict]:
    """One ``replace`` patch per structural defect, keyed by test id."""
    a, b = c.net_by_name("a").id, c.net_by_name("b").id
    h = c.net_by_name("h").id
    gid, nid = c.next_gate_id(), c.next_net_id()
    fresh = Net(nid, "fresh")
    return {
        "net_name_taken": dict(add_nets=[Net(nid, "h")]),
        "instance_name_taken": dict(
            upsert_gates=[Gate(gid, NOT, (a,), nid, "u1")], add_nets=[fresh]),
        "input_on_unknown_net": dict(
            upsert_gates=[Gate(gid, NOT, (nid + 1,), nid, "g")], add_nets=[fresh]),
        "output_on_unknown_net": dict(upsert_gates=[Gate(gid, NOT, (a,), nid + 1, "g")]),
        "drives_primary_input": dict(upsert_gates=[Gate(gid, NOT, (a,), b, "g")]),
        "second_driver": dict(upsert_gates=[Gate(gid, NOT, (a,), h, "g")]),
        "unknown_trojan_gate": dict(extra_trojan_gates=[gid]),
        "unknown_trojan_net": dict(extra_trojan_nets=[nid]),
        "gate_id_twice": dict(
            upsert_gates=[Gate(gid, NOT, (a,), nid, "g1"),
                          Gate(gid, NOT, (b,), nid + 1, "g2")],
            add_nets=[fresh, Net(nid + 1, "fresh2")]),
        "net_id_taken": dict(add_nets=[Net(a, "fresh")]),
    }


def _rebuilt_with(c: CircuitGraph, upsert_gates=(), add_nets=(),
                  extra_trojan_gates=(), extra_trojan_nets=()) -> CircuitGraph:
    """The same patch applied through the full constructor; upserted gates
    replace the gates with their ids, and each upsert is passed on."""
    upserted = {g.id for g in upsert_gates}
    gates = [g for g in c.gates.values() if g.id not in upserted]
    return CircuitGraph(
        c.name, [*gates, *upsert_gates], [*c.nets.values(), *add_nets],
        c.primary_inputs, c.primary_outputs,
        c.trojan_gate_ids | set(extra_trojan_gates),
        c.trojan_net_ids | set(extra_trojan_nets),
    )


@pytest.mark.parametrize("defect", sorted(_patch_defects(load_fixture("troj_mini"))))
def test_replace_rejects_what_construction_rejects(defect, troj_mini):
    patch = _patch_defects(troj_mini)[defect]
    with pytest.raises(NetlistError) as full:
        _rebuilt_with(troj_mini, **patch)
    with pytest.raises(NetlistError) as patched:
        troj_mini.replace(**patch)
    assert type(patched.value) is type(full.value)
    assert str(patched.value) == str(full.value)


def test_replace_frees_names_of_rewritten_gates(troj_mini):
    # A retargeted gate keeps its own name, and a removed gate's name is free.
    u1, u2 = troj_mini.gate_by_name("u1"), troj_mini.gate_by_name("u2")
    nid = troj_mini.next_net_id()
    patched = troj_mini.replace(
        remove_gates=[u2.id],
        upsert_gates=[
            Gate(u1.id, u1.kind, u1.inputs, nid, "u1"),
            Gate(troj_mini.next_gate_id(), BUF, (nid,), u1.output, "u2"),
        ],
        add_nets=[Net(nid, "u1_mid")],
    )
    assert patched.gate_by_name("u2").inputs == (nid,)
    assert patched.driver(nid).name == "u1"
