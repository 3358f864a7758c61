"""Shared fixtures for the htlab test suite.

Also hosts the acceptance-criteria result lines: ``tests/test_acceptance.py``
appends one ``CRITERION n: PASS/FAIL`` line per criterion and the
``pytest_terminal_summary`` hook below prints them after the run so they are
visible under a plain ``pytest -v``.
"""
from __future__ import annotations

import csv
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from htlab import (
    NUM_FEATURES,
    CircuitGraph,
    FeatureMatrix,
    LabelSpec,
    parse_verilog,
    parse_verilog_file,
    synth_corpus,
)

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"
SCALEGEN = pathlib.Path(__file__).parents[1] / "perfbench" / "scalegen.py"

# Filled by tests/test_acceptance.py, printed by pytest_terminal_summary.
ACCEPTANCE_RESULTS: list[str] = []


def fixture_names() -> list[str]:
    return sorted(p.stem for p in FIXTURE_DIR.glob("*.v"))


def load_fixture(stem: str) -> CircuitGraph:
    path = FIXTURE_DIR / f"{stem}.v"
    sidecar = path.with_suffix(".labels")
    spec = LabelSpec.from_sidecar_file(str(sidecar)) if sidecar.exists() else None
    return parse_verilog_file(str(path), label_spec=spec)


def parse_scalegen(gates: int, trigger_leaves: int) -> CircuitGraph:
    """A parsed seed-1 netlist from the benchmark's generator,
    ``perfbench/scalegen.py``, loaded by path."""
    if "scalegen" not in sys.modules:
        spec = importlib.util.spec_from_file_location("scalegen", SCALEGEN)
        sys.modules["scalegen"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["scalegen"])
    net = sys.modules["scalegen"].generate(1, gates=gates, trigger_leaves=trigger_leaves)
    return parse_verilog(net.verilog, LabelSpec.name_regex("^troj_"))


def assert_feature_csv(path, fm: FeatureMatrix) -> None:
    """The feature CSV at ``path``, read with ``csv``, holds exactly ``fm``:
    the header, then one record of net name, label and raw values per row."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *records = csv.reader(fh)
    assert header == ["net", "label", *(f"f{i}" for i in range(1, NUM_FEATURES + 1))]
    assert [r[0] for r in records] == list(fm.net_names)
    assert [int(r[1]) for r in records] == fm.labels.tolist()
    values = np.array([[float(x) for x in r[2:]] for r in records])
    assert values.shape == fm.matrix.shape and np.array_equal(values, fm.matrix)


@pytest.fixture(scope="session")
def scale300() -> CircuitGraph:
    """A parsed 300-gate netlist (seed 1, 18 Trojan nets) from ``scalegen``."""
    return parse_scalegen(300, 9)


@pytest.fixture(scope="session")
def fixture_circuits() -> dict[str, CircuitGraph]:
    """All hand-built netlist fixtures, keyed by file stem."""
    return {stem: load_fixture(stem) for stem in fixture_names()}


@pytest.fixture(scope="session")
def troj_mini(fixture_circuits) -> CircuitGraph:
    return fixture_circuits["troj_mini"]


@pytest.fixture(scope="session")
def corpus12() -> list[CircuitGraph]:
    """The 12-circuit synthetic corpus used by the desk-scale acceptance runs."""
    return synth_corpus(12, seed=2024)


@pytest.fixture
def no_row_memo(monkeypatch):
    """Attacks whose row memo never hits: each attacked circuit's is emptied
    before every attack on it, the slow twin of scoring a repeated rewrite
    path from the memo."""
    from htlab import advtrain, attack

    real = attack.run_attack

    def run_attack(circuit, *args, **kwargs):
        circuit.__dict__.pop("_scored_rows", None)
        return real(circuit, *args, **kwargs)

    for module in (attack, advtrain):
        monkeypatch.setattr(module, "run_attack", run_attack)


def count_calls(monkeypatch, owner, attr: str) -> list:
    """Rebind ``owner.attr`` to record each call's arguments; returns the record."""
    calls: list = []
    real = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(line)
