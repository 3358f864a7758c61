"""The walkthrough demos run end to end against the package's public API.

Demos 02 and 04 take 6 s and 14 s and stay out to keep the suite fast.
"""
from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]


@pytest.mark.parametrize("demo", [
    "01_parse_and_featurize.py",
    "03_attack_a_netlist.py",
    "05_leave_one_out_eval.py",  # writes demo_eval_out/ into its working directory
])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
