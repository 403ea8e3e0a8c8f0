"""Smoke test of the experiment scripts, run as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, header", [
    ("run_outage_study.py", ["--trials", "2"], "planner      feasible  mean len"),
    ("run_comparison.py", [], "planner       length (m)   outage"),
    ("plan_digest.py", ["--placements", "100-101", "107"], "over 3 placements at K = 25"),
    ("search_replay.py", ["--placements", "100-101", "107", "--rounds", "1"],
     "searches over 3 placements at K = 25"),
])
def test_script_runs_and_prints_its_table(script, args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert header in done.stdout
