"""Smoke test: every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    run_demo(demo, tmp_path)


def test_trace_demo_counts_its_file(tmp_path):
    stdout = run_demo(ROOT / "demos" / "02_trace_counting.py", tmp_path)
    assert "counted from demo_trace.jsonl: True" in stdout
    lines = (tmp_path / "demo_trace.jsonl").read_text().splitlines()
    assert lines[0] == '{"op": "alloc", "q": [0, 1, 2]}' and len(lines) == 8
