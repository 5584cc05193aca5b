"""The benchmark's own test: python -m pytest perfbench/test_smoke.py

Runs every workload at tiny sizes, untraced and traced, and checks that the
benchmark refuses to report from a directory without the program's source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_runs_every_workload_and_checks_outputs():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke ok")
    for workload in ("theorem42", "purity", "prop31", "cli"):
        traced = json.loads((ROOT / ".perfbench_work" / f"result-{workload}-trace1.json").read_text())
        assert traced["failed"] == 0
        assert traced["layers"]["cli.calls"] > 0, workload
        assert "trace.overhead_s" in traced["layers"]


def test_refuses_without_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
