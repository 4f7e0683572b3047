"""The benchmark's smoke pass, run with the package's own tests."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_smoke_pass_reports_ok():
    # --smoke runs every workload briefly and checks each outcome against
    # benchmark/record.json, so an outcome the benchmark would refuse fails
    # here first; it only reads benchmark/, and writes no bytecode there
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--smoke"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["smoke"] == "ok", proc.stdout[-2000:]
