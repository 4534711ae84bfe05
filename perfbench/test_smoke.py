"""Smoke test of the benchmark: every job type once at toy size, with its check."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_every_job_type_passes_its_check():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
