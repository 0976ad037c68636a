"""The demo scripts run end to end from a source checkout."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_rank2_demo_residuals_are_zero():
    proc = run_script("rank2_demo.py")
    assert proc.returncode == 0, proc.stderr
    residuals = [line.strip() for line in proc.stdout.splitlines() if "residual zero:" in line]
    assert residuals and all(line == "residual zero: True" for line in residuals), proc.stdout


def test_generic_hall_demo_runs():
    proc = run_script("generic_hall_demo.py")
    assert proc.returncode == 0, proc.stderr
