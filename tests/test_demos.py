"""The demo scripts run to completion against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# a line each demo named here prints, by a pattern of its figures
PRINTS = {"step_memory": r"flow rows: G_full plus G_half \d+\.\d\d MiB"}


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    # linear_decay_rates.py writes demo_out/ into its working directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert re.search(PRINTS.get(script.stem, ""), proc.stdout), proc.stdout
