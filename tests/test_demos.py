"""The demo scripts run to completion against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# lines each demo named here prints, by patterns of their figures; the
# backreference holds step_memory's check line on both default workloads,
# the arrays a run's grid and plan keep after it are in MiB, a run's peak
# names its phase and the package functions below it, and the set-up split
# gives each set-up phase its CPU, transforms and peak: E_N 1 band and 9
# line fields per distinct component, and the first sample takes the
# state's L^inf from E_N (pk: the 3 Riesz band inverses and the profile's
# 12 line fields; k: none)
_CHECK = (r"check: the steps' band fields sum to (\d+), the report's "
          r"transforms\[\"steps\"\]\[\"band\"\] is \1$")
_HELD = (r"held after the run: grid arrays \d+\.\d\d MiB, plan arrays "
         r"\d+\.\d\d MiB$")
_PEAK = (r"whole-run peak: \d+\.\d\d MiB in (?:set-up|step|sample|report), "
         r"in \w+\.\w")
_ANY = r"\d+ band and \d+ line"


def _split(e_n, first):
    return "".join(rf"\nset-up {phase}: \d+\.\d ms, {fields} transforms, "
                   r"peak \d+\.\d\d MiB" for phase, fields in (
                       ("initial data", _ANY), ("E_N", e_n),
                       ("Stepper", _ANY), ("first sample", first)))


PRINTS = {"step_memory": (
    r"flow rows: G_full plus G_half \d+\.\d\d MiB",
    *(rf"(?m)^=== {name}:.*(?:\n(?!===).*)*?\n{line}"
      for name in ("pk_mixed_n64", "k_rk4_n64")
      for line in (_CHECK, _HELD, _PEAK)),
    *(rf"(?m)^=== {name}:.*\n.*{_split('2 band and 18 line', first)}$"
      for name, first in (("pk_mixed_n64", "3 band and 12 line"),
                          ("k_rk4_n64", "0 band and 0 line"))))}


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    # linear_decay_rates.py writes demo_out/ into its working directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    for pattern in PRINTS.get(script.stem, ()):
        assert re.search(pattern, proc.stdout), (pattern, proc.stdout)
