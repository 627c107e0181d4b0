"""Golden series: three small runs whose every sampled value and whole
report must match the goldens in tests/data: the run's
`<name>_series.csv`, and its report in `golden_reports.json`, all of it
but `transforms` (pinned by TRANSFORMS) and the config's `output`
section, which names the run's directory.  Numbers match at rtol 1e-12;
strings (fit and M0 error messages, warnings), booleans and None match
exactly.  The run's transform counts by phase and kind,
`report["transforms"]`, must equal TRANSFORMS exactly.

The runs cover the three step kinds on n = 16: a source-free flow
(wave-invariants), the separable pseudoproduct with a nonzero diagonal
source (pk-small-data with symbol mixed) and IFRK4 on seeded random data
(k-small-data).  A change that is meant to alter the numbers regenerates
the goldens, from the root of a checkout, with

    PYTHONPATH=src python tests/test_golden_series.py

and says so in CHANGES.md.
"""

import json
import os
import shutil
import tempfile

import numpy as np
import pytest

from pdhyp import experiments as ex

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
REPORTS = os.path.join(DATA, "golden_reports.json")
REPORT_KEYS = ("status", "e_n", "t_final", "fitted_exponents", "m0",
               "warnings", "sk")
RTOL = 1e-12
# name -> report["transforms"], its phases as experiments.run defines them:
# E_N takes 1 band and 9 line transforms per distinct component, a pk step
# 18 band, an IFRK4 k step 12, the exact flow none, a wave sample 4 band, a
# k sample 2, and a pk sample 6 band and 12 line; the sample at t = 1 reads
# the L^inf of each state component from E_N's band inverse, so the wave
# samples take 43 band (4 per sample over 11, less w's 1), the k samples 30
# (2 over 16, less 2) and the pk samples 93 (6 over 16, less 3)
TRANSFORMS = {
    "wave_source_free": {"setup": {"band": 2, "line": 9},
                         "steps": {"band": 0, "line": 0},
                         "samples": {"band": 43, "line": 0}},
    "pk_mixed": {"setup": {"band": 4, "line": 18},
                 "steps": {"band": 270, "line": 0},
                 "samples": {"band": 93, "line": 192}},
    "k_ifrk4_random": {"setup": {"band": 4, "line": 18},
                       "steps": {"band": 180, "line": 0},
                       "samples": {"band": 30, "line": 0}},
}

# name -> (preset, overrides)
RUNS = {
    "wave_source_free": ("wave-invariants",
                         ["grid.n=16", "time.t_max=21.0"]),
    "pk_mixed": ("pk-small-data",
                 ["grid.n=16", "model.symbol=\"mixed\"", "time.t_max=31.0"]),
    "k_ifrk4_random": ("k-small-data",
                       ["grid.n=16", "time.scheme=\"ifrk4\"",
                        "initial.preset=\"random_bandlimited\"",
                        "time.t_max=31.0"]),
}


def run_one(name, out_dir):
    preset, pairs = RUNS[name]
    config = ex.load_preset(preset).override(
        pairs + [f"output.dir={json.dumps(str(out_dir))}",
                 f"output.prefix={name}"])
    result = ex.run(config)
    assert result.status == "completed"
    return result


def read_series(path):
    """{series name: [[t, value], ...]} of a `_series.csv`."""
    series = {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            t, name, value = line.strip().split(",")
            series.setdefault(name, []).append([float(t), float(value)])
    return series


def assert_matches(got, want, where):
    """got == want, with numbers compared at RTOL and everything else
    (strings, booleans, None, keys, lengths) exactly."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float) or type(want) is int:
        assert type(got) in (float, int), where
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=0,
                                   err_msg=where)
    else:
        assert got == want and type(got) is type(want), where


def golden_report(result):
    """The report fields the goldens pin, as JSON would store them."""
    pinned = {key: result.report[key] for key in REPORT_KEYS}
    pinned["config"] = {section: value for section, value
                        in result.report["config"].items()
                        if section != "output"}
    return json.loads(json.dumps(pinned))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_series_match_the_goldens(name, tmp_path):
    result = run_one(name, tmp_path)
    assert result.report["transforms"] == TRANSFORMS[name]
    with open(REPORTS) as fh:
        assert_matches(golden_report(result), json.load(fh)[name], name)
    got = read_series(result.csv_path)
    want = read_series(os.path.join(DATA, f"{name}_series.csv"))
    assert sorted(got) == sorted(want)
    for series_name, points in want.items():
        np.testing.assert_allclose(np.array(got[series_name]),
                                   np.array(points), rtol=RTOL, atol=0,
                                   err_msg=f"{name}: {series_name}")


if __name__ == "__main__":
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(RUNS):
            result = run_one(name, tmp)
            shutil.copy(result.csv_path, DATA)
            reports[name] = golden_report(result)
    with open(REPORTS, "w") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote the goldens to {DATA}")
