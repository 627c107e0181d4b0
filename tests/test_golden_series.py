"""Golden series: three small runs whose every sampled value and E_N must
match the goldens in tests/data: the run's `<name>_series.csv` and its E_N
in `golden_e_n.json`.

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
E_N = os.path.join(DATA, "golden_e_n.json")
RTOL = 1e-12

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


@pytest.mark.parametrize("name", sorted(RUNS))
def test_series_match_the_goldens(name, tmp_path):
    result = run_one(name, tmp_path)
    with open(E_N) as fh:
        np.testing.assert_allclose(result.report["e_n"], json.load(fh)[name],
                                   rtol=RTOL, atol=0)
    got = read_series(result.csv_path)
    want = read_series(os.path.join(DATA, f"{name}_series.csv"))
    assert sorted(got) == sorted(want)
    for series_name, points in want.items():
        np.testing.assert_allclose(np.array(got[series_name]),
                                   np.array(points), rtol=RTOL, atol=0,
                                   err_msg=f"{name}: {series_name}")


if __name__ == "__main__":
    e_n = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(RUNS):
            result = run_one(name, tmp)
            shutil.copy(result.csv_path, DATA)
            e_n[name] = result.report["e_n"]
    with open(E_N, "w") as fh:
        json.dump(e_n, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote the goldens to {DATA}")
