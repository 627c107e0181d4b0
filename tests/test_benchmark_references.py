"""The benchmark's workloads still produce their stored reference series.

perfbench's check_run compares a run with `perfbench/reference/<name>.json`
only when the reference's config hash equals the run's, so a stale hash
skips the comparison without a word.  This test runs each workload at the
benchmark's seed 0 and compares its series with the stored reference
within perfbench's own tolerance (checks.REFERENCE_RTOL, 1e-9 relative),
whatever hash the reference stores.  It only reads perfbench/.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import checks       # noqa: E402  (perfbench's, importing pdhyp from src/)
import workloads    # noqa: E402
from pdhyp import experiments  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_runs_match_their_references(name, tmp_path):
    ref = checks.load_reference(name)
    assert ref is not None and ref["seed"] == 0
    result = experiments.run(workloads.resolve(name, 0, str(tmp_path)))
    series = checks.read_series(result.csv_path)
    assert result.status == "completed"
    assert checks.compare_to_reference(series, ref) == []
