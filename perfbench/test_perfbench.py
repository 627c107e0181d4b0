"""Tests of the benchmark itself; not part of the tier-1 suite.

    python3 -m pytest perfbench -q
"""

from types import SimpleNamespace

import pytest

import checks
import child
import tracing
import workloads
from workloads import experiments
from pdhyp import evolution

COUNT_KEYS = ("_calls_", "fft_per_", "rhs_zero_frac")


def _reference(name):
    ref = checks.load_reference(name)
    series = {k: (list(t), list(v)) for k, (t, v) in ref["series"].items()}
    return ref, series


def _check(name, series, chash, m0=(1.0, 2.0)):
    result = SimpleNamespace(status="completed", report={"m0": {"m0": list(m0)}})
    return checks.check_run(name, result, series, chash,
                            workloads.WORKLOADS[name]["checks"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_perturbed_series_fails_the_check(name):
    ref, series = _reference(name)
    assert _check(name, series, ref["config_hash"]) == []
    target = sorted(series)[-1]
    series[target][1][-1] *= 1.0 + 1e-6
    problems = _check(name, series, ref["config_hash"])
    assert any(target in p and "reference" in p for p in problems)


def test_reference_applies_only_to_its_config():
    ref, series = _reference("k_rk4_n64")
    series["u_l2"][1][-1] *= 2.0
    assert _check("k_rk4_n64", series, "another-config") == []


def test_physics_bounds_fail_without_a_reference():
    _, series = _reference("wave_n128")
    series["w_l2"][1][-1] *= 1.0 + 1e-8
    assert any("drift" in p for p in _check("wave_n128", series, None))
    _, series = _reference("pk_mixed_n64")
    assert any("M0" in p for p in _check("pk_mixed_n64", series, None,
                                         m0=(1.0, 5.5)))
    series[sorted(series)[0]][1][0] = float("nan")
    assert any("non-finite" in p for p in _check("pk_mixed_n64", series, None))


def test_step_tail_keeps_ten_steps_beyond():
    assert child.step_tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert child.step_tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


@pytest.mark.parametrize("name", ["pk_mixed_n64", "k_rk4_n64"])
def test_traced_counts_repeat_exactly(name, tmp_path):
    config = workloads.resolve(name, 0, str(tmp_path)).override(
        ["time.t_max=5.0"])
    original_step = evolution.Stepper.step
    tracer = tracing.Tracer()
    counts = []
    for run in (1, 2):
        tracer.run = run
        with tracer.installed():
            result = experiments.run(config)
        samples = len(next(iter(checks.read_series(result.csv_path).values()))[0])
        metrics = tracer.run_metrics(run, samples)
        counts.append({k: v for k, v in metrics.items()
                       if any(key in k for key in COUNT_KEYS)})
    assert evolution.Stepper.step is original_step
    assert len(counts[0]) == 7
    assert counts[0] == counts[1]
    assert counts[0]["evolution.rhs_calls_per_step"] == (
        4 if name == "k_rk4_n64" else 2)
