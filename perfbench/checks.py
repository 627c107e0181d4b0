"""Output checks applied to every benchmark run.

A run passes when it completed, every sampled norm is finite, the
workload's physics bound holds, and, where a stored reference exists for
the same resolved config, every sampled value matches it.

Reference tolerance: REFERENCE_RTOL = 1e-9 relative per sampled value,
with sample times matching to 1e-12.  Identical code on identical inputs
writes byte-identical CSVs.  A change that only reorders floating-point
sums stays far inside it: summing the five separable pseudoproduct terms
of pk_mixed_n64 in reverse order moves its series by at most 2e-16
relative.  A change to the physics lands far outside it: dropping that
workload's pseudoproduct source moves every one of its series by at
least 1e-7 relative, and its w norms by about 1e-4.
"""

import json
import math
import os

from workloads import HERE

REFERENCE_DIR = os.path.join(HERE, "reference")
REFERENCE_RTOL = 1e-9
TIME_ATOL = 1e-12


def read_series(csv_path):
    """{norm name: ([t...], [value...])} from a runner CSV."""
    series = {}
    with open(csv_path) as fh:
        header = fh.readline().strip()
        if header != "t,norm_name,value":
            raise ValueError(f"{csv_path}: unexpected header {header!r}")
        for line in fh:
            t, name, value = line.rstrip("\n").split(",")
            ts, vs = series.setdefault(name, ([], []))
            ts.append(float(t))
            vs.append(float(value))
    return series


def reference_path(name):
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def load_reference(name):
    try:
        with open(reference_path(name)) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def compare_to_reference(series, ref):
    """Problems found comparing a series dict against a stored reference."""
    problems = []
    want = ref["series"]
    if sorted(series) != sorted(want):
        return [f"series names {sorted(series)} != reference {sorted(want)}"]
    for name, (ts, vs) in sorted(series.items()):
        rts, rvs = want[name]
        if len(ts) != len(rts):
            problems.append(f"{name}: {len(ts)} samples, reference has {len(rts)}")
            continue
        for t, v, rt, rv in zip(ts, vs, rts, rvs):
            if abs(t - rt) > TIME_ATOL:
                problems.append(f"{name}: sample time {t!r} != reference {rt!r}")
                break
            if not abs(v - rv) <= REFERENCE_RTOL * abs(rv):
                problems.append(f"{name} at t={t:g}: {v!r} differs from "
                                f"reference {rv!r} by more than rtol "
                                f"{REFERENCE_RTOL:g}")
                break
    return problems


def check_run(name, result, series, chash, limits):
    """Problems with one finished run; an empty list means it passed.

    `result` is the runner's RunResult, `series` its CSV as read_series
    returns it, `chash` the resolved config hash and `limits` the
    workload's "checks" entry from spec.json.
    """
    problems = []
    if result.status != "completed":
        problems.append(f"status {result.status!r}, expected 'completed'")
    for sname, (_, vs) in series.items():
        if not all(math.isfinite(v) for v in vs):
            problems.append(f"{sname}: non-finite sampled value")
    if "w_l2_drift_max" in limits:
        _, l2 = series["w_l2"]
        drift = max(abs(v / l2[0] - 1.0) for v in l2)
        if not drift <= limits["w_l2_drift_max"]:
            problems.append(f"||w||_L2 relative drift {drift:.3e} > "
                            f"{limits['w_l2_drift_max']:g}")
    if "m0_ratio_max" in limits:
        m0 = (result.report.get("m0") or {}).get("m0")
        if not m0:
            problems.append("no M0 series in the report")
        else:
            ratio = max(m0) / m0[0]
            if not ratio <= limits["m0_ratio_max"]:
                problems.append(f"sup M0 / M0(1) = {ratio:.3f} > "
                                f"{limits['m0_ratio_max']:g}")
    ref = load_reference(name)
    if ref is not None and ref["config_hash"] == chash:
        problems += compare_to_reference(series, ref)
    return problems
