"""Measures one workload in a fresh process; run.py starts it.

    python3 perfbench/child.py '{"workload": ..., "seed": ..., "seconds": ..., "trace": 0}'

Prints one JSON record on stdout.  Untraced mode (trace 0) first times
the workload's set-up probes, then completes whole runs until `seconds`
have passed (at least MIN_RUNS).  Traced mode (trace 1) warms up with one
set-up probe, then runs pairs of one untraced and one traced run until
`seconds` have passed (at least MIN_RUNS pairs).  Every run's outputs are
checked; a run that raises, blows up or fails a check counts as failed.
"""

import json
import os
import resource
import statistics
import sys
import time

import checks
import tracing
import workloads
from workloads import experiments

OUT_DIR = ".perfbench"      # relative to the checkout root, the cwd
# whole runs per invocation even when one run outlasts `seconds`, so a
# slow host changes the timings but not how many runs they come from
MIN_RUNS = 2


def _since(t0, t1):
    return tuple(b - a for a, b in zip(t0, t1))


def checked_run(name, config, chash):
    """One experiments.run and the check of its outputs.  Durations are
    (elapsed, CPU) pairs, as tracing.clocks gives them."""
    t0 = tracing.clocks()
    try:
        result = experiments.run(config)
    except Exception as exc:  # any error is a failed run, never a crash
        return {"run": None, "problems": [f"raised {exc!r}"]}
    run = _since(t0, tracing.clocks())
    try:
        series = checks.read_series(result.csv_path)
        problems = checks.check_run(name, result, series, chash,
                                    workloads.WORKLOADS[name]["checks"])
    except (OSError, ValueError, KeyError) as exc:
        series, problems = {}, [f"unreadable output: {exc!r}"]
    samples = len(next(iter(series.values()))[0]) if series else 0
    return {"t0": t0, "run": run, "samples": samples, "problems": problems}


def probe(clock, config, runs):
    """One set-up probe, or None; a set-up that raises is a failed run."""
    try:
        return clock.setup_probe(config)
    except Exception as exc:  # recorded like a run that raises
        runs.append({"run": None, "problems": [f"set-up raised {exc!r}"]})
        return None


def step_tail(durations):
    """(value, percentile, steps beyond): the highest percentile with at
    least ten steps beyond it; the maximum when there are ten or fewer."""
    d = sorted(durations)
    n = len(d)
    if n <= 10:
        return d[-1], 100.0, 0
    return d[n - 11], 100.0 * (n - 10) / n, 10


def measure(name, config, chash, seconds, probes):
    clock = tracing.StepClock()
    setups, runs, steps = [], [], []
    with clock.installed():
        for _ in range(probes):
            setups.append(probe(clock, config, runs))
        start = time.perf_counter()
        while len(runs) < MIN_RUNS or time.perf_counter() - start < seconds:
            clock.marks.clear()
            rec = checked_run(name, config, chash)
            marks = list(clock.marks)
            if rec["run"] is not None and marks:
                setups.append(_since(rec["t0"], marks[0][0]))
                rec["steps"] = len(marks)
                rec["loop"] = _since(marks[0][0], marks[-1][1])
                steps += [_since(begin, end) for begin, end in marks]
            runs.append(rec)
            if rec["run"] is None:
                break     # the runs are deterministic: it would raise again

    timed = [r for r in runs if r.get("steps")]
    setups = [s for s in setups if s is not None]
    if not timed:
        return runs, None

    def summary(i):
        """Metrics on clock i: 0 elapsed, 1 CPU."""
        med = statistics.median
        tail, pct, beyond = step_tail([s[i] for s in steps])
        return (med(s[i] for s in setups), med(r["run"][i] for r in timed),
                med(r["steps"] / r["loop"][i] for r in timed),
                1e3 * med(s[i] for s in steps), 1e3 * tail,
                {"percentile": pct, "steps_beyond": beyond,
                 "steps": len(steps)})

    metrics, detail = {}, {"setup_samples": len(setups)}
    for i, names in ((1, ("setup_s", "run_cpu_s", "steps_per_cpu_s",
                          "step_p50_cpu_ms", "step_tail_cpu_ms")),
                     (0, ("setup_wall_s", "wall_s", "steps_per_s",
                          "step_p50_ms", "step_tail_ms"))):
        *values, tail = summary(i)
        metrics.update(zip(names, values))
        detail[names[-1]] = tail
    return runs, (metrics, detail)


def measure_traced(name, config, chash, seconds, spans_path):
    clock, tracer = tracing.StepClock(), tracing.Tracer()
    plain, traced, per_run = [], [], []

    def traced_run():
        tracer.run += 1
        with tracer.installed():
            rec = checked_run(name, config, chash)
        traced.append(rec)
        if rec["run"] is not None:
            per_run.append(tracer.run_metrics(tracer.run, rec["samples"]))

    with clock.installed():
        probe(clock, config, plain)   # warm-up, so neither side runs cold
    start = time.perf_counter()
    while len(traced) < MIN_RUNS or time.perf_counter() - start < seconds:
        # alternate which side goes first, so drift favours neither
        if len(traced) % 2:
            traced_run()
            plain.append(checked_run(name, config, chash))
        else:
            plain.append(checked_run(name, config, chash))
            traced_run()
        if any(r["run"] is None for r in plain + traced):
            break     # the runs are deterministic: they would raise again
    tracer.dump(spans_path)
    runs = plain + traced
    ok = [[r["run"] for r in side if r["run"] is not None]
          for side in (plain, traced)]
    if not per_run or not all(ok):
        return runs, None
    median = statistics.median
    metrics = {key: median(m[key] for m in per_run) for key in per_run[0]}
    wall, cpu = ([median(run[i] for run in side) for side in ok]
                 for i in (0, 1))
    metrics["trace.overhead_s"] = cpu[1] - cpu[0]
    detail = {"untraced_cpu_s": cpu[0], "traced_cpu_s": cpu[1],
              "untraced_wall_s": wall[0], "traced_wall_s": wall[1],
              "traced_runs": len(per_run), "spans": spans_path}
    return runs, (metrics, detail)


def main(argv):
    args = json.loads(argv[1])
    name, seed = args["workload"], int(args["seed"])
    out_dir = os.path.join(OUT_DIR, "out", name)
    config = workloads.resolve(name, seed, out_dir)
    chash = workloads.config_hash(config)
    if args["trace"]:
        spans_path = os.path.join(OUT_DIR, f"spans_{name}_seed{seed}.jsonl")
        runs, measured = measure_traced(name, config, chash, args["seconds"],
                                        spans_path)
    else:
        runs, measured = measure(name, config, chash, args["seconds"],
                                 workloads.WORKLOADS[name]["setup_probes"])
    if measured is None:
        problems = [p for r in runs for p in r["problems"]]
        sys.exit(f"{name}: no run produced timings; {len(problems)} "
                 f"problem(s), the first: {problems[:1]}")
    metrics, detail = measured
    if not args["trace"]:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = rss_kib / 1024.0
    failed = sum(1 for r in runs if r["problems"])
    print(json.dumps({
        "workload": name,
        "attempted": len(runs),
        "failed": failed,
        "problems": [p for r in runs for p in r["problems"]],
        "metrics": metrics,
        "detail": detail,
        "provenance": workloads.provenance(seed, {name: chash}),
    }))


if __name__ == "__main__":
    main(sys.argv)
