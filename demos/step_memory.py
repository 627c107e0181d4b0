#!/usr/bin/env python3
"""What one nonlinear step costs in CPU time, page faults and memory.

One experiments.run of each benchmark workload named (pk_mixed_n64 and
k_rk4_n64 by default; wave_n128 also works), configured by perfbench's
workloads.resolve, with Stepper.step wrapped to record per step its CPU
ms, minor page faults, band and line fields transformed (grid.transforms
and grid.line_transforms) and, on the first TRACED_STEPS steps, its
transient: tracemalloc's peak over the step, traced from its start.
Tracing costs CPU and faults, so the medians skip those steps.  A check
line sums the steps' band fields against the report's
transforms["steps"]["band"], and a line gives the MiB of arrays that the
run's grid and pseudoproduct plan still hold after it (cached tables and
factors).  Then it prints the set-up split, each phase of the run's
set-up done again as experiments.run does it: the initial data, E_N,
the Stepper (and the MiB of its flow rows) and the first sample, which
takes E_N's L^inf and H^N; per phase the CPU ms and band and line fields
transformed from an untraced call, and the tracemalloc peak from a
traced one.  Last, a second run traced whole names its tracemalloc
peak: the phase of experiments.run it falls in (set-up, step, sample or
report) and the pdhyp functions running, outermost first, when it came
within SLACK of it, read by a profile hook at every Python call and
return.

    PYTHONPATH=src python3 demos/step_memory.py [workload ...]
"""

import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads    # noqa: E402  (it imports pdhyp from this checkout)
from pdhyp import evolution as ev, experiments, norms  # noqa: E402

TRACED_STEPS = 3
SLACK = 1 << 16     # peak rises this small do not move its site
PACKAGE = Path(ev.__file__).parent
# innermost first: the frame (module, function) that names the phase
PHASES = ((("evolution", "Stepper.step"), "step"),
          (("experiments", "_evolve"), "sample"),
          (("experiments", "_report"), "report"))


def measured(fn, grid, traced):
    """fn()'s value and its (CPU ms, minor faults, band fields, line fields,
    tracemalloc peak MiB, 0 unless `traced`)."""
    def counters():
        return np.array([time.process_time(),
                         resource.getrusage(resource.RUSAGE_SELF).ru_minflt,
                         grid.transforms, grid.line_transforms])
    if traced:
        tracemalloc.start()
    try:
        start = counters()
        value = fn()
        cpu, faults, band, line = counters() - start
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    return value, (1e3 * cpu, int(faults), int(band), int(line), peak)


def measured_run(config):
    """The run's report, its Stepper and each step's figures from
    measured()."""
    rows, first, step = [], {}, ev.Stepper.step

    def wrapped(stepper, state, guard=None):
        first.setdefault("stepper", stepper)
        new, row = measured(lambda: step(stepper, state, guard),
                            stepper.grid, len(rows) < TRACED_STEPS)
        rows.append(row)
        return new

    ev.Stepper.step = wrapped
    try:
        report = experiments.run(config).report
    finally:
        ev.Stepper.step = step
    return report, first["stepper"], rows


def held_mib(owner):
    """MiB of the distinct arrays in an object's attributes, inside tuples,
    lists and dict values; 0 for None."""
    held, stack = {}, [] if owner is None else list(vars(owner).values())
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            held[id(value)] = value.nbytes
        elif isinstance(value, (tuple, list, dict)):
            stack.extend(value.values() if isinstance(value, dict) else value)
    return sum(held.values()) / 2 ** 20


def site(frame):
    """(phase, the chain of pdhyp functions below the phase's own frame,
    outermost first) of the running frame."""
    chain = []
    while frame is not None:
        path = Path(frame.f_code.co_filename)
        if path.parent == PACKAGE:
            name = (path.stem, frame.f_code.co_qualname)
            for marker, phase in PHASES:
                if name == marker:
                    return phase, " > ".join(chain[::-1])
            chain.append(".".join(name))
        frame = frame.f_back
    return "set-up", " > ".join(chain[::-1])


def peak_site(config):
    """The run's tracemalloc peak MiB, with site() where it was reached."""
    top = [0, None]

    def hook(frame, event, arg):
        if event in ("call", "return"):
            peak = tracemalloc.get_traced_memory()[1]
            if peak > top[0] + SLACK:   # while the caller or frame ran
                top[:] = peak, site(frame.f_back if event == "call"
                                    else frame)

    tracemalloc.start()
    sys.setprofile(hook)
    try:
        experiments.run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        sys.setprofile(None)
        tracemalloc.stop()
    return peak / 2 ** 20, *top[1]


def setup_split(config):
    """Each set-up phase of experiments.run, as it runs them: its name and
    measured() figures, the CPU and transforms untraced, the peak traced;
    and the MiB of the Stepper's flow rows."""
    model, grid = config.build_model(), config.build_grid()
    icfg, kinds = config["initial"], config["norms"]
    specs = [norms.NormSpec.parse(s) for s in (
        experiments.DEFAULT_NORMS[model.kind] if kinds == "default"
        else kinds)]
    profile = any(spec.component == "profile_w" for spec in specs)
    phases, known = [], {}

    def phase(name, fn):
        value, figures = measured(fn, grid, False)
        phases.append((name, figures[:4] + measured(fn, grid, True)[1][4:]))
        return value

    state = phase("initial data", lambda: experiments.make_initial_data(
        icfg["preset"], grid, icfg["amplitude"], icfg["seed"],
        dim_state=model.dim_state, width=icfg["width"],
        radial_power=icfg["radial_power"], mode=icfg["mode"],
        band=icfg["band"]))
    phase("E_N", lambda: norms.initial_energy(state, known))
    stepper = phase("Stepper", lambda: ev.Stepper(
        model, grid, config.schedule()[0], config["time"]["scheme"]))
    if icfg["project"] == "damped_branch":
        state, known = experiments.project_damped_branch(
            state, stepper.cache), {}
    phase("first sample", lambda: norms.evaluate_norms(
        specs, state, ev.wave_profile(state) if profile else None, known))
    flow = sum(G.nbytes for G in (stepper.G_full, stepper.G_half)
               if G is not None) / 2 ** 20
    return phases, flow


def main(names):
    for name in names:
        with tempfile.TemporaryDirectory() as out_dir:
            config = workloads.resolve(name, workloads.DEFAULT_SEED, out_dir)
            report, run_stepper, rows = measured_run(config)
            whole = peak_site(config)
        phases, flow = setup_split(config)

        print(f"=== {name}: {len(rows)} steps ===")
        print(f"flow rows: G_full plus G_half {flow:.2f} MiB")
        for what, (cpu, _, band, line, peak) in phases:
            print(f"set-up {what}: {cpu:.1f} ms, {band} band and {line} "
                  f"line transforms, peak {peak:.2f} MiB")
        print("step   cpu_ms  faults  band  line  peak_mib")
        for k, (cpu, faults, band, line, peak) in enumerate(rows, 1):
            peak = f"{peak:9.2f}" if k <= TRACED_STEPS else ""
            print(f"{k:>4} {cpu:8.1f} {faults:7d} {band:5d} {line:5d} {peak}")
        cpu, faults, band, line = np.median(
            [row[:4] for row in rows[TRACED_STEPS:]], axis=0)
        print(f"steps {TRACED_STEPS + 1}-{len(rows)}: median {cpu:.1f} ms, "
              f"{faults:.0f} faults, {band:.0f} band and {line:.0f} line "
              f"fields; steps 2-{TRACED_STEPS}: median transient "
              f"{np.median([row[4] for row in rows[1:TRACED_STEPS]]):.2f} MiB")
        print(f"check: the steps' band fields sum to {sum(r[2] for r in rows)}"
              f", the report's transforms[\"steps\"][\"band\"] is "
              f"{report['transforms']['steps']['band']}")
        print(f"held after the run: grid arrays "
              f"{held_mib(run_stepper.grid):.2f} MiB, plan arrays "
              f"{held_mib(run_stepper.plan):.2f} MiB")
        print("whole-run peak: {:.2f} MiB in {}, in {}\n".format(*whole))


if __name__ == "__main__":
    main(sys.argv[1:] or ["pk_mixed_n64", "k_rk4_n64"])
