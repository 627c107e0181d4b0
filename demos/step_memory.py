#!/usr/bin/env python3
"""What one nonlinear step costs in CPU time, page faults and memory.

One experiments.run of each benchmark workload named (pk_mixed_n64 and
k_rk4_n64 by default; wave_n128 also works), configured by perfbench's
workloads.resolve, with Stepper.step and the set-up calls (SETUP) wrapped.
Per step and per set-up phase (initial data, E_N, the Stepper and the first
sample, which takes E_N's L^inf and H^N) it records the CPU ms, minor page
faults and band and line fields transformed (grid.transforms and
grid.line_transforms), and on the first TRACED_STEPS steps the transient:
tracemalloc's peak over the step, traced from its start.  Tracing costs
CPU and faults, so the medians skip those steps, and the set-up phases'
peaks come from a second run, traced per phase and stopped at its first
step by perfbench's set-up probe.  A check line sums the steps' band
fields against the report's transforms["steps"]["band"]; lines give the
MiB of the Stepper's flow rows and of the arrays (cached tables, factors)
that the run's grid and pseudoproduct plan still hold after it.  Last, a
third run traced whole names its tracemalloc peak: the phase of
experiments.run it falls in (set-up, step, sample or report) and the
pdhyp functions running, outermost first, when it came within SLACK of
it, read by a profile hook at every Python call and return.

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
import tracing      # noqa: E402  (perfbench's; both import pdhyp from
import workloads    # noqa: E402   this checkout)
from pdhyp import evolution as ev, experiments, norms  # noqa: E402
from pdhyp.grid import SpectralGrid  # noqa: E402

TRACED_STEPS = 3
SLACK = 1 << 16     # peak rises this small do not move its site
PACKAGE = Path(ev.__file__).parent
# innermost first: the frame (module, function) that names the phase
PHASES = ((("evolution", "Stepper.step"), "step"),
          (("experiments", "_evolve"), "sample"),
          (("experiments", "_report"), "report"))
# (owner, name, phase): experiments.run's set-up calls, in the run's order
SETUP = ((experiments, "make_initial_data", "initial data"),
         (norms, "initial_energy", "E_N"),
         (ev.Stepper, "__init__", "Stepper"),
         (norms, "evaluate_norms", "first sample"))


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


def setup_phases(setup, traced):
    """The SETUP names wrapped, in a tracing.patched context, to put the
    measured() figures of each one's first call into `setup`, in order."""
    def phase(name, fn):
        def wrapped(*args, **kwargs):
            call = lambda: fn(*args, **kwargs)
            if name in setup:       # the samples after the first
                return call()
            grid = next(getattr(a, "grid", a) for a in args
                        if isinstance(a, (SpectralGrid, ev.StateField)))
            value, setup[name] = measured(call, grid, traced)
            return value
        return wrapped
    return tracing.patched([(owner, attr, phase(name, getattr(owner, attr)))
                            for owner, attr, name in SETUP])


def measured_run(config):
    """The run's report, its Stepper, {set-up phase: measured() figures}
    and each step's figures."""
    setup, rows, first, step = {}, [], {}, ev.Stepper.step

    def wrapped(stepper, state, guard=None):
        first.setdefault("stepper", stepper)
        new, row = measured(lambda: step(stepper, state, guard),
                            stepper.grid, len(rows) < TRACED_STEPS)
        rows.append(row)
        return new

    with setup_phases(setup, False), tracing.patched(
            [(ev.Stepper, "step", wrapped)]):
        report = experiments.run(config).report
    return report, first["stepper"], setup, rows


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


def main(names):
    for name in names:
        with tempfile.TemporaryDirectory() as out_dir:
            config = workloads.resolve(name, workloads.DEFAULT_SEED, out_dir)
            report, run_stepper, setup, rows = measured_run(config)
            peaks, clock = {}, tracing.StepClock()
            with setup_phases(peaks, True), clock.installed():
                clock.setup_probe(config)   # the set-up; no step
            whole = peak_site(config)
        flow = sum(G.nbytes for G in (run_stepper.G_full, run_stepper.G_half)
                   if G is not None) / 2 ** 20

        print(f"=== {name}: {len(rows)} steps ===")
        print(f"flow rows: G_full plus G_half {flow:.2f} MiB")
        for what, (cpu, _, band, line, _) in setup.items():
            print(f"set-up {what}: {cpu:.1f} ms, {band} band and {line} "
                  f"line transforms, peak {peaks[what][4]:.2f} MiB")
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
