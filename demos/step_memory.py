#!/usr/bin/env python3
"""What one nonlinear step costs in CPU time, page faults and memory.

Runs the n = 64 benchmark workloads (their presets and overrides are read
from perfbench/spec.json, the seeded one at the spec's default seed) and
prints, for each step:

  * cpu_ms:     process CPU time of Stepper.step;
  * faults:     minor page faults of the process during the step
                (getrusage): memory the kernel hands out afresh, which
                is what a step pays when the allocator gave pages back
                since the last one;
  * peak_mib:   how far tracemalloc's peak over the step rose above the
                memory traced at its start, in MiB: the step's transient
                allocations;
  * inverses, fields: the band inverses (SpectralGrid.physical_slabs
                calls, wrapped here to count them) of the step, and the
                fields they transformed: one call per product_sums, over
                the stack of its fields.

All but peak_mib come from an untraced run, peak_mib from the first
TRACED_STEPS steps of a second run under tracemalloc.  Before the steps
it prints the set-up costs: the CPU time of the Stepper's construction
and the size of its flow rows (G_full plus G_half, in MiB); the CPU time
of the process's other threads (process_time - thread_time) over that
construction and a further SPIN_WAIT seconds of sleep, which reads near
0 unless a library's worker threads busy-wait after the construction
used them; and the CPU time, tracemalloc peak (in MiB) and band and line
transforms (the fields they transformed, grid.transforms and
grid.line_transforms) of norms.initial_energy and of one full sample
(the wave profile, when a norm needs it, and one norms.evaluate_norms
call of every sampled norm), each repeated on the state the run passed
it, so the grid's cached tables are already built.  The Stepper
allocates its Lawson stage stacks, and the grid the n^d row totals of
product_sums, on the first nonlinear step, and both are reused, so from
the second step on a step allocates only its returned state, cube-sized
temporaries and the band inverses' work arrays, the same every step.
Name workloads on the command line to choose them (wave_n128 also
works); every run writes its CSV and report into a temporary directory.

    PYTHONPATH=src python3 demos/step_memory.py [workload ...]
"""

import json
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from pdhyp import evolution as ev
from pdhyp import experiments, norms
from pdhyp.grid import SpectralGrid

TRACED_STEPS = 3
SPIN_WAIT = 0.3
SPEC = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                   / "spec.json").read_text())


def config(name, out_dir):
    workload = SPEC["workloads"][name]
    pairs = [f"{key}={json.dumps(value)}"
             for key, value in workload["overrides"].items()]
    if workload["seeded"]:
        pairs.append(f"initial.seed={SPEC['default_seed']}")
    pairs.append(f"output.dir={out_dir}")
    return experiments.load_preset(workload["preset"]).override(pairs)


class Enough(Exception):
    """Ends a run once its steps are measured."""


def measured_steps(name, measure, steps=None):
    """Run the workload, or its first `steps` steps, with Stepper.step
    wrapped by `measure`, a function (step, stepper, state, guard) ->
    (new state, row of figures)."""
    rows, step = [], ev.Stepper.step

    def wrapped(stepper, state, guard=None):
        if len(rows) == steps:
            raise Enough
        new, row = measure(step, stepper, state, guard)
        rows.append(row)
        return new

    ev.Stepper.step = wrapped
    try:
        with tempfile.TemporaryDirectory() as out_dir:
            experiments.run(config(name, out_dir))
    except Enough:
        pass
    finally:
        ev.Stepper.step = step
    return rows


def cpu_and_faults(step, stepper, state, guard):
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cpu = time.process_time()
    new = step(stepper, state, guard)
    cpu = time.process_time() - cpu
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return new, (1e3 * cpu, faults)


def with_inverses(measure):
    """`measure` with SpectralGrid.physical_slabs wrapped over the step,
    adding to its row the calls and the fields they transformed."""
    def counted(step, stepper, state, guard):
        tally, physical_slabs = [0, 0], SpectralGrid.physical_slabs

        def wrapped(grid, fhat):
            tally[0] += 1
            tally[1] += int(np.prod(np.shape(fhat)[:-grid.ndim]))
            return physical_slabs(grid, fhat)

        SpectralGrid.physical_slabs = wrapped
        try:
            new, row = measure(step, stepper, state, guard)
        finally:
            SpectralGrid.physical_slabs = physical_slabs
        return new, row + tuple(tally)
    return counted


def transient(step, stepper, state, guard):
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    new = step(stepper, state, guard)
    return new, (tracemalloc.get_traced_memory()[1] - start) / 2 ** 20


def cpu_and_peak(fn, grid):
    """(CPU ms, tracemalloc peak MiB, band transforms, line transforms) of
    fn(), from two calls; the transforms are the fields one call
    transformed on the grid."""
    cpu = time.process_time()
    fn()
    cpu = time.process_time() - cpu
    counts = grid.transforms, grid.line_transforms
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (1e3 * cpu, peak / 2 ** 20, grid.transforms - counts[0],
            grid.line_transforms - counts[1])


def other_threads():
    return time.process_time() - time.thread_time()


def setup_costs(name):
    """The CPU ms of the workload's Stepper construction, its flow rows'
    MiB, the other threads' CPU ms over the construction and SPIN_WAIT
    seconds after it, and cpu_and_peak of initial_energy and of one full
    sample, on the states and norm specs the workload's run passes them
    before its first step."""
    seen, energy, evaluate = {}, norms.initial_energy, norms.evaluate_norms
    init = ev.Stepper.__init__

    def record_energy(state):
        seen["initial"] = state
        return energy(state)

    def record_norms(specs, state, profile_w=None):
        seen["specs"], seen["sampled"] = specs, state
        return evaluate(specs, state, profile_w)

    def timed_init(stepper, *args, **kwargs):
        cpu, others = time.process_time(), other_threads()
        init(stepper, *args, **kwargs)
        seen["stepper"] = 1e3 * (time.process_time() - cpu)
        seen["rows"] = sum(G.nbytes for G in (stepper.G_full, stepper.G_half)
                           if G is not None) / 2 ** 20
        time.sleep(SPIN_WAIT)
        # the two clocks tick apart, so an idle reading may dip below 0
        seen["others"] = max(0.0, 1e3 * (other_threads() - others))

    norms.initial_energy, norms.evaluate_norms = record_energy, record_norms
    ev.Stepper.__init__ = timed_init
    try:
        measured_steps(name, None, 0)
    finally:
        norms.initial_energy, norms.evaluate_norms = energy, evaluate
        ev.Stepper.__init__ = init
    state, specs = seen["sampled"], seen["specs"]

    def sample():
        profile = (ev.wave_profile(state) if any(
            spec.component == "profile_w" for spec in specs) else None)
        return evaluate(specs, state, profile)

    return (seen["stepper"], seen["rows"], seen["others"],
            cpu_and_peak(lambda: energy(seen["initial"]), state.grid),
            cpu_and_peak(sample, state.grid))


def main(names):
    for name in names:
        stepper_cpu, rows, others, energy, sample = setup_costs(name)
        timed = measured_steps(name, with_inverses(cpu_and_faults))
        tracemalloc.start()
        try:
            peaks = measured_steps(name, transient, TRACED_STEPS)
        finally:
            tracemalloc.stop()
        print(f"=== {name}: {len(timed)} steps ===")
        print(f"set-up: Stepper {stepper_cpu:.1f} ms; other threads "
              f"{others:.1f} ms over it and a {SPIN_WAIT} s wait")
        print(f"flow rows: G_full plus G_half {rows:.2f} MiB")
        for what, (cpu, peak, band, line) in (("initial_energy", energy),
                                              ("one sample", sample)):
            print(f"{what}: {cpu:.1f} ms, peak {peak:.2f} MiB, {band} band "
                  f"and {line} line transforms")
        print(f"{'step':>4} {'cpu_ms':>8} {'faults':>7} {'inverses':>8} "
              f"{'fields':>6} {'peak_mib':>9}")
        for k, (cpu, faults, calls, fields) in enumerate(timed, 1):
            peak = f"{peaks[k - 1]:9.2f}" if k <= len(peaks) else ""
            print(f"{k:>4} {cpu:8.1f} {faults:7d} {calls:8d} {fields:6d} "
                  f"{peak}")
        cpu, faults, calls, fields = np.median(np.array(timed[1:]), axis=0)
        print(f"steps 2-{len(timed)}: median {cpu:.1f} ms, {faults:.0f} "
              f"faults, {calls:.0f} band inverses over {fields:.0f} fields; "
              f"steps 2-{len(peaks)}: median {np.median(peaks[1:]):.2f} MiB "
              "above the start\n")


if __name__ == "__main__":
    main(sys.argv[1:] or ["pk_mixed_n64", "k_rk4_n64"])
