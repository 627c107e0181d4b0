"""Step clock and layer tracer, installed from outside the program.

Both replace public pdhyp functions for the duration of a ``with`` block
and restore them on exit; nothing under ``src/`` is edited.  The clock
records only the start and end of each ``Stepper.step`` (the untraced,
timed runs); the tracer records a span around every public call of each
layer (the separate traced runs).
"""

import contextlib
import json
import time
from collections import Counter, defaultdict

from workloads import experiments
from pdhyp import evolution, grid, norms, pseudoproduct, spectra

FFT_SPANS = ("grid.to_spectral", "grid.to_physical")
STEP = "evolution.step"
PP_APPLY = "pseudoproduct.apply"
SAMPLE_SPANS = ("norms.evaluate_norm", "evolution.wave_profile")
# spans of the benchmark's own work inside a layer span; they are
# subtracted from the enclosing self time and belong to no layer
OWN_WORK = "bench.rhs_zero_check"


@contextlib.contextmanager
def patched(replacements):
    """setattr each (owner, attribute, value) and undo it on exit."""
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class SetupReached(Exception):
    """Raised by a set-up probe at the first step; carries its clocks."""


def clocks():
    """(elapsed, CPU) seconds now; CPU counts every thread of the process."""
    return time.perf_counter(), time.process_time()


class StepClock:
    """Start and end of each Stepper.step call, and nothing else."""

    def __init__(self):
        self.marks = []          # (start clocks, end clocks) per step
        self._probing = False

    def installed(self):
        orig = evolution.Stepper.step

        def step(stepper, state, guard=None):
            start = clocks()
            if self._probing:
                raise SetupReached(start)
            out = orig(stepper, state, guard)
            self.marks.append((start, clocks()))
            return out

        return patched([(evolution.Stepper, "step", step)])

    def setup_probe(self, config):
        """(elapsed, CPU) seconds from experiments.run entry to the first
        step, stopping the run there; needs the clock installed."""
        self._probing = True
        t0 = clocks()
        try:
            experiments.run(config)
        except SetupReached as reached:
            return tuple(b - a for a, b in zip(t0, reached.args[0]))
        finally:
            self._probing = False
        raise RuntimeError("the run finished without taking a step")


class Tracer:
    """In-memory spans around the public functions of every layer.

    A span is [name, start, end, parent index, run id] with start and end
    in process CPU seconds, like the end-to-end metrics; spans of one
    experiments.run share its run id.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.run = 0
        self.zero_rhs = Counter()     # run id -> rhs calls returning zeros
        self.cache_bytes = {}         # run id -> computed Stepper cache bytes

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.process_time(), None, parent,
                               self.run])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.process_time()
        return traced

    def installed(self):
        w = self._wrap
        E = evolution
        targets = [
            (grid.SpectralGrid, "to_spectral", "grid.to_spectral"),
            (grid.SpectralGrid, "to_physical", "grid.to_physical"),
            (spectra, "build_symbol_cache", "spectra.build_symbol_cache"),
            (spectra, "green_function", "spectra.green_function"),
            (spectra, "propagator_apply", "spectra.propagator_apply"),
            (E.Stepper, "step", STEP),
            (E.BlowupGuard, "check", "evolution.guard_check"),
            (E, "wave_profile", "evolution.wave_profile"),
            (pseudoproduct, "apply", PP_APPLY),
            (norms, "evaluate_norm", "norms.evaluate_norm"),
            (norms, "initial_energy", "norms.initial_energy"),
            (norms, "fit_decay", "norms.fit_decay"),
            (norms, "m0_functional", "norms.m0_functional"),
            (norms, "write_series_csv", "norms.write_series_csv"),
            (norms, "write_json_report", "norms.write_json_report"),
            (experiments, "make_initial_data", "experiments.make_initial_data"),
            (experiments, "run", "experiments.run"),
        ]
        reps = [(owner, attr, w(name, getattr(owner, attr)))
                for owner, attr, name in targets]

        traced_rhs = w("evolution.rhs", E.rhs)
        zero_check = w(OWN_WORK, lambda out: not out.any())

        def rhs(*args, **kwargs):
            out = traced_rhs(*args, **kwargs)
            if zero_check(out):
                self.zero_rhs[self.run] += 1
            return out

        orig_init = E.Stepper.__init__

        def init(stepper, *args, **kwargs):
            orig_init(stepper, *args, **kwargs)
            c = stepper.cache
            arrays = (c.E, c.eigvals, c.projectors, c.degenerate_mask,
                      c.xi_norm, stepper.G_full, stepper.G_half)
            self.cache_bytes[self.run] = sum(a.nbytes for a in arrays
                                             if a is not None)

        orig_preset = experiments.symbol_preset

        def symbol_preset(*args, **kwargs):
            # the runner builds a fresh symbol per run; wrap its separable
            # factors (alpha, beta, gamma) where the pseudoproduct reads them
            sym = orig_preset(*args, **kwargs)
            if sym.separable_terms:
                sym.separable_terms = [
                    tuple(w("symbols.factor", f) for f in term)
                    for term in sym.separable_terms]
            return sym

        reps += [(E, "rhs", rhs), (E.Stepper, "__init__", init),
                 (experiments, "symbol_preset", symbol_preset)]
        return patched(reps)

    def run_metrics(self, run, samples):
        """Per-layer metrics of one traced run; `samples` is the number of
        sampling times in its CSV."""
        idxs = [i for i, s in enumerate(self.spans) if s[4] == run]
        total, own, calls = Counter(), Counter(), Counter()
        child = defaultdict(float)
        for i in idxs:
            name, t0, t1, parent, _ = self.spans[i]
            total[name] += t1 - t0
            calls[name] += 1
            if parent is not None:
                child[parent] += t1 - t0
        for i in idxs:
            name, t0, t1 = self.spans[i][:3]
            own[name] += t1 - t0 - child[i]

        def ancestors(i):
            found = set()
            parent = self.spans[i][3]
            while parent is not None:
                found.add(self.spans[parent][0])
                parent = self.spans[parent][3]
            return found

        inside = Counter()    # (enclosing span name, "fft" | "apply") -> calls
        for i in idxs:
            name = self.spans[i][0]
            if name in FFT_SPANS or name == "spectra.propagator_apply":
                kind = "fft" if name in FFT_SPANS else "apply"
                for anc in ancestors(i):
                    inside[anc, kind] += 1

        def per(num, den):
            return num / den if den else 0.0

        steps = calls[STEP]
        applies = calls[PP_APPLY]
        fft = lambda where: inside[where, "fft"]
        return {
            "grid.fft_calls_per_step": per(fft(STEP), steps),
            "grid.fft_s": sum(total[n] for n in FFT_SPANS),
            "spectra.cache_build_s": total["spectra.build_symbol_cache"],
            "spectra.green_s": total["spectra.green_function"],
            "spectra.apply_s": total["spectra.propagator_apply"],
            "spectra.apply_calls_per_step": per(inside[STEP, "apply"], steps),
            "spectra.cache_mb": self.cache_bytes.get(run, 0) / 2 ** 20,
            "evolution.step_self_s": own[STEP],
            "evolution.rhs_self_s": own["evolution.rhs"],
            "evolution.rhs_calls_per_step": per(calls["evolution.rhs"], steps),
            "evolution.rhs_zero_frac": per(self.zero_rhs[run],
                                           calls["evolution.rhs"]),
            "evolution.guard_s": total["evolution.guard_check"],
            "pseudoproduct.apply_self_s": own[PP_APPLY],
            "pseudoproduct.fft_per_apply": per(fft(PP_APPLY), applies),
            "symbols.factor_s": total["symbols.factor"],
            "symbols.factor_calls_per_apply": per(calls["symbols.factor"],
                                                  applies),
            "norms.sample_s": sum(total[n] for n in SAMPLE_SPANS),
            "norms.fft_per_sample": per(sum(fft(n) for n in SAMPLE_SPANS),
                                        samples),
            "norms.initial_energy_s": total["norms.initial_energy"],
            "norms.fit_s": (total["norms.fit_decay"]
                            + total["norms.m0_functional"]),
            "experiments.initial_data_s": total["experiments.make_initial_data"],
            "experiments.io_s": (total["norms.write_series_csv"]
                                 + total["norms.write_json_report"]),
        }

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "run": run}) + "\n")
