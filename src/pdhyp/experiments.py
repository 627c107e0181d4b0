"""Config-driven experiment runner: configs, initial data, and `run` in three
phases, set-up (initial data, its projection if asked for, E_N of the state
that is evolved, Stepper, guard), `_evolve` (steps, norm series) and
`_report` (fits, M0, provenance).

Configs are single human-editable JSON files (see the shipped presets);
scripted overrides, dotted ``--set key=value`` pairs, merge in like files.
Each field is declared once, in ``_FIELDS``, with its default and its form
(notes on a field are comments there); the defaults derive from that table.
Validation checks every field's form first, then the cross-field rules
whose fields passed.  Runs are deterministic given the config and seed:
identical configs produce byte-identical CSV output.
"""

import contextlib
import copy
import hashlib
import json
import os
import platform
from dataclasses import dataclass, fields
from functools import reduce
from importlib import resources

import numpy as np

from . import __version__
from . import evolution as ev
from . import norms, spectra
from .errors import ConfigError, PdhypError, StepRejected, UnknownPreset
from .grid import SpectralGrid, dealias_limit
from .pseudoproduct import TERM_CAP, direct_sum_terms
from .symbols import SYMBOL_PRESET_NAMES, symbol_preset

INITIAL_PRESETS = ("gaussian_bump", "random_bandlimited", "single_mode")

DEFAULT_NORMS = {
    "k_system": ["sobolev:u", "sobolev:v", "linf:u", "linf:v",
                 "l2:u", "l2:v"],
    "pk_system": ["sobolev:u", "sobolev:v", "sobolev:w",
                  "linf:u", "linf:v", "linf:w", "linf_riesz:w",
                  "l2:w",
                  "weighted_x_l2:profile_w", "weighted_lambda_x_h1:profile_w",
                  "weighted_x2_lambda_h1:profile_w"],
}
DEFAULT_NORMS["pk_system_w"] = DEFAULT_NORMS["pk_system"]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _is_number(value):
    """An int, or a finite float; a bool is not a number here."""
    return not isinstance(value, bool) and (isinstance(value, int) or (
        isinstance(value, float) and np.isfinite(value)))


def _is_count(value):      # a bool is not a count here
    return type(value) is int and value >= 0


def _is_list_of(value, check):
    return isinstance(value, (list, tuple)) and all(map(check, value))


def _is_name(value):       # a path the file system can take
    return isinstance(value, str) and value != "" and "\0" not in value


def _is_positive(value):
    return _is_number(value) and value > 0


def _is_smooth(n):      # no prime factor above 11: a fast FFT length
    for p in (2, 3, 5, 7, 11):
        while n % p == 0:
            n //= p
    return n == 1


def _one_of(*choices):
    return f"one of {' | '.join(choices)}", lambda v: v in choices


_POSITIVES = ("a positive finite number or a list of them",
              lambda v: _is_positive(v) or _is_list_of(v, _is_positive))
_COUNTS = ("an int >= 0 or a list of them",
           lambda v: _is_count(v) or _is_list_of(v, _is_count))
_POSITIVE_OR_NULL = ("null or a positive finite number",
                     lambda v: v is None or _is_positive(v))
_COEFFICIENTS = tuple(f.name for f in fields(ev.Coefficients))

# path -> (default, (form, check)): the one declaration of each config
# field.  validate checks every form before a cross-field rule reads it.
_FIELDS = {
    "model.kind": ("k_system", _one_of(*ev.MODEL_KINDS)),
    "model.coefficients": (     # unset names are 0; free-form in _merge
        {}, (f"a dict of finite numbers named from {' '.join(_COEFFICIENTS)}",
             lambda v: isinstance(v, dict) and set(v) <= set(_COEFFICIENTS)
             and all(map(_is_number, v.values())))),
    "model.coupling": ("uw", _one_of(*ev.COUPLINGS)),
    "model.symbol": ("null_b", _one_of(*SYMBOL_PRESET_NAMES, "none")),
    "grid.n": (32, ("an even int in [8, 65536] with no prime factor above 11",
                    lambda v: type(v) is int and 8 <= v <= 65536
                    and v % 2 == 0 and _is_smooth(v))),
    # the box side L
    "grid.length": (128.0, ("a positive finite number", _is_positive)),
    "initial.preset": ("gaussian_bump", _one_of(*INITIAL_PRESETS)),
    "initial.amplitude": (1e-3, ("a finite number >= 0",
                                 lambda v: _is_number(v) and v >= 0)),
    "initial.width": (1.0, _POSITIVES),     # a list: one entry per component
    "initial.radial_power": (0, _COUNTS),     # likewise
    # for single_mode, each |k| <= (n-1)//3
    "initial.mode": ([1, 0, 0], ("a list of 3 ints", lambda v: _is_list_of(
        v, lambda k: type(k) is int) and len(v) == 3)),
    # for random_bandlimited, at most (n-1)//3
    "initial.band": (4, ("an int >= 1", lambda v: type(v) is int and v >= 1)),
    "initial.seed": (0, ("an int >= 0", _is_count)),
    "initial.project": ("none", _one_of("none", "damped_branch")),
    # < L/4 (no-wrap), a whole number of steps from t = 1
    "time.t_max": (31.0, (f"a finite number > {ev.T_INITIAL:g}",
                          lambda v: _is_number(v) and v > ev.T_INITIAL)),
    "time.dt": (None, _POSITIVE_OR_NULL),     # null for L/(2n)
    "time.scheme": ("ifrk2", _one_of("ifrk2", "ifrk4")),
    # a whole multiple of dt, null for dt
    "time.sample_dt": (None, _POSITIVE_OR_NULL),
    # distinct NORM_KINDS:COMPONENTS names; w, profile_w need 3 components
    "norms": ("default", (
        "'default' or a nonempty list of 'kind:component' strings",
        lambda v: v == "default" or _is_list_of(
            v, lambda s: isinstance(s, str)) and len(v) > 0)),
    # null for [0.25, 0.9] * t_max
    "fit.window": (None, ("null or finite [t_lo, t_hi] with t_lo < t_hi",
                          lambda v: v is None or _is_list_of(v, _is_number)
                          and len(v) == 2 and v[0] < v[1])),
    "output.dir": (".", ("a directory name", _is_name)),
    "output.prefix": ("run", ("a file name without '/'",
                              lambda v: _is_name(v) and "/" not in v)),
}

_DEFAULTS = {}      # {section: {key: default}} (or {key: default})
for _path, (_default, _) in _FIELDS.items():
    *_section, _key = _path.split(".")
    (_DEFAULTS.setdefault(_section[0], {}) if _section
     else _DEFAULTS)[_key] = _default


def _merge(base, extra, path=""):
    """base with the nested dict extra merged in: a dict into a section, key
    by key, any other value replacing.  Keys must be base's, but under
    model.coefficients any name goes (validate checks the names)."""
    if not isinstance(extra, dict):
        raise ConfigError([f"{path or 'the config'}: {extra!r} is not an "
                           "object"])
    out = copy.deepcopy(base)
    for key, val in extra.items():
        where = f"{path}.{key}" if path else key
        if key not in base and path != "model.coefficients":
            while isinstance(val, dict) and len(val) == 1:  # a dotted key
                (key, val), = val.items()
                where += f".{key}"
            raise ConfigError([f"unknown config key {where!r}"])
        if isinstance(base.get(key), dict):
            out[key] = _merge(base[key], val, where)
        else:
            out[key] = copy.deepcopy(val)
    return out


@dataclass
class ExperimentConfig:
    raw: dict

    @staticmethod
    def from_dict(d):
        cfg = ExperimentConfig(_merge(_DEFAULTS, d))
        cfg.validate()
        return cfg

    @staticmethod
    def from_file(path):
        """The config in a JSON file, less a top-level 'description'."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                [f"{path}: invalid JSON at line {exc.lineno}, "
                 f"column {exc.colno}: {exc.msg}"]) from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError([f"{path}: cannot read it: {exc}"]) from exc
        if isinstance(data, dict):
            data.pop("description", None)
        return ExperimentConfig.from_dict(data)

    def to_dict(self):
        return copy.deepcopy(self.raw)

    def __getitem__(self, key):
        return self.raw[key]

    def override(self, pairs):
        """A new validated config: each a.b=value in turn merged in as
        {"a": {"b": value}}, the value parsed as JSON when possible, else
        kept as a string; a section's other keys keep their values."""
        raw = self.raw
        for pair in pairs:
            if "=" not in pair:
                raise ConfigError([f"override {pair!r} is not key=value"])
            key, _, text = pair.partition("=")
            try:
                value = json.loads(text)
            except json.JSONDecodeError:
                value = text
            raw = _merge(raw, reduce(lambda v, part: {part: v},
                                     reversed(key.split(".")), value))
        return ExperimentConfig.from_dict(raw)

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Check the form of every field, then each cross-field rule whose
        fields have a valid form; raise one ConfigError naming them all."""
        r = self.raw
        problems, bad = [], set()
        for path, (_, (form, check)) in _FIELDS.items():
            *section, key = path.split(".")
            value = (r[section[0]] if section else r)[key]
            if not check(value):
                bad.add(path)
                problems.append(f"{path}: {value!r} is not {form}")

        def ok(*paths):     # a field, or every field of a section, is sound
            return not any(b == p or b.startswith(p + ".")
                           for b in bad for p in paths)

        m, g, i, t = r["model"], r["grid"], r["initial"], r["time"]
        if ok("model"):
            try:
                model = self.build_model()
            except ValueError as exc:
                bad.add("model")
                problems.append(f"model: {exc}")
            else:
                m["coupling"] = model.coupling   # the coupling that runs
        if (ok("model", "grid.n") and model.w_form
                and not model.w_symbol.separable_terms):
            terms = direct_sum_terms(g["n"])
            if terms > TERM_CAP:
                problems.append(
                    f"model.symbol: {m['symbol']!r} has no separable "
                    f"factorization and its direct sum on n = {g['n']} needs "
                    f"{terms:.3g} term evaluations (cap {TERM_CAP:.3g})")
        for key in ("width", "radial_power"):
            if (ok("model", f"initial.{key}") and isinstance(
                    i[key], (list, tuple)) and len(i[key]) != model.dim_state):
                problems.append(f"initial.{key}: per-component list needs "
                                f"{model.dim_state} entries")
        limit = dealias_limit(g["n"]) if ok("grid.n") else None
        if (ok("grid.n", "initial.preset", "initial.mode")
                and i["preset"] == "single_mode"
                and any(abs(k) > limit for k in i["mode"])):
            problems.append(f"initial.mode: {list(i['mode'])} outside the "
                            f"dealiased band |k| <= {limit}")
        if (ok("grid.n", "initial.preset", "initial.band")
                and i["preset"] == "random_bandlimited" and i["band"] > limit):
            problems.append(f"initial.band: {i['band']!r} is not a whole "
                            f"number in [1, {limit}], the dealiased band on "
                            f"n = {g['n']}")
        if ok("grid.length", "time.t_max") and t["t_max"] >= g["length"] / 4:
            problems.append(
                f"time.t_max: {t['t_max']} violates the no-wrap window "
                f"t_max < L/4 = {g['length'] / 4.0}")
        if ok("grid", "time.t_max", "time.dt", "time.sample_dt"):
            try:
                self.schedule()
            except ConfigError as exc:
                problems += exc.problems
        if ok("norms") and r["norms"] != "default":
            names = set()
            for text in r["norms"]:
                try:
                    spec = norms.NormSpec.parse(text)
                except ValueError as exc:
                    problems.append(f"norms: {exc}")
                    continue
                if spec.name in names:
                    problems.append(f"norms: {text!r} is listed twice")
                names.add(spec.name)
                if (ok("model") and model.dim_state == 2
                        and spec.component in ("w", "profile_w")):
                    problems.append(f"norms: {text!r} needs w, and "
                                    f"{m['kind']} has no w")
        if problems:
            raise ConfigError(problems)

    # -- builders -----------------------------------------------------------

    def build_grid(self):
        return SpectralGrid(self["grid"]["n"], self["grid"]["length"])

    def build_model(self):
        m = self["model"]
        sym = None if m["symbol"] == "none" else symbol_preset(m["symbol"])
        coeffs = ev.Coefficients(**m["coefficients"])
        return ev.ModelSpec(m["kind"], coeffs, w_symbol=sym,
                            coupling=m["coupling"])

    def schedule(self):
        """(dt, steps, every): the step, the number of steps from t = 1 to
        t_max, and the steps between samples; a ConfigError when t_max or
        sample_dt is not a whole number of steps."""
        g, t = self["grid"], self["time"]
        # the default is CFL-like on the sources: the linear flow is exact
        dt = t["dt"] or 0.5 * (g["length"] / g["n"])
        steps = (t["t_max"] - ev.T_INITIAL) / dt
        every = (t["sample_dt"] or dt) / dt
        problems = []
        if not (round(steps) >= 1 and _whole(steps)):
            problems.append(f"time.t_max: (t_max - 1)/dt = {steps:.6g} is not "
                            "a positive whole number of steps")
        if not (round(every) >= 1 and _whole(every)):
            problems.append(f"time.sample_dt: {t['sample_dt']} is not a "
                            f"positive whole multiple of dt = {dt:.6g}")
        if problems:
            raise ConfigError(problems)
        return dt, round(steps), round(every)

    def fit_window(self):
        win = self["fit"]["window"]
        if win is None:
            return norms.default_fit_window(self["time"]["t_max"])
        return tuple(win)


def _whole(x):
    return abs(x - round(x)) <= 1e-9 * max(1.0, abs(x))


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def _per_component(value, dim):
    if isinstance(value, (list, tuple)):
        if len(value) != dim:
            raise ConfigError([f"per-component list needs {dim} entries"])
        return list(value)
    return [value] * dim


def _spectral_bump(grid, amplitude, width, radial_power):
    """Band-tapered spectral Gaussian centered at the box center, scaled so
    the physical peak equals `amplitude` exactly.

    The profile is built in Fourier space, so widths below the grid spacing
    stay legal: the data is the band-limited projection of the continuum
    Gaussian (times (sigma |xi|)^{2p} when a radial power is requested,
    which empties the spectrum near xi = 0 and makes the field mean-free).
    The smooth taper at the dealiasing edge keeps the physical tails
    rapidly decaying, which the coordinate-weighted norms need.
    """
    s, shell = grid.shells      # the profile on each |xi| once
    edge = grid.dealias_limit * grid.dk
    ramp = np.clip((s - 0.7 * edge) / (0.3 * edge), 0.0, 1.0)
    taper = np.cos(0.5 * np.pi * ramp) ** 2
    radial = (width * s) ** (2 * radial_power) if radial_power else 1.0
    profile = radial * np.exp(-0.5 * width ** 2 * s ** 2) * taper
    fhat = -1j * grid.center * sum(grid.xi_axes)    # the phase, in place
    np.exp(fhat, out=fhat)
    fhat *= profile[shell]
    peak = norms.band_linf(grid, fhat)
    if peak > 0.0:
        fhat *= amplitude / peak
    return fhat


def make_initial_data(preset, grid, amplitude, seed, dim_state=3,
                      width=_DEFAULTS["initial"]["width"],
                      radial_power=_DEFAULTS["initial"]["radial_power"],
                      mode=_DEFAULTS["initial"]["mode"],
                      band=_DEFAULTS["initial"]["band"]):
    """Real-valued initial fields at t = 1, on the band's cube.

    The runner reports E_N of the state it evolves via norms.initial_energy.
    """
    if preset not in INITIAL_PRESETS:
        raise UnknownPreset(f"unknown initial-data preset {preset!r}")
    rng = np.random.default_rng(seed)
    widths = _per_component(width, dim_state)
    powers = _per_component(radial_power, dim_state)
    data = np.zeros((dim_state,) + grid.band_shape, dtype=complex)

    if preset == "gaussian_bump":
        keys = list(zip(widths, powers))
        for i, key in enumerate(keys):    # one bump per distinct key
            first = keys.index(key)
            data[i] = data[first] if first < i else _spectral_bump(
                grid, amplitude, *key)
    elif preset == "random_bandlimited":
        sel = reduce(np.logical_and.outer,
                     [np.abs(grid.band_k) <= band] * grid.ndim)
        for i in range(dim_state):
            fh = np.zeros(grid.band_shape, dtype=complex)
            fh[sel] = rng.normal(size=sel.sum()) + 1j * rng.normal(size=sel.sum())
            fh = grid.conjugate_symmetrize(fh)
            peak = norms.band_linf(grid, fh)
            data[i] = fh * (amplitude / peak) if peak > 0 else fh
    else:  # single_mode
        k = np.asarray(mode, dtype=int)
        if np.any(np.abs(k) > grid.dealias_limit):
            raise ConfigError([f"initial.mode: {k.tolist()} outside the "
                               f"dealiased band |k| <= {grid.dealias_limit}"])
        # amplitude/(2 d_eta) per conjugate mode gives amplitude*cos(k.x);
        # the cube's index of a mode is the mode itself
        for i in range(dim_state):
            data[i][tuple(k)] += amplitude / (2.0 * grid.d_eta)
            data[i][tuple(-k)] += amplitude / (2.0 * grid.d_eta)

    return ev.StateField(grid, data, ev.T_INITIAL)


def project_damped_branch(state, cache):
    """Project the state onto the exponentially damped branch: P2's rows
    as band rows; degenerate-band modes are dropped."""
    P2 = cache.projectors[1].copy()
    P2[:, cache.degenerate_mask] = 0.0
    g = state.grid
    data = spectra.propagator_apply(spectra.band_rows(g, P2), state.data)
    return ev.StateField(g, data, state.t)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def list_presets():
    root = resources.files("pdhyp").joinpath("presets")
    return {entry.name[:-5]: json.loads(entry.read_text()).get(
        "description", "") for entry in sorted(root.iterdir())
        if entry.name.endswith(".json")}


def load_preset(name):
    path = resources.files("pdhyp").joinpath("presets").joinpath(f"{name}.json")
    if not path.is_file():
        raise UnknownPreset(f"no preset named {name!r}; see `presets list`")
    return ExperimentConfig.from_file(path)


def load_config(name_or_path):
    if os.path.exists(name_or_path):
        return ExperimentConfig.from_file(name_or_path)
    try:
        return load_preset(name_or_path)
    except UnknownPreset:
        raise ConfigError(
            [f"{name_or_path!r} is neither a config file nor a preset name"])


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """A finished run: its status, its report, the paths of the files it
    wrote, and `series`, {norm name: (times, values)}, the arrays the CSV
    was written from."""
    status: str               # completed | blowup
    report: dict
    csv_path: str
    report_path: str
    series: dict

    @property
    def exit_code(self):
        return {"completed": 0, "blowup": 3}[self.status]


@contextlib.contextmanager
def _counted(grid, tally):
    """Add the band and line fields transformed in the block to tally."""
    band, line = grid.transforms, grid.line_transforms
    try:
        yield
    finally:
        tally["band"] += grid.transforms - band
        tally["line"] += grid.line_transforms - line


def run(config, log=None):
    """Run one experiment in three phases, set-up, _evolve and _report;
    write `<prefix>_series.csv` and `<prefix>_report.json`; return a
    RunResult.  The report's `transforms` counts the band and line fields
    transformed per phase: `setup` includes the initial data, its
    projection and E_N, `samples` the sample at t = 1, whose L^inf and H^N
    come from E_N, and `steps` a step the guard rejects."""
    say = log or (lambda msg: None)
    out = config["output"]
    try:    # before any step, so a name no directory can take costs no run
        os.makedirs(out["dir"], exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"output.dir: cannot make it: {exc}"]) from exc
    grid = config.build_grid()
    model = config.build_model()
    icfg = config["initial"]
    dt, steps, every = config.schedule()
    transforms = {phase: {"band": 0, "line": 0}
                  for phase in ("setup", "samples", "steps")}
    with _counted(grid, transforms["setup"]):
        state = make_initial_data(
            icfg["preset"], grid, icfg["amplitude"], icfg["seed"],
            dim_state=model.dim_state, width=icfg["width"],
            radial_power=icfg["radial_power"], mode=icfg["mode"],
            band=icfg["band"])
        if icfg["project"] == "damped_branch":
            state = project_damped_branch(state, spectra.build_symbol_cache(
                grid.shells[0], model.matrices()))
        e_n = norms.initial_energy(state, known := {})  # its L^inf, H^N too
        stepper = ev.Stepper(model, grid, dt, config["time"]["scheme"])
        # a source-free flow exp(E t) has E + E* = 2B <= 0, so it cannot
        # grow any norm; its step, in place, takes no guard
        guard = (None if stepper.source_free
                 else ev.BlowupGuard.for_state(state))

    norm_specs = config["norms"]
    if norm_specs == "default":
        norm_specs = DEFAULT_NORMS[model.kind]
    specs = [norms.NormSpec.parse(s) for s in norm_specs]
    needs_profile = any(spec.component == "profile_w" for spec in specs)

    def sample(st):     # E_N's values serve the state at t = 1 alone
        values = dict(zip([spec.name for spec in specs], norms.evaluate_norms(
            specs, st, ev.wave_profile(st) if needs_profile else None, known)))
        return known.clear() or values

    start, state = [state], None    # so that _evolve alone holds it
    trip, state, series = _evolve(stepper, start, guard, steps, every,
                                  sample, transforms, say)
    report = _report(config, stepper, trip, state.t, series, e_n,
                     transforms, say)
    csv_path = os.path.join(out["dir"], f"{out['prefix']}_series.csv")
    report_path = os.path.join(out["dir"], f"{out['prefix']}_report.json")
    norms.write_series_csv(csv_path, series)
    norms.write_json_report(report_path, report)
    say(f"{report['status']}: wrote {csv_path} and {report_path}")
    return RunResult(report["status"], report, csv_path, report_path, series)


def _evolve(stepper, start, guard, steps, every, sample, transforms, say):
    """Step from the state at t = 1, popped from the list `start` so that
    the first Lawson step frees it (a source-free one writes it in place),
    calling sample(state) -> {norm name: value} at t = 1 and after every
    `every`-th of `steps` steps, until the guard trips; returns (the
    guard's StepRejected or None, the last accepted state, {name: (times,
    values)})."""
    grid, rows, state, trip = stepper.grid, [], start.pop(), None
    try:
        for k in range(steps + 1):
            if k > 0:       # k = 0 only samples t = 1
                with _counted(grid, transforms["steps"]):
                    state = stepper.step(state, guard)
            if k % every == 0:
                with _counted(grid, transforms["samples"]):
                    rows.append((state.t, sample(state)))
    except StepRejected as exc:
        say(f"blow-up guard: {exc}")
        trip = exc
    times = np.asarray([t for t, _ in rows])
    return trip, state, {n: (times, np.asarray([r[n] for _, r in rows]))
                           for n in rows[0][1]}


def _provenance(config):
    """What made a run: the versions, the FFT backend and the hash of the
    config without `output`, the first 16 hex digits of the sha256 of its
    sorted JSON, so two runs that differ only in where they write match."""
    raw = {k: v for k, v in config.to_dict().items() if k != "output"}
    digest = hashlib.sha256(json.dumps(raw, sort_keys=True).encode())
    return {"pdhyp": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "fft": "numpy.fft", "threads": 1,
            "config_hash": digest.hexdigest()[:16]}


def _report(config, stepper, trip, t_final, series, e_n, transforms, say):
    """The report: the status, where and why the guard tripped (`blowup`,
    None for a completed run), fits, the T_m(w, w) = 0 warning, M0, [SK]'s
    verdict and the run's provenance."""
    model = stepper.model
    status = "completed" if trip is None else "blowup"
    window = config.fit_window()
    fits = {}
    for name, (t, v) in series.items():
        try:
            expo, resid = norms.fit_decay(t, v, window)
            fits[name] = {"exponent": expo, "residual": resid,
                          "window": list(window)}
        except (PdhypError, ValueError) as exc:
            fits[name] = {"exponent": None, "error": str(exc)}

    warnings = []
    if stepper.plan is not None and stepper.plan.vanishes_on_diagonal():
        warnings.append(
            f"T_m(w, w) is identically zero: the symmetric part of symbol "
            f"{model.w_symbol.name!r} vanishes, so no pseudoproduct source "
            f"acts on w")
        say(f"warning: {warnings[-1]}")

    m0_report = None
    if status == "completed":
        try:
            m0_report = norms.m0_functional(model.kind, series, e_n).as_dict()
        except (PdhypError, ValueError) as exc:
            m0_report = {"error": str(exc)}

    undamped = [{"direction": (z * np.sign(z[np.argmax(np.abs(z))]) + 0.0)
                 .tolist(), "speed": mu}     # largest entry positive
                for z, mu in spectra.check_sk(model.matrices())]
    return {
        "config": config.to_dict(),
        "status": status,
        "blowup": None if trip is None else dict(
            t=trip.t, h_n=trip.norm, limit=trip.limit),
        "e_n": e_n,
        "t_final": float(t_final),
        "fitted_exponents": fits,
        "m0": m0_report,
        "warnings": warnings,
        "transforms": transforms,
        "sk": {"holds": not undamped, "undamped": undamped},
        "provenance": _provenance(config),
    }
