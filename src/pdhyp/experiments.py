"""Config-driven experiment runner: grids, initial data, models, evolution
loops, norm series, decay fits and the bootstrap report.

Configs are single human-editable JSON files (see CONFIG_SCHEMA below and
the shipped presets); scripted overrides take precedence via dotted
``--set key=value`` pairs.  Runs are deterministic given the config and
seed: identical configs produce byte-identical CSV output.
"""

import copy
import json
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np
import scipy.fft

from . import evolution as ev
from . import norms, spectra
from .errors import ConfigError, PdhypError, StepRejected, UnknownPreset
from .grid import SpectralGrid, dealias_limit
from .pseudoproduct import TERM_CAP, direct_sum_terms
from .symbols import SYMBOL_PRESET_NAMES, symbol_preset

CONFIG_SCHEMA = {
    "model": {"kind": "pk_system | k_system | pk_system_w",
              "coefficients": "{name: finite number}, names a_u b_u c_u "
                              "a_v b_v c_v d_v",
              "coupling": "uw | vw_in_v | vw_in_u | vw_in_w",
              "symbol": "one | null_b | aphi | mixed | mu0 | none"},
    "grid": {"n": "even FFT-fast length >= 8", "length": "box side L > 0"},
    "initial": {"preset": "gaussian_bump | random_bandlimited | single_mode",
                "amplitude": ">= 0", "width": "scalar or per-component list",
                "radial_power": "int >= 0, scalar or list",
                "mode": "[kx, ky, kz], 3 ints, for single_mode",
                "band": "1..(n-1)//3",
                "seed": "int >= 0", "project": "none | damped_branch"},
    "time": {"t_max": "< L/4 (no-wrap), a whole number of steps from t = 1",
             "dt": "step > 0, or null for L/(2n)", "scheme": "ifrk2 | ifrk4",
             "sample_dt": "sampling cadence > 0, a whole multiple of dt, "
                          "or null for dt"},
    "norms": ("'default' or a nonempty list of distinct 'kind:component' "
              f"strings; kind: {' | '.join(norms.NORM_KINDS)}; "
              f"component: {' | '.join(norms.COMPONENTS)} "
              "(w and profile_w need a 3-component model)"),
    "fit": {"window": "[t_lo, t_hi], two numbers with t_lo < t_hi, or null "
                      "for [0.25, 0.9] * t_max"},
    "output": {"dir": "directory", "prefix": "file prefix"},
}

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

_DEFAULTS = {
    "model": {"kind": "k_system", "coefficients": {}, "coupling": "uw",
              "symbol": "null_b"},
    "grid": {"n": 32, "length": 128.0},
    "initial": {"preset": "gaussian_bump", "amplitude": 1e-3, "width": 1.0,
                "radial_power": 0, "mode": [1, 0, 0], "band": 4, "seed": 0,
                "project": "none"},
    "time": {"t_max": 31.0, "dt": None, "scheme": "ifrk2", "sample_dt": None},
    "norms": "default",
    "fit": {"window": None},
    "output": {"dir": ".", "prefix": "run"},
}


def _is_number(value):
    """An int, or a finite float; a bool is not a number here."""
    return not isinstance(value, bool) and (isinstance(value, int) or (
        isinstance(value, float) and np.isfinite(value)))


def _is_count(value):      # a bool is not a count here
    return type(value) is int and value >= 0


def _is_list_of(value, check):
    return isinstance(value, (list, tuple)) and all(map(check, value))


_NUMBER = ("a finite number", _is_number)
_NUMBERS = ("a finite number or a list of them",
            lambda v: _is_number(v) or _is_list_of(v, _is_number))
_COUNTS = ("an int >= 0 or a list of them",
           lambda v: _is_count(v) or _is_list_of(v, _is_count))
_POSITIVE_OR_NULL = ("null or a positive finite number",
                     lambda v: v is None or (_is_number(v) and v > 0))
# the form of each numeric field, checked before any range check reads it
_FIELD_FORMS = {
    "model.coefficients": ("a dict of finite numbers",
                           lambda v: isinstance(v, dict)
                           and all(map(_is_number, v.values()))),
    "grid.length": _NUMBER, "initial.amplitude": _NUMBER,
    "initial.width": _NUMBERS, "initial.radial_power": _COUNTS,
    "initial.mode": ("a list of 3 ints",
                     lambda v: _is_list_of(v, lambda k: type(k) is int)
                     and len(v) == 3),
    "initial.seed": ("an int >= 0", _is_count),
    "time.t_max": _NUMBER, "time.dt": _POSITIVE_OR_NULL,
    "time.sample_dt": _POSITIVE_OR_NULL,
    "fit.window": ("null or finite [t_lo, t_hi] with t_lo < t_hi",
                   lambda v: v is None or (_is_list_of(v, _is_number)
                                           and len(v) == 2 and v[0] < v[1])),
}


def _merge(base, extra, path=""):
    out = copy.deepcopy(base)
    for key, val in extra.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError([f"unknown config key {where!r}"])
        # empty-dict defaults (model.coefficients) are free-form: replace
        if isinstance(base[key], dict) and isinstance(val, dict) and base[key]:
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
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                [f"{path}: invalid JSON at line {exc.lineno}, "
                 f"column {exc.colno}: {exc.msg}"]) from exc
        return ExperimentConfig.from_dict(data)

    def to_dict(self):
        return copy.deepcopy(self.raw)

    def __getitem__(self, key):
        return self.raw[key]

    def override(self, pairs):
        """Apply dotted key=value overrides (values parsed as JSON when
        possible, else as strings); returns a new validated config."""
        raw = copy.deepcopy(self.raw)
        for pair in pairs:
            if "=" not in pair:
                raise ConfigError([f"override {pair!r} is not key=value"])
            key, _, text = pair.partition("=")
            try:
                value = json.loads(text)
            except json.JSONDecodeError:
                value = text
            node = raw
            parts = key.split(".")
            for part in parts[:-1]:
                if part not in node or not isinstance(node[part], dict):
                    raise ConfigError([f"unknown config key {key!r}"])
                node = node[part]
            # names under the free-form coefficient block are validate's
            if (parts[-1] not in node
                    and parts[:-1] != ["model", "coefficients"]):
                raise ConfigError([f"unknown config key {key!r}"])
            node[parts[-1]] = value
        return ExperimentConfig.from_dict(raw)

    # -- validation ---------------------------------------------------------

    def validate(self):
        problems = []
        r = self.raw
        m, g, i, t = r["model"], r["grid"], r["initial"], r["time"]
        for path, (form, check) in _FIELD_FORMS.items():
            section, key = path.split(".")
            if not check(r[section][key]):
                problems.append(f"{path}: {r[section][key]!r} is not {form}")
        if problems:
            raise ConfigError(problems)

        if m["kind"] not in ev.MODEL_KINDS:
            problems.append(f"model.kind: unknown kind {m['kind']!r}")
        if m["coupling"] not in ev.COUPLINGS:
            problems.append(f"model.coupling: unknown {m['coupling']!r}")
        if m["symbol"] not in SYMBOL_PRESET_NAMES + ("none",):
            problems.append(f"model.symbol: unknown preset {m['symbol']!r}")
        bad_coeff = set(m["coefficients"]) - set(ev.Coefficients().as_dict())
        if bad_coeff:
            problems.append(f"model.coefficients: unknown names {sorted(bad_coeff)}")

        model = dim = None
        if not problems:
            try:
                model = self.build_model()
            except ValueError as exc:
                problems.append(f"model: {exc}")
            else:
                dim = model.dim_state
                m["coupling"] = model.coupling   # the coupling that runs

        n = g["n"]
        grid_ok = (isinstance(n, int) and n >= 8 and n % 2 == 0
                   and scipy.fft.next_fast_len(n) == n)
        if not grid_ok:
            problems.append(f"grid.n: {n!r} is not an even FFT-fast length "
                            ">= 8 (one with scipy.fft.next_fast_len(n) == n)")
        if g["length"] <= 0:
            grid_ok = False
            problems.append("grid.length: must be positive")
        if (grid_ok and model is not None and model.w_form
                and not model.w_symbol.separable_terms):
            terms = direct_sum_terms(n)
            if terms > TERM_CAP:
                problems.append(
                    f"model.symbol: {m['symbol']!r} has no separable "
                    f"factorization and its direct sum on n = {n} needs "
                    f"{terms:.3g} term evaluations (cap {TERM_CAP:.3g})")

        if i["preset"] not in INITIAL_PRESETS:
            problems.append(f"initial.preset: unknown preset {i['preset']!r}")
        if i["amplitude"] < 0:
            problems.append("initial.amplitude: must be >= 0")
        if i["project"] not in ("none", "damped_branch"):
            problems.append(f"initial.project: unknown {i['project']!r}")
        for key in ("width", "radial_power"):
            if (dim is not None and isinstance(i[key], (list, tuple))
                    and len(i[key]) != dim):
                problems.append(f"initial.{key}: per-component list needs "
                                f"{dim} entries")
        limit = dealias_limit(n) if grid_ok else None
        if (i["preset"] == "single_mode" and grid_ok
                and any(abs(k) > limit for k in i["mode"])):
            problems.append(f"initial.mode: {list(i['mode'])} outside the "
                            f"dealiased band |k| <= {limit}")
        band = i["band"]
        if i["preset"] == "random_bandlimited" and grid_ok and not (
                isinstance(band, int) and 1 <= band <= limit):
            problems.append(f"initial.band: {band!r} is not a whole number in "
                            f"[1, {limit}], the dealiased band on n = {n}")

        if t["t_max"] >= g["length"] / 4.0:
            problems.append(
                f"time.t_max: {t['t_max']} violates the no-wrap window "
                f"t_max < L/4 = {g['length'] / 4.0}")
        if t["t_max"] <= ev.T_INITIAL:
            problems.append("time.t_max: must exceed the initial time t = 1")
        if grid_ok:
            dt = self.dt()
            steps = (t["t_max"] - ev.T_INITIAL) / dt
            if not _whole(steps):
                problems.append(
                    f"time.t_max: (t_max - 1)/dt = {steps:.6g} is not a whole "
                    "number of steps")
            every = (t["sample_dt"] or dt) / dt
            if not (round(every) >= 1 and _whole(every)):
                problems.append(
                    f"time.sample_dt: {t['sample_dt']} is not a positive whole "
                    f"multiple of dt = {dt:.6g}")
        if t["scheme"] not in ("ifrk2", "ifrk4"):
            problems.append(f"time.scheme: unknown scheme {t['scheme']!r}")
        listed = r["norms"]
        if listed != "default" and not (
                isinstance(listed, list) and listed
                and all(isinstance(text, str) for text in listed)):
            problems.append("norms: must be 'default' or a nonempty list of "
                            "'kind:component' strings")
        elif listed != "default":
            names = set()
            for text in listed:
                try:
                    spec = norms.NormSpec.parse(text)
                except ValueError as exc:
                    problems.append(f"norms: {exc}")
                    continue
                if spec.name in names:
                    problems.append(f"norms: {text!r} is listed twice")
                names.add(spec.name)
                if dim == 2 and spec.component in ("w", "profile_w"):
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

    def dt(self):
        g = self["grid"]
        return self["time"]["dt"] or ev.default_dt(g["length"] / g["n"])

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
    s = grid.xi_norm
    edge = grid.dealias_limit * grid.dk
    ramp = np.clip((s - 0.7 * edge) / (0.3 * edge), 0.0, 1.0)
    taper = np.cos(0.5 * np.pi * ramp) ** 2
    radial = (width * s) ** (2 * radial_power) if radial_power else 1.0
    center_phase = np.exp(-1j * grid.center * sum(grid.xi_axes))
    fhat = grid.dealias(radial * np.exp(-0.5 * width ** 2 * s ** 2) * taper
                        * center_phase)
    peak = np.max(np.abs(grid.to_physical(fhat)))
    if peak > 0.0:
        fhat *= amplitude / peak
    return fhat


def make_initial_data(preset, grid, amplitude, seed, dim_state=3, width=1.0,
                      radial_power=0, mode=(1, 0, 0), band=4):
    """Real-valued, band-limited, dealiased initial fields at t = 1.

    E_N of the result is reported by the runner via norms.initial_energy.
    """
    if preset not in INITIAL_PRESETS:
        raise UnknownPreset(f"unknown initial-data preset {preset!r}")
    rng = np.random.default_rng(seed)
    widths = _per_component(width, dim_state)
    powers = _per_component(radial_power, dim_state)
    data = np.zeros((dim_state,) + grid.shape, dtype=complex)

    if preset == "gaussian_bump":
        keys = list(zip(widths, powers))
        for i, key in enumerate(keys):    # one bump per distinct key
            first = keys.index(key)
            data[i] = data[first] if first < i else _spectral_bump(
                grid, amplitude, *key)
    elif preset == "random_bandlimited":
        sel = grid.band_mask(band)
        for i in range(dim_state):
            fh = np.zeros(grid.shape, dtype=complex)
            fh[sel] = rng.normal(size=sel.sum()) + 1j * rng.normal(size=sel.sum())
            fh = grid.dealias(grid.conjugate_symmetrize(fh))
            peak = np.max(np.abs(grid.to_physical(fh)))
            data[i] = fh * (amplitude / peak) if peak > 0 else fh
    else:  # single_mode
        k = np.asarray(mode, dtype=int)
        if np.any(np.abs(k) > grid.dealias_limit):
            raise ConfigError([f"initial.mode: {k.tolist()} outside the "
                               f"dealiased band |k| <= {grid.dealias_limit}"])
        idx = tuple(int(ki) % grid.n for ki in k)
        idx_neg = tuple(int(-ki) % grid.n for ki in k)
        # amplitude/(2 d_eta) per conjugate mode gives amplitude*cos(k.x)
        for i in range(dim_state):
            data[i][idx] += amplitude / (2.0 * grid.d_eta)
            data[i][idx_neg] += amplitude / (2.0 * grid.d_eta)

    return ev.StateField(grid, data, ev.T_INITIAL)


def project_damped_branch(state, cache):
    """Replace the state by its projection onto the exponentially damped
    spectral branch (P2); degenerate-band modes are dropped."""
    P2 = cache.projectors[1].copy()
    P2[cache.degenerate_mask] = 0.0
    flat = spectra.propagator_apply(spectra.mode_operator(cache, P2),
                                    state.data.reshape(state.dim_state, -1))
    return ev.StateField(state.grid, flat.reshape(state.data.shape), state.t)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def list_presets():
    found = {}
    root = resources.files("pdhyp").joinpath("presets")
    for entry in sorted(root.iterdir()):
        if entry.name.endswith(".json"):
            with entry.open() as fh:
                data = json.load(fh)
            found[entry.name[:-5]] = data.pop("description", "")
    return found


def load_preset(name):
    path = resources.files("pdhyp").joinpath("presets").joinpath(f"{name}.json")
    if not path.is_file():
        raise UnknownPreset(f"no preset named {name!r}; see `presets list`")
    with path.open() as fh:
        data = json.load(fh)
    data.pop("description", None)
    return ExperimentConfig.from_dict(data)


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


def run(config, log=None):
    """Execute one experiment; writes `<prefix>_series.csv` and
    `<prefix>_report.json` and returns a RunResult."""
    say = log or (lambda msg: None)
    grid = config.build_grid()
    model = config.build_model()
    icfg = config["initial"]
    dim = model.dim_state

    state = make_initial_data(
        icfg["preset"], grid, icfg["amplitude"], icfg["seed"], dim_state=dim,
        width=icfg["width"], radial_power=icfg["radial_power"],
        mode=icfg["mode"], band=icfg["band"])

    dt = config.dt()
    t_max = config["time"]["t_max"]
    sample_dt = config["time"]["sample_dt"] or dt
    scheme = config["time"]["scheme"]

    e_n = norms.initial_energy(state)

    stepper = ev.Stepper(model, grid, dt, scheme)
    if icfg["project"] == "damped_branch":
        state = project_damped_branch(state, stepper.cache)
    # a source-free flow exp(E t) has E + E* = 2B <= 0, so it cannot grow
    # any norm and needs no guard
    guard = (ev.BlowupGuard.for_state(state)
             if icfg["amplitude"] > 0 and not stepper.source_free else None)

    norm_specs = config["norms"]
    if norm_specs == "default":
        norm_specs = DEFAULT_NORMS[model.kind]
    specs = [norms.NormSpec.parse(s) for s in norm_specs]
    needs_profile = any(spec.component == "profile_w" for spec in specs)

    series = {spec.name: [] for spec in specs}
    times = []

    def sample(st):
        profile_w = ev.wave_profile(st) if needs_profile else None
        times.append(st.t)
        for spec in specs:
            series[spec.name].append(norms.evaluate_norm(spec, st, profile_w))

    sample(state)
    status = "completed"
    next_sample = state.t + sample_dt
    try:
        while state.t < t_max - 1e-9:
            state = stepper.step(state, guard)
            if state.t >= next_sample - 1e-9:
                sample(state)
                next_sample += sample_dt
    except StepRejected as exc:
        say(f"blow-up guard: {exc}")
        status = "blowup"

    t_arr = np.asarray(times)
    series_arr = {name: (t_arr, np.asarray(vals))
                  for name, vals in series.items()}

    window = config.fit_window()
    fits = {}
    for name, (t, v) in series_arr.items():
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
            m0_report = norms.m0_functional(model.kind, series_arr,
                                            e_n).as_dict()
        except (PdhypError, ValueError) as exc:
            m0_report = {"error": str(exc)}

    out = config["output"]
    os.makedirs(out["dir"], exist_ok=True)
    csv_path = os.path.join(out["dir"], f"{out['prefix']}_series.csv")
    report_path = os.path.join(out["dir"], f"{out['prefix']}_report.json")
    norms.write_series_csv(csv_path, series_arr)
    report = {
        "config": config.to_dict(),
        "status": status,
        "e_n": e_n,
        "t_final": float(state.t),
        "fitted_exponents": fits,
        "m0": m0_report,
        "warnings": warnings,
    }
    norms.write_json_report(report_path, report)
    say(f"{status}: wrote {csv_path} and {report_path}")
    return RunResult(status, report, csv_path, report_path, series_arr)
