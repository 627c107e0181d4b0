"""Norms of the decay bootstrap: Sobolev, L^inf, weighted profile norms,
the running-supremum functional M0, and power-law fitting.

Spectral Sobolev norms use the documented Parseval normalization

    ||f||_{L^2}^2 = (2 pi)^d * sum_k |f_hat_k|^2 * (2 pi / L)^d,

which makes sobolev(0) agree with the physical-space L^2 quadrature to
rounding.  Coordinate weights are applied in physical space, centered at
the box center.  The grid caches the H^N weight and the Riesz 1/|xi|.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import MissingSeries, NonPositiveValues
from .grid import SOBOLEV_N
from .propagators import lp_norm, lp_physical, riesz

EPSILON = 0.01         # the "arbitrarily small" weight offsets, fixed
GAMMA = 0.05
DELTA = 0.05
M0_BOUND_C = 5.0       # verdict threshold for M0(t) <= C * E_N


# ---------------------------------------------------------------------------
# scalar-field norms
# ---------------------------------------------------------------------------

def _sobolev_weight(grid, order):
    """(1 + |xi|^2)^order, the grid's table for order N; None for order 0."""
    if order == SOBOLEV_N:
        return grid.sobolev_weight
    return (1.0 + grid.xi_norm ** 2) ** order if order else None


def _weighted_l2(grid, fhat, weight):
    """(Parseval sum of weight * |fhat|^2)^(1/2); weight None is 1."""
    sq = np.abs(fhat) ** 2
    if weight is not None:
        sq *= weight
    val = (2.0 * np.pi) ** grid.ndim * np.sum(sq) * grid.d_eta
    return float(np.sqrt(val))


def sobolev_norm(grid, fhat, order):
    return _weighted_l2(grid, fhat, _sobolev_weight(grid, order))


def l2_norm(grid, fhat):
    return sobolev_norm(grid, fhat, 0)


def riesz_linf_norm(grid, fhat):
    """max_j |R_j f|_inf (the paper's R carries no index; the max dominates
    every component choice), with R_j = propagators.riesz(grid, j)."""
    return max(lp_norm(grid, riesz(grid, j) * fhat, np.inf)
               for j in range(grid.ndim))


def total_sobolev(grid, data, order):
    return float(np.sqrt(sum(sobolev_norm(grid, comp, order) ** 2
                             for comp in data)))


# -- coordinate-weighted norms (physical-space weights) ---------------------

def weighted_x_l2(grid, fhat):
    """||x f||_{L^2} = (integral |x - c|^2 |f|^2 dx)^(1/2)."""
    f = grid.to_physical(fhat)
    val = np.sum(grid.r2_centered * np.abs(f) ** 2) * grid.dx ** grid.ndim
    return float(np.sqrt(val))


def weighted_lambda_x_h1(grid, fhat):
    """||Lam x f||_{H^1} with the weight applied first."""
    f = grid.to_physical(fhat)
    total = 0.0
    for ax in grid.x_centered:
        comp = grid.to_spectral(ax * f)
        total += sobolev_norm(grid, grid.xi_norm * comp, 1) ** 2
    return float(np.sqrt(total))


def weighted_x2_lambda_h1(grid, fhat):
    """|| |x|^2 Lam f ||_{H^1}: Lam applied spectrally, then the |x - c|^2
    weight, then the H^1 norm."""
    lam = grid.xi_norm * fhat
    weighted = grid.to_spectral(grid.r2_centered * grid.to_physical(lam))
    return sobolev_norm(grid, weighted, 1)


# ---------------------------------------------------------------------------
# norm specs over states
# ---------------------------------------------------------------------------

# kind -> norm of one spectral field on the grid
NORM_KINDS = {
    "sobolev": lambda grid, fhat: sobolev_norm(grid, fhat, SOBOLEV_N),
    "l2": l2_norm,
    "linf": lambda grid, fhat: lp_norm(grid, fhat, np.inf),
    "linf_riesz": riesz_linf_norm,
    "l1": lambda grid, fhat: lp_norm(grid, fhat, 1),
    "weighted_x_l2": weighted_x_l2,
    "weighted_lambda_x_h1": weighted_lambda_x_h1,
    "weighted_x2_lambda_h1": weighted_x2_lambda_h1,
}
# component -> index into the state; profile_w is the wave profile
COMPONENTS = {"u": 0, "v": 1, "w": 2, "profile_w": None}
_WEIGHTED = {"weighted_x_l2", "weighted_lambda_x_h1", "weighted_x2_lambda_h1"}


@dataclass(frozen=True)
class NormSpec:
    """One sampled norm: a kind of NORM_KINDS of a component of
    COMPONENTS; `name` is its series name."""
    kind: str
    component: str

    def __post_init__(self):
        if self.kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.component not in COMPONENTS:
            raise ValueError(f"unknown component {self.component!r}")
        if self.kind in _WEIGHTED and self.component != "profile_w":
            raise ValueError(f"{self.kind} applies only to profile_w")

    @staticmethod
    def parse(text):
        """The spec of a 'kind:component' string."""
        kind, _, component = text.partition(":")
        return NormSpec(kind, component)

    @property
    def name(self):
        return f"{self.component}_{self.kind}"


def evaluate_norm(spec, state, profile_w=None):
    if spec.component == "profile_w":
        if profile_w is None:
            raise ValueError("profile_w norms need the wave profile")
        fhat = profile_w
    else:
        fhat = state.data[COMPONENTS[spec.component]]
    return NORM_KINDS[spec.kind](state.grid, fhat)


def initial_energy(state):
    """E_N = max{ ||U||_{L^1},
                  ||x U||_{H^2} + ||Lam x^2 U||_{H^1} + ||U||_{H^N} },
    components aggregated by summation, where ||x U||_{H^2} sums the x_j U
    in squares and Lam x^2 U = Lam (|x|^2 U); once per distinct component."""
    g = state.grid
    h1, h2, hn = (_sobolev_weight(g, k) for k in (1, 2, SOBOLEV_N))
    parts = []      # per component: the L^1, x H^2, Lam x^2 H^1, H^N terms
    for i, comp in enumerate(state.data):
        terms = next((parts[j] for j in range(i)
                      if np.array_equal(state.data[j], comp)), None)
        if terms is None:
            f = g.to_physical(comp)
            x_h2 = sum(_weighted_l2(g, g.to_spectral(ax * f), h2) ** 2
                       for ax in g.x_centered)
            lam_x2 = g.xi_norm * g.to_spectral(g.r2_centered * f)
            terms = (lp_physical(g, f, 1),
                     float(np.sqrt(x_h2)), _weighted_l2(g, lam_x2, h1),
                     _weighted_l2(g, comp, hn))
        parts.append(terms)
    l1, x_h2, lam_x2, hn = map(sum, zip(*parts))    # the formula's order
    return float(max(l1, x_h2 + lam_x2 + hn))


# ---------------------------------------------------------------------------
# decay series and fitting
# ---------------------------------------------------------------------------

def _log_fit(abscissa, times, values, window):
    """OLS line through (abscissa(t), log(value)) over the samples with t in
    window = (t_lo, t_hi); returns (slope, RMS misfit of log(value))."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    mask = (times >= lo) & (times <= hi)
    if mask.sum() < 8:
        raise ValueError(
            f"need >= 8 samples in window [{lo}, {hi}], have {mask.sum()}")
    v = values[mask]
    if np.any(v <= 0):
        raise NonPositiveValues("series has values <= 0 inside the window")
    x = abscissa(times[mask])
    y = np.log(v)
    A = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(np.mean((A @ sol - y) ** 2)))
    return float(sol[0]), resid


def fit_decay(times, values, window):
    """OLS slope of log(value) against log(t); residual is the RMS misfit."""
    return _log_fit(np.log, times, values, window)


def fit_exponential_rate(times, values, window):
    """OLS slope of log(value) against t; returns (rate, residual) with the
    convention value ~ e^{-rate t}."""
    slope, resid = _log_fit(lambda t: t, times, values, window)
    return -slope, resid


def default_fit_window(t_max):
    return (0.25 * t_max, 0.9 * t_max)


# ---------------------------------------------------------------------------
# the bootstrap functional M0
# ---------------------------------------------------------------------------

# (series name, weight exponent p in t^p)
_W_TERMS = (("w_sobolev", -EPSILON), ("w_linf", 1.0), ("w_linf_riesz", 1.0),
            ("profile_w_weighted_x_l2", -GAMMA),
            ("profile_w_weighted_lambda_x_h1", 0.0),
            ("profile_w_weighted_x2_lambda_h1", -1.0))

M0_WEIGHTS = {
    "pk_system": (("u_sobolev", 0.75), ("v_sobolev", 0.75 - EPSILON),
                  ("u_linf", 1.5 - 2 * EPSILON), ("v_linf", 0.75 - EPSILON))
                 + _W_TERMS,
    "pk_system_w": (("u_sobolev", 0.75), ("v_sobolev", 1.25),
                    ("u_linf", 1.5), ("v_linf", 2.5)) + _W_TERMS,
    # the 2-component functional uses max{1, t^p} weights
    "k_system": (("u_sobolev", 0.75), ("v_sobolev", 1.25)),
}


@dataclass
class BootstrapReport:
    model_kind: str
    times: np.ndarray
    m0: np.ndarray          # running supremum, nondecreasing
    e_n: float
    fitted_c: float
    bounded: bool

    def as_dict(self):
        return {"model_kind": self.model_kind,
                "times": self.times.tolist(),
                "m0": self.m0.tolist(),
                "e_n": self.e_n,
                "fitted_c": self.fitted_c,
                "bounded": bool(self.bounded)}


def m0_functional(model_kind, series, e_n, c_max=M0_BOUND_C):
    """Running supremum of the model's weighted norm sum.

    series maps series names to (times, values); all constituents must share
    one time grid with t >= 1.  The verdict compares sup M0 against
    c_max * E_N with the fitted constant reported.
    """
    if model_kind not in M0_WEIGHTS:
        raise ValueError(f"unknown model kind {model_kind!r}")
    weights = M0_WEIGHTS[model_kind]
    times = None
    total = None
    for name, p in weights:
        if name not in series:
            raise MissingSeries(f"M0 for {model_kind} needs series {name!r}")
        t, v = series[name]
        t = np.asarray(t, dtype=float)
        v = np.asarray(v, dtype=float)
        if times is None:
            times = t
            total = np.zeros_like(v)
        elif t.shape != times.shape or not np.allclose(t, times):
            raise MissingSeries(f"series {name!r} is on a different time grid")
        w = np.maximum(1.0, times ** p) if model_kind == "k_system" \
            else times ** p
        total = total + w * v
    m0 = np.maximum.accumulate(total)
    fitted_c = float(np.max(m0) / e_n) if e_n > 0 else np.inf
    return BootstrapReport(model_kind=model_kind, times=times, m0=m0,
                           e_n=e_n, fitted_c=fitted_c,
                           bounded=bool(fitted_c <= c_max))


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def write_series_csv(path, series):
    """CSV with columns t, norm_name, value; deterministic float formatting."""
    names = list(series.keys())
    with open(path, "w") as fh:
        fh.write("t,norm_name,value\n")
        for name in names:
            t, v = series[name]
            for ti, vi in zip(t, v):
                fh.write(f"{float(ti)!r},{name},{float(vi)!r}\n")


def write_json_report(path, report):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
