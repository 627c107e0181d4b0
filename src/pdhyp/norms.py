"""Norms of the decay bootstrap: Sobolev, L^inf, weighted profile norms,
the running-supremum functional M0, and power-law fitting.

Spectral Sobolev norms use the documented Parseval normalization

    ||f||_{L^2}^2 = (2 pi)^d * sum_k |f_hat_k|^2 * (2 pi / L)^d,

which makes sobolev(0) agree with the physical-space L^2 quadrature to
rounding.  Every sampled field is a band field on the grid's cube, so
Sobolev norms weight and sum the cube.  A coordinate weight x_j^p (centered
at the box center) acts along axis j alone: F(x_j^p f) is the line forward
transform of x_j^p times the line inverse along j, on the line grid of
axis j; one _moments call shares each line inverse among its weights and
powers, and evaluate_norms groups a sample's weighted norms into such
calls.  No norm holds an n^d field: lp_norms reduces grid.physical_slabs
for every p at once, and riesz gives R_j the real table xi_j/|xi| on the
planes asked for, from 1/|xi| per shell.  The grid caches the cube tables
that every sample reads (|xi| and the H^N weight); a table that one call
reads lives in that call.
The estimate harnesses return the empirical constants of the
fractional-integration and bilinear Hoelder estimates.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import pseudoproduct
from .errors import ExponentMismatch, MissingSeries, NonPositiveValues
from .grid import SOBOLEV_N

EPSILON = 0.01         # the "arbitrarily small" weight offsets, fixed
GAMMA = 0.05
M0_BOUND_C = 5.0       # verdict threshold for M0(t) <= C * E_N


# ---------------------------------------------------------------------------
# scalar-field norms
# ---------------------------------------------------------------------------

def lp_norms(grid, fhat, ps, multiplier=None):
    """The L^p quadrature of a band field for each p of `ps`, times
    `multiplier` (physical_slabs' form) if given, from one band inverse
    reduced slab by slab: one |f| per slab feeds every sum and max."""
    slabs = [[np.max(f) if np.isinf(p) else np.sum(f if p == 1 else f ** p)
              for f in [np.abs(slab)] for p in ps]
             for _, slab in grid.physical_slabs(fhat, multiplier)]
    return [float(max(v)) if np.isinf(p) else float(
        (sum(v) * grid.dx ** grid.ndim) ** (1.0 / p))
        for p, v in zip(ps, zip(*slabs))]


def lp_norm(grid, fhat, p, multiplier=None):
    """The L^p quadrature of a band field: lp_norms for p alone."""
    return lp_norms(grid, fhat, [p], multiplier)[0]


def riesz(grid, j, fhat=None, *, rows=slice(None)):
    """R_j f = -i (xi_j/|xi|) f_hat of a band field, 0 at xi = 0, or without
    fhat the real table xi_j/|xi| on the planes `rows` of axis -d (all by
    default); 1/|xi| is taken per shell of grid.shells, whose values are
    the floats of grid.xi_norm, and rounds as numpy's complex division by
    |xi| does."""
    shells, index = grid.shells
    symbol = (1.0 / np.where(shells > 0, shells, 1.0))[index[rows]]
    symbol *= np.broadcast_to(grid.xi_axes[j], grid.band_shape)[rows]
    return symbol if fhat is None else -1j * (symbol * fhat)


def _sobolev_weight(xi2, order, lam=False):
    """(1 + |xi|^2)^order, times |xi|^2 for lam, on a table xi2 of |xi|^2."""
    return ((1.0 + xi2) ** order if order else 1.0) * (xi2 if lam else 1.0)


def _square_sum(grid, fhat, weight):
    """Parseval sum of weight * |fhat|^2, on a cube or a line grid."""
    sq = np.abs(fhat)
    sq *= sq
    sq *= weight
    return (2.0 * np.pi) ** grid.ndim * np.sum(sq) * grid.d_eta


def sobolev_norm(grid, fhat, order):
    """The H^order norm of a band field; order N takes the grid's table."""
    return float(np.sqrt(_square_sum(
        grid, fhat, grid.sobolev_weight if order == SOBOLEV_N
        else _sobolev_weight(grid.xi_norm ** 2, order))))


def l2_norm(grid, fhat):
    return sobolev_norm(grid, fhat, 0)


def band_linf(grid, fhat):
    """max |f| of a band field, slab by slab."""
    return lp_norm(grid, fhat, np.inf)


def riesz_linf_norm(grid, fhat):
    """max_j |R_j f|_inf (the paper's R carries no index; the max dominates
    every component choice), with R_j f = riesz(grid, j, f): the band
    inverse of f times the real xi_j/|xi|, as |-i z| = |z|, each packed run
    of axis -d's table from the per-shell 1/|xi| as physical_slabs asks
    for it, so no cube table exists."""
    return max(lp_norm(grid, fhat, np.inf,
                       lambda rows, j=j: riesz(grid, j, rows=rows))
               for j in range(grid.ndim))


def total_sobolev(grid, data, order):
    return float(np.sqrt(sum(sobolev_norm(grid, comp, order) ** 2
                             for comp in data)))


# -- coordinate-weighted norms (physical-space weights) ---------------------

def _moments(grid, fhat, multiplier, weights):
    """Per (power, order, lam) of `weights`: (Parseval sum of
    _sobolev_weight(order, lam) * sum_j |F(x_j f)|^2)^(1/2) for power 1, of
    that weight * |F(|x - c|^2 f)|^2 = |sum_j F(x_j^2 f)|^2 for power 2,
    with f = multiplier * fhat and F(x_j^p f) on the line grid of axis j,
    block by block of grid.line_slabs: its band rows add up on the cube,
    its other rows alone, into an array per weight summed per axis."""
    k, n = grid.dealias_limit, grid.n
    powers = sorted({p for p, *_ in weights})
    arms = {1: slice(None), 2: slice(k + 1, n - k)}
    line_k = grid.dk * np.rint(np.fft.fftfreq(n) * n)
    lead_sq = sum(ax ** 2 for ax in grid.xi_axes[:-1])   # |xi|^2 but axis j
    cube = np.zeros(grid.band_shape, dtype=complex) if 2 in powers else None
    sums = [np.empty(grid.band_shape[:-1] + line_k[arms[p]].shape)
            for p, *_ in weights]
    totals = [0.0] * len(weights)
    for j, blocks in grid.line_slabs(
            fhat, multiplier, [grid.x_centered[-1] ** p for p in powers]):
        for at, spectra in blocks:
            spec = dict(zip(powers, spectra))
            if cube is not None:
                np.moveaxis(cube, j, -1)[at] += spec[2][..., grid.band_k % n]
            for (p, *w), sq in zip(weights, sums):     # as _square_sum
                sq = np.abs(spec[p][..., arms[p]], out=sq[at])
                sq *= sq
                sq *= _sobolev_weight(lead_sq[at] + line_k[arms[p]] ** 2, *w)
        totals = [total + (2.0 * np.pi) ** grid.ndim * np.sum(sq) * grid.d_eta
                  for total, sq in zip(totals, sums)]
    del sums, sq, spectra, spec     # before the cube's tables
    return [float(np.sqrt(total + _square_sum(grid, cube, _sobolev_weight(
        grid.xi_norm ** 2, *w)) if p == 2 else total))
        for total, (p, *w) in zip(totals, weights)]


# weighted kind -> (multiplier |xi|, else 1; (power, order, lam)) as above:
#   weighted_x_l2           ||x f||_{L^2} = (integral |x - c|^2 |f|^2 dx)^(1/2)
#   weighted_lambda_x_h1    ||Lam x f||_{H^1} with the weight applied first
#   weighted_x2_lambda_h1   || |x|^2 Lam f ||_{H^1}: Lam applied spectrally,
#                           then the |x - c|^2 weight, then the H^1 norm
_MOMENTS = {"weighted_x_l2": (False, (1, 0, False)),
            "weighted_lambda_x_h1": (False, (1, 1, True)),
            "weighted_x2_lambda_h1": (True, (2, 1, False))}


# ---------------------------------------------------------------------------
# norm specs over states
# ---------------------------------------------------------------------------

# kind -> norm of one spectral field on the grid; the weighted kinds of
# _MOMENTS map to None, as evaluate_norms computes them
NORM_KINDS = {
    "sobolev": lambda grid, fhat: sobolev_norm(grid, fhat, SOBOLEV_N),
    "l2": l2_norm,
    "linf": band_linf,
    "linf_riesz": riesz_linf_norm,
    "l1": lambda grid, fhat: lp_norm(grid, fhat, 1),
    **dict.fromkeys(_MOMENTS),
}
# component -> index into the state; profile_w is the wave profile
COMPONENTS = {"u": 0, "v": 1, "w": 2, "profile_w": None}


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
        if self.kind in _MOMENTS and self.component != "profile_w":
            raise ValueError(f"{self.kind} applies only to profile_w")

    @staticmethod
    def parse(text):
        """The spec of a 'kind:component' string."""
        kind, _, component = text.partition(":")
        return NormSpec(kind, component)

    @property
    def name(self):
        return f"{self.component}_{self.kind}"


def evaluate_norms(specs, state, profile_w=None, known=None):
    """The value of each spec on the state: `known`'s value of its name, the
    profile's weighted norms by one _moments call per multiplier, else
    evaluate_norm's."""
    grid, groups, values = state.grid, {}, dict(known or {})
    for spec in specs:      # multiplier -> {name: (power, order, lam)}
        if spec.kind in _MOMENTS and profile_w is not None:
            first, weight = _MOMENTS[spec.kind]
            groups.setdefault(first, {})[spec.name] = weight
    for first, weights in groups.items():
        values.update(zip(weights, _moments(
            grid, profile_w, grid.xi_norm if first else 1.0,
            list(weights.values()))))
    return [values[spec.name] if spec.name in values
            else evaluate_norm(spec, state, profile_w) for spec in specs]


def evaluate_norm(spec, state, profile_w=None):
    """The value of one spec on the state: evaluate_norms([spec], ...)[0]."""
    i = COMPONENTS[spec.component]
    if i is None and profile_w is None:
        raise ValueError("profile_w norms need the wave profile")
    if spec.kind in _MOMENTS:
        return evaluate_norms([spec], state, profile_w)[0]
    return NORM_KINDS[spec.kind](state.grid,
                                 profile_w if i is None else state.data[i])


def energy_terms(grid, fhat):
    """The L^1, x H^2, Lam x^2 H^1 and H^N terms of E_N of one band field,
    and its L^inf from the band inverse of its L^1."""
    l1, linf = lp_norms(grid, fhat, [1, np.inf])
    return (l1, *_moments(grid, fhat, 1.0, [(1, 2, False), (2, 1, True)]),
            sobolev_norm(grid, fhat, SOBOLEV_N), linf)


def initial_energy(state, known=None):
    """E_N = max{ ||U||_{L^1},
                  ||x U||_{H^2} + ||Lam x^2 U||_{H^1} + ||U||_{H^N} },
    components aggregated by summation, where ||x U||_{H^2} sums the x_j U
    in squares and Lam x^2 U = Lam (|x|^2 U); once per distinct component.
    A dict `known` takes each component's L^inf and H^N by series name."""
    parts = []      # per component: its energy_terms
    for i, comp in enumerate(state.data):
        parts.append(next((parts[j] for j in range(i)
                           if np.array_equal(state.data[j], comp)), None)
                     or energy_terms(state.grid, comp))
    for c, (*_, hn, linf) in zip(COMPONENTS, () if known is None else parts):
        known.update({f"{c}_sobolev": hn, f"{c}_linf": linf})
    l1, x_h2, lam_x2, hn, _ = map(sum, zip(*parts))    # the formula's order
    return float(max(l1, x_h2 + lam_x2 + hn))


# ---------------------------------------------------------------------------
# estimate harnesses
# ---------------------------------------------------------------------------

def lambda_power(xi_norm, s):
    """|xi|^s on a table of |xi|, at xi = 0 1 for s = 0 and 0 otherwise
    (the convention for symbols undefined or vanishing at the origin)."""
    vals = np.where(xi_norm > 0, xi_norm, 1.0) ** float(s)
    return np.where(xi_norm > 0, vals, 1.0 if s == 0 else 0.0)


def fractional_ratio(grid, p, q, fhat):
    """Empirical constant of ||Lam^{-alpha} f||_{L^q} <= C ||f||_{L^p} for a
    band field, at the scaling-critical alpha = d/p - d/q, 1 < p <= q < inf."""
    if not 1 < p <= q < np.inf:
        raise ExponentMismatch(f"need 1 < p <= q < infinity, not p={p}, q={q}")
    if not np.any(fhat):
        return 0.0
    alpha = grid.ndim / p - grid.ndim / q
    low = lambda_power(grid.xi_norm, -alpha) * fhat
    return lp_norm(grid, low, q) / lp_norm(grid, fhat, p)


def holder_bound_ratio(plan, fhat, ghat, p, q):
    """Empirical constant of the bilinear Hoelder-type estimate

        ||T_m(f, g)||_{L^r}
        -----------------------------------------------------
        ||f||_{W^{s,p}} ||g||_{L^q} + ||f||_{L^p} ||g||_{W^{s,q}}

    with s = plan.symbol.degree, 1/r = 1/p + 1/q and p, q in [1, infinity);
    zero fields return 0 by convention."""
    if not (1 <= p < np.inf and 1 <= q < np.inf):
        raise ExponentMismatch(f"need p, q in [1, infinity), not p={p}, q={q}")
    grid, s = plan.grid, plan.symbol.degree
    if not np.any(fhat) or not np.any(ghat):
        return 0.0

    def lp(h, p, sigma=0):      # ||Lam^sigma h||_{L^p} of a band field
        if sigma:
            h = lambda_power(grid.xi_norm, sigma) * h
        return lp_norm(grid, h, p)

    f_p, f_s = lp(fhat, p), lp(fhat, p, s)
    g_q, g_s = lp(ghat, q), lp(ghat, q, s)
    num = lp(pseudoproduct.apply(plan, fhat, ghat), 1.0 / (1.0 / p + 1.0 / q))
    return num / ((f_p + f_s) * g_q + f_p * (g_q + g_s))


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
    fitted_c: float | None      # None when E_N = 0
    bounded: bool

    def as_dict(self):
        return {"model_kind": self.model_kind,
                "times": self.times.tolist(),
                "m0": self.m0.tolist(),
                "e_n": self.e_n,
                "fitted_c": self.fitted_c,
                "bounded": bool(self.bounded)}


def m0_functional(model_kind, series, e_n):
    """Running supremum of the model's weighted norm sum.

    series maps series names to (times, values); all constituents must share
    one time grid with t >= 1.  The verdict compares sup M0 against
    M0_BOUND_C * E_N with the fitted constant reported, null when E_N = 0.
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
    # with E_N = 0 no constant is fitted: M0 <= C * E_N iff M0 vanishes
    fitted_c = float(np.max(m0) / e_n) if e_n > 0 else None
    bounded = fitted_c <= M0_BOUND_C if e_n > 0 else not np.any(m0)
    return BootstrapReport(model_kind=model_kind, times=times, m0=m0,
                           e_n=e_n, fitted_c=fitted_c, bounded=bool(bounded))


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
