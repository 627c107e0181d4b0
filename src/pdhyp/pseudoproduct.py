"""Bilinear pseudoproduct T_m(f, g) on a spectral grid.

The operator acts on band fields, stored on the 2/3 band's cube, as

    h_hat(xi_k) = sum_j m(xi_k, eta_j) f_hat[k - j] g_hat[j] * d_eta,

over the band's modes k and j, with f_hat 0 off the band: a Riemann sum of
the continuum pseudoproduct integral (the grid's transform convention makes
m = 1 the band of the pointwise product in physical space).  The symbol
alone selects how apply() evaluates it:

  * a symbol built from a term list, each term c p(xi) q(xi - eta) r(eta)
    with p, q and r products over the factor basis {|v|, v_j/|v|}, carries
    the factorization m = sum_k alpha_k(xi) beta_k(xi - eta) gamma_k(eta)
    as separable_terms and takes the separable FFT path.  The plan
    evaluates each distinct factor of the term list once, from the grid's
    sparse axes and cached |xi|, and interns the arrays by value,
    constants and signs folded into the coefficients (FactorTable);
    terms sharing alpha form one group, summed in physical space slab by
    slab (grid.product_sums) into an n^d total, so an apply costs one band
    inverse of the stacked distinct beta f and gamma g and one forward
    transform per group, and builds no physical field of a factor.  A
    diagonal call T(f, f) (the same array passed twice) sees only the
    symmetric part of m: each (beta, gamma) pair merges with its swap and
    pairs whose coefficients cancel drop out, so a symbol with a vanishing
    symmetric part, such as the null form null_b, costs no transform.
  * a symbol outside the basis, such as mu0, takes the direct sum over
    every pair of modes, which refuses jobs above TERM_CAP symbol
    evaluations.

apply_direct() evaluates the direct sum for any symbol; it is the reference
the separable path is checked against.  A plan takes and returns band
fields on the grid's cube: under the strict 2/3 rule no aliased interaction
lands on a kept mode, so the two paths agree to rounding and the direct sum
runs over the cube alone.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import CostCapExceeded, ExponentMismatch, GridMismatch
from .grid import dealias_limit
from . import propagators, symbols

TERM_CAP = int(2e9)


def direct_sum_terms(n, ndim=3):
    """Symbol evaluations of one direct-sum apply on an n^ndim grid: every
    output mode times every input mode of the 2/3-rule band's cube."""
    return (2 * dealias_limit(n) + 1) ** (2 * ndim)


@dataclass(frozen=True, eq=False)
class FactorTable:
    """The separable factorization of a symbol, evaluated on a grid.

    factors[0] is None, the constant 1; the others are the distinct factor
    arrays up to sign, real where the factor is.  A group is
    (alpha index, ((coefficient, beta index, gamma index), ...)); `groups`
    serves T(f, g) and `diagonal` serves T(f, f), with each unordered
    (beta, gamma) pair once and the zero coefficients dropped.
    """
    factors: tuple
    groups: tuple
    diagonal: tuple


def _intern(factors, values):
    """(index, coefficient) of a factor array in `factors`, appending it
    when no entry equals it up to sign; a constant becomes (0, value)."""
    flat = values.reshape(-1)
    if np.all(flat == flat[0]):
        value = complex(flat[0])
        return 0, value if value.imag else value.real
    if not np.any(values.imag):
        values = values.real.copy()
    for i, known in enumerate(factors[1:], 1):
        if np.array_equal(known, values):
            return i, 1.0
        if np.array_equal(known, -values):
            return i, -1.0
    factors.append(values)
    return len(factors) - 1, 1.0


def _grouped(coefs):
    """{(alpha, beta, gamma): coefficient} -> groups by alpha, in order of
    first appearance, without zero coefficients."""
    groups = {}
    for (a, b, g), c in coefs.items():
        if c != 0.0:
            groups.setdefault(a, []).append((c, b, g))
    return tuple((a, tuple(pairs)) for a, pairs in groups.items())


def _build_factor_table(grid, terms):
    """Evaluate each distinct (atoms, c) factor of the term list once, from
    the grid's sparse axes and its |xi|, and intern it."""
    factors, general, diagonal = [None], {}, {}
    intern = cache(lambda atoms, c: _intern(factors, symbols.factor(
        atoms, c, grid.xi_axes, grid.xi_norm)))
    for c, p, q, r in terms:
        (a, ca), (b, cb), (g, cg) = (intern(p, c), intern(q, 1.0),
                                     intern(r, 1.0))
        c = ca * cb * cg
        general[a, b, g] = general.get((a, b, g), 0.0) + c
        key = (a, min(b, g), max(b, g))
        diagonal[key] = diagonal.get(key, 0.0) + c
    return FactorTable(tuple(factors), _grouped(general), _grouped(diagonal))


@dataclass
class PseudoproductPlan:
    grid: object
    symbol: object

    def __post_init__(self):    # the table is set-up, not the first apply's
        self._table = (_build_factor_table(self.grid, self.symbol.terms)
                       if self.symbol.separable_terms else None)

    def factor_table(self):
        """The symbol's FactorTable on the plan grid, or None."""
        return self._table

    def vanishes_on_diagonal(self):
        """True when the separable factorization makes T_m(f, f) identically
        zero: the symmetric part of the symbol vanishes."""
        return (bool(self.symbol.separable_terms)
                and not self.factor_table().diagonal)


def apply(plan, fhat, ghat):
    """T_m(f, g) in spectral form; inputs and output on the grid's cube.
    Passing the same array as f and g makes it the diagonal form T_m(f, f).
    The separable path runs when the symbol has a factorization, the
    direct sum otherwise."""
    path = _apply_separable if plan.symbol.separable_terms else _apply_direct
    return _evaluate(plan, fhat, ghat, path)


def apply_direct(plan, fhat, ghat):
    """T_m(f, g) by the direct mode sum whatever the symbol: the reference
    for apply()."""
    return _evaluate(plan, fhat, ghat, _apply_direct)


def _evaluate(plan, fhat, ghat, path):
    """Run `path` on the inputs, which it prepares, then apply the xi = 0
    rule of singular symbols to the output."""
    shape = plan.grid.band_shape
    if fhat.shape != shape or ghat.shape != shape:
        raise GridMismatch(f"fields do not have the plan's shape {shape}")
    out = path(plan, fhat, ghat)
    if plan.symbol.singular:
        out[(0,) * plan.grid.ndim] = 0.0
    return out


def _prepared(plan, fhat, out=None):
    """A complex copy of fhat, in `out` when given."""
    fh = np.empty(fhat.shape, dtype=complex) if out is None else out
    fh[...] = fhat
    if plan.symbol.singular:
        # the singular lattice points {xi=0}u{eta=0}u{xi-eta=0} contribute 0
        fh[(0,) * plan.grid.ndim] = 0.0
    return fh


def _apply_separable(plan, fhat, ghat):
    grid = plan.grid
    table = plan.factor_table()
    factors = table.factors
    diagonal = fhat is ghat
    groups = table.diagonal if diagonal else table.groups
    index = {}      # (side, factor index) -> position among the fields
    rows = [[(None if c == 1.0 else c, index.setdefault((0, b), len(index)),
              index.setdefault((0 if diagonal else 1, g), len(index)))
             for c, b, g in pairs] for _, pairs in groups]
    stack = np.empty((len(index),) + grid.band_shape, dtype=complex)
    for (side, i), field in zip(index, stack):  # factor 0 is the constant 1
        _prepared(plan, (fhat, ghat)[side], out=field)
        if i:
            np.multiply(factors[i], field, out=field)
    out = np.zeros(grid.band_shape, dtype=complex)
    spec = np.empty_like(out)
    for (a, _), total in zip(groups, grid.product_sums(stack, rows)):
        grid.to_spectral(total, out=spec)
        if factors[a] is not None:
            spec *= factors[a]
        out += spec
    return out


def _apply_direct(plan, fhat, ghat):
    grid = plan.grid
    d = grid.ndim
    n_terms = direct_sum_terms(grid.n, d)
    if n_terms > TERM_CAP:
        raise CostCapExceeded(
            f"direct sum needs {n_terms:.3g} term evaluations "
            f"(cap {TERM_CAP:.3g}); use a separable symbol or a smaller grid")
    # centered order: the mode of index i is i - size // 2 on every axis
    fc, gc = (np.fft.fftshift(_prepared(plan, x)) for x in (fhat, ghat))
    size = fc.shape[0]
    eta = grid.dk * (np.indices(fc.shape).reshape(d, -1).T - size // 2)
    # f_hat(xi - eta) over every eta is one slice of f_hat reversed and
    # zero-padded by size - 1
    rev = np.pad(fc, size - 1)[(slice(None, None, -1),) * d]
    top = 2 * size - 2 - size // 2
    out = np.zeros(fc.shape, dtype=complex)
    for k, xi in zip(np.ndindex(fc.shape), eta):
        sl = tuple(slice(top - i, top - i + size) for i in k)
        mvals = plan.symbol(xi, eta)
        out[k] = np.sum(mvals * rev[sl].reshape(-1) * gc.reshape(-1))
    return np.fft.ifftshift(out) * grid.d_eta


def holder_bound_ratio(plan, fhat, ghat, s, k, p, q, r, *, ledger):
    """Empirical constant of the bilinear Hoelder-type estimate

        ||Lam^k T_m(f, g)||_{L^r}
        -----------------------------------------------------------
        ||f||_{W^{s+k,p}} ||g||_{L^q} + ||f||_{L^p} ||g||_{W^{s+k,q}}

    with 1/r = 1/p + 1/q and s the symbol degree; the ratio is recorded
    into `ledger`.  Zero fields return 0 by convention.
    """
    if abs(1.0 / r - 1.0 / p - 1.0 / q) > 1e-12:
        raise ExponentMismatch(f"1/r != 1/p + 1/q for p={p}, q={q}, r={r}")
    if abs(plan.symbol.degree - s) > 1e-12:
        raise ExponentMismatch(
            f"symbol degree {plan.symbol.degree} != declared s={s}")
    grid = plan.grid
    if not np.any(fhat) or not np.any(ghat):
        return 0.0

    def lp(h, p, sigma=0):      # ||Lam^sigma h||_{L^p} of a band field
        if sigma:
            h = propagators.lambda_power(grid.xi_norm, sigma) * h
        return propagators.lp_norm(grid, h, p)

    num = lp(apply(plan, fhat, ghat), r, k)
    den = ((lp(fhat, p) + lp(fhat, p, s + k)) * lp(ghat, q)
           + lp(fhat, p) * (lp(ghat, q) + lp(ghat, q, s + k)))
    ratio = num / den
    ledger.record("holder", ratio, symbol=plan.symbol.name, s=s, k=k, p=p,
                  q=q, r=r, n=grid.n)
    return ratio
