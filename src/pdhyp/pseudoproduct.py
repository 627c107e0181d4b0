"""Bilinear pseudoproduct T_m(f, g) on a spectral grid.

The operator acts on spectral scalar fields as

    h_hat(xi_k) = sum_j m(xi_k, eta_j) f_hat[(k - j) mod n] g_hat[j] * d_eta,

a Riemann sum of the continuum pseudoproduct integral (the grid's transform
convention makes m = 1 reduce exactly to a pointwise product in physical
space).  The symbol alone selects how apply() evaluates it:

  * a symbol built from a term list, each term c p(xi) q(xi - eta) r(eta)
    with p, q and r products over the factor basis {|v|, v_j/|v|}, carries
    the factorization m = sum_k alpha_k(xi) beta_k(xi - eta) gamma_k(eta)
    as separable_terms and takes the separable FFT path.  The plan
    evaluates every factor once on its grid and interns the arrays by
    value, constants and signs folded into the coefficients (FactorTable);
    terms sharing alpha form one group, summed in physical space, so an
    apply costs one inverse transform per distinct beta f or gamma g and
    one forward transform per group.  A diagonal call T(f, f) (the same
    array passed twice) sees only the symmetric part of m: each (beta,
    gamma) pair merges with its swap and pairs whose coefficients cancel
    drop out, so a symbol with a vanishing symmetric part, such as the
    null form null_b, costs no transform.
  * a symbol outside the basis, such as mu0, takes the direct sum, the
    full O(n_out * n^d) mode convolution, which refuses jobs above
    TERM_CAP symbol evaluations.

apply_direct() evaluates the direct sum for any symbol; it is the reference
the separable path is checked against.  With the strict 2/3-rule mask
(|component| <= (n-1)//3) no aliased interaction can land on a kept mode, so
the two paths agree to rounding on dealiased fields.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CostCapExceeded, ExponentMismatch, GridMismatch
from .grid import dealias_limit
from . import propagators

TERM_CAP = int(2e9)
_ZERO = 0


def direct_sum_terms(n, ndim=3, dealias=True):
    """Symbol evaluations of one direct-sum apply on an n^ndim grid: the
    output modes (the 2/3-rule band when dealiased) times the n^ndim
    input modes."""
    out_axis = 2 * dealias_limit(n) + 1 if dealias else n
    return out_axis ** ndim * n ** ndim


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
    """Evaluate each (alpha, beta, gamma) callable once on the wavevectors."""
    xi = grid.wavevectors()
    factors = [None]
    general, diagonal = {}, {}
    for alpha, beta, gamma in terms:
        (a, ca), (b, cb), (g, cg) = (_intern(factors, np.asarray(f(xi)))
                                     for f in (alpha, beta, gamma))
        c = ca * cb * cg
        general[a, b, g] = general.get((a, b, g), 0.0) + c
        key = (a, min(b, g), max(b, g))
        diagonal[key] = diagonal.get(key, 0.0) + c
    return FactorTable(tuple(factors), _grouped(general), _grouped(diagonal))


@dataclass
class PseudoproductPlan:
    grid: object
    symbol: object
    dealias: bool = True

    def __post_init__(self):    # the table is set-up, not the first apply's
        terms = self.symbol.separable_terms
        self._table = _build_factor_table(self.grid, terms) if terms else None

    def factor_table(self):
        """The symbol's FactorTable on the plan grid, or None."""
        return self._table

    def vanishes_on_diagonal(self):
        """True when the separable factorization makes T_m(f, f) identically
        zero: the symmetric part of the symbol vanishes."""
        return (bool(self.symbol.separable_terms)
                and not self.factor_table().diagonal)


def apply(plan, fhat, ghat):
    """T_m(f, g) in spectral form; inputs and output on plan.grid.  Passing
    the same array as f and g makes it the diagonal form T_m(f, f).  The
    separable path runs when the symbol has a factorization, the direct
    sum otherwise."""
    path = _apply_separable if plan.symbol.separable_terms else _apply_direct
    return _evaluate(plan, fhat, ghat, path)


def apply_direct(plan, fhat, ghat):
    """T_m(f, g) by the direct mode sum whatever the symbol: the reference
    for apply()."""
    return _evaluate(plan, fhat, ghat, _apply_direct)


def _evaluate(plan, fhat, ghat, path):
    """Prepare the inputs, run `path` on them (for a dealiasing plan both
    paths write the band only), then apply the xi = 0 rule of singular
    symbols to the output."""
    grid = plan.grid
    if fhat.shape != grid.shape or ghat.shape != grid.shape:
        raise GridMismatch("field shapes do not match the plan grid")
    fh = _prepared(plan, fhat)
    gh = fh if ghat is fhat else _prepared(plan, ghat)
    out = path(plan, fh, gh)
    if plan.symbol.singular:
        out[(_ZERO,) * grid.ndim] = 0.0
    return out


def _prepared(plan, fhat):
    """A dealiased complex copy of fhat."""
    grid = plan.grid
    fh = grid.dealias(fhat) if plan.dealias else fhat.astype(complex)
    if plan.symbol.singular:
        # the singular lattice points {xi=0}u{eta=0}u{xi-eta=0} contribute 0
        fh[(_ZERO,) * grid.ndim] = 0.0
    return fh


def _apply_separable(plan, fh, gh):
    grid = plan.grid
    table = plan.factor_table()
    factors = table.factors
    diagonal = fh is gh
    f_phys = {}     # factor index -> physical transform of factor * f
    g_phys = f_phys if diagonal else {}

    def physical(cache, h, i):
        if i not in cache:
            cache[i] = grid.to_physical(h if factors[i] is None
                                        else factors[i] * h,
                                        dealias=plan.dealias)
        return cache[i]

    out = np.zeros(grid.shape, dtype=complex)
    for a, pairs in table.diagonal if diagonal else table.groups:
        total = None
        for c, b, g in pairs:
            term = physical(f_phys, fh, b) * physical(g_phys, gh, g)
            if c != 1.0:
                term *= c
            if total is None:
                total = term
            else:
                total += term
        spec = grid.to_spectral(total, dealias=plan.dealias)
        if factors[a] is not None:
            spec *= factors[a]
        out += spec
    return out


def _apply_direct(plan, fh, gh):
    grid = plan.grid
    n, d = grid.n, grid.ndim
    n_terms = direct_sum_terms(n, d, plan.dealias)
    if n_terms > TERM_CAP:
        raise CostCapExceeded(
            f"direct sum needs {n_terms:.3g} term evaluations "
            f"(cap {TERM_CAP:.3g}); use a separable symbol or a smaller grid")
    out_idx = np.argwhere(grid.dealias_mask if plan.dealias
                          else np.ones(grid.shape, dtype=bool))
    eta_flat = grid.wavevectors().reshape(-1, d)
    gh_flat = gh.reshape(-1)

    # doubled copy of f_hat(-xi): contiguous slices give f_hat[(k-j) mod n]
    f2 = grid.reflect(fh)
    for ax in range(d):
        f2 = np.concatenate([f2, f2], axis=ax)

    out = np.zeros(grid.shape, dtype=complex)
    for k in out_idx:
        xi_k = grid.dk * np.array([grid.k_int[i] for i in k], dtype=float)
        sl = tuple(slice(n - i, 2 * n - i) for i in k)
        mvals = plan.symbol(xi_k, eta_flat)
        out[tuple(k)] = np.sum(mvals * f2[sl].reshape(-1) * gh_flat)
    return out * grid.d_eta


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
    t = apply(plan, fhat, ghat)
    if k != 0:
        t = propagators.lambda_power(grid, k) * t
    num = propagators.lp_norm(grid, t, r)
    den = (propagators.sobolev_w_norm(grid, fhat, s + k, p)
           * propagators.lp_norm(grid, ghat, q)
           + propagators.lp_norm(grid, fhat, p)
           * propagators.sobolev_w_norm(grid, ghat, s + k, q))
    ratio = num / den
    ledger.record("holder", ratio, symbol=plan.symbol.name, s=s, k=k, p=p,
                  q=q, r=r, n=grid.n)
    return ratio
