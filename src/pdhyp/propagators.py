"""Scalar Fourier multipliers: |xi|^s powers, Riesz transforms and the
half-wave propagator, as arrays on the grid, plus the empirical dispersive
and fractional-integration estimates built from them.  |xi|^1 is
grid.xi_norm itself."""

import numpy as np

from .errors import ExponentMismatch


def lambda_power(grid, s):
    """|xi|^s; at xi = 0 it is 1 for s = 0 and 0 otherwise (the standard
    convention for symbols that are undefined or vanish at the origin)."""
    r = grid.xi_norm
    vals = np.where(r > 0, r, 1.0) ** float(s)
    return np.where(r > 0, vals, 1.0 if s == 0 else 0.0)


def riesz(grid, j):
    """R_j = -i xi_j/|xi|, 0 at xi = 0.  Multiplying by the reciprocal of
    |xi| rounds as numpy's complex division by |xi| does."""
    return -1j * (grid.xi_axes[j] * grid.xi_norm_reciprocal)


def half_wave(grid, t):
    """e^{i|xi| t}, once per |xi| shell; t < 0 is the backward flow."""
    norms, shell = grid.shells
    return np.exp(1j * norms * t)[shell].reshape(grid.shape)


# ---------------------------------------------------------------------------
# norms used by the estimate harnesses (physical-space quadrature)
# ---------------------------------------------------------------------------

def lp_norm(grid, fhat, p):
    return lp_physical(grid, grid.to_physical(fhat), p)


def lp_physical(grid, f, p):
    """The L^p quadrature of a physical-space field f."""
    f = np.abs(f)
    if np.isinf(p):
        return float(np.max(f))
    return float((np.sum(f ** p) * grid.dx ** grid.ndim) ** (1.0 / p))


def sobolev_w_norm(grid, fhat, sigma, p):
    """||f||_{W^{sigma,p}} = ||f||_{L^p} + ||Lam^sigma f||_{L^p}."""
    if sigma == 0:
        return 2.0 * lp_norm(grid, fhat, p)
    lam = lambda_power(grid, sigma) * fhat
    return lp_norm(grid, fhat, p) + lp_norm(grid, lam, p)


def homogeneous_w11_seminorm(grid, fhat, order):
    """sum over multi-indices |alpha| = order of ||D^alpha f||_{L^1},
    with spectral derivatives and physical L^1 quadrature."""
    from itertools import combinations_with_replacement
    total = 0.0
    for alpha in combinations_with_replacement(range(grid.ndim), order):
        deriv = fhat
        for ax in alpha:
            deriv = (1j * grid.xi_axes[ax]) * deriv
        total += lp_norm(grid, deriv, 1)
    return total


# ---------------------------------------------------------------------------
# estimate harnesses
# ---------------------------------------------------------------------------

def dispersive_ratio(grid, t, fhat, *, ledger):
    """t-weighted L^inf constant of the wave propagator:

        |exp(i Lam t) f|_inf * t / (||f||_{W^{2,1}.} + ||Lam f||_{W^{1,1}.})

    stays bounded for smooth localized band-limited f while the box is
    large enough (L >= 4 t) that the unit-speed wave never wraps.
    """
    if t < 1.0:
        raise ValueError("dispersive ratio is defined for t >= 1")
    if not np.any(fhat):
        return 0.0
    num = lp_norm(grid, half_wave(grid, t) * fhat, np.inf) * t
    den = (homogeneous_w11_seminorm(grid, fhat, 2)
           + homogeneous_w11_seminorm(grid, grid.xi_norm * fhat, 1))
    ratio = num / den
    ledger.record("dispersive", ratio, t=t, n=grid.n, length=grid.length)
    return ratio


def fractional_ratio(grid, alpha, p, q, fhat, *, ledger):
    """Empirical constant of ||Lam^{-alpha} f||_{L^q} <= C ||f||_{L^p}
    at the scaling-critical relation alpha = d/p - d/q."""
    d = grid.ndim
    if not (1 < p < np.inf and 1 < q < np.inf):
        raise ExponentMismatch("need 1 < p, q < infinity")
    if abs(alpha - (d / p - d / q)) > 1e-12:
        raise ExponentMismatch(
            f"alpha={alpha} != {d}/p - {d}/q = {d / p - d / q:.6g}")
    if alpha < 0 or (alpha > 0 and alpha >= d / p):
        raise ExponentMismatch(f"need 0 <= alpha < {d}/p")
    if not np.any(fhat):
        return 0.0
    if alpha == 0:
        low = fhat
    else:
        low = lambda_power(grid, -alpha) * fhat
    ratio = lp_norm(grid, low, q) / lp_norm(grid, fhat, p)
    ledger.record("fractional", ratio, alpha=alpha, p=p, q=q, n=grid.n)
    return ratio
