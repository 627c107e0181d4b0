"""Scalar Fourier multipliers: |xi|^s powers as arrays on the grid and
the Riesz transforms as applies, plus the empirical fractional-integration
estimate built from them.  |xi|^1 is grid.xi_norm itself; the half-wave phase
e^{i|xi| t} of the wave profile is a per-shell row (evolution.wave_profile)."""

import numpy as np

from .errors import ExponentMismatch


def lambda_power(grid, s):
    """|xi|^s; at xi = 0 it is 1 for s = 0 and 0 otherwise (the standard
    convention for symbols that are undefined or vanish at the origin)."""
    r = grid.xi_norm
    vals = np.where(r > 0, r, 1.0) ** float(s)
    return np.where(r > 0, vals, 1.0 if s == 0 else 0.0)


def riesz(grid, j, fhat, block=None):
    """R_j f = -i (xi_j/|xi|) f_hat, 0 at xi = 0, on the grid or on one
    block of grid.band_blocks (so an L^inf sample builds no n^d table); the
    reciprocal of |xi| rounds as numpy's complex division by |xi| does."""
    block = block or (slice(None),) * grid.ndim
    xi = grid.xi_axes[j][(slice(None),) * j + (block[j],)]
    return -1j * ((xi * grid.xi_norm_reciprocal[block])
                  * fhat[(Ellipsis,) + block])


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
    lam = lambda_power(grid, sigma) * fhat
    return lp_norm(grid, fhat, p) + lp_norm(grid, lam, p)


# ---------------------------------------------------------------------------
# estimate harnesses
# ---------------------------------------------------------------------------

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
    low = lambda_power(grid, -alpha) * fhat
    ratio = lp_norm(grid, low, q) / lp_norm(grid, fhat, p)
    ledger.record("fractional", ratio, alpha=alpha, p=p, q=q, n=grid.n)
    return ratio
