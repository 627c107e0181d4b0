"""Scalar Fourier multipliers of band fields: |xi|^s powers on the cube's
|xi|, the Riesz transforms, and the empirical fractional-integration
estimate built from them.  The half-wave phase e^{i|xi| t} of the wave
profile is a per-shell row (evolution.wave_profile)."""

import numpy as np

from .errors import ExponentMismatch


def lambda_power(xi_norm, s):
    """|xi|^s on a table of |xi|; at xi = 0 it is 1 for s = 0 and 0
    otherwise (the standard convention for symbols that are undefined or
    vanish at the origin)."""
    vals = np.where(xi_norm > 0, xi_norm, 1.0) ** float(s)
    return np.where(xi_norm > 0, vals, 1.0 if s == 0 else 0.0)


def riesz(grid, j, fhat=None):
    """R_j f = -i (xi_j/|xi|) f_hat of a band field, 0 at xi = 0, or without
    fhat the real cube table xi_j/|xi|; the reciprocal of |xi| rounds as
    numpy's complex division by |xi| does."""
    symbol = grid.xi_axes[j] * grid.xi_norm_reciprocal
    return symbol if fhat is None else -1j * (symbol * fhat)


# ---------------------------------------------------------------------------
# norms used by the estimate harnesses (physical-space quadrature)
# ---------------------------------------------------------------------------

def lp_norm(grid, fhat, p, multiplier=None):
    """The L^p quadrature of a band field, times `multiplier` (a real cube
    table) if given, reduced slab by slab."""
    slabs = (slab for _, slab in grid.physical_slabs(fhat, multiplier))
    if np.isinf(p):
        return float(max(np.max(np.abs(f)) for f in slabs))
    total = sum(np.sum(np.abs(f) ** p) for f in slabs)
    return float((total * grid.dx ** grid.ndim) ** (1.0 / p))


# ---------------------------------------------------------------------------
# estimate harnesses
# ---------------------------------------------------------------------------

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
