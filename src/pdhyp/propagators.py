"""Scalar Fourier multipliers and semigroups: |xi|^s powers, Riesz
transforms, heat semigroup, half-wave propagator, plus the empirical
dispersive and fractional-integration estimates built from them."""

from dataclasses import dataclass

import numpy as np

from .errors import ExponentMismatch


@dataclass(frozen=True)
class MultiplierSpec:
    """kind: lambda_power(s) | riesz(j) | heat(t) | half_wave(sign, t).

    zero_mode_rule decides the xi = 0 value; negative powers and Riesz
    transforms force "zero" (the standard convention for symbols that are
    undefined at the origin).
    """
    kind: str
    param: tuple = ()
    zero_mode_rule: str = "keep"

    def __post_init__(self):
        if self.kind not in ("lambda_power", "riesz", "heat", "half_wave"):
            raise ValueError(f"unknown multiplier kind {self.kind!r}")
        if self.kind == "riesz" and self.zero_mode_rule != "zero":
            object.__setattr__(self, "zero_mode_rule", "zero")
        if self.kind == "lambda_power" and self.param[0] < 0 \
                and self.zero_mode_rule != "zero":
            object.__setattr__(self, "zero_mode_rule", "zero")

    @staticmethod
    def lambda_power(s):
        return MultiplierSpec("lambda_power", (float(s),),
                              "zero" if s < 0 else "keep")

    @staticmethod
    def riesz(j):
        return MultiplierSpec("riesz", (int(j),), "zero")

    @staticmethod
    def heat(t):
        return MultiplierSpec("heat", (float(t),))

    @staticmethod
    def half_wave(t, sign=+1):
        """Multiplies by exp(sign * i |xi| t)."""
        return MultiplierSpec("half_wave", (float(t), int(sign)))


def multiplier_array(spec, grid):
    s = grid.xi_norm
    if spec.kind == "lambda_power":
        p = spec.param[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(s > 0, s, 1.0) ** p
        vals = np.where(s > 0, vals, 0.0 if spec.zero_mode_rule == "zero"
                        else 1.0 if p == 0 else 0.0)
        return vals.astype(complex)
    if spec.kind == "riesz":
        j = spec.param[0]
        safe = np.where(s > 0, s, 1.0)
        return np.where(s > 0, -1j * grid.xi[..., j] / safe, 0.0)
    if spec.kind == "heat":
        return np.exp(-s ** 2 * spec.param[0]).astype(complex)
    if spec.kind == "half_wave":
        t, sign = spec.param
        return np.exp(sign * 1j * s * t)
    raise ValueError(spec.kind)


def apply_multiplier(spec, grid, fhat):
    return multiplier_array(spec, grid) * fhat


# ---------------------------------------------------------------------------
# norms used by the estimate harnesses (physical-space quadrature)
# ---------------------------------------------------------------------------

def lp_norm(grid, fhat, p):
    f = np.abs(grid.to_physical(fhat))
    if np.isinf(p):
        return float(np.max(f))
    return float((np.sum(f ** p) * grid.dx ** grid.ndim) ** (1.0 / p))


def sobolev_w_norm(grid, fhat, sigma, p):
    """||f||_{W^{sigma,p}} = ||f||_{L^p} + ||Lam^sigma f||_{L^p}."""
    if sigma == 0:
        return 2.0 * lp_norm(grid, fhat, p)
    lam = apply_multiplier(MultiplierSpec.lambda_power(sigma), grid, fhat)
    return lp_norm(grid, fhat, p) + lp_norm(grid, lam, p)


def homogeneous_w11_seminorm(grid, fhat, order):
    """sum over multi-indices |alpha| = order of ||D^alpha f||_{L^1},
    with spectral derivatives and physical L^1 quadrature."""
    from itertools import combinations_with_replacement
    total = 0.0
    for alpha in combinations_with_replacement(range(grid.ndim), order):
        deriv = fhat
        for ax in alpha:
            deriv = (1j * grid.xi[..., ax]) * deriv
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
    wave = apply_multiplier(MultiplierSpec.half_wave(t, +1), grid, fhat)
    num = lp_norm(grid, wave, np.inf) * t
    lam_f = apply_multiplier(MultiplierSpec.lambda_power(1), grid, fhat)
    den = (homogeneous_w11_seminorm(grid, fhat, 2)
           + homogeneous_w11_seminorm(grid, lam_f, 1))
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
        low = apply_multiplier(MultiplierSpec.lambda_power(-alpha), grid, fhat)
    ratio = lp_norm(grid, low, q) / lp_norm(grid, fhat, p)
    ledger.record("fractional", ratio, alpha=alpha, p=p, q=q, n=grid.n)
    return ratio
