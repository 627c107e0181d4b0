import numpy as np
import pytest

from conftest import (band, full_spectral, full_xi_axes, full_xi_norm,
                      r2_centered)
from pdhyp import evolution as ev
from pdhyp import norms
from pdhyp import propagators as pr
from pdhyp.acceptance import band_field
from pdhyp.errors import ExponentMismatch
from pdhyp.grid import SpectralGrid


@pytest.fixture(scope="module")
def gauss():
    g = SpectralGrid(64, 24.0)
    f = np.exp(-r2_centered(g) / 2.0)   # unit-variance Gaussian at the center
    return g, full_spectral(g, f)


def _half_wave(g, w_hat, t):
    """e^{i|xi| t} w_hat on the cube, as evolution.wave_profile applies it
    to the w of a state."""
    data = np.zeros((3,) + g.band_shape, dtype=complex)
    data[2] = w_hat
    return ev.wave_profile(ev.StateField(g, data, t))


def test_half_wave_unitary_inverse(gauss):
    g, fh = gauss
    fh = band(g, fh)
    fwd = _half_wave(g, fh, 3.7)
    back = _half_wave(g, fwd, -3.7)
    assert np.max(np.abs(back - fh)) <= 1e-13 * np.max(np.abs(fh))
    # unitarity in L^2
    assert abs(norms.l2_norm(g, fwd) - norms.l2_norm(g, fh)) \
        <= 1e-12 * norms.l2_norm(g, fh)


@pytest.mark.parametrize("t", [-3.7, 0.0, 1.0, 31.0])
def test_half_wave_equals_the_full_grid_exponential(t):
    for n in (15, 16, 24):      # odd and even n, w up to the band edge
        g = SpectralGrid(n, 12.0)
        w = band_field(g, g.dealias_limit, np.random.default_rng(n))
        assert np.array_equal(_half_wave(g, w, t),
                              np.exp(1j * g.xi_norm * t) * w)


def test_lambda_power_composition(gauss):
    g, fh = gauss
    one = pr.lambda_power(full_xi_norm(g), 1) * fh
    twice = pr.lambda_power(full_xi_norm(g), 1) * one
    direct = pr.lambda_power(full_xi_norm(g), 2) * fh
    assert np.max(np.abs(twice - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_negative_power_and_riesz_zero_mode():
    g = SpectralGrid(8, 1.0)
    away = g.xi_norm > 0
    for s, at_zero in ((-1, 0.0), (0, 1.0), (1, 0.0)):
        vals = pr.lambda_power(g.xi_norm, s)
        assert vals[0, 0, 0] == at_zero, s
        assert np.allclose(vals[away], g.xi_norm[away] ** s, rtol=1e-15)
    assert np.array_equal(pr.lambda_power(g.xi_norm, 1), g.xi_norm)
    assert np.array_equal(pr.lambda_power(full_xi_norm(g), 1), full_xi_norm(g))
    ones = np.ones(g.band_shape, dtype=complex)
    for j in range(3):
        r = pr.riesz(g, j, ones)
        assert r[0, 0, 0] == 0.0
        xi_j = np.broadcast_to(g.xi_axes[j], g.band_shape)
        assert np.allclose(r[away], -1j * xi_j[away] / g.xi_norm[away],
                           rtol=1e-15)


@pytest.mark.parametrize("n, ndim", [(15, 2), (16, 3), (24, 1)])
def test_riesz_on_a_band_block_is_the_block_of_riesz(n, ndim):
    # Riesz on the cube, the band block an L^inf norm feeds the band
    # inverse, is the band of Riesz on the n^d grid, bit for bit, on a
    # single and on a stacked field, with the multiplies in the order
    # written here
    g = SpectralGrid(n, 9.0, ndim)
    rng = np.random.default_rng(n)
    stacked = rng.normal(size=(2,) + g.shape) + 1j * rng.normal(
        size=(2,) + g.shape)
    inv = 1.0 / np.where(full_xi_norm(g) > 0, full_xi_norm(g), 1.0)
    for f in (stacked[0], stacked):
        for j in range(ndim):
            full = -1j * ((full_xi_axes(g)[j] * inv) * f)
            assert (pr.riesz(g, j, band(g, f)).tobytes()
                    == band(g, full).tobytes())


def test_riesz_isometry_mean_zero(gauss):
    g, fh = gauss
    f0 = band(g, fh)
    f0[0, 0, 0] = 0.0
    total = sum(norms.l2_norm(g, pr.riesz(g, j, f0)) ** 2 for j in range(3))
    assert abs(total - norms.l2_norm(g, f0) ** 2) \
        <= 1e-12 * norms.l2_norm(g, f0) ** 2


def test_fractional_ratio_identity_when_p_equals_q(gauss):
    g, fh = gauss
    assert pr.fractional_ratio(g, 2.0, 2.0, band(g, fh)) == 1.0


def test_fractional_ratio_single_mode():
    g = SpectralGrid(16, 8.0)
    fh = np.zeros(g.band_shape, complex)
    fh[2, 0, 0] = 1.0
    ratio = pr.fractional_ratio(g, 2.0, 6.0, fh)     # alpha = 3/2 - 3/6
    k = 2 * g.dk
    expect = k ** -1 * g.volume ** (1 / 6 - 1 / 2)
    assert abs(ratio - expect) <= 1e-12 * expect


@pytest.mark.parametrize("p, q", [(6.0, 2.0), (1.0, 6.0), (2.0, np.inf)])
def test_fractional_ratio_refuses_exponents_outside_its_domain(gauss, p, q):
    # alpha = 3/p - 3/q would be negative, or p, q outside (1, infinity)
    g, fh = gauss
    with pytest.raises(ExponentMismatch, match=r"1 < p <= q < infinity"):
        pr.fractional_ratio(g, p, q, band(g, fh))


def test_fractional_ratio_stable_under_refinement():
    maxima = []
    for n in (16, 32):
        g = SpectralGrid(n, 2 * np.pi)
        rng = np.random.default_rng(42)
        ratios = [pr.fractional_ratio(g, 2.0, 6.0, band_field(g, 3, rng))
                  for _ in range(20)]
        assert all(0.0 < r < np.inf for r in ratios)
        maxima.append(max(ratios))
    assert abs(maxima[1] - maxima[0]) <= 0.2 * maxima[0]
