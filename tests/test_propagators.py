import numpy as np
import pytest

from pdhyp import norms
from pdhyp import propagators as pr
from pdhyp.acceptance import band_field
from pdhyp.bounds import BoundLedger
from pdhyp.errors import ExponentMismatch
from pdhyp.grid import SpectralGrid


@pytest.fixture(scope="module")
def gauss():
    g = SpectralGrid(64, 24.0)
    f = np.exp(-g.r2_centered / 2.0)   # unit-variance Gaussian at the center
    return g, g.to_spectral(f)


def test_half_wave_unitary_inverse(gauss):
    g, fh = gauss
    fwd = pr.half_wave(g, 3.7) * fh
    back = pr.half_wave(g, -3.7) * fwd
    assert np.max(np.abs(back - fh)) <= 1e-13 * np.max(np.abs(fh))
    # unitarity in L^2
    assert abs(norms.l2_norm(g, fwd) - norms.l2_norm(g, fh)) \
        <= 1e-12 * norms.l2_norm(g, fh)


@pytest.mark.parametrize("t", [-3.7, 0.0, 1.0, 31.0])
def test_half_wave_equals_the_full_grid_exponential(t):
    g = SpectralGrid(24, 12.0)
    assert np.array_equal(pr.half_wave(g, t), np.exp(1j * g.xi_norm * t))


def test_lambda_power_composition(gauss):
    g, fh = gauss
    one = pr.lambda_power(g, 1) * fh
    twice = pr.lambda_power(g, 1) * one
    direct = pr.lambda_power(g, 2) * fh
    assert np.max(np.abs(twice - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_negative_power_and_riesz_zero_mode():
    g = SpectralGrid(8, 1.0)
    away = g.xi_norm > 0
    for s, at_zero in ((-1, 0.0), (0, 1.0), (1, 0.0)):
        vals = pr.lambda_power(g, s)
        assert vals[0, 0, 0] == at_zero, s
        assert np.allclose(vals[away], g.xi_norm[away] ** s, rtol=1e-15)
    assert np.array_equal(pr.lambda_power(g, 1), g.xi_norm)
    for j in range(3):
        r = pr.riesz(g, j)
        assert r[0, 0, 0] == 0.0
        xi_j = np.broadcast_to(g.xi_axes[j], g.shape)
        assert np.allclose(r[away], -1j * xi_j[away] / g.xi_norm[away],
                           rtol=1e-15)


def test_riesz_isometry_mean_zero(gauss):
    g, fh = gauss
    f0 = fh.copy()
    f0[0, 0, 0] = 0.0
    total = sum(norms.l2_norm(g, pr.riesz(g, j) * f0) ** 2 for j in range(3))
    assert abs(total - norms.l2_norm(g, f0) ** 2) \
        <= 1e-12 * norms.l2_norm(g, f0) ** 2


def test_fractional_ratio_identity_when_p_equals_q(gauss):
    g, fh = gauss
    assert pr.fractional_ratio(g, 0.0, 2.0, 2.0, fh,
                               ledger=BoundLedger()) == 1.0


def test_fractional_ratio_single_mode():
    g = SpectralGrid(16, 8.0)
    fh = np.zeros(g.shape, complex)
    fh[2, 0, 0] = 1.0
    ratio = pr.fractional_ratio(g, 1.0, 2.0, 6.0, fh, ledger=BoundLedger())
    k = g.xi_norm[2, 0, 0]
    expect = k ** -1 * g.volume ** (1 / 6 - 1 / 2)
    assert abs(ratio - expect) <= 1e-12 * expect


def test_fractional_ratio_exponent_mismatch(gauss):
    g, fh = gauss
    ledger = BoundLedger()
    with pytest.raises(ExponentMismatch):   # alpha != 3/p - 3/q
        pr.fractional_ratio(g, 0.5, 2.0, 6.0, fh, ledger=ledger)
    with pytest.raises(ExponentMismatch):
        pr.fractional_ratio(g, 2.0, 1.5, 6.0, fh, ledger=ledger)
    with pytest.raises(ExponentMismatch):
        pr.fractional_ratio(g, 3.0, 1.0001, 100.0, fh, ledger=ledger)
    assert ledger.entries == []


def test_fractional_ratio_stable_under_refinement():
    maxima = []
    for n in (16, 32):
        g = SpectralGrid(n, 2 * np.pi)
        rng = np.random.default_rng(42)
        ledger = BoundLedger()
        for _ in range(20):
            f = band_field(g, 3, rng)
            pr.fractional_ratio(g, 1.0, 2.0, 6.0, f, ledger=ledger)
        maxima.append(ledger.max_ratio("fractional"))
    assert abs(maxima[1] - maxima[0]) <= 0.2 * maxima[0]


def test_dispersive_ratio_zero_field():
    g = SpectralGrid(8, 40.0)
    assert pr.dispersive_ratio(g, 2.0, np.zeros(g.shape, complex),
                               ledger=BoundLedger()) == 0.0


def test_dispersive_ratio_finite_and_recorded():
    g = SpectralGrid(32, 40.0)
    f = np.exp(-g.r2_centered / 2.0)
    fh = g.to_spectral(f)
    ledger = BoundLedger()
    r = pr.dispersive_ratio(g, 1.0, fh, ledger=ledger)
    assert np.isfinite(r) and r > 0
    assert ledger.ratios("dispersive") == [r]


def test_dispersive_ratio_t_doubling_stability():
    # the t-weighted amplitude constant stays within +-30% as t doubles
    # from 8 to 64, certifying the 1/t rate of the wave propagator; data is
    # a wave packet (spectral Gaussian at k0 != 0) whose transverse
    # spreading is already asymptotic at t = 8, on a no-wrap box L = 4*t_max
    g = SpectralGrid(128, 256.0)
    xi = g.wavevectors()
    dk = xi - np.array([0.4, 0.0, 0.0])
    fh = np.exp(-0.5 * 9.0 * np.sum(dk ** 2, axis=-1)) \
        * np.exp(-1j * g.center * np.sum(xi, axis=-1))
    fh = g.dealias(fh)
    ledger = BoundLedger()
    ratios = [pr.dispersive_ratio(g, t, fh, ledger=ledger)
              for t in (8.0, 16.0, 32.0, 64.0)]
    base = ratios[0]
    for r in ratios[1:]:
        assert abs(r - base) <= 0.3 * base
