import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdhyp.acceptance import band_field
from pdhyp.grid import SpectralGrid


def test_transform_roundtrip():
    g = SpectralGrid(16, 5.0)
    rng = np.random.default_rng(0)
    f = rng.normal(size=g.shape)
    back = g.to_physical(g.to_spectral(f))
    assert np.max(np.abs(back - f)) < 1e-12


def test_convolution_theorem_is_exact():
    # the d_eta-weighted spectral sum of f_hat(k-j) g_hat(j) must equal the
    # transform of the pointwise product without any extra constant
    g = SpectralGrid(8, 3.0)
    rng = np.random.default_rng(1)
    f = rng.normal(size=g.shape)
    h = rng.normal(size=g.shape)
    fh, hh = g.to_spectral(f), g.to_spectral(h)
    prod_hat = g.to_spectral(f * h)
    n = g.n
    direct = np.zeros(g.shape, dtype=complex)
    for k in np.ndindex(g.shape):
        acc = 0.0
        for j in np.ndindex(g.shape):
            kj = tuple((k[a] - j[a]) % n for a in range(3))
            acc += fh[kj] * hh[j]
        direct[k] = acc * g.d_eta
    assert np.max(np.abs(direct - prod_hat)) < 1e-12 * np.max(np.abs(prod_hat))


def test_parseval_factor():
    g = SpectralGrid(16, 7.0)
    rng = np.random.default_rng(2)
    f = rng.normal(size=g.shape)
    fh = g.to_spectral(f)
    phys = np.sum(np.abs(f) ** 2) * g.dx ** 3
    spec = (2 * np.pi) ** 3 * np.sum(np.abs(fh) ** 2) * g.d_eta
    assert abs(phys - spec) < 1e-12 * phys


def test_centered_axes_broadcast_to_the_dense_axes():
    g = SpectralGrid(8, 5.0)
    x1 = np.arange(8) * g.dx
    dense = [ax - g.center for ax in np.meshgrid(x1, x1, x1, indexing="ij")]
    for j, ax in enumerate(g.x_centered):
        assert ax.shape == tuple(8 if i == j else 1 for i in range(3))
        assert np.array_equal(np.broadcast_to(ax, g.shape), dense[j])
    assert np.array_equal(g.r2_centered, sum(ax ** 2 for ax in dense))


@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 16, 24, 32, 48])
def test_shells_equal_the_sorted_full_grid(n, ndim):
    g = SpectralGrid(n, 7.3, ndim)
    norms, shell = g.shells
    expect_norms, expect_shell = np.unique(g.xi_norm.ravel(),
                                           return_inverse=True)
    assert np.array_equal(norms, expect_norms)
    assert np.array_equal(shell, expect_shell)
    assert g.shells is g.shells


def test_multiplier_tables_are_built_once():
    g = SpectralGrid(8, 5.0)
    assert g.sobolev_weight is g.sobolev_weight
    assert np.array_equal(g.sobolev_weight, (1.0 + g.xi_norm ** 2) ** 3)
    inv = g.xi_norm_reciprocal
    assert inv is g.xi_norm_reciprocal and inv[0, 0, 0] == 1.0
    assert np.array_equal(inv.reshape(-1)[1:], 1.0 / g.xi_norm.reshape(-1)[1:])


def test_dealias_mask_strictly_below_third():
    for n in (16, 32, 64):
        g = SpectralGrid(n, 1.0)
        assert 3 * g.dealias_limit < n
        modes = np.stack(np.broadcast_arrays(*g.k_axes), axis=-1)
        kept = np.abs(modes[g.dealias_mask])
        assert kept.max() == g.dealias_limit


def _dense_mesh_tables(n, length, ndim):
    """|xi|, the 2/3 mask, |x - center|^2 and the wavevectors from dense
    (*shape, d) meshes: the reference the broadcast axes must equal."""
    k1 = np.rint(np.fft.fftfreq(n) * n).astype(np.int64)
    modes = np.stack(np.meshgrid(*([k1] * ndim), indexing="ij"), axis=-1)
    xi = (2.0 * np.pi / length) * modes
    x = np.meshgrid(*([np.arange(n) * (length / n)] * ndim), indexing="ij")
    return {"xi_norm": np.linalg.norm(xi, axis=-1),
            "dealias_mask": np.all(np.abs(modes) <= (n - 1) // 3, axis=-1),
            "r2_centered": sum((ax - length / 2.0) ** 2 for ax in x),
            "wavevectors": xi}


@pytest.mark.parametrize("n", [8, 12, 14, 24, 30, 48, 96])
@settings(max_examples=6, deadline=None)
@given(length=st.floats(0.5, 300.0), ndim=st.sampled_from((2, 3)))
def test_axes_tables_equal_the_dense_mesh_formulas(n, length, ndim):
    g = SpectralGrid(n, length, ndim=ndim)
    dense = _dense_mesh_tables(n, length, ndim)
    assert np.array_equal(g.xi_norm, dense["xi_norm"])
    assert np.array_equal(g.dealias_mask, dense["dealias_mask"])
    assert np.array_equal(g.r2_centered, dense["r2_centered"])
    assert np.array_equal(g.wavevectors(), dense["wavevectors"])
    assert g.wavevectors() is not g.wavevectors()    # built anew, not kept


def test_grid_keeps_no_dense_mesh():
    g = SpectralGrid(128, 256.0)
    g.sobolev_weight, g.xi_norm_reciprocal      # fill the cached tables
    arrays = [a for value in vars(g).values()
              for a in (value if isinstance(value, (list, tuple)) else [value])
              if isinstance(a, np.ndarray)]
    assert len(arrays) >= 12 and max(a.size for a in arrays) <= g.size
    assert not any(hasattr(g, name) for name in ("modes", "xi", "x"))


def test_dealiased_products_cannot_wrap():
    # quadratic interactions of kept modes never fold back onto kept modes
    g = SpectralGrid(16, 1.0)
    K = g.dealias_limit
    for a in range(-K, K + 1):
        for b in range(-K, K + 1):
            tot = a + b
            if abs(tot) > g.n // 2:
                wrapped = tot - np.sign(tot) * g.n
                assert abs(wrapped) > K


def test_reflect_and_conjugate_symmetry():
    g = SpectralGrid(8, 2.0)
    rng = np.random.default_rng(3)
    fh = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    sym = g.conjugate_symmetrize(fh)
    assert g.conjugate_symmetry_defect(sym) < 1e-14
    f = g.to_physical(sym)
    assert np.max(np.abs(f.imag)) < 1e-13
    # reflect is an involution
    assert np.array_equal(g.reflect(g.reflect(fh)), fh)


def test_band_field_is_real(grid16):
    rng = np.random.default_rng(4)
    fh = band_field(grid16, 3, rng)
    assert np.max(np.abs(grid16.to_physical(fh).imag)) < 1e-13


def test_2d_grid():
    g = SpectralGrid(16, 4.0, ndim=2)
    assert g.shape == (16, 16)
    rng = np.random.default_rng(5)
    f = rng.normal(size=g.shape)
    assert np.max(np.abs(g.to_physical(g.to_spectral(f)) - f)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 12), length=st.floats(0.5, 20.0),
       ndim=st.sampled_from((2, 3)), seed=st.integers(0, 2 ** 16))
def test_parseval_on_any_grid(n, length, ndim, seed):
    g = SpectralGrid(n, length, ndim=ndim)
    f = np.random.default_rng(seed).normal(size=g.shape)
    phys = np.sum(f ** 2) * g.dx ** ndim
    fh = g.to_spectral(f)
    spec = (2 * np.pi) ** ndim * np.sum(np.abs(fh) ** 2) * g.d_eta
    assert abs(phys - spec) <= 1e-12 * phys


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 10), length=st.floats(0.5, 20.0),
       seed=st.integers(0, 2 ** 16))
def test_convolution_theorem_on_any_grid(n, length, seed):
    g = SpectralGrid(n, length, ndim=2)
    f, h = np.random.default_rng(seed).normal(size=(2,) + g.shape)
    fh, hh = g.to_spectral(f), g.to_spectral(h)
    # np.roll(fh, j)[k] = fh[(k - j) mod n]
    direct = sum(hh[j] * np.roll(fh, j, axis=(0, 1))
                 for j in np.ndindex(g.shape)) * g.d_eta
    prod_hat = g.to_spectral(f * h)
    assert np.max(np.abs(direct - prod_hat)) \
        <= 1e-12 * np.max(np.abs(prod_hat))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 24), seed=st.integers(0, 2 ** 16))
def test_dealiased_products_match_unwrapped_products(n, seed):
    # on the doubled grid (same dk) no product of kept modes wraps, so the
    # 2/3 mask must make the coarse product agree with it on the kept band
    coarse = SpectralGrid(n, 2 * np.pi, ndim=2)
    fine = SpectralGrid(2 * n, 2 * np.pi, ndim=2)
    rng = np.random.default_rng(seed)
    f, h = (coarse.dealias(rng.normal(size=coarse.shape)
                           + 1j * rng.normal(size=coarse.shape))
            for _ in range(2))

    def product(grid, a, b):
        return grid.to_spectral(grid.to_physical(a) * grid.to_physical(b))

    on_fine = np.ix_(coarse.k_int % fine.n, coarse.k_int % fine.n)
    big_f, big_h = np.zeros(fine.shape, complex), np.zeros(fine.shape, complex)
    big_f[on_fine], big_h[on_fine] = f, h
    exact = coarse.dealias(product(fine, big_f, big_h)[on_fine])
    got = coarse.dealias(product(coarse, f, h))
    assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))
