import numpy as np
import pytest
import scipy.fft

from pdhyp import spectra
from pdhyp.grid import SOBOLEV_N, SpectralGrid


@pytest.fixture
def grid16():
    return SpectralGrid(16, 2 * np.pi)


def _band_index(grid):
    return (Ellipsis,) + np.ix_(*[grid.band_k % grid.n] * grid.ndim)


def band(grid, fhat):
    """The cube of an n^d field: its band modes, packed."""
    return fhat[_band_index(grid)]


def embed(grid, cube):
    """The n^d field that equals `cube` on the band and 0 off it."""
    full = np.zeros(np.shape(cube)[:-grid.ndim] + grid.shape, dtype=complex)
    full[_band_index(grid)] = cube
    return full


def dense(rows):
    """The matrices (..., k, d, d) of per-entry rows (..., r, k) in the
    order of spectra.BLOCK_ENTRIES, (1,0) a copy of (0,1) and 0 off the
    pattern: a symbol table in the layout of the dense oracles."""
    rows = np.asarray(rows)
    d = rows.shape[-2] - 1
    out = np.zeros(rows.shape[:-2] + rows.shape[-1:] + (d, d), rows.dtype)
    for row, (i, j) in zip(np.moveaxis(rows, -2, 0), spectra.BLOCK_ENTRIES):
        out[..., i, j] = out[..., j, i] = row
    return out


def full_xi_axes(grid):
    """The wavevector axes of the n^d grid, sparse and broadcastable."""
    k = np.rint(np.fft.fftfreq(grid.n) * grid.n)
    return np.meshgrid(*([grid.dk * k] * grid.ndim), indexing="ij",
                       sparse=True)


def full_xi_norm(grid):
    """|xi| on the n^d grid."""
    return np.sqrt(sum(ax ** 2 for ax in full_xi_axes(grid)))


def r2_centered(grid):
    """|x - center|^2 on the n^d grid."""
    return sum(ax ** 2 for ax in grid.x_centered)


def full_spectral(grid, f):
    """The n^d forward transform of an n^d field, scipy's fftn over the
    axes last first, as the band forward runs them, scaled by fwd: the
    reference of to_spectral and of the weighted norms."""
    out = scipy.fft.fftn(f, axes=range(-1, -grid.ndim - 1, -1))
    np.multiply(out.view(np.float64), grid._fwd, out=out.view(np.float64))
    return out


def full_physical(grid, fhat):
    """The n^d inverse transform of an n^d field, scipy's ifftn scaled by
    1/fwd as the band inverse scales: the reference of to_physical."""
    out = scipy.fft.ifftn(fhat, axes=range(-grid.ndim, 0))
    np.multiply(out.view(np.float64), grid._inv_fwd, out=out.view(np.float64))
    return out


def lp_physical(grid, f, p):
    """The L^p quadrature of a physical-space field f: the reference of
    norms.lp_norm."""
    f = np.abs(f)
    if np.isinf(p):
        return float(np.max(f))
    return float((np.sum(f ** p) * grid.dx ** grid.ndim) ** (1.0 / p))


def _sobolev(grid, fhat, order):
    """The H^order norm of an n^d spectrum, by Parseval on the n^d grid."""
    weight = (1.0 + full_xi_norm(grid) ** 2) ** order
    return float(np.sqrt((2.0 * np.pi) ** grid.ndim * grid.d_eta
                         * np.sum(weight * np.abs(fhat) ** 2)))


def reference_energy_terms(grid, cube, order=SOBOLEV_N):
    """The L^1, x H^2, Lam x^2 H^1 and H^N terms of E_N of one band field
    by the n^d formulas: each weight applied to the n^d field, then fftn;
    the reference of norms.energy_terms."""
    f = full_physical(grid, embed(grid, cube))
    x_h2 = sum(_sobolev(grid, full_spectral(grid, ax * f), 2) ** 2
               for ax in grid.x_centered)
    x2 = full_spectral(grid, r2_centered(grid) * f)
    return (lp_physical(grid, f, 1), float(np.sqrt(x_h2)),
            _sobolev(grid, full_xi_norm(grid) * x2, 1),
            _sobolev(grid, embed(grid, cube), order))


def reference_initial_energy(state):
    """E_N of reference_energy_terms, summed in the formula's order."""
    l1, x_h2, lam_x2, hn = map(sum, zip(*(reference_energy_terms(
        state.grid, comp) for comp in state.data)))
    return float(max(l1, x_h2 + lam_x2 + hn))


def reference_profile_norms(grid, cube):
    """||x f||_{L^2}, ||Lam x f||_{H^1} and || |x|^2 Lam f ||_{H^1} of a
    band field by the n^d formulas: the reference of the weighted norms."""
    f = full_physical(grid, embed(grid, cube))
    r = full_xi_norm(grid)
    x_l2 = np.sqrt(np.sum(r2_centered(grid) * np.abs(f) ** 2)
                   * grid.dx ** grid.ndim)
    lam_x = sum(_sobolev(grid, r * full_spectral(grid, ax * f), 1) ** 2
                for ax in grid.x_centered)
    lam = full_physical(grid, embed(grid, grid.xi_norm * cube))
    x2_lam = _sobolev(grid, full_spectral(grid, r2_centered(grid) * lam), 1)
    return float(x_l2), float(np.sqrt(lam_x)), x2_lam


def conjugate_symmetry_defect(grid, fhat):
    """max |fhat(xi) - conj(fhat(-xi))| of a field, or of a stack of fields
    (the max over the components)."""
    return float(np.max(np.abs(fhat - np.conj(grid.reflect(fhat)))))


def record_transforms(monkeypatch, slabs=False):
    """A list that collects the name of each grid transform from now on:
    to_spectral, to_physical, product_spectra and line_slabs, and with
    slabs=True each physical_slabs call, the band inverse, too."""
    calls = []
    names = ("to_physical", "to_spectral", "product_spectra",
             "line_slabs") + (("physical_slabs",) if slabs else ())
    for name in names:
        orig = getattr(SpectralGrid, name)
        monkeypatch.setattr(SpectralGrid, name,
                            lambda self, *args, _o=orig, _n=name, **kw:
                            calls.append(_n) or _o(self, *args, **kw))
    return calls


def record_band_inverses(monkeypatch):
    """A list that collects the input of each band inverse from now on:
    the cube or stack of a physical_slabs call, and the stack of a
    product_spectra call."""
    stacks = []
    for name in ("physical_slabs", "product_spectra"):
        orig = getattr(SpectralGrid, name)
        monkeypatch.setattr(SpectralGrid, name,
                            lambda self, fhat, *args, _o=orig:
                            stacks.append(fhat) or _o(self, fhat, *args))
    return stacks
