import numpy as np
import pytest
import scipy.fft

from pdhyp.grid import SpectralGrid


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


def full_physical(grid, fhat):
    """The n^d inverse transform of an n^d field, scipy's ifftn scaled by
    1/fwd as the band inverse scales: the reference of to_physical."""
    out = scipy.fft.ifftn(fhat, axes=range(-grid.ndim, 0))
    np.multiply(out.view(np.float64), grid._inv_fwd, out=out.view(np.float64))
    return out


def conjugate_symmetry_defect(grid, fhat):
    """max |fhat(xi) - conj(fhat(-xi))| of a field, or of a stack of fields
    (the max over the components)."""
    return float(np.max(np.abs(fhat - np.conj(grid.reflect(fhat)))))


def record_transforms(monkeypatch, slabs=False):
    """A list that collects the name of each grid transform from now on:
    to_spectral, to_physical and full_spectral, and with slabs=True each
    physical_slabs call, the band inverse, too."""
    calls = []
    names = ("to_physical", "to_spectral", "full_spectral") + (
        ("physical_slabs",) if slabs else ())
    for name in names:
        orig = getattr(SpectralGrid, name)
        monkeypatch.setattr(SpectralGrid, name,
                            lambda self, f, _o=orig, _n=name, **kw:
                            calls.append(_n) or _o(self, f, **kw))
    return calls
