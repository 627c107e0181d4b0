import numpy as np
import pytest

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


def conjugate_symmetry_defect(grid, fhat):
    """max |fhat(xi) - conj(fhat(-xi))| of a field, or of a stack of fields
    (the max over the components)."""
    return float(np.max(np.abs(fhat - np.conj(grid.reflect(fhat)))))


def record_transforms(monkeypatch, slabs=False):
    """A list that collects (name, dealias) of each grid transform from now
    on; dealias is the keyword the call passed, False when it passed none.
    With slabs=True each physical_slabs call, the band inverse, is recorded
    too, as ("physical_slabs", True)."""
    calls = []
    names = ("to_physical", "to_spectral") + (("physical_slabs",)
                                               if slabs else ())
    for name in names:
        orig = getattr(SpectralGrid, name)
        band = name == "physical_slabs"
        monkeypatch.setattr(SpectralGrid, name,
                            lambda self, f, _o=orig, _n=name, _b=band, **kw:
                            calls.append((_n, kw.get("dealias", _b)))
                            or _o(self, f, **kw))
    return calls
