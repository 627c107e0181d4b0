import numpy as np
import pytest

from pdhyp.grid import SpectralGrid


@pytest.fixture
def grid16():
    return SpectralGrid(16, 2 * np.pi)



def conjugate_symmetry_defect(grid, fhat):
    """max |fhat(xi) - conj(fhat(-xi))| of a field, or of a stack of fields
    (the max over the components)."""
    return float(np.max(np.abs(fhat - np.conj(grid.reflect(fhat)))))


def record_transforms(monkeypatch):
    """A list that collects (name, dealias) of each grid transform from now
    on; dealias is the keyword the call passed, False when it passed none."""
    calls = []
    for name in ("to_physical", "to_spectral"):
        orig = getattr(SpectralGrid, name)
        monkeypatch.setattr(SpectralGrid, name,
                            lambda self, f, _o=orig, _n=name, **kw:
                            calls.append((_n, kw.get("dealias", False)))
                            or _o(self, f, **kw))
    return calls
