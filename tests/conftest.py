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
