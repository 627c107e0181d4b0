import numpy as np
import pytest

from pdhyp.grid import SpectralGrid


@pytest.fixture
def grid16():
    return SpectralGrid(16, 2 * np.pi)

