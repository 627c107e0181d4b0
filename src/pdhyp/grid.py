"""Periodic-box spectral grid and Fourier-transform conventions.

Continuum convention used throughout the package:

    f_hat(xi) = (2*pi)^(-d) * integral f(x) exp(-i x.xi) dx
    f(x)      = integral f_hat(xi) exp(i x.xi) dxi

On an n^d periodic box of side L this becomes

    f_hat[k] = (dx / (2*pi))^d * FFT(f)[k],        xi_k = (2*pi/L) * k,

so that every spectral sum weighted by d_eta = (2*pi/L)^d is a Riemann sum
of the corresponding continuum integral.  Two consequences the rest of the
code relies on:

  * the convolution theorem is exact without extra constants:
    (f*g)_hat[k] = sum_j f_hat[k-j] g_hat[j] * d_eta,
  * Parseval carries a factor (2*pi)^d:
    ||f||_{L^2}^2 = (2*pi)^d * sum_k |f_hat[k]|^2 * d_eta.

Modes, wavevectors and centered coordinates are stored as one 1-D axis per
dimension, shaped (n,1,1), (1,n,1), (1,1,n) in 3-D so numpy broadcasts
them.  The n^d tables are |xi|, the dealiasing mask, |x - center|^2 and
the shell index; wavevectors() builds the dense (*shape, d) array on demand.
"""

from functools import cached_property, reduce

import numpy as np
import scipy.fft

SOBOLEV_N = 3          # smallest integer admissible for the paper's N > 5/2


def dealias_limit(n):
    """Largest |mode component| the 2/3 rule keeps on an n-point axis."""
    return (n - 1) // 3


class SpectralGrid:
    """Uniform n^d lattice on a periodic box [0, L)^d.

    Dealiasing keeps integer modes with every |component| <= (n-1)//3,
    strictly below n/3, so quadratic products of kept modes can never wrap
    back onto the kept band (3*K < n).
    """

    def __init__(self, n, length, ndim=3):
        if n < 4:
            raise ValueError("grid needs at least 4 points per axis")
        self.n = int(n)
        self.length = float(length)
        self.ndim = int(ndim)
        self.shape = (self.n,) * self.ndim
        self.size = self.n ** self.ndim
        self.dx = self.length / self.n
        self.dk = 2.0 * np.pi / self.length
        self.volume = self.length ** self.ndim
        self.d_eta = self.dk ** self.ndim
        # forward-transform prefactor (dx / 2pi)^d
        self._fwd = (self.dx / (2.0 * np.pi)) ** self.ndim

        self.k_int = np.rint(np.fft.fftfreq(self.n) * self.n).astype(np.int64)
        self.k_axes = np.meshgrid(*([self.k_int] * self.ndim), indexing="ij",
                                  sparse=True)             # integer modes
        self.xi_axes = [self.dk * k for k in self.k_axes]  # wavevectors
        self.xi_norm = np.sqrt(sum(xi ** 2 for xi in self.xi_axes))

        self.dealias_limit = dealias_limit(self.n)
        self.dealias_mask = self.band_mask(self.dealias_limit)

        self.center = self.length / 2.0
        x1 = np.arange(self.n) * self.dx - self.center    # centered coordinates
        self.x_centered = np.meshgrid(*([x1] * self.ndim), indexing="ij",
                                      sparse=True)
        self.r2_centered = sum(ax ** 2 for ax in self.x_centered)

    def band_mask(self, band):
        """Modes with every |component| <= band."""
        return reduce(np.logical_and, (np.abs(k) <= band for k in self.k_axes))

    def wavevectors(self):
        """The dense (*shape, d) wavevector array, built anew on each call."""
        return np.stack(np.broadcast_arrays(*self.xi_axes), axis=-1)

    @cached_property    # multiplier tables, built on first use
    def sobolev_weight(self):     # the H^N weight (1 + |xi|^2)^N
        return (1.0 + self.xi_norm ** 2) ** SOBOLEV_N

    @cached_property    # |xi| is even in every k_j: sort one sign octant
    def shells(self):
        """np.unique(xi_norm.ravel(), return_inverse=True), from the octant."""
        octant = self.xi_norm[(slice(self.n // 2 + 1),) * self.ndim]
        norms, index = np.unique(octant, return_inverse=True)
        k_abs = tuple(np.abs(k) for k in self.k_axes)
        return norms, index.reshape(octant.shape)[k_abs].ravel()

    @cached_property
    def xi_norm_reciprocal(self):     # 1/|xi|, and 1 at xi = 0
        return 1.0 / np.where(self.xi_norm > 0, self.xi_norm, 1.0)

    # -- transforms ---------------------------------------------------------

    def to_spectral(self, f):
        return scipy.fft.fftn(f, axes=range(-self.ndim, 0), workers=-1) * self._fwd

    def to_physical(self, fhat):
        return scipy.fft.ifftn(fhat, axes=range(-self.ndim, 0), workers=-1) / self._fwd

    # -- hygiene ------------------------------------------------------------

    def dealias(self, fhat):
        return np.where(self.dealias_mask, fhat, 0.0)

    def reflect(self, fhat):
        """fhat evaluated at -xi:  out[k] = fhat[(-k) mod n]."""
        axes = tuple(range(-self.ndim, 0))
        return np.roll(np.flip(fhat, axis=axes), 1, axis=axes)

    def conjugate_symmetrize(self, fhat):
        """Project onto conjugate-symmetric fields (real in physical space)."""
        return 0.5 * (fhat + np.conj(self.reflect(fhat)))

    def conjugate_symmetry_defect(self, fhat):
        return float(np.max(np.abs(fhat - np.conj(self.reflect(fhat)))))

    # -- misc ---------------------------------------------------------------

    def __repr__(self):
        return f"SpectralGrid(n={self.n}, length={self.length}, ndim={self.ndim})"
