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
them.  The n^d tables are |xi|, the dealiasing mask and |x - center|^2;
wavevectors() builds the dense (*shape, d) array.

The 2/3-rule band is tiled by 2^d corner blocks of basic slices
(band_blocks), each paired with the slices of the first corner that hold
its |k_j|.  |xi| is even in every k_j, so the first corner carries every
|xi| on the band: shells sorts it once, and a per-|xi| table gathered onto
that corner serves every block through the mirror slices.

to_spectral and to_physical return a new array the caller owns and never
write their input; a complex input is copied and transformed in place.
Real scales multiply the float64 view (numpy's complex-by-real product, up
to the sign of a zero).  `transforms` counts each call.  With dealias=True
both read and give only the band, bit for bit the composed calls; the
forward skips the lines with off-band modes on the earlier axes.  The one
band inverse is the generator physical_slabs: pass 1 runs on the band
columns of the later axes, packed, scaled by ifftn's 1/n^d from long double
(not 1/n per pass); each slab of rows of axis -d takes its rows onto the
band columns and the later passes on the band lines.  Slabs are views of
`out` or of one reused 1 MiB buffer, so an L^inf norm never holds the n^d
field.  One worker runs below n = 128 and in a slab's small passes, where
threads cost CPU and save no time.
"""

from functools import cached_property, reduce
from itertools import product
from math import prod

import numpy as np
import scipy.fft

SOBOLEV_N = 3          # smallest integer admissible for the paper's N > 5/2
_SLAB_BYTES = 1 << 20   # the buffer of one physical_slabs slab


def _scale(z, factor):      # complex z *= real factor, on the float view
    np.multiply(z.view(np.float64), factor, out=z.view(np.float64))


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
        self._inv_fwd = 1.0 / self._fwd
        self.transforms = 0     # to_spectral and to_physical calls so far

        self.k_int = np.rint(np.fft.fftfreq(self.n) * self.n).astype(np.int64)
        self.k_axes = np.meshgrid(*([self.k_int] * self.ndim), indexing="ij",
                                  sparse=True)             # integer modes
        self.xi_axes = [self.dk * k for k in self.k_axes]  # wavevectors
        self.xi_norm = np.sqrt(sum(xi ** 2 for xi in self.xi_axes))

        self.dealias_limit = dealias_limit(self.n)
        self.dealias_mask = self.band_mask(self.dealias_limit)
        # the band's 2^d corners, each with its |k_j| as slices of the first
        k = self.dealias_limit
        self._band = (slice(k + 1), slice(self.n - k, None))
        ends = tuple(zip(self._band, (slice(None), slice(k, 0, -1))))
        self.band_blocks = tuple(tuple(zip(*corner)) for corner
                                 in product(ends, repeat=self.ndim))
        self._workers = -1 if self.n >= 128 else 1

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

    @cached_property    # |xi| is even in every k_j: sort the first corner
    def shells(self):
        """The band's distinct |xi| in ascending order, and the int32 shell
        of each mode of the band's first corner, shaped (K+1,)*ndim."""
        corner = self.xi_norm[self.band_blocks[0][0]]
        norms, index = np.unique(corner, return_inverse=True)
        return norms, index.reshape(corner.shape).astype(np.int32)

    @cached_property
    def xi_norm_reciprocal(self):     # 1/|xi|, and 1 at xi = 0
        return 1.0 / np.where(self.xi_norm > 0, self.xi_norm, 1.0)

    # -- transforms ---------------------------------------------------------

    def _transform(self, fft, f):
        self.transforms += 1
        copy = np.iscomplexobj(f)   # a real f takes scipy's real-input path
        f = np.array(f, dtype=complex) if copy else f
        return fft(f, axes=range(-self.ndim, 0), workers=self._workers,
                   overwrite_x=copy)

    def to_spectral(self, f, dealias=False):
        if not dealias:
            out = self._transform(scipy.fft.fftn, f)
            _scale(out, self._fwd)
            return out
        self.transforms += 1
        d, out = self.ndim, np.array(f, dtype=complex)
        for axis in range(d):   # the lines that reach the band
            for band in product(self._band, repeat=axis):
                lines = out[(Ellipsis,) + band + (slice(None),) * (d - axis)]
                scipy.fft.fft(lines, axis=axis - d, overwrite_x=True,
                              workers=self._workers)
        for block, _ in self.band_blocks:
            _scale(out[(Ellipsis,) + block], self._fwd)
        gap = slice(self.dealias_limit + 1, self.n - self.dealias_limit)
        for axis in range(d):
            out[(Ellipsis, gap) + (slice(None),) * axis] = 0.0
        return out

    def to_physical(self, fhat, dealias=False):
        if dealias:
            out = np.empty(np.shape(fhat), dtype=complex)
            for _ in self.physical_slabs(fhat, out=out):
                pass
            return out
        out = self._transform(scipy.fft.ifftn, fhat)
        _scale(out, self._inv_fwd)
        return out

    def physical_slabs(self, fhat, out=None, values=None):
        """Yield (rows, slab): the band inverse of fhat on those rows of
        axis -d; values(block) is fhat on each band block, fhat[..., block]
        by default.  Without `out` a slab lives until the next one."""
        self.transforms += 1
        d, n, k = self.ndim, self.n, self.dealias_limit
        values = values or (lambda block: fhat[(Ellipsis,) + block])
        lead, full = np.shape(fhat)[:-d], (slice(None),) * d
        packed = (slice(k + 1), slice(k + 1, 2 * k + 1))  # the band, packed
        cols = [(tuple(b for b, _ in ends), tuple(p for _, p in ends))
                for ends in product(zip(self._band, packed), repeat=d - 1)]
        compact = np.zeros(lead + (n,) + (2 * k + 1,) * (d - 1), dtype=complex)
        for first, (band, at) in product(self._band, cols):
            compact[(Ellipsis, first) + at] = values((first,) + band)
        scipy.fft.ifft(compact, axis=-d, norm="forward", overwrite_x=True,
                       workers=self._workers)
        compact *= float(np.longdouble(1) / self.size)  # ifftn's 1/n^d
        rows = max(1, _SLAB_BYTES // (16 * n ** (d - 1) * prod(lead)))
        buf = out if out is not None else np.empty(
            lead + (min(rows, n),) + (n,) * (d - 1), dtype=complex)
        for start in range(0, n, rows):
            part = slice(start, min(start + rows, n))
            slab = buf[(Ellipsis, part if out is not None
                        else slice(part.stop - start)) + full[1:]]
            slab[...] = 0.0
            for band, at in cols:
                slab[(..., slice(None)) + band] = compact[(..., part) + at]
            for axis in range(1, d):
                for band in product(self._band, repeat=d - 1 - axis):
                    scipy.fft.ifft(slab[(Ellipsis,) + full[:axis + 1] + band],
                                   axis=axis - d, norm="forward",
                                   overwrite_x=True, workers=1)
            _scale(slab, self._inv_fwd)
            yield part, slab

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

    # -- misc ---------------------------------------------------------------

    def __repr__(self):
        return f"SpectralGrid(n={self.n}, length={self.length}, ndim={self.ndim})"
