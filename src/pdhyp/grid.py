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

The 2/3 rule keeps the modes with every |k_j| <= K = (n-1)//3, and every
band field (a state, a source, a stage) is stored packed: the (2K+1)^d cube
of those modes in fftfreq order, per axis 0..K and then -K..-1.  The grid's
spectral tables are the cube's sparse wavevector axes, shaped (2K+1,1,1),
(1,2K+1,1), (1,1,2K+1) in 3-D so numpy broadcasts them, and its dense |xi|;
shells sorts |xi| on the first corner and indexes every mode through |k_j|.
The coordinate-weighted norms (norms.py) hold fields on the line grid of an
axis: the cube with that axis moved last and taken to all n points there
(the grid caches only the cube tables that every sample or the guard
reads: |xi|, shells and the H^N weight); x_centered are the sparse
physical axes.

Every transform is numpy.fft's, on one thread; it is the pocketfft of
scipy.fft and gives its bits, which the tests check on every transform.
to_spectral takes an n^d field to its cube and to_physical a cube to its
n^d field, bit for bit fftn over the axes last first composed with the
restriction to the band and ifftn of its zero embedding; each raises
ValueError unless the last d axes of its input are n^d and the cube's,
respectively.  Both return a new array the caller owns and never write
their input: to_spectral transforms a complex copy of it in place.  Real
scales multiply the float64 view (numpy's complex-by-real product, up to
the sign of a zero).  line_slabs is, per axis, ifft (its 1/n, no other
scale) along it of a cube zero-filled to n points there, and fft of each
weight times that: (2K+1)^(d-1) lines of n points, in blocks of rows of
256 KiB that reuse the buffers of one call.  A transform takes a field or
a stack and adds its fields to `transforms`, a line transform to
`line_transforms`.  The band forward pass runs the last axis first, each
axis on the lines that reach the band, then packs its band in place.
The band inverse, physical_slabs, checks the layout when called and
returns a generator.  Pass 1 runs on the cube with axis -d zero-filled
to n points, scaled by ifftn's 1/n^d from long double (not 1/n per
pass); each slab of rows of axis -d takes its rows onto the band columns
and the later passes on the band lines, in 512 KiB per field, so an L^p
norm never holds the n^d field.  product_spectra forms a stack's row
products slab by slab and runs the forward pass on each slab along axes
-1..-(d-1), into the rows of pass 1's cube that the slab has read, then
along axis -d per row: no n^d total exists.
"""

from functools import cached_property
from itertools import product
from math import prod

import numpy as np

SOBOLEV_N = 3          # smallest integer admissible for the paper's N > 5/2
_SLAB_BYTES = 1 << 19   # the buffer of one field's physical_slabs slab
_LINE_BYTES = 1 << 18   # the buffer of one weight's line_slabs block


def _scale(z, factor):      # complex z *= real factor, on the float view
    np.multiply(z.view(np.float64), factor, out=z.view(np.float64))


def _axes(values, ndim):
    """One sparse axis of `values` per dimension, broadcastable together."""
    return np.meshgrid(*([values] * ndim), indexing="ij", sparse=True)


def dealias_limit(n):
    """Largest |mode component| the 2/3 rule keeps on an n-point axis."""
    return (n - 1) // 3


class SpectralGrid:
    """Uniform n^d lattice on a periodic box [0, L)^d.

    The 2/3-rule band keeps integer modes with every |component| <= K =
    (n-1)//3, strictly below n/3, so quadratic products of kept modes can
    never wrap back onto the band (3*K < n).  Band fields are stored on
    the band's cube, band_shape = (2K+1,)*ndim.
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
        self.d_eta = self.dk ** self.ndim
        # forward-transform prefactor (dx / 2pi)^d
        self._fwd = (self.dx / (2.0 * np.pi)) ** self.ndim
        self._inv_fwd = 1.0 / self._fwd
        self.transforms = 0     # band fields transformed, inverses included
        self.line_transforms = 0    # line-grid fields transformed

        k = self.dealias_limit = dealias_limit(self.n)
        self.band_shape = (2 * k + 1,) * self.ndim
        self.band_k = np.r_[0:k + 1, -k:0]        # the cube's modes per axis
        self.xi_axes = _axes(self.dk * self.band_k, self.ndim)
        self.xi_norm = np.sqrt(sum(ax ** 2 for ax in self.xi_axes))
        # the band's two runs of modes on an n-point axis and on a cube axis
        self._band = (slice(k + 1), slice(self.n - k, None))
        self._packed = (slice(k + 1), slice(k + 1, None))

        self.center = self.length / 2.0
        self.x_centered = _axes(np.arange(self.n) * self.dx - self.center,
                                self.ndim)

    @cached_property    # multiplier tables, built on first use
    def sobolev_weight(self):     # the H^N weight (1 + |xi|^2)^N, per shell
        return ((1.0 + self.shells[0] ** 2) ** SOBOLEV_N)[self.shells[1]]

    @cached_property    # |xi| is even in every k_j: sort the first corner
    def shells(self):
        """The band's distinct |xi| in ascending order, and the int32 shell
        of every mode of the cube."""
        first = self.xi_norm[(slice(self.dealias_limit + 1),) * self.ndim]
        norms, index = np.unique(first, return_inverse=True)
        index = index.reshape(first.shape).astype(np.int32)
        return norms, index[np.ix_(*[np.abs(self.band_k)] * self.ndim)]

    # -- transforms ---------------------------------------------------------

    def _fields(self, f, shape, name):    # check the layout; its fields
        if np.shape(f)[-self.ndim:] != shape:
            raise ValueError(f"{name} takes fields whose last {self.ndim} "
                             f"axes are {shape}, not {np.shape(f)}")
        return prod(np.shape(f)[:-self.ndim])

    def to_spectral(self, f):
        """The cube of the n^d field f."""
        self.transforms += self._fields(f, self.shape, "to_spectral")
        out = self._forward(np.array(f, dtype=complex),
                            range(-1, -self.ndim - 1, -1)).copy()
        _scale(out, self._fwd)
        return out

    def _forward(self, f, axes):
        """fft of complex f in place along `axes` in turn, each on the lines
        that reach the band, packing its band: the band's view of f."""
        k = self.dealias_limit
        for axis in axes:
            f = np.fft.fft(f, axis=axis, out=f).swapaxes(axis, 0)
            f[k + 1:2 * k + 1] = f[self.n - k:]     # disjoint, as 3K < n
            f = f[:2 * k + 1].swapaxes(0, axis)
        return f

    def to_physical(self, fhat):
        """The n^d field of the cube fhat, checked before it exists."""
        self.transforms += self._fields(fhat, self.band_shape, "to_physical")
        out = np.empty(np.shape(fhat)[:-self.ndim] + self.shape, dtype=complex)
        for rows, slab in self._slabs(fhat):
            out[(Ellipsis, rows) + (slice(None),) * (self.ndim - 1)] = slab
        return out

    def physical_slabs(self, fhat, multiplier=None):
        """Iterate (rows, slab): the band inverse of a cube or stack fhat,
        times `multiplier` (a real cube table) if given, on those rows of
        axis -d; a slab lives until the next one."""
        self.transforms += self._fields(fhat, self.band_shape,
                                        "physical_slabs")
        return self._slabs(fhat, multiplier)

    def _slabs(self, fhat, multiplier=None, compact=None):
        d, n = self.ndim, self.n
        lead, full = np.shape(fhat)[:-d], (slice(None),) * d
        cols = [(tuple(b for b, _ in ends), tuple(p for _, p in ends))
                for ends in product(zip(self._band, self._packed),
                                    repeat=d - 1)]
        if compact is None:     # pass 1's zero-filled cube
            compact = np.zeros(lead + (n,) + self.band_shape[1:], complex)
        for band, packed in zip(self._band, self._packed):
            at, into = ((Ellipsis, p) + full[1:] for p in (packed, band))
            compact[into] = fhat[at]
            if multiplier is not None:
                compact[into] *= np.broadcast_to(multiplier, fhat.shape)[at]
        np.fft.ifft(compact, axis=-d, norm="forward", out=compact)
        compact *= float(np.longdouble(1) / self.size)  # ifftn's 1/n^d
        rows = max(1, _SLAB_BYTES // (16 * n ** (d - 1)))
        buf = np.empty(lead + (min(rows, n),) + (n,) * (d - 1), dtype=complex)
        for start in range(0, n, rows):
            part = slice(start, min(start + rows, n))
            slab = buf[(Ellipsis, slice(part.stop - start)) + full[1:]]
            slab[...] = 0.0
            for band, at in cols:
                slab[(..., slice(None)) + band] = compact[(..., part) + at]
            for axis in range(1, d):
                for band in product(self._band, repeat=d - 1 - axis):
                    lines = slab[(Ellipsis,) + full[:axis + 1] + band]
                    np.fft.ifft(lines, axis=axis - d, norm="forward",
                                out=lines)
            _scale(slab, self._inv_fwd)
            yield part, slab

    def line_slabs(self, fhat, multiplier=1.0, weights=(1.0,)):
        """Iterate (axis, blocks), per axis of the cube or stack fhat (rows,
        spectra) over blocks of the first axis of its line grid: per table w
        of `weights` on n points, fft of w times the line inverse of fhat
        times `multiplier` (a cube table), in buffers reused block by block."""
        d, k, n = self.ndim, self.dealias_limit, self.n
        self.line_transforms += d * (1 + len(weights)) * self._fields(
            fhat, self.band_shape, "line_slabs")
        shape = np.shape(fhat)[:-1] + (n,)      # every axis's line grid
        step = min(shape[0], max(1, _LINE_BYTES // (16 * prod(shape[1:]))))
        bufs = [np.empty((step,) + shape[1:], dtype=complex) for _ in weights]

        def blocks(f, m):
            for start in range(0, shape[0], step):
                rows = slice(start, start + step)
                phys = bufs[-1][:shape[0] - start]  # the last weight's
                phys[..., k + 1:n - k] = 0.0
                for band, packed in zip(self._band, self._packed):
                    np.multiply(f[rows][..., packed], m[rows][..., packed],
                                out=phys[..., band])
                np.fft.ifft(phys, out=phys)
                yield rows, [np.fft.fft(out, out=out) for out in (
                    np.multiply(phys, w, out=buf[:len(phys)])
                    for w, buf in zip(weights, bufs))]
        return ((axis, blocks(*(np.moveaxis(np.broadcast_to(
            a, np.shape(fhat)), axis - d, -1) for a in (fhat, multiplier))))
            for axis in range(d))

    def product_spectra(self, fields, rows):
        """The cube of each row's sum of terms (c, i, j), c * phys(fields[i])
        * phys(fields[j]) (c 1.0: no multiply), bit for bit to_spectral of
        that sum, as views of pass 1's cube of one band inverse of the stack
        `fields`, its rows added past the fields' count (module doc)."""
        count = self._fields(fields, self.band_shape, "product_spectra")
        if not rows or not count:
            return []
        self.transforms += count + len(rows)
        store = np.zeros((max(count, len(rows)), self.n)
                         + self.band_shape[1:], dtype=complex)
        axes, pair = range(-1, -self.ndim, -1), None
        for part, phys in self._slabs(fields, compact=store[:count]):
            if pair is None:    # a row's sum and its next term, per slab
                pair = np.empty((2,) + phys[0].shape, dtype=complex)
            total, spare = pair[:, :len(phys[0])]
            for r, terms in enumerate(rows):
                for t, (c, i, j) in enumerate(terms):
                    product = np.multiply(phys[i], phys[j],
                                          out=spare if t else total)
                    if c != 1.0:
                        product *= c
                    if t:
                        total += product
                store[r, part] = self._forward(total, axes)
        cubes = [self._forward(row, [-self.ndim]) for row in store[:len(rows)]]
        for cube in cubes:
            _scale(cube, self._fwd)
        return cubes

    # -- hygiene ------------------------------------------------------------

    def reflect(self, fhat):
        """fhat evaluated at -xi: out[k] = fhat[(-k) mod m] on every axis
        of m points, so a band field's cube (m = 2K+1) reflects as it is."""
        axes = tuple(range(-self.ndim, 0))
        return np.roll(np.flip(fhat, axis=axes), 1, axis=axes)

    def conjugate_symmetrize(self, fhat):
        """Project onto conjugate-symmetric fields (real in physical space)."""
        return 0.5 * (fhat + np.conj(self.reflect(fhat)))

    # -- misc ---------------------------------------------------------------

    def __repr__(self):
        return f"SpectralGrid(n={self.n}, length={self.length}, ndim={self.ndim})"
