import itertools
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (band, conjugate_symmetry_defect, embed, full_physical,
                      full_spectral, record_transforms)
from pdhyp import grid as grid_module
from pdhyp.acceptance import band_field
from pdhyp.grid import SpectralGrid

ROOT = Path(__file__).resolve().parent.parent


def _line_embed(grid, cube, axis):
    """The cube with `axis` moved last and zero-filled there to n points:
    the input of the line inverse's ifft."""
    cube = np.moveaxis(cube, axis - grid.ndim, -1)
    full = np.zeros(cube.shape[:-1] + (grid.n,), dtype=complex)
    full[..., grid.band_k % grid.n] = cube
    return full


def _line_spectra(grid, shape, blocks):
    """Each spectrum of one axis of line_slabs put together from its blocks
    of the first axis, on the line grid of a cube or stack of `shape`, and
    the sizes of the blocks and the distinct buffers of each spectrum."""
    whole, sizes, buffers = None, [], None
    for at, spectra in blocks:
        if whole is None:
            whole = [np.full(shape[:-1] + (grid.n,), np.nan, dtype=complex)
                     for _ in spectra]
            buffers = [set() for _ in spectra]
        for full, spec, seen in zip(whole, spectra, buffers):
            full[at] = spec
            seen.add(spec.__array_interface__["data"][0])
        sizes.append(len(spec))
    return whole, sizes, [len(seen) for seen in buffers]


def test_transform_roundtrip():
    # the line transforms undo each other on every axis: the forward
    # transform of a cube's line inverse is the cube on the band rows of
    # that axis and 0 on the others
    g = SpectralGrid(16, 5.0)
    rng = np.random.default_rng(0)
    c = rng.normal(size=g.band_shape) + 1j * rng.normal(size=g.band_shape)
    for axis, blocks in g.line_slabs(c):
        back = _line_spectra(g, c.shape, blocks)[0][0]
        assert np.max(np.abs(back - _line_embed(g, c, axis))) < 1e-12


@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 16, 24, 48])
def test_transforms_are_scipy_fft_into_a_new_array(n, ndim, monkeypatch):
    # the line transforms are scipy.fft's along one axis, bit for bit: per
    # axis and weight w, fft of w times the ifft of the cube (times a
    # multiplier) zero-filled along that axis and moved last, leaving its
    # input, single, stacked or strided, and sharing no memory with it.
    # With blocks of two rows' bytes, the first axis of the line grid
    # comes in blocks of 2 rows of a cube, the last ragged (1 field of a
    # stack, and 1 block of a single 1-D line), each weight in one reused
    # buffer.  Each call counts its fields: one inverse and one forward
    # transform per weight and axis
    g = SpectralGrid(n, 7.3, ndim)
    monkeypatch.setattr(grid_module, "_LINE_BYTES", 16 * n * (
        2 * g.band_shape[0] ** (ndim - 2) if ndim > 1 else 1))
    rng = np.random.default_rng(10 * n + ndim)
    stacked = rng.normal(size=(3,) + g.band_shape) + 1j * rng.normal(
        size=(3,) + g.band_shape)
    wide = rng.normal(size=(2 * g.band_shape[0],) * ndim) + 1j * rng.normal(
        size=(2 * g.band_shape[0],) * ndim)
    view = wide[(slice(None, None, 2),) * ndim]     # not contiguous
    inputs = (stacked[0], stacked, view)
    saved = [x.copy() for x in inputs] + [wide.copy()]
    x_axis = g.x_centered[-1]
    for x in inputs:
        for multiplier, weights in ((1.0, [1.0]),
                                    (g.xi_norm, [x_axis, x_axis ** 2])):
            axes = []
            for axis, blocks in g.line_slabs(x, multiplier, weights):
                spectra, sizes, buffers = _line_spectra(g, x.shape, blocks)
                line = scipy.fft.ifft(_line_embed(g, multiplier * x, axis))
                for w, spec in zip(weights, spectra):
                    assert np.array_equal(spec, scipy.fft.fft(w * line))
                    assert not np.shares_memory(spec, x)
                assert buffers == [1] * len(weights)
                assert sum(sizes) == len(spectra[0])
                assert sizes[:-1] == [sizes[0]] * (len(sizes) - 1)
                assert sizes[0] == (n if x.ndim == 1 else 1 if x.ndim >
                                    ndim else 2)
                axes.append(axis)
            assert axes == list(range(ndim))
    for x, before in zip(inputs + (wide,), saved):
        assert x.tobytes() == before.tobytes()
    # the line transforms count apart from the band ones
    assert g.line_transforms == (1 + 3 + 1) * ndim * (2 + 3) \
        and g.transforms == 0


@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 15, 16, 24, 48])
def test_band_transforms_equal_the_composed_transforms(n, ndim, monkeypatch):
    # the band transforms are the full-grid ones composed with the band,
    # bit for bit: the forward transform of an n^d field that is not
    # band-limited is the band of its full transform, the inverse of a cube
    # is the full inverse of its zero embedding; each call counts its
    # fields, writes a new array and leaves its input, real, stacked or
    # strided.  The band inverse is a run of physical_slabs: at 7 rows per
    # slab there are several slabs and a ragged last one, in one reused
    # buffer, and put together they are its output bit for bit
    monkeypatch.setattr(grid_module, "_SLAB_BYTES", 7 * 16 * n ** (ndim - 1))
    g = SpectralGrid(n, 7.3, ndim)
    rng = np.random.default_rng(10 * n + ndim)

    def inputs(shape):      # one, stacked, strided and real input
        stacked = rng.normal(size=(3,) + shape) + 1j * rng.normal(
            size=(3,) + shape)
        wide = stacked.repeat(2, axis=-1)
        view = wide[(Ellipsis, slice(None, None, 2))]   # not contiguous
        return stacked[1], stacked, view, rng.normal(size=shape)

    fields, cubes = inputs(g.shape), inputs(g.band_shape)
    saved = [x.copy() for x in fields + cubes]
    for x, c in zip(fields, cubes):
        count, k = g.transforms, np.prod(np.shape(c)[:-ndim], dtype=int)
        spec = g.to_spectral(x)
        assert g.transforms == count + k
        phys = g.to_physical(c)
        assert g.transforms == count + 2 * k
        # a real input is transformed as complex
        assert np.array_equal(spec, band(g, full_spectral(g, x + 0j)))
        assert np.array_equal(phys, full_physical(g, embed(g, c)))
        assert spec.shape == np.shape(x)[:-ndim] + g.band_shape
        assert not np.shares_memory(phys, c)
        assert not np.shares_memory(spec, x)
        whole = np.full(np.shape(phys), np.nan, dtype=complex)
        count, sizes, buffers = g.transforms, [], set()
        for rows, slab in g.physical_slabs(c):
            whole[(Ellipsis, rows) + (slice(None),) * (ndim - 1)] = slab
            sizes.append(rows.stop - rows.start)
            buffers.add(slab.__array_interface__["data"][0])
        assert g.transforms == count + k
        assert whole.tobytes() == phys.tobytes()
        assert len(buffers) == 1
        assert len(sizes) > 1 and sizes[-1] < sizes[0] == 7
    for x, before in zip(fields + cubes, saved):
        assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("n, ndim, rows", [(16, 3, 5), (64, 3, None),
                                           (48, 2, 7)])
def test_a_stacked_band_inverse_is_the_single_inverses(n, ndim, rows,
                                                       monkeypatch):
    # physical_slabs of a stack of F cubes runs the same slabs as of one
    # cube, rows per slab not shrinking with F, and each slab holds the
    # single inverses' slabs bit for bit (at n = 16, 5 rows per slab and a
    # ragged last one; at n = 64, the default 8; on a 2-D grid at n = 48,
    # 7 rows per slab); the call counts F transforms
    if rows:
        monkeypatch.setattr(grid_module, "_SLAB_BYTES",
                            rows * 16 * n ** (ndim - 1))
    g = SpectralGrid(n, 11.0, ndim)
    rng = np.random.default_rng(n)
    cubes = rng.normal(size=(3,) + g.band_shape) + 1j * rng.normal(
        size=(3,) + g.band_shape)
    singles = [[(part, slab.copy()) for part, slab in g.physical_slabs(c)]
               for c in cubes]
    count, parts = g.transforms, []
    for k, (part, slab) in enumerate(g.physical_slabs(cubes)):
        parts.append(part)
        for f, single in enumerate(singles):
            assert single[k][0] == part
            assert slab[f].tobytes() == single[k][1].tobytes()
    assert g.transforms == count + 3
    assert parts == [part for part, _ in singles[0]]
    assert len(parts) == {16: 4, 64: 8, 48: 7}[n]


_PRODUCT_GRIDS = {(n, d): SpectralGrid(n, 7.3, d)
                  for n in (8, 10, 16) for d in (2, 3)}
_PRODUCT_TERM = st.tuples(st.sampled_from((1.0, 1.0, -1.5, 2.0, 0.25)),
                          st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(grid=st.sampled_from(sorted(_PRODUCT_GRIDS)),
       count=st.integers(1, 4),
       rows=st.lists(st.lists(_PRODUCT_TERM, min_size=1, max_size=4),
                     min_size=1, max_size=4),
       slab_rows=st.sampled_from((1, 3, 7, None)),
       seed=st.integers(0, 2 ** 16))
@example(grid=(16, 3), count=1, slab_rows=5, seed=0,
         rows=[[(1.0, 0, 0), (1.0, 0, 0)], [(2.0, 0, 0)], [(1.0, 0, 0)],
               [(-1.5, 0, 0), (1.0, 0, 0)]])
def test_product_spectra_are_the_transforms_of_the_products(
        grid, count, rows, slab_rows, seed):
    # each row's cube is to_spectral of its sum of terms c * phys(i) *
    # phys(j) over to_physical of the stack, bit for bit, whatever the
    # slabs (1, 3 or 7 rows of axis -d, or the default), with repeated
    # pairs and more rows than fields; one call counts the stack's fields
    # and one per row, and the grid keeps no array of it
    g = _PRODUCT_GRIDS[grid]
    rows = [[(c, i % count, j % count) for c, i, j in terms] for terms in rows]
    rng = np.random.default_rng(seed)
    cubes = rng.normal(size=(count,) + g.band_shape) + 1j * rng.normal(
        size=(count,) + g.band_shape)
    phys = g.to_physical(cubes)
    expect = []
    for terms in rows:
        for t, (c, i, j) in enumerate(terms):
            term = phys[i] * phys[j]
            if c != 1.0:
                term *= c
            total = total + term if t else term
        expect.append(g.to_spectral(total))
    def arrays():       # the grid's array attributes, by identity
        return [(k, id(v)) for k, v in vars(g).items()
                if isinstance(v, np.ndarray)]

    held, before = arrays(), g.transforms
    slab_bytes = grid_module._SLAB_BYTES if slab_rows is None \
        else slab_rows * 16 * g.n ** (g.ndim - 1)
    with mock.patch.object(grid_module, "_SLAB_BYTES", slab_bytes):
        got = g.product_spectra(cubes, rows)
    assert g.transforms == before + count + len(rows)
    assert arrays() == held
    assert len(got) == len(rows)
    for cube, want in zip(got, expect):
        assert cube.shape == g.band_shape
        assert cube.tobytes() == want.tobytes()
    assert g.product_spectra(cubes, []) == []
    assert g.product_spectra(cubes[:0], [[(1.0, 0, 0)]]) == []
    assert g.transforms == before + count + len(rows)


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_band_transforms_refuse_the_other_layout(ndim):
    # to_spectral takes n^d fields, the band inverse and the line
    # transforms cubes: a field of another layout, or of none, raises
    # before any transform counts (on a 1-D grid a cube once came back
    # from the forward pass clipped); physical_slabs, product_spectra and
    # line_slabs raise when called, not
    # at the first slab, and to_physical names itself and allocates no n^d
    # output first
    g = SpectralGrid(16, 5.0, ndim)
    field = np.ones((2,) + g.shape, dtype=complex)
    cube = np.ones((2,) + g.band_shape, dtype=complex)
    for bad in (cube, cube[0], field[..., :-1]):
        with pytest.raises(ValueError, match="to_spectral"):
            g.to_spectral(bad)
    for bad in (field, field[0], cube[..., :-1]):
        with pytest.raises(ValueError, match="to_physical"):
            g.to_physical(bad)
        with pytest.raises(ValueError, match="physical_slabs"):
            g.physical_slabs(bad)
        with pytest.raises(ValueError, match="product_spectra"):
            g.product_spectra(bad, [[(1.0, 0, 1)]])
        with pytest.raises(ValueError, match="line_slabs"):
            g.line_slabs(bad)
    assert g.transforms == g.line_transforms == 0
    big = SpectralGrid(32, 5.0)     # an output 100 times the overhead
    bad = np.ones(big.shape, dtype=complex)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="to_physical"):
            big.to_physical(bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * big.size


def test_band_inverse_scales_as_ifftn_does():
    # ifftn scales by 1/n^d rounded from long double: at n = 2731 that
    # differs from the double 1.0/n, and the band inverse still matches
    g = SpectralGrid(2731, 1.0, 1)
    assert float(np.longdouble(1) / g.n) != 1.0 / g.n
    x = np.random.default_rng(3).normal(size=g.band_shape) + 0j
    assert np.array_equal(g.to_physical(x), full_physical(g, embed(g, x)))


def test_a_run_loads_no_scipy():
    # the package, its CLI and an n = 16 run transform with numpy.fft
    # alone: scipy's FFT, linear algebra and special functions stay unloaded
    code = textwrap.dedent("""\
        import sys, tempfile
        import pdhyp, pdhyp.cli
        from pdhyp import experiments
        with tempfile.TemporaryDirectory() as out:
            experiments.run(experiments.load_preset("pk-small-data").override(
                ["grid.n=16", "grid.length=32.0", "time.t_max=3.0",
                 "output.dir=" + out]))
        print(*sorted({"scipy.fft", "scipy.linalg", "scipy.special"}
                      & set(sys.modules)))
        """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_convolution_theorem_is_exact():
    # the d_eta-weighted spectral sum of f_hat(k-j) g_hat(j) must equal the
    # transform of the pointwise product without any extra constant
    g = SpectralGrid(8, 3.0)
    rng = np.random.default_rng(1)
    f = rng.normal(size=g.shape)
    h = rng.normal(size=g.shape)
    fh, hh = full_spectral(g, f), full_spectral(g, h)
    prod_hat = full_spectral(g, f * h)
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
    fh = full_spectral(g, f)
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


@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 15, 16, 24, 25, 32, 48])
def test_shells_equal_the_sorted_full_grid(n, ndim):
    # the shells are the sorted |xi| of the full grid's band, and their
    # index gives |xi| on every mode of the cube
    g = SpectralGrid(n, 7.3, ndim)
    norms, index = g.shells
    on_band = band(g, _dense_mesh_tables(n, 7.3, ndim)["xi_norm"])
    assert np.array_equal(norms, np.unique(on_band))
    assert index.dtype == np.int32
    assert index.shape == g.band_shape
    assert np.array_equal(norms[index], on_band)
    assert g.shells is g.shells


@pytest.mark.parametrize("ndim", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 15, 16, 24])
def test_band_blocks_tile_the_band_and_mirror_the_first_corner(n, ndim):
    # per axis the cube holds the modes 0..K and then -K..-1: its 2^d
    # corner blocks tile it, each is the band block of the full grid that
    # holds the same modes, and reading the first corner through the
    # mirror slices gives |k_j| and the shell index on every block
    g = SpectralGrid(n, 7.3, ndim)
    K = g.dealias_limit
    assert np.array_equal(g.band_k, np.r_[0:K + 1, -K:0])
    assert g.band_shape == (2 * K + 1,) * ndim
    ends = ((slice(K + 1), slice(K + 1)),
            (slice(K + 1, None), slice(K, 0, -1)))
    first = (slice(K + 1),) * ndim
    k_int = np.rint(np.fft.fftfreq(n) * n).astype(np.int64)
    full_k = np.meshgrid(*([k_int] * ndim), indexing="ij")
    cube_k = [band(g, k) for k in full_k]
    count = np.zeros(g.band_shape, dtype=int)
    for corner in itertools.product(ends, repeat=ndim):
        block, mirror = zip(*corner)
        count[block] += 1
        for k in cube_k:
            assert np.array_equal(np.abs(k[block]), k[first][mirror])
        assert np.array_equal(g.shells[1][block], g.shells[1][first][mirror])
    assert np.all(count == 1)
    for k, ax in zip(cube_k, np.meshgrid(*([g.band_k] * ndim),
                                         indexing="ij")):
        assert np.array_equal(k, ax)


def test_multiplier_tables_are_built_once():
    # the H^N weight, which every sample and the guard read, is cached;
    # the grid keeps no table of the line grid's |xi|^2 (each norm call
    # builds its own) and no 1/|xi|
    g = SpectralGrid(8, 5.0)
    assert g.sobolev_weight is g.sobolev_weight
    assert np.array_equal(g.sobolev_weight, (1.0 + g.xi_norm ** 2) ** 3)
    assert not any(hasattr(g, name)
                   for name in ("line_xi_sq", "xi_norm_reciprocal"))


def test_dealias_mask_strictly_below_third():
    # the cube's largest |k| is K, and 3K < n: no product of two band
    # modes wraps onto the band
    for n in (16, 32, 64):
        g = SpectralGrid(n, 1.0)
        assert np.abs(g.band_k).max() == g.dealias_limit
        assert 3 * np.abs(g.band_k).max() < n
        assert g.xi_norm.shape == g.band_shape == (2 * g.dealias_limit + 1,
                                                   ) * 3


def _dense_mesh_tables(n, length, ndim):
    """|xi| and the wavevectors from a dense (*shape, d) mesh of the n^d
    grid: the reference the broadcast axes must equal."""
    k1 = np.rint(np.fft.fftfreq(n) * n).astype(np.int64)
    modes = np.stack(np.meshgrid(*([k1] * ndim), indexing="ij"), axis=-1)
    xi = (2.0 * np.pi / length) * modes
    return {"xi_norm": np.linalg.norm(xi, axis=-1), "wavevectors": xi}


@pytest.mark.parametrize("n", [8, 12, 14, 24, 30, 48, 96])
@settings(max_examples=6, deadline=None)
@given(length=st.floats(0.5, 300.0), ndim=st.sampled_from((2, 3)))
def test_axes_tables_equal_the_dense_mesh_formulas(n, length, ndim):
    # the cube's |xi| and wavevectors are the dense-mesh ones restricted to
    # the band
    g = SpectralGrid(n, length, ndim=ndim)
    dense = _dense_mesh_tables(n, length, ndim)
    xi = np.moveaxis(dense["wavevectors"], -1, 0)
    assert np.array_equal(g.xi_norm, band(g, dense["xi_norm"]))
    assert np.array_equal(np.broadcast_arrays(*g.xi_axes), band(g, xi))


def test_grid_keeps_no_dense_mesh():
    g = SpectralGrid(128, 256.0)
    g.sobolev_weight, g.shells    # read every table
    arrays = [a for value in vars(g).values()
              for a in (value if isinstance(value, (list, tuple)) else [value])
              if isinstance(a, np.ndarray)]
    assert len(arrays) >= 11 and max(a.size for a in arrays) < g.size // 2
    assert not any(hasattr(g, name) for name in (
        "modes", "xi", "x", "full_xi_norm", "full_xi_axes", "r2_centered"))


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


@pytest.mark.parametrize("n, ndim", [(8, 3), (15, 2), (16, 1)])
def test_reflect_on_the_cube_is_the_band_of_the_full_reflect(n, ndim):
    # flip-then-roll is -k mod (2K+1) on the cube: reflect and
    # conjugate_symmetrize act on it unchanged
    g = SpectralGrid(n, 2.0, ndim)
    rng = np.random.default_rng(n)
    c = rng.normal(size=g.band_shape) + 1j * rng.normal(size=g.band_shape)
    assert np.array_equal(g.reflect(c), band(g, g.reflect(embed(g, c))))
    assert np.array_equal(g.conjugate_symmetrize(c),
                          band(g, g.conjugate_symmetrize(embed(g, c))))


def test_reflect_and_conjugate_symmetry():
    g = SpectralGrid(8, 2.0)
    rng = np.random.default_rng(3)
    fh = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    sym = g.conjugate_symmetrize(fh)
    assert conjugate_symmetry_defect(g, sym) < 1e-14
    f = full_physical(g, sym)
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
    assert np.max(np.abs(full_physical(g, full_spectral(g, f)) - f)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 12), length=st.floats(0.5, 20.0),
       ndim=st.sampled_from((2, 3)), seed=st.integers(0, 2 ** 16))
def test_parseval_on_any_grid(n, length, ndim, seed):
    g = SpectralGrid(n, length, ndim=ndim)
    f = np.random.default_rng(seed).normal(size=g.shape)
    phys = np.sum(f ** 2) * g.dx ** ndim
    fh = full_spectral(g, f)
    spec = (2 * np.pi) ** ndim * np.sum(np.abs(fh) ** 2) * g.d_eta
    assert abs(phys - spec) <= 1e-12 * phys


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 10), length=st.floats(0.5, 20.0),
       seed=st.integers(0, 2 ** 16))
def test_convolution_theorem_on_any_grid(n, length, seed):
    g = SpectralGrid(n, length, ndim=2)
    f, h = np.random.default_rng(seed).normal(size=(2,) + g.shape)
    fh, hh = full_spectral(g, f), full_spectral(g, h)
    # np.roll(fh, j)[k] = fh[(k - j) mod n]
    direct = sum(hh[j] * np.roll(fh, j, axis=(0, 1))
                 for j in np.ndindex(g.shape)) * g.d_eta
    prod_hat = full_spectral(g, f * h)
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
    f, h = (rng.normal(size=coarse.band_shape)
            + 1j * rng.normal(size=coarse.band_shape) for _ in range(2))

    def product(grid, a, b):
        return full_spectral(grid, full_physical(grid, a)
                                  * full_physical(grid, b))

    on_fine = np.ix_(coarse.band_k % fine.n, coarse.band_k % fine.n)
    big_f, big_h = np.zeros(fine.shape, complex), np.zeros(fine.shape, complex)
    big_f[on_fine], big_h[on_fine] = f, h
    exact = product(fine, big_f, big_h)[on_fine]
    got = coarse.to_spectral(coarse.to_physical(f) * coarse.to_physical(h))
    assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))
