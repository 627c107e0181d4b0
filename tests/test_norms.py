import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import (band, embed, full_physical, full_xi_axes, full_xi_norm,
                      lp_physical, r2_centered, record_transforms,
                      reference_energy_terms, reference_initial_energy,
                      reference_profile_norms)
from pdhyp import evolution as ev
from pdhyp import grid as grid_module
from pdhyp import norms, pseudoproduct, spectra
from pdhyp.acceptance import band_field
from pdhyp.errors import MissingSeries, NonPositiveValues
from pdhyp.experiments import make_initial_data
from pdhyp.grid import SpectralGrid
from pdhyp.symbols import symbol_preset
from pdhyp.norms import lp_norm, riesz


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid(32, 16.0)


def norm_of(grid, kind, fhat):
    """The norm `kind` of one band field, by norms.evaluate_norm."""
    return norms.evaluate_norm(norms.NormSpec(kind, "profile_w"),
                               ev.StateField(grid, fhat[None], 1.0), fhat)


def test_sobolev0_is_parseval_l2(grid):
    rng = np.random.default_rng(0)
    fh = band_field(grid, 5, rng)
    f = full_physical(grid, embed(grid, fh))
    phys = np.sqrt(np.sum(np.abs(f) ** 2) * grid.dx ** 3)
    assert abs(norms.sobolev_norm(grid, fh, 0) - phys) <= 1e-12 * phys
    assert abs(norms.l2_norm(grid, fh) - phys) <= 1e-12 * phys


def test_sobolev_single_mode_closed_form(grid):
    # f = cos(k.x): ||f||_{H^N}^2 = (1+|k|^2)^N * A^2 * L^3 / 2
    k_vec = grid.dk * np.array([2.0, 1.0, 0.0])
    A = 1.3
    x0, x1, _ = np.meshgrid(*[np.arange(grid.n) * grid.dx] * 3, indexing="ij")
    f = A * np.cos(x0 * k_vec[0] + x1 * k_vec[1])
    fh = grid.to_spectral(f)
    for order in (0, 1, 3):
        expect = np.sqrt((1 + k_vec @ k_vec) ** order * A ** 2
                         * grid.length ** grid.ndim / 2)
        got = norms.sobolev_norm(grid, fh, order)
        assert abs(got - expect) <= 1e-10 * expect


def test_weighted_x_gaussian_moment():
    g = SpectralGrid(64, 32.0)
    sigma = 2.0
    f = np.exp(-r2_centered(g) / (2 * sigma ** 2))
    fh = g.to_spectral(f)
    ratio = norm_of(g, "weighted_x_l2", fh) / norms.l2_norm(g, fh)
    expect = sigma * np.sqrt(1.5)
    assert abs(ratio - expect) <= 0.01 * expect


def test_linf_riesz_takes_max(grid):
    rng = np.random.default_rng(1)
    fh = embed(grid, band_field(grid, 4, rng))
    s = full_xi_norm(grid)
    xi = np.broadcast_arrays(*full_xi_axes(grid))
    with np.errstate(divide="ignore", invalid="ignore"):
        per = [lp_physical(grid, full_physical(grid,
            np.where(s > 0, -1j * xi[j] / s, 0) * fh), np.inf)
               for j in range(3)]
    assert norms.riesz_linf_norm(grid, band(grid, fh)) == max(per)


@pytest.mark.parametrize("n, ndim", [(32, 3), (24, 3), (15, 2)])
def test_riesz_linf_is_the_linf_of_each_riesz_field(n, ndim):
    # the band inverse of f times the real xi_j/|xi|, filled into the first
    # pass one packed run of axis -d at a time, has the max modulus of the
    # band inverse of R_j f, bit for bit: on random fields, the xi = 0 mode
    # alone and a zero field; each run's table is that run of the cube's,
    # which is xi_j times 1/|xi| taken on the cube, bit for bit
    g = SpectralGrid(n, 11.0, ndim)
    rng = np.random.default_rng(n)
    fields = [rng.normal(size=g.band_shape) + 1j * rng.normal(
        size=g.band_shape) for _ in range(3)]
    fields += [np.zeros(g.band_shape, dtype=complex) for _ in range(2)]
    fields[-1][(0,) * ndim] = 2.5
    cube = 1.0 / np.where(g.xi_norm > 0, g.xi_norm, 1.0)
    for j in range(ndim):
        assert riesz(g, j).tobytes() == (g.xi_axes[j] * cube).tobytes()
        for rows in (slice(None, g.dealias_limit + 1),
                     slice(g.dealias_limit + 1, None)):
            assert (riesz(g, j, rows=rows).tobytes()
                    == riesz(g, j)[rows].tobytes())
    for f in fields:
        per = [norms.band_linf(g, riesz(g, j, f)) for j in range(ndim)]
        assert norms.riesz_linf_norm(g, f) == max(per)
        assert all(lp_norm(g, f, np.inf, lambda rows, j=j: riesz(g, j)[rows])
                   == v for j, v in enumerate(per))
    assert norms.riesz_linf_norm(g, fields[-1]) == 0.0


def test_riesz_linf_builds_no_cube_table(monkeypatch):
    # at n = 32 and 4 rows per slab, the norm peaks below pass 1's store,
    # one half cube of real tables (the run k_0 = 0..K of xi_j/|xi|) and
    # its slab and |slab| buffers; two whole real cubes, 1/|xi| and
    # xi_j/|xi|, would not fit
    rows = 4
    monkeypatch.setattr(grid_module, "_SLAB_BYTES", rows * 16 * 32 ** 2)
    g = SpectralGrid(32, 11.0)
    g.shells    # the grid's table, which the norm reads
    rng = np.random.default_rng(3)
    f = rng.normal(size=g.band_shape) + 1j * rng.normal(size=g.band_shape)
    norms.riesz_linf_norm(g, f)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        norms.riesz_linf_norm(g, f)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    k, m = g.dealias_limit, g.band_shape[0]
    store, half = 16 * g.n * m ** 2, 8 * (k + 1) * m ** 2
    slabs = (16 + 8) * rows * g.n ** 2
    assert peak < store + half + slabs < store + 2 * 8 * m ** 3


def test_initial_energy_scales_linearly(grid):
    rng = np.random.default_rng(2)
    data = np.stack([band_field(grid, 4, rng) for _ in range(3)])
    st1 = ev.StateField(grid, data, 1.0)
    st2 = ev.StateField(grid, 2.0 * data, 1.0)
    e1 = norms.initial_energy(st1)
    e2 = norms.initial_energy(st2)
    assert abs(e2 - 2 * e1) <= 1e-10 * e1


def _flowed(state, t):
    """The state taken by the 3x3 linear flow to time 1 + t: complex in
    physical space."""
    g = state.grid
    cache = spectra.build_symbol_cache(g.shells[0],
                                       spectra.three_component_model())
    G = spectra.propagator(g, cache, t)
    return ev.StateField(g, spectra.propagator_apply(G, state.data), 1.0 + t)


def test_initial_energy_equals_the_per_term_formula():
    # each of E_N's four terms, per component, is the n^d formula's to
    # 1e-13 (the L^1 term, which wins here, bit for bit), and E_N equals
    # the formula's; the L^inf that comes with them is band_linf's
    g = SpectralGrid(16, 32.0)
    st = make_initial_data("gaussian_bump", g, 0.3, 0, width=[1.0, 2.5, 4.0],
                           radial_power=[0, 1, 0])
    later = _flowed(st, 3.5)
    assert np.abs(g.to_physical(later.data[2]).imag).max() > 1e-3
    for state in (st, later):
        for comp in state.data:
            *got, linf = norms.energy_terms(g, comp)
            want = reference_energy_terms(g, comp)
            assert got[0] == want[0] and linf == norms.band_linf(g, comp)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        assert norms.initial_energy(state) == reference_initial_energy(state)


@pytest.mark.parametrize("n", [16, 24])
def test_weighted_terms_equal_the_full_grid_formulas(n):
    # on random complex cubes (K = 5 and 7) and on flowed data, every E_N
    # term and every weighted profile norm is the n^d formula's to 1e-13,
    # and so is E_N, which the weighted terms win on the random cubes
    g = SpectralGrid(n, 6.0)
    rng = np.random.default_rng(n)
    cubes = rng.normal(size=(3,) + g.band_shape) + 1j * rng.normal(
        size=(3,) + g.band_shape)
    bump = make_initial_data("gaussian_bump", g, 0.3, 0, width=1.5)
    for state in (ev.StateField(g, cubes, 1.0), _flowed(bump, 2.5)):
        for comp in state.data:
            np.testing.assert_allclose(norms.energy_terms(g, comp)[:4],
                                       reference_energy_terms(g, comp),
                                       rtol=1e-13, atol=0)
            np.testing.assert_allclose(
                [norm_of(g, kind, comp) for kind in (
                    "weighted_x_l2", "weighted_lambda_x_h1",
                    "weighted_x2_lambda_h1")],
                reference_profile_norms(g, comp), rtol=1e-13, atol=0)
        assert norms.initial_energy(state) == pytest.approx(
            reference_initial_energy(state), rel=1e-13, abs=0)
    l1, *weighted = reference_energy_terms(g, cubes[0])
    assert sum(weighted) > 10 * l1


def test_initial_energy_transforms_each_component_once(monkeypatch):
    g = SpectralGrid(16, 32.0)
    st = make_initial_data("gaussian_bump", g, 0.3, 0, width=[1.0, 2.5, 4.0])
    calls = record_transforms(monkeypatch, slabs=True)
    before = g.transforms, g.line_transforms
    norms.initial_energy(st)
    # per component one band inverse (L^1 and L^inf), and per axis one
    # line inverse that both moments share, block by block, and the line
    # forward transforms of its x_j and of its x_j^2 weight
    assert sorted(calls) == ["line_slabs"] * 3 + ["physical_slabs"] * 3
    assert (g.transforms - before[0], g.line_transforms - before[1]) \
        == (3, 27)


@pytest.mark.parametrize("width, radial_power, distinct", [
    (4.0, 1, 1),                     # wave-invariants: u = v = w
    ([1.0, 1.0, 8.0], [0, 0, 1], 2),  # pk-small-data: u = v != w
])
def test_initial_energy_transforms_each_distinct_component_once(
        monkeypatch, width, radial_power, distinct):
    g = SpectralGrid(16, 32.0)
    st = make_initial_data("gaussian_bump", g, 0.3, 0, width=width,
                           radial_power=radial_power)
    expected = reference_initial_energy(st)
    calls = record_transforms(monkeypatch, slabs=True)
    before = g.transforms, g.line_transforms
    assert norms.initial_energy(st) == expected
    assert sorted(calls) == (["line_slabs"] * distinct
                             + ["physical_slabs"] * distinct)
    assert (g.transforms - before[0], g.line_transforms - before[1]) \
        == (distinct, 9 * distinct)


def test_sampled_norms_read_the_band(grid, monkeypatch):
    # every inverse transform of a sampled norm and of E_N starts from the
    # band: the band inverse, physical_slabs (the L^1 and L^inf norms
    # reduce its slabs without asking to_physical for the field), or the
    # line inverse of the weighted norms, whose forward transforms are the
    # line ones; no band forward transform runs, and each call counts its
    # fields, band and line transforms apart: a band inverse one, and a
    # line_slabs call one line inverse and one forward transform per
    # weight on each axis
    st = make_initial_data("gaussian_bump", grid, 0.3, 0, width=2.0)
    calls = record_transforms(monkeypatch, slabs=True)
    seen = {}
    weighted = [norms.NormSpec(kind, "profile_w") for kind in norms._MOMENTS]
    runs = [(kind, norm_of, (grid, kind, st.data[2]))
            for kind in norms.NORM_KINDS]
    for name, fn, args in runs + [
            ("e_n", norms.initial_energy, (st,)),
            ("joint", norms.evaluate_norms, (weighted, st, st.data[2]))]:
        calls.clear()
        before = grid.transforms, grid.line_transforms
        fn(*args)
        line = sum(call == "line_slabs" for call in calls)
        assert (grid.transforms - before[0], grid.line_transforms
                - before[1]) == (len(calls) - line, grid.ndim * {
                    "e_n": 3, "joint": 4}.get(name, 2 * line))
        assert "to_physical" not in calls
        seen[name] = list(calls)
    assert seen["linf"] == ["physical_slabs"]
    assert seen["linf_riesz"] == ["physical_slabs"] * grid.ndim
    line = ["line_slabs"]
    assert seen["weighted_x_l2"] == line
    assert seen["weighted_lambda_x_h1"] == line
    assert seen["weighted_x2_lambda_h1"] == line
    # E_N's two moments share each line inverse: 3 line fields per axis
    # (not 4), and its L^1 and L^inf one band inverse
    assert seen["e_n"] == ["physical_slabs"] + line
    # the three weighted norms of one sample: x_l2 and lambda_x_h1 share
    # each line inverse and forward transform, 12 line fields in all (not
    # 18)
    assert seen["joint"] == line * 2
    assert "to_spectral" not in sum(seen.values(), [])
    # so does the L^p norm of the estimate harnesses, slab by slab
    calls.clear()
    lp_norm(grid, st.data[2], np.inf)
    assert calls == ["physical_slabs"]


@settings(max_examples=12, deadline=None)
@given(n=hst.sampled_from([16, 24]), ndim=hst.sampled_from([2, 3]),
       seed=hst.integers(0, 2 ** 16))
def test_joint_moments_equal_each_norm_alone(n, ndim, seed):
    # on random cubes, evaluating the weighted norms together (one line
    # inverse per axis and multiplier) returns exactly what each returns
    # alone, in any order and with the other kinds mixed in; so do the
    # moments of E_N when one _moments call shares their line inverses
    # with other weights of either power
    g = SpectralGrid(n, 5.0 + n / 3.0, ndim)
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(3,) + g.band_shape) + 1j * rng.normal(
        size=(3,) + g.band_shape)
    state = ev.StateField(g, data, 1.0)
    kinds = list(norms._MOMENTS) + ["linf", "sobolev"]
    rng.shuffle(kinds)
    specs = [norms.NormSpec(kind, "profile_w") for kind in kinds]
    assert norms.evaluate_norms(specs, state, data[1]) \
        == [norm_of(g, kind, data[1]) for kind in kinds]
    x_h2, lam_x2 = norms.energy_terms(g, data[0])[1:3]
    assert norms._moments(g, data[0], 1.0, [
        (1, 0, False), (2, 1, True), (1, 2, False), (2, 0, False),
        (1, 1, True)]) == [
            norm_of(g, "weighted_x_l2", data[0]), lam_x2, x_h2,
            norms._moments(g, data[0], 1.0, [(2, 0, False)])[0],
            norm_of(g, "weighted_lambda_x_h1", data[0])]


def _lp_alone(grid, fhat, p, multiplier=None):
    """The L^p quadrature of a band field from a band inverse of its own,
    as lp_norm computed it before one band inverse served several p."""
    slabs = (slab for _, slab in grid.physical_slabs(fhat, multiplier))
    if np.isinf(p):
        return float(max(np.max(np.abs(f)) for f in slabs))
    total = sum(np.sum(np.abs(f) ** p) for f in slabs)
    return float((total * grid.dx ** grid.ndim) ** (1.0 / p))


@settings(max_examples=12, deadline=None)
@given(n=hst.sampled_from([8, 15, 16]), ndim=hst.sampled_from([2, 3]),
       seed=hst.integers(0, 2 ** 16), riesz_j=hst.sampled_from([None, 0]))
def test_one_band_inverse_gives_every_lp_norm(n, ndim, seed, riesz_j):
    # lp_norms' one pass over the slabs of one band inverse returns, for
    # p = 1, 2 and infinity in any order, what a band inverse per p returns,
    # bit for bit, with or without a multiplier, on random cubes over
    # several slabs; lp_norm is lp_norms for one p
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_module, "_SLAB_BYTES", 3 * 16 * n ** (ndim - 1))
        g = SpectralGrid(n, 7.0, ndim)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=g.band_shape) + 1j * rng.normal(size=g.band_shape)
        m = None if riesz_j is None else (
            lambda rows: riesz(g, riesz_j, rows=rows))
        ps = [1, 2, np.inf]
        rng.shuffle(ps)
        before = g.transforms
        got = norms.lp_norms(g, x, ps, m)
        assert g.transforms == before + 1
        assert got == [_lp_alone(g, x, p, m) for p in ps]
        assert got == [lp_norm(g, x, p, m) for p in ps]


def _moments_unblocked(grid, fhat, multiplier, power, weights):
    """The weighted moments of one power as _moments defines them, from
    whole line-grid fields: per axis the zero-filled ifft of the cube,
    times x_j^power, then fft, with each weight's table of the whole arm."""
    k, n = grid.dealias_limit, grid.n
    arm = slice(None) if power == 1 else slice(k + 1, n - k)
    line_k = grid.dk * np.rint(np.fft.fftfreq(n) * n)[arm]
    xi_sq = sum(ax ** 2 for ax in (*grid.xi_axes[:-1], line_k))
    tables = [norms._sobolev_weight(xi_sq, *w) for w in weights]
    cube = np.zeros(grid.band_shape, dtype=complex)
    totals = [0.0] * len(weights)
    for j in range(grid.ndim):
        f = np.moveaxis(multiplier * fhat, j, -1)
        spec = np.zeros(f.shape[:-1] + (n,), dtype=complex)
        spec[..., grid.band_k % n] = f
        spec = np.fft.ifft(spec)
        spec *= grid.x_centered[-1] ** power
        spec = np.fft.fft(spec)
        rows = np.moveaxis(cube, j, -1)
        rows[..., :k + 1] += spec[..., :k + 1]
        rows[..., k + 1:] += spec[..., n - k:]
        totals = [total + norms._square_sum(grid, spec[..., arm], table)
                  for total, table in zip(totals, tables)]
    if power == 2:
        totals = [total + norms._square_sum(grid, cube, norms._sobolev_weight(
            grid.xi_norm ** 2, *w)) for total, w in zip(totals, weights)]
    return [float(np.sqrt(total)) for total in totals]


@settings(max_examples=12, deadline=None)
@given(n=hst.sampled_from([15, 16, 24]), ndim=hst.sampled_from([2, 3]),
       seed=hst.integers(0, 2 ** 16), lam=hst.booleans())
def test_blocked_moments_equal_the_unblocked_ones(n, ndim, seed, lam):
    # _moments in blocks of rows that do not divide the line grid's 2K+1
    # rows, both powers from one line inverse per axis, returns what whole
    # line-grid fields give each power alone, bit for bit, for the
    # multipliers 1 and |xi|
    with pytest.MonkeyPatch.context() as mp:
        g = SpectralGrid(n, 5.0 + n / 3.0, ndim)
        assert g.band_shape[0] % 2      # blocks of 2 of the 2K+1 rows
        mp.setattr(grid_module, "_LINE_BYTES",
                   2 * 16 * n * g.band_shape[0] ** (ndim - 2))
        rng = np.random.default_rng(seed)
        x = rng.normal(size=g.band_shape) + 1j * rng.normal(size=g.band_shape)
        ones, twos = [(0, False), (2, lam)], [(1, lam), (0, False)]
        for multiplier in (1.0, g.xi_norm):
            got = norms._moments(g, x, multiplier, [
                (1, *ones[0]), (2, *twos[0]), (1, *ones[1]), (2, *twos[1])])
            want = (_moments_unblocked(g, x, multiplier, 1, ones),
                    _moments_unblocked(g, x, multiplier, 2, twos))
            assert got == [want[0][0], want[1][0], want[0][1], want[1][1]]


def test_initial_energy_peaks_no_higher_than_with_a_line_inverse_per_moment():
    # E_N of three distinct components at n = 32 holds at its peak no more
    # than the 1,281,488 bytes it held when each moment ran its own line
    # inverse of whole line-grid fields (measured at that version on this
    # state): the band inverse of L^1 and L^inf sets the peak, and the
    # moments' blocks of rows stay under it
    g = SpectralGrid(32, 32.0)
    st = make_initial_data("gaussian_bump", g, 0.3, 0, width=[1.0, 2.5, 4.0])
    expect = norms.initial_energy(st)
    tracemalloc.start()
    try:
        assert norms.initial_energy(st) == expect
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_281_488, peak


_GRIDS = {n: SpectralGrid(n, 2 * np.pi) for n in (8, 16)}
_PLANS = {(n, name): pseudoproduct.PseudoproductPlan(g, symbol_preset(name))
          for n, g in _GRIDS.items() for name in ("one", "mixed")}
_SCALES = hst.floats(1e-3, 1e3)


@pytest.mark.parametrize("n, ndim", [(15, 2), (16, 3), (24, 3)])
def test_moments_weigh_their_arm_by_the_dense_mesh_xi_squared(
        n, ndim, monkeypatch):
    # each _moments call builds |xi|^2 on the points of the line grid that
    # its arm sums, the band of the other axes times every mode of the last
    # (power 1) or its n - 2K - 1 modes off the band (power 2), bit for bit
    # the dense mesh's sum of squares there, block by block of rows, the
    # same on every axis
    g = SpectralGrid(n, 8.0, ndim=ndim)
    monkeypatch.setattr(grid_module, "_LINE_BYTES",
                        3 * 16 * n * g.band_shape[0] ** (ndim - 2))
    k = g.dealias_limit
    mesh = sum(ax ** 2 for ax in full_xi_axes(g))
    tables, weight = [], norms._sobolev_weight

    def recorded(xi2, *w):
        if np.shape(xi2)[-1] != 2 * k + 1:    # a line grid's, not the cube's
            tables.append(xi2)
        return weight(xi2, *w)

    monkeypatch.setattr(norms, "_sobolev_weight", recorded)
    fhat = band_field(g, 2, np.random.default_rng(n))
    for power, arm in ((1, np.arange(n)), (2, np.arange(k + 1, n - k))):
        norms._moments(g, fhat, 1.0, [(power, 0, False)])
        lines = np.ix_(*[g.band_k % n] * (ndim - 1), arm)
        assert len(tables) > ndim
        assert np.array_equal(np.concatenate(tables),
                              np.concatenate([mesh[lines]] * ndim))
        tables.clear()


@settings(max_examples=30, deadline=None)
@given(n=hst.sampled_from([8, 16]), symbol=hst.sampled_from(["one", "mixed"]),
       c=_SCALES, c2=_SCALES, seed=hst.integers(0, 2 ** 16),
       p=hst.floats(1.0, 8.0, exclude_min=True), q_over_p=hst.floats(1.0, 4.0),
       holder=hst.tuples(hst.floats(1.0, 8.0), hst.floats(1.0, 8.0)))
def test_estimate_harnesses_are_homogeneous_of_degree_zero(
        n, symbol, c, c2, seed, p, q_over_p, holder):
    # both ratios are quotients of norms that each scale with the amplitude
    # of a field, so rescaling a field leaves them unchanged to rounding:
    # fractional_ratio on 1 < p <= q < infinity, holder_bound_ratio on
    # p, q in [1, infinity)
    g, plan = _GRIDS[n], _PLANS[n, symbol]
    rng = np.random.default_rng(seed)
    f, h = band_field(g, 2, rng), band_field(g, 2, rng)
    q = p * q_over_p
    pairs = [(norms.fractional_ratio(g, p, q, c * f),
              norms.fractional_ratio(g, p, q, f)),
             (norms.holder_bound_ratio(plan, c * f, c2 * h, *holder),
              norms.holder_bound_ratio(plan, f, h, *holder))]
    for scaled, ratio in pairs:
        assert ratio > 0.0
        assert abs(scaled - ratio) <= 1e-12 * ratio, (scaled, ratio)


def test_band_linf_is_the_max_of_the_band_inverse(monkeypatch):
    # several slabs, on a random cube: the max over slabs is the max over
    # the field, bit for bit, and the L^p sums over slabs are the sums
    # over the field, up to their order
    monkeypatch.setattr(grid_module, "_SLAB_BYTES", 5 * 16 * 24 ** 2)
    g = SpectralGrid(24, 11.0)
    rng = np.random.default_rng(4)
    x = rng.normal(size=g.band_shape) + 1j * rng.normal(size=g.band_shape)
    assert norms.band_linf(g, x) == lp_physical(
        g, g.to_physical(x), np.inf)
    for p in (1, 2, 3.5):
        assert lp_norm(g, x, p) == pytest.approx(
            lp_physical(g, g.to_physical(x), p), rel=1e-14, abs=0)


def test_linf_samples_hold_no_physical_field():
    # one L^inf or Riesz L^inf sample at n = 64 allocates less than one
    # complex n^3 field at its peak (the compact first pass, one slab
    # buffer and |slab|), 1/|xi| built inside the call included
    g = SpectralGrid(64, 32.0)
    fh = make_initial_data("gaussian_bump", g, 0.3, 0, width=2.0).data[2]
    field = 16 * g.size
    for kind in ("linf", "linf_riesz"):
        norms.NORM_KINDS[kind](g, fh)
        tracemalloc.start()
        try:
            norms.NORM_KINDS[kind](g, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < field, (kind, peak / field)


def test_parseval_sums_stay_on_the_cube():
    # the H^N norm of a 3-component state at n = 64 sums each component's
    # squares on its cube: the peak stays below one real n^3 array (the
    # grid's H^N weight is cached)
    g = SpectralGrid(64, 32.0)
    data = make_initial_data("gaussian_bump", g, 0.3, 0, width=2.0).data
    expect = norms.total_sobolev(g, data, norms.SOBOLEV_N)
    tracemalloc.start()
    try:
        assert norms.total_sobolev(g, data, norms.SOBOLEV_N) == expect
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * g.size, peak / (8 * g.size)


def test_weighted_norms_hold_no_n3_field():
    # at n = 64 the weighted norms hold fields of the line grid, n (2K+1)^2
    # entries, and never an n^3 one: E_N of three distinct components
    # peaks under half of the 18.1 MiB its n^d formulas took, and one
    # sample of the three weighted profile norms under one complex n^3
    # field (the line grid's |xi|^2 table is cached)
    g = SpectralGrid(64, 32.0)
    st = make_initial_data("gaussian_bump", g, 0.3, 0, width=[1.0, 2.5, 4.0])
    profile = ev.wave_profile(ev.StateField(g, st.data, 3.0))
    specs = [norms.NormSpec(kind, "profile_w") for kind in norms._MOMENTS]

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def sample():
        return norms.evaluate_norms(specs, st, profile)

    expect = norms.initial_energy(st), sample()
    assert peak(lambda: norms.initial_energy(st)) < 0.5 * 18.1 * 2 ** 20
    # evaluated together, they peak no higher than the costliest alone
    alone = max(peak(lambda: norms.evaluate_norm(spec, st, profile))
                for spec in specs)
    assert peak(sample) < min(16 * g.size, alone + 2 ** 16)
    assert (norms.initial_energy(st), sample()) == expect


def test_fit_decay_exact_power():
    t = np.linspace(1, 100, 200)
    v = t ** -1.25
    expo, resid = norms.fit_decay(t, v, (1, 100))
    assert abs(expo + 1.25) < 1e-12
    assert resid < 1e-12


def test_fit_decay_perturbed_power():
    # the multiplicative wiggle has period e^{2 pi} in t, so the window
    # must span a few log-periods for the slope bias to stay below 0.05
    t = np.logspace(0, 5, 400)
    v = 3.0 * t ** -0.75 * (1 + 0.1 * np.sin(np.log(t)))
    expo, _ = norms.fit_decay(t, v, (1, 1e5))
    assert abs(expo + 0.75) <= 0.05


def test_fit_decay_constant_series():
    t = np.linspace(1, 10, 20)
    expo, resid = norms.fit_decay(t, np.full_like(t, 2.5), (1, 10))
    assert abs(expo) < 1e-12


def test_fit_decay_errors():
    t = np.linspace(1, 10, 20)
    v = t.copy()
    v[5] = -1.0
    with pytest.raises(NonPositiveValues):
        norms.fit_decay(t, v, (1, 10))
    with pytest.raises(ValueError):
        norms.fit_decay(t[:5], t[:5], (1, 10))   # < 8 samples


def test_fit_exponential_rate():
    t = np.linspace(1, 20, 40)
    v = 5 * np.exp(-0.43 * t)
    rate, resid = norms.fit_exponential_rate(t, v, (1, 20))
    assert abs(rate - 0.43) < 1e-12 and resid < 1e-12


def test_m0_zero_fields():
    t = np.linspace(1, 30, 30)
    zero = np.zeros_like(t)
    series = {name: (t, zero) for name, _ in norms.M0_WEIGHTS["k_system"]}
    rep = norms.m0_functional("k_system", series, e_n=1.0)
    assert np.all(rep.m0 == 0.0)
    assert rep.bounded
    # E_N = 0: no constant is fitted, and M0 <= C * E_N iff M0 vanishes
    rep = norms.m0_functional("k_system", series, e_n=0.0)
    assert rep.fitted_c is None and rep.bounded
    series["u_sobolev"] = (t, np.full_like(t, 1e-300))
    rep = norms.m0_functional("k_system", series, e_n=0.0)
    assert rep.fitted_c is None and not rep.bounded


def test_m0_weight_cancels_exact_rate():
    t = np.linspace(1, 30, 60)
    series = {"u_sobolev": (t, t ** -0.75),
              "v_sobolev": (t, np.zeros_like(t))}
    rep = norms.m0_functional("k_system", series, e_n=1.0)
    assert np.max(np.abs(rep.m0 - 1.0)) < 1e-12


def test_m0_running_sup_monotone():
    rng = np.random.default_rng(3)
    t = np.linspace(1, 30, 50)
    series = {"u_sobolev": (t, np.abs(rng.normal(size=50))),
              "v_sobolev": (t, np.abs(rng.normal(size=50)))}
    rep = norms.m0_functional("k_system", series, e_n=2.0)
    assert np.all(np.diff(rep.m0) >= 0.0)
    assert rep.fitted_c == pytest.approx(np.max(rep.m0) / 2.0)


def test_m0_missing_series():
    t = np.linspace(1, 30, 30)
    with pytest.raises(MissingSeries):
        norms.m0_functional("k_system", {"u_sobolev": (t, t * 0 + 1)}, 1.0)
    with pytest.raises(MissingSeries):
        norms.m0_functional("k_system",
                            {"u_sobolev": (t, t * 0 + 1),
                             "v_sobolev": (t[:-1], t[:-1] * 0 + 1)}, 1.0)


def test_norm_spec_validation():
    with pytest.raises(ValueError):
        norms.NormSpec("weighted_x_l2", "u")
    with pytest.raises(ValueError):
        norms.NormSpec("bogus", "u")
    spec = norms.NormSpec("weighted_x_l2", "profile_w")
    assert spec.name == "profile_w_weighted_x_l2"
    assert norms.NormSpec.parse("weighted_x_l2:profile_w") == spec
    with pytest.raises(ValueError):
        norms.NormSpec.parse("sobolev:x")


def test_l2_is_a_norm_kind(grid):
    rng = np.random.default_rng(5)
    data = np.stack([band_field(grid, 4, rng) for _ in range(3)])
    st = ev.StateField(grid, data, 1.0)
    spec = norms.NormSpec.parse("l2:w")
    assert spec.name == "w_l2"
    assert norms.evaluate_norm(spec, st) \
        == norms.sobolev_norm(grid, data[2], 0)


def test_evaluate_norm_dispatch(grid):
    rng = np.random.default_rng(4)
    data = np.stack([band_field(grid, 4, rng) for _ in range(3)])
    st = ev.StateField(grid, data, 1.0)
    val = norms.evaluate_norm(norms.NormSpec("sobolev", "u"), st)
    assert val == norms.sobolev_norm(grid, data[0], norms.SOBOLEV_N)
    with pytest.raises(ValueError):
        norms.evaluate_norm(norms.NormSpec("weighted_x_l2", "profile_w"), st)
    prof = ev.wave_profile(st)
    assert norms.evaluate_norm(norms.NormSpec("weighted_x_l2", "profile_w"),
                               st, prof) > 0


def test_csv_is_deterministic(tmp_path):
    t = np.linspace(1, 5, 5)
    series = {"a": (t, t ** -1.0), "b": (t, t * 2)}
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    norms.write_series_csv(p1, series)
    norms.write_series_csv(p2, series)
    assert p1.read_bytes() == p2.read_bytes()
    header, first = p1.read_text().splitlines()[:2]
    assert header == "t,norm_name,value"
    assert first == "1.0,a,1.0"
