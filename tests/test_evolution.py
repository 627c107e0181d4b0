import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as hst

from conftest import (band, conjugate_symmetry_defect, embed, full_physical,
                      full_spectral, r2_centered, record_band_inverses,
                      record_transforms)
from pdhyp import evolution as ev
from pdhyp import grid as grid_module
from pdhyp import experiments, norms, pseudoproduct, spectra
from pdhyp import symbols as sy
from pdhyp.acceptance import band_field
from pdhyp.errors import StepRejected
from pdhyp.grid import SpectralGrid


def bump_state(g, dim, amp, widths=None):
    widths = widths or [1.5] * dim
    data = np.zeros((dim,) + g.band_shape, complex)
    for i in range(dim):
        f = amp * (1 + 0.1 * i) * np.exp(-r2_centered(g)
                                         / (2 * widths[i] ** 2))
        data[i] = g.to_spectral(f)
    return ev.StateField(g, data, ev.T_INITIAL)


def flow(cache, state, t_target):
    """The exact linear flow exp(E (t_target - t)) of a state, for either
    sign of t_target - t; flow(cache, state, 0.0) is its profile."""
    g = state.grid
    G = spectra.propagator(g, cache, t_target - state.t)
    return ev.StateField(g, spectra.propagator_apply(G, state.data), t_target)


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid(16, 16.0)


def test_rhs_zero_state(grid):
    model = ev.ModelSpec("pk_system",
                         ev.Coefficients(a_u=1, b_u=1, c_u=1, a_v=1, b_v=1,
                                         c_v=1, d_v=1),
                         w_symbol=sy.symbol_preset("null_b"))
    zero = ev.StateField(grid, np.zeros((3,) + grid.band_shape), ev.T_INITIAL)
    out = ev.rhs(model, zero)
    assert np.all(out == 0.0)


def test_rhs_single_cosine_closed_form(grid):
    # k_system with a_u = 1, rest 0; u = A cos(k.x) gives
    # u^2 = A^2/2 + (A^2/4)(e^{2ik.x} + e^{-2ik.x})
    model = ev.ModelSpec("k_system", ev.Coefficients(a_u=1.0))
    A = 0.7
    st = ev.StateField(grid, np.zeros((2,) + grid.band_shape), ev.T_INITIAL)
    k = grid.dk
    x0 = np.broadcast_to(np.arange(grid.n)[:, None, None] * grid.dx, grid.shape)
    u_phys = A * np.cos(x0 * k)
    st.data[0] = grid.to_spectral(u_phys)
    out = ev.rhs(model, st)
    expect = band(grid,
                  full_spectral(grid, A ** 2 * (1 + np.cos(2 * x0 * k)) / 2))
    # three surviving modes: 0 and +-2k, at cube indices 0, 2 and -2
    assert np.max(np.abs(out[0] - expect)) < 1e-14 * np.max(np.abs(expect))
    nonzero = np.argwhere(np.abs(out[0]) > 1e-12)
    assert {tuple(i) for i in nonzero} == {(0, 0, 0), (2, 0, 0),
                                           (grid.band_k.size - 2, 0, 0)}
    assert np.max(np.abs(out[1])) == 0.0


def test_rhs_w_zero_for_pksw(grid):
    # with w = 0 both vw and T_m(w, w) vanish
    model = ev.ModelSpec("pk_system_w", w_symbol=sy.symbol_preset("null_b"))
    st = bump_state(grid, 3, 0.1)
    st.data[2] = 0.0
    out = ev.rhs(model, st)
    assert np.max(np.abs(out[2])) == 0.0


def test_coupling_placement(grid):
    st = bump_state(grid, 3, 0.1)
    base = ev.Coefficients(d_v=1.0)
    sym = sy.symbol_preset("one")
    uw = ev.rhs(ev.ModelSpec("pk_system", base, w_symbol=None,
                             coupling="uw"), st)
    vw_u = ev.rhs(ev.ModelSpec("pk_system", base, w_symbol=None,
                               coupling="vw_in_u"), st)
    vw_v = ev.rhs(ev.ModelSpec("pk_system", base, w_symbol=None,
                               coupling="vw_in_v"), st)
    g = grid

    def product(a, b):      # the band of the n^d product's transform
        phys = [full_physical(g, embed(g, c)) for c in (a, b)]
        return band(g, full_spectral(g, phys[0] * phys[1]))

    prod_uw = product(st.data[0], st.data[2])
    prod_vw = product(st.data[1], st.data[2])
    assert np.allclose(uw[1], prod_uw) and np.max(np.abs(uw[0])) == 0.0
    assert np.allclose(vw_u[0], prod_vw) and np.max(np.abs(vw_u[1])) == 0.0
    assert np.allclose(vw_v[1], prod_vw) and np.max(np.abs(vw_v[0])) == 0.0
    # pk_system_w fixes unit sources (v^2, v^2, vw + T_m)
    prod_vv = product(st.data[1], st.data[1])
    t_m = pseudoproduct.apply(pseudoproduct.PseudoproductPlan(g, sym),
                              st.data[2], st.data[2])
    for coupling in ("uw", "vw_in_w"):
        pksw = ev.rhs(ev.ModelSpec("pk_system_w", w_symbol=sym,
                                   coupling=coupling), st)
        assert np.allclose(pksw[0], prod_vv) and np.allclose(pksw[1], prod_vv)
        assert np.allclose(pksw[2], prod_vw + t_m)


def test_rhs_transforms_on_the_band(grid, monkeypatch):
    # the state and every source live on the band: the polynomial sources
    # and T_m(w, w) take one product_spectra pass each and no other
    # transform
    st = bump_state(grid, 3, 0.1)
    calls = record_transforms(monkeypatch, slabs=True)
    full = ev.Coefficients(a_u=1.0, b_v=1.0, c_u=1.0, d_v=1.0)
    ev.rhs(ev.ModelSpec("pk_system", full,
                        w_symbol=sy.symbol_preset("mixed")), st)
    assert calls == ["product_spectra"] * 2


def test_rhs_transforms_only_what_the_sources_use(grid, monkeypatch):
    # an rhs runs one product_spectra pass over the stack of the
    # components its rows use, a view of the state, with one forward
    # transform per distinct row, then one over the stacked factor fields
    # of T_m(w, w) with one per group; grid.transforms counts each field
    st = bump_state(grid, 3, 0.1)
    calls = record_transforms(monkeypatch)
    stacks = record_band_inverses(monkeypatch)

    def run(model, state=st):
        calls.clear()
        stacks.clear()
        before = grid.transforms
        out = ev.rhs(model, state)
        return out, grid.transforms - before

    out, count = run(ev.ModelSpec("pk_system", w_symbol=None))
    assert calls == stacks == [] and count == 0 and not out.any()
    out, count = run(ev.ModelSpec("pk_system", ev.Coefficients(
        a_u=1.0, a_v=2.0), w_symbol=None))
    assert calls == ["product_spectra"] and count == 2
    assert len(stacks) == 1 and np.array_equal(stacks[0], st.data[:1])
    assert np.array_equal(out[1], 2.0 * out[0]) and not out[2].any()
    # k-small-data's rows are equal: one inverse of (u, v), one forward
    k = ev.StateField(grid, st.data[:2], st.t)
    full = ev.Coefficients(a_u=1.0, b_u=1.0, c_u=1.0, a_v=1.0, b_v=1.0,
                           c_v=1.0)
    out, count = run(ev.ModelSpec("k_system", full), k)
    assert calls == ["product_spectra"] and count == 3
    assert len(stacks) == 1 and np.array_equal(stacks[0], k.data)
    assert np.array_equal(out[0], out[1]) and out[0].any()
    # d_v alone (uw): u and w, not v
    out, count = run(ev.ModelSpec("pk_system", ev.Coefficients(d_v=1.0),
                                  w_symbol=None))
    assert calls == ["product_spectra"] and count == 3
    assert len(stacks) == 1 and np.array_equal(stacks[0], st.data[::2])
    assert np.shares_memory(stacks[0], st.data)
    assert out[1].any() and not (out[0].any() or out[2].any())
    # pk-small-data's rows with mixed: (u, v, w) and 2 rows, then the 2
    # fields and 2 groups of T_m(w, w): 9 transforms
    full.d_v = 1.0
    out, count = run(ev.ModelSpec("pk_system", full,
                                  w_symbol=sy.symbol_preset("mixed")))
    assert [len(s) for s in stacks] == [3, 2] and count == 9
    assert calls == ["product_spectra"] * 2
    assert np.shares_memory(stacks[0], st.data)
    # null_b's symmetric part vanishes: T_m(w, w) costs no transform
    out, count = run(ev.ModelSpec("pk_system",
                                  w_symbol=sy.symbol_preset("null_b")))
    assert calls == stacks == [] and count == 0 and not out.any()


def _per_monomial_rhs(model, state, plan):
    """Reference source: every product transformed on the n^d grid on its
    own and restricted to the band, then summed per equation with its
    coefficient, and T_m(w, w) from the general form T(f, g); also the
    scale to compare at, which counts the transformed w^2 (null_b's
    T_m(w, w) is 0 up to rounding)."""
    g = state.grid
    phys = [full_physical(g, embed(g, c)) for c in state.data]
    product = lambda i, j: band(g, full_spectral(g, phys[i] * phys[j]))
    out = np.zeros_like(state.data)
    for eq, row in enumerate(model.sources):
        for m, coef in row.items():
            out[eq] += coef * product(*("uvw".index(c) for c in m))
    scale = np.max(np.abs(out))
    if model.dim_state == 3:
        scale = max(scale, np.max(np.abs(product(2, 2))))
    if model.w_form:
        out[2] += pseudoproduct.apply(plan, state.data[2], state.data[2].copy())
    return out, max(scale, np.max(np.abs(out)))


_GRID8 = SpectralGrid(8, 8.0)
_COEF = hst.sampled_from((0.0, 0.0, 1.0, -1.0, 0.5, 2.0, -3.0))


@settings(max_examples=40, deadline=None)
@given(coefs=hst.lists(_COEF, min_size=7, max_size=7),
       kind=hst.sampled_from(ev.MODEL_KINDS),
       coupling=hst.sampled_from(("uw", "vw_in_v", "vw_in_u")),
       symbol=hst.sampled_from(("one", "null_b", "aphi", "mixed")),
       copy_row=hst.booleans(), seed=hst.integers(0, 2 ** 16))
def test_fused_rhs_matches_per_monomial_sum(coefs, kind, coupling, symbol,
                                            copy_row, seed):
    c = ev.Coefficients(*coefs)
    if copy_row:    # a v-row that is a scalar multiple of the u-row
        c.a_v, c.b_v, c.c_v = -2.0 * c.a_u, -2.0 * c.b_u, -2.0 * c.c_u
    if kind == "k_system":
        c.d_v = 0.0
    if kind == "pk_system_w":
        c, coupling = ev.Coefficients(), "vw_in_w"
    model = ev.ModelSpec(kind, c, w_symbol=sy.symbol_preset(symbol),
                         coupling=coupling)
    rng = np.random.default_rng(seed)
    data = np.stack([band_field(_GRID8, 2, rng)
                     for _ in range(model.dim_state)])
    state = ev.StateField(_GRID8, data, ev.T_INITIAL)
    plan = pseudoproduct.PseudoproductPlan(_GRID8, model.w_symbol)
    got = ev.rhs(model, state, plan)
    expect, scale = _per_monomial_rhs(model, state, plan)
    assert np.max(np.abs(got - expect)) <= 1e-13 * scale


def test_model_validation():
    null_b = sy.symbol_preset("null_b")
    with pytest.raises(ValueError):
        ev.ModelSpec("pk_system", coupling="vw_in_w", w_symbol=None)
    with pytest.raises(ValueError):
        ev.ModelSpec("pk_system_w", w_symbol=None)
    with pytest.raises(ValueError, match="coefficients must be 0"):
        ev.ModelSpec("pk_system_w", ev.Coefficients(a_u=7.0), w_symbol=null_b)
    with pytest.raises(ValueError, match="w-equation"):
        ev.ModelSpec("pk_system_w", w_symbol=null_b, coupling="vw_in_u")
    with pytest.raises(ValueError, match="d_v"):
        ev.ModelSpec("k_system", ev.Coefficients(d_v=1.0))
    with pytest.raises(ValueError):
        ev.ModelSpec("bogus")


def test_linear_step_is_exact(grid):
    model = ev.ModelSpec("pk_system", ev.Coefficients(), w_symbol=None)
    st0 = bump_state(grid, 3, 1.0)
    for scheme in ("ifrk2", "ifrk4"):
        stepper = ev.Stepper(model, grid, dt=1.7, scheme=scheme)
        st = st0.copy()
        for _ in range(4):
            st = stepper.step(st)
        exact = flow(stepper.cache, st0, st.t).data
        assert np.max(np.abs(st.data - exact)) <= 1e-10


def test_source_free_step_is_the_exact_flow(grid, monkeypatch):
    # no sources: one apply of exp(E dt), which both Lawson schemes reduce
    # to when every stage source is zero
    model = ev.ModelSpec("pk_system", ev.Coefficients(), w_symbol=None)
    st0 = bump_state(grid, 3, 1.0)
    for scheme in ("ifrk2", "ifrk4"):
        stepper = ev.Stepper(model, grid, dt=1.7, scheme=scheme)
        assert stepper.source_free and stepper.G_half is None
        lawson = ev.Stepper(model, grid, dt=1.7, scheme=scheme)
        lawson.source_free = False
        if scheme == "ifrk4":
            lawson.G_half = spectra.propagator(grid, lawson.cache, 1.7 / 2.0)
        expect = lawson.step(st0)
        with monkeypatch.context() as mp:
            mp.setattr(ev, "rhs", None)    # the exact step calls no rhs
            got = stepper.step(st0)
        assert np.array_equal(got.data, expect.data)


def test_no_stepper_or_run_calls_the_dense_matrix_exponential(monkeypatch,
                                                              tmp_path):
    # the Green function is one closed form on every shell, the branch
    # point |xi| = 1/2 included: the |k| = 5 shells of an L = 20 pi grid
    # lie on it
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg.expm called")

    monkeypatch.setattr(scipy.linalg, "expm", refuse)
    g = SpectralGrid(16, 20 * np.pi)
    for model in (
            ev.ModelSpec("pk_system", w_symbol=sy.symbol_preset("mixed")),
            ev.ModelSpec("k_system", ev.Coefficients(a_u=1.0)),
            ev.ModelSpec("pk_system_w", w_symbol=sy.symbol_preset("null_b"))):
        for scheme in ("ifrk2", "ifrk4"):
            stepper = ev.Stepper(model, g, dt=1.0, scheme=scheme)
            assert stepper.cache.degenerate_mask.any()
            stepper.step(bump_state(g, model.dim_state, 1e-3))
    res = experiments.run(experiments.load_preset("pk-small-data").override(
        ["grid.n=16", f"grid.length={20 * np.pi!r}", "time.t_max=5.0",
         f"output.dir={tmp_path}"]))
    assert res.report["status"] == "completed"


def test_stepper_builds_the_factor_table_in_set_up(grid, monkeypatch):
    # the Stepper evaluates the 2 atom products of mixed's T(w, w), |v|
    # and |v|^2, not v_0/|v|, which only T(f, g) reads; its steps
    # evaluate none
    m = sy.symbol_preset("mixed")
    calls, factor = [], sy.factor
    monkeypatch.setattr(sy, "factor", lambda *args:
                        calls.append(args[0]) or factor(*args))
    stepper = ev.Stepper(ev.ModelSpec("pk_system", w_symbol=m), grid, dt=1.0)
    assert sorted(calls) == [(sy.NORM,), (sy.NORM, sy.NORM)]
    stepper.step(bump_state(grid, 3, 0.1))
    assert len(calls) == 2
    # a constant factor at points takes no |v|
    monkeypatch.setattr(sy, "_norm", None)
    xi = np.stack(np.broadcast_arrays(*grid.xi_axes), axis=-1)
    assert np.array_equal(sy._factor((), 2.5, xi),
                          np.full(grid.band_shape, 2.5))


def test_stepper_stores_the_block_per_mode_only():
    # what the Stepper holds for the linear flow (the symbol tables and both
    # propagators of an IFRK4 Stepper): the block rows per mode of the
    # planes k_0 = 0..K of the band's cube, everything else per |xi| shell
    g = SpectralGrid(32, 64.0)
    model = ev.ModelSpec("pk_system", ev.Coefficients(a_u=1.0), w_symbol=None)
    stepper = ev.Stepper(model, g, dt=1.0, scheme="ifrk4")
    c = stepper.cache
    counted = (c.E, c.eigvals, c.projectors, c.degenerate_mask, c.xi_norm,
               stepper.G_full, stepper.G_half)
    shells = np.unique(g.xi_norm).size
    half = (g.dealias_limit + 1) * g.band_shape[1] * g.band_shape[2]
    # E, eigvals, projectors as rows: 4 + 3 + 3 x 4 complex; mask and |xi|:
    # 1 + 8 bytes; two propagators: 2 x 4 complex per mode of the half cube
    per_shell = 16 * (4 + 3 + 12) + 1 + 8
    limit = half * 2 * 4 * 16 + shells * per_shell
    assert sum(a.nbytes for a in counted) <= limit


def test_wave_n128_flow_rows_hold_half_the_cube():
    # the source-free wave_n128 Stepper holds one propagator, 4 rows on
    # the 43 planes k_0 = 0..42 of the 85^3 cube: 19.0 MiB, not 37.5
    g = SpectralGrid(128, 256.0)
    stepper = ev.Stepper(ev.ModelSpec("pk_system"), g, dt=1.0)
    assert stepper.source_free and stepper.G_half is None
    assert stepper.G_full.shape == (4, 43, 85, 85)
    assert round(stepper.G_full.nbytes / 2 ** 20, 1) == 19.0


def _arrays(value):
    """The numpy arrays in an attribute value, inside tuples and lists."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in _arrays(v)]
    return []


@pytest.mark.parametrize("n", [15, 16])
def test_no_integer_table_per_mode(n):
    # the |xi| shells index the band's cube, not every mode of the grid
    g = SpectralGrid(n, 32.0)
    model = ev.ModelSpec("pk_system", ev.Coefficients(a_u=1.0),
                         w_symbol=sy.symbol_preset("mixed"))
    stepper = ev.Stepper(model, g, dt=1.0, scheme="ifrk4")
    stepper.step(bump_state(g, 3, 0.1))
    ev.wave_profile(bump_state(g, 3, 0.1))
    g.sobolev_weight    # every cached table built
    assert g.shells[1].shape == g.band_shape
    owners = (g, stepper, stepper.cache)
    found = [a for owner in owners for v in vars(owner).values()
             for a in _arrays(v)]
    assert len(found) > 10
    assert not [a.shape for a in found
                if np.issubdtype(a.dtype, np.integer) and a.size == g.size]


def test_a_run_leaves_no_per_call_table_held():
    # after initial_energy, one full pk sample and one step at n = 32, the
    # grid holds no array of the line grid's size and no 1/|xi|, and the
    # plan of null_b, whose T(w, w) vanishes, holds no factor array
    g = SpectralGrid(32, 64.0)
    model = ev.ModelSpec("pk_system", ev.Coefficients(a_u=1.0),
                         w_symbol=sy.symbol_preset("null_b"))
    state = bump_state(g, 3, 0.1)
    stepper = ev.Stepper(model, g, dt=1.0)
    norms.initial_energy(state)
    specs = [norms.NormSpec.parse(s)
             for s in experiments.DEFAULT_NORMS["pk_system"]]
    norms.evaluate_norms(specs, state, ev.wave_profile(state))
    stepper.step(state)
    held = [a for v in vars(g).values() for a in _arrays(v)]
    line = g.n * np.prod(g.band_shape[1:])
    inverse = 1.0 / np.where(g.xi_norm > 0, g.xi_norm, 1.0)
    assert len(held) > 10 and not [a.shape for a in held if a.size == line]
    assert not [a for a in held if a.shape == inverse.shape
                and np.array_equal(a, inverse)]
    plan = stepper.plan
    assert plan.vanishes_on_diagonal()
    assert all(f is None for f in plan.factors.values())
    assert not [a for v in vars(plan).values() for a in _arrays(v)]


def test_a_stepper_holds_its_stages_rows_and_diagonal_factors():
    # what an IFRK4 mixed Stepper allocates through its first step at
    # n = 32, less the new state, in complex band cubes: 5 stage stacks of
    # 3 fields (15), the rows of G_full and G_half on 11 of the 21 planes
    # (4.19), |v| and |v|^2 (1.0) and the per-shell symbol cache (0.96),
    # measured 21.15; 1/|xi| and v_0/|v| would add 0.5 each
    g = SpectralGrid(32, 64.0)
    g.shells    # the grid's table, which the Stepper reads
    state = bump_state(g, 3, 0.1)
    model = ev.ModelSpec("pk_system", ev.Coefficients(a_u=1.0),
                         w_symbol=sy.symbol_preset("mixed"))
    tracemalloc.start()
    try:
        stepper = ev.Stepper(model, g, dt=1.0, scheme="ifrk4")
        new = stepper.step(state)
        held = tracemalloc.get_traced_memory()[0] - new.data.nbytes
    finally:
        tracemalloc.stop()
    cube = 16 * np.prod(g.band_shape)
    named = sum(a.nbytes for a in (*stepper.stages, stepper.G_full,
                                   stepper.G_half) if a is not None)
    named += sum(f.nbytes for f in stepper.plan.factors.values()
                 if f is not None)
    assert named / cube == pytest.approx(20.19, abs=0.01)
    assert named < held <= 21.25 * cube, held / cube


def test_pure_wave_time_reversal(grid):
    model = ev.ModelSpec("pk_system", ev.Coefficients(), w_symbol=None)
    st0 = bump_state(grid, 3, 1.0)
    cache = spectra.build_symbol_cache(grid.shells[0], model.matrices())
    w0 = st0.data[2].copy()
    fwd = np.exp(-1j * grid.xi_norm * 0.9) * w0
    back = np.exp(+1j * grid.xi_norm * 0.9) * fwd
    assert np.max(np.abs(back - w0)) <= 1e-12 * np.max(np.abs(w0))


def test_self_convergence_orders(grid):
    model = ev.ModelSpec(
        "pk_system",
        ev.Coefficients(a_u=1.0, b_u=0.5, c_u=0.3, a_v=0.2, b_v=1.0,
                        c_v=0.1, d_v=1.0),
        w_symbol=sy.symbol_preset("null_b"), coupling="uw")
    st0 = bump_state(grid, 3, 0.2)
    t_end = 2.0

    def terminal(dt, scheme):
        stepper = ev.Stepper(model, grid, dt, scheme)
        st = st0.copy()
        for _ in range(round((t_end - st.t) / dt)):
            st = stepper.step(st)
        return st.data

    ref = terminal(1.0 / 128, "ifrk4")
    for scheme, target in (("ifrk2", 2.0), ("ifrk4", 4.0)):
        errs = [float(np.max(np.abs(terminal(dt, scheme) - ref)))
                for dt in (0.25, 0.125)]
        order = float(np.log2(errs[0] / errs[1]))
        assert abs(order - target) <= 0.3


def test_conjugate_symmetry_of_sources(grid):
    # quadratic sources preserve conjugate symmetry; the linear flow of
    # this Fourier-side model does not (the symbol is even in xi), which is
    # why no reality projection is applied during stepping
    model = ev.ModelSpec("pk_system",
                         ev.Coefficients(a_u=1, b_u=1, c_u=1, a_v=1, b_v=1,
                                         c_v=1, d_v=1),
                         w_symbol=sy.symbol_preset("null_b"))
    st = bump_state(grid, 3, 0.5)
    assert conjugate_symmetry_defect(grid, st.data) < 1e-13
    out = ev.rhs(model, st)
    for comp in out:
        assert conjugate_symmetry_defect(grid, comp) < 1e-12
    stepper = ev.Stepper(model, grid, dt=0.5, scheme="ifrk2")
    st1 = stepper.step(st)
    assert conjugate_symmetry_defect(grid, st1.data) > 1e-6   # complex flow


def test_blowup_guard():
    g = SpectralGrid(16, 16.0)
    model = ev.ModelSpec("k_system",
                         ev.Coefficients(a_u=5.0, a_v=5.0, b_u=5.0, b_v=5.0))
    st = bump_state(g, 2, 30.0)
    guard = ev.BlowupGuard.for_state(st)
    stepper = ev.Stepper(model, g, dt=0.5, scheme="ifrk2")
    with pytest.raises(StepRejected):
        for _ in range(60):
            st = stepper.step(st, guard)


def test_extract_profile_roundtrip(grid):
    model = ev.ModelSpec("pk_system", ev.Coefficients(), w_symbol=None)
    st0 = bump_state(grid, 3, 1.0)
    cache = spectra.build_symbol_cache(grid.shells[0], model.matrices())
    st = flow(cache, st0, 5.0)
    prof = flow(cache, st, 0.0)
    assert prof.t == 0.0
    # per-mode |f_w| = |w_hat| (unitary factor)
    assert np.max(np.abs(np.abs(prof.w_hat) - np.abs(st.w_hat))) < 1e-10
    # linear evolution has a time-constant profile
    prof0 = flow(cache, st0, 0.0)
    assert np.max(np.abs(prof.data - prof0.data)) <= 1e-9
    # reconstruction returns the state
    back = flow(cache, prof, st.t)
    assert np.max(np.abs(back.data - st.data)) < 1e-9
    # t = 0 profile equals the state (to rounding of the projector sum)
    st_t0 = ev.StateField(grid, st0.data, 0.0)
    assert np.max(np.abs(flow(cache, st_t0, 0.0).data
                         - st_t0.data)) < 1e-14


def test_extract_profile_warns_at_large_t(grid):
    model = ev.ModelSpec("pk_system", ev.Coefficients(), w_symbol=None)
    cache = spectra.build_symbol_cache(grid.shells[0], model.matrices())
    st = bump_state(grid, 3, 1.0)
    st.t = 60.0
    with pytest.warns(UserWarning):
        flow(cache, st, 0.0)


def test_wave_profile_unitary(grid):
    st = bump_state(grid, 3, 1.0)
    st.t = 7.0
    fw = ev.wave_profile(st)
    assert np.max(np.abs(np.abs(fw) - np.abs(st.w_hat))) < 1e-13
    with pytest.raises(AttributeError):     # a 2-component state has no w
        ev.wave_profile(ev.StateField(grid, st.data[:2], st.t))


def test_wave_profile_holds_one_cube():
    g = SpectralGrid(64, 256.0)
    st = bump_state(g, 3, 1.0)
    ev.wave_profile(st)     # builds the grid's shell tables
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ev.wave_profile(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 1.2 * st.w_hat.nbytes


def test_high_frequency_exponential_decay(grid):
    # |xi| > a content of the dissipative pair decays at a fitted
    # exponential rate bounded below (conservative floor)
    model = ev.ModelSpec("k_system", ev.Coefficients())
    st0 = bump_state(grid, 2, 1.0, widths=[0.8, 0.8])
    cache = spectra.build_symbol_cache(grid.shells[0], model.matrices())
    ts = np.arange(1.0, 21.0, 1.0)
    vals = []
    for t in ts:
        st = flow(cache, st0, t)
        high = st.data * (grid.xi_norm > 0.25)
        vals.append(norms.total_sobolev(grid, high, 0))
    rate, _ = norms.fit_exponential_rate(ts, np.asarray(vals), (1.0, 20.0))
    assert rate >= 0.05


def test_hot_paths_leave_the_state_bitwise_unchanged():
    # a fence for in-place work: every rhs, pseudoproduct, norm, guard and
    # step reads state.data and must never write it
    g = SpectralGrid(8, 8.0)
    rng = np.random.default_rng(11)
    state = ev.StateField(g, np.stack([band_field(g, 2, rng)
                                       for _ in range(3)]), ev.T_INITIAL)
    k_state = ev.StateField(g, state.data[:2], state.t)     # a view
    assert np.shares_memory(k_state.data, state.data)
    saved = state.data.copy()
    w = state.data[2]
    pk = ev.ModelSpec("pk_system", ev.Coefficients(
        a_u=1, b_u=1, c_u=1, a_v=1, b_v=1, c_v=1, d_v=1),
        w_symbol=sy.symbol_preset("mixed"))
    k = ev.ModelSpec("k_system", ev.Coefficients(a_u=1, b_v=-1, c_u=0.5))
    free = ev.ModelSpec("pk_system")
    calls = {"rhs pk mixed": lambda: ev.rhs(pk, state),
             "rhs k_system": lambda: ev.rhs(k, k_state),
             "initial_energy": lambda: norms.initial_energy(state),
             "guard": lambda: ev.BlowupGuard.for_state(state).check(state)}
    for name in ("mixed", "mu0"):           # the separable and direct paths
        plan = pseudoproduct.PseudoproductPlan(g, sy.symbol_preset(name))
        calls[f"{name} diagonal"] = lambda p=plan: pseudoproduct.apply(p, w, w)
        calls[f"{name} general"] = lambda p=plan: pseudoproduct.apply(
            p, w, state.data[0])
    for kind in norms.NORM_KINDS:     # each kind of every component
        spec = norms.NormSpec(kind, "profile_w")
        calls[kind] = lambda spec=spec: [norms.evaluate_norm(spec, state, c)
                                         for c in state.data]
    guard = ev.BlowupGuard(limit=np.inf)
    for model, scheme in ((pk, "ifrk2"), (pk, "ifrk4"), (free, "ifrk2")):
        stepper = ev.Stepper(model, g, 0.5, scheme)
        assert stepper.source_free == (model is free)
        calls[f"step {scheme} {model.kind}"] = (
            lambda s=stepper: s.step(state, guard))
    for name, call in calls.items():
        call()
        assert state.data.tobytes() == saved.tobytes(), name


@pytest.mark.parametrize("kind, scheme", [("pk_system", "ifrk2"),
                                          ("k_system", "ifrk4")])
def test_a_steady_step_allocates_less_than_three_fields(kind, scheme):
    # the first step makes the stage stacks; a later step allocates its
    # new state and band temporaries only, less than 3 complex n^d fields
    # at n = 64 (a step that made its stages and physical products afresh
    # took about 45 MiB)
    g = SpectralGrid(64, 256.0)
    ones = dict.fromkeys(("a_u", "b_u", "c_u", "a_v", "b_v", "c_v"), 1.0)
    model = (ev.ModelSpec("pk_system", ev.Coefficients(**ones, d_v=1.0),
                          w_symbol=sy.symbol_preset("mixed"))
             if kind == "pk_system"
             else ev.ModelSpec("k_system", ev.Coefficients(**ones)))
    stepper = ev.Stepper(model, g, 2.0, scheme)
    state = stepper.step(bump_state(g, model.dim_state, 1e-3))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stepper.step(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 3 * 16 * g.size
    assert len(stepper.stages) == {"ifrk2": 3, "ifrk4": 5}[scheme]


def test_an_rhs_holds_no_n_cubed_array(monkeypatch):
    # one pk_system rhs with mixed on a fresh n = 32 grid, at 4 rows per
    # slab, peaks within its two product_spectra passes: a pass over F
    # fields and R rows holds pass 1's cube of max(F, R) rows, F slabs of
    # the band inverse, 2 of the row sum and its term and at most one of
    # numpy's copies when a forward pass packs its band, next to the
    # output and the pseudoproduct's stack of 2 cubes; one n^3 field
    # (0.5 MiB) more would not fit, and the grid keeps no array.  An rhs
    # on another grid first makes what numpy allocates once per process
    rows = 4
    monkeypatch.setattr(grid_module, "_SLAB_BYTES", rows * 16 * 32 ** 2)
    ones = dict.fromkeys(("a_u", "b_u", "c_u", "a_v", "b_v", "c_v"), 1.0)
    model = ev.ModelSpec("pk_system", ev.Coefficients(**ones, d_v=1.0),
                         w_symbol=sy.symbol_preset("mixed"))

    def fresh():    # a state and plan on a new grid
        g = SpectralGrid(32, 64.0)
        data = np.stack([band_field(g, 3, np.random.default_rng(i))
                         for i in range(3)])
        return (ev.StateField(g, data, ev.T_INITIAL),
                pseudoproduct.PseudoproductPlan(g, model.w_symbol))

    ev.rhs(model, *fresh())
    state, plan = fresh()
    g = state.grid
    held = {k for k, v in vars(g).items() if isinstance(v, np.ndarray)}
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = ev.rhs(model, state, plan)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    cube, slab = 16 * np.prod(g.band_shape), rows * 16 * 32 ** 2
    compact = 16 * g.n * np.prod(g.band_shape[1:])
    passes = [(3, 2, 0), (2, 2, 2)]     # (F, R, stacked cubes) per pass
    bound = out.nbytes + max(max(f, r) * compact + (f + 3) * slab + c * cube
                             for f, r, c in passes)
    assert len(plan.diagonal[0]) == len(plan.diagonal[1]) == 2
    assert peak <= bound < peak + 16 * g.size
    assert {k for k, v in vars(g).items() if isinstance(v, np.ndarray)} \
        == held


def test_a_source_free_stepper_makes_no_stages(grid):
    stepper = ev.Stepper(ev.ModelSpec("pk_system"), grid, 0.5)
    stepper.step(bump_state(grid, 3, 0.1))
    assert stepper.source_free and stepper.stages == []


def test_outputs_may_not_share_memory_with_inputs(grid):
    # rhs and propagator_apply read their input after they start writing
    # `out`, so an `out` that may overlap it is refused; a separate `out`
    # gets the bits of a new array, whatever it held before
    st = bump_state(grid, 3, 0.1)
    model = ev.ModelSpec("pk_system", ev.Coefficients(a_u=1.0),
                         w_symbol=sy.symbol_preset("mixed"))
    G = ev.Stepper(model, grid, 0.5).G_full
    for call in (lambda out: ev.rhs(model, st, out=out),
                 lambda out: spectra.propagator_apply(G, st.data, out=out)):
        for out in (st.data, st.data[::-1]):
            with pytest.raises(ValueError, match="out"):
                call(out)
        out = np.full_like(st.data, np.nan)
        assert call(out) is out
        assert out.tobytes() == call(None).tobytes()


def test_state_rejects_full_grid_data(grid):
    # the old (d, n^d) layout is refused loudly, naming the band's cube
    with pytest.raises(ValueError, match=r"band's cube \(11, 11, 11\)"):
        ev.StateField(grid, np.zeros((3,) + grid.shape), ev.T_INITIAL)


@pytest.mark.parametrize("kind, scheme", [
    ("pk_system", "ifrk2"), ("pk_system", "ifrk4"), ("k_system", "ifrk4"),
    ("pk_system_w", "ifrk2"), ("source_free", "ifrk2")])
def test_a_step_holds_only_band_cubes(grid, kind, scheme, monkeypatch):
    # the state, every rhs output and every stage array of a step of each
    # model kind (and of the exact flow) are stacks of the band's cube,
    # and the flow rows cover its planes k_0 = 0..K
    mixed = sy.symbol_preset("mixed")
    model = {"pk_system": ev.ModelSpec("pk_system", ev.Coefficients(
                 a_u=1.0, b_v=1.0, d_v=1.0), w_symbol=mixed),
             "k_system": ev.ModelSpec("k_system", ev.Coefficients(a_u=1.0)),
             "pk_system_w": ev.ModelSpec("pk_system_w", w_symbol=mixed),
             "source_free": ev.ModelSpec("pk_system")}[kind]
    cube = (model.dim_state,) + grid.band_shape
    half = (grid.dealias_limit + 1,) + grid.band_shape[1:]
    shapes = []
    apply, rhs = spectra.propagator_apply, ev.rhs

    def recorded_apply(G, x, **kw):
        out = apply(G, x, **kw)
        shapes.extend([G.shape[1:], x.shape, out.shape])
        return out

    def recorded_rhs(m, st, plan=None, **kw):
        out = rhs(m, st, plan, **kw)
        shapes.extend([st.data.shape, out.shape])
        return out

    monkeypatch.setattr(spectra, "propagator_apply", recorded_apply)
    monkeypatch.setattr(ev, "rhs", recorded_rhs)
    stepper = ev.Stepper(model, grid, 0.5, scheme)
    out = stepper.step(bump_state(grid, model.dim_state, 0.1))
    assert out.data.shape == cube
    applies, rhs_calls = ((1, 0) if kind == "source_free" else
                          {"ifrk2": (2, 2), "ifrk4": (6, 4)}[scheme])
    assert len(shapes) == 3 * applies + 2 * rhs_calls
    assert set(shapes) == {cube, half}
