import re
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense, full_xi_norm
from pdhyp import spectra
from pdhyp.grid import SpectralGrid


def _one_mode(s, model=None):
    """The symbol cache at the single |xi| = s (3x3 model by default)."""
    return spectra.build_symbol_cache(
        [s], model or spectra.three_component_model())


def test_linear_symbol_at_zero():
    m = spectra.three_component_model()
    assert np.array_equal(dense(_one_mode(0.0, m).E)[0], m.B.astype(complex))


def test_linear_symbol_unit_mode():
    E = dense(_one_mode(1.0).E)[0]
    expect = np.array([[0, -1j, 0], [-1j, -1, 0], [0, 0, -1j]])
    assert np.max(np.abs(E - expect)) == 0.0


def test_linear_symbol_half_norm():
    # |xi| = 0.5: same pattern with -0.5i
    E = dense(_one_mode(np.linalg.norm([0.3, 0.4, 0.0])).E)[0]
    expect = np.array([[0, -0.5j, 0], [-0.5j, -1, 0], [0, 0, -0.5j]])
    assert np.max(np.abs(E - expect)) < 1e-15


def test_eigen_at_zero():
    cache = _one_mode(0.0)
    assert np.allclose(cache.eigvals[:, 0], [0.0, -1.0, 0.0])
    assert np.allclose(dense(cache.projectors)[:, 0].sum(0), np.eye(3))


def test_eigen_at_0p3():
    cache = _one_mode(0.3)
    E, lam = dense(cache.E)[0], cache.eigvals[:, 0]
    P = dense(cache.projectors)[:, 0]
    assert np.allclose(lam, [-0.1, -0.9, -0.3j], atol=1e-14)
    # oracle: dense eigensolver on the same matrix
    solved = np.sort_complex(np.linalg.eigvals(E))
    assert np.allclose(np.sort_complex(lam), solved, atol=1e-12)
    # paper-form eigenvector: P1 fixes V1 = (1, -i(1-sqrt(1-4s^2))/(2s), 0)
    s = 0.3
    root = np.sqrt(1 - 4 * s ** 2)
    v1 = np.array([1.0, -1j * (1 - root) / (2 * s), 0.0])
    assert np.max(np.abs(P[0] @ v1 - v1)) < 1e-13
    # eigen relations and projector algebra
    for i in range(3):
        assert np.max(np.abs(E @ P[i] - lam[i] * P[i])) < 1e-13
        assert np.max(np.abs(P[i] @ P[i] - P[i])) < 1e-13
    assert np.max(np.abs(sum(l * p for l, p in zip(lam, P)) - E)) < 1e-13


def test_eigen_degenerate_band():
    # the projectors are unusable at the branch point 1/2
    assert _one_mode(0.5).degenerate_mask[0]
    # just outside the band they are usable, and the pair has continued
    # to -1/2 +- i q
    cache = _one_mode(0.502)
    assert not cache.degenerate_mask[0]
    lam = cache.eigvals[0, 0]
    assert abs(lam.real + 0.5) < 1e-12 and lam.imag > 0


def test_branch_continuation_above_half():
    lam1, lam2, _ = spectra._branch_eigvals(np.array([0.8]))
    q = np.sqrt(4 * 0.64 - 1) / 2
    assert np.allclose(lam1, -0.5 + 1j * q)
    assert np.allclose(lam2, -0.5 - 1j * q)


def test_projector_invariants_random_modes():
    rng = np.random.default_rng(7)
    lo = rng.uniform(1e-3, 0.45, size=5000)
    hi = rng.uniform(0.55, 10.0, size=5000)
    s = np.concatenate([lo, hi])
    cache = spectra.build_symbol_cache(
        s, spectra.three_component_model())
    P = dense(cache.projectors)
    eye = np.eye(3)
    assert np.max(np.abs(P.sum(0) - eye)) < 1e-12
    for i in range(3):
        for j in range(3):
            prod = np.einsum("mab,mbc->mac", P[i], P[j])
            target = P[i] if i == j else 0.0
            assert np.max(np.abs(prod - target)) < 1e-10
    recon = np.einsum("km,kmij->mij", cache.eigvals, P)
    assert np.max(np.abs(recon - dense(cache.E))) < 1e-10


def test_green_function_identity_and_zero_mode():
    g = SpectralGrid(8, 16.0)    # every |xi| of the grid, not only the band
    cache = spectra.build_symbol_cache(np.unique(full_xi_norm(g)),
                                       spectra.three_component_model())
    G0 = dense(spectra.green_function(cache, 0.0))
    assert np.max(np.abs(G0 - np.eye(3))) < 1e-14
    G2 = dense(spectra.green_function(cache, 2.0))
    i0 = 0  # shell of xi = 0, the smallest |xi|
    assert abs(G2[i0, 0, 0] - 1.0) < 1e-14
    assert abs(G2[i0, 1, 1] - np.exp(-2.0)) < 1e-14
    assert abs(G2[i0, 2, 2] - 1.0) < 1e-14


def test_green_semigroup_and_expm_oracle():
    # every |xi| of the grid, not only the band, and the branch point 1/2
    # with shells on either side of it inside the degenerate band
    g = SpectralGrid(8, 16.0)
    cache = spectra.build_symbol_cache(
        np.union1d(full_xi_norm(g), 0.5 + np.linspace(-9e-4, 9e-4, 7)),
        spectra.three_component_model())
    assert cache.degenerate_mask.sum() == 7
    Ga = dense(spectra.green_function(cache, 1.3))
    Gb = dense(spectra.green_function(cache, 0.9))
    Gab = dense(spectra.green_function(cache, 2.2))
    comp = np.einsum("mij,mjk->mik", Ga, Gb)
    assert np.max(np.abs(comp - Gab)) < 1e-9
    # the backward flow inverts the forward one
    back = np.einsum("mij,mjk->mik", Ga,
                     dense(spectra.green_function(cache, -1.3)))
    assert np.max(np.abs(back - np.eye(3))) < 1e-9
    rng = np.random.default_rng(8)
    G5, E = dense(spectra.green_function(cache, 5.0)), dense(cache.E)
    for i in np.r_[rng.choice(E.shape[0], 32, replace=False),
                   np.flatnonzero(cache.degenerate_mask)]:
        oracle = scipy.linalg.expm(E[i] * 5.0)
        assert np.max(np.abs(G5[i] - oracle)) < 1e-10


def test_green_continuous_across_band():
    # the closed form matches the matrix exponential through the
    # degenerate band, its edges and the branch point 1/2 included, and at
    # a subnormal t, where sinh(z)/z needs its series
    band = spectra.DEGENERATE_BAND
    s = np.r_[0.5 + np.linspace(-2 * band, 2 * band, 41),
              0.5 - band * 1.01, 0.5 + band * 1.01]
    cache = spectra.build_symbol_cache(s, spectra.three_component_model())
    for t in (3.0, -1.5, 2.2e-309):
        G = dense(spectra.green_function(cache, t))
        for Gi, Ei in zip(G, dense(cache.E)):
            assert np.max(np.abs(Gi - scipy.linalg.expm(Ei * t))) < 1e-8


_BAND_EDGES = (0.5 - spectra.DEGENERATE_BAND, 0.5 + spectra.DEGENERATE_BAND)


@settings(max_examples=60, deadline=None)
@given(s=st.sampled_from(_BAND_EDGES + (0.5, 0.0))
       | st.floats(0.5 - 2e-3, 0.5 + 2e-3)
       | st.floats(0.0, 10.0, allow_nan=False),
       t=st.floats(-8.0, 8.0, allow_nan=False),
       dim=st.sampled_from((2, 3)), seed=st.integers(0, 2 ** 16))
def test_block_propagator_matches_dense_expm(s, t, dim, seed):
    model = (spectra.three_component_model() if dim == 3
             else spectra.two_component_model())
    # a 4-point axis keeps the modes 0 and +-1, the cube [0, 1, -1], whose
    # half k_0 >= 0 is [0, 1]; the entries [0, s] stand for its two shells,
    # so modes 1 and -1 carry exp(E(s) t)
    g = SpectralGrid(4, 2 * np.pi, ndim=1)
    cache = spectra.build_symbol_cache([0.0, s], model)
    G = spectra.propagator(g, cache, t)
    assert G.shape == (dim + 1, 2)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    got = spectra.propagator_apply(G, x)
    # the oracle works in 30 digits: scipy's expm is itself off by up to
    # 1e-10 once the backward flow amplifies by e^8
    with mpmath.workdps(30):
        flow = mpmath.expm(mpmath.matrix(dense(cache.E)[1].tolist()) * t)
        expect = np.array((flow * mpmath.matrix(x[:, 1:].tolist())).tolist(),
                          dtype=complex)
    assert np.max(np.abs(got[:, 1:] - expect)) <= 1e-10


@pytest.mark.parametrize("dim", [2, 3])
def test_shell_green_equals_per_mode_green(dim):
    model = (spectra.three_component_model() if dim == 3
             else spectra.two_component_model())
    rng = np.random.default_rng(dim)
    for n, ndim in ((15, 2), (15, 3), (16, 2), (16, 3)):
        g = SpectralGrid(n, 8 * np.pi, ndim)   # |k| = 2 lies on |xi| = 1/2
        norms, index = g.shells
        cache = spectra.build_symbol_cache(norms, model)
        per_mode = spectra.build_symbol_cache(g.xi_norm, model)
        assert per_mode.degenerate_mask.any()
        u = rng.normal(size=(dim,) + g.band_shape) + 1j * rng.normal(
            size=(dim,) + g.band_shape)
        for t in (2.5, -0.7):
            green = spectra.green_function(cache, t)
            Gm = spectra.green_function(per_mode, t)
            Gm = Gm.reshape((dim + 1,) + g.band_shape)    # the rows, per mode
            G = spectra.propagator(g, cache, t)    # on the half cube
            assert G.shape == (dim + 1, len(index) // 2 + 1) + index.shape[1:]
            assert np.array_equal(_cube_rows(G), green[:, index])
            assert np.array_equal(_cube_rows(G), Gm)
            if dim == 3:   # the wave flow is unitary
                assert np.max(np.abs(np.abs(G[3]) - 1.0)) < 1e-14
            # the apply is the per-mode product
            expect = [Gm[0] * u[0] + Gm[1] * u[1], Gm[2] * u[1] + Gm[1] * u[0]]
            expect += [Gm[3] * u[2]] if dim == 3 else []
            assert np.array_equal(spectra.propagator_apply(G, u),
                                  np.array(expect))


def _flow_rows_and_fields(dim, n, t=2.0, seed=None):
    """The band rows of exp(E t) for the dim-component model on an n-point
    grid, and random fields (dim, *band_shape) to apply them to."""
    model = (spectra.three_component_model() if dim == 3
             else spectra.two_component_model())
    g = SpectralGrid(n, 256.0)
    G = spectra.propagator(g, spectra.build_symbol_cache(g.shells[0], model),
                           t)
    rng = np.random.default_rng(dim if seed is None else seed)
    x = rng.normal(size=(dim,) + g.band_shape) + 1j * rng.normal(
        size=(dim,) + g.band_shape)
    return G, x


def _cube_rows(G):
    """Band rows on the planes k_0 = 0..K expanded to the whole cube: plane
    k_0 < 0 is a copy of plane -k_0."""
    k = G.shape[1]
    return G[:, np.r_[0:k, k - 1:0:-1]]


def _per_mode_apply(G, x):
    """Rows on the whole cube applied mode by mode in the operation order
    of propagator_apply: G00 u + G01 v, G11 v + G01 u, then the phase."""
    expect = [G[0] * x[0], G[2] * x[1]]
    expect[0] += G[1] * x[1]
    expect[1] += G[1] * x[0]
    return np.array(expect + ([G[3] * x[2]] if len(x) == 3 else []))


@pytest.mark.parametrize("dim", [2, 3])
def test_propagator_apply_into_out_allocates_no_cube(dim):
    # given `out`, every off-diagonal product passes through one chunk-sized
    # scratch: the bits of the per-mode products, and at n = 64 a
    # tracemalloc peak of that scratch, for 3 rows and for 4
    G, x = _flow_rows_and_fields(dim, 64)
    expect = _per_mode_apply(_cube_rows(G), x)
    out = np.full_like(x, np.nan)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert spectra.propagator_apply(G, x, out=out) is out
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert out.tobytes() == expect.tobytes()
    row = x[0, 0].nbytes
    chunk = (spectra._CHUNK_MODES * 16 // row) * row
    assert chunk < 0.2 * x[0].nbytes
    assert peak < chunk + 4096


@pytest.mark.parametrize("dim", [2, 3])
def test_propagator_apply_over_many_chunks_and_views(dim):
    # at n = 64 the 22 planes k_0 = 0..K make chunks of 8 planes and a
    # ragged last chunk of 6, and the 21 planes k_0 < 0 go one by one;
    # strided views of `data`, `out` and the rows apply as the per-mode
    # product, bit for bit
    G, x = _flow_rows_and_fields(dim, 64, t=0.7, seed=10 + dim)
    rows = spectra._CHUNK_MODES // x[0, 0].size
    assert G.shape[1] // rows > 1 and G.shape[1] % rows
    expect = _per_mode_apply(_cube_rows(G), x)
    assert spectra.propagator_apply(G, x).tobytes() == expect.tobytes()
    # the same fields, the last two axes swapped and with a gap after each
    # field, and the rows (symmetric in the two axes) as a swapped view
    big = np.full((dim, x.shape[1] + 1) + x.shape[2:], np.nan, dtype=complex)
    data = big[:, :-1].transpose(0, 1, 3, 2)
    data[...] = x.transpose(0, 1, 3, 2)
    store = np.full((dim,) + x.shape[1:-1] + (2 * x.shape[-1],), np.nan,
                    dtype=complex)
    out = store[..., ::2]
    Gt = G.transpose(0, 1, 3, 2)
    assert not (data.flags.contiguous or out.flags.contiguous
                or Gt.flags.contiguous)
    assert spectra.propagator_apply(Gt, data, out=out) is out
    back = np.ascontiguousarray(out.transpose(0, 1, 3, 2))
    assert back.tobytes() == expect.tobytes()
    assert np.isnan(store[..., 1::2]).all()     # the gaps stay untouched


@pytest.mark.parametrize("dim", [2, 3])
def test_half_cube_rows_apply_as_the_whole_cube(dim, monkeypatch):
    # 3 and 4 rows on the planes k_0 = 0..K apply as their expansion to
    # the whole cube, bit for bit, with chunks of 3 planes, so that a chunk
    # ends on plane K = 5, into a fresh array and into `out`, on strided
    # views of `data`, `out` and the rows
    monkeypatch.setattr(spectra, "_CHUNK_MODES", 3 * 11 ** 2)
    g = SpectralGrid(16, 64.0)
    assert g.dealias_limit == 5
    model = (spectra.two_component_model() if dim == 2
             else spectra.three_component_model())
    cache = spectra.build_symbol_cache(g.shells[0], model)
    G = spectra.propagator(g, cache, 1.3)
    assert G.shape == (dim + 1, 6, 11, 11)
    rng = np.random.default_rng(dim)
    x = rng.normal(size=(dim,) + g.band_shape) + 1j * rng.normal(
        size=(dim,) + g.band_shape)
    expect = _per_mode_apply(_cube_rows(G), x)
    assert spectra.propagator_apply(G, x).tobytes() == expect.tobytes()
    out = np.full_like(x, np.nan)
    assert spectra.propagator_apply(G, x, out=out) is out
    assert out.tobytes() == expect.tobytes()
    # the fields with the last two axes swapped, in every other complex of
    # a buffer, and the rows (symmetric in those axes) as a swapped view
    data = np.full(x.shape + (2,), np.nan, dtype=complex)
    data[..., 0] = x.transpose(0, 1, 3, 2)
    store = np.full_like(data, np.nan)
    got = spectra.propagator_apply(G.transpose(0, 1, 3, 2), data[..., 0],
                                   out=store[..., 1])
    assert np.ascontiguousarray(got.transpose(0, 1, 3, 2)).tobytes() \
        == expect.tobytes()
    assert np.isnan(store[..., 0]).all()


def test_band_rows_gather_holds_little_more_than_the_rows():
    # the gather reads the int32 shell index in place: at n = 96 its
    # tracemalloc peak is within 1.1 times the rows it returns (np.take's
    # intp copy of the index would add half a row)
    g = SpectralGrid(96, 64.0)
    norms = g.shells[0]
    rng = np.random.default_rng(2)
    for r in (3, 4):
        table = rng.normal(size=(r, norms.size)) + 0j
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rows = spectra.band_rows(g, table)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert rows.shape == (r, 32, 63, 63) and rows.flags.c_contiguous
        assert peak <= 1.1 * rows.nbytes


@pytest.mark.parametrize("rows, fields",
                         [(4, 2), (3, 3), (1, 2), (3, 1), (1, 1)])
def test_propagator_apply_refuses_rows_that_do_not_fit(rows, fields):
    # 4 rows on (u, v) would apply the phase to v, 3 rows on (u, v, w)
    # would leave w's row of `out` unwritten, and one row is no block
    G = np.ones((rows, 3, 5), dtype=complex)
    x = np.ones((fields, 5, 5), dtype=complex)
    with pytest.raises(ValueError, match=rf"\({rows}, 3, 5\).*"
                                         rf"\({fields}, 5, 5\)"):
        spectra.propagator_apply(G, x)


def test_propagator_apply_refuses_out_of_another_shape():
    G, x = np.ones((3, 3, 5), dtype=complex), np.ones((2, 5, 5), dtype=complex)
    for shape in ((3, 5, 5), (2, 5, 4), (2, 25)):
        with pytest.raises(ValueError, match=r"\(2, 5, 5\)"):
            spectra.propagator_apply(G, x, out=np.empty(shape, dtype=complex))
    # rows on the whole cube, or on the wrong half, do not fit it
    for rows in ((3, 5, 5), (3, 2, 5), (3, 4, 5), (3, 3, 4)):
        with pytest.raises(ValueError,
                           match=re.escape(str(rows)) + r".*\(2, 5, 5\)"):
            spectra.propagator_apply(np.ones(rows, dtype=complex), x)


def test_damped_projection_is_the_per_mode_product():
    # P2 on every mode, and 0 on the degenerate band around |xi| = 1/2
    from pdhyp import evolution as ev
    from pdhyp import experiments

    g = SpectralGrid(16, 8 * np.pi)     # |k| = 2 lies on |xi| = 1/2
    cache = spectra.build_symbol_cache(g.shells[0],
                                       spectra.three_component_model())
    assert cache.degenerate_mask.any()
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3,) + g.band_shape) + 0j
    got = experiments.project_damped_branch(ev.StateField(g, x, 1.0), cache)
    P2 = np.where(cache.degenerate_mask, 0.0, cache.projectors[1])
    P2 = P2[:, g.shells[1]]
    assert np.array_equal(got.data, _per_mode_apply(P2, x))


@pytest.mark.parametrize("table_n", [20, 12])
@pytest.mark.parametrize("shape", [(3,), (4,)])
def test_band_rows_refuses_a_table_of_another_grid(table_n, shape):
    # 72 shells (n = 20) would gather silently onto the 47 of n = 16
    g = SpectralGrid(16, 8.0)
    other = len(SpectralGrid(table_n, 8.0).shells[0])
    table = np.zeros(shape + (other,), dtype=complex)
    with pytest.raises(ValueError, match=rf"table of {other} shells on a "
                                         rf"grid of {len(g.shells[0])}"):
        spectra.band_rows(g, table)


def test_decompose_green():
    # the low band |xi| <= 1/4 of a grid: exp(E t) splits into the diffusive
    # K = e^{lam1 t}P1, the damped Kexp = e^{lam2 t}P2 and the wave part
    # W = e^{-i|xi| t}P3
    g = SpectralGrid(16, 64.0)
    cache = spectra.build_symbol_cache(g.shells[0],
                                       spectra.three_component_model())
    band = cache.xi_norm <= 0.25

    def parts(t):
        return (np.exp(lam[band] * t)[:, None, None] * P[band]
                for lam, P in zip(cache.eigvals, dense(cache.projectors)))

    K, Kexp, W = parts(0.0)
    assert np.max(np.abs(K + Kexp + W - np.eye(3))) < 1e-12
    t = 10.0
    K, Kexp, W = parts(t)
    # the sum is the full Green function on the band
    G = dense(spectra.green_function(cache, t))[band]
    assert np.max(np.abs(K + Kexp + W - G)) < 1e-10
    # W carries only the (3,3) entry, modulus one
    assert np.max(np.abs(W[:, :2, :])) == 0.0
    assert np.max(np.abs(W[:, :, :2])) == 0.0
    assert np.max(np.abs(np.abs(W[:, 2, 2]) - 1.0)) < 1e-12
    # K decays like the slow branch: within a factor 2 of e^{-|xi|^2 t}
    s = cache.xi_norm[band]
    slow = np.nonzero((s > 0.05) & (s < 0.15))[0]
    assert slow.size > 0
    for i in slow:
        knorm = np.linalg.norm(K[i], 2)
        heat = np.exp(-s[i] ** 2 * t)
        assert heat / 2 <= knorm <= 2 * heat


def _up_to_sign(undamped):
    """(z, mu) pairs with the first nonzero entry of each z made positive."""
    return [(z * np.sign(z[np.flatnonzero(np.abs(z) > 1e-8)[0]]), mu)
            for z, mu in undamped]


def test_check_sk_three_component_violates():
    undamped = _up_to_sign(spectra.check_sk(spectra.three_component_model()))
    assert len(undamped) == 1
    z, mu = undamped[0]
    assert np.allclose(z, [0.0, 0.0, 1.0], atol=1e-12)
    assert abs(mu - 1.0) < 1e-12


def test_check_sk_two_component_satisfies():
    assert spectra.check_sk(spectra.two_component_model()) == []


def test_check_sk_full_dissipation_vacuous():
    model = spectra.ModelMatrices(np.diag([1.0, 1.0, 1.0]), -np.eye(3), 3)
    assert spectra.check_sk(model) == []


def test_symbol_cache_refuses_a_model_its_closed_forms_do_not_describe():
    # E = -i s I - I has eigenvalue -1 - 0.3i three times at s = 0.3; the
    # closed forms would report -0.1, -0.9 and -0.3i
    with pytest.raises(ValueError, match="closed forms"):
        spectra.build_symbol_cache(
            [0.3], spectra.ModelMatrices(np.eye(3), -np.eye(3), 3))
    for model in (spectra.three_component_model(),
                  spectra.two_component_model()):
        cache = spectra.build_symbol_cache([0.3], model)
        assert np.allclose(np.sort_complex(cache.eigvals[:, 0]),
                           np.sort_complex(np.linalg.eigvals(
                               dense(cache.E)[0])))


def test_check_sk_finds_exactly_the_undamped_directions():
    # damping w restores [SK] for the 3x3 model
    model = spectra.ModelMatrices(spectra.three_component_model().A,
                                  np.diag([0.0, -1.0, -1.0]), 3)
    assert spectra.check_sk(model) == []
    # no damping: every eigenvector of A is undamped
    A = spectra.two_component_model().A
    undamped = _up_to_sign(spectra.check_sk(
        spectra.ModelMatrices(A, np.zeros((2, 2)), 2)))
    assert len(undamped) == 2
    r = np.sqrt(0.5)
    for (z, mu), (z_want, mu_want) in zip(
            sorted(undamped, key=lambda p: p[1]),
            (([r, -r], -1.0), ([r, r], 1.0))):
        assert np.allclose(z, z_want, atol=1e-12) and abs(mu - mu_want) < 1e-12
    # A = I: every vector is an eigenvector, so ker B = span(e1) is undamped
    undamped = _up_to_sign(spectra.check_sk(
        spectra.ModelMatrices(np.eye(3), np.diag([0.0, -1.0, -1.0]), 3)))
    assert len(undamped) == 1
    assert np.allclose(undamped[0][0], [1.0, 0.0, 0.0], atol=1e-12)
    assert abs(undamped[0][1] - 1.0) < 1e-12


@pytest.mark.parametrize("model", [
    spectra.three_component_model(), spectra.two_component_model(),
    spectra.ModelMatrices(spectra.three_component_model().A,
                          np.zeros((3, 3)), 3)],
    ids=["three_component", "two_component", "undamped"])
def test_check_sk_kernels_are_scipys_null_space(model):
    # per eigenvalue mu of A, the undamped directions are scipy's null
    # space of [B; A - mu I] at the same cut, bit for bit (the last model
    # has a 2-dimensional one at mu = 1)
    undamped = spectra.check_sk(model)
    eye = np.eye(model.dim_state)
    for mu in np.unique(np.linalg.eigvalsh(model.A).round(10)):
        both = np.vstack([model.B, model.A - mu * eye])
        want = scipy.linalg.null_space(both, rcond=spectra._KERNEL_RTOL).T
        got = [z for z, speed in undamped if abs(speed - mu) < 1e-9]
        assert len(got) == len(want)
        assert all(z.tobytes() == w.tobytes() for z, w in zip(got, want))
