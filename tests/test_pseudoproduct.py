import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import record_transforms
from pdhyp import pseudoproduct as pp
from pdhyp import symbols as sy
from pdhyp.acceptance import band_field, nonresonant_symbols
from pdhyp.errors import CostCapExceeded, ExponentMismatch, GridMismatch
from pdhyp.grid import SpectralGrid
from pdhyp.norms import holder_bound_ratio, lambda_power, lp_norm


def _band_product(grid, f, h):
    """The band of the physical product of two band fields."""
    return grid.to_spectral(grid.to_physical(f) * grid.to_physical(h))


def test_identity_symbol_is_pointwise_product(grid16):
    # the Riemann sum, not the separable path, which computes this product
    rng = np.random.default_rng(0)
    f = band_field(grid16, 3, rng)
    h = band_field(grid16, 3, rng)
    plan = pp.PseudoproductPlan(grid16, sy.symbol_preset("one"))
    out = pp.apply_direct(plan, f, h)
    prod = _band_product(grid16, f, h)
    assert np.max(np.abs(out - prod)) <= 1e-12 * np.max(np.abs(prod))


def test_laplacian_symbol_against_multiplier_oracle(grid16):
    # m(xi, eta) = |eta|^2 applies -Delta to the second factor
    rng = np.random.default_rng(1)
    f = band_field(grid16, 3, rng)
    h = band_field(grid16, 3, rng)
    m = sy.BilinearSymbol.from_terms(
        "|eta|^2", [(1.0, (), (), (sy.NORM, sy.NORM))], singular=False)
    plan = pp.PseudoproductPlan(grid16, m)
    out = pp.apply(plan, f, h)
    oracle = _band_product(grid16, f, lambda_power(grid16.xi_norm, 2) * h)
    assert np.max(np.abs(out - oracle)) <= 1e-11 * np.max(np.abs(oracle))


def test_single_mode_convolution(grid16):
    f = np.zeros(grid16.band_shape, complex)
    h = np.zeros(grid16.band_shape, complex)
    f[2, 0, 0] = 1.5
    h[0, 1, 0] = -2.0
    m = sy.symbol_preset("null_b")
    plan = pp.PseudoproductPlan(grid16, m)
    out = pp.apply_direct(plan, f, h)
    k1, k2 = grid16.dk * np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    expect = m(k1 + k2, k2) * 1.5 * (-2.0) * grid16.d_eta
    assert out[2, 1, 0] == expect
    out[2, 1, 0] = 0.0
    assert np.all(out == 0.0)


def test_bilinearity(grid16):
    rng = np.random.default_rng(2)
    f1, f2, h = (band_field(grid16, 3, rng) for _ in range(3))
    plan = pp.PseudoproductPlan(grid16, sy.symbol_preset("null_b"))
    a = pp.apply(plan, 2.5 * f1 + f2, h)
    b = 2.5 * pp.apply(plan, f1, h) + pp.apply(plan, f2, h)
    assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a)))


_SYMBOLS = {"one": sy.symbol_preset("one"), **nonresonant_symbols()}


@pytest.mark.parametrize("name", list(_SYMBOLS))
def test_direct_vs_separable_3d(grid16, name, monkeypatch):
    rng = np.random.default_rng(3)
    f, h = (band_field(grid16, 3, rng) for _ in range(2))
    plan = pp.PseudoproductPlan(grid16, _SYMBOLS[name])
    a = pp.apply_direct(plan, f, h)
    transforms = record_transforms(monkeypatch)
    b = pp.apply(plan, f, h)
    assert transforms, "apply took the direct sum"
    scale = np.max(np.abs(a)) or 1.0
    assert np.max(np.abs(a - b)) <= 1e-10 * scale
    # the diagonal form T(f, f) runs on the symmetrized rows; the size of
    # T(f, h) sets the scale, since T(f, f) vanishes for null_b and
    # b_xi_unit
    a = pp.apply_direct(plan, f, f)
    b = pp.apply(plan, f, f)
    assert np.max(np.abs(a - b)) <= 1e-10 * max(scale, np.max(np.abs(a)))
    assert (not b.any()) == plan.vanishes_on_diagonal()
    if plan.vanishes_on_diagonal():
        assert np.max(np.abs(a)) <= 1e-10 * scale


_ATOMS = st.lists(st.sampled_from([sy.NORM, 0, 1, 2]), max_size=2).map(tuple)
_TERMS = st.lists(st.tuples(st.floats(-2.0, 2.0, allow_nan=False,
                                      allow_subnormal=False),
                            _ATOMS, _ATOMS, _ATOMS), min_size=1, max_size=4)


@settings(max_examples=15, deadline=None)
@given(terms=_TERMS, seed=st.integers(0, 2 ** 16))
def test_random_term_lists_agree_with_direct_sum(terms, seed):
    # any term list over the basis takes the separable path correctly
    g = SpectralGrid(8, 2 * np.pi)
    rng = np.random.default_rng(seed)
    f, h = band_field(g, 2, rng), band_field(g, 2, rng)
    plan = pp.PseudoproductPlan(g, sy.BilinearSymbol.from_terms("m", terms))
    a = pp.apply_direct(plan, f, h)
    scale = np.max(np.abs(a)) or 1.0
    assert np.max(np.abs(pp.apply(plan, f, h) - a)) <= 1e-10 * scale
    a = pp.apply_direct(plan, f, f)
    assert np.max(np.abs(pp.apply(plan, f, f) - a)) \
        <= 1e-10 * max(scale, np.max(np.abs(a)))


def count_factors(monkeypatch):
    """A list that collects the (atoms, c) of each symbols.factor
    evaluation from now on."""
    calls, factor = [], sy.factor
    monkeypatch.setattr(sy, "factor", lambda atoms, c, *args:
                        calls.append((atoms, c)) or factor(atoms, c, *args))
    return calls


def test_plan_compiles_both_forms_at_set_up(grid16, monkeypatch):
    # mixed: 5 terms over the atom products 1, |v|^2, |v| and v_0/|v|; the
    # plan evaluates each of the 3 non-constant ones once; T(f, g) stacks
    # f and g times 1, |v| and v_0/|v|, and T(f, f) keeps w^2 and w Lam w
    # while the b-terms cancel
    m = sy.symbol_preset("mixed")
    calls = count_factors(monkeypatch)
    plan = pp.PseudoproductPlan(grid16, m)
    atoms = [(), (sy.NORM, sy.NORM), (sy.NORM,), (0,)]
    assert len(m.terms) == 5 and list(plan.factors) == atoms
    assert calls == [(a, 1.0) for a in atoms[1:]]
    assert plan.factors[()] is None
    assert all(f.dtype == float for f in list(plan.factors.values())[1:])
    fields, groups = plan.general
    assert [side for side, _ in fields] == [0, 1, 0, 1, 0, 1]
    assert [f is plan.factors[a] for (_, f), a in zip(
        fields, [(), (), (sy.NORM,), (sy.NORM,), (0,), (0,)])] == [True] * 6
    alphas = [(sy.NORM, sy.NORM), (sy.NORM,), ()]
    assert [a is plan.factors[p] for (a, _), p in zip(groups, alphas)] \
        == [True] * 3
    assert [[c for c, _, _ in rows] for _, rows in groups] \
        == [[1.0], [-1.0, -1.0], [1.0, -1.0]]
    fields, groups = plan.diagonal
    assert [side for side, _ in fields] == [0, 0]
    assert [[c for c, _, _ in rows] for _, rows in groups] == [[1.0], [-2.0]]
    assert not plan.vanishes_on_diagonal()
    assert pp.PseudoproductPlan(grid16, sy.symbol_preset("null_b")) \
        .vanishes_on_diagonal()

    # one product_spectra pass: a band inverse of the stacked fields and
    # a forward transform per group, and no factor evaluated;
    # grid.transforms counts each field
    calls.clear()
    transforms = record_transforms(monkeypatch, slabs=True)
    f = band_field(grid16, 3, np.random.default_rng(8))
    before = grid16.transforms
    pp.apply(plan, f, f)
    assert transforms == ["product_spectra"]
    assert grid16.transforms - before == 4
    transforms.clear()
    before = grid16.transforms
    pp.apply(plan, f, f.copy())    # 3 factors per side, 3 groups
    assert transforms == ["product_spectra"]
    assert grid16.transforms - before == 9 and calls == []


def test_a_coefficient_off_one_rides_on_its_row(grid16):
    # 2.5 |xi| phi_w + 0.5 (1, 0, 0) . grad_eta phi_w: the coefficients
    # multiply the products in physical space, and alpha stays |xi|
    m = sy.make_nonresonant_symbol([(2.5, (sy.NORM,), (), ())],
                                   [[(0.5, (), (), ())], None, None])
    plan = pp.PseudoproductPlan(grid16, m)
    assert [[c for c, _, _ in rows] for _, rows in plan.general[1]] \
        == [[2.5], [-2.5, -2.5], [0.5, -0.5]]
    assert plan.general[1][1][0] is plan.factors[(sy.NORM,)]
    assert [[c for c, _, _ in rows] for _, rows in plan.diagonal[1]] \
        == [[2.5], [-5.0]]
    rng = np.random.default_rng(11)
    f, h = (band_field(grid16, 3, rng) for _ in range(2))
    a = pp.apply_direct(plan, f, h)
    scale = np.max(np.abs(a))
    assert np.max(np.abs(pp.apply(plan, f, h) - a)) <= 1e-10 * scale
    a = pp.apply_direct(plan, f, f)
    assert np.max(np.abs(pp.apply(plan, f, f) - a)) \
        <= 1e-10 * max(scale, np.max(np.abs(a)))


@pytest.mark.parametrize("n", [16, 24, 64])
def test_factor_tables_equal_the_dense_stack_evaluation(n):
    # the plan evaluates its factors on the grid's sparse axes and cached
    # |xi|: bit for bit the evaluation on the dense (2K+1)^3 x 3 stack of
    # wavevectors and its np.linalg.norm, one per product of atoms
    g = SpectralGrid(n, 3.0 * n)
    xi = np.stack(np.broadcast_arrays(*g.xi_axes), axis=-1)
    norm = np.linalg.norm(xi, axis=-1)
    assert np.array_equal(g.xi_norm, norm)

    def dense(atoms):
        value = np.full(norm.shape, 1.0)
        for atom in atoms:
            value = value * (norm if atom == sy.NORM else np.where(
                norm > 0, xi[..., atom] / np.where(norm > 0, norm, 1.0), 0.0))
        return value

    for name, m in _SYMBOLS.items():
        factors = pp.PseudoproductPlan(g, m).factors
        assert list(factors) == list(dict.fromkeys(
            [()] + [atoms for _, *slots in m.terms for atoms in slots])), name
        assert factors[()] is None
        for atoms, x in list(factors.items())[1:]:
            y = dense(atoms)
            assert x.dtype == y.dtype and np.array_equal(x, y), (name, atoms)


def test_separable_path_takes_the_band_of_a_dealiasing_plan(
        grid16, monkeypatch):
    f = band_field(grid16, 3, np.random.default_rng(9))
    plan = pp.PseudoproductPlan(grid16, sy.symbol_preset("mixed"))
    calls = record_transforms(monkeypatch, slabs=True)
    pp.apply(plan, f, f.copy())
    assert calls == ["product_spectra"]


def test_direct_vs_separable_2d():
    g = SpectralGrid(64, 2 * np.pi, ndim=2)
    rng = np.random.default_rng(4)
    f, h = (band_field(g, 5, rng) for _ in range(2))
    plan = pp.PseudoproductPlan(g, sy.symbol_preset("null_b"))
    a = pp.apply_direct(plan, f, h)
    b = pp.apply(plan, f, h)
    scale = np.max(np.abs(a)) or 1.0
    assert np.max(np.abs(a - b)) <= 1e-10 * scale


def test_output_support_within_sum_of_bands(grid16):
    # checked exactly on single modes; here: band-2 inputs stay within
    # band 4 of the cube (K = 5)
    rng = np.random.default_rng(5)
    f = band_field(grid16, 2, rng)
    h = band_field(grid16, 2, rng)
    plan = pp.PseudoproductPlan(grid16, sy.symbol_preset("one"))
    out = pp.apply(plan, f, h)
    modes = np.meshgrid(*[np.abs(grid16.band_k)] * 3, indexing="ij")
    outside = np.maximum.reduce(modes) > 4
    assert outside.any() and np.max(np.abs(out[outside])) < 1e-14


def test_apply_picks_the_path_from_the_symbol(grid16, monkeypatch):
    transforms = record_transforms(monkeypatch)
    rng = np.random.default_rng(10)
    f = band_field(grid16, 3, rng)
    pp.apply(pp.PseudoproductPlan(grid16, sy.symbol_preset("mixed")), f, f)
    assert transforms
    # mu0 has no factorization: the direct sum, with no transform at all
    g = SpectralGrid(8, 2 * np.pi)
    f, h = band_field(g, 2, rng), band_field(g, 2, rng)
    plan = pp.PseudoproductPlan(g, sy.symbol_preset("mu0"))
    transforms.clear()
    out = pp.apply(plan, f, h)
    assert transforms == [] and out.any()
    assert np.array_equal(out, pp.apply_direct(plan, f, h))


def test_grid_mismatch(grid16):
    g = SpectralGrid(8, 2 * np.pi)
    plan = pp.PseudoproductPlan(grid16, sy.symbol_preset("one"))
    with pytest.raises(GridMismatch):
        pp.apply(plan, np.zeros(g.band_shape, complex),
                 np.zeros(g.band_shape, complex))
    # a plan takes the cube, not the n^d layout
    full = np.zeros(grid16.shape, complex)
    with pytest.raises(GridMismatch):
        pp.apply(plan, full, full)


def test_cost_cap():
    g = SpectralGrid(64, 2 * np.pi)
    plan = pp.PseudoproductPlan(g, sy.symbol_preset("mu0"))
    f = np.zeros(g.band_shape, complex)
    with pytest.raises(CostCapExceeded):
        pp.apply(plan, f, f)
    # output modes times input modes of the band's cube
    assert pp.direct_sum_terms(64) == 43 ** 6 > pp.TERM_CAP
    assert pp.direct_sum_terms(32) == 21 ** 6 < pp.TERM_CAP


def test_direct_sum_evaluates_the_counted_terms():
    # the direct sum runs over the cube's modes only: (2K+1)^(2d) symbol
    # evaluations, against n^(2d) on the grid
    g = SpectralGrid(8, 2 * np.pi, ndim=2)
    m = sy.symbol_preset("mu0")
    evaluated = []
    plan = pp.PseudoproductPlan(g, sy.BilinearSymbol(
        "counted", lambda xi, eta: evaluated.append(len(eta)) or m(xi, eta),
        m.degree))
    f = band_field(g, 2, np.random.default_rng(12))
    pp.apply(plan, f, f)
    assert sum(evaluated) == pp.direct_sum_terms(8, 2) == 5 ** 4


def test_holder_ratio_cauchy_schwarz(grid16):
    rng = np.random.default_rng(7)
    f = band_field(grid16, 3, rng)
    h = band_field(grid16, 3, rng)
    plan = pp.PseudoproductPlan(grid16, sy.symbol_preset("one"))
    assert 0.0 < holder_bound_ratio(plan, f, h, 4.0, 4.0) <= 1.0
    assert holder_bound_ratio(plan, 0.0 * f, h, 4.0, 4.0) == 0.0


def test_holder_ratio_takes_s_from_the_symbol_degree(grid16):
    # aphi = |xi| phi_w has degree 2: the denominator carries W^{2,4}
    rng = np.random.default_rng(8)
    f = band_field(grid16, 3, rng)
    h = band_field(grid16, 3, rng)
    plan = pp.PseudoproductPlan(grid16, sy.symbol_preset("aphi"))
    assert plan.symbol.degree == 2
    lam2 = lambda_power(grid16.xi_norm, 2)
    f4, h4 = lp_norm(grid16, f, 4.0), lp_norm(grid16, h, 4.0)
    f_w24 = f4 + lp_norm(grid16, lam2 * f, 4.0)
    h_w24 = h4 + lp_norm(grid16, lam2 * h, 4.0)
    expect = (lp_norm(grid16, pp.apply(plan, f, h), 2.0)
              / (f_w24 * h4 + f4 * h_w24))
    assert holder_bound_ratio(plan, f, h, 4.0, 4.0) == expect


@pytest.mark.parametrize("p, q", [(0.5, 4.0), (4.0, 0.5), (4.0, np.inf)])
def test_holder_ratio_refuses_exponents_outside_its_domain(grid16, p, q):
    plan = pp.PseudoproductPlan(grid16, sy.symbol_preset("one"))
    f = np.ones(grid16.band_shape, complex)
    with pytest.raises(ExponentMismatch, match=r"p, q in \[1, infinity\)"):
        holder_bound_ratio(plan, f, f, p, q)
