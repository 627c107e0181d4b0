import numpy as np
import pytest

from pdhyp import acceptance, symbols as sy
from pdhyp.errors import DegreeMismatch


def test_wave_phase_values():
    xi = np.array([1.0, 0.0, 0.0])
    assert sy.wave_phase(xi, xi / 2) == 0.0
    assert abs(sy.wave_phase(xi, np.array([0.0, 1.0, 0.0]))
               - (1 - np.sqrt(2) - 1)) < 1e-15


def test_wave_phase_nonpositive_and_homogeneous():
    rng = np.random.default_rng(0)
    xi = rng.normal(size=(2000, 3))
    eta = rng.normal(size=(2000, 3))
    vals = sy.wave_phase(xi, eta)
    assert np.all(vals <= 1e-14)
    assert np.max(np.abs(sy.wave_phase(2 * xi, 2 * eta) - 2 * vals)) < 1e-12


def test_wave_phase_vanishes_on_segment_only():
    rng = np.random.default_rng(1)
    xi, eta = sy.sample_spacetime_resonant_points(rng, 1000)
    assert np.max(np.abs(sy.wave_phase(xi, eta))) < 1e-12


def _grad_xi(xi, eta):
    """grad_xi of either phase, from its term lists."""
    return np.stack([sy.evaluate_terms(terms, xi, eta)
                     for terms in sy.WAVE_PHASE_GRAD_XI_TERMS], axis=-1)


def test_gradients_match_finite_differences():
    # grad_eta of the wave phase, and grad_xi of both phases
    rng = np.random.default_rng(2)
    step = 1e-5
    cases = ((sy.wave_phase, "eta", sy.wave_phase_grad_eta),
             (sy.wave_phase, "xi", _grad_xi),
             (sy.dissipative_phase, "xi", _grad_xi))
    for phase, var, gradient in cases:
        for _ in range(50):
            xi = rng.normal(size=3)
            eta = rng.normal(size=3) * 0.2   # keep |eta| < 1/2 mostly
            if min(np.linalg.norm(eta), np.linalg.norm(xi - eta),
                   np.linalg.norm(xi)) < 0.05:
                continue
            if abs(np.linalg.norm(eta) - 0.5) < 0.05:
                continue
            grad = np.asarray(gradient(xi, eta))
            for j in range(3):
                dv = np.zeros(3)
                dv[j] = step
                if var == "eta":
                    fd = phase(xi, eta + dv) - phase(xi, eta - dv)
                else:
                    fd = phase(xi + dv, eta) - phase(xi - dv, eta)
                fd /= 2 * step
                assert abs(grad[j] - fd) < 1e-6 * max(1.0, abs(fd))


def test_dissipative_phase_values():
    # Im phi = 2|eta|^2/(1 + sqrt(1-4|eta|^2)) at |eta| = 0.1
    xi = np.array([0.1, 0.0, 0.0])
    val = sy.dissipative_phase(xi, xi)
    assert abs(val.imag - 0.0101020514) < 1e-9
    assert abs(val.real - 0.1) < 1e-15   # |xi| - |xi - eta| with eta = xi
    # eta = 0 gives zero when xi - eta = xi
    assert sy.dissipative_phase(xi, np.zeros(3)) == 0.0
    # limit |eta| -> 1/2-: Im phi -> 1/2
    eta = np.array([0.4999999, 0.0, 0.0])
    assert abs(sy.dissipative_phase(xi, eta).imag - 0.5) < 1e-3


def test_dissipative_phase_im_nonneg():
    rng = np.random.default_rng(3)
    dirs = rng.normal(size=(500, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    eta = dirs * rng.uniform(0, 0.5, size=500)[:, None]
    xi = rng.normal(size=(500, 3))
    vals = sy.dissipative_phase(xi, eta)
    assert np.min(vals.imag) >= 0.0
    # no time resonances: |phi| >= Im phi >= |eta|^2/2 on the annulus
    n = np.linalg.norm(eta, axis=1)
    sel = (n >= 0.05) & (n <= 0.45)
    assert np.all(np.abs(vals[sel]) >= n[sel] ** 2 / 2)


def _unit(v):
    """v/|v|, and 0 at v = 0."""
    n = np.linalg.norm(v, axis=-1)
    return np.where(n[..., None] > 0.0,
                    v / np.where(n > 0.0, n, 1.0)[..., None], 0.0)


def _wave_phase(xi, eta):
    """phi_w = |xi| - |xi - eta| - |eta|, written out."""
    norm = lambda v: np.linalg.norm(v, axis=-1)
    return norm(xi) - norm(xi - eta) - norm(eta)


def _wave_phase_grad_eta(xi, eta):
    return _unit(xi - eta) - _unit(eta)


def _phase_grad_xi(xi, eta):
    return _unit(xi) - _unit(xi - eta)


def test_term_list_phases_equal_their_closed_forms():
    # random points plus the singular rays xi = 0, eta = 0 and xi = eta,
    # where every v/|v| takes the zero-mode value 0
    rng = np.random.default_rng(8)
    xi = rng.normal(size=(500, 3))
    eta = rng.normal(size=(500, 3))
    xi[:50] = 0.0
    eta[50:100] = 0.0
    eta[100:150] = xi[100:150]
    xi[150:160] = eta[150:160] = 0.0
    cases = ((sy.wave_phase, _wave_phase),
             (sy.wave_phase_grad_eta, _wave_phase_grad_eta),
             (_grad_xi, _phase_grad_xi))
    for derived, closed in cases:
        got, want = derived(xi, eta), closed(xi, eta)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.all(got == want)
        # one point at a time
        assert np.all(derived(xi[0], eta[3]) == closed(xi[0], eta[3]))


def test_classify_wave_resonances():
    # eta = 0.3 xi is time and space resonant: phi_w = 0, grad_eta phi_w = 0
    xi = np.array([1.0, 0.0, 0.0])
    assert abs(sy.wave_phase(xi, 0.3 * xi)) < 1e-15
    assert np.linalg.norm(sy.wave_phase_grad_eta(xi, 0.3 * xi)) < 1e-15
    # eta = e2 is neither
    e2 = np.array([0.0, 1.0, 0.0])
    assert abs(sy.wave_phase(xi, e2) + np.sqrt(2)) < 1e-14
    grad = sy.wave_phase_grad_eta(xi, e2)
    assert abs(np.linalg.norm(grad) - np.sqrt(2 + np.sqrt(2))) < 1e-15


def test_classify_dissipative_kills_time_resonance():
    # (e1, 0.1 e1) is time resonant for the wave phase, not for this one
    xi = np.array([1.0, 0.0, 0.0])
    eta = np.array([0.1, 0.0, 0.0])
    assert abs(sy.wave_phase(xi, eta)) < 1e-15
    assert abs(sy.dissipative_phase(xi, eta)) > 0.01


def test_null_b_matches_gradient_component():
    m = sy.symbol_preset("null_b")
    rng = np.random.default_rng(4)
    xi = rng.normal(size=(100, 3))
    eta = rng.normal(size=(100, 3))
    grad = _wave_phase_grad_eta(xi, eta)
    assert np.max(np.abs(m(xi, eta) - grad[..., 0])) < 1e-14
    # vanishes at the midpoint resonance
    one = np.array([1.0, 0.3, -0.2])
    assert abs(m(one, one / 2)) < 1e-15


def test_aphi_vanishes_on_segment():
    m = sy.symbol_preset("aphi")
    xi = np.array([2.0, 1.0, 0.0])
    for s in (0.1, 0.5, 0.9):
        assert abs(m(xi, s * xi)) < 1e-14


def test_nonresonant_degree_mismatch():
    with pytest.raises(DegreeMismatch):     # a of degree 0
        sy.make_nonresonant_symbol([(1.0, (), (), ())], None)
    with pytest.raises(DegreeMismatch):     # a component of b of degree 1
        sy.make_nonresonant_symbol(None, [[(1.0, (sy.NORM,), (), ())]])
    with pytest.raises(DegreeMismatch):
        sy.make_nonresonant_symbol(None, None)


def _generic_points(rng, count):
    """Random (xi, eta) pairs at distance > 1e-2 from the singular rays."""
    while True:
        xi = rng.normal(size=(count, 3))
        eta = rng.normal(size=(count, 3))
        if min(np.min(np.linalg.norm(v, axis=-1))
               for v in (xi, eta, xi - eta)) > 1e-2:
            return xi, eta


_TERM_LIST_SYMBOLS = {"one": sy.symbol_preset("one"),
                      **acceptance.nonresonant_symbols()}


def test_termwise_homogeneity():
    # the exact degree of each term against a sampled scaling of its value
    rng = np.random.default_rng(5)
    for name, m in _TERM_LIST_SYMBOLS.items():
        degrees = [sy.term_degree(term) for term in m.terms]
        assert m.degree == max(degrees)
        for term, degree in zip(m.terms, degrees):
            piece = sy.BilinearSymbol.from_terms(name, [term])
            xi, eta = _generic_points(rng, 64)
            base = piece(xi, eta)
            ref = np.where(np.abs(base) > 1e-13, np.abs(base), 1.0)
            for lam in (0.5, 2.0, 7.0):
                err = np.abs(piece(lam * xi, lam * eta) - lam ** degree * base)
                assert np.max(err / (lam ** degree * ref)) < 1e-8, (name, term)
    assert [sy.term_degree(t) for t in sy.symbol_preset("mixed").terms] \
        == [2, 2, 2, 0, 0]


def _closed_form(name, xi, eta):
    """(a, b) of a nonresonant symbol written out directly."""
    zero = np.zeros(xi.shape[:-1])
    unit = lambda v: v / np.linalg.norm(v, axis=-1)[..., None]
    e_x = np.zeros(xi.shape)
    e_x[..., 0] = 1.0
    return {"null_b": (zero, e_x),
            "aphi": (np.linalg.norm(xi, axis=-1), 0.0 * e_x),
            "mixed": (np.linalg.norm(xi, axis=-1), e_x),
            "a_eta": (np.linalg.norm(eta, axis=-1), 0.0 * e_x),
            "a_xi_eta": (np.linalg.norm(xi - eta, axis=-1), 0.0 * e_x),
            "b_xi_unit": (zero, unit(xi)),
            "b_eta_unit": (zero, unit(eta))}[name]


def test_separable_factorizations_agree():
    rng = np.random.default_rng(6)
    xi, eta = _generic_points(rng, 1000)
    for name, m in _TERM_LIST_SYMBOLS.items():
        direct = m(xi, eta)
        # the evaluator against a phi_w + b . grad_eta phi_w written out
        if name != "one":
            a, b = _closed_form(name, xi, eta)
            oracle = a * _wave_phase(xi, eta) + np.sum(
                b * _wave_phase_grad_eta(xi, eta), axis=-1)
            rel = np.abs(direct - oracle) / np.maximum(np.abs(oracle), 1.0)
            assert np.max(rel) <= 1e-12, name
        # the separable factors multiply back to the evaluator
        total = sum(alpha(xi) * beta(xi - eta) * gamma(eta)
                    for alpha, beta, gamma in m.separable_terms)
        scale = np.maximum(np.abs(direct), 1e-13)
        assert np.max(np.abs(total - direct) / scale) < 1e-10, name


def test_mu0_collinear_zero_and_bounded():
    m = sy.symbol_preset("mu0")
    xi = np.array([2.0, 0.0, 0.0])
    eta = np.array([1.0, 0.0, 0.0])  # xi parallel to xi - eta
    assert abs(m(xi, eta)) == 0.0
    # bounded on the low-|xi| region with |eta|, |xi - eta| ~ 1
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(500):
        xi = rng.normal(size=3) * 0.05
        eta = rng.normal(size=3)
        eta *= rng.uniform(0.8, 1.2) / np.linalg.norm(eta)
        if np.linalg.norm(xi - eta) < 0.5:
            continue
        worst = max(worst, abs(m(xi, eta)))
    assert np.isfinite(worst) and worst < 20.0


def test_mu0_denominator_floor():
    # |Re(i phi)| = Im phi >= 2(0.09)/(1+sqrt(0.64)) = 0.1 at |eta| = 0.3
    m = sy.mu0_symbol(1e12)
    xi = np.array([0.4, 0.2, 0.0])
    eta = np.array([0.3, 0.0, 0.0])
    phi = sy.dissipative_phase(xi, eta)
    assert abs((1j * phi).real) >= 0.1 - 1e-12
    assert np.isfinite(m(xi, eta))


def test_mu0_near_scale_invariance():
    # 1/s breaks exact homogeneity; continuity near lambda = 1 instead
    m = sy.mu0_symbol(10.0)
    rng = np.random.default_rng(8)
    for _ in range(50):
        xi = rng.normal(size=3) * 0.1
        eta = rng.normal(size=3)
        eta /= np.linalg.norm(eta) * rng.uniform(0.9, 1.4)
        base = m(xi, eta)
        for lam in (0.95, 1.05):
            drift = abs(m(lam * xi, lam * eta) - base)
            assert drift <= 0.25 * (1.0 + abs(base))


def test_class_membership_bounded_and_ray_continuous():
    # bounded, and continuous along the rays xi = r d, r -> 0, in the
    # regime |xi| << |eta| ~ 1
    rng = np.random.default_rng(9)
    for name in ("null_b", "mu0"):
        m = sy.symbol_preset(name)
        bound = jump = 0.0
        for _ in range(200):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            eta = rng.normal(size=3)
            eta *= rng.uniform(0.8, 1.2) / np.linalg.norm(eta)
            vals = [complex(m(r * d, eta)) for r in (0.08, 0.04, 0.02, 0.01)]
            bound = max(bound, max(map(abs, vals)))
            jump = max(jump, max(abs(b - a) for a, b in zip(vals, vals[1:])))
        assert np.isfinite(bound) and bound < 50.0
        assert jump <= 0.5 * (1.0 + bound)   # no blow-up along rays


def test_mu0_requires_dissipative_phase_and_s():
    # the denominator is i phi + 1/s with phi the dissipative phase
    xi, eta = _generic_points(np.random.default_rng(10), 200)
    num = _phase_grad_xi(xi, eta)[..., 0] * np.linalg.norm(xi - eta, axis=-1)
    expect = num / (1j * sy.dissipative_phase(xi, eta) + 0.1)
    got = sy.mu0_symbol(10.0)(xi, eta)
    assert np.max(np.abs(got - expect) / np.maximum(np.abs(expect), 1.0)) \
        < 1e-14
    with pytest.raises(ValueError):
        sy.mu0_symbol(0.5)


def test_unknown_preset():
    with pytest.raises(KeyError):
        sy.symbol_preset("nope")
