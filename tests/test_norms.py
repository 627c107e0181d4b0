import numpy as np
import pytest

from pdhyp import evolution as ev
from pdhyp import norms, spectra
from pdhyp.acceptance import band_field
from pdhyp.errors import MissingSeries, NonPositiveValues
from pdhyp.experiments import make_initial_data
from pdhyp.grid import SpectralGrid
from pdhyp.propagators import lp_norm


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid(32, 16.0)


def test_sobolev0_is_parseval_l2(grid):
    rng = np.random.default_rng(0)
    fh = band_field(grid, 5, rng)
    f = grid.to_physical(fh)
    phys = np.sqrt(np.sum(np.abs(f) ** 2) * grid.dx ** 3)
    assert abs(norms.sobolev_norm(grid, fh, 0) - phys) <= 1e-12 * phys
    assert abs(norms.l2_norm(grid, fh) - phys) <= 1e-12 * phys


def test_sobolev_single_mode_closed_form(grid):
    # f = cos(k.x): ||f||_{H^N}^2 = (1+|k|^2)^N * A^2 * L^3 / 2
    k_vec = grid.wavevectors()[2, 1, 0]
    A = 1.3
    x0, x1, _ = np.meshgrid(*[np.arange(grid.n) * grid.dx] * 3, indexing="ij")
    f = A * np.cos(x0 * k_vec[0] + x1 * k_vec[1])
    fh = grid.to_spectral(f)
    for order in (0, 1, 3):
        expect = np.sqrt((1 + k_vec @ k_vec) ** order * A ** 2
                         * grid.volume / 2)
        got = norms.sobolev_norm(grid, fh, order)
        assert abs(got - expect) <= 1e-10 * expect


def test_weighted_x_gaussian_moment():
    g = SpectralGrid(64, 32.0)
    sigma = 2.0
    f = np.exp(-g.r2_centered / (2 * sigma ** 2))
    fh = g.to_spectral(f)
    ratio = norms.weighted_x_l2(g, fh) / norms.l2_norm(g, fh)
    expect = sigma * np.sqrt(1.5)
    assert abs(ratio - expect) <= 0.01 * expect


def test_linf_riesz_takes_max(grid):
    rng = np.random.default_rng(1)
    fh = band_field(grid, 4, rng)
    from pdhyp.propagators import lp_norm
    s = grid.xi_norm
    xi = grid.wavevectors()
    with np.errstate(divide="ignore", invalid="ignore"):
        per = [lp_norm(grid, np.where(s > 0, -1j * xi[..., j] / s, 0)
                       * fh, np.inf)
               for j in range(3)]
    assert norms.riesz_linf_norm(grid, fh) == max(per)


def test_initial_energy_scales_linearly(grid):
    rng = np.random.default_rng(2)
    data = np.stack([band_field(grid, 4, rng) for _ in range(3)])
    st1 = ev.StateField(grid, data, 1.0)
    st2 = ev.StateField(grid, 2.0 * data, 1.0)
    e1 = norms.initial_energy(st1)
    e2 = norms.initial_energy(st2)
    assert abs(e2 - 2 * e1) <= 1e-10 * e1


def _initial_energy_per_term(state, order=norms.SOBOLEV_N):
    """E_N term by term, each weighted norm with its own transforms and
    weight, summed in the order of the formula."""
    g = state.grid

    def sobolev(fh, k):
        w = (1.0 + g.xi_norm ** 2) ** k
        val = (2.0 * np.pi) ** g.ndim * np.sum(w * np.abs(fh) ** 2) * g.d_eta
        return float(np.sqrt(val))

    def x_sobolev(fh, k):
        f = g.to_physical(fh)
        total = 0.0
        for ax in g.x_centered:
            total += sobolev(g.to_spectral(ax * f), k) ** 2
        return float(np.sqrt(total))

    def lambda_x2_sobolev(fh, k):
        weighted = g.to_spectral(g.r2_centered * g.to_physical(fh))
        return sobolev(g.xi_norm * weighted, k)

    l1 = sum(lp_norm(g, comp, 1) for comp in state.data)
    weighted = sum(x_sobolev(comp, 2) for comp in state.data)
    weighted += sum(lambda_x2_sobolev(comp, 1) for comp in state.data)
    hn = sum(sobolev(comp, order) for comp in state.data)
    return float(max(l1, weighted + hn))


def test_initial_energy_equals_the_per_term_formula():
    g = SpectralGrid(16, 32.0)
    st = make_initial_data("gaussian_bump", g, 0.3, 0, width=[1.0, 2.5, 4.0],
                           radial_power=[0, 1, 0])
    assert norms.initial_energy(st) == _initial_energy_per_term(st)
    # a flowed state is complex in physical space
    cache = spectra.build_symbol_cache(g, spectra.three_component_model())
    later = ev.flow(cache, st, 4.5)
    assert np.abs(g.to_physical(later.data[2]).imag).max() > 1e-3
    assert norms.initial_energy(later) == _initial_energy_per_term(later)


def _record_transforms(monkeypatch):
    """The list that each grid transform call appends its name to."""
    calls = []
    for name in ("to_physical", "to_spectral"):
        orig = getattr(SpectralGrid, name)
        monkeypatch.setattr(SpectralGrid, name,
                            lambda self, f, _o=orig, _n=name:
                            calls.append(_n) or _o(self, f))
    return calls


def test_initial_energy_transforms_each_component_once(monkeypatch):
    g = SpectralGrid(16, 32.0)
    st = make_initial_data("gaussian_bump", g, 0.3, 0, width=[1.0, 2.5, 4.0])
    calls = _record_transforms(monkeypatch)
    norms.initial_energy(st)
    # d inverse transforms, and per component 3 x_j-weighted and one
    # |x|^2-weighted forward transform
    assert sorted(calls) == ["to_physical"] * 3 + ["to_spectral"] * 12


@pytest.mark.parametrize("width, radial_power, distinct", [
    (4.0, 1, 1),                     # wave-invariants: u = v = w
    ([1.0, 1.0, 8.0], [0, 0, 1], 2),  # pk-small-data: u = v != w
])
def test_initial_energy_transforms_each_distinct_component_once(
        monkeypatch, width, radial_power, distinct):
    g = SpectralGrid(16, 32.0)
    st = make_initial_data("gaussian_bump", g, 0.3, 0, width=width,
                           radial_power=radial_power)
    expected = _initial_energy_per_term(st)
    calls = _record_transforms(monkeypatch)
    assert norms.initial_energy(st) == expected
    assert sorted(calls) == (["to_physical"] * distinct
                             + ["to_spectral"] * (4 * distinct))


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
