"""Acceptance criteria: every exit criterion as a one-call check.

run_criterion dispatches by id (1..10): it builds the CriterionResult with
the criterion's title from CRITERIA, passes it to the criterion function,
which only records its checks through `expect`, and times the call.  The
asymptotic statements of the underlying theory are not numerically
reproducible as stated (unquantified constants on R^3), so the checks
combine exact-math oracles with rate-fitting surrogates on no-wrap windows,
at the tolerances pinned here.
"""

import itertools
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import evolution as ev
from . import experiments, norms, pseudoproduct, spectra
from . import symbols as sy
from .grid import SpectralGrid


@dataclass
class CriterionResult:
    """One criterion's verdict: it passes when every expected check holds."""
    cid: int
    title: str
    passed: bool = True
    details: list = field(default_factory=list)
    elapsed: float = 0.0

    def expect(self, condition, text):
        """Record one check as a detail line; a false condition fails the
        criterion."""
        flag = "ok " if condition else "FAIL"
        self.details.append(f"  {flag} {text}")
        self.passed = self.passed and bool(condition)
        return condition

    def summary_line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.cid}: {self.title} ({self.elapsed:.1f}s)"


def _random_xi_norms(rng, count):
    """|xi| samples avoiding the degenerate band: (0, 0.45) u (0.55, 10)."""
    lo = rng.uniform(0.01, 0.45, size=count // 2)
    hi = rng.uniform(0.55, 10.0, size=count - count // 2)
    return np.concatenate([lo, hi])


# ---------------------------------------------------------------------------

def criterion_1(result, workdir):
    """Spectral oracle equivalence on 1e4 random modes within 10 s, and the
    [SK] verdicts: the 3x3 model leaves w undamped, the 2x2 block none."""
    import scipy.linalg     # expm, the oracle; no run loads scipy
    t0 = time.time()
    rng = np.random.default_rng(11)
    model = spectra.three_component_model()
    s = _random_xi_norms(rng, 10_000)
    cache = spectra.build_symbol_cache(s, model)

    dense = np.linalg.eigvals(cache.E)
    mine = cache.eigvals.T
    # match each mode's triples by the best of the 6 permutations
    per_perm = [np.max(np.abs(mine - dense[:, list(p)]), axis=1)
                for p in itertools.permutations(range(3))]
    worst = float(np.max(np.min(per_perm, axis=0)))
    result.expect(worst <= 1e-8, f"eigenvalues vs dense eigensolver: {worst:.3e} <= 1e-8")

    recon = np.einsum("km,kmij->mij", cache.eigvals, cache.projectors)
    err_e = float(np.max(np.abs(recon - cache.E)))
    result.expect(err_e <= 1e-8, f"sum lam_i P_i reconstructs E: {err_e:.3e} <= 1e-8")

    # the oracle's modes: 200 random ones, and 51 at and around |xi| = 1/2
    near = spectra.build_symbol_cache(np.r_[
        s[rng.choice(s.size, size=200, replace=False)],
        rng.uniform(0.499, 0.501, size=50), 0.5], model)
    worst_g = 0.0
    for t in (0.7, 3.0):
        for Gi, Ei in zip(spectra.green_function(near, t), near.E):
            worst_g = max(worst_g, float(np.max(np.abs(
                Gi - scipy.linalg.expm(Ei * t)))))
    result.expect(worst_g <= 1e-8, "green function vs matrix exponential, "
                  f"51 modes near |xi| = 1/2 included: {worst_g:.3e} <= 1e-8")

    found = [(np.abs(z).round(12).tolist(), round(mu, 12))
             for z, mu in spectra.check_sk(model)]
    result.expect(found == [([0.0, 0.0, 1.0], 1.0)], "3x3 model violates "
                  f"[SK]: undamped (|z|, mu) = {found}, only (e3, 1) expected")
    undamped = spectra.check_sk(spectra.two_component_model())
    result.expect(not undamped, "2x2 model satisfies [SK]: no undamped "
                  f"direction ({len(undamped)} found)")

    elapsed = time.time() - t0
    result.expect(elapsed < 10.0, f"runtime {elapsed:.2f}s < 10s")


def criterion_2(result, workdir):
    """Low-frequency eigenvalue expansion |lam1 + |xi|^2| <= 8 |xi|^3."""
    rng = np.random.default_rng(12)
    s = rng.uniform(1e-3, 0.1, size=1000)
    lam1, lam2, _ = spectra._branch_eigvals(s)
    r1 = np.abs(lam1 + s ** 2) / s ** 3
    r2 = np.abs(lam2 + 1.0 - s ** 2) / s ** 3
    result.expect(float(np.max(r1)) <= 8.0, "max |lam1 + s^2|/s^3 = "
                  f"{np.max(r1):.3g} <= 8 over 1e3 samples")
    result.expect(float(np.max(r2)) <= 8.0,
                  f"max |lam2 + 1 - s^2|/s^3 = {np.max(r2):.3g} <= 8")
    order = np.argsort(s)
    mono = np.all(np.diff(r1[order]) > -1e-9)
    result.expect(bool(mono), "expansion-error ratio is monotone in |xi|")


def criterion_3(result, workdir):
    """Linear [SK] decay rates on the 64^3 box (diffusive branch)."""
    res = _run_preset(result, "linear-sk-decay", workdir)
    fits = res.report["fitted_exponents"]
    for name, target, tol in (("u_l2", -0.75, 0.10), ("v_l2", -1.25, 0.12),
                              ("u_linf", -1.5, 0.15), ("v_linf", -2.0, 0.25)):
        got = fits[name]["exponent"]
        result.expect(got is not None and abs(got - target) <= tol,
                      f"{name} exponent {got:+.3f} within {target}+-{tol}")


def criterion_4(result, workdir):
    """Exponential decay of the damped spectral branch."""
    res = _run_preset(result, "kexp-branch", workdir)
    t, u = res.series["u_l2"]
    _, v = res.series["v_l2"]
    total = np.sqrt(u ** 2 + v ** 2)
    rate, resid = norms.fit_exponential_rate(t, total, (1.0, 20.0))
    result.expect(rate >= 0.4,
                  f"damped-branch exponential rate {rate:.3f} >= 0.4 "
                  f"(fit residual {resid:.3f})")


def criterion_5(result, workdir):
    """Wave invariants: exact L^2 conservation and the 1/t amplitude rate."""
    res = _run_preset(result, "wave-invariants", workdir)
    _, l2 = res.series["w_l2"]
    drift = float(np.max(np.abs(l2 / l2[0] - 1.0)))
    result.expect(drift <= 1e-10,
                  f"||w||_L2 relative drift {drift:.3e} <= 1e-10")
    for name, norm in (("w_linf", "|w|_inf"), ("w_linf_riesz", "|Rw|_inf")):
        got = res.report["fitted_exponents"][name]["exponent"]
        result.expect(got is not None and abs(got - (-1.0)) <= 0.15,
                      f"{norm} exponent {got:+.3f} within -1.0+-0.15")


def criterion_6(result, workdir):
    """Nonresonant symbols vanish on R; dissipation empties T."""
    rng = np.random.default_rng(16)
    xi, eta = sy.sample_spacetime_resonant_points(rng, 1000)
    worst = float(np.max(np.abs(sy.wave_phase(xi, eta))))
    result.expect(worst <= 1e-12,
                  f"sample on R: max |phi_w| = {worst:.3e} <= 1e-12")
    worst = float(np.max(np.linalg.norm(sy.wave_phase_grad_eta(xi, eta),
                                        axis=-1)))
    result.expect(worst <= 1e-12, "sample on R: max |grad_eta phi_w| = "
                  f"{worst:.3e} <= 1e-12")
    for name, m in nonresonant_symbols().items():
        scale = np.maximum(1.0, np.linalg.norm(xi, axis=-1)) ** m.degree
        worst = float(np.max(np.abs(m(xi, eta)) / scale))
        result.expect(worst <= 1e-12,
                      f"{name}: max scaled |m| on R = {worst:.3e} <= 1e-12")

    n_eta = rng.uniform(0.05, 0.45, size=1000)
    dirs = rng.normal(size=(1000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    eta2 = n_eta[:, None] * dirs
    xi2 = rng.normal(size=(1000, 3))
    phi = sy.dissipative_phase(xi2, eta2)
    margin = np.abs(phi) - 0.5 * n_eta ** 2
    result.expect(float(np.min(margin)) >= 0.0,
                  f"dissipative phase: min(|phi| - |eta|^2/2) = "
                  f"{np.min(margin):.3e} >= 0 on the annulus")
    im_margin = phi.imag - 0.5 * n_eta ** 2
    result.expect(float(np.min(im_margin)) >= 0.0,
                  f"Im phi >= |eta|^2/2 (min margin {np.min(im_margin):.3e})")


def criterion_7(result, workdir):
    """Pseudoproduct correctness: identity symbol, path agreement,
    single-mode exactness."""
    rng = np.random.default_rng(17)
    g = SpectralGrid(16, 2 * np.pi)

    f = band_field(g, 3, rng)
    h = band_field(g, 3, rng)
    # the Riemann sum against the band of the physical product
    plan = pseudoproduct.PseudoproductPlan(g, sy.symbol_preset("one"))
    t1 = pseudoproduct.apply_direct(plan, f, h)
    prod = g.to_spectral(g.to_physical(f) * g.to_physical(h))
    rel = float(np.max(np.abs(t1 - prod)) / np.max(np.abs(prod)))
    result.expect(rel <= 1e-12, f"T_1(f,g) = f*g pointwise: rel err {rel:.3e}")

    phys = g.to_physical(f)
    symbols = {"one": sy.symbol_preset("one"), **nonresonant_symbols()}
    for name, m in symbols.items():
        plan = pseudoproduct.PseudoproductPlan(g, m)
        # `one`'s separable path is the band of the physical product: it
        # must equal the identity line's, bit for bit
        exact = name == "one"
        a = prod if exact else pseudoproduct.apply_direct(plan, f, h)
        b = pseudoproduct.apply(plan, f, h)
        scale = float(np.max(np.abs(a))) or 1.0
        rel = float(np.max(np.abs(a - b)) / scale)
        ok = np.array_equal(a, b) if exact else rel <= 1e-10
        result.expect(bool(m.separable_terms) and ok, f"{name}: separable "
                      f"path vs {'band product' if exact else 'direct sum'} "
                      f"rel err {rel:.3e}")
        # T(f, f) on the diagonal form, at the scale of T(f, h): the
        # symmetric parts of null_b and b_xi_unit vanish
        a = (g.to_spectral(phys * phys) if exact
             else pseudoproduct.apply_direct(plan, f, f))
        b = pseudoproduct.apply(plan, f, f)
        rel = float(np.max(np.abs(a - b))
                    / max(scale, float(np.max(np.abs(a)))))
        ok = np.array_equal(a, b) if exact else rel <= 1e-10
        result.expect(ok, f"{name}: {'band product' if exact else 'direct'}"
                      f" vs separable T(f, f) rel err {rel:.3e}")

    f1 = np.zeros(g.band_shape, complex)
    h1 = np.zeros(g.band_shape, complex)
    f1[1, 0, 0] = 2.0
    h1[0, 2, 0] = 3.0
    m = sy.symbol_preset("null_b")
    out = pseudoproduct.apply_direct(
        pseudoproduct.PseudoproductPlan(g, m), f1, h1)
    k1 = g.dk * np.array([1.0, 0.0, 0.0])
    k2 = g.dk * np.array([0.0, 2.0, 0.0])
    expect = m(k1 + k2, k2) * 6.0 * g.d_eta
    exact = (abs(out[1, 2, 0] - expect) == 0.0
             and float(np.sum(np.abs(out))) == abs(out[1, 2, 0]))
    result.expect(exact, "single-mode inputs: one output mode with value "
                  "m(k1+k2, k2) * amplitude * d_eta, exactly")


def criterion_8(result, workdir):
    """Small-data global-existence surrogates for the three systems."""
    for preset, extra in (("k-small-data", {}), ("pk-small-data", {}),
                          ("pksw-small-data",
                           {"v_sobolev": -1.0, "w_linf": -0.8})):
        res = _run_preset(result, preset, workdir)
        if res.status != "completed":
            continue
        m0 = np.asarray(res.report["m0"]["m0"])
        ratio = float(np.max(m0) / m0[0])
        at = res.report["m0"]["times"][int(np.argmax(m0))]
        result.expect(ratio <= 5.0, f"{preset}: sup M0 / M0(1) = "
                      f"{ratio:.3f} <= 5, attained at t = {at:g}")
        fits = res.report["fitted_exponents"]
        got = fits["u_sobolev"]["exponent"]
        result.expect(got is not None and got <= -0.6,
                      f"{preset}: u H^N exponent {got:+.3f} <= -0.6")
        for name, bound in extra.items():
            got = fits[name]["exponent"]
            result.expect(got is not None and got <= bound,
                          f"{preset}: {name} exponent {got:+.3f} <= {bound}")


def criterion_9(result, workdir):
    """Integrator self-convergence orders 2 and 4, with T(w, w) identically
    0 (null_b: w error 0) and nonzero (aphi: w error alone also of order)."""
    g = SpectralGrid(16, 16.0)
    coefficients = ev.Coefficients(a_u=1.0, b_u=0.5, c_u=0.3, a_v=0.2,
                                   b_v=1.0, c_v=0.1, d_v=1.0)
    data = np.zeros((3,) + g.band_shape, complex)
    r2 = sum(ax ** 2 for ax in g.x_centered)
    for i in range(3):
        bump = 0.2 * (1 + 0.1 * i) * np.exp(-r2 / (2 * 1.5 ** 2))
        data[i] = g.to_spectral(bump)
    st0 = ev.StateField(g, data, ev.T_INITIAL)
    t_end = 2.0

    def terminal(model, dt, scheme):
        stepper = ev.Stepper(model, g, dt, scheme)
        st = st0.copy()
        for _ in range(round((t_end - st.t) / dt)):
            st = stepper.step(st)
        return st.data

    for name in ("null_b", "aphi"):
        model = ev.ModelSpec("pk_system", coefficients,
                             w_symbol=sy.symbol_preset(name), coupling="uw")
        ref = terminal(model, 1.0 / 256, "ifrk4")
        for scheme, target in (("ifrk2", 2.0), ("ifrk4", 4.0)):
            diffs = [np.abs(terminal(model, dt, scheme) - ref)
                     for dt in (0.25, 0.125, 0.0625)]
            for label, errs in (("", [np.max(d) for d in diffs]),
                                (", w only", [np.max(d[2]) for d in diffs])):
                if name == "null_b" and label:      # no order to measure
                    result.expect(max(errs) <= 1e-12,
                                  f"{name}, {scheme}: T(w, w) identically 0, "
                                  f"max w error {max(errs):.1e} <= 1e-12")
                    continue
                orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
                measured = float(np.mean(orders))
                result.expect(abs(measured - target) <= 0.3,
                              f"{name}, {scheme}{label}: measured order "
                              f"{measured:.2f} within {target}+-0.3 (pairwise "
                              f"{orders[0]:.2f}, {orders[1]:.2f})")


def criterion_10(result, workdir):
    """Empirical constants of the fractional-integration and bilinear
    Hoelder estimates: finite and stable under one grid refinement."""
    grids = (SpectralGrid(16, 2 * np.pi), SpectralGrid(32, 2 * np.pi))
    band = 3    # |f|^p then exceeds the coarse Nyquist: quadrature differs
    trials = 100
    plans = [pseudoproduct.PseudoproductPlan(g, sy.symbol_preset("null_b"))
             for g in grids]
    estimates = {   # name: (seed, the ratio of one draw)
        "fractional": (110, lambda g, plan, rng: norms.fractional_ratio(
            g, 2.0, 6.0, band_field(g, band, rng))),
        "Hoelder": (111, lambda g, plan, rng: norms.holder_bound_ratio(
            plan, band_field(g, band, rng), band_field(g, band, rng), 4.0,
            4.0))}
    for name, (seed, ratio) in estimates.items():
        maxima = []
        for g, plan in zip(grids, plans):
            rng = np.random.default_rng(seed)   # same draws on both grids
            maxima.append(max(ratio(g, plan, rng) for _ in range(trials)))
        change = abs(maxima[1] - maxima[0]) / maxima[0]
        result.expect(np.isfinite(maxima[0]) and np.isfinite(maxima[1]),
                      f"{name} ratios finite (max {maxima[0]:.3f}, "
                      f"{maxima[1]:.3f})")
        result.expect(change <= 0.20, f"{name} max ratio change "
                      f"{change:.1%} <= 20% under 16^3 -> 32^3 refinement")


# ---------------------------------------------------------------------------

def nonresonant_symbols():
    """Every member of symbols.NONRESONANT_CLASS by name, presets first."""
    return {name: sy.make_nonresonant_symbol(a, b, name=name)
            for name, (a, b) in sy.NONRESONANT_CLASS.items()}


def band_field(grid, band, rng):
    """Random conjugate-symmetric field on the grid's cube, supported on
    |mode| <= band <= K; the same rng draws produce the same continuum
    field on any grid."""
    fh = np.zeros(grid.band_shape, dtype=complex)
    for k in itertools.product(range(-band, band + 1), repeat=grid.ndim):
        fh[k] = rng.normal() + 1j * rng.normal()    # the cube's index is k
    return grid.conjugate_symmetrize(fh)


def _run_preset(result, name, workdir):
    """Run the preset `name` with its files in workdir and expect it to
    complete."""
    res = experiments.run(experiments.load_preset(name).override(
        [f"output.dir={workdir}"]))
    result.expect(res.status == "completed",
                  f"{name}: run status {res.status}")
    return res


CRITERIA = {
    1: ("spectral oracle equivalence", criterion_1),
    2: ("eigenvalue expansion", criterion_2),
    3: ("linear [SK] decay rates", criterion_3),
    4: ("exponential branch decay", criterion_4),
    5: ("wave invariants", criterion_5),
    6: ("nonresonance geometry", criterion_6),
    7: ("pseudoproduct correctness", criterion_7),
    8: ("small-data global existence surrogates", criterion_8),
    9: ("integrator convergence orders", criterion_9),
    10: ("estimate constants stable under refinement", criterion_10),
}


def run_criterion(cid, workdir=None):
    if cid not in CRITERIA:
        raise KeyError(f"no acceptance criterion {cid}; valid ids: 1..10")
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix=f"pdhyp-verify-{cid}-") as tmp:
            return run_criterion(cid, tmp)
    title, func = CRITERIA[cid]
    result = CriterionResult(cid, title)
    t0 = time.time()
    func(result, workdir)
    result.elapsed = time.time() - t0
    return result
