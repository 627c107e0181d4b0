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
import scipy.linalg

from . import evolution as ev
from . import experiments, norms, propagators, pseudoproduct, spectra
from . import symbols as sy
from .bounds import BoundLedger
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
    """Spectral oracle equivalence on 1e4 random modes within 10 s."""
    t0 = time.time()
    rng = np.random.default_rng(11)
    model = spectra.three_component_model()
    s = _random_xi_norms(rng, 10_000)
    cache = spectra.build_symbol_cache_from_norms(s, model)

    dense = np.linalg.eigvals(cache.E)
    mine = cache.eigvals.T
    # match each mode's triples by the best of the 6 permutations
    from itertools import permutations
    per_perm = [np.max(np.abs(mine - dense[:, list(p)]), axis=1)
                for p in permutations(range(3))]
    worst = float(np.max(np.min(per_perm, axis=0)))
    result.expect(worst <= 1e-8, f"eigenvalues vs dense eigensolver: {worst:.3e} <= 1e-8")

    recon = np.einsum("km,kmij->mij", cache.eigvals, cache.projectors)
    err_e = float(np.max(np.abs(recon - cache.E)))
    result.expect(err_e <= 1e-8, f"sum lam_i P_i reconstructs E: {err_e:.3e} <= 1e-8")

    sub = rng.choice(s.size, size=200, replace=False)
    worst_g = 0.0
    for t in (0.7, 3.0):
        G = spectra.green_function(cache, t)
        for i in sub:
            worst_g = max(worst_g, float(np.max(np.abs(
                G[i] - scipy.linalg.expm(cache.E[i] * t)))))
    result.expect(worst_g <= 1e-8, "green function vs matrix exponential: "
                  f"{worst_g:.3e} <= 1e-8")

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
    cfg = experiments.load_preset("linear-sk-decay").override(
        [f"output.dir={workdir}"])
    res = experiments.run(cfg)
    result.expect(res.status == "completed", f"run status {res.status}")
    fits = res.report["fitted_exponents"]
    for name, target, tol in (("u_l2", -0.75, 0.10), ("v_l2", -1.25, 0.12),
                              ("u_linf", -1.5, 0.15), ("v_linf", -2.0, 0.25)):
        got = fits[name]["exponent"]
        result.expect(got is not None and abs(got - target) <= tol,
                      f"{name} exponent {got:+.3f} within {target}+-{tol}")


def criterion_4(result, workdir):
    """Exponential decay of the damped spectral branch."""
    cfg = experiments.load_preset("kexp-branch").override(
        [f"output.dir={workdir}"])
    res = experiments.run(cfg)
    result.expect(res.status == "completed", f"run status {res.status}")
    series = _read_series(res.csv_path)
    t, u = series["u_l2"]
    _, v = series["v_l2"]
    total = np.sqrt(u ** 2 + v ** 2)
    rate, resid = norms.fit_exponential_rate(t, total, (1.0, 20.0))
    result.expect(rate >= 0.4,
                  f"damped-branch exponential rate {rate:.3f} >= 0.4 "
                  f"(fit residual {resid:.3f})")


def criterion_5(result, workdir):
    """Wave invariants: exact L^2 conservation and the 1/t amplitude rate."""
    cfg = experiments.load_preset("wave-invariants").override(
        [f"output.dir={workdir}"])
    res = experiments.run(cfg)
    result.expect(res.status == "completed", f"run status {res.status}")
    series = _read_series(res.csv_path)
    _, l2 = series["w_l2"]
    drift = float(np.max(np.abs(l2 / l2[0] - 1.0)))
    result.expect(drift <= 1e-10,
                  f"||w||_L2 relative drift {drift:.3e} <= 1e-10")
    got = res.report["fitted_exponents"]["w_linf"]["exponent"]
    result.expect(got is not None and abs(got - (-1.0)) <= 0.15,
                  f"|w|_inf exponent {got:+.3f} within -1.0+-0.15")
    got = res.report["fitted_exponents"]["w_linf_riesz"]["exponent"]
    result.expect(got is not None and abs(got - (-1.0)) <= 0.15,
                  f"|Rw|_inf exponent {got:+.3f} within -1.0+-0.15")


def criterion_6(result, workdir):
    """Nonresonant symbols vanish on R; dissipation empties T."""
    rng = np.random.default_rng(16)
    xi, eta = sy.sample_spacetime_resonant_points(rng, 1000)
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
    plan = pseudoproduct.PseudoproductPlan(g, sy.symbol_preset("one"),
                                           dealias=False)
    t1 = pseudoproduct.apply(plan, f, h)
    prod = g.to_spectral(g.to_physical(f) * g.to_physical(h))
    rel = float(np.max(np.abs(t1 - prod)) / np.max(np.abs(prod)))
    result.expect(rel <= 1e-12, f"T_1(f,g) = f*g pointwise: rel err {rel:.3e}")

    symbols = {"one": sy.symbol_preset("one"), **nonresonant_symbols()}
    for name, m in symbols.items():
        plan = pseudoproduct.PseudoproductPlan(g, m)
        a = pseudoproduct.apply_direct(plan, f, h)
        b = pseudoproduct.apply(plan, f, h)
        scale = float(np.max(np.abs(a))) or 1.0
        rel = float(np.max(np.abs(a - b)) / scale)
        result.expect(bool(m.separable_terms) and rel <= 1e-10, f"{name}: "
                      f"separable path vs direct sum rel err {rel:.3e}")
        # T(f, f) on the symmetrized table, at the scale of T(f, h): the
        # symmetric parts of null_b and b_xi_unit vanish
        a = pseudoproduct.apply_direct(plan, f, f)
        b = pseudoproduct.apply(plan, f, f)
        rel = float(np.max(np.abs(a - b))
                    / max(scale, float(np.max(np.abs(a)))))
        result.expect(rel <= 1e-10,
                      f"{name}: direct vs separable T(f, f) rel err {rel:.3e}")

    f1 = np.zeros(g.shape, complex)
    h1 = np.zeros(g.shape, complex)
    f1[1, 0, 0] = 2.0
    h1[0, 2, 0] = 3.0
    m = sy.symbol_preset("null_b")
    out = pseudoproduct.apply_direct(
        pseudoproduct.PseudoproductPlan(g, m, dealias=False), f1, h1)
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
        cfg = experiments.load_preset(preset).override(
            [f"output.dir={workdir}"])
        res = experiments.run(cfg)
        result.expect(res.status == "completed", f"{preset}: completed "
                      "without tripping the blow-up guard")
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
    data = np.zeros((3,) + g.shape, complex)
    for i in range(3):
        bump = 0.2 * (1 + 0.1 * i) * np.exp(-g.r2_centered / (2 * 1.5 ** 2))
        data[i] = g.dealias(g.to_spectral(bump))
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

    maxima = []
    for g in grids:
        ledger = BoundLedger()
        rng = np.random.default_rng(110)   # same draws on both grids
        for _ in range(trials):
            f = band_field(g, band, rng)
            propagators.fractional_ratio(g, 1.0, 2.0, 6.0, f, ledger=ledger)
        maxima.append(ledger.max_ratio("fractional"))
    change = abs(maxima[1] - maxima[0]) / maxima[0]
    result.expect(np.isfinite(maxima[0]) and np.isfinite(maxima[1]),
                  f"fractional ratios finite (max {maxima[0]:.3f}, "
                  f"{maxima[1]:.3f})")
    result.expect(change <= 0.20,
                  f"fractional max ratio change {change:.1%} <= 20% under "
                  "16^3 -> 32^3 refinement")

    maxima = []
    for g in grids:
        ledger = BoundLedger()
        rng = np.random.default_rng(111)
        plan = pseudoproduct.PseudoproductPlan(g, sy.symbol_preset("null_b"))
        for _ in range(trials):
            f = band_field(g, band, rng)
            h = band_field(g, band, rng)
            pseudoproduct.holder_bound_ratio(plan, f, h, s=0.0, k=0,
                                             p=4.0, q=4.0, r=2.0,
                                             ledger=ledger)
        maxima.append(ledger.max_ratio("holder"))
    change = abs(maxima[1] - maxima[0]) / maxima[0]
    result.expect(np.isfinite(maxima[0]) and np.isfinite(maxima[1]),
                  f"Hoelder ratios finite (max {maxima[0]:.3f}, "
                  f"{maxima[1]:.3f})")
    result.expect(change <= 0.20, f"Hoelder max ratio change {change:.1%} "
                  "<= 20% under refinement")


# ---------------------------------------------------------------------------

def nonresonant_symbols():
    """The nonresonant presets by name, followed by four class members that
    no preset names: a_eta (a = |eta|), a_xi_eta (a = |xi - eta|),
    b_xi_unit (b = xi/|xi|) and b_eta_unit (b = eta/|eta|)."""
    symbols = {name: sy.symbol_preset(name)
               for name in sy.NONRESONANT_PRESET_NAMES}
    for name, a, b in (
            ("a_eta", [(1.0, (), (), (sy.NORM,))], None),
            ("a_xi_eta", [(1.0, (), (sy.NORM,), ())], None),
            ("b_xi_unit", None, [[(1.0, (j,), (), ())] for j in range(3)]),
            ("b_eta_unit", None, [[(1.0, (), (), (j,))] for j in range(3)])):
        symbols[name] = sy.make_nonresonant_symbol(a, b, name=name)
    return symbols


def band_field(grid, band, rng):
    """Random conjugate-symmetric field supported on |mode| <= band; the
    same rng draws produce the same continuum field on any grid."""
    fh = np.zeros(grid.shape, dtype=complex)
    for k in itertools.product(range(-band, band + 1), repeat=grid.ndim):
        fh[tuple(ki % grid.n for ki in k)] = rng.normal() + 1j * rng.normal()
    return grid.conjugate_symmetrize(fh)


def _read_series(csv_path):
    series = {}
    with open(csv_path) as fh:
        next(fh)
        for line in fh:
            t, name, value = line.strip().split(",")
            series.setdefault(name, []).append((float(t), float(value)))
    return {name: (np.array([p[0] for p in pts]),
                   np.array([p[1] for p in pts]))
            for name, pts in series.items()}


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
    10: ("bound ledgers stable under refinement", criterion_10),
}


def run_criterion(cid, workdir=None):
    if cid not in CRITERIA:
        raise KeyError(f"no acceptance criterion {cid}; valid ids: 1..10")
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix=f"pdhyp-verify-{cid}-")
    title, func = CRITERIA[cid]
    result = CriterionResult(cid, title)
    t0 = time.time()
    func(result, workdir)
    result.elapsed = time.time() - t0
    return result
