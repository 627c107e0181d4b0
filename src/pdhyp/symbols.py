"""Phases, resonant-set geometry, homogeneous symbol classes and
nonresonant bilinear forms.

All evaluators are vectorized numpy functions of wavevector arrays whose
last axis is the space dimension.  Symbols are smooth only off the rays
{xi = 0} u {xi - eta = 0} u {eta = 0}; on a grid, exactly singular lattice
points evaluate to 0 (the zero-mode convention), while point evaluation
through `checked` refuses points within a tolerance of the rays.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegreeMismatch, SingularPoint

TOL_TIME_RESONANT = 1e-9
TOL_SPACE_RESONANT = 1e-9
SINGULAR_TOL_FACTOR = 1e-6   # times the largest |xi| in play


def _norm(v):
    return np.linalg.norm(v, axis=-1)


def _unit(v):
    """v/|v| with the zero-mode convention v/|v| = 0 at v = 0."""
    n = _norm(v)
    safe = np.where(n > 0.0, n, 1.0)
    return np.where(n[..., None] > 0.0, v / safe[..., None], 0.0)


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def wave_phase(xi, eta):
    """phi_w(xi, eta) = |xi| - |xi - eta| - |eta|  (<= 0 by the triangle
    inequality, = 0 exactly when eta lies on the segment [0, xi])."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return _norm(xi) - _norm(xi - eta) - _norm(eta)


def wave_phase_grad_eta(xi, eta):
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return _unit(xi - eta) - _unit(eta)


def wave_phase_grad_xi(xi, eta):
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return _unit(xi) - _unit(xi - eta)


def _dissipative_rate(eta_norm):
    """2|eta|^2 / (1 + sqrt(1 - 4|eta|^2)), continued past |eta| = 1/2 with
    the principal complex branch (then Im stays 1/2)."""
    n2 = np.asarray(eta_norm, dtype=float) ** 2
    root = np.sqrt(np.asarray(1.0 - 4.0 * n2, dtype=complex))
    return 2.0 * n2 / (1.0 + root)


def dissipative_phase(xi, eta):
    """phi(xi, eta) = |xi| - |xi - eta| + 2i|eta|^2/(1 + sqrt(1 - 4|eta|^2)).

    The imaginary shift is the (sign-flipped) slow dissipative eigenvalue at
    eta, so Im phi >= |eta|^2 for |eta| <= 1/2: dissipation empties the time
    resonant set.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return _norm(xi) - _norm(xi - eta) + 1j * _dissipative_rate(_norm(eta))


def dissipative_phase_grad_eta(xi, eta):
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    n = _norm(eta)
    root = np.sqrt(np.asarray(1.0 - 4.0 * n ** 2, dtype=complex))
    return _unit(xi - eta) + 2j * eta / root[..., None]


def dissipative_phase_grad_xi(xi, eta):
    return wave_phase_grad_xi(xi, eta)


@dataclass(frozen=True)
class Phase:
    """A phase function with closed-form gradients."""
    evaluator: callable
    gradient_eta: callable
    gradient_xi: callable
    kind: str   # "wave" | "dissipative"


WAVE_PHASE = Phase(wave_phase, wave_phase_grad_eta, wave_phase_grad_xi, "wave")
DISSIPATIVE_PHASE = Phase(dissipative_phase, dissipative_phase_grad_eta,
                          dissipative_phase_grad_xi, "dissipative")


# ---------------------------------------------------------------------------
# resonance classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResonanceSample:
    point: tuple
    phase_value: complex
    eta_gradient_norm: float
    classification: frozenset


def classify_resonance(phase, point, tol_t=TOL_TIME_RESONANT,
                       tol_s=TOL_SPACE_RESONANT, singular_tol=None):
    """Classify a single (xi, eta) pair against the resonant sets.

    time resonant:  |phi(xi, eta)| <= tol_t
    space resonant: |grad_eta phi(xi, eta)| <= tol_s

    Raises SingularPoint for points within singular_tol of the rays
    {xi = 0} u {xi - eta = 0} u {eta = 0}.
    """
    xi, eta = (np.asarray(p, dtype=float) for p in point)
    scale = max(float(_norm(xi)), float(_norm(eta)), float(_norm(xi - eta)))
    if singular_tol is None:
        singular_tol = SINGULAR_TOL_FACTOR * max(scale, 1.0)
    closest = min(float(_norm(xi)), float(_norm(eta)), float(_norm(xi - eta)))
    if closest < singular_tol:
        raise SingularPoint(
            f"point within {singular_tol:.3g} of a singular ray")
    val = complex(phase.evaluator(xi, eta))
    gnorm = float(_norm(phase.gradient_eta(xi, eta)))
    tags = set()
    if abs(val) <= tol_t:
        tags.add("time_resonant")
    if gnorm <= tol_s:
        tags.add("space_resonant")
    return ResonanceSample(point=(xi, eta), phase_value=val,
                           eta_gradient_norm=gnorm,
                           classification=frozenset(tags))


def sample_spacetime_resonant_points(rng, count, scale_range=(0.5, 2.0),
                                     s_range=(0.05, 0.95), ndim=3):
    """Random points of R = {eta = s xi, 0 < s < 1} for vanishing tests."""
    d = rng.normal(size=(count, ndim))
    d /= np.linalg.norm(d, axis=1)[:, None]
    r = rng.uniform(*scale_range, size=count)
    s = rng.uniform(*s_range, size=count)
    xi = r[:, None] * d
    eta = s[:, None] * xi
    return xi, eta


# ---------------------------------------------------------------------------
# bilinear symbols
# ---------------------------------------------------------------------------

@dataclass
class BilinearSymbol:
    """An evaluatable symbol m(xi, eta) with a declared homogeneity degree.

    separable_terms, when present, is a list of (alpha, beta, gamma)
    single-variable multipliers with m = sum_k alpha_k(xi) beta_k(xi-eta)
    gamma_k(eta); it enables the FFT fast path of the pseudoproduct.
    components holds the homogeneous pieces of a composite symbol so the
    scaling test can run term-wise.  All evaluators must return finite
    values (0) at exactly singular arguments.
    """
    name: str
    evaluator: callable
    degree: float
    singular: bool = True
    separable_terms: list = None
    components: list = None
    term_degrees: tuple = None

    def __post_init__(self):
        if self.term_degrees is None:
            self.term_degrees = (self.degree,)

    def __call__(self, xi, eta):
        return self.evaluator(np.asarray(xi, dtype=float),
                              np.asarray(eta, dtype=float))

    def checked(self, xi, eta, singular_tol=None):
        """Point evaluation refusing the neighbourhood of the rays."""
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        scale = max(float(np.max(_norm(xi))), float(np.max(_norm(eta))), 1.0)
        if singular_tol is None:
            singular_tol = SINGULAR_TOL_FACTOR * scale
        closest = min(float(np.min(_norm(xi))), float(np.min(_norm(eta))),
                      float(np.min(_norm(xi - eta))))
        if self.singular and closest < singular_tol:
            raise SingularPoint(
                f"{self.name}: point within {singular_tol:.3g} of a ray")
        return self.evaluator(xi, eta)

    # -- declared-structure checks (used by constructors and tests) --------

    def homogeneity_defect(self, rng, lambdas=(0.5, 2.0, 7.0), samples=64):
        """Max relative scaling error over the homogeneous pieces."""
        pieces = self.components if self.components else [self]
        worst = 0.0
        for piece in pieces:
            xi, eta = _generic_points(rng, samples)
            base = piece(xi, eta)
            ref = np.abs(base)
            ref = np.where(ref > 1e-13, ref, 1.0)
            for lam in lambdas:
                scaled = piece(lam * xi, lam * eta)
                err = np.abs(scaled - lam ** piece.degree * base) / \
                    (lam ** piece.degree * ref)
                worst = max(worst, float(np.max(err)))
        return worst

    def separability_defect(self, rng, samples=1000):
        """Max relative gap between the evaluator and its factorized form."""
        if not self.separable_terms:
            return 0.0
        xi, eta = _generic_points(rng, samples)
        direct = self(xi, eta)
        total = np.zeros_like(direct, dtype=complex)
        for alpha, beta, gamma in self.separable_terms:
            total = total + alpha(xi) * beta(xi - eta) * gamma(eta)
        scale = np.maximum(np.abs(direct), 1e-13)
        return float(np.max(np.abs(total - direct) / scale))


def _generic_points(rng, count, ndim=3):
    """Random nonsingular (xi, eta) pairs away from the rays."""
    while True:
        xi = rng.normal(size=(count, ndim))
        eta = rng.normal(size=(count, ndim))
        ok = (np.min(_norm(xi)) > 1e-2 and np.min(_norm(eta)) > 1e-2
              and np.min(_norm(xi - eta)) > 1e-2)
        if ok:
            return xi, eta


def _one(v):
    v = np.asarray(v, dtype=float)
    return np.ones(v.shape[:-1], dtype=complex)


def constant_symbol(value=1.0, degree=0.0, name=None):
    val = complex(value)
    return BilinearSymbol(
        name=name or f"const({value})",
        evaluator=lambda xi, eta: np.full(np.broadcast(
            np.asarray(xi)[..., 0], np.asarray(eta)[..., 0]).shape, val),
        degree=degree,
        singular=False,
        separable_terms=[(lambda v: val * _one(v), _one, _one)],
    )


def xi_modulus_symbol():
    """a(xi, eta) = |xi|, the simplest degree-1 member of the class."""
    return BilinearSymbol(
        name="|xi|",
        evaluator=lambda xi, eta: _norm(xi) * np.ones(
            np.broadcast(np.asarray(xi)[..., 0],
                         np.asarray(eta)[..., 0]).shape),
        degree=1.0,
        singular=True,
    )


def unit_vector_symbols(direction=(1.0, 0.0, 0.0)):
    """Constant vector b = direction, componentwise degree-0 symbols;
    zero entries become None (skipped by the bilinear form)."""
    return [constant_symbol(c, degree=0.0, name=f"b[{j}]") if c else None
            for j, c in enumerate(direction)]


def make_nonresonant_symbol(a, b, name=None, rng=None):
    """m(xi, eta) = a(xi, eta) phi_w(xi, eta) + b(xi, eta) . grad_eta phi_w.

    a must be homogeneous of degree 1 and every component of b of degree 0;
    declared degrees are verified by a random scaling test and a
    DegreeMismatch is raised on violation.  The resulting symbol vanishes
    on the space-time resonant set by construction; with a = 0 it reduces
    to a classical null form.
    """
    rng = rng or np.random.default_rng(0)
    pieces = []
    terms = []
    separable = []
    degrees = []

    if a is not None:
        if a.degree != 1.0:
            raise DegreeMismatch(f"a must have degree 1, got {a.degree}")
        if a.homogeneity_defect(rng, samples=32) > 1e-8:
            raise DegreeMismatch("a is not homogeneous of its declared degree 1")

        def a_phi(xi, eta, _a=a):
            return _a(xi, eta) * wave_phase(xi, eta)

        a_piece = BilinearSymbol(name="a*phi_w", evaluator=a_phi, degree=2.0,
                                 singular=True)
        pieces.append(a_piece)
        terms.append(a_phi)
        degrees.append(2.0)
        separable.append(_separable_a_phi(a))

    if b is not None:
        bs = list(b)
        for j, bj in enumerate(bs):
            if bj is None:
                continue
            if bj.degree != 0.0:
                raise DegreeMismatch(f"b[{j}] must have degree 0, got {bj.degree}")
            if bj.homogeneity_defect(rng, samples=32) > 1e-8:
                raise DegreeMismatch(
                    f"b[{j}] is not homogeneous of its declared degree 0")

        def b_grad(xi, eta, _bs=bs):
            g = wave_phase_grad_eta(xi, eta)
            out = None
            for j, bj in enumerate(_bs):
                if bj is None:
                    continue
                piece = bj(xi, eta) * g[..., j]
                out = piece if out is None else out + piece
            return out

        b_piece = BilinearSymbol(name="b.grad_phi_w", evaluator=b_grad,
                                 degree=0.0, singular=True)
        pieces.append(b_piece)
        terms.append(b_grad)
        degrees.append(0.0)
        separable.append(_separable_b_grad(bs))

    if not pieces:
        raise DegreeMismatch("need at least one of a, b")

    def total(xi, eta, _terms=tuple(terms)):
        out = _terms[0](xi, eta)
        for term in _terms[1:]:
            out = out + term(xi, eta)
        return out

    sep = None
    if all(s is not None for s in separable):
        sep = [t for s in separable for t in s]

    return BilinearSymbol(
        name=name or "nonresonant",
        evaluator=total,
        degree=max(degrees),
        singular=True,
        separable_terms=sep,
        components=pieces,
        term_degrees=tuple(degrees),
    )


def _separable_a_phi(a):
    """Factorization of a*phi_w for the preset a = c|xi| only."""
    if a.name != "|xi|":
        return None
    mod = lambda v: _norm(np.asarray(v, dtype=float)).astype(complex)
    neg_mod = lambda v: -mod(v)
    sq = lambda v: mod(v) ** 2
    # |xi| (|xi| - |xi-eta| - |eta|) = |xi|^2 - |xi||xi-eta| - |xi||eta|
    return [(sq, _one, _one), (mod, neg_mod, _one), (mod, _one, neg_mod)]


def _separable_b_grad(bs):
    """Factorization of b.grad_eta phi_w for constant vectors b."""
    consts = []
    for bj in bs:
        if bj is None:
            consts.append(0.0)
        elif bj.name.startswith("b[") or bj.name.startswith("const"):
            xi0 = np.array([[1.0, 0.0, 0.0]])
            consts.append(complex(bj(xi0, xi0 * 0.5)[0]))
        else:
            return None
    terms = []
    for j, c in enumerate(consts):
        if c == 0.0:
            continue

        def comp(v, _j=j, _c=c):
            u = _unit(np.asarray(v, dtype=float))
            return _c * u[..., _j].astype(complex)

        def neg_comp(v, _j=j, _c=c):
            u = _unit(np.asarray(v, dtype=float))
            return -_c * u[..., _j].astype(complex)

        # b_j * [ (xi-eta)_j/|xi-eta| - eta_j/|eta| ]
        terms.append((_one, comp, _one))
        terms.append((_one, _one, neg_comp))
    return terms


def class_membership_report(symbol, rng, *, ledger, samples=400):
    """Numerical stand-in for the smooth-factorization clause of the symbol
    class: boundedness plus continuity along rays in the regime
    |xi| << |eta|, |xi - eta| ~ 1.  Returns (bound, max ray jump) and
    records the bound constant in `ledger`.  Symbolic smoothness certification is out
    of reach; the class is used downstream only through boundedness.
    """
    bound = 0.0
    jump = 0.0
    for _ in range(samples):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        eta = rng.normal(size=3)
        eta *= rng.uniform(0.8, 1.2) / np.linalg.norm(eta)
        vals = [complex(symbol(r * d, eta))
                for r in (0.08, 0.04, 0.02, 0.01)]
        bound = max(bound, max(abs(v) for v in vals))
        jump = max(jump, max(abs(b - a)
                             for a, b in zip(vals, vals[1:])))
    ledger.record("class_bound", bound, symbol=symbol.name, ray_jump=jump)
    return bound, jump


def mu0_symbol(phase, s, direction=(1.0, 0.0, 0.0), name="mu0"):
    """mu0(xi, eta) = (d . grad_xi phi)(xi, eta) |xi - eta| / (i phi + 1/s).

    The numerator's gradient factor vanishes when xi is parallel to
    xi - eta, and the dissipative imaginary part keeps the denominator away
    from zero, so the symbol is bounded.  Exact homogeneity is broken by
    the 1/s shift; the symbol is class-0 only asymptotically, so the
    scaling invariant is checked as continuity near lambda = 1 instead.
    """
    if phase.kind != "dissipative":
        raise ValueError("mu0 is built from the dissipative phase")
    if s < 1.0:
        raise ValueError("mu0 requires s >= 1")
    d = np.asarray(direction, dtype=float)

    def ev(xi, eta, _d=d, _s=float(s), _phase=phase):
        num = np.einsum("...j,j->...", _phase.gradient_xi(xi, eta), _d)
        num = num * _norm(xi - eta)
        den = 1j * _phase.evaluator(xi, eta) + 1.0 / _s
        return num / den

    return BilinearSymbol(name=name, evaluator=ev, degree=0.0, singular=True)


# ---------------------------------------------------------------------------
# named presets (External Interface)
# ---------------------------------------------------------------------------

def symbol_preset(name, mu0_time=10.0):
    """Presets addressable by name: one, null_b, aphi, mixed, mu0."""
    if name == "one":
        return constant_symbol(1.0, degree=0.0, name="one")
    if name == "null_b":
        m = make_nonresonant_symbol(None, unit_vector_symbols((1.0, 0.0, 0.0)),
                                    name="null_b")
        return m
    if name == "aphi":
        return make_nonresonant_symbol(xi_modulus_symbol(), None, name="aphi")
    if name == "mixed":
        return make_nonresonant_symbol(xi_modulus_symbol(),
                                       unit_vector_symbols((1.0, 0.0, 0.0)),
                                       name="mixed")
    if name == "mu0":
        return mu0_symbol(DISSIPATIVE_PHASE, mu0_time)
    raise KeyError(f"unknown symbol preset {name!r}")


SYMBOL_PRESET_NAMES = ("one", "null_b", "aphi", "mixed", "mu0")
NONRESONANT_PRESET_NAMES = ("null_b", "aphi", "mixed")
