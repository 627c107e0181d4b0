"""Phases, a sampler of the space-time resonant set R, homogeneous symbols
and nonresonant bilinear forms.  The wave phase, its gradients and every
symbol but mu0 are term lists over the factor basis {|v|, v_j/|v|} (see
BilinearSymbol), all evaluated by evaluate_terms; only the complex
dissipative phase is a closed form.  NONRESONANT_CLASS is the one table
of the nonresonant class members the package builds, presets included.

All evaluators are vectorized numpy functions of wavevector arrays whose
last axis is the space dimension (factor takes their components and
norms instead).  Symbols are smooth only off the rays
{xi = 0} u {xi - eta = 0} u {eta = 0}; on a grid, exactly singular lattice
points evaluate to 0 (the zero-mode convention).
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegreeMismatch


def _norm(v):
    return np.linalg.norm(v, axis=-1)


def sample_spacetime_resonant_points(rng, count):
    """Random points of R = {eta = s xi, 0 < s < 1} for vanishing tests:
    0.5 <= |xi| <= 2 and 0.05 <= s <= 0.95."""
    d = rng.normal(size=(count, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    r = rng.uniform(0.5, 2.0, size=count)
    s = rng.uniform(0.05, 0.95, size=count)
    xi = r[:, None] * d
    eta = s[:, None] * xi
    return xi, eta


# ---------------------------------------------------------------------------
# bilinear symbols
# ---------------------------------------------------------------------------

NORM = "|v|"
"""The atom |v| of the factor basis; the integer atom j stands for v_j/|v|."""


def term_degree(term):
    """Exact homogeneity degree of a term (c, p, q, r): its number of |v|
    atoms, since every v_j/|v| has degree 0."""
    return sum(atoms.count(NORM) for atoms in term[1:])


def _monomial(atoms, v, norm, c=1.0):
    """c times the product of `atoms` at the components v[j] of v, where
    norm = |v|, with the zero-mode convention v_j/|v| = 0 at v = 0."""
    for atom in atoms:
        c = c * (norm if atom == NORM else np.where(
            norm > 0.0, v[atom] / np.where(norm > 0.0, norm, 1.0), 0.0))
    return c


def evaluate_terms(terms, xi, eta):
    """sum over the term list of c p(xi) q(xi - eta) r(eta) (see
    BilinearSymbol), at wavevector arrays xi and eta."""
    args = [(np.moveaxis(v, -1, 0), _norm(v)) for v in (xi, xi - eta, eta)]
    total = np.zeros(np.broadcast_shapes(xi.shape[:-1], eta.shape[:-1]))
    for value, *slots in terms:
        for atoms, (v, norm) in zip(slots, args):
            value = _monomial(atoms, v, norm, value)
        total = total + value
    return total


def factor(atoms, c, axes, norm):
    """c * (product of `atoms`), shaped like norm, on the wavevectors of
    components `axes` and norm `norm`, such as a grid's xi_axes, xi_norm."""
    return _monomial(atoms, axes, norm, np.full(np.shape(norm), c))


def _factor(atoms, c, v):
    """factor at the points v, whose last axis is the dimension."""
    v = np.asarray(v, dtype=float)
    return (factor(atoms, c, np.moveaxis(v, -1, 0), _norm(v)) if atoms
            else np.full(v.shape[:-1], c))


@dataclass
class BilinearSymbol:
    """A symbol m(xi, eta) with its homogeneity degree.

    A symbol built by `from_terms` is one term list: a term (c, p, q, r)
    stands for c p(xi) q(xi - eta) r(eta), where each of p, q and r is a
    tuple of atoms of the factor basis {|v|, v_j/|v|} (NORM and the
    integer j) and the empty tuple is 1.  From that list alone come the
    evaluator, the degree (the highest exact term degree) and
    separable_terms, the list of (alpha, beta, gamma) single-variable
    factors with m = sum_k alpha_k(xi) beta_k(xi-eta) gamma_k(eta) at
    points, which select the FFT path of the pseudoproduct (its plan
    evaluates the terms' factors on its grid).  A symbol outside the
    basis, such as mu0, gives its evaluator and degree directly, has no
    separable_terms and takes the direct sum.  All evaluators return
    finite values (0) at exactly singular arguments.
    """
    name: str
    evaluator: callable
    degree: float
    singular: bool = True
    separable_terms: list = None
    terms: tuple = ()

    @classmethod
    def from_terms(cls, name, terms, singular=True):
        """The symbol of a term list (see the class docstring); each
        separable term carries the coefficient c on its alpha."""
        terms = tuple(terms)
        separable = [(partial(_factor, p, c), partial(_factor, q, 1.0),
                      partial(_factor, r, 1.0)) for c, p, q, r in terms]
        return cls(name, partial(evaluate_terms, terms),
                   max(map(term_degree, terms)), singular, separable, terms)

    def __call__(self, xi, eta):
        return self.evaluator(np.asarray(xi, dtype=float),
                              np.asarray(eta, dtype=float))


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

WAVE_PHASE_TERMS = ((1.0, (NORM,), (), ()), (-1.0, (), (NORM,), ()),
                    (-1.0, (), (), (NORM,)))
"""phi_w = |xi| - |xi - eta| - |eta| as a term list (<= 0 by the triangle
inequality, = 0 exactly when eta lies on the segment [0, xi])."""


WAVE_PHASE_GRAD_ETA_TERMS = tuple(((1.0, (), (j,), ()), (-1.0, (), (), (j,)))
                                  for j in range(3))
"""d phi_w / d eta_j = (xi - eta)_j/|xi - eta| - eta_j/|eta| as a term list,
for j = 0, 1, 2."""


WAVE_PHASE_GRAD_XI_TERMS = tuple(((1.0, (j,), (), ()), (-1.0, (), (j,), ()))
                                 for j in range(3))
"""d phi / d xi_j = xi_j/|xi| - (xi - eta)_j/|xi - eta| for j = 0, 1, 2, the
same for the wave and the dissipative phase."""


def _stacked(term_lists):
    """The vector evaluator whose component j is the term list j."""
    return lambda xi, eta: np.stack(
        [evaluate_terms(terms, xi, eta) for terms in term_lists], axis=-1)


wave_phase = partial(evaluate_terms, WAVE_PHASE_TERMS)
wave_phase_grad_eta = _stacked(WAVE_PHASE_GRAD_ETA_TERMS)


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


def _times(part, phase_terms, degree, what):
    """The term list of part * phase_terms; every term of `part` must have
    the exact degree `degree`."""
    for term in part:
        if term_degree(term) != degree:
            raise DegreeMismatch(f"{what} must have degree {degree}, got a "
                                 f"term of degree {term_degree(term)}")
    return [(c1 * c2, p1 + p2, q1 + q2, r1 + r2)
            for c1, p1, q1, r1 in part for c2, p2, q2, r2 in phase_terms]


def make_nonresonant_symbol(a, b, name="nonresonant"):
    """m(xi, eta) = a(xi, eta) phi_w(xi, eta) + b(xi, eta) . grad_eta phi_w.

    `a` is a term list whose every term has degree 1; `b` is a sequence of
    per-component term lists of degree 0, a None or empty entry being a
    zero component; either may be None.  The products with the term lists
    of phi_w and d phi_w / d eta_j expand termwise into the symbol's term
    list, so every member of the class gets the FFT path.  A term of the
    wrong exact degree raises DegreeMismatch.  The symbol vanishes on the
    space-time resonant set by construction; with a = None it reduces to
    a classical null form.
    """
    terms = _times(a or (), WAVE_PHASE_TERMS, 1, "a")
    for j, bj in enumerate(b or ()):
        terms += _times(bj or (), WAVE_PHASE_GRAD_ETA_TERMS[j], 0, f"b[{j}]")
    if not terms:
        raise DegreeMismatch("need at least one of a, b")
    return BilinearSymbol.from_terms(name, terms)


def mu0_symbol(s):
    """mu0(xi, eta) = (d phi / d xi_0)(xi, eta) |xi - eta| / (i phi + 1/s),
    phi the dissipative phase.

    The numerator's gradient factor vanishes when xi is parallel to
    xi - eta, and the dissipative imaginary part keeps the denominator away
    from zero, so the symbol is bounded.  Exact homogeneity is broken by
    the 1/s shift; the symbol is class-0 only asymptotically, so the
    scaling invariant is checked as continuity near lambda = 1 instead.
    """
    if s < 1.0:
        raise ValueError("mu0 requires s >= 1")

    def ev(xi, eta, _s=float(s)):
        num = evaluate_terms(WAVE_PHASE_GRAD_XI_TERMS[0], xi, eta)
        num = num * _norm(xi - eta)
        return num / (1j * dissipative_phase(xi, eta) + 1.0 / _s)

    return BilinearSymbol(name="mu0", evaluator=ev, degree=0.0, singular=True)


# ---------------------------------------------------------------------------
# the nonresonant class and the named presets (External Interface)
# ---------------------------------------------------------------------------

# the members of the nonresonant class m = a phi_w + b . grad_eta phi_w by
# name, as (a, b) of make_nonresonant_symbol: the presets first
_XI_NORM = ((1.0, (NORM,), (), ()),)        # a = |xi|
_E_X = (((1.0, (), (), ()),), None, None)   # b = (1, 0, 0)
NONRESONANT_CLASS = {
    "null_b": (None, _E_X),
    "aphi": (_XI_NORM, None),
    "mixed": (_XI_NORM, _E_X),
    "a_eta": (((1.0, (), (), (NORM,)),), None),     # a = |eta|
    "a_xi_eta": (((1.0, (), (NORM,), ()),), None),  # a = |xi - eta|
    "b_xi_unit": (None, [((1.0, (j,), (), ()),) for j in range(3)]),
    "b_eta_unit": (None, [((1.0, (), (), (j,)),) for j in range(3)]),
}
NONRESONANT_PRESET_NAMES = tuple(NONRESONANT_CLASS)[:3]
SYMBOL_PRESET_NAMES = ("one", *NONRESONANT_PRESET_NAMES, "mu0")


def symbol_preset(name):
    """The symbol of a name of SYMBOL_PRESET_NAMES."""
    if name == "one":
        return BilinearSymbol.from_terms("one", [(1.0, (), (), ())],
                                         singular=False)
    if name == "mu0":
        return mu0_symbol(10.0)
    if name in NONRESONANT_PRESET_NAMES:
        return make_nonresonant_symbol(*NONRESONANT_CLASS[name], name=name)
    raise KeyError(f"unknown symbol preset {name!r}")
