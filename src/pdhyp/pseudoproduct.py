"""Bilinear pseudoproduct T_m(f, g) on a spectral grid.

The operator acts on band fields, stored on the 2/3 band's cube, as

    h_hat(xi_k) = sum_j m(xi_k, eta_j) f_hat[k - j] g_hat[j] * d_eta,

over the band's modes k and j, with f_hat 0 off the band: a Riemann sum of
the continuum pseudoproduct integral (the grid's transform convention makes
m = 1 the band of the pointwise product in physical space).  The symbol
alone selects how apply() evaluates it:

  * a symbol built from a term list, each term c p(xi) q(xi - eta) r(eta)
    with p, q and r products over the factor basis {|v|, v_j/|v|}, carries
    the factorization m = sum_k alpha_k(xi) beta_k(xi - eta) gamma_k(eta)
    as separable_terms and takes the separable FFT path.  A product of
    atoms names its factor: the plan evaluates each distinct product once,
    from the grid's sparse axes and cached |xi|, and compiles the term
    list at set-up into two forms, one for T(f, g) and one for T(f, f).
    A form stacks each (input, beta or gamma) field it needs once, and
    the terms sharing alpha form one group, their coefficients on the
    product rows summed in physical space slab by slab and transformed
    there (grid.product_spectra); so an apply costs one band inverse of
    the stack and one forward transform per group, weights each group's
    cube by its alpha and sums the cubes, and builds no n^d field.  The
    diagonal form T(f, f) sees only the symmetric part of m:
    each (beta, gamma) pair merges with its swap and pairs whose
    coefficients cancel drop out, so a symbol with a vanishing symmetric
    part, such as the null form null_b, costs no transform.
  * a symbol outside the basis, such as mu0, takes the direct sum over
    every pair of modes, which refuses jobs above TERM_CAP symbol
    evaluations.

apply_direct() evaluates the direct sum for any symbol; it is the reference
the separable path is checked against.  A plan takes and returns band
fields on the grid's cube: under the strict 2/3 rule no aliased interaction
lands on a kept mode, so the two paths agree to rounding and the direct sum
runs over the cube alone.  The module holds the operator and its reference
only; the estimate harness of T_m is norms.holder_bound_ratio.
"""

from dataclasses import dataclass

import numpy as np

from . import symbols
from .errors import CostCapExceeded, GridMismatch
from .grid import dealias_limit

TERM_CAP = int(2e9)


def direct_sum_terms(n, ndim=3):
    """Symbol evaluations of one direct-sum apply on an n^ndim grid: every
    output mode times every input mode of the 2/3-rule band's cube."""
    return (2 * dealias_limit(n) + 1) ** (2 * ndim)


@dataclass
class PseudoproductPlan:
    """A symbol's pseudoproduct on a grid.  For a separable symbol,
    `factors` maps each product of atoms of its term list to its real
    array on the grid, in order of first appearance (None for the empty
    product, the constant 1), and `general` and `diagonal` are the forms
    of T(f, g) and T(f, f) (see _form); all three are None otherwise."""
    grid: object
    symbol: object

    def __post_init__(self):    # compiled at set-up, not by the first apply
        self.factors = self.general = self.diagonal = None
        if not self.symbol.separable_terms:
            return
        self.factors = {(): None}
        for _, *slots in self.symbol.terms:
            for atoms in slots:
                if atoms not in self.factors:
                    self.factors[atoms] = symbols.factor(
                        atoms, 1.0, self.grid.xi_axes, self.grid.xi_norm)
        self.general, self.diagonal = self._form(False), self._form(True)

    def _form(self, diagonal):
        """(fields, groups) of T(f, g), or of T(f, f) when `diagonal`.  A
        field is an (input, factor) pair, input 0 for f and 1 for g; a
        group is (alpha factor, its grid.product_spectra rows (coefficient,
        field, field)).  Each term's coefficient sums into the row of its
        (alpha, beta, gamma), which T(f, f) takes unordered; zero sums drop
        out, and the rest keep their order of first appearance."""
        order = {atoms: i for i, atoms in enumerate(self.factors)}
        coefs = {}
        for c, p, q, r in self.symbol.terms:
            if diagonal:
                q, r = sorted((q, r), key=order.get)
            coefs[p, q, r] = coefs.get((p, q, r), 0.0) + c
        groups = {}
        for (p, q, r), c in coefs.items():
            if c != 0.0:
                groups.setdefault(p, []).append((c, q, r))
        fields = {}     # (input, atoms) -> position in the stack
        rows = [[(c, fields.setdefault((0, q), len(fields)),
                  fields.setdefault((0 if diagonal else 1, r), len(fields)))
                 for c, q, r in pairs] for pairs in groups.values()]
        return ([(side, self.factors[atoms]) for side, atoms in fields],
                list(zip(map(self.factors.get, groups), rows)))

    def vanishes_on_diagonal(self):
        """True when the separable factorization makes T_m(f, f) identically
        zero: the symmetric part of the symbol vanishes."""
        return self.diagonal is not None and not self.diagonal[1]


def apply(plan, fhat, ghat):
    """T_m(f, g) in spectral form; inputs and output on the grid's cube.
    Passing the same array as f and g makes it the diagonal form T_m(f, f).
    The separable path runs when the symbol has a factorization, the
    direct sum otherwise."""
    path = _apply_separable if plan.symbol.separable_terms else _apply_direct
    return _evaluate(plan, fhat, ghat, path)


def apply_direct(plan, fhat, ghat):
    """T_m(f, g) by the direct mode sum whatever the symbol: the reference
    for apply()."""
    return _evaluate(plan, fhat, ghat, _apply_direct)


def _evaluate(plan, fhat, ghat, path):
    """Run `path` on the inputs, which it prepares, then apply the xi = 0
    rule of singular symbols to the output."""
    shape = plan.grid.band_shape
    if fhat.shape != shape or ghat.shape != shape:
        raise GridMismatch(f"fields do not have the plan's shape {shape}")
    out = path(plan, fhat, ghat)
    if plan.symbol.singular:
        out[(0,) * plan.grid.ndim] = 0.0
    return out


def _prepared(plan, fhat, out=None):
    """A complex copy of fhat, in `out` when given."""
    fh = np.empty(fhat.shape, dtype=complex) if out is None else out
    fh[...] = fhat
    if plan.symbol.singular:
        # the singular lattice points {xi=0}u{eta=0}u{xi-eta=0} contribute 0
        fh[(0,) * plan.grid.ndim] = 0.0
    return fh


def _apply_separable(plan, fhat, ghat):
    grid = plan.grid
    fields, groups = plan.diagonal if fhat is ghat else plan.general
    stack = np.empty((len(fields),) + grid.band_shape, dtype=complex)
    for (side, factor), field in zip(fields, stack):
        _prepared(plan, (fhat, ghat)[side], out=field)
        if factor is not None:
            np.multiply(factor, field, out=field)
    cubes = grid.product_spectra(stack, [rows for _, rows in groups])
    for (alpha, _), cube in zip(groups, cubes):
        if alpha is not None:
            cube *= alpha
        if cube is not cubes[0]:
            cubes[0] += cube
    return cubes[0] if cubes else np.zeros(grid.band_shape, dtype=complex)


def _apply_direct(plan, fhat, ghat):
    grid = plan.grid
    d = grid.ndim
    n_terms = direct_sum_terms(grid.n, d)
    if n_terms > TERM_CAP:
        raise CostCapExceeded(
            f"direct sum needs {n_terms:.3g} term evaluations "
            f"(cap {TERM_CAP:.3g}); use a separable symbol or a smaller grid")
    # centered order: the mode of index i is i - size // 2 on every axis
    fc, gc = (np.fft.fftshift(_prepared(plan, x)) for x in (fhat, ghat))
    size = fc.shape[0]
    eta = grid.dk * (np.indices(fc.shape).reshape(d, -1).T - size // 2)
    # f_hat(xi - eta) over every eta is one slice of f_hat reversed and
    # zero-padded by size - 1
    rev = np.pad(fc, size - 1)[(slice(None, None, -1),) * d]
    top = 2 * size - 2 - size // 2
    out = np.zeros(fc.shape, dtype=complex)
    for k, xi in zip(np.ndindex(fc.shape), eta):
        sl = tuple(slice(top - i, top - i + size) for i in k)
        mvals = plan.symbol(xi, eta)
        out[k] = np.sum(mvals * rev[sl].reshape(-1) * gc.reshape(-1))
    return np.fft.ifftshift(out) * grid.d_eta
