#!/usr/bin/env python3
"""Spectral anatomy of the model systems.

Walks through the per-mode linear operator E(i xi) = -i|xi| A + B as the
symbol cache holds it, each matrix as the rows of its entries that can be
nonzero (spectra.BLOCK_ENTRIES): its branch eigenvalues, the resolvent
projectors, the per-branch terms e^{lam_i t} P_i of the Green function
(diffusive, damped and wave), and the coupling check that separates the
2x2 system (every component feels dissipation) from the 3x3 one (the
transported component does not).
"""

import numpy as np

from pdhyp import spectra
from pdhyp.grid import SpectralGrid

np.set_printoptions(precision=4, suppress=True, linewidth=100)

print("=== eigenvalues of the dissipative block ===")
for s in (0.05, 0.3, 0.45, 0.8, 2.0):
    lam1, lam2, _ = spectra._branch_eigvals(s)
    print(f"|xi| = {s:4.2f}:  lam1 = {lam1:+.4f}   lam2 = {lam2:+.4f}")
print("below |xi| = 1/2 the slow branch behaves like -|xi|^2 (diffusion),")
print("above it both branches damp at the fixed rate 1/2 and oscillate.\n")



def matrix(rows):
    """The d x d matrix of one entry's BLOCK_ENTRIES rows."""
    m = np.zeros((len(rows) - 1,) * 2, dtype=complex)
    for value, (i, j) in zip(rows, spectra.BLOCK_ENTRIES):
        m[i, j] = m[j, i] = value
    return m


model = spectra.three_component_model()
one = spectra.build_symbol_cache([0.3], model)
P = [matrix(p[:, 0]) for p in one.projectors]
print("=== E(i xi) at |xi| = 0.3 ===")
print(matrix(one.E[:, 0]))
print("eigenvalues:", one.eigvals[:, 0])
print("projector completeness |sum P - I| =",
      np.max(np.abs(sum(P) - np.eye(3))))
print("idempotence |P1^2 - P1| =", np.max(np.abs(P[0] @ P[0] - P[0])), "\n")

t = 10.0
grid = SpectralGrid(32, 128.0)
norms, _ = grid.shells            # the |xi| shells of the 2/3-rule band
cache = spectra.build_symbol_cache(norms, model)
band = np.nonzero(cache.xi_norm <= 0.25)[0]
print(f"=== Green terms e^(lam_i t) P_i on |xi| <= 1/4, t = {t:g} ===")
print(f"{np.sum(grid.xi_norm <= 0.25)} modes on {band.size} |xi| shells "
      f"({norms.size} shells for the {grid.xi_norm.size} modes of "
      "the 2/3 band)")
terms = (np.exp(cache.eigvals[:, band] * t)[:, None]
         * cache.projectors[:, :, band])
gap = np.max(np.abs(terms.sum(0)
                    - spectra.green_function(cache, t)[:, band]))
print(f"the terms sum to the Green function: max deviation {gap:.1e}")
i = np.argmin(np.abs(cache.xi_norm[band] - 0.1))
s = cache.xi_norm[band][i]
print(f"sample shell |xi| = {s:.3f}:")
print("  |K|    =", np.linalg.norm(matrix(terms[0, :, i]), 2),
      " (heat-like, ~ exp(-|xi|^2 t) =", np.exp(-s**2 * t), ")")
print("  |Kexp| =", np.linalg.norm(matrix(terms[1, :, i]), 2), " (damped)")
print("  |W|    =", np.linalg.norm(matrix(terms[2, :, i]), 2),
      " (wave, unit modulus forever)\n")

print("=== coupling condition [SK] ===")
for name, m in (("3x3", model), ("2x2", spectra.two_component_model())):
    undamped = spectra.check_sk(m)
    print(f"{name} model satisfies the coupling condition: {not undamped}")
    for z, mu in undamped:
        print(f"  undamped: z = {z} lies in ker B and is a convection "
              f"eigenvector (eigenvalue {mu:+.1f})")
