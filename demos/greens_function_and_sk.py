#!/usr/bin/env python3
"""Spectral anatomy of the model systems.

Walks through the per-mode linear operator E(i xi) = -i|xi| A + B: its
branch eigenvalues, the resolvent projectors, the low-frequency Green
splitting into diffusive / damped / wave parts, and the coupling check
that separates the 2x2 system (every component feels dissipation) from
the 3x3 one (the transported component does not).
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

model = spectra.three_component_model()
E = spectra.build_linear_symbol(model, (0.3, 0.0, 0.0))
lam, V, P = spectra.eigen_decompose(E)
print("=== E(i xi) at xi = (0.3, 0, 0) ===")
print(E)
print("eigenvalues:", lam)
print("projector completeness |sum P - I| =",
      np.max(np.abs(P.sum(0) - np.eye(3))))
print("idempotence |P1^2 - P1| =", np.max(np.abs(P[0] @ P[0] - P[0])), "\n")

grid = SpectralGrid(32, 128.0)
cache = spectra.build_symbol_cache(grid, model)
parts = spectra.decompose_green(cache, t=10.0)
print("=== Green splitting on the band |xi| <= 0.25 at t = 10 ===")
in_band = np.isin(cache.shell, parts.modes)
print(f"{in_band.sum()} modes on {parts.modes.size} |xi| shells in band "
      f"({cache.xi_norm.size} shells for {grid.size} modes in all)")
i = np.argmin(np.abs(cache.xi_norm[parts.modes] - 0.1))
s = cache.xi_norm[parts.modes][i]
print(f"sample shell |xi| = {s:.3f}:")
print("  |K|    =", np.linalg.norm(parts.K[i], 2),
      " (heat-like, ~ exp(-|xi|^2 t) =", np.exp(-s**2 * 10), ")")
print("  |Kexp| =", np.linalg.norm(parts.Kexp[i], 2), " (damped)")
print("  |W|    =", np.linalg.norm(parts.W[i], 2),
      " (wave, unit modulus forever)\n")

print("=== coupling condition ===")
dirs = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.57735,) * 3]
rep3 = spectra.check_sk(model, dirs)
print("3x3 model satisfies the coupling condition:", rep3.satisfies_sk)
if rep3.violating_directions:
    z, xi, mu = rep3.violating_directions[0]
    print(f"  witness: kernel vector z = {z} is a convection eigenvector "
          f"(eigenvalue {mu:+.1f})")
rep2 = spectra.check_sk(spectra.two_component_model(), [(1.0, 0.0)])
print("2x2 model satisfies the coupling condition:", rep2.satisfies_sk)
