#!/usr/bin/env python3
"""Space-time resonance geometry of the wave interaction phase.

The quadratic interaction of half-waves carries the phase
phi_w(xi, eta) = |xi| - |xi - eta| - |eta|, which vanishes exactly when
eta lies on the segment [0, xi]; on that set the eta-gradient vanishes
too, so time and space resonances coincide there.  Nonresonant symbols
m = a phi_w + b . grad_eta phi_w vanish on that set by construction,
and the dissipative phase acquires a positive imaginary part that
empties the time-resonant set altogether.
"""

import numpy as np

from pdhyp import symbols as sy

TOL = 1e-9   # |phi_w| and |grad_eta phi_w| below this count as zero
rng = np.random.default_rng(0)

print("=== classifying sample interaction points ===")
xi = np.array([1.0, 0.0, 0.0])
cases = [("collinear interior, eta = 0.3 xi", np.array([0.3, 0.0, 0.0])),
         ("orthogonal, eta = e2", np.array([0.0, 1.0, 0.0])),
         ("generic", np.array([0.4, 0.5, -0.2]))]
for label, eta in cases:
    phi = sy.wave_phase(xi, eta)
    grad = np.linalg.norm(sy.wave_phase_grad_eta(xi, eta))
    tags = [tag for tag, val in (("time_resonant", phi),
                                 ("space_resonant", grad)) if abs(val) <= TOL]
    print(f"{label:36s} phi_w = {phi:+.4f}  |grad_eta| = {grad:.4f}  -> "
          f"{', '.join(tags) or 'none'}")

print("\n=== nonresonant symbols vanish on the resonant set ===")
xi_r, eta_r = sy.sample_spacetime_resonant_points(rng, 2000)
for name in sy.NONRESONANT_PRESET_NAMES:
    m = sy.symbol_preset(name)
    print(f"{name:8s} max |m| over 2000 resonant points: "
          f"{np.max(np.abs(m(xi_r, eta_r))):.3e}")

print("\n=== dissipation removes time resonances ===")
for n_eta in (0.05, 0.2, 0.45):
    eta = np.array([n_eta, 0.0, 0.0])
    phi = sy.dissipative_phase(xi, eta)
    print(f"|eta| = {n_eta:4.2f}:  Im phi = {phi.imag:.4f}  "
          f">= |eta|^2 = {n_eta**2:.4f}")
print("on the collinear points above phi_w = 0, while |phi| >= Im phi > 0")

print("\n=== the bounded quotient symbol ===")
mu0 = sy.symbol_preset("mu0")
d = rng.normal(size=(300, 3))
d /= np.linalg.norm(d, axis=1)[:, None]
eta = rng.normal(size=(300, 3))
eta *= (rng.uniform(0.8, 1.2, size=300) / np.linalg.norm(eta, axis=1))[:, None]
vals = np.array([mu0(r * d, eta) for r in (0.08, 0.04, 0.02, 0.01)])
print(f"mu0 bound on |xi| << 1, |eta| ~ 1: {np.max(np.abs(vals)):.3f} "
      f"(max jump along rays {np.max(np.abs(np.diff(vals, axis=0))):.3f})")
