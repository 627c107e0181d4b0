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
from pdhyp.bounds import BoundLedger

rng = np.random.default_rng(0)

print("=== classifying sample interaction points ===")
xi = np.array([1.0, 0.0, 0.0])
cases = [("collinear interior, eta = 0.3 xi", np.array([0.3, 0.0, 0.0])),
         ("orthogonal, eta = e2", np.array([0.0, 1.0, 0.0])),
         ("generic", np.array([0.4, 0.5, -0.2]))]
for label, eta in cases:
    r = sy.classify_resonance(sy.WAVE_PHASE, (xi, eta))
    tags = sorted(r.classification) or ["none"]
    print(f"{label:36s} phi_w = {r.phase_value.real:+.4f}  "
          f"|grad_eta| = {r.eta_gradient_norm:.4f}  -> {', '.join(tags)}")

print("\n=== nonresonant symbols vanish on the resonant set ===")
xi_r, eta_r = sy.sample_spacetime_resonant_points(rng, 2000)
for name in sy.NONRESONANT_PRESET_NAMES:
    m = sy.symbol_preset(name)
    print(f"{name:8s} max |m| over 2000 resonant points: "
          f"{np.max(np.abs(m(xi_r, eta_r))):.3e}")

print("\n=== dissipation removes time resonances ===")
for n_eta in (0.05, 0.2, 0.45):
    eta = np.array([n_eta, 0.0, 0.0])
    phi = sy.dissipative_phase(xi, xi * 0.5 + eta * 0.0 + eta)
    print(f"|eta| = {n_eta:4.2f}:  Im phi = {phi.imag:.4f}  "
          f">= |eta|^2 = {n_eta**2:.4f}")
r = sy.classify_resonance(sy.DISSIPATIVE_PHASE,
                          (xi, np.array([0.1, 0.0, 0.0])))
print("collinear point under the dissipative phase classifies as:",
      sorted(r.classification) or ["none"])

print("\n=== the bounded quotient symbol ===")
mu0 = sy.symbol_preset("mu0")
bound, jump = sy.class_membership_report(mu0, rng, ledger=BoundLedger(),
                                         samples=300)
print(f"mu0 bound on |xi| << 1, |eta| ~ 1: {bound:.3f} "
      f"(max jump along rays {jump:.3f})")
