#!/usr/bin/env python3
"""The bilinear pseudoproduct: brute force against the FFT fast path.

T_m(f, g) is a full mode-by-mode convolution weighted by the symbol
m(xi, eta).  The direct sum costs one symbol evaluation per pair of modes
of the 2/3 band's cube, (2K+1)^6 for K = (n-1)//3.  A symbol written as a
term list over the factor basis {|v|, v_j/|v|} carries a separable
factorization m = sum_k alpha_k(xi) beta_k(xi-eta) gamma_k(eta), which
needs one inverse transform per distinct factor times a field and one
forward transform per distinct alpha; the plan compiles T(f, g) and the
diagonal T(f, f), which sees only the symmetric part of m, once each, and
the demo prints both.  pp.apply takes the separable path
whenever the symbol has a factorization; pp.apply_direct always sums
directly.  A plan takes fields on the 2/3 band's cube, and both paths
agree on it to rounding.
"""

import time

import numpy as np

from pdhyp import pseudoproduct as pp
from pdhyp import symbols as sy
from pdhyp.acceptance import band_field
from pdhyp.grid import SpectralGrid

rng = np.random.default_rng(1)
grid = SpectralGrid(16, 2 * np.pi)
f, g = band_field(grid, 3, rng), band_field(grid, 3, rng)

print("=== identity symbol: the direct sum is the pointwise product ===")
plan = pp.PseudoproductPlan(grid, sy.symbol_preset("one"))
out = pp.apply_direct(plan, f, g)
prod = grid.to_spectral(grid.to_physical(f) * grid.to_physical(g))
print("max |T_1(f,g) - f*g| =", np.max(np.abs(out - prod)), "\n")

print("=== direct sum vs separable FFT path ===")
# a = |eta| is a member of the class that no preset names: its term list
# expands a phi_w into |eta||xi| - |eta||xi - eta| - |eta|^2
a_eta = sy.make_nonresonant_symbol([(1.0, (), (), (sy.NORM,))], None,
                                   name="a=|eta|")
for m in [sy.symbol_preset(name) for name in ("null_b", "aphi", "mixed")] \
        + [a_eta]:
    plan = pp.PseudoproductPlan(grid, m)
    t0 = time.time()
    direct = pp.apply_direct(plan, f, g)
    t_direct = time.time() - t0
    t0 = time.time()
    fast = pp.apply(plan, f, g)
    t_fast = time.time() - t0
    rel = np.max(np.abs(direct - fast)) / np.max(np.abs(direct))
    print(f"{m.name:8s} {len(m.terms)} terms  rel gap {rel:.2e}   "
          f"direct {t_direct * 1e3:7.1f} ms   separable {t_fast * 1e3:6.1f} ms"
          f"   speedup {t_direct / t_fast:6.1f}x")
    for label, (fields, groups) in (("T(f, f)", plan.diagonal),
                                    ("T(f, g)", plan.general)):
        inputs = "".join("fg"[side] for side, _ in fields) or "none"
        print(f"{'':9s}{label}: {len(fields)} stacked fields ({inputs}), "
              f"{len(groups)} forward transforms")

print("\nsymbols outside the basis (mu0) only get the direct path, with a")
print(f"hard cap of {pp.TERM_CAP:.0e} symbol evaluations: "
      f"{pp.direct_sum_terms(32):.2e} at n = 32, "
      f"{pp.direct_sum_terms(64):.2e} at n = 64.\n")

print("=== empirical bilinear Hoelder constants ===")
plan = pp.PseudoproductPlan(grid, sy.symbol_preset("null_b"))
ratios = [pp.holder_bound_ratio(plan, band_field(grid, 3, rng),
                                band_field(grid, 3, rng), 4.0, 4.0)
          for _ in range(20)]
print(f"||T_m(f,g)||_2 / (||f||_W04 ||g||_4 + ||f||_4 ||g||_W04) over 20 "
      f"random trials:")
print(f"  max {max(ratios):.3f}, mean {np.mean(ratios):.3f} (bounded, as the"
      " product estimate demands)")
