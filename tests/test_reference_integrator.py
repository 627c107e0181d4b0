"""The Stepper against an integrator that shares none of its code.

The reference solves the stated PDE, dU/dt = (-i|xi| A + B) U + N(U), on
the band of an n = 8 grid (K = 2, 125 modes per component) with scipy's
DOP853 at rtol 1e-12, from t = 1 to 3:

  * E is a dense 3x3 (or 2x2) matrix per mode, built from the model's A
    and B, not from the symbol cache;
  * every product f g is the shifted sum over the band's pairs of modes,
    sum_j f_hat[k - j] g_hat[j] d_eta, from one precomputed index table,
    with no transform;
  * T_m(w, w) is the same sum weighted by the symbol's values m(xi, eta)
    at the pairs, with the zero modes of a singular symbol dropped;
  * the quadratic sources are written out here from the model definitions
    of evolution.ModelSpec, not read from the model's source table.

Under the strict 2/3 rule no product of two band modes wraps onto the band
on n = 8 points, so the Stepper solves the same ODE.  Its relative max
error at t = 3 is checked at dt = 0.1, and its order between dt = 0.1 and
0.05.  Over seeds 0-7 of every case the errors at dt = 0.1 lay in
[2.5e-4, 6.9e-4] for ifrk2 and [2.5e-8, 1.2e-7] for ifrk4, and the orders
within 0.005 of 2 and 4; the bounds below sit above those spreads.  The
nonlinear part is 13-36% of the state at t = 3 on that data.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pdhyp import evolution as ev
from pdhyp import spectra
from pdhyp import symbols as sy
from pdhyp.grid import SpectralGrid

GRID = SpectralGrid(8, 16.0)
T_END = 3.0
DTS = (0.1, 0.05)
# scheme -> (the bound of the relative error at dt = 0.1, its order)
BOUNDS = {"ifrk2": (1e-3, 2), "ifrk4": (1.5e-7, 4)}
ORDER_TOL = 0.02
COEFFICIENTS = dict(a_u=1.0, b_u=-0.7, c_u=0.5, a_v=0.3, b_v=0.8, c_v=-0.4,
                    d_v=0.9)
# case -> (model kind, symbol, coupling): every kind and coupling, and
# symbols with a diagonal T_m(w, w) and without one (null_b)
CASES = {"pk_mixed_uw": ("pk_system", "mixed", "uw"),
         "pk_aphi_vw_in_u": ("pk_system", "aphi", "vw_in_u"),
         "k": ("k_system", None, "uw"),
         "pksw_one": ("pk_system_w", "one", "vw_in_w"),
         "pk_null_b_vw_in_v": ("pk_system", "null_b", "vw_in_v")}


def _pair_table(grid):
    """The band's modes (M, 3) in the cube's order, and the index arrays
    (out, a, b) of every pair of band modes b and a = out - b whose sum
    out lies in the band."""
    k, size = grid.dealias_limit, 2 * grid.dealias_limit + 1
    modes = np.stack(np.meshgrid(*[grid.band_k] * grid.ndim, indexing="ij"),
                     axis=-1).reshape(-1, grid.ndim)
    out, b = np.divmod(np.arange(len(modes) ** 2), len(modes))
    diff = modes[out] - modes[b]
    keep = np.all(np.abs(diff) <= k, axis=1)
    a = np.ravel_multi_index(tuple((diff[keep] % size).T), (size,) * 3)
    return modes, out[keep], a, b[keep]


MODES, OUT, A, B = _pair_table(GRID)
XI = GRID.dk * MODES


def _shifted_sum(f, g, weights):
    """sum over the pairs of weights * f[a] * g[b], per output mode."""
    p = weights * f[A] * g[B]
    return (np.bincount(OUT, p.real, len(MODES))
            + 1j * np.bincount(OUT, p.imag, len(MODES)))


def _sources(kind, coupling):
    """Per equation, the (coefficient, i, j) of each product U_i U_j, as
    ModelSpec states them; a symbol adds T_m(w, w) to the w-equation."""
    u, v, w = 0, 1, 2
    if kind == "pk_system_w":      # (v^2, v^2, vw + T_m(w, w))
        return [[(1.0, v, v)], [(1.0, v, v)], [(1.0, v, w)]]
    c = COEFFICIENTS
    rows = [[(c["a_u"], u, u), (c["b_u"], v, v), (c["c_u"], u, v)],
            [(c["a_v"], u, u), (c["b_v"], v, v), (c["c_v"], u, v)]]
    if kind == "pk_system":     # the coupling term d_v uw or d_v vw
        eq, i = {"uw": (1, u), "vw_in_v": (1, v), "vw_in_u": (0, v)}[coupling]
        rows[eq].append((c["d_v"], i, w))
        rows.append([])
    return rows


def _initial(dim, seed, amplitude=0.5):
    """Random conjugate-symmetric band data, each component scaled so
    that sum |f_hat| d_eta, a bound of its sup in space, is `amplitude`."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, len(MODES))) + 1j * rng.normal(
        size=(dim, len(MODES)))
    size = 2 * GRID.dealias_limit + 1
    minus = np.ravel_multi_index(tuple((-MODES % size).T), (size,) * 3)
    x = 0.5 * (x + np.conj(x[:, minus]))
    return x * (amplitude / (np.abs(x).sum(1, keepdims=True) * GRID.d_eta))


def _reference(case, seed=0):
    """The initial data (d, M) and the reference solution at T_END."""
    kind, symbol, coupling = CASES[case]
    model = (spectra.two_component_model() if kind == "k_system"
             else spectra.three_component_model())
    d = model.dim_state
    E = (-1j * np.linalg.norm(XI, axis=1))[:, None, None] * model.A + model.B
    rows = _sources(kind, coupling)
    ones = np.full(len(OUT), GRID.d_eta)
    if symbol is not None:
        m = sy.symbol_preset(symbol)
        t_weights = m(XI[OUT], XI[B]) * GRID.d_eta
        if m.singular:
            t_weights[(OUT == 0) | (A == 0) | (B == 0)] = 0.0

    def rhs(t, y):
        U = y.reshape(d, -1)
        dU = np.einsum("kij,jk->ik", E, U)
        for eq, row in enumerate(rows):
            for c, i, j in row:
                dU[eq] += c * _shifted_sum(U[i], U[j], ones)
        if symbol is not None:
            dU[2] += _shifted_sum(U[2], U[2], t_weights)
        return dU.ravel()

    data = _initial(d, seed)
    sol = solve_ivp(rhs, (1.0, T_END), data.ravel(), method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success
    return data, sol.y[:, -1].reshape(d, -1)


def _stepper_error(case, data, expect, scheme, dt):
    """The relative max error at T_END of the Stepper from `data`."""
    kind, symbol, coupling = CASES[case]
    coefficients = {} if kind == "pk_system_w" else dict(
        COEFFICIENTS, d_v=COEFFICIENTS["d_v"] if kind == "pk_system" else 0.0)
    model = ev.ModelSpec(kind, ev.Coefficients(**coefficients),
                         w_symbol=sy.symbol_preset(symbol) if symbol else None,
                         coupling=coupling)
    stepper = ev.Stepper(model, GRID, dt, scheme)
    state = ev.StateField(GRID, data.reshape((-1,) + GRID.band_shape), 1.0)
    for _ in range(round((T_END - 1.0) / dt)):
        state = stepper.step(state)
    got = state.data.reshape(len(data), -1)
    return float(np.max(np.abs(got - expect)) / np.max(np.abs(expect)))


@pytest.mark.parametrize("case", CASES)
def test_stepper_converges_to_the_reference_at_its_order(case):
    data, expect = _reference(case)
    for scheme, (bound, order) in BOUNDS.items():
        coarse, fine = (_stepper_error(case, data, expect, scheme, dt)
                        for dt in DTS)
        assert coarse <= bound, (scheme, coarse, fine)
        assert abs(np.log2(coarse / fine) - order) <= ORDER_TOL, (
            scheme, coarse, fine)
