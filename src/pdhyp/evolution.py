"""Time integration of the model systems in spectral form.

A model is one per-mode linear operator E(i xi) = -i|xi| A + B and a table
of quadratic sources: per equation, a coefficient for each monomial of
MONOMIALS, plus the bilinear pseudoproduct T_m(w, w) in the w-equation.

The sources are quadratic, so under the strict 2/3 rule the state, every
source and every stage is a stack of the band's cubes, (d, *band_shape).
The linear part is advanced exactly by the per-shell matrix exponential
(integrating factor) as its rows (spectra.BLOCK_ENTRIES), gathered once onto
the cube's planes k_0 >= 0 (spectra.band_rows, as |xi| is even in k_0) and
applied chunk by chunk, each plane k_0 < 0 by plane -k_0;
only the quadratic sources see explicit Runge-Kutta stages (Lawson schemes
of order 2 and 4).  A model without sources steps by its exact flow alone,
what both schemes reduce to when every stage source is zero.  Polynomial
sources are summed per equation in physical space and transformed slab by
slab (grid.product_spectra), so no n^d field exists; the bilinear
pseudoproduct source comes from pseudoproduct.apply, and a symbol whose
T_m(w, w) vanishes costs the rhs nothing.  A Stepper owns the stage stacks.

Initial time is t = 1 by convention and all decay fits start there.  The
wave profile e^{i|xi| t} w_hat takes its phase once per |xi| shell.

Physical-space realness is not an invariant of these models: the convection
symbol -i|xi| A is even in xi, so the flow maps conjugate-symmetric spectral
data to data that is merely smooth, and the physical fields are genuinely
complex for t > 1.  Initial data is real; no reality projection is applied
during stepping (it would replace the half-wave factor e^{-i|xi| dt} by
cos(|xi| dt) per step and destroy the wave invariants).
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from . import norms, pseudoproduct, spectra
from .errors import StepRejected
from .grid import SOBOLEV_N, SpectralGrid

T_INITIAL = 1.0
BLOWUP_FACTOR = 1e3

MODEL_KINDS = ("pk_system", "k_system", "pk_system_w")
# products of the state components, in the order rhs accumulates them
MONOMIALS = ("uu", "vv", "uv", "uw", "vw")
# coupling -> (equation, monomial) of the d_v term
COUPLINGS = {"uw": (1, "uw"), "vw_in_v": (1, "vw"), "vw_in_u": (0, "vw"),
             "vw_in_w": (2, "vw")}
# pk_system_w's fixed unit sources (v^2, v^2, vw + T_m(w, w))
PK_SYSTEM_W_SOURCES = ({"vv": 1.0}, {"vv": 1.0}, {"vw": 1.0})


@dataclass
class Coefficients:
    a_u: float = 0.0
    b_u: float = 0.0
    c_u: float = 0.0
    a_v: float = 0.0
    b_v: float = 0.0
    c_v: float = 0.0
    d_v: float = 0.0    # coefficient of the mixed u/v-w coupling term


@dataclass
class ModelSpec:
    """kind selects the system; coupling selects where the mixed term sits.

    pk_system:    quadratic u/v sources plus one mixed coupling term
                  (uw or vw in the v-equation, or vw in the u-equation)
                  and a pseudoproduct source T_m(w, w) in the w-equation.
    k_system:     the 2-component dissipative block with general quadratic
                  sources; w_symbol and coupling are ignored, d_v must be 0.
    pk_system_w:  sources fixed to (v^2, v^2, vw + T_m(w, w)) with unit
                  coefficients; the coupling lives in the w-equation, so the
                  coefficients must stay 0 and the coupling is vw_in_w (the
                  default uw is accepted and resolved to vw_in_w).

    The kind, coefficients and coupling compile into `sources`, one
    {monomial: coefficient} row per equation without zero entries, and
    `w_form`, whether the w-equation carries T_m(w, w).
    """
    kind: str
    coefficients: Coefficients = field(default_factory=Coefficients)
    w_symbol: object = None
    coupling: str = "uw"

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.coupling not in COUPLINGS:
            raise ValueError(f"unknown coupling {self.coupling!r}")
        c = self.coefficients
        if self.kind == "pk_system" and self.coupling == "vw_in_w":
            raise ValueError("pk_system places the coupling in the u/v block")
        if self.kind == "k_system" and c.d_v:
            raise ValueError("k_system has no w, so d_v must be 0")
        if self.kind == "pk_system_w":
            if self.w_symbol is None:
                raise ValueError("pk_system_w needs a w_symbol")
            if any(asdict(c).values()):
                raise ValueError("pk_system_w fixes its sources; "
                                 "coefficients must be 0")
            if self.coupling not in ("uw", "vw_in_w"):
                raise ValueError("pk_system_w places the coupling in the "
                                 "w-equation")
            self.coupling = "vw_in_w"
            self.sources = PK_SYSTEM_W_SOURCES
        else:
            rows = [{"uu": c.a_u, "vv": c.b_u, "uv": c.c_u},
                    {"uu": c.a_v, "vv": c.b_v, "uv": c.c_v}]
            if self.dim_state == 3:
                rows.append({})
                eq, monomial = COUPLINGS[self.coupling]
                rows[eq][monomial] = c.d_v
            self.sources = tuple({m: float(a) for m, a in row.items() if a}
                                 for row in rows)
        # pk_system with w_symbol=None is the linearized/decoupled variant
        self.w_form = self.dim_state == 3 and self.w_symbol is not None

    @property
    def dim_state(self):
        return 2 if self.kind == "k_system" else 3

    def matrices(self):
        if self.dim_state == 2:
            return spectra.two_component_model()
        return spectra.three_component_model()


@dataclass
class StateField:
    """Spectral state (u_hat, v_hat[, w_hat]) on the band's cube, stacked
    as data[(d, *grid.band_shape)]."""
    grid: SpectralGrid
    data: np.ndarray
    t: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.shape[1:] != self.grid.band_shape:
            raise ValueError(f"state fields of shape {self.data.shape[1:]}: "
                             "a state lives on the band's cube "
                             f"{self.grid.band_shape}")

    @property
    def dim_state(self):
        return self.data.shape[0]

    @property
    def w_hat(self):
        if self.dim_state < 3:
            raise AttributeError("2-component state has no w")
        return self.data[2]

    def copy(self):
        return StateField(self.grid, self.data.copy(), self.t)


# ---------------------------------------------------------------------------
# quadratic sources
# ---------------------------------------------------------------------------

def rhs(model, state, plan=None, out=None):
    """Spectral quadratic source of the model, into `out` (new when None);
    the linear part is advanced exactly by the integrating factor.

    The transform is linear, so each equation sums its row of the source
    table in physical space (grid.product_spectra, in MONOMIALS order) and
    pays one forward transform; a row that is a multiple of an earlier row
    shares its transform.  T_m(w, w) is added last, as the diagonal form of
    pseudoproduct.apply, unless the plan finds it identically zero."""
    g = state.grid
    if out is None:
        out = np.empty((model.dim_state,) + g.band_shape, dtype=complex)
    elif np.may_share_memory(out, state.data):
        raise ValueError("rhs reads the state after it writes `out`")
    out.fill(0.0)
    _polynomial_sources(model.sources, state, out)
    if model.w_form:
        if plan is None:
            plan = pseudoproduct.PseudoproductPlan(g, model.w_symbol)
        if not plan.vanishes_on_diagonal():
            w = state.data[2]
            out[2] += pseudoproduct.apply(plan, w, w)
    return out


def _polynomial_sources(sources, state, out):
    """Write the source table's rows into `out`: one product_spectra pass
    over the components they use, one cube per distinct row."""
    g = state.grid
    rows = _distinct_rows(sources)
    if not rows:
        return
    used = [c for c in "uvw" if any(c in m for row, _ in rows for m in row)]
    terms = [[(row[m], used.index(m[0]), used.index(m[1]))
              for m in MONOMIALS if m in row] for row, _ in rows]
    # any two of u, v, w, or all three, are evenly spaced: a state view
    at = ["uvw".index(c) for c in used]
    step = at[-1] - at[0] if len(at) == 2 else 1
    cubes = g.product_spectra(state.data[at[0]:at[-1] + 1:step], terms)
    for cube, (_, targets) in zip(cubes, rows):
        (first, _), *scaled = targets
        out[first] = cube
        for eq, scale in scaled:
            np.multiply(out[first], scale, out=out[eq])


def _distinct_rows(sources):
    """The nonempty rows of a source table, each with the equations it
    serves: [(row, [(equation, scale), ...])], where an equation whose row
    is `scale` times an earlier row joins that row (scale 1 for the row's
    own equation)."""
    rows = []
    for eq, row in enumerate(sources):
        if not row:
            continue
        for ref, targets in rows:
            if ref.keys() == row.keys():
                first = next(iter(ref))
                scale = row[first] / ref[first]
                if all(ref[m] * scale == row[m] for m in ref):
                    targets.append((eq, scale))
                    break
        else:
            rows.append((row, [(eq, 1.0)]))
    return rows


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

@dataclass
class BlowupGuard:
    """Aborts a run when the total H^N norm exceeds a multiple of its
    initial value.  A trip may be a step instability at this dt, not growth
    of the solution: a trip that goes away at a smaller dt was one."""
    limit: float

    @staticmethod
    def for_state(state):
        n0 = norms.total_sobolev(state.grid, state.data, SOBOLEV_N)
        return BlowupGuard(limit=BLOWUP_FACTOR * max(n0, 1e-300))

    def check(self, state):
        val = norms.total_sobolev(state.grid, state.data, SOBOLEV_N)
        if not np.isfinite(val) or val > self.limit:
            raise StepRejected(state.t, val, self.limit)


class Stepper:
    """Integrating-factor Runge-Kutta stepper with frozen step size; it
    builds the pseudoproduct plan of T_m(w, w) when the model has one.  Its
    first nonlinear step makes the stage stacks that every step reuses, in
    the operation order of the formulas shown."""

    def __init__(self, model, grid, dt, scheme="ifrk2"):
        if scheme not in ("ifrk2", "ifrk4"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.model = model
        self.grid = grid
        self.dt = float(dt)
        self.scheme = scheme
        self.cache = spectra.build_symbol_cache(grid.shells[0],
                                                model.matrices())
        self.source_free = not (any(model.sources) or model.w_form)
        self.G_full = spectra.propagator(grid, self.cache, self.dt)
        self.G_half = (spectra.propagator(grid, self.cache, self.dt / 2.0)
                       if scheme == "ifrk4" and not self.source_free else None)
        self.plan = (pseudoproduct.PseudoproductPlan(grid, model.w_symbol)
                     if model.w_form else None)
        self.stages = []

    def _rhs(self, data, t, out):
        return rhs(self.model, StateField(self.grid, data, t), self.plan,
                   out=out)

    def step(self, state, guard=None):
        h = self.dt
        # looked up per step, so a wrapper of the module's name sees all
        lin = spectra.propagator_apply
        mul, add = np.multiply, np.add
        x, t = state.data, state.t
        if not (self.stages or self.source_free):
            self.stages = [np.empty_like(x) for _ in
                           range(3 if self.scheme == "ifrk2" else 5)]

        if self.source_free:
            new = lin(self.G_full, x)
        elif self.scheme == "ifrk2":
            # n2 = rhs(lin(x + h n1)), new = lin(x + h/2 n1) + h/2 n2
            n1, a, b = self.stages
            self._rhs(x, t, n1)
            lin(self.G_full, add(x, mul(h, n1, out=a), out=a), out=b)
            n2 = self._rhs(b, t + h, a)
            new = lin(self.G_full, add(x, mul(0.5 * h, n1, out=n1), out=n1))
            new += mul(0.5 * h, n2, out=b)
        else:
            # with L = lin(e1, .) and M = lin(eh, .): n2 = rhs(M(x + h/2 n1)),
            # n3 = rhs(M(x) + h/2 n2), n4 = rhs(L(x) + h M(n3)),
            # new = L(x + h/6 n1) + h/6 (2 M(n2 + n3) + n4)
            e1, eh = self.G_full, self.G_half
            n1, n2, u, n3, n4 = self.stages
            self._rhs(x, t, n1)
            lin(eh, add(x, mul(0.5 * h, n1, out=n2), out=n2), out=u)
            self._rhs(u, t + 0.5 * h, n2)
            lin(eh, x, out=u)
            u += mul(0.5 * h, n2, out=n3)
            self._rhs(u, t + 0.5 * h, n3)
            lin(e1, x, out=u)
            u += mul(h, lin(eh, n3, out=n4), out=n4)
            self._rhs(u, t + h, n4)
            new = lin(e1, add(x, mul(h / 6.0, n1, out=n1), out=n1))
            lin(eh, add(n2, n3, out=n2), out=u)
            new += mul(h / 6.0, add(mul(2.0, u, out=u), n4, out=u), out=u)

        out = StateField(self.grid, new, t + h)
        if guard is not None:
            guard.check(out)
        return out


# ---------------------------------------------------------------------------
# wave profile
# ---------------------------------------------------------------------------

def wave_profile(state):
    """f_w = e^{+i|xi| t} w_hat, unitary, so safe at any t: the phase is
    taken once per |xi| shell and indexed (np.take would copy the int32
    shells to intp) onto the one cube that w_hat is multiplied into."""
    g = state.grid
    phase = np.exp(1j * g.shells[0] * state.t)[g.shells[1]]
    return np.multiply(phase, state.w_hat, out=phase)
