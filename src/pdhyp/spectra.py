"""Linear operator of the model systems: eigenstructure, Green function,
and the Shizuta-Kawashima coupling checker.

The models couple a symmetric convection part with symbol -i|xi|*A to a
negative-semidefinite relaxation matrix B, so every per-mode operator is

    E(i xi) = -i|xi| A + B.

For the 2x2 dissipative block the eigenvalues are

    lam_1 = -1/2 + sqrt(1 - 4|xi|^2)/2,   lam_2 = -1/2 - sqrt(1 - 4|xi|^2)/2,

with the principal branch of the square root, so that for |xi| > 1/2 the
pair continues to -1/2 +- i sqrt(4|xi|^2 - 1)/2.  The third (transported)
component is decoupled with lam_3 = -i|xi|.  The two branch eigenvalues
coalesce at |xi| = 1/2 where the projectors blow up; a band of width
DEGENERATE_BAND around it is handled by a direct matrix exponential.

E depends on xi only through |xi|, so the symbol cache of a grid is
tabulated on the grid's |xi| shells and carries the mode -> shell index,
both from grid.shells; eigenvalues, projectors and the Green function are
evaluated once per shell.  exp(E t) keeps the block pattern of E: the 2x2
dissipative block and, for three components, the wave phase e^{-i|xi| t}
on the diagonal.  The per-mode operators the time stepper applies hold
only these entries, (4 or 5, m) arrays gathered through the shell index
(mode_operator, propagator) and applied elementwise (propagator_apply).
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .errors import DegenerateSpectrum, OutOfBand

DEGENERATE_BAND = 1e-3      # half-width of the excluded band around |xi| = 1/2
LOW_FREQ_CUTOFF = 0.25      # band |xi| <= a for the Green-function splitting
INVERSE_FLOW_GUARD = 40.0   # warn when |t| * spectral gap exceeds this
_KERNEL_RTOL = 1e-10
# the entries of E, and of exp(E t), that can be nonzero, in the row order
# of a per-mode operator; two-component models use the first four
BLOCK_ENTRIES = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))


@dataclass(frozen=True)
class ModelMatrices:
    """Symmetric convection matrix A and relaxation matrix B."""
    A: np.ndarray
    B: np.ndarray
    dim_state: int

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        d = self.dim_state
        if A.shape != (d, d) or B.shape != (d, d):
            raise ValueError("matrix shapes must match dim_state")
        if not np.allclose(A, A.T):
            raise ValueError("A must be symmetric")
        if not np.allclose(B, B.T):
            raise ValueError("B must be symmetric")
        if np.any(np.linalg.eigvalsh(B) > 1e-12):
            raise ValueError("B must be negative semidefinite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)


def three_component_model():
    """Dissipative (u, v) pair plus a transported w; violates [SK]."""
    A = np.array([[0.0, 1.0, 0.0],
                  [1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0]])
    B = np.diag([0.0, -1.0, 0.0])
    return ModelMatrices(A, B, 3)


def two_component_model():
    """The (u, v) dissipative block alone; satisfies [SK]."""
    A = np.array([[0.0, 1.0],
                  [1.0, 0.0]])
    B = np.diag([0.0, -1.0])
    return ModelMatrices(A, B, 2)


def build_linear_symbol(model, xi):
    """E(i xi) = -i|xi| A + B for a single wavevector."""
    xi = np.asarray(xi, dtype=float)
    s = float(np.linalg.norm(xi))
    return -1j * s * model.A + model.B.astype(complex)


def _branch_eigvals(s):
    """Branch-ordered eigenvalues of the 2x2 dissipative block at |xi| = s."""
    disc = np.asarray(1.0 - 4.0 * np.asarray(s, dtype=float) ** 2, dtype=complex)
    root = np.sqrt(disc)   # principal branch: i*sqrt(4 s^2 - 1) past the branch point
    lam1 = 0.5 * (-1.0 + root)
    lam2 = 0.5 * (-1.0 - root)
    return lam1, lam2, root


def eigen_decompose(E):
    """Eigenvalues, eigenvectors and spectral projectors of a model symbol.

    Eigenvalues are ordered by their |xi| -> 0 limits: lam_1 -> 0,
    lam_2 -> -1 and (for 3x3 symbols) lam_3 = -i|xi|.  Eigenvalues and
    projectors are the one-mode symbol cache at |xi| = |E[0, 1]|.

    Raises DegenerateSpectrum inside the coalescence band ||xi| - 1/2| <
    DEGENERATE_BAND; callers must fall back to a direct matrix exponential
    there.
    """
    E = np.asarray(E, dtype=complex)
    d = E.shape[0]
    if E.shape != (d, d) or d not in (2, 3):
        raise ValueError("expected a 2x2 or 3x3 model symbol")
    s = abs(E[0, 1])
    model = three_component_model() if d == 3 else two_component_model()
    cache = build_symbol_cache_from_norms([s], model)
    if cache.degenerate_mask[0]:
        raise DegenerateSpectrum(
            f"|xi|={s:.6g} within {DEGENERATE_BAND} of the branch point 1/2")
    eigvals = cache.eigvals[:, 0]
    eigvecs = np.eye(d, dtype=complex)
    if s > 1e-14:
        eigvecs[:2, :2] = [[1.0, 1.0], 1j * eigvals[:2] / s]
    return eigvals, eigvecs, cache.projectors[:, 0]


@dataclass
class LinearSymbolCache:
    """Symbol data tabulated per entry, flattened: for a grid cache
    (build_symbol_cache) the entries are the grid's distinct |xi| values in
    ascending order, for build_symbol_cache_from_norms the given values.

    xi_norm:    (k,) |xi| of each entry
    E:          (k, d, d) symbols -i|xi|A + B
    eigvals:    (3 or 2, k) branch-ordered eigenvalues
    projectors: (3 or 2, k, d, d) spectral projectors (garbage on the band)
    degenerate_mask: (k,) True where ||xi| - 1/2| < DEGENERATE_BAND
    shell:      (m,) entry of each flattened grid mode, so that
                xi_norm[shell] == grid.xi_norm.ravel(); None when the
                entries are the modes themselves
    """
    model: ModelMatrices
    E: np.ndarray
    eigvals: np.ndarray
    projectors: np.ndarray
    degenerate_mask: np.ndarray
    xi_norm: np.ndarray = field(repr=False)
    grid: object = None
    shell: np.ndarray = field(repr=False, default=None)

    @property
    def dim_state(self):
        return self.model.dim_state


def build_symbol_cache(grid, model):
    """Closed-form eigenstructure on grid.shells, the grid's |xi| shells."""
    norms, shell = grid.shells
    return replace(build_symbol_cache_from_norms(norms, model),
                   grid=grid, shell=shell)


def build_symbol_cache_from_norms(xi_norms, model):
    """Cache over an arbitrary list of |xi| values, one entry each."""
    s = np.asarray(xi_norms, dtype=float).reshape(-1)
    m = s.size
    d = model.dim_state

    E = (-1j * s)[:, None, None] * model.A[None, :, :] + model.B[None, :, :]

    lam1, lam2, root = _branch_eigvals(s)
    degenerate = np.abs(s - 0.5) < DEGENERATE_BAND
    safe_root = np.where(degenerate, 1.0, root)   # placeholder on the band

    # resolvent projectors of the 2x2 block: P1 = (E2 - lam2)/(lam1 - lam2)
    P1 = np.zeros((m, d, d), dtype=complex)
    P2 = np.zeros((m, d, d), dtype=complex)
    P1[:, 0, 0] = -lam2 / safe_root
    P1[:, 0, 1] = P1[:, 1, 0] = -1j * s / safe_root
    P1[:, 1, 1] = (-1.0 - lam2) / safe_root
    P2[:, 0, 0] = lam1 / safe_root
    P2[:, 0, 1] = P2[:, 1, 0] = 1j * s / safe_root
    P2[:, 1, 1] = (1.0 + lam1) / safe_root

    if d == 3:
        lam3 = -1j * s
        P3 = np.zeros((m, d, d), dtype=complex)
        P3[:, 2, 2] = 1.0
        eigvals = np.stack([lam1, lam2, lam3])
        projectors = np.stack([P1, P2, P3])
    else:
        eigvals = np.stack([lam1, lam2])
        projectors = np.stack([P1, P2])

    return LinearSymbolCache(model=model, E=E, eigvals=eigvals,
                             projectors=projectors, degenerate_mask=degenerate,
                             xi_norm=s)


def green_function(cache, t):
    """exp(E(i xi) t) for every cache entry, shape (k, d, d); t may be
    negative.

    Off the degenerate band this is the spectral sum over e^{lam_i t} P_i;
    on the band a scaling-and-squaring matrix exponential is used instead.
    The backward flow (t < 0) amplifies the damped eigendirection like
    e^{|t|}; a warning is emitted once the amplification passes e^40.
    """
    if t < 0:
        gap = float(np.max(np.abs(np.real(cache.eigvals))))
        if -t * gap > INVERSE_FLOW_GUARD:
            warnings.warn(
                f"backward flow over t={-t:.3g} amplifies by e^{-t * gap:.3g}; "
                "expect severe cancellation", stacklevel=2)
    phase = np.exp(cache.eigvals * t)            # (branch, entry)
    G = np.einsum("km,kmij->mij", phase, cache.projectors)
    for i in np.nonzero(cache.degenerate_mask)[0]:
        G[i] = scipy.linalg.expm(cache.E[i] * t)
    return G


def mode_operator(cache, per_entry):
    """Per-mode operator from per-entry matrices (k, d, d) with the block
    pattern of E: their BLOCK_ENTRIES gathered onto the modes through the
    shell index, shape (4 or 5, m)."""
    rows, cols = zip(*BLOCK_ENTRIES[:4 if cache.dim_state == 2 else 5])
    entries = per_entry[:, rows, cols].T
    if cache.shell is None:
        return np.ascontiguousarray(entries)
    return np.take(entries, cache.shell, axis=1)


def propagator(cache, t):
    """The per-mode operator of exp(E t), for either sign of t."""
    return mode_operator(cache, green_function(cache, t))


def propagator_apply(G, data):
    """Apply a per-mode operator (4 or 5, m) to stacked fields (d, m): the
    2x2 block to (u, v) and, for three components, the phase to w.  The
    off-diagonal products are added one row at a time, so an apply holds
    one field-sized temporary besides its output."""
    out = np.empty(data.shape, dtype=complex)
    np.multiply(G[0:4:3], data[:2], out=out[:2])     # G00 u, G11 v
    out[0] += G[1] * data[1]                         # + G01 v
    out[1] += G[2] * data[0]                         # + G10 u
    if data.shape[0] == 3:
        np.multiply(G[4], data[2], out=out[2])
    return out


@dataclass
class GreenParts:
    """Low-frequency Green splitting: diffusive K, damped Kexp, wave W."""
    modes: np.ndarray        # cache entries (grid shells) the parts are on
    K: np.ndarray
    Kexp: np.ndarray
    W: np.ndarray            # None for 2-component models


def decompose_green(cache, t, modes=None, cutoff=LOW_FREQ_CUTOFF):
    """Split exp(E t) into e^{lam1 t}P1 + e^{lam2 t}P2 (+ e^{-i|xi|t}P3).

    `modes` index cache entries, which for a grid cache are |xi| shells;
    map grid modes to them through cache.shell.  Only defined on the
    low-frequency band |xi| <= cutoff; raises OutOfBand for any explicitly
    requested entry outside it.  Default: all band entries.
    """
    s = cache.xi_norm
    if modes is None:
        modes = np.nonzero(s <= cutoff)[0]
    else:
        modes = np.asarray(modes, dtype=np.int64).reshape(-1)
        bad = s[modes] > cutoff
        if bad.any():
            worst = float(np.max(s[modes][bad]))
            raise OutOfBand(f"|xi|={worst:.6g} exceeds cutoff a={cutoff}")
    phase = np.exp(cache.eigvals[:, modes] * t)
    K = phase[0][:, None, None] * cache.projectors[0, modes]
    Kexp = phase[1][:, None, None] * cache.projectors[1, modes]
    W = None
    if cache.dim_state == 3:
        W = phase[2][:, None, None] * cache.projectors[2, modes]
    return GreenParts(modes=modes, K=K, Kexp=Kexp, W=W)


@dataclass
class SkReport:
    satisfies_sk: bool
    violating_directions: list   # (kernel vector z, wavevector xi, eigenvalue)


def check_sk(model, directions):
    """Test the [SK] coupling condition on a sample of unit wavevectors.

    For each unit direction the convection symbol is |xi| A (isotropic
    models), so the test reduces to: does ker B intersect an eigenspace of
    A?  Eigenspaces may be degenerate, so the test computes principal
    angles between ker B and each eigenspace rather than testing kernel
    basis vectors individually.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if directions.size == 0:
        raise ValueError("need a nonempty direction sample")

    kernel = scipy.linalg.null_space(model.B, rcond=_KERNEL_RTOL)
    if kernel.shape[1] == 0:
        return SkReport(satisfies_sk=True, violating_directions=[])

    eigvals, eigvecs = np.linalg.eigh(model.A)
    groups = []
    start = 0
    for i in range(1, len(eigvals) + 1):
        if i == len(eigvals) or abs(eigvals[i] - eigvals[start]) > 1e-10:
            groups.append((eigvals[start], eigvecs[:, start:i]))
            start = i

    violations = []
    for xi in directions:
        nrm = np.linalg.norm(xi)
        if nrm == 0:
            continue
        unit = xi / nrm
        for mu, V in groups:
            # sigma ~ 1 <=> ker B and the eigenspace share a direction
            _, sigma, vt = np.linalg.svd(V.T @ kernel)
            hits = np.nonzero(sigma > 1.0 - 1e-8)[0]
            for h in hits:
                z = kernel @ vt[h]
                z = z / np.linalg.norm(z)
                violations.append((z, unit.copy(), float(mu)))
    return SkReport(satisfies_sk=len(violations) == 0,
                    violating_directions=violations)
