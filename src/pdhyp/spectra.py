"""Linear operator of the model systems: the Shizuta-Kawashima check of a
model, and the symbol cache with its eigenstructure and Green function.

The models couple a symmetric convection part with symbol -i|xi|*A to a
negative-semidefinite relaxation matrix B, so every per-mode operator is

    E(i xi) = -i|xi| A + B.

For the 2x2 dissipative block the eigenvalues are

    lam_1 = -1/2 + sqrt(1 - 4|xi|^2)/2,   lam_2 = -1/2 - sqrt(1 - 4|xi|^2)/2,

with the principal branch of the square root, so that for |xi| > 1/2 the
pair continues to -1/2 +- i sqrt(4|xi|^2 - 1)/2.  The third (transported)
component is decoupled with lam_3 = -i|xi|.  The two branch eigenvalues
coalesce at |xi| = 1/2, where the projectors blow up; degenerate_mask only
marks the band of width DEGENERATE_BAND around it.  The Green function does
not use them: it is the closed-form flow of the block on every |xi|.

E depends on xi only through |xi|, so the symbol cache is tabulated on a
list of |xi| values; a grid's are its band shells, grid.shells.  E, its
projectors and exp(E t) are nonzero only on BLOCK_ENTRIES, the symmetric
2x2 block and w's diagonal, so every per-entry table holds those rows:
(r, k), r = 3 for two components and 4 for three.  |xi| is even in k_0
too, so band_rows gathers rows once onto the half of the band's cube with
k_0 = 0..K, and propagator_apply multiplies a stack of cube fields by
them, mode by mode and chunk by chunk, each plane k_0 < 0 by the rows of
plane -k_0.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

DEGENERATE_BAND = 1e-3      # projectors unusable where ||xi| - 1/2| < this
INVERSE_FLOW_GUARD = 40.0   # warn when |t| * spectral gap exceeds this
_KERNEL_RTOL = 1e-10
# the entries of E, its projectors and exp(E t) that can be nonzero, up to
# the symmetric (1,0) = (0,1): the rows of every per-entry table, in order;
# two-component models use the first three
BLOCK_ENTRIES = ((0, 0), (0, 1), (1, 1), (2, 2))
_CHUNK_MODES = 1 << 14      # the modes of one propagator_apply chunk


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


def check_sk(model):
    """The undamped directions of a model: [SK] holds iff there are none.

    The models are isotropic, so the convection symbol is |xi| A along
    every direction, and [SK] fails exactly where ker B meets an
    eigenspace of A.  Returns (z, mu) for an orthonormal basis of each such
    intersection: B z = 0 and A z = mu z, each z determined up to sign.
    """
    mus = np.linalg.eigvalsh(model.A)
    eye = np.eye(model.dim_state)
    undamped = []
    for mu in mus[np.r_[True, np.diff(mus) > 1e-10]]:
        both = np.vstack([model.B, model.A - mu * eye])  # B z = (A - mu) z = 0
        _, s, vh = np.linalg.svd(both)
        # the kernel: the rows of vh past the singular values above the cut
        rank = np.sum(s > np.amax(s, initial=0.0) * _KERNEL_RTOL)
        undamped += [(z, float(mu)) for z in vh[rank:]]
    return undamped


def _branch_eigvals(s):
    """Branch-ordered eigenvalues of the 2x2 dissipative block at |xi| = s."""
    disc = np.asarray(1.0 - 4.0 * np.asarray(s, dtype=float) ** 2, dtype=complex)
    root = np.sqrt(disc)   # principal branch: i*sqrt(4 s^2 - 1) past the branch point
    lam1 = 0.5 * (-1.0 + root)
    lam2 = 0.5 * (-1.0 - root)
    return lam1, lam2, root


@dataclass
class LinearSymbolCache:
    """Symbol data tabulated per entry, one entry per given |xi| value, each
    matrix as its BLOCK_ENTRIES rows (r = d + 1 of them).

    xi_norm:    (k,) |xi| of each entry
    E:          (r, k) symbols -i|xi|A + B
    eigvals:    (d, k) branch-ordered eigenvalues
    projectors: (d, r, k) spectral projectors (garbage on the band)
    degenerate_mask: (k,) True where ||xi| - 1/2| < DEGENERATE_BAND
    """
    model: ModelMatrices
    E: np.ndarray
    eigvals: np.ndarray
    projectors: np.ndarray
    degenerate_mask: np.ndarray
    xi_norm: np.ndarray = field(repr=False)


def build_symbol_cache(xi_norms, model):
    """Closed-form eigenstructure at each of a list of |xi| values; a
    grid's band shells are grid.shells[0].  A ValueError for any model
    but the two shipped ones, the only ones these closed forms describe."""
    if not any(np.array_equal(model.A, m.A) and np.array_equal(model.B, m.B)
               for m in (three_component_model(), two_component_model())):
        raise ValueError("the closed forms describe the shipped models only")
    s = np.asarray(xi_norms, dtype=float).reshape(-1)
    d = model.dim_state
    rows, cols = zip(*BLOCK_ENTRIES[:d + 1])

    E = ((-1j * s) * model.A[rows, cols][:, None]
         + model.B[rows, cols][:, None])

    lam1, lam2, root = _branch_eigvals(s)
    degenerate = np.abs(s - 0.5) < DEGENERATE_BAND
    safe_root = np.where(degenerate, 1.0, root)   # placeholder on the band

    # resolvent projectors of the 2x2 block: P1 = (E2 - lam2)/(lam1 - lam2)
    P = np.zeros((d, d + 1, s.size), dtype=complex)
    P[0, :3] = -lam2, -1j * s, -1.0 - lam2
    P[1, :3] = lam1, 1j * s, 1.0 + lam1
    P[:2, :3] /= safe_root
    P[2:, -1] = 1.0     # the transported w: lam_3 = -i|xi| on its own axis

    return LinearSymbolCache(model=model, E=E,
                             eigvals=np.stack([lam1, lam2, -1j * s][:d]),
                             projectors=P, degenerate_mask=degenerate,
                             xi_norm=s)


def green_function(cache, t):
    """exp(E(i xi) t) for every cache entry as its rows (r, k), for either
    sign of t, by one formula on every entry.  With q = sqrt(1/4 - |xi|^2),
    the 2x2 block M has exp(M t) = e^{-t/2} [cosh(qt) I + t sinhc(qt)
    (M + I/2)] = e^{lam_1 t} [(1 + b/2) I + t phi (M + I/2)], where x = 2qt,
    b = e^{-x} - 1 and phi = -b/x; three components add the wave phase.
    The backward flow (t < 0) amplifies the damped eigendirection like
    e^{|t|}; a warning is emitted once the amplification passes e^40.
    """
    if t < 0:
        gap = float(np.max(np.abs(np.real(cache.eigvals))))
        if -t * gap > INVERSE_FLOW_GUARD:
            warnings.warn(
                f"backward flow over t={-t:.3g} amplifies by e^{-t * gap:.3g}; "
                "expect severe cancellation", stacklevel=2)
    x = _branch_eigvals(cache.xi_norm)[2] * t     # (lam_1 - lam_2) t
    b = np.expm1(-x)
    small = np.abs(x) < 1e-8      # phi = 1 - x/2 + x^2/6 - ...
    phi = np.where(small, 1.0 - x / 2, -b / np.where(small, 1.0, x))
    eye = np.array([[1.0], [0.0], [1.0]])     # the block's I as rows
    G = np.empty_like(cache.E)
    G[:3] = np.exp((x - t) / 2) * (      # e^{lam_1 t}
        t * phi * (cache.E[:3] + eye / 2) + (1.0 + b / 2) * eye)
    G[3:] = np.exp(cache.eigvals[2:] * t)    # w's phase, for three
    return G


def band_rows(grid, per_shell):
    """The rows (r, k) of a per-shell table of grid.shells gathered onto
    the planes k_0 = 0..K of the band's cube, as the rows
    (r, K+1, *grid.band_shape[1:]) propagator_apply takes.  ValueError: a
    table not on grid.shells[0]."""
    if per_shell.shape[-1] != len(grid.shells[0]):
        raise ValueError(f"a table of {per_shell.shape[-1]} shells on a grid "
                         f"of {len(grid.shells[0])}")
    half = grid.shells[1][:grid.dealias_limit + 1]    # the planes k_0 >= 0
    # two index arrays: each row contiguous, the int32 shells read in
    # buffers (np.take would copy them to intp)
    rows = np.arange(len(per_shell)).reshape(-1, *[1] * half.ndim)
    return per_shell[rows, half]


def propagator(grid, cache, t):
    """exp(E t) as band rows, for either sign of t; the cache is built on
    grid.shells[0]."""
    return band_rows(grid, green_function(cache, t))


def propagator_apply(G, data, out=None):
    """Apply band rows G (r, K+1, ...) to stacked cube fields (d, 2K+1, ...)
    into `out` (new when None, else of data's shape, or data itself): 3
    rows as the 2x2 block to (u, v), 4 as the block and w's phase.
    Plane k_0 >= 0 reads row plane k_0, in chunks of about _CHUNK_MODES
    modes (K+1 planes at most), then plane k_0 < 0 row plane -k_0, plane
    by plane (numpy runs a reversed view through its buffered loop), each
    chunk's products through one chunk-sized scratch, so the re-reads stay
    in cache.  With out = data, each chunk's new u waits in a second
    scratch until v has read the old u: the bits of a separate `out`."""
    if ((len(G), len(data)) not in ((3, 2), (4, 3))
            or G.shape[2:] != data.shape[2:]
            or 2 * G.shape[1] - 1 != data.shape[1]):
        raise ValueError(f"rows {G.shape} do not apply to fields {data.shape}")
    if out is None:
        out = np.empty(data.shape, dtype=complex)
    elif out.shape != data.shape:
        raise ValueError(f"`out` {out.shape} differs from data {data.shape}")
    elif out is not data and np.may_share_memory(out, data):
        raise ValueError("`out` may share memory with `data`")
    k, m = G.shape[1], data.shape[1]
    step = max(1, min(k, _CHUNK_MODES // data[0, 0].size))
    scratch = np.empty((1 + (out is data), step) + data.shape[2:],
                       dtype=complex)
    spans = [(slice(lo, min(lo + step, k)),) * 2 for lo in range(0, k, step)]
    spans += [(slice(m - i, m - i + 1), slice(i, i + 1)) for i in range(k, m)]
    for rows, planes in spans:
        g, x, y = G[:, rows], data[:, planes], out[:, planes]
        tmp = scratch[0, :len(x[0])]
        u = scratch[1, :len(x[0])] if out is data else y[0]
        np.multiply(g[0], x[0], out=u)
        u += np.multiply(g[1], x[1], out=tmp)        # G00 u + G01 v
        np.multiply(g[2], x[1], out=y[1])
        y[1] += np.multiply(g[1], x[0], out=tmp)     # G11 v + G01 u
        if out is data:
            y[0] = u
        if len(G) == 4:
            np.multiply(g[3], x[2], out=y[2])        # the phase
    return out
