"""Dense complex linear algebra substrate.

Column-stacking vectorization, block realignment, party-index permutation,
spectral helpers, and tolerance-aware rank decisions. Everything operates on
plain numpy arrays; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# Relative singular-value cutoff for numerical rank.
RANK_REL_TOL = 1e-10
# A realignment counts as rank one when sigma_2 / sigma_1 is below this.
RANK1_ACCEPT = 1e-8
# Largest Hermiticity defect accepted by eigh_desc, relative to the largest
# entry.
HERM_TOL = 1e-10


@dataclass(frozen=True)
class SystemShape:
    """Ordered local dimensions (n_1, ..., n_K) of a multiparty index space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1 or any(d < 2 for d in dims):
            raise ValueError(f"invalid party dimensions {dims}")

    @property
    def side(self) -> int:
        return int(np.prod(self.dims))

    @property
    def nparties(self) -> int:
        return len(self.dims)


def as_dims(shape) -> tuple[int, ...]:
    """Accept a SystemShape or a plain dimension sequence."""
    if isinstance(shape, SystemShape):
        return shape.dims
    return SystemShape(tuple(shape)).dims


@dataclass(frozen=True)
class RankReport:
    """Singular values with a tolerance-based rank decision."""

    singular_values: np.ndarray
    numerical_rank: int
    rank1_residual: float


def vec(a: np.ndarray) -> np.ndarray:
    """Stack the columns of a matrix into a single vector."""
    a = np.atleast_2d(np.asarray(a))
    return a.T.reshape(-1)


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of vec: rebuild the rows x cols matrix."""
    v = np.asarray(v).reshape(-1)
    if v.size != rows * cols:
        raise ValueError(f"cannot unvec length {v.size} into {rows}x{cols}")
    return v.reshape(cols, rows).T


def realign(z: np.ndarray, m: int, n: int) -> np.ndarray:
    """Block realignment of an (mn x mn) matrix into an m^2 x n^2 matrix.

    Row (j*m + i) of the result is vec of the n x n block at block position
    (i, j). For z = a (x) b with a of size m and b of size n the result
    equals vec(a) vec(b)^T, so z is such a Kronecker product exactly when
    the realignment has rank one. Leading axes, if any, index a stack of
    matrices that are realigned independently.
    """
    z = np.asarray(z)
    if z.shape[-2:] != (m * n, m * n):
        raise ValueError(f"expected shape {(m * n, m * n)}, got {z.shape}")
    lead = z.shape[:-2]
    b = len(lead)
    axes = list(range(b)) + [b + 2, b, b + 3, b + 1]
    return z.reshape(lead + (m, n, m, n)).transpose(axes).reshape(lead + (m * m, n * n))


def realign_inverse(r: np.ndarray, m: int, n: int) -> np.ndarray:
    """Inverse index map of realign: rebuild the (mn x mn) matrix."""
    r = np.asarray(r)
    if r.shape != (m * m, n * n):
        raise ValueError(f"expected shape {(m * m, n * n)}, got {r.shape}")
    return r.reshape(m, m, n, n).transpose(1, 3, 0, 2).reshape(m * n, m * n)


def bipartition_view(a: np.ndarray, shape, party: int) -> np.ndarray:
    """Permute row and column tensor indices so `party` (1-based) is the
    outer block index; the remaining parties keep their original order.
    Leading axes, if any, index a stack of matrices permuted alike."""
    dims = as_dims(shape)
    k = len(dims)
    side = int(np.prod(dims))
    a = np.asarray(a)
    if a.shape[-2:] != (side, side):
        raise ValueError(f"expected shape {(side, side)}, got {a.shape}")
    if not 1 <= party <= k:
        raise ValueError(f"party {party} out of range 1..{k}")
    lead = a.shape[:-2]
    b = len(lead)
    perm = [party - 1] + [p for p in range(k) if p != party - 1]
    axes = list(range(b)) + [b + p for p in perm] + [b + k + p for p in perm]
    return a.reshape(lead + dims + dims).transpose(axes).reshape(lead + (side, side))


def svd(a: np.ndarray):
    """Full SVD (U, s, Vh) with s nonincreasing and A = U diag(s) Vh."""
    return np.linalg.svd(np.asarray(a, dtype=complex), full_matrices=True)


def eigh_desc(h: np.ndarray):
    """Hermitian eigendecomposition with eigenvalues sorted nonincreasing.

    Returns (Q, w) with h = Q diag(w) Q^dag. Rejects inputs that are not
    Hermitian within HERM_TOL relative to the largest entry.
    """
    h = np.asarray(h, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(h))))
    if float(np.max(np.abs(h - h.conj().T))) > HERM_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, q = np.linalg.eigh((h + h.conj().T) / 2.0)
    order = np.argsort(-w, kind="stable")
    return q[:, order], w[order]


def rank_report(a: np.ndarray) -> RankReport:
    """Numerical rank with tolerance max(rows, cols) * sigma_1 * 1e-10 and
    the rank-one residual sigma_2 / sigma_1."""
    a = np.atleast_2d(np.asarray(a))
    s = np.linalg.svd(a, compute_uv=False)
    top = float(s[0]) if s.size else 0.0
    tol = max(a.shape) * top * RANK_REL_TOL
    rank = int(np.sum(s > tol))
    residual = float(s[1] / s[0]) if s.size > 1 and top > 0.0 else 0.0
    return RankReport(s, rank, residual)


def decisive_rank(a: np.ndarray) -> tuple[int, bool]:
    """Rank with a two-band confidence decision.

    Counts singular values at or above 1e-7 * sigma_1; the decision is
    decisive only if every remaining value is at or below
    1e-11 * len(s) * sigma_1, i.e. there is a clear spectral gap. Callers
    that turn rank mismatches into irreversible verdicts must only act on
    decisive ranks; borderline spectra fall through to the search instead.
    """
    a = np.atleast_2d(np.asarray(a))
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0, True
    hard = 1e-11 * s.size * s[0]
    soft = 1e-7 * s[0]
    rank = int(np.sum(s >= soft))
    decisive = bool(np.all((s >= soft) | (s <= hard)))
    return rank, decisive


def rank_mismatch(a: np.ndarray, b: np.ndarray) -> Optional[tuple[int, int]]:
    """The decisive ranks of a and b when both are decisive and differ, else
    None. This is the only rank evidence that may become an Inequivalent
    verdict."""
    r1, d1 = decisive_rank(a)
    r2, d2 = decisive_rank(b)
    if d1 and d2 and r1 != r2:
        return r1, r2
    return None


def partial_trace_keep(rho: np.ndarray, shape, party: int) -> np.ndarray:
    """Reduced matrix of `party` (1-based): trace out all other parties."""
    dims = as_dims(shape)
    k = len(dims)
    side = int(np.prod(dims))
    rho = np.asarray(rho).reshape(dims + dims)
    keep = party - 1
    rest = side // dims[keep]
    perm = [keep] + [p for p in range(k) if p != keep]
    t = rho.transpose(perm + [k + p for p in perm])
    t = t.reshape(dims[keep], rest, dims[keep], rest)
    return np.trace(t, axis1=1, axis2=3)


def kron_list(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out
