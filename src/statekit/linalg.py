"""Dense complex linear algebra substrate.

Column-stacking vectorization, block realignment, party-index permutation,
spectral helpers, tolerance-aware rank decisions, and the compression to
local supports that both pipelines share. Everything operates on plain
numpy arrays; all functions are pure.
"""

from __future__ import annotations

import math
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
        """The product of the dimensions, exact in Python integers: the side
        of the system's matrices, however many parties there are."""
        return math.prod(self.dims)

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
    the realignment has rank one.
    """
    z = np.asarray(z)
    if z.shape != (m * n, m * n):
        raise ValueError(f"expected shape {(m * n, m * n)}, got {z.shape}")
    return z.reshape(m, n, m, n).transpose(2, 0, 3, 1).reshape(m * m, n * n)


def realign_inverse(r: np.ndarray, m: int, n: int) -> np.ndarray:
    """Inverse index map of realign: rebuild the (mn x mn) matrix."""
    r = np.asarray(r)
    if r.shape != (m * m, n * n):
        raise ValueError(f"expected shape {(m * m, n * n)}, got {r.shape}")
    return r.reshape(m, m, n, n).transpose(1, 3, 0, 2).reshape(m * n, m * n)


def bipartition_view(a: np.ndarray, shape, party: int) -> np.ndarray:
    """Permute row and column tensor indices of one square matrix so `party`
    (1-based) is the outer block index; the remaining parties keep their
    original order."""
    dims = as_dims(shape)
    k = len(dims)
    side = math.prod(dims)
    a = np.asarray(a)
    if a.shape != (side, side):
        raise ValueError(f"expected shape {(side, side)}, got {a.shape}")
    if not 1 <= party <= k:
        raise ValueError(f"party {party} out of range 1..{k}")
    perm = [party - 1] + [p for p in range(k) if p != party - 1]
    return a.reshape(dims + dims).transpose(perm + [k + p for p in perm]).reshape(side, side)


def eigh_desc(h: np.ndarray):
    """Hermitian eigendecomposition with eigenvalues sorted nonincreasing.

    Returns (Q, w) with h = Q diag(w) Q^dag. Rejects inputs that are not
    Hermitian within HERM_TOL relative to the largest entry.
    """
    h = np.asarray(h, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(h))))
    if float(np.max(np.abs(h - h.conj().T))) > HERM_TOL * scale:
        raise ValueError(f"matrix is not Hermitian within {HERM_TOL:g}")
    w, q = np.linalg.eigh((h + h.conj().T) / 2.0)
    order = np.argsort(-w, kind="stable")
    return q[:, order], w[order]


def numerical_rank(s: np.ndarray, size: int) -> int:
    """The number of values in the nonincreasing s above size * s[0] *
    RANK_REL_TOL, the one numerical-rank cutoff; a value at the cutoff
    counts as zero, and so does every value when s[0] is zero."""
    return int(np.sum(s > size * float(s[0]) * RANK_REL_TOL)) if s.size else 0


def rank_report(a: np.ndarray) -> RankReport:
    """Numerical rank (numerical_rank over max(rows, cols)) and the rank-one
    residual sigma_2 / sigma_1."""
    a = np.atleast_2d(np.asarray(a))
    s = np.linalg.svd(a, compute_uv=False)
    return RankReport(s, numerical_rank(s, max(a.shape)), _rank1_residual(s))


def decisive_rank(a: np.ndarray) -> tuple[int, bool]:
    """Rank with a two-band confidence decision.

    Counts singular values at or above 1e-7 * sigma_1; the decision is
    decisive only if every remaining value is at or below
    1e-11 * len(s) * sigma_1, i.e. there is a clear spectral gap. Callers
    that turn rank mismatches into irreversible verdicts must only act on
    decisive ranks; borderline spectra fall through to the rest of the check.
    """
    a = np.atleast_2d(np.asarray(a))
    return _decisive(np.linalg.svd(a, compute_uv=False))


def _decisive(s: np.ndarray) -> tuple[int, bool]:
    """decisive_rank's decision on singular values s, nonincreasing: for a
    caller that reads the same values again."""
    if s.size == 0 or s[0] <= 0.0:
        return 0, True
    hard = 1e-11 * s.size * s[0]
    soft = 1e-7 * s[0]
    rank = int(np.sum(s >= soft))
    decisive = bool(np.all((s >= soft) | (s <= hard)))
    return rank, decisive


def _rank1_residual(s: np.ndarray) -> float:
    """The rank-one residual sigma_2 / sigma_1 of singular values s,
    nonincreasing: 0.0 for a single value or when s[0] is zero."""
    return float(s[1] / s[0]) if s.size > 1 and s[0] > 0.0 else 0.0


def rank_mismatch(a: tuple[int, bool], b: tuple[int, bool]) -> Optional[tuple[int, int]]:
    """The ranks of two decisive_rank results when both are decisive and
    differ, else None. This is the only rank evidence that may become an
    Inequivalent verdict."""
    (r1, d1), (r2, d2) = a, b
    return (r1, r2) if d1 and d2 and r1 != r2 else None


def local_supports(mats1: Sequence[np.ndarray], mats2: Sequence[np.ndarray],
                   ranks: Sequence[int]) -> list[tuple[np.ndarray, ...]]:
    """Per party, (P1, Q1, P2, Q2): isometries onto the leading ranks[k]
    left singular vectors of mats1[k] and mats2[k], and onto their
    complements. A full-rank party keeps the identity and takes no SVD.
    Invertible local maps carry local supports onto each other, so two
    states are equivalent exactly when their compressions are."""
    splits = []
    for a, b, rank in zip(mats1, mats2, ranks):
        d = a.shape[0]
        if rank == d:
            eye = np.eye(d, dtype=complex)
            splits.append((eye, eye[:, d:], eye, eye[:, d:]))
            continue
        # only U is used, and it is square in the thin form unless the
        # matrix is taller than wide; a full Vh of a wide pure cut is costly
        u1, u2 = (np.linalg.svd(m, full_matrices=m.shape[0] > m.shape[1])[0] for m in (a, b))
        splits.append((u1[:, :rank], u1[:, rank:], u2[:, :rank], u2[:, rank:]))
    return splits


def lift_supports(splits: Sequence[tuple[np.ndarray, ...]],
                  inner: Sequence[np.ndarray]) -> list[np.ndarray]:
    """P1 F' P2^dag + Q1 Q2^dag per party: the local factors that act as the
    compressed connector F' (the next of `inner`, or [[1]] for a rank-1
    party) between the supports and map the second kernels onto the first."""
    rest = iter(inner)
    return [p1 @ (next(rest) if p1.shape[1] > 1 else np.ones((1, 1))) @ p2.conj().T
            + q1 @ q2.conj().T for p1, q1, p2, q2 in splits]


def partial_trace_keep(rho: np.ndarray, shape, party: int) -> np.ndarray:
    """Reduced matrix of `party` (1-based): trace out all other parties."""
    dims = as_dims(shape)
    keep = party - 1
    before = math.prod(dims[:keep])
    after = math.prod(dims[keep + 1:])
    t = np.asarray(rho).reshape(before, dims[keep], after, before, dims[keep], after)
    return np.einsum("aibajb->ij", t)


def kron_list(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right: the
    products np.kron forms, by one broadcast multiply per factor."""
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        m = np.asarray(m, dtype=complex)
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(
            out.shape[0] * m.shape[0], out.shape[1] * m.shape[1])
    return out
