"""Kronecker-product structure tests and factor extraction.

An invertible matrix on a multiparty index space is a Kronecker product of
per-party invertible factors exactly when, for every party, the realignment
of its party-to-front view has rank one. Each party's factor is read off
the leading left singular vector of its own realignment, and one global
scale is fitted to the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    RANK1_ACCEPT,
    _rank1_residual,
    as_dims,
    bipartition_view,
    kron_list,
    numerical_rank,
    realign,
    unvec,
)


class NotDecomposable(ValueError):
    """Raised when factor extraction is asked for a non-product matrix."""


@dataclass(frozen=True)
class FactorSet:
    """Per-party square factors plus one global complex scale.

    Canonical form keeps every factor at unit Frobenius norm with the first
    nonzero entry at phase zero; the scale carries the remainder.
    """

    factors: tuple[np.ndarray, ...]
    scale: complex = 1.0 + 0.0j

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)


@dataclass(frozen=True)
class DecomposabilityReport:
    """Per-party realignment rank evidence for the product test."""

    per_party: tuple[tuple[int, float, int], ...]
    decomposable: bool
    invertible: bool

    @property
    def residuals(self) -> tuple[float, ...]:
        return tuple(row[1] for row in self.per_party)


def canonicalize(mats, scale: complex = 1.0 + 0.0j) -> FactorSet:
    """Normalize factors to unit Frobenius norm and leading-entry phase zero,
    folding the removed magnitudes and phases into the scale."""
    out = []
    total = complex(scale)
    for m in mats:
        m = np.asarray(m, dtype=complex)
        nrm = float(np.linalg.norm(m))
        if nrm == 0.0:
            raise ValueError("zero factor cannot be canonicalized")
        m = m / nrm
        total *= nrm
        flat = m.reshape(-1)
        lead = flat[np.argmax(np.abs(flat) > 1e-12 * np.max(np.abs(flat)))]
        phase = lead / abs(lead)
        m = m / phase
        total *= phase
        out.append(m)
    return FactorSet(tuple(out), total)


def kron(fs: FactorSet) -> np.ndarray:
    """Assemble scale * (a_1 (x) a_2 (x) ... (x) a_K)."""
    return fs.scale * kron_list(fs.factors)


def _cuts(a: np.ndarray, dims: tuple[int, ...]) -> tuple[DecomposabilityReport, list]:
    """decomposability's report on `a`, and per party the leading left
    singular vector of its cut's realignment: one thin SVD per cut serves
    both. Raises ValueError, before any SVD, on a non-finite entry, and on
    a wrong shape."""
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    side = math.prod(dims)
    rows, heads = [], []
    # each cut: the party-to-front view realigned with block size
    # (n_party, side / n_party)
    for p, d in enumerate(dims, start=1):
        r = realign(bipartition_view(a, dims, p), d, side // d)
        u, s, _ = np.linalg.svd(r, full_matrices=False)
        rows.append((p, _rank1_residual(s), numerical_rank(s, max(r.shape))))
        heads.append(u[:, 0])
    invertible = numerical_rank(np.linalg.svd(a, compute_uv=False), side) == side
    ok = invertible and all(res <= RANK1_ACCEPT for _, res, _ in rows)
    return DecomposabilityReport(tuple(rows), ok, invertible), heads


def decomposability(a: np.ndarray, shape) -> DecomposabilityReport:
    """Test whether `a` is a Kronecker product over the given shape.

    The matrix is decomposable when it is invertible and the realignment of
    every single-party cut is rank one, i.e. its rank-one residual
    sigma_2 / sigma_1 is at most RANK1_ACCEPT, the threshold factor
    extraction applies. Numerical ranks are reported alongside. Each cut
    takes one thin SVD, the one extract_factors reads its factor from.
    Non-invertible input is flagged and reported as not decomposable rather
    than raised; a non-finite entry raises ValueError before any SVD.
    """
    return _cuts(np.asarray(a, dtype=complex), as_dims(shape))[0]


def extract_factors(a: np.ndarray, shape) -> FactorSet:
    """Recover the per-party factors of a Kronecker product, canonically
    normalized, with the global scale chosen so kron reconstructs `a`.

    Party k's factor is the leading left singular vector of its own cut's
    realignment, unvec'd to n_k x n_k, taken from the same SVD whose
    singular values decomposability gates: one SVD per cut, plus one for
    invertibility. The canonical product has unit norm, so the
    least-squares scale is its inner product with `a`. Raises
    NotDecomposable when the matrix is singular, any realignment is not
    rank one, or the reconstruction misses `a` by more than 1e-8 relative;
    raises ValueError, before any SVD, on a wrong shape or a non-finite
    entry.
    """
    dims = as_dims(shape)
    a = np.asarray(a, dtype=complex)
    report, heads = _cuts(a, dims)
    if not report.invertible:
        raise NotDecomposable("matrix is numerically singular")
    if not report.decomposable:
        worst = max(report.residuals)
        raise NotDecomposable(f"worst realignment residual {worst:.3e}")
    unit = canonicalize([unvec(u, d, d) for u, d in zip(heads, dims)])
    fs = FactorSet(unit.factors, complex(np.vdot(kron_list(unit.factors), a)))
    rebuilt = kron(fs)
    denom = float(np.linalg.norm(a))
    err = float(np.linalg.norm(rebuilt - a)) / denom
    if err > 1e-8:
        raise NotDecomposable(f"reconstruction error {err:.3e}")
    return fs
