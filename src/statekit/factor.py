"""Kronecker-product structure tests and factor extraction.

An invertible matrix on a multiparty index space is a Kronecker product of
per-party invertible factors exactly when, for every party, the realignment
of its party-to-front view has rank one. Factors are recovered from the
leading rank-one terms of those realignments, peeling one party at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    RANK1_ACCEPT,
    RANK_REL_TOL,
    as_dims,
    bipartition_view,
    kron_list,
    rank_report,
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


def decomposability(a: np.ndarray, shape) -> DecomposabilityReport:
    """Test whether `a` is a Kronecker product over the given shape.

    The matrix is decomposable when it is invertible and the realignment of
    every single-party cut is rank one, i.e. its rank-one residual
    sigma_2 / sigma_1 is at most RANK1_ACCEPT, the threshold factor
    extraction applies. Numerical ranks are reported alongside.
    Non-invertible input is flagged and reported as not decomposable rather
    than raised.
    """
    dims = as_dims(shape)
    side = int(np.prod(dims))
    a = np.asarray(a, dtype=complex)
    if a.shape != (side, side):
        raise ValueError(f"expected shape {(side, side)}, got {a.shape}")
    s = np.linalg.svd(a, compute_uv=False)
    invertible = bool(s[-1] > side * s[0] * RANK_REL_TOL) if s[0] > 0 else False
    # each cut: the party-to-front view realigned with block size
    # (n_party, side / n_party)
    cuts = [rank_report(realign(bipartition_view(a, dims, p), d, side // d))
            for p, d in enumerate(dims, start=1)]
    rows = tuple((p, rep.rank1_residual, rep.numerical_rank)
                 for p, rep in enumerate(cuts, start=1))
    ok = invertible and all(res <= RANK1_ACCEPT for _, res, _ in rows)
    return DecomposabilityReport(rows, ok, invertible)


def _peel(a: np.ndarray, dims: tuple[int, ...]) -> list[np.ndarray]:
    """Split off the first party's factor from the leading rank-one term of
    the realignment, then recurse on the remainder."""
    if len(dims) == 1:
        return [a]
    n1 = dims[0]
    rest = a.shape[0] // n1
    r = realign(a, n1, rest)
    u, s, vh = np.linalg.svd(r)
    if s[0] <= 0.0 or (s.size > 1 and s[1] / s[0] > RANK1_ACCEPT):
        raise NotDecomposable(
            f"realignment rank-one residual {s[1] / s[0] if s[0] else 0.0:.3e} "
            f"exceeds {RANK1_ACCEPT:.0e}"
        )
    head = unvec(np.sqrt(s[0]) * u[:, 0], n1, n1)
    tail = unvec(np.sqrt(s[0]) * vh[0, :], rest, rest)
    return [head] + _peel(tail, dims[1:])


def extract_factors(a: np.ndarray, shape) -> FactorSet:
    """Recover the per-party factors of a Kronecker product, canonically
    normalized, with the global scale chosen so kron reconstructs `a`.

    Raises NotDecomposable when any realignment is not rank one or the
    reconstruction misses `a` by more than 1e-8 relative.
    """
    dims = as_dims(shape)
    side = int(np.prod(dims))
    a = np.asarray(a, dtype=complex)
    if a.shape != (side, side):
        raise ValueError(f"expected shape {(side, side)}, got {a.shape}")
    report = decomposability(a, dims)
    if not report.invertible:
        raise NotDecomposable("matrix is numerically singular")
    if not report.decomposable:
        worst = max(report.residuals)
        raise NotDecomposable(f"worst realignment residual {worst:.3e}")
    fs = canonicalize(_peel(a, dims))
    rebuilt = kron(fs)
    denom = float(np.linalg.norm(a))
    err = float(np.linalg.norm(rebuilt - a)) / denom
    if err > 1e-8:
        raise NotDecomposable(f"reconstruction error {err:.3e}")
    return fs
