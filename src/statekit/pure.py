"""Equivalence testing for pure multiparty states via coefficient matrices.

A pure state over parties with dimensions (n_1, ..., n_K) is flattened to a
coefficient matrix for any bipartition of the parties; invertible local maps
act as row and column factors on that matrix, so its rank over every cut is
an equivalence invariant. Two parties are decided by their Schmidt ranks,
acting only on a decisive mismatch, with the witness built exactly from the
two singular value decompositions. More parties are screened on the full
rank signature, each cut keyed by its smaller side (or by the side holding
party 1 when both sides are the same size), again acting only on decisive
mismatches; the witness is then constructed through the local supports of
the single-party cuts (a party that is not entangled with the rest drops
out, a rank-deficient one is compressed), and by a product-vector pairing
argument for three qubits. Identical amplitudes are accepted before any
screen. Pairs no route connects are Inconclusive. Every Equivalent verdict
carries an independently verified witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Optional, Sequence

import numpy as np

from . import oracle
from .factor import canonicalize
from .linalg import (RankReport, SystemShape, _decisive, kron_list, lift_supports,
                     local_supports, numerical_rank, rank_mismatch, rank_report)
from .oracle import Verdict

_witness_verdict = partial(oracle.witness_verdict, oracle.verify_witness_pure)


@dataclass(frozen=True)
class PureState:
    """A normalized state vector tagged with its party structure; amplitudes
    are indexed row-major over the party multi-index."""

    shape: SystemShape
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size != self.shape.side:
            raise ValueError(f"expected {self.shape.side} amplitudes, got {amp.size}")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes must be finite")
        with np.errstate(over="ignore"):  # a norm beyond the float range is inf
            nrm = float(np.linalg.norm(amp))
        if abs(nrm - 1.0) > 1e-6:
            raise ValueError(f"state norm {nrm:.6g} is not 1")
        object.__setattr__(self, "amplitudes", amp / nrm)


@dataclass(frozen=True, eq=True)
class RankSignature:
    """Coefficient-matrix ranks keyed by bipartition: each key is the
    smaller side of its cut, or the side holding party 1 when both sides
    are the same size."""

    nparties: int
    entries: dict[tuple[int, ...], int]

    def rank(self, parties: Sequence[int]) -> int:
        key = tuple(sorted(int(p) for p in parties))
        if key in self.entries:
            return self.entries[key]
        comp = tuple(sorted(set(range(1, self.nparties + 1)) - set(key)))
        return self.entries[comp]


def coefficient_matrix(psi: PureState, cut: Optional[Sequence[int]] = None) -> np.ndarray:
    """Flatten the state into the matrix whose rows are indexed by the
    parties of `cut` (ascending) and whose columns by the complement
    (ascending).

    Defaults to the first floor(K/2) parties.
    """
    dims = psi.shape.dims
    k = len(dims)
    if cut is None:
        cut = tuple(range(1, k // 2 + 1)) if k > 1 else (1,)
    rows = tuple(sorted(set(int(p) for p in cut)))
    if len(rows) != len(tuple(cut)):
        raise ValueError("row parties contain duplicates")
    if not rows or any(p < 1 or p > k for p in rows):
        raise ValueError("row parties must be a nonempty subset of the parties")
    cols = tuple(p for p in range(1, k + 1) if p not in rows)
    if not cols:
        raise ValueError("row parties must be a proper subset")
    axes = [p - 1 for p in rows] + [p - 1 for p in cols]
    m = math.prod(dims[p - 1] for p in rows)
    return psi.amplitudes.reshape(dims).transpose(axes).reshape(m, -1)


def _cut_reports(psi: PureState) -> dict[tuple[int, ...], RankReport]:
    """The rank_report of the coefficient matrix over each cut of psi's rank
    signature, keyed as rank_signature keys it: one SVD per cut, which the
    numerical rank and its decisive decision both read."""
    k = psi.shape.nparties
    sizes = range(1, k // 2 + 1) if k <= 6 else (1,)
    cuts = [cut for size in sizes for cut in itertools.combinations(range(1, k + 1), size)
            if 2 * size < k or cut[0] == 1]
    return {cut: rank_report(coefficient_matrix(psi, cut)) for cut in cuts}


def rank_signature(psi: PureState) -> RankSignature:
    """Ranks of the coefficient matrices over every single-party cut and,
    for up to six parties, over all cuts up to complementation. Each cut is
    keyed by its smaller side, or by the side holding party 1 when both
    sides are the same size. One party has no bipartition, so its signature
    is empty."""
    return RankSignature(psi.shape.nparties, {
        cut: rep.numerical_rank for cut, rep in _cut_reports(psi).items()})


def _borderline(cut: tuple[int, ...], r1: int, r2: int) -> Verdict:
    """Refusal for numerical ranks that differ on a cut although neither
    rank is decisive: no rank separates the pair, and a witness could only
    bridge singular values below the oracle's resolution."""
    return Verdict(
        "Inconclusive", None,
        f"numerical ranks on cut {cut} ({r1} vs {r2}) lie in the indecision band",
        (),
    )


def check_bipartite(phi: PureState, psi: PureState) -> Verdict:
    """Two-party equivalence: decided by Schmidt rank alone, with the witness
    assembled from the two singular value decompositions. One SVD per
    coefficient matrix serves the numerical ranks, their decisiveness and
    the witness. Inequivalent only when the two Schmidt ranks are decisive
    and differ; Inconclusive when they differ inside the indecision band.
    """
    if phi.shape != psi.shape:
        raise ValueError("states have different shapes")
    if phi.shape.nparties != 2:
        raise ValueError("check_bipartite requires exactly two parties")
    m1 = coefficient_matrix(phi)
    m2 = coefficient_matrix(psi)
    x1, s1, y1 = np.linalg.svd(m1)
    x2, s2, y2 = np.linalg.svd(m2)
    m, n = m1.shape
    r1, r2 = numerical_rank(s1, max(m, n)), numerical_rank(s2, max(m, n))
    if r1 != r2:
        if rank_mismatch(_decisive(s1), _decisive(s2)) is not None:
            return Verdict(
                "Inequivalent", None, f"Schmidt ranks differ ({r1} vs {r2})", ()
            )
        return _borderline((1,), r1, r2)
    # the Schmidt diagonal, sqrt(s1 / s2) on the support and 1 off it
    b = np.ones(max(m, n))
    b[:r1] = np.sqrt(s1[:r1] / s2[:r1])
    c1 = x1 @ np.diag(b[:m]) @ x2.conj().T
    c2 = (y2.conj().T @ np.diag(b[:n]) @ y1).T
    verdict = _witness_verdict(
        phi, psi, canonicalize([c1, c2]),
        "witness from the two singular decompositions",
    )
    if verdict is not None:
        return verdict
    return Verdict(
        "Inconclusive", None, "constructed witness failed verification", ()
    )


def _product_vectors(basis: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Product vectors u (x) v inside the 2-dimensional subspace of C2 (x) C2
    spanned by the two basis rows, found as the roots of det(A + mu B)."""
    a = basis[0].reshape(2, 2)
    b = basis[1].reshape(2, 2)
    da = np.linalg.det(a)
    db = np.linalg.det(b)
    c1 = np.linalg.det(a + b) - da - db
    scale = max(abs(da), abs(db), abs(c1), 1e-300)
    out = []

    def split(mat):
        u, s, vh = np.linalg.svd(mat)
        out.append((u[:, 0] * s[0], vh[0].copy()))

    if abs(db) > 1e-12 * scale:
        for mu in np.roots([db, c1, da]):
            if np.isfinite(mu):
                split(a + mu * b)
    else:
        split(b)
        if abs(c1) > 1e-12 * scale:
            split(a + (-da / c1) * b)
    return out


def _three_qubit_witness(phi: PureState, psi: PureState) -> Iterator[list[np.ndarray]]:
    """Pair the two product vectors in each coefficient rowspace to build the
    column factors, then solve for the row factor by least squares; three
    qubits only. Yields the factors of both pairings (none when a rowspace
    does not hold two product vectors), for the oracle to choose from."""
    m1 = coefficient_matrix(phi, (1,))
    m2 = coefficient_matrix(psi, (1,))
    _, _, y1h = np.linalg.svd(m1)
    _, _, y2h = np.linalg.svd(m2)
    p_list = _product_vectors(y1h[:2])
    q_list = _product_vectors(y2h[:2])
    if len(p_list) != 2 or len(q_list) != 2:
        return
    (u1, v1), (u2, v2) = q_list
    for perm in ((0, 1), (1, 0)):
        (a1, b1) = p_list[perm[0]]
        (a2, b2) = p_list[perm[1]]
        try:
            c2 = np.column_stack([a1, a2]) @ np.linalg.inv(np.column_stack([u1, u2]))
            c3 = np.column_stack([b1, b2]) @ np.linalg.inv(np.column_stack([v1, v2]))
        except np.linalg.LinAlgError:
            continue
        mr = m2 @ np.kron(c2, c3).T
        l, *_ = np.linalg.lstsq(mr.T, m1.T, rcond=None)
        yield [l.T, c2, c3]


def _compressed_verdict(phi: PureState, psi: PureState, ranks: Sequence[int]) -> Verdict:
    """Decide the pair through the supports of its single-party cuts, of
    ranks `ranks` (equal for both states; one party alone is rank 1). The
    compressed pair, rank-1 parties dropped, is decided by
    check_pure_equivalence; its Inequivalent passes through, and its witness
    is lifted (lift_supports) for the oracle."""
    dims = phi.shape.dims
    mats = [[np.moveaxis(s.amplitudes.reshape(dims), p, 0).reshape(d, -1)
             for p, d in enumerate(dims)] for s in (phi, psi)]
    splits = local_supports(*mats, ranks)
    kept = tuple(r for r in ranks if r > 1)
    sub = Verdict("Equivalent", canonicalize([]), "", ())  # nothing kept
    if kept:
        pair = [PureState(SystemShape(kept),
                          kron_list([split[2 * side] for split in splits]).conj().T @ s.amplitudes)
                for side, s in enumerate((phi, psi))]
        sub = check_pure_equivalence(*pair)
    terms = [f"party {p}" if r == 1 else f"party {p}'s kernel"
             for p, (r, d) in enumerate(zip(ranks, dims), start=1) if r < d]
    subject = terms[0] if len(terms) == 1 else ", ".join(terms[:-1]) + " and " + terms[-1]
    verb = "factors" if len(terms) == 1 else "factor"
    if sub.outcome == "Inequivalent":
        return Verdict("Inequivalent", None, f"after factoring {subject}: {sub.reason}", ())
    if sub.outcome == "Equivalent":
        factors = lift_supports(splits, sub.witness.factors)
        verdict = _witness_verdict(
            phi, psi, canonicalize(factors, sub.witness.scale),
            f"{subject} {verb} out; remainder equivalent",
        )
        if verdict is not None:
            return verdict
    return Verdict(
        "Inconclusive", None, f"{subject} {verb} out but the remainder is inconclusive", ()
    )


def check_pure_equivalence(phi: PureState, psi: PureState) -> Verdict:
    """Decide equivalence of two pure states, or refuse honestly.

    Inequivalent only on decisive rank mismatches. Equivalent only with an
    independently verified witness. Everything else is Inconclusive: the
    constructive routes cover two parties, rank-deficient single-party cuts
    and three qubits, so finding no witness proves nothing. A two-party pair
    goes to check_bipartite, whose Schmidt ranks are its one screen.
    """
    if not (isinstance(phi, PureState) and isinstance(psi, PureState)):
        raise ValueError("check_pure_equivalence expects PureState inputs")
    if phi.shape != psi.shape:
        raise ValueError("states have different shapes")
    dims = phi.shape.dims
    k = len(dims)

    if float(np.linalg.norm(phi.amplitudes - psi.amplitudes)) < 1e-12:
        factors = [np.eye(d, dtype=complex) for d in dims]
        verdict = _witness_verdict(
            phi, psi, canonicalize(factors), "identical amplitudes"
        )
        if verdict is not None:
            return verdict

    if k == 2:
        return check_bipartite(phi, psi)

    reps1, reps2 = _cut_reports(phi), _cut_reports(psi)
    borderline = None
    for cut, rep1 in reps1.items():
        rep2 = reps2[cut]
        r1, r2 = rep1.numerical_rank, rep2.numerical_rank
        if r1 == r2:
            continue
        if rank_mismatch(_decisive(rep1.singular_values),
                         _decisive(rep2.singular_values)) is not None:
            return Verdict(
                "Inequivalent", None,
                f"rank signature differs on cut {cut} ({r1} vs {r2})", (),
            )
        borderline = borderline or _borderline(cut, r1, r2)
    if borderline is not None:
        return borderline

    # compress to the supports of the single-party cuts; a rank-1 party
    # drops out, and one party alone is rank 1 with nothing kept
    ranks = tuple(reps1[(p,)].numerical_rank for p in range(1, k + 1)) if k > 1 else (1,)
    if any(r < d for r, d in zip(ranks, dims)):
        return _compressed_verdict(phi, psi, ranks)

    if dims == (2, 2, 2):
        for factors in _three_qubit_witness(phi, psi):
            verdict = _witness_verdict(
                phi, psi, canonicalize(factors), "witness from product-vector pairing"
            )
            if verdict is not None:
                return verdict

    return Verdict(
        "Inconclusive", None,
        "no verifiable connector found in the computed frames", (),
    )
