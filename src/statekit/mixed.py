"""Equivalence testing for density matrices under invertible local operations.

Two density matrices are equivalent when some Kronecker product of invertible
per-party factors conjugates one into the other (up to trace normalization).
The pipeline: rank screens that can prove inequivalence, spectral preparation,
a gauge search for a tensor-decomposable connector between the two eigenbases,
and an independent witness verification before any Equivalent verdict. One
rank-one rule runs from search to witness: the search accepts a connector
only when extract_factors does, and returns the factors with it.

The connector search runs in two frames, filtered first. Filtering brings
both states to the local form whose single-party reduced matrices are all
maximally mixed (Verstraete, Dehaene and De Moor, PRA 68, 012103); states
equivalent under invertible local maps have filtered forms related by a
local unitary U = (x)U_k, with equal spectra (a mismatch ends the verdict).
U is read off in closed form from one-copy covariants: reduced matrices of
powers of the filtered state, which U conjugates party by party (the mixed
analogue of Kraus's local-unitary standard form, PRL 104, 020504). Where
the covariants fix no U, as in every two-qubit normal form, the gauge search
looks for U over the filtered eigenbases, unless a degenerate cluster
leaves them free. A unitary found in the filtered frame is composed with
the filters, verified against the original inputs, and is the verdict.
Only when filtering certifies nothing does one search run over the raw
eigenbases, X diag(d) Y^dag with support magnitudes pinned by the
eigenvalue ratios, under every within-cluster pairing. Whichever route
certifies a connector, one rule reads its kernel ratio: the pairing the
connector reveals in the raw eigenbases pins the support, and ratio
completion fills the one kernel entry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import oracle
from .factor import FactorSet, NotDecomposable, cut_reports, extract_factors
from .linalg import (
    RANK1_ACCEPT,
    SystemShape,
    as_dims,
    bipartition_view,
    decisive_rank,
    eigh_desc,
    kron_list,
    partial_trace_keep,
    rank_mismatch,
    realign,
)
from .oracle import Verdict

# Stage (b) of the gauge search: random-phase starts per pairing, the
# iteration cap per start, and the run of iterations without a 30% gain
# after which a start stops.
N_STARTS = 32
ALS_ITERS = 300
STALL_LIMIT = 25
# Stage (a2): kernel refits per sign pattern, and the sign patterns refit
# together in one batch.
KERNEL_FIT_ITERS = 40
SIGN_BATCH = 128
# Relative eigenvalue gap below which indices join one degeneracy cluster.
CLUSTER_REL_GAP = 1e-8
# Largest cluster handled by exhaustive permutation search.
CLUSTER_PERM_LIMIT = 4
# Cap on the total number of cluster pairings tried per frame.
PAIRING_BUDGET = 1000
# Local filtering: sweep cap, the deviation accepted at once, and the
# plateau deviation accepted after 200 sweeps without a 10% gain.
FILTER_SWEEPS = 20000
FILTER_TOL = 1e-12
FILTER_SOFT_TOL = 1e-9
# Filtered-frame covariant solve: the least relative eigengap, and the least
# relative (0, j) entry, that fix a party's eigenbasis and column phases, and
# the relative distance within which two covariant spectra agree.
COVARIANT_GAP = 1e-6
COVARIANT_MATCH = 1e-8


@dataclass(frozen=True)
class MixedState:
    """A density matrix tagged with its party structure."""

    shape: SystemShape
    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        side = self.shape.side
        if rho.shape != (side, side):
            raise ValueError(f"expected shape {(side, side)}, got {rho.shape}")
        if not np.all(np.isfinite(rho)):
            raise ValueError("density matrix entries must be finite")
        scale = max(1.0, float(np.max(np.abs(rho))))
        if float(np.max(np.abs(rho - rho.conj().T))) > 1e-10 * scale:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
        if float(w.min()) < -1e-10:
            raise ValueError(f"density matrix has negative eigenvalue {w.min():.3e}")
        if abs(float(np.trace(rho).real) - 1.0) > 1e-10 or abs(float(np.trace(rho).imag)) > 1e-10:
            raise ValueError("density matrix trace is not 1 within 1e-10")
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition with support and degeneracy bookkeeping."""

    eigvecs: np.ndarray
    eigvals: np.ndarray
    support_rank: int
    clusters: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GaugeResult:
    """Accepted connector with the factors extract_factors gives for it."""

    connector: np.ndarray
    factors: FactorSet
    per_cut: tuple[float, ...]
    diagonal: np.ndarray
    pairing: tuple[int, ...]


def _phase_fix_columns(v: np.ndarray) -> np.ndarray:
    """Deterministic eigenvector gauge: largest-magnitude entry of each
    column made real positive."""
    v = np.array(v, dtype=complex)
    piv = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    # hypot, not np.abs, is abs() of one complex scalar to the last bit; and
    # each column is multiplied as a row of the transpose by its own scalar,
    # the product numpy forms for one column times one scalar
    mag = np.hypot(piv.real, piv.imag)
    live = mag > 0.0
    v[:, live] = (v.T[live] * (mag[live] / piv[live])[:, None]).T
    return v


def spectral_prep(rho: np.ndarray) -> SpectralData:
    """Eigendecomposition sorted nonincreasing, eigenvalues clipped at zero,
    with support rank and relative-gap degeneracy clusters."""
    q, w = eigh_desc(rho)
    w = np.clip(w, 0.0, None)
    q = _phase_fix_columns(q)
    top = float(w[0]) if w.size else 0.0
    tol = w.size * top * 1e-10
    support = int(np.sum(w > tol))
    clusters: list[list[int]] = []
    for i in range(w.size):
        on = i < support
        if clusters:
            prev = clusters[-1][-1]
            same_side = (prev < support) == on
            close = (w[prev] - w[i]) < CLUSTER_REL_GAP * max(top, 1e-300)
            if same_side and close:
                clusters[-1].append(i)
                continue
        clusters.append([i])
    return SpectralData(q, w, support, tuple(tuple(c) for c in clusters))


def _ratio_complete(pinned: np.ndarray, dims: Sequence[int], kernel: Sequence[int]):
    """Fill unknown diagonal entries from the rank-one row-proportionality
    pattern of the first party's arrangement of the diagonal vector.

    Arrange d as a dims[0] x rest table; if row 0 is fully known and the
    known entries of every other row are proportional to row 0 with a
    consistent per-row ratio, the unknowns are determined. Returns the
    completed vector and, when exactly one entry was free, its fill value.
    """
    d0 = dims[0]
    rest = int(np.prod(dims)) // d0
    table = pinned.reshape(d0, rest).copy()
    known = ~np.isnan(table.real)
    if not known[0].all():
        return None, None
    ratios = []
    for i in range(1, d0):
        cols = np.nonzero(known[i])[0]
        if cols.size == 0:
            return None, None
        ref = cols[int(np.argmax(np.abs(table[0, cols])))]
        if abs(table[0, ref]) < 1e-300:
            return None, None
        k = table[i, ref] / table[0, ref]
        if np.max(np.abs(table[i, cols] - k * table[0, cols])) > 1e-6 * max(
            1.0, float(np.max(np.abs(table[i, cols])))
        ):
            return None, None
        ratios.append(k)
        table[i] = k * table[0]
    filled = table.reshape(-1)
    ratio = None
    if len(kernel) == 1 and len(ratios) == 1:
        ratio = ratios[0]
    return filled, ratio


def _pinned(eigvals: tuple[np.ndarray, np.ndarray], pi: tuple[int, ...],
            r: int) -> Optional[np.ndarray]:
    """The diagonal pairing pi pins: magnitude sqrt(lambda_i / mu_pi(i)) for
    i < r, from eigvals = (lambda, mu), and NaN (free) on the kernel. None
    when pi moves an index across the support boundary."""
    if any((i < r) != (p < r) for i, p in enumerate(pi)):
        return None
    lam, mu = eigvals
    pinned = np.full(lam.size, np.nan, dtype=complex)
    pinned[:r] = np.sqrt(lam[:r] / mu[list(pi[:r])])
    return pinned


def cluster_pairings(clusters: Sequence[Sequence[int]]) -> Optional[list[tuple[int, ...]]]:
    """All index permutations acting within degeneracy clusters, identity
    first. Returns None when a cluster exceeds the exhaustive-permutation
    limit or the total count exceeds PAIRING_BUDGET."""
    total = 1
    for c in clusters:
        if len(c) > CLUSTER_PERM_LIMIT:
            return None
        for i in range(2, len(c) + 1):
            total *= i
        if total > PAIRING_BUDGET:
            return None
    per_cluster = [list(itertools.permutations(c)) for c in clusters]
    out = []
    for combo in itertools.product(*per_cluster):
        perm = list(range(sum(len(c) for c in clusters)))
        for orig, img in zip(clusters, combo):
            for src, dst in zip(orig, img):
                perm[src] = dst
        out.append(tuple(perm))
    ident = tuple(range(len(out[0])))
    out.sort(key=lambda p: p != ident)
    return out


def _negativity_cost(factors: Sequence[np.ndarray]) -> float:
    """Distance of phase-fixed unit factors from entrywise nonnegativity;
    used to pick the canonical representative among certified candidates."""
    cost = 0.0
    for f in factors:
        f = np.asarray(f, dtype=complex)
        f = f / np.linalg.norm(f)
        flat = f.reshape(-1)
        lead = flat[np.argmax(np.abs(flat) > 1e-12)]
        if abs(lead) > 0:
            f = f * (abs(lead) / lead)
        cost += float(np.sum(np.abs(f - np.abs(f)) ** 2))
    return cost


def _cut_pencil(x: np.ndarray, yp: np.ndarray, dims: Sequence[int]):
    """Coefficient pencil of the connector x diag(d) yp^dag.

    Row i holds the realignments of the rank-one term x_i yp_i^dag over
    every single-party cut, flattened and concatenated, so d @ pencil lists
    all realignments of the connector at once. Cuts with equal realignment
    shape sit next to each other; the second value lists each such group as
    (start, stop, (cuts, rows, cols)) over the pencil's columns.
    """
    n = int(np.prod(dims))
    terms = x.T[:, :, None] * yp.conj().T[:, None, :]
    shapes = [(d * d, (n // d) ** 2) for d in dims]
    blocks, groups, lo = [], [], 0
    for shp in dict.fromkeys(shapes):
        parties = [k for k in range(len(dims)) if shapes[k] == shp]
        for k in parties:
            view = bipartition_view(terms, dims, k + 1)
            blocks.append(realign(view, dims[k], n // dims[k]).reshape(n, -1))
        hi = lo + len(parties) * shp[0] * shp[1]
        groups.append((lo, hi, (len(parties),) + shp))
        lo = hi
    return np.concatenate(blocks, axis=1), groups


def _rank1_project(r: np.ndarray) -> np.ndarray:
    """Nearest rank-one matrix to every matrix of a (..., p, q) stack.

    Projects onto the top eigenvector of the smaller Gram matrix (R R^dag
    when p <= q, else R^dag R), which equals truncating the SVD to its
    leading term, with one batched eigh in place of one SVD per matrix.
    """
    rh = r.conj().swapaxes(-1, -2)
    if r.shape[-2] <= r.shape[-1]:
        u = np.linalg.eigh(r @ rh)[1][..., -1:]
        return u @ (u.conj().swapaxes(-1, -2) @ r)
    v = np.linalg.eigh(rh @ r)[1][..., -1:]
    return (r @ v) @ v.conj().swapaxes(-1, -2)


def _rank1_stack(y: np.ndarray, groups) -> np.ndarray:
    """Nearest rank-one realignment on every cut, for each row of y."""
    rows = y.shape[0]
    parts = [_rank1_project(y[:, lo:hi].reshape((rows,) + shp)).reshape(rows, -1)
             for lo, hi, shp in groups]
    # one group, as when all parties have the same dimension, needs no copy
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _lstsq_pinv(a: np.ndarray) -> np.ndarray:
    """Pseudo-inverse with the default cutoff of np.linalg.lstsq (singular
    values at most eps * max(a.shape) * sigma_1 count as zero), so that
    pinv @ b is the least-squares solution lstsq(a, b) for every b."""
    return np.linalg.pinv(a, rcond=np.finfo(float).eps * max(a.shape))


def _als(d: np.ndarray, pencil: np.ndarray, groups, pinv_t: np.ndarray,
         supm: np.ndarray, pin: np.ndarray):
    """Alternating least squares from every row of d at once; yields the
    final iterate of each row in row order, as soon as it and every row
    before it have stopped, so a caller that accepts an early row ends the
    batch there.

    Each iteration replaces the realignments d @ pencil by their nearest
    rank-one matrices, solves for the diagonal that best reproduces them
    (pinv_t is the transposed pseudo-inverse of pencil^T), and projects the
    pinned support magnitudes back. A row stops on its own when its gap
    falls below 1e-13 of the target, on the rounding floor (its gap is at
    most RANK1_ACCEPT of the target and no smaller than its best gap so
    far), after more than STALL_LIMIT iterations without a 30% gain, or when
    the solve returns zero; stopped rows keep their last iterate and leave
    the batch.
    """
    d = d.copy()
    live = np.arange(d.shape[0])
    # the iterate, best gap and stall count of each live row, in live order
    cur = d
    best = np.full(live.size, np.inf)
    stall = np.zeros(live.size, dtype=int)
    done = 0
    for _ in range(ALS_ITERS):
        if live.size == 0:
            break
        y = cur @ pencil
        target = _rank1_stack(y, groups)
        gap = np.linalg.norm(y - target, axis=1)
        size = np.linalg.norm(target, axis=1)
        stop = (gap < 1e-13 * np.maximum(size, 1e-300)) | (
            (gap <= RANK1_ACCEPT * size) & (gap >= best))
        stall = np.where(gap > 0.7 * best, stall + 1, 0)
        best = np.minimum(best, gap)
        dn = target @ pinv_t
        stop |= (stall > STALL_LIMIT) | (np.linalg.norm(dn, axis=1) < 1e-300)
        if stop.any():
            d[live[stop]] = cur[stop]
            keep = ~stop
            live, dn, best, stall = live[keep], dn[keep], best[keep], stall[keep]
        mag = np.abs(dn)
        ph = np.divide(dn, mag, out=np.ones_like(dn), where=mag > 1e-300)
        cur = np.where(supm, pin * ph, dn)
        first_live = live[0] if live.size else d.shape[0]
        while done < first_live:
            yield d[done]
            done += 1
    d[live] = cur
    yield from d[done:]


def gauge_search(
    x: np.ndarray,
    y: np.ndarray,
    support_rank: int,
    shape,
    *,
    eigvals: tuple[np.ndarray, np.ndarray],
    pairings: Optional[Sequence[tuple[int, ...]]] = None,
    seed: int = 0,
) -> Optional[GaugeResult]:
    """Search connector candidates x diag(d) y^dag for one whose realignment
    is rank one on every single-party cut.

    A candidate is accepted exactly when extract_factors accepts its
    connector: every cut's rank-one residual is at most RANK1_ACCEPT, the
    connector is invertible, and its factors rebuild it.

    Stage (a) completes free entries deterministically when the pinned
    entries already fit a rank-one diagonal pattern. Stage (a2), for real
    frames, enumerates support sign patterns with kernel entries fit
    linearly, keeping the certified candidate closest to entrywise
    nonnegativity. Stage (b) runs alternating least squares over the
    diagonal coefficients with support magnitudes projected back to their
    pinned values, from up to N_STARTS starts: the support phases of every
    start but the first are drawn in one call from a generator seeded with
    `seed`, and the starts iterate in consecutive batches of 1, 1, 2, 4, 8
    and 16 rows against a pseudo-inverse computed once per pairing. Each
    start stops on its own, and no row of a batch affects another, so a
    start's iterate does not depend on its batch. Starts are scored in start
    order, each as soon as it and every earlier start of its batch have
    stopped, and the first accepted one is returned without running the
    later starts; a pairing that accepts none runs all N_STARTS.

    `pairings` lists column permutations of y to try (within-degeneracy
    reorderings), the identity when omitted. For each pairing pi, _pinned
    fixes the first `support_rank` entries to magnitude
    sqrt(lambda_i / mu_pi(i)) from `eigvals` = (lambda, mu), the same rule
    that reads a certified connector's kernel ratio; pairings that map
    support indices outside the support are skipped. Returns the candidate
    the first accepting stage picks, with its extracted factors, else None.
    """
    dims = as_dims(shape)
    n = int(np.prod(dims))
    r = support_rank
    if pairings is None:
        pairings = [tuple(range(n))]
    real_frames = (
        float(np.max(np.abs(x.imag))) < 1e-12
        and float(np.max(np.abs(y.imag))) < 1e-12
    )

    for pi in pairings:
        pi = tuple(pi)
        if sorted(pi) != list(range(n)):
            raise ValueError("pairing is not a permutation")
        pinned = _pinned(eigvals, pi, r)
        if pinned is None:
            continue
        yp = y[:, pi]
        supm = ~np.isnan(pinned.real)
        sup_idx = np.nonzero(supm)[0]
        ker_idx = np.nonzero(~supm)[0]
        pin = np.where(supm, pinned, 0.0)

        def evaluate(d) -> Optional[GaugeResult]:
            a = (x * d) @ yp.conj().T
            per = tuple(rep.rank1_residual for rep in cut_reports(a, dims))
            # most candidates fail here, before extraction's own SVDs
            if max(per) > RANK1_ACCEPT:
                return None
            try:
                fs = extract_factors(a, dims)
            except NotDecomposable:
                return None
            return GaugeResult(a, fs, per, d.copy(), pi)

        # stage (a): deterministic ratio completion
        if sup_idx.size:
            d0, _ = _ratio_complete(pinned, dims, ker_idx)
            if d0 is not None:
                cand = evaluate(d0)
                if cand is not None:
                    return cand

        pencil, groups = _cut_pencil(x, yp, dims)

        # stage (a2): sign enumeration for real frames
        if real_frames and 0 < sup_idx.size <= 11:
            bits = np.arange(2 ** (sup_idx.size - 1))
            signs = np.ones((bits.size, sup_idx.size))
            signs[:, 1:] = 1 - 2 * ((bits[:, None] >> np.arange(sup_idx.size - 1)) & 1)
            ds = np.ones((bits.size, n), dtype=complex)
            ds[:, sup_idx] = pinned[sup_idx] * signs
            if ker_idx.size:
                # kernel entries refit linearly against the rank-one targets,
                # SIGN_BATCH patterns at a time to bound the working set
                ker_pinv_t = _lstsq_pinv(pencil[ker_idx].T).T
                for lo in range(0, bits.size, SIGN_BATCH):
                    blk = ds[lo:lo + SIGN_BATCH]
                    fixed = blk[:, sup_idx] @ pencil[sup_idx]
                    for _ in range(KERNEL_FIT_ITERS):
                        rhs = _rank1_stack(blk @ pencil, groups) - fixed
                        blk[:, ker_idx] = rhs @ ker_pinv_t
            certified = []
            for b, d in zip(bits, ds):
                cand = evaluate(d)
                if cand is not None:
                    cost = _negativity_cost(cand.factors.factors)
                    certified.append((round(cost, 9), int(b), cand))
            if certified:
                return min(certified, key=lambda t: t[:2])[2]

        # stage (b): batched multi-start alternating least squares
        rng = np.random.default_rng(seed)
        starts = np.tile(np.where(supm, pin, 1.0), (N_STARTS, 1))
        starts[1:] *= np.exp(2j * np.pi * rng.random((N_STARTS - 1, n)))
        pinv_t = _lstsq_pinv(pencil.T).T
        lo = 0
        while lo < N_STARTS:
            # batches of 1, 1, 2, 4, 8 and 16 starts: most pairs accept an
            # early start, and each row iterates alone whatever its batch
            hi = min(N_STARTS, max(1, 2 * lo))
            for d in _als(starts[lo:hi], pencil, groups, pinv_t, supm, pin):
                cand = evaluate(d)
                if cand is not None:
                    return cand
            lo = hi
    return None


def normal_form(rho: np.ndarray, shape):
    """Iterative local filtering toward the form whose every single-party
    reduced matrix is maximally mixed.

    Cyclically applies f = (d * reduced)^(-1/2) on each party: the reduced
    matrix comes from one einsum over a (before, d, after)^2 view whose
    shape is fixed once per call, f from its eigendecomposition, and the
    conjugation by f on the party's row and column indices from two
    broadcast matmuls over reshaped views. The deviation of a reduced
    matrix from I/d is read off its eigenvalues w as ||d w - 1||. Each step
    keeps the trace at 1 in exact arithmetic, so the trace is renormalized
    once per sweep. Returns the filtered state and the per-party filters,
    or None when a reduced matrix turns singular, when 200 sweeps without
    a 10% gain end above FILTER_SOFT_TOL (a state without a normal form,
    such as the W class, stalls so while its filters grow without bound),
    or after FILTER_SWEEPS sweeps. FILTER_TOL is accepted at once, and a
    plateau between FILTER_TOL and FILTER_SOFT_TOL after those 200 sweeps,
    which is the double precision floor for ill-conditioned inputs.
    """
    dims = as_dims(shape)
    n = math.prod(dims)
    views = [(math.prod(dims[:p]), d, math.prod(dims[p + 1:])) for p, d in enumerate(dims)]
    r = np.asarray(rho, dtype=complex)
    r = r / np.trace(r).real
    filters = [np.eye(d, dtype=complex) for d in dims]
    best = np.inf
    since_gain = 0
    for _ in range(FILTER_SWEEPS):
        dev = 0.0
        for party, (before, d, after) in enumerate(views):
            red = np.einsum("aibajb->ij", r.reshape(before, d, after, before, d, after))
            w, v = np.linalg.eigh(red)
            if w[0] < 1e-14:  # eigh sorts ascending
                return None
            dw = d * w
            e = dw - 1.0
            dev = max(dev, math.sqrt(e @ e))
            f = (v * dw ** -0.5) @ v.conj().T
            # conjugate by the filter: rows split as (before, party, after),
            # then columns split the same way behind all n rows
            t = f @ r.reshape(before, d, -1)
            t = f.conj() @ t.reshape(n * before, d, -1)
            r = t.reshape(n, n)
            filters[party] = f @ filters[party]
        r = r / np.trace(r).real
        if dev < FILTER_TOL:
            return r, filters
        if dev < 0.9 * best:
            best = dev
            since_gain = 0
        else:
            since_gain += 1
            if since_gain > 200:
                return (r, filters) if dev < FILTER_SOFT_TOL else None
    return None


def _party_covariants(f: np.ndarray, dims: Sequence[int], party: int) -> np.ndarray:
    """The (4, d, d) stack Tr_rest of f^2, f^3, f E and f E^2 for `party`
    (0-based), where E = I_party (x) Tr_party(f^2) and rest is every other
    party. Each is Hermitian, since a partial trace is cyclic in operators
    on the parties it traces out."""
    d = dims[party]
    m = math.prod(dims) // d
    sq = f @ f
    one, two, three = bipartition_view(np.stack([f, sq, sq @ f]), dims, party + 1).reshape(
        3, d, m, d, m)
    g = np.einsum("arat->rt", two)
    fe = one @ g
    return np.einsum("xarbr->xab", np.stack([two, three, fe, fe @ g]))


def _covariant_unitaries(f1: np.ndarray, f2: np.ndarray,
                         dims: Sequence[int]) -> Optional[list[np.ndarray]]:
    """Local unitaries U_k with (x)U_k f2 (x)U_k^dag = f1 for two filtered
    states, read off one-copy covariants, or None when they fix no U.

    Conjugating f by U = (x)U_k conjugates every covariant of party k by
    U_k. So the covariant whose relative eigengap is widest gives eigenbases
    A (of f1's) and B (of f2's) with U_k = A diag(phase) B^dag, and the
    largest relative (0, j) entry of the covariants in those bases fixes the
    phase of column j. None when that gap is under COVARIANT_GAP, the two
    spectra differ by more than COVARIANT_MATCH, or no entry reaches
    COVARIANT_GAP. A two-qubit normal form always gives None: its
    correlation tensor maps to O_A T O_B^T, whose sign-flip stabilizer fixes
    no vector, so every one-copy covariant is a multiple of I.
    """
    out = []
    for k in range(len(dims)):
        c1, c2 = _party_covariants(f1, dims, k), _party_covariants(f2, dims, k)
        w1, a = np.linalg.eigh(c1)
        w2, b = np.linalg.eigh(c2)
        scale = np.maximum(np.max(np.abs(w1), axis=1), 1e-300)
        gap = np.min(np.diff(w1, axis=1), axis=1) / scale
        x = int(np.argmax(gap))
        if gap[x] < COVARIANT_GAP or np.max(np.abs(w1[x] - w2[x])) > COVARIANT_MATCH * scale[x]:
            return None
        a, b = a[x], b[x]
        m1 = (a.conj().T @ c1 @ a)[:, 0, 1:]
        m2 = (b.conj().T @ c2 @ b)[:, 0, 1:]
        pick = np.argmax(np.abs(m1) / scale[:, None], axis=0)
        cols = np.arange(m1.shape[1])
        p1, p2 = m1[pick, cols], m2[pick, cols]
        if np.any(np.minimum(np.abs(p1), np.abs(p2)) < COVARIANT_GAP * scale[pick]):
            return None
        phase = np.ones(dims[k], dtype=complex)
        phase[1:] = p2 * p1.conj() / np.abs(p2 * p1)
        out.append((a * phase) @ b.conj().T)
    return out


def invariant_screen(rho1: np.ndarray, rho2: np.ndarray, shape) -> Optional[str]:
    """Rank invariants that prove inequivalence when they differ.

    Conjugation by invertible local factors preserves the global rank and
    the rank of every single-party reduced matrix. Mismatches are reported
    only when both ranks are decisive (clear spectral gap); borderline
    spectra return None so the caller keeps searching.
    """
    dims = as_dims(shape)
    ranks = rank_mismatch(rho1, rho2)
    if ranks is not None:
        return f"global rank mismatch ({ranks[0]} vs {ranks[1]})"
    for party in range(1, len(dims) + 1):
        ranks = rank_mismatch(
            partial_trace_keep(rho1, dims, party),
            partial_trace_keep(rho2, dims, party),
        )
        if ranks is not None:
            return f"party {party} reduced rank mismatch ({ranks[0]} vs {ranks[1]})"
    return None


def _connector_pairing(t: np.ndarray, x: np.ndarray,
                       y: np.ndarray) -> Optional[tuple[int, ...]]:
    """Pair eigenvector columns through a certified connector: index i of x
    goes with the y column carrying the largest overlap |x_i^dag t y_j|.
    Returns None unless those columns form a permutation, i.e. unless the
    connector is near monomial in the two eigenbases."""
    cols = np.argmax(np.abs(x.conj().T @ t @ y), axis=1)
    if np.unique(cols).size != cols.size:
        return None
    return tuple(int(c) for c in cols)


def _kernel_ratio(t: np.ndarray, s1: SpectralData, s2: SpectralData,
                  dims: Sequence[int]) -> Optional[float]:
    """The real ratio that completes the one kernel entry (both support
    ranks n - 1) of the diagonal pinned under the pairing a certified
    connector t reveals in the eigenbases; None without such an entry,
    pairing or real ratio."""
    r = s1.support_rank
    if s2.support_rank != r or r != s1.eigvals.size - 1:
        return None
    pi = _connector_pairing(t, s1.eigvecs, s2.eigvecs)
    pinned = None if pi is None else _pinned((s1.eigvals, s2.eigvals), pi, r)
    if pinned is None:
        return None
    _, ratio = _ratio_complete(pinned, dims, (r,))
    if ratio is None or abs(ratio.imag) > 1e-9 * max(1.0, abs(ratio.real)):
        return None
    return float(ratio.real)


def check_mixed_equivalence(rho1, rho2, seed: int = 0) -> Verdict:
    """Decide equivalence of two density matrices, or refuse honestly.

    Inequivalent only on decisive rank-invariant mismatches. Equivalent only
    with an independently verified witness. After the rank screen both states
    are filtered to their normal forms; filtered spectra that differ end the
    verdict Inconclusive. Otherwise the local unitary between the normal
    forms is solved from their covariants; when they fix none or the oracle
    refuses it, a filtered spectrum without degenerate clusters is searched
    for a local-unitary connector. A connector certified in the filtered
    frames is the verdict. Only when filtering certified nothing does one
    gauge search run over the raw eigenbases, under every within-cluster
    pairing. Every Equivalent verdict reports the kernel ratio of its
    connector (see _kernel_ratio). Everything else is Inconclusive.
    """
    if not (isinstance(rho1, MixedState) and isinstance(rho2, MixedState)):
        raise ValueError("check_mixed_equivalence expects MixedState inputs")
    if rho1.shape != rho2.shape:
        raise ValueError("states have different shapes")
    r1, r2 = rho1.rho, rho2.rho
    dims = rho1.shape.dims

    mismatch = invariant_screen(r1, r2, dims)
    if mismatch is not None:
        return Verdict("Inequivalent", None, mismatch, ())

    s1 = spectral_prep(r1)
    s2 = spectral_prep(r2)
    diag_notes = []
    # the raw-eigenbasis search needs equal support ranks and a bounded set
    # of within-cluster pairings
    perms = None
    if s1.support_rank != s2.support_rank:
        diag_notes.append("support ranks differ but spectra are borderline")
    else:
        perms = cluster_pairings(s1.clusters)
        if perms is None:
            diag_notes.append("degenerate spectrum beyond permutation budget")

    # filtered frames
    verdict = None
    nf1 = normal_form(r1, dims)
    nf2 = normal_form(r2, dims)
    if nf1 is not None and nf2 is not None:
        f1t, filt1 = nf1
        f2t, filt2 = nf2

        def through_filters(u_factors):
            """The verdict for local unitaries between the normal forms,
            composed with the filters, and its connector."""
            composed = [
                np.linalg.solve(filt1[k], u_factors[k] @ filt2[k])
                for k in range(len(dims))
            ]
            connector = kron_list(composed)
            per = tuple(rep.rank1_residual for rep in cut_reports(connector, dims))
            try:
                return oracle.witness_verdict(
                    oracle.verify_witness_mixed, rho1, rho2,
                    extract_factors(connector, dims),
                    "connector composed through filtered frames", per,
                ), connector
            except NotDecomposable:
                return None, connector

        if float(np.linalg.norm(f1t - f2t)) <= 1e-8 * float(np.linalg.norm(f1t)):
            verdict, connector = through_filters([np.eye(d, dtype=complex) for d in dims])
        else:
            t1 = spectral_prep(f1t)
            t2 = spectral_prep(f2t)
            if not (
                t1.support_rank == t2.support_rank
                and float(np.max(np.abs(t1.eigvals - t2.eigvals))) <= 1e-8
            ):
                diag_notes.append("filtered spectra mismatch")
                return Verdict("Inconclusive", None, "; ".join(diag_notes), ())
            u_factors = _covariant_unitaries(f1t, f2t, dims)
            if u_factors is not None:
                verdict, connector = through_filters(u_factors)
            # the search tries the identity pairing only: a degenerate cluster
            # leaves its eigenbasis free, and the raw search pairs such clusters
            if verdict is None:
                if any(len(c) > 1 for c in t1.clusters):
                    diag_notes.append("degenerate filtered spectrum")
                else:
                    res = gauge_search(
                        t1.eigvecs, t2.eigvecs, t1.support_rank, dims,
                        eigvals=(t1.eigvals, t2.eigvals), seed=seed,
                    )
                    if res is not None:
                        u_factors = [np.array(f) for f in res.factors.factors]
                        u_factors[0] = complex(res.factors.scale) * u_factors[0]
                        verdict, connector = through_filters(u_factors)
    else:
        # a singular reduced matrix stops the filtering at once; with
        # full-rank ones the marginals stalled (no normal form, as for the
        # W class) or were still gaining at FILTER_SWEEPS
        singular = any(
            decisive_rank(partial_trace_keep(r, dims, p))[0] < dims[p - 1]
            for r in (r1, r2) for p in range(1, len(dims) + 1)
        )
        cause = "rank-deficient state" if singular else "marginals stay short of maximally mixed"
        diag_notes.append(f"filtering did not converge ({cause})")

    # the raw-eigenbasis search, only when filtering certified nothing
    if verdict is None and perms is not None:
        res = gauge_search(
            s1.eigvecs, s2.eigvecs, s1.support_rank, dims,
            eigvals=(s1.eigvals, s2.eigvals), pairings=perms, seed=seed,
        )
        if res is not None:
            verdict = oracle.witness_verdict(
                oracle.verify_witness_mixed, rho1, rho2, res.factors,
                "decomposable connector over eigenbases", res.per_cut,
            )
            connector = res.connector
    if verdict is not None:
        return replace(verdict, kernel_ratio=_kernel_ratio(connector, s1, s2, dims))

    reason = "; ".join(diag_notes) if diag_notes else "no decomposable connector found"
    return Verdict("Inconclusive", None, reason, ())
