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
equivalent under invertible local maps have unitarily related filtered forms
with equal spectra (a mismatch ends the verdict), so the search there is over
local unitaries and often collapses to the identity; it is skipped when a
degenerate cluster leaves the filtered eigenbasis free. A witness found in
the filtered frame is composed with the filters and verified against the
original inputs. One search then runs over the raw eigenbases,
X diag(d) Y^dag with support magnitudes pinned by the eigenvalue ratios:
from the pairing and cluster frames a certified connector reveals, to
report its diagonal presentation and kernel ratio, or, when filtering
certified nothing, from the sorted eigenbases under every within-cluster
pairing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import oracle
from .factor import FactorSet, NotDecomposable, cut_reports, extract_factors
from .linalg import (
    RANK1_ACCEPT,
    SystemShape,
    as_dims,
    bipartition_view,
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
    kernel_ratio: Optional[float]
    diagonal: np.ndarray
    pairing: tuple[int, ...]


def _phase_fix_columns(v: np.ndarray) -> np.ndarray:
    """Deterministic eigenvector gauge: largest-magnitude entry of each
    column made real positive."""
    v = np.array(v, dtype=complex)
    for j in range(v.shape[1]):
        col = v[:, j]
        i = int(np.argmax(np.abs(col)))
        piv = col[i]
        if abs(piv) > 0.0:
            v[:, j] = col * (abs(piv) / piv)
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
    out = np.empty_like(y)
    for lo, hi, shp in groups:
        r = y[:, lo:hi].reshape((y.shape[0],) + shp)
        out[:, lo:hi] = _rank1_project(r).reshape(y.shape[0], -1)
    return out


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
    falls below 1e-13 of the target, after more than STALL_LIMIT iterations
    without a 30% gain, or when the solve returns zero; stopped rows keep
    their last iterate and leave the batch.
    """
    d = d.copy()
    prev = np.full(d.shape[0], np.inf)
    stall = np.zeros(d.shape[0], dtype=int)
    live = np.arange(d.shape[0])
    done = 0
    for _ in range(ALS_ITERS):
        if live.size == 0:
            break
        y = d[live] @ pencil
        target = _rank1_stack(y, groups)
        gap = np.linalg.norm(y - target, axis=1)
        stop = gap < 1e-13 * np.maximum(np.linalg.norm(target, axis=1), 1e-300)
        stall[live] = np.where(gap > 0.7 * prev[live], stall[live] + 1, 0)
        prev[live] = np.minimum(prev[live], gap)
        dn = target @ pinv_t
        stop |= (stall[live] > STALL_LIMIT) | (np.linalg.norm(dn, axis=1) < 1e-300)
        live, dn = live[~stop], dn[~stop]
        mag = np.abs(dn)
        ph = np.divide(dn, mag, out=np.ones_like(dn), where=mag > 1e-300)
        d[live] = np.where(supm, pin * ph, dn)
        first_live = live[0] if live.size else d.shape[0]
        while done < first_live:
            yield d[done]
            done += 1
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
    pinned values, from N_STARTS starts at once: the support phases of every
    start but the first are drawn in one call from a generator seeded with
    `seed`, all starts iterate as one (N_STARTS, n) batch against a
    pseudo-inverse computed once per pairing, and each start stops on its
    own. Starts are scored in start order, each as soon as it and every
    earlier start have stopped, and the first accepted one is returned
    without waiting for the later starts.

    `pairings` lists column permutations of y to try (within-degeneracy
    reorderings), the identity when omitted. For each pairing pi the first
    `support_rank` entries are pinned to magnitude sqrt(lambda_i / mu_pi(i))
    from `eigvals` = (lambda, mu), and pairings that map support indices
    outside the support are skipped. Returns the candidate the first
    accepting stage picks, with its extracted factors, else None.
    """
    dims = as_dims(shape)
    n = int(np.prod(dims))
    r = support_rank
    lam, mu = eigvals
    if pairings is None:
        pairings = [tuple(range(n))]
    kernel_ratio_seen: Optional[float] = None
    real_frames = (
        float(np.max(np.abs(x.imag))) < 1e-12
        and float(np.max(np.abs(y.imag))) < 1e-12
    )

    for pi in pairings:
        pi = tuple(pi)
        if sorted(pi) != list(range(n)):
            raise ValueError("pairing is not a permutation")
        if any((i < r) != (pi[i] < r) for i in range(n)):
            continue
        pinned = np.full(n, np.nan, dtype=complex)
        for i in range(r):
            pinned[i] = np.sqrt(lam[i] / mu[pi[i]])
        yp = y[:, pi]
        supm = ~np.isnan(pinned.real)
        sup_idx = np.nonzero(supm)[0]
        ker_idx = np.nonzero(~supm)[0]
        pin = np.where(supm, pinned, 0.0)

        def evaluate(d, kr) -> Optional[GaugeResult]:
            a = (x * d) @ yp.conj().T
            per = tuple(rep.rank1_residual for rep in cut_reports(a, dims))
            # most candidates fail here, before extraction's own SVDs
            if max(per) > RANK1_ACCEPT:
                return None
            try:
                fs = extract_factors(a, dims)
            except NotDecomposable:
                return None
            return GaugeResult(a, fs, per, kr, d.copy(), pi)

        # stage (a): deterministic ratio completion
        if sup_idx.size:
            d0, ratio = _ratio_complete(pinned, dims, ker_idx)
            if d0 is not None:
                if ratio is not None:
                    kernel_ratio_seen = _real_ratio(ratio)
                cand = evaluate(d0, kernel_ratio_seen)
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
                cand = evaluate(d, kernel_ratio_seen)
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
        for d in _als(starts, pencil, groups, pinv_t, supm, pin):
            cand = evaluate(d, kernel_ratio_seen)
            if cand is not None:
                return cand
    return None


def _real_ratio(value) -> Optional[float]:
    v = complex(value)
    if abs(v.imag) <= 1e-9 * max(1.0, abs(v.real)):
        return float(v.real)
    return None


def normal_form(rho: np.ndarray, shape):
    """Iterative local filtering toward the form whose every single-party
    reduced matrix is maximally mixed.

    Cyclically applies f = (d * reduced)^(-1/2) on each party. Returns the
    filtered state and the per-party filters, or None when a reduced matrix
    turns singular or FILTER_SWEEPS sweeps cannot reach FILTER_SOFT_TOL
    (FILTER_TOL is accepted immediately; a plateau above FILTER_TOL but
    below FILTER_SOFT_TOL is accepted after 200 sweeps without improvement,
    which is the double precision floor for ill-conditioned inputs).
    """
    dims = as_dims(shape)
    k = len(dims)
    r = np.asarray(rho, dtype=complex)
    r = r / np.trace(r).real
    filters = [np.eye(d, dtype=complex) for d in dims]
    best = np.inf
    since_gain = 0
    for _ in range(FILTER_SWEEPS):
        dev = 0.0
        for party in range(k):
            red = partial_trace_keep(r, dims, party + 1)
            dev = max(dev, float(np.linalg.norm(dims[party] * red - np.eye(dims[party]))))
            w, v = np.linalg.eigh(red)
            if float(w.min()) < 1e-14:
                return None
            f = v @ np.diag((dims[party] * w) ** -0.5) @ v.conj().T
            # conjugate by the filter on this party's row and column axes
            t = r.reshape(dims + dims)
            t = np.moveaxis(np.tensordot(f, t, axes=(1, party)), 0, party)
            t = np.moveaxis(np.tensordot(t, f.conj(), axes=(k + party, 1)), -1, k + party)
            r = t.reshape(r.shape)
            r = r / np.trace(r).real
            filters[party] = f @ filters[party]
        if dev < FILTER_TOL:
            return r, filters
        if dev < 0.9 * best:
            best = dev
            since_gain = 0
        else:
            since_gain += 1
            if since_gain > 200 and dev < FILTER_SOFT_TOL:
                return r, filters
    return None


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


def _compose_pairing(base: tuple[int, ...], extra: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(base[extra[i]] for i in range(len(base)))


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


def _resolve_frames(t: np.ndarray, x: np.ndarray, y: np.ndarray,
                    clusters, pairing: tuple[int, ...]) -> np.ndarray:
    """Rotate x inside each degeneracy cluster onto the connector image of
    the paired y columns, fixing the eigenbasis freedom that blocks a
    diagonal presentation."""
    xr = x.astype(complex).copy()
    for cluster in clusters:
        if len(cluster) > 1:
            cols = [pairing[i] for i in cluster]
            q, _ = np.linalg.qr(t @ y[:, cols])
            xr[:, list(cluster)] = q
    return _phase_fix_columns(xr)


def check_mixed_equivalence(rho1, rho2, seed: int = 0) -> Verdict:
    """Decide equivalence of two density matrices, or refuse honestly.

    Inequivalent only on decisive rank-invariant mismatches. Equivalent only
    with an independently verified witness. After the rank screen both states
    are filtered to their normal forms; filtered spectra that differ end the
    verdict Inconclusive, and one without degenerate clusters is searched
    for a local-unitary connector. Then one gauge search runs over the raw
    eigenbases. When the filtered frames certified a connector, that search
    starts from the pairing and cluster frames the connector reveals and
    only replaces the verdict with the diagonal presentation it finds; it is
    skipped when the connector reveals no pairing. Otherwise it tries the
    sorted eigenbases under every within-cluster pairing. Everything else is
    Inconclusive.
    """
    if isinstance(rho1, MixedState):
        if not isinstance(rho2, MixedState) or rho1.shape != rho2.shape:
            raise ValueError("states have different shapes")
        shape = rho1.shape
        r1, r2 = rho1.rho, rho2.rho
    else:
        raise ValueError("check_mixed_equivalence expects MixedState inputs")
    dims = shape.dims

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
        u_factors = None
        if float(np.linalg.norm(f1t - f2t)) <= 1e-8 * float(np.linalg.norm(f1t)):
            u_factors = [np.eye(d, dtype=complex) for d in dims]
        else:
            t1 = spectral_prep(f1t)
            t2 = spectral_prep(f2t)
            if not (
                t1.support_rank == t2.support_rank
                and float(np.max(np.abs(t1.eigvals - t2.eigvals))) <= 1e-8
            ):
                diag_notes.append("filtered spectra mismatch")
                return Verdict("Inconclusive", None, "; ".join(diag_notes), ())
            # only the identity pairing is tried here: a degenerate cluster
            # leaves its eigenbasis free, and the raw search pairs such clusters
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
        if u_factors is not None:
            composed = [
                np.linalg.solve(filt1[k], u_factors[k] @ filt2[k])
                for k in range(len(dims))
            ]
            connector = kron_list(composed)
            per = tuple(rep.rank1_residual for rep in cut_reports(connector, dims))
            try:
                verdict = oracle.witness_verdict(
                    oracle.verify_witness_mixed, rho1, rho2,
                    extract_factors(connector, dims),
                    "connector composed through filtered frames", per,
                )
            except NotDecomposable:
                pass
    else:
        diag_notes.append("filtering did not converge (rank-deficient state)")

    # one raw-eigenbasis search: in the frames and pairing a certified
    # connector reveals, else over the sorted eigenbases
    x = s1.eigvecs
    if verdict is not None and perms is not None:
        base = _connector_pairing(connector, x, s2.eigvecs)
        if base is None:
            return verdict
        x = _resolve_frames(connector, x, s2.eigvecs, s1.clusters, base)
        perms = [_compose_pairing(base, p) for p in perms]
    if perms is not None:
        res = gauge_search(
            x, s2.eigvecs, s1.support_rank, dims,
            eigvals=(s1.eigvals, s2.eigvals), pairings=perms, seed=seed,
        )
        if res is not None:
            raw = oracle.witness_verdict(
                oracle.verify_witness_mixed, rho1, rho2, res.factors,
                "decomposable connector over eigenbases", res.per_cut, res.kernel_ratio,
            )
            if raw is not None:
                return raw
    if verdict is not None:
        return verdict

    reason = "; ".join(diag_notes) if diag_notes else "no decomposable connector found"
    return Verdict("Inconclusive", None, reason, ())
