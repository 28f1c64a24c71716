"""Equivalence testing for density matrices under invertible local operations.

Two density matrices are equivalent when some Kronecker product of invertible
per-party factors conjugates one into the other (up to trace normalization).
The pipeline: rank screens that can prove inequivalence, filtering to a
normal form, a local unitary between the normal forms in closed form, and an
independent witness verification before any Equivalent verdict. No stage
draws a random number.

Filtering brings both states to the local form whose single-party reduced
matrices are all maximally mixed (Verstraete, Dehaene and De Moor, PRA 68,
012103), over-relaxed over two parties and in closed form for qubits. The
filters act on a square-root factor G of the state, rho = G G^dag, so each
step takes one product for the reduced matrix and one for the filter. A
normal form counts only once the accumulated filters, applied to the input
rather than to G, reproduce it (normal_form). States equivalent under
invertible local maps have filtered forms related by a local unitary
U = (x)U_k, with equal spectra (a mismatch ends the verdict). One-copy covariants, reduced matrices
of powers of the filtered state, are conjugated by U party by party (the
mixed analogue of Kraus's local-unitary standard form, PRL 104, 020504).
Their eigenbases fix U up to one diagonal phase per party, and those phases
are solved on the torus from the normal forms' entries in the eigenbases.
Where symmetry leaves every covariant a multiple of I, the phases of the
eigenvectors of a non-degenerate filtered spectrum are solved instead.
Two-qubit normal forms use their correlation tensors (Verstraete, Dehaene
and De Moor, PRA 64, 010101(R)). States with a singular reduced matrix have
no normal form and are first compressed to the supports of their reduced
matrices. The unitary, composed with the filters, is the verdict once the
oracle passes it. A kernel ratio is read in one case only: a qubit first
party whose two states each have a one-dimensional kernel, which the
connector's pairing of the raw eigenbases fixes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import oracle
from .factor import NotDecomposable, canonicalize, decomposability, extract_factors
from .linalg import (
    SystemShape,
    _decisive,
    as_dims,
    decisive_rank,
    eigh_desc,
    kron_list,
    lift_supports,
    local_supports,
    numerical_rank,
    partial_trace_keep,
    rank_mismatch,
)
from .oracle import Verdict

# Local filtering: sweep cap, the deviation accepted at once, and the
# plateau deviation accepted after 200 sweeps without a 10% gain.
FILTER_SWEEPS = 20000
FILTER_TOL = 1e-12
FILTER_SOFT_TOL = 1e-9
# The least eigenvalue of a normalized reduced matrix red / tr red that
# filtering inverts; below it the state has no normal form.
FILTER_FLOOR = 1e-14
# Filtered-frame solve: the least relative eigengap that fixes a basis, and
# the least relative entry that enters a phase solve; and the relative
# distance within which two spectra or magnitude tables agree.
COVARIANT_GAP = 1e-6
COVARIANT_MATCH = 1e-8
# The Pauli matrices x, y and z.
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@dataclass(frozen=True)
class MixedState:
    """A density matrix tagged with its party structure.

    Entries must be finite, Hermitian as eigh_desc requires, with no
    eigenvalue below -1e-10 and trace 1 within 1e-10.
    """

    shape: SystemShape
    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        side = self.shape.side
        if rho.shape != (side, side):
            raise ValueError(f"expected shape {(side, side)}, got {rho.shape}")
        if not np.all(np.isfinite(rho)):
            raise ValueError("density matrix entries must be finite")
        low = float(eigh_desc(rho)[1][-1])
        if low < -1e-10:
            raise ValueError(f"density matrix has negative eigenvalue {low:.3e}")
        if abs(float(np.trace(rho).real) - 1.0) > 1e-10 or abs(float(np.trace(rho).imag)) > 1e-10:
            raise ValueError("density matrix trace is not 1 within 1e-10")
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition with support bookkeeping. The eigenvectors are
    eigh_desc's, in LAPACK's column phases; _eigenbasis_unitaries, the one
    reader that depends on those phases, fixes them itself."""

    eigvecs: np.ndarray
    eigvals: np.ndarray
    support_rank: int


def spectral_prep(rho: np.ndarray) -> SpectralData:
    """Eigendecomposition sorted nonincreasing, eigenvalues clipped at zero,
    with support rank by numerical_rank over the side. The eigenvectors are
    eigh_desc's, unchanged: no column gauge is applied."""
    q, w = eigh_desc(rho)
    w = np.clip(w, 0.0, None)
    return SpectralData(q, w, numerical_rank(w, w.size))


def _negativity_cost(factors: Sequence[np.ndarray]) -> float:
    """Distance of canonical factors (canonicalize) from entrywise
    nonnegativity; used to pick the canonical representative among certified
    candidates."""
    return sum(float(np.sum(np.abs(f - np.abs(f)) ** 2)) for f in factors)


def _qubit_power(red: np.ndarray, p: float) -> tuple[Optional[np.ndarray], float, float]:
    """(m^p, low, high) for m = 2 red / tr red, red a 2 x 2 Hermitian matrix
    of positive trace, and low <= high the eigenvalues of m, in closed form;
    m^p is None unless low > 0.

    m = I + N with N traceless, and s = ||N||_2 gives low, high = 1 -+ s and
    m^p = alpha I + beta N: alpha is the mean of low^p and high^p and beta
    their divided difference. Both are formed from low^p and expm1(p
    log1p(2 s / low)), so a nearly degenerate pair divides nothing by its
    gap, and at s = 0 beta is the derivative p low^(p - 1). The power is
    Hermitian to the bit.
    """
    (r00, r01), (_, r11) = red.tolist()
    t = (r00.real + r11.real) / 2.0
    a = (r00.real - r11.real) / (2.0 * t)
    b = r01 / t
    s = math.hypot(a, b.real, b.imag)
    low = 1.0 - s
    if low <= 0.0:
        return None, low, 1.0 + s
    lp = low ** p
    if s == 0.0:
        alpha, beta = lp, p * lp / low
    else:
        x = 2.0 * s / low
        e = math.expm1(p * math.log1p(x))
        alpha, beta = lp * (1.0 + e / 2.0), lp * e / (low * x)
    c = beta * b
    return np.array([[alpha + beta * a, c], [c.conjugate(), alpha - beta * a]]), low, 1.0 + s


def _relaxation(omega: float, rate: float) -> float:
    """The over-relaxation factor for sweeps that contract the deviation by
    `rate` at factor omega, or omega when rate implies none.

    Over two blocks, the rate lambda at omega and the rate mu^2 at omega = 1
    obey (lambda + omega - 1)^2 = lambda omega^2 mu^2 (Young), and
    2 / (1 + sqrt(1 - mu^2)) is the factor of least rate."""
    mu2 = (rate + omega - 1.0) ** 2 / (rate * omega * omega)
    return 2.0 / (1.0 + math.sqrt(1.0 - mu2)) if mu2 < 1.0 else omega


class NoNormalForm(ValueError):
    """Raised by normal_form for a state it brings to no certified normal
    form. Its one argument is the cause: singular_marginal, stalled,
    sweep_cap or uncertified."""


def normal_form(rho: np.ndarray, shape):
    """Iterative local filtering toward the form whose every single-party
    reduced matrix is maximally mixed.

    The filtering acts on a factor G with rho = G G^dag, not on rho: G is
    rho's Cholesky factor, or, where Cholesky refuses a singular rho, the
    eigenvectors of its positive eigenvalues scaled by their square roots.
    Cyclically applies f = m^(-omega/2) on each party, with m = d red / tr
    red, and G -> (f (x) I) G. G is kept with the party being filtered on
    its leading axis: with x = G reshaped to (d, rest), red = x x^dag, and
    x^T f^T is the filtered G with that party moved behind the rest, so the
    next party leads. Each step is one product for the reduced matrix and
    one for the filter; after a sweep the column axis leads, and one
    transpose brings it back behind the rows. f comes from the closed form
    _qubit_power when d = 2 and from the eigendecomposition of m otherwise.
    The deviation of a reduced matrix from I/d is read off the eigenvalues w
    of m as ||w - 1||, and G is renormalized to tr G G^dag = 1 once per
    sweep.

    The over-relaxation factor omega comes from the iteration alone and
    starts at 1, plain filtering. With two parties, once two successive
    ratios of sweep deviations agree within 5% of the ratio's distance from
    1, omega is set from the latest by _relaxation, which re-estimates it
    from the accelerated ratios in turn. A sweep that more than doubles the
    deviation halves omega's distance from 1. With three or more parties
    Young's relation does not hold, and over-relaxed sweeps can stall states
    near a pure one short of their normal form, so omega stays 1.

    Returns the filtered state and the per-party filters. FILTER_TOL is
    accepted at once, and a plateau between FILTER_TOL and FILTER_SOFT_TOL
    after 200 sweeps without a 10% gain, which is the double precision floor
    for ill-conditioned inputs. Otherwise raises NoNormalForm with its
    cause: singular_marginal when a reduced matrix turns singular, stalled
    when those 200 sweeps end above FILTER_SOFT_TOL (a state without a
    normal form, such as the W class, stalls so while its filters grow
    without bound), and sweep_cap after FILTER_SWEEPS sweeps.

    An accepted iterate r = G G^dag, formed once, is certified before it is
    returned: g = F rho F^dag / tr, with F = (x)filters, is recomputed from
    the input, and the Hermitian part of g is returned only when
    ||g - r|| / ||r|| and the deviation of g's reduced matrices
    (partial_trace_keep) from I/d are both within FILTER_SOFT_TOL; else the
    cause is uncertified. The certificate reads rho, not G: rounding through
    ill-conditioned filters can carry the iterate off the state the filters
    reach, as for images of W, which have no normal form, and the factor
    itself is exact only up to rounding (or to the eigenvalues dropped as
    not positive).
    """
    dims = as_dims(shape)
    rho = np.asarray(rho, dtype=complex)
    rho = rho / np.trace(rho).real
    n = math.prod(dims)
    try:
        factor = np.linalg.cholesky(rho)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(rho)
        live = w > 0.0
        factor = v[:, live] * np.sqrt(w[live])
    filters = [np.eye(d, dtype=complex) for d in dims]
    best = np.inf
    since_gain = 0
    omega, last, ratio = 1.0, np.inf, None
    for _ in range(FILTER_SWEEPS):
        dev = 0.0
        power = -omega / 2.0
        for party, d in enumerate(dims):
            x = factor.reshape(d, -1)
            red = x @ x.conj().T
            if d == 2:
                f, low, high = _qubit_power(red, power)
                if low < d * FILTER_FLOOR:  # low is the least eigenvalue of m
                    raise NoNormalForm("singular_marginal")
                dev = max(dev, math.hypot(low - 1.0, high - 1.0))
            else:
                w, v = np.linalg.eigh(red * (d / red.trace().real))
                if w[0] < d * FILTER_FLOOR:  # eigh sorts ascending
                    raise NoNormalForm("singular_marginal")
                e = w - 1.0
                dev = max(dev, math.sqrt(e @ e))
                f = (v * w ** power) @ v.conj().T
            # (f (x) I) G with the party moved behind the rest
            factor = x.T @ f.T
            filters[party] = f @ filters[party]
        # the column axis leads after a full sweep: put it back behind rows
        factor = factor.reshape(-1, n).T
        factor = factor / math.sqrt(np.vdot(factor, factor).real)
        if dev < FILTER_TOL:
            break
        if dev < 0.9 * best:
            best = dev
            since_gain = 0
        else:
            since_gain += 1
            if since_gain > 200:
                if dev < FILTER_SOFT_TOL:
                    break
                raise NoNormalForm("stalled")
        rate = dev / last
        if rate > 2.0:
            omega, rate = 1.0 + (omega - 1.0) / 2.0, None
        elif (len(dims) == 2 and rate < 1.0 and ratio is not None
              and abs(rate - ratio) <= 0.05 * (1.0 - rate)):
            omega = _relaxation(omega, rate)
        last, ratio = dev, rate
    else:
        raise NoNormalForm("sweep_cap")
    r = factor @ factor.conj().T
    big = kron_list(filters)
    g = big @ rho @ big.conj().T
    g = g / np.trace(g).real
    if float(np.linalg.norm(g - r)) > FILTER_SOFT_TOL * float(np.linalg.norm(r)):
        raise NoNormalForm("uncertified")
    g = (g + g.conj().T) / 2.0
    for party, d in enumerate(dims, start=1):
        red = partial_trace_keep(g, dims, party)
        if float(np.linalg.norm(d * red - np.eye(d))) > FILTER_SOFT_TOL:
            raise NoNormalForm("uncertified")
    return g, filters


def _powers(f: np.ndarray) -> np.ndarray:
    """The (3, n, n) stack of f, f^2 and f^3, taken once per state for
    _party_covariants."""
    sq = f @ f
    return np.stack([f, sq, sq @ f])


def _party_covariants(powers: np.ndarray, dims: Sequence[int], party: int) -> np.ndarray:
    """The (4, d, d) stack Tr_rest of f^2, f^3, f E and f E^2 for `party`
    (0-based), from `powers`, the stack of f, f^2 and f^3 (_powers), where
    E = I_party (x) Tr_party(f^2) and rest is every other party. Each is
    Hermitian, since a partial trace is cyclic in operators on the parties
    it traces out.

    The traces contract (before, d, after) views of the powers. f E and
    f E^2 are never formed: Tr_rest(f E^j) pairs f's rest indices with
    those of (Tr_party f^2)^j."""
    before, d, after = math.prod(dims[:party]), dims[party], math.prod(dims[party + 1:])
    v = powers.reshape(3, before, d, after, before, d, after)
    g = np.einsum("aicbie->acbe", v[1]).reshape(before * after, before * after)
    e = np.stack([g, g @ g]).reshape(2, before, after, before, after)
    return np.concatenate([np.einsum("xaicajc->xij", v[1:]),
                           np.einsum("aicbje,xbeac->xij", v[0], e)])


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g = gcd(a, b) > 0."""
    if b == 0:
        return abs(a), (1 if a > 0 else -1), 0
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def _torus_phases(rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Angles theta with rows @ theta = rhs (mod 2 pi), for integer rows.

    Rows enter in order into an echelon form kept by unimodular row
    operations, which keep the solution set: a row meeting a pivot row at
    its leading column is replaced, with it, by their extended-Euclid
    combinations, and the remainder is reduced again at its own leading
    column. Rows stop entering once every variable has a pivot of +-1; back
    substitution takes the principal branch of any other pivot and 0 for
    free variables. The oracle checks the rows left out.
    """
    nvars = rows.shape[1]
    pivots: dict[int, tuple[list[int], float]] = {}
    for row, b in zip(rows.tolist(), rhs.tolist()):
        while any(row):
            lead = next(c for c, x in enumerate(row) if x)
            if lead not in pivots:
                pivots[lead] = (row, b)
                break
            prow, pb = pivots[lead]
            g, x, y = _egcd(prow[lead], row[lead])
            p, q = prow[lead] // g, row[lead] // g
            pivots[lead] = ([x * u + y * v for u, v in zip(prow, row)], x * pb + y * b)
            row, b = [q * u - p * v for u, v in zip(prow, row)], q * pb - p * b
        if len(pivots) == nvars and all(abs(r[c]) == 1 for c, (r, _) in pivots.items()):
            break
    theta = np.zeros(nvars)
    for c in sorted(pivots, reverse=True):
        r, b = pivots[c]
        theta[c] = (b - np.dot(r[c + 1:], theta[c + 1:])) / r[c]
    return theta


def _sign_solutions(rows: np.ndarray, odd: np.ndarray) -> Optional[list[np.ndarray]]:
    """Every s in {0, 1}^n with rows @ s = odd over GF(2), all-zero free
    variables first, or None when there is none."""
    nvars = rows.shape[1]
    a = np.concatenate([rows % 2 == 1, odd[:, None]], axis=1)
    pivots: list[int] = []
    for c in range(nvars):
        hit = np.flatnonzero(a[len(pivots):, c])
        if hit.size == 0:
            continue
        r = len(pivots)
        a[[r, r + hit[0]]] = a[[r + hit[0], r]]
        others = a[:, c].copy()
        others[r] = False
        a[others] ^= a[r]
        pivots.append(c)
    if a[len(pivots):, -1].any():
        return None
    free = [c for c in range(nvars) if c not in pivots]
    out = []
    for values in itertools.product((False, True), repeat=len(free)):
        s = np.zeros(nvars, dtype=bool)
        s[free] = values
        for r, c in enumerate(pivots):
            s[c] = a[r, -1] ^ bool(np.count_nonzero(a[r, free] & s[free]) % 2)
        out.append(s)
    return out


def _phase_vectors(rows: np.ndarray, ratio: np.ndarray, frames, top: float) -> list[np.ndarray]:
    """Unit phases x with prod_c x_c^rows[r, c] = ratio[r] / |ratio[r]|: when
    the frames are real (imaginary parts within COVARIANT_MATCH of top),
    every +-1 solution (_sign_solutions), else, or when there is none, the
    solution of _torus_phases."""
    real = max(float(np.max(np.abs(x.imag))) for x in frames) <= COVARIANT_MATCH * top
    signs = _sign_solutions(rows, ratio.real < 0) if real else None
    if signs is None:
        return [np.exp(1j * _torus_phases(rows, np.angle(ratio)))]
    return [np.where(s, -1.0, 1.0) for s in signs]


def _covariant_unitaries(f1: np.ndarray, f2: np.ndarray,
                         dims: Sequence[int]) -> Optional[list[list[np.ndarray]]]:
    """Candidates for the local unitaries U_k with (x)U_k f2 (x)U_k^dag = f1
    for two filtered states, or None when the covariants fix no U.

    U conjugates every covariant of party k by U_k, so the covariant with
    the widest relative eigengap (at least COVARIANT_GAP, spectra matching
    within COVARIANT_MATCH) gives eigenbases A_k, B_k with
    U_k = A_k diag(e^{i theta_k}) B_k^dag. In A = (x)A_k and B = (x)B_k,
    g1 = A^dag f1 A and g2 = B^dag f2 B must agree in magnitude, and each
    off-diagonal entry above COVARIANT_GAP of the largest gives
    sum_k theta_k(i_k) - theta_k(j_k) = arg(g1_ij / g2_ij), theta_k(0) = 0,
    solved by _phase_vectors in decreasing |g1_ij|. Every covariant of a
    two-qubit normal form is a multiple of I (its correlation tensor's
    sign-flip stabilizer fixes no vector), so it always gives None.
    """
    bases = []
    p1, p2 = _powers(f1), _powers(f2)
    for k in range(len(dims)):
        c1, c2 = _party_covariants(p1, dims, k), _party_covariants(p2, dims, k)
        w1, a = np.linalg.eigh(c1)
        w2, b = np.linalg.eigh(c2)
        scale = np.maximum(np.max(np.abs(w1), axis=1), 1e-300)
        gap = np.min(np.diff(w1, axis=1), axis=1) / scale
        x = int(np.argmax(gap))
        if gap[x] < COVARIANT_GAP or np.max(np.abs(w1[x] - w2[x])) > COVARIANT_MATCH * scale[x]:
            return None
        bases.append((a[x], b[x]))
    a = kron_list([p for p, _ in bases])
    b = kron_list([q for _, q in bases])
    g1 = a.conj().T @ f1 @ a
    g2 = b.conj().T @ f2 @ b
    m1 = np.abs(g1)
    top = float(m1.max())
    if float(np.max(np.abs(m1 - np.abs(g2)))) > COVARIANT_MATCH * top:
        return None
    i, j = np.triu_indices(len(g1), 1)
    keep = m1[i, j] > COVARIANT_GAP * top
    order = np.argsort(-m1[i, j][keep], kind="stable")
    i, j = i[keep][order], j[keep][order]
    # the variables are theta_k(1..d_k - 1), party by party; row (i, j)
    # holds +1 at i's digits and -1 at j's, which cancel where they agree
    digits = np.array(np.unravel_index(np.arange(len(g1)), dims)).T
    onehot = np.concatenate(
        [digits[:, [k]] == np.arange(1, d) for k, d in enumerate(dims)], axis=1).astype(int)
    bounds = np.cumsum([0] + [d - 1 for d in dims])
    return [
        [(p * np.concatenate([[1.0], ph[lo:hi]])) @ q.conj().T
         for (p, q), lo, hi in zip(bases, bounds[:-1], bounds[1:])]
        for ph in _phase_vectors(onehot[i] - onehot[j], g1[i, j] * g2[i, j].conj(),
                                 (g1, g2), top)
    ]


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


def _eigenbasis_unitaries(s1: SpectralData, s2: SpectralData,
                          dims: Sequence[int]) -> Optional[list[list[np.ndarray]]]:
    """Candidates for the local unitaries between two filtered states with
    no relative spectral gap under COVARIANT_GAP, or None. This serves
    normal forms whose symmetry leaves every covariant a multiple of I, such
    as the GHZ-diagonal ones.

    U maps each eigenvector b_i onto e^{i phi_i} a_i, so U = A diag(e^{i phi})
    B^dag, and U is local when it keeps each party's operators local. For
    party k, Q_ij = Tr_rest |a_j><a_i| obeys Q2_ij = e^{-i (phi_i - phi_j)}
    U_k^dag Q1_ij U_k, so the Gram matrices P_k[(ij), (i'j')] =
    Tr Q_i'j'^dag Q_ij must agree in magnitude, and each entry above
    COVARIANT_GAP of the largest gives
    phi_i - phi_j - phi_i' + phi_j' = arg(P1 / P2), phi_0 = 0, solved by
    _phase_vectors. Candidates are kept when extract_factors splits U.

    Both eigenbases are first brought to one column gauge
    (_phase_fix_columns), so that the witness does not depend on the column
    phases LAPACK returns; spectral_prep leaves them as they come.
    """
    lam = s1.eigvals
    n = lam.size
    if np.min(lam[:-1] - lam[1:]) < COVARIANT_GAP * lam[0]:
        return None
    a, b = _phase_fix_columns(s1.eigvecs), _phase_fix_columns(s2.eigvecs)

    def gram(v, k, d):
        vs = v.T.reshape(n, math.prod(dims[:k]), d, -1).transpose(0, 2, 1, 3).reshape(n, d, -1)
        q = np.einsum("jyr,ixr->ijyx", vs, vs.conj()).reshape(n * n, d * d)
        return q @ q.conj().T

    p1, p2 = (np.stack([gram(v, k, d) for k, d in enumerate(dims)]) for v in (a, b))
    m1 = np.abs(p1)
    top = float(m1.max())
    if float(np.max(np.abs(m1 - np.abs(p2)))) > COVARIANT_MATCH * top:
        return None
    k, pq, pq2 = np.nonzero(np.triu(m1 > COVARIANT_GAP * top, 1))
    (i, j), (i2, j2) = np.divmod(pq, n), np.divmod(pq2, n)
    # an equation depends on its index pairs {i, j'} and {j, i'} alone: keep
    # each once, at its largest entry, in decreasing magnitude
    plus, minus = np.sort([i, j2], axis=0), np.sort([j, i2], axis=0)
    key = ((plus[0] * n + plus[1]) * n + minus[0]) * n + minus[1]
    order = np.argsort(-m1[k, pq, pq2], kind="stable")
    pick = order[np.sort(np.unique(key[order], return_index=True)[1])]
    k, pq, pq2, i, j, i2, j2 = (x[pick] for x in (k, pq, pq2, i, j, i2, j2))
    eye = np.eye(n, dtype=int)
    rows = (eye[i] + eye[j2] - eye[j] - eye[i2])[:, 1:]
    live = np.any(rows, axis=1)
    ratio = (p1[k, pq, pq2] * p2[k, pq, pq2].conj())[live]
    out = []
    for ph in _phase_vectors(rows[live], ratio, (p1, p2), top):
        try:
            fs = extract_factors((a * np.concatenate([[1.0], ph])) @ b.conj().T, dims)
        except NotDecomposable:
            continue
        out.append([complex(fs.scale) * fs.factors[0], *fs.factors[1:]])
    return out or None


def _su2_lift(o: np.ndarray) -> np.ndarray:
    """A unitary U, up to scale, with U^dag sigma_i U = sum_k o_ik sigma_k:
    the null vector of sigma_i U - U (sum_k o_ik sigma_k) = 0."""
    eye = np.eye(2)
    m = np.concatenate([
        np.kron(_PAULI[i], eye) - np.kron(eye, np.tensordot(o[i], _PAULI, 1).T)
        for i in range(3)
    ])
    return np.linalg.svd(m)[2][-1].conj().reshape(2, 2)


def _two_qubit_unitaries(f1: np.ndarray, f2: np.ndarray) -> Optional[list[np.ndarray]]:
    """Local unitaries [U_A, U_B] with U f2 U^dag = f1 for two two-qubit
    normal forms, read off their correlation tensors, or None.

    U maps T_ij = Tr f (sigma_i (x) sigma_j) to O_A T O_B^T (Verstraete,
    Dehaene and De Moor, PRA 64, 010101(R)). SVDs T1 = P1 S Q1^T and
    T2 = P2 S Q2^T (singular values matching within COVARIANT_MATCH) give
    O_A = P1 D_A P2^T and O_B = Q1 D_B Q2^T, with D = diag(1, 1, +-1) chosen
    for determinant +1; D_A and D_B may differ only on a zero singular
    value. Each rotation lifts to SU(2) by _su2_lift.
    """
    # T_ij = sum f[(a c), (b d)] sigma_i[b, a] sigma_j[d, c]
    t1, t2 = (np.einsum("iba,jdc,acbd->ij", _PAULI, _PAULI, f.reshape(2, 2, 2, 2)).real
              for f in (f1, f2))
    p1, s1, q1 = np.linalg.svd(t1)
    p2, s2, q2 = np.linalg.svd(t2)
    if float(np.max(np.abs(s1 - s2))) > COVARIANT_MATCH * float(s1[0]):
        return None
    sign_a = np.sign(np.linalg.det(p1) * np.linalg.det(p2))
    sign_b = np.sign(np.linalg.det(q1) * np.linalg.det(q2))
    if sign_a != sign_b and s1[2] > COVARIANT_MATCH * s1[0]:
        return None
    o_a = (p1 * [1.0, 1.0, sign_a]) @ p2.T
    o_b = (q1.T * [1.0, 1.0, sign_b]) @ q2
    return [_su2_lift(o_a), _su2_lift(o_b)]


def _kernel_ratio(factors: Sequence[np.ndarray], rho1: np.ndarray, rho2: np.ndarray,
                  dims: Sequence[int]) -> Optional[float]:
    """The ratio that fills the one kernel entry of the diagonal which a
    certified connector t = (x)factors pins between the eigenbases of rho1
    and rho2, or None.

    Only a qubit first party over n >= 4 has one: both support ranks must be
    n - 1, and the pairing (eigenvector x_i of rho1 with the eigenvector
    y_j of rho2 of largest |x_i^dag t y_j|) a permutation pi that fixes the
    kernel index n - 1. The 2 x n/2 table of sqrt(lambda_i / mu_pi(i)), in
    eigenvalue order, then lacks its last entry; the ratio of its rows,
    read at row 0's largest known column, fills it when the known entries
    agree within 1e-6.
    """
    n = math.prod(dims)
    if dims[0] != 2 or n < 4:
        return None
    s1, s2 = spectral_prep(rho1), spectral_prep(rho2)
    if not s1.support_rank == s2.support_rank == n - 1:
        return None
    pi = np.argmax(np.abs(s1.eigvecs.conj().T @ kron_list(factors) @ s2.eigvecs), axis=1)
    if np.unique(pi).size != n or pi[-1] != n - 1:
        return None
    top, low = np.split(np.sqrt(s1.eigvals[:-1] / s2.eigvals[pi[:-1]]), [n // 2])
    ref = int(np.argmax(top[:-1]))
    ratio = float(low[ref] / top[ref])
    if np.max(np.abs(low - ratio * top[:-1])) > 1e-6 * max(1.0, float(np.max(low))):
        return None
    return ratio


def _first_verdict(rho1: MixedState, rho2: MixedState, candidates,
                   dims: Sequence[int]) -> Optional[Verdict]:
    """The verdict of the first candidate local factors mapping rho2 onto
    rho1 whose canonical factors pass the oracle, the one gate, in order of
    least _negativity_cost of those factors (equal costs in the solver's
    order). Its witness gets the positive scale 1/sqrt(tr(F rho2 F^dag)), F
    the Kronecker product of those factors, so that it maps rho2 onto rho1
    with no renormalization, and the verdict reports the rank-one residuals
    of F's cuts (decomposability)."""
    ranked = sorted(map(canonicalize, candidates),
                    key=lambda fs: round(_negativity_cost(fs.factors), 9))
    for fs in ranked:
        verdict = oracle.witness_verdict(
            oracle.verify_witness_mixed, rho1, rho2, fs,
            "connector composed through filtered frames",
        )
        if verdict is not None:
            f = kron_list(verdict.witness.factors)
            scale = 1.0 / math.sqrt(float(np.trace(f @ rho2.rho @ f.conj().T).real))
            return replace(
                verdict, witness=replace(verdict.witness, scale=complex(scale)),
                residuals=decomposability(f, dims).residuals)
    return None


def _compressed_factors(rho1: MixedState, rho2: MixedState, reds,
                        ranks) -> Optional[list[np.ndarray]]:
    """Local factors mapping rho2 onto rho1 through the supports of their
    reduced matrices `reds` (per state, per party) of decisive_rank `ranks`,
    or None. None when a party's rank is not decisive in both states, or
    when check_mixed_equivalence, deciding the pair compressed to those
    supports with rank-1 parties dropped, does not find it Equivalent. The
    caller has already found no decisive mismatch (rank_mismatch), so two
    decisive ranks are equal.
    """
    if not all(d for side in ranks for _, d in side):
        return None
    splits = local_supports(*reds, [k for k, _ in ranks[0]])
    kept = tuple(k for k, _ in ranks[0] if k > 1)
    if kept:
        states = []
        for side, rho in enumerate((rho1, rho2)):
            p = kron_list([split[2 * side] for split in splits])
            c = p.conj().T @ rho.rho @ p
            c = (c + c.conj().T) / 2.0
            states.append(MixedState(SystemShape(kept), c / np.trace(c).real))
        verdict = check_mixed_equivalence(*states)
        if verdict.outcome != "Equivalent":
            return None
    return lift_supports(splits, verdict.witness.factors if kept else [])


def check_mixed_equivalence(rho1, rho2) -> Verdict:
    """Decide equivalence of two density matrices, or refuse honestly.

    The first step is the rank screen: invertible local maps keep the
    global rank and every single-party reduced rank, each taken once by
    decisive_rank. A reduced mismatch (rank_mismatch) is Inequivalent at
    once; a global one only when either state has no normal form or their
    better-conditioned normal forms mismatch too. Equivalent only with an
    independently verified witness. Filtered spectra that differ end the
    verdict Inconclusive. Otherwise the local unitary between the normal
    forms is solved in closed form (_two_qubit_unitaries, else
    _covariant_unitaries, then _eigenbasis_unitaries) and composed with the
    filters. A pair with no normal form (NoNormalForm) whose reduced
    matrices are not all full rank is decided through their supports
    (_compressed_factors); else its Inconclusive reason follows the cause,
    "normal form not certified" for uncertified and "marginals stay short"
    for the others. The oracle alone accepts a candidate (_first_verdict).
    An Equivalent verdict reports a kernel ratio in the one case
    _kernel_ratio covers: a qubit first party, both support ranks n - 1
    (read first off the rank screen's singular values, so that no other
    state is eigendecomposed for it), and a pairing that fixes the kernel.
    Everything else is Inconclusive.
    """
    if not (isinstance(rho1, MixedState) and isinstance(rho2, MixedState)):
        raise ValueError("check_mixed_equivalence expects MixedState inputs")
    if rho1.shape != rho2.shape:
        raise ValueError("states have different shapes")
    r1, r2 = rho1.rho, rho2.rho
    dims = rho1.shape.dims
    reds = [[partial_trace_keep(r, dims, p) for p in range(1, len(dims) + 1)] for r in (r1, r2)]
    ranks = [[decisive_rank(red) for red in side] for side in reds]

    # the rank screen: invertible local maps keep the global rank and every
    # reduced rank, and a global mismatch must hold on the normal forms too.
    # The global singular values also give _kernel_ratio's precondition
    svals = [np.linalg.svd(r, compute_uv=False) for r in (r1, r2)]
    mismatch = rank_mismatch(*map(_decisive, svals))
    if mismatch is None:
        for party, pair in enumerate(zip(*ranks), start=1):
            reduced = rank_mismatch(*pair)
            if reduced is not None:
                return Verdict("Inequivalent", None, "party {} reduced rank mismatch ({} vs {})"
                               .format(party, *reduced), ())
    cause = None
    try:
        (f1t, filt1), (f2t, filt2) = normal_form(r1, dims), normal_form(r2, dims)
    except NoNormalForm as exc:
        cause = str(exc)
    if mismatch is not None and (cause is not None or rank_mismatch(
            decisive_rank(f1t), decisive_rank(f2t)) is not None):
        return Verdict("Inequivalent", None,
                       "global rank mismatch ({} vs {})".format(*mismatch), ())

    verdict = None
    if cause is not None:
        # a singular reduced matrix sends the pair to its supports; with
        # full-rank ones the reason follows the cause
        singular = any(k < d for side in ranks for (k, _), d in zip(side, dims))
        factors = _compressed_factors(rho1, rho2, reds, ranks) if singular else None
        if factors is not None:
            verdict = _first_verdict(rho1, rho2, [factors], dims)
        if verdict is None:
            if singular:
                reason = "filtering did not converge (rank-deficient state)"
            elif cause == "uncertified":
                reason = "normal form not certified"
            else:
                reason = "filtering did not converge (marginals stay short of maximally mixed)"
            return Verdict("Inconclusive", None, reason, ())
    else:
        def composed(candidates):
            return [[np.linalg.solve(filt1[k], u[k] @ filt2[k]) for k in range(len(dims))]
                    for u in candidates or []]

        if float(np.linalg.norm(f1t - f2t)) <= COVARIANT_MATCH * float(np.linalg.norm(f1t)):
            verdict = _first_verdict(
                rho1, rho2, composed([[np.eye(d, dtype=complex) for d in dims]]), dims)
        else:
            t1, t2 = spectral_prep(f1t), spectral_prep(f2t)
            if (t1.support_rank != t2.support_rank
                    or float(np.max(np.abs(t1.eigvals - t2.eigvals))) > COVARIANT_MATCH):
                return Verdict("Inconclusive", None, "filtered spectra mismatch", ())
            if dims == (2, 2):
                u = _two_qubit_unitaries(f1t, f2t)
                verdict = _first_verdict(rho1, rho2, composed(None if u is None else [u]), dims)
            else:
                verdict = _first_verdict(
                    rho1, rho2, composed(_covariant_unitaries(f1t, f2t, dims)), dims)
                if verdict is None:
                    verdict = _first_verdict(
                        rho1, rho2, composed(_eigenbasis_unitaries(t1, t2, dims)), dims)
    if verdict is None:
        return Verdict("Inconclusive", None, "no decomposable connector found", ())
    # the ratio needs both support ranks n - 1; for a state, whose
    # eigenvalues are at least -1e-10, singular values give those ranks by
    # the same cutoff, so the raw states are eigendecomposed only when it
    # can report. It reads only the pairing, which the witness's scale
    # leaves alone
    n = math.prod(dims)
    if not all(numerical_rank(s, n) == n - 1 for s in svals):
        return verdict
    return replace(verdict, kernel_ratio=_kernel_ratio(verdict.witness.factors, r1, r2, dims))
