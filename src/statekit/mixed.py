"""Equivalence testing for density matrices under invertible local operations.

Two density matrices are equivalent when some Kronecker product of invertible
per-party factors conjugates one into the other (up to trace normalization).
The pipeline: rank screens that can prove inequivalence, filtering to a
normal form, a local unitary between the normal forms, proposed in closed
form and polished or found by one Gauss-Newton aligner, and an independent
witness verification before any Equivalent verdict. No stage draws a random
number.

Filtering brings both states to the local form whose single-party reduced
matrices are all maximally mixed (Verstraete, Dehaene and De Moor, PRA 68,
012103). The filters act on a square-root factor G of the state,
rho = G G^dag. One sweep of local filters, in closed form for qubits, is
followed by Newton steps on all the filters at once (Allen-Zhu, Garg, Li,
Oliveira and Wigderson, STOC 2018), which converge quadratically, also near
pure states where sweeps crawl; where they give up, or where the parties
are too large for them to pay, the sweeps go on, over-relaxed over two
parties. A normal form counts only once the accumulated filters, applied to
the input rather than to G, reproduce it (normal_form). States equivalent
under invertible local maps have filtered forms related by a local unitary
U = (x)U_k, with equal spectra (a mismatch ends the verdict). One-copy
covariants, reduced matrices
of powers of the filtered state, are conjugated by U party by party (the
mixed analogue of Kraus's local-unitary standard form, PRL 104, 020504).
Their eigenbases fix U up to one diagonal phase per party, and those phases
are solved on the torus from the normal forms' entries in the eigenbases.
Two-qubit normal forms use their correlation tensors (Verstraete, Dehaene
and De Moor, PRA 64, 010101(R)). Where those proposals fail the oracle, or
symmetry leaves every covariant a multiple of I and there are none, the
aligner (_align) takes Gauss-Newton steps on the local unitary group from
each proposal and from fixed starts. States with a singular reduced matrix
have no normal form and are first compressed to the supports of their
reduced matrices. The unitary, composed with the filters, is the verdict
once the oracle passes it. A kernel ratio is read in one case only: a qubit
first party whose two states each have a one-dimensional kernel, which the
connector's pairing of the raw eigenbases fixes.

The local-group arithmetic is written once: the generators of every party
are its _hermitian_basis (for qubits, the Pauli matrices over sqrt(2)), a
qubit exponential exp(a I + v . sigma) is taken in closed form (_exp_sigma,
which the filter powers and the Newton steps share), and any other
exponential of a Hermitian generator from its eigendecomposition (_expm).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import oracle
from .factor import canonicalize, decomposability
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
# Newton solves after the first sweep before the sweeps take over again,
# and the widest Hessian, sum_k (d_k^2 - 1) unknowns, for which normal_form
# tries them. A sweep's cost grows with the state alone; the Newton layout's
# memory grows as that width squared times d_k^2, and a solve as its cube.
NEWTON_STEPS = 12
NEWTON_WIDTH = 64
# The least eigenvalue of a normalized reduced matrix red / tr red that
# filtering inverts; below it the state has no normal form.
FILTER_FLOOR = 1e-14
# Filtered-frame solve: the least relative eigengap that fixes a basis, and
# the least relative entry that enters a phase solve; and the relative
# distance within which two normal forms or their filtered spectra agree,
# and within which a frame's imaginary part counts as zero.
COVARIANT_GAP = 1e-6
COVARIANT_MATCH = 1e-8
# Gauss-Newton alignment of two normal forms (_align): the steps per start,
# the residual, relative to the target's norm, that ends a start early, and
# the angle of the fixed start off the identity.
ALIGN_STEPS = 60
ALIGN_TOL = 1e-12
ALIGN_START = 1e-2


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


def _negativity_cost(factors: Sequence[np.ndarray]) -> float:
    """Distance of canonical factors (canonicalize) from entrywise
    nonnegativity; used to pick the canonical representative among certified
    candidates."""
    return sum(float(np.sum(np.abs(f - np.abs(f)) ** 2)) for f in factors)


def _qubit_power(red: np.ndarray, p: float) -> tuple[Optional[np.ndarray], float, float]:
    """(m^p, low, high) for m = 2 red / tr red, red a 2 x 2 Hermitian matrix
    of positive trace, and low <= high the eigenvalues of m, in closed form;
    m^p is None unless low > 0.

    m = I + n . sigma for a real 3-vector n, s = |n| gives low, high =
    1 -+ s, and m^p = exp(a I + v . sigma) (_exp_sigma) with
    a = (p/2) log(low high) and v = (p/2) log1p(2 s / low) n / s. The
    angle over s is formed from log1p, so a nearly degenerate pair divides
    nothing by its gap, and at s = 0, v = 0. The power is Hermitian to the
    bit.
    """
    (r00, r01), (_, r11) = red.tolist()
    t = (r00.real + r11.real) / 2.0
    a = (r00.real - r11.real) / (2.0 * t)
    b = r01 / t
    s = math.hypot(a, b.real, b.imag)
    low, high = 1.0 - s, 1.0 + s
    if low <= 0.0:
        return None, low, high
    k = p / 2.0 * math.log1p(2.0 * s / low) / s if s > 0.0 else 0.0
    return _exp_sigma(p / 2.0 * math.log(low * high), k * b.real, -k * b.imag, k * a), low, high


def _exp_sigma(a: float, vx: float, vy: float, vz: float) -> np.ndarray:
    """exp(a I + v . sigma) = e^a (cosh|v| I + sinh|v| (v / |v|) . sigma)
    for a real a and 3-vector v, in closed form; math raises OverflowError
    past |v| = 710."""
    t = math.hypot(vx, vy, vz)
    e = math.exp(a)
    c, s = e * math.cosh(t), e * (math.sinh(t) / t if t > 0.0 else 1.0)
    return np.array([[c + s * vz, complex(s * vx, -s * vy)],
                     [complex(s * vx, s * vy), c - s * vz]])


def _expm(h: np.ndarray, c: complex) -> np.ndarray:
    """exp(c h) for a Hermitian matrix h and a scalar c, from the
    eigendecomposition of h."""
    w, q = np.linalg.eigh(h)
    return (q * np.exp(c * w)) @ q.conj().T


def _relaxation(omega: float, rate: float) -> float:
    """The over-relaxation factor for sweeps that contract the deviation by
    `rate` at factor omega, or omega when rate implies none.

    Over two blocks, the rate lambda at omega and the rate mu^2 at omega = 1
    obey (lambda + omega - 1)^2 = lambda omega^2 mu^2 (Young), and
    2 / (1 + sqrt(1 - mu^2)) is the factor of least rate."""
    mu2 = (rate + omega - 1.0) ** 2 / (rate * omega * omega)
    return 2.0 / (1.0 + math.sqrt(1.0 - mu2)) if mu2 < 1.0 else omega


@functools.lru_cache(maxsize=None)
def _hermitian_basis(d: int) -> np.ndarray:
    """The (d^2, d, d) stack of Hermitian matrices orthonormal under
    Tr(a b): I / sqrt(d) first, then the generalized Gell-Mann matrices
    (a symmetric and an antisymmetric one per pair of levels, then the
    diagonal ones). For d = 2 these are I and the Pauli matrices over
    sqrt(2)."""
    out = [np.eye(d, dtype=complex) / math.sqrt(d)]
    for j, k in itertools.combinations(range(d), 2):
        sym, anti = np.zeros((2, d, d), dtype=complex)
        sym[j, k] = sym[k, j] = 1.0 / math.sqrt(2.0)
        anti[j, k], anti[k, j] = -1j / math.sqrt(2.0), 1j / math.sqrt(2.0)
        out += [sym, anti]
    for level in range(1, d):
        diag = np.zeros(d)
        diag[:level], diag[level] = 1.0, -level
        out.append(np.diag(diag / math.sqrt(level * (level + 1))).astype(complex))
    return np.array(out)


@functools.lru_cache(maxsize=None)
def _newton_layout(dims: tuple[int, ...]):
    """What a Newton step (_newton_filter) reads that depends on dims alone:
    (interleave, modes, entry, gather, weights, spread).

    C = Tr(r (x)l_{a_k}) over the products of each party's _hermitian_basis
    is taken by one mode product per party (`modes`, each party's l_a^*
    flattened, transposed) on r with each party's row and column axes side
    by side (`interleave`). Every entry of [J | g] is then a weighted sum of
    C entries, one term per nonzero weight: the term at C[gather[i]] times
    weights[i] adds to the flat entry entry[i]. All entries are short of
    the same factor prod_k sqrt(d_k), which tr r = C[0] shares: g_(j,a) is C
    at l_a on party j and I elsewhere over sqrt(d_j); J off the diagonal
    blocks is C at l_a, l_b on parties j, l over sqrt(d_j d_l), and within
    party j sum_c Re Tr(l_a l_b l_c) C at l_c over sqrt(d_j). `spread` sums
    g^2 party by party, times d_k^2."""
    k = len(dims)
    sizes = [d * d for d in dims]
    strides = [math.prod(sizes[j + 1:]) for j in range(k)]
    # party, and flat index of C at that party's l_a and I elsewhere, of each
    # unknown: the traceless basis matrices
    party = np.repeat(np.arange(k), [s - 1 for s in sizes])
    index = np.concatenate([np.arange(1, s) * t for s, t in zip(sizes, strides)])
    root = 1.0 / np.sqrt(np.array(dims, dtype=float)[party])
    gather = np.zeros((len(party), len(party) + 1, max(sizes)), dtype=int)
    weights = np.zeros(gather.shape)
    gather[:, :-1, 0] = index[:, None] + index
    weights[:, :-1, 0] = np.where(party[:, None] == party, 0.0, root[:, None] * root)
    gather[:, -1, 0], weights[:, -1, 0] = index, root
    for j, (d, s, t) in enumerate(zip(dims, sizes, strides)):
        b = _hermitian_basis(d)
        block = np.ix_(party == j, party == j, np.arange(s))
        gather[block] = np.arange(s) * t
        weights[block] = np.einsum("aij,bjk,cki->abc", b[1:], b[1:], b,
                                   optimize=True).real / math.sqrt(d)
    # Re Tr(l_a l_b l_c) is 0 up to rounding for most c (for qubits, all but
    # c = 0): keep only the other terms
    live = np.flatnonzero(np.abs(weights) >= 1e-12)
    return (tuple(x for j in range(k) for x in (j, k + j)),
            tuple(_hermitian_basis(d).conj().reshape(s, s).T for d, s in zip(dims, sizes)),
            live // gather.shape[-1], gather.ravel()[live], weights.ravel()[live],
            (party[:, None] == np.arange(k)) * np.array(sizes, dtype=float))


def _exp_half(x: np.ndarray, d: int) -> np.ndarray:
    """exp(-X / 2) for X = sum_a x_a l_a over the traceless part of
    _hermitian_basis(d). For d = 2 the l_a are sigma / sqrt(2), so
    -X / 2 = v . sigma with v = -x / sqrt(8), in closed form (_exp_sigma);
    otherwise it comes from the eigendecomposition of X (_expm)."""
    if d == 2:
        vx, vy, vz = x.tolist()
        return _exp_sigma(0.0, -vx / 8 ** 0.5, -vy / 8 ** 0.5, -vz / 8 ** 0.5)
    return _expm((x @ _hermitian_basis(d)[1:].reshape(len(x), -1)).reshape(d, d), -0.5)


def _newton_filter(factor: np.ndarray, filters: Sequence[np.ndarray], dims: tuple[int, ...]):
    """Newton steps toward the normal form from the factor G and filters
    that normal_form's first sweep reached: (G, filters) once the deviation
    is below FILTER_TOL, or None.

    The filters to come are f_k = exp(-X_k / 2), X_k traceless Hermitian,
    which minimize Tr(r (x)exp(X_k)) for r = G G^dag. That function is
    convex in X (Kempf-Ness), and at its critical point every marginal of
    (x)f_k r (x)f_k^dag is a multiple of I. In each party's
    _hermitian_basis the gradient g holds Tr(l_a m_k), m_k the marginals of
    r, and the Hessian is J_(j,a),(l,b) = Re Tr(r l_a^(j) l_b^(l)): the
    two-party marginals off the diagonal blocks and (1/2) Tr({l_a, l_b}
    m_j) on them, all read off one coefficient tensor (_newton_layout). A
    step solves J x = g and applies f_k = exp(-X_k / 2) (_exp_half) to G
    and to filters[k]; each f_k has determinant 1, so G is renormalized
    only at the end. The deviation is max_k (d_k / tr r) ||g_k||, the
    ||d m_k / tr - I|| that the sweeps read. The attempt gives up on a
    singular J, on a non-finite iterate, after two successive solves that
    each keep more than 0.9 of the deviation, and after NEWTON_STEPS solves:
    a first step can overshoot, but convergence after it is quadratic. Along
    the unbounded direction of a state with no normal form, such as an image
    of W, a solve keeps the deviation to six digits.
    """
    interleave, modes, entry, gather, weights, spread = _newton_layout(dims)
    n, u = factor.shape[0], len(spread)
    filters = list(filters)
    devs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(NEWTON_STEPS + 1):
            r = factor @ factor.conj().T
            c = r.reshape(dims + dims).transpose(interleave)
            for t in modes:
                c = c.reshape(len(t), -1).T @ t
            c = c.reshape(-1).real
            system = np.bincount(entry, c[gather] * weights, u * (u + 1)).reshape(u, u + 1)
            g = system[:, -1]
            dev = math.sqrt(float(((g * g) @ spread).max())) / c[0]
            if not math.isfinite(dev):
                return None
            if dev < FILTER_TOL:
                return factor / math.sqrt(np.vdot(factor, factor).real), filters
            devs.append(dev)
            if step == NEWTON_STEPS or (
                    step >= 2 and devs[-1] > 0.9 * devs[-2] and devs[-2] > 0.9 * devs[-3]):
                return None
            try:
                x = np.linalg.solve(system[:, :-1], g)
                lo = 0
                for party, d in enumerate(dims):
                    f = _exp_half(x[lo:lo + d * d - 1], d)
                    lo += d * d - 1
                    factor = factor.reshape(d, -1).T @ f.T
                    filters[party] = f @ filters[party]
            except (np.linalg.LinAlgError, OverflowError):
                return None
            factor = factor.reshape(-1, n).T
    return None


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

    After the first sweep, unless it already reached FILTER_TOL or the
    Hessian would be wider than NEWTON_WIDTH, the filtering tries Newton
    steps once (_newton_filter): they solve for all the filters at once and
    stop at FILTER_TOL, most states within three to five solves. When the
    attempt gives up (a singular Hessian, a non-finite iterate, two solves
    without a 10% gain, as for a state with no normal form, or NEWTON_STEPS
    solves), the sweeps above go on from the first sweep's iterate.

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

    Raises ValueError, before any decomposition, when an entry of rho is
    not finite or its trace is not positive. The certificate fails on a
    non-finite g or r.
    """
    dims = as_dims(shape)
    rho = np.asarray(rho, dtype=complex)
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix entries must be finite")
    trace = np.trace(rho).real
    if not trace > 0.0:
        raise ValueError("density matrix trace must be positive")
    rho = rho / trace
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
    for sweep in range(FILTER_SWEEPS):
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
        if sweep == 0 and sum(d * d - 1 for d in dims) <= NEWTON_WIDTH:
            newton = _newton_filter(factor, filters, dims)
            if newton is not None:
                factor, filters = newton
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
    # "not <=", so that a NaN fails the certificate
    if not float(np.linalg.norm(g - r)) <= FILTER_SOFT_TOL * float(np.linalg.norm(r)):
        raise NoNormalForm("uncertified")
    g = (g + g.conj().T) / 2.0
    for party, d in enumerate(dims, start=1):
        red = partial_trace_keep(g, dims, party)
        if not float(np.linalg.norm(d * red - np.eye(d))) <= FILTER_SOFT_TOL:
            raise NoNormalForm("uncertified")
    return g, filters


def _powers(f: np.ndarray) -> np.ndarray:
    """The stack of f, f^2 and f^3 on a new leading axis, taken once for
    _party_covariants; f is one n x n matrix or a stack of them."""
    sq = f @ f
    return np.stack([f, sq, sq @ f])


def _party_covariants(powers: np.ndarray, dims: Sequence[int], party: int) -> np.ndarray:
    """The (..., 4, d, d) stack Tr_rest of f^2, f^3, f E and f E^2 for
    `party` (0-based), from `powers`, the stack of f, f^2 and f^3 (_powers)
    of one state or of a stack of states, where E = I_party (x)
    Tr_party(f^2) and rest is every other party. Each is Hermitian, since a
    partial trace is cyclic in operators on the parties it traces out.

    The traces contract (before, d, after) views of the powers. f E and
    f E^2 are never formed: Tr_rest(f E^j) pairs f's rest indices with
    those of (Tr_party f^2)^j."""
    before, d, after = math.prod(dims[:party]), dims[party], math.prod(dims[party + 1:])
    lead = powers.shape[1:-2]
    v = powers.reshape((3,) + lead + (before, d, after, before, d, after))
    g = np.einsum("...aicbie->...acbe", v[1]).reshape(lead + (before * after,) * 2)
    e = np.stack([g, g @ g]).reshape((2,) + lead + (before, after, before, after))
    return np.concatenate([np.einsum("x...aicajc->...xij", v[1:]),
                           np.einsum("...aicbje,x...beac->...xij", v[0], e)], axis=-3)


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


@functools.lru_cache(maxsize=None)
def _phase_layout(dims: tuple[int, ...]):
    """What _covariant_unitaries' phase solve reads that depends on dims
    alone: the indices (i, j) of the entries above the diagonal, the one-hot
    rows and the bounds of each party's variables. The variables are
    theta_k(1..d_k - 1), party by party; row (i, j) of a phase equation
    holds +1 at i's digits and -1 at j's, which cancel where they agree."""
    n = math.prod(dims)
    digits = np.array(np.unravel_index(np.arange(n), dims)).T
    onehot = np.concatenate(
        [digits[:, [k]] == np.arange(1, d) for k, d in enumerate(dims)], axis=1).astype(int)
    return (*np.triu_indices(n, 1), onehot, np.cumsum([0] + [d - 1 for d in dims]))


def _covariant_unitaries(f1: np.ndarray, f2: np.ndarray,
                         dims: Sequence[int]) -> Optional[list[list[np.ndarray]]]:
    """Candidates for the local unitaries U_k with (x)U_k f2 (x)U_k^dag = f1
    for two filtered states, or None when the covariants fix no U.

    U conjugates every covariant of party k by U_k, so f1's covariant with
    the widest relative eigengap (at least COVARIANT_GAP) and the same
    covariant of f2 (both states' powers and covariants are taken as one
    stack, and one eigh per party serves both) give eigenbases A_k, B_k with
    U_k = A_k diag(e^{i theta_k}) B_k^dag. In A = (x)A_k and B = (x)B_k,
    with g1 = A^dag f1 A and g2 = B^dag f2 B, each off-diagonal entry of
    g1 above COVARIANT_GAP of the largest gives
    sum_k theta_k(i_k) - theta_k(j_k) = arg(g1_ij / g2_ij), theta_k(0) = 0,
    solved by _phase_vectors in decreasing |g1_ij|. The candidates are
    proposals: the two states' covariant spectra and tables are not
    compared here, and the oracle refuses a U that does not map f2 onto
    f1. Every covariant of a two-qubit normal form is a multiple of I (its
    correlation tensor's sign-flip stabilizer fixes no vector), so it
    always gives None.
    """
    bases = []
    powers = _powers(np.stack([f1, f2]))
    for k in range(len(dims)):
        w, vecs = np.linalg.eigh(_party_covariants(powers, dims, k))
        scale = np.maximum(np.max(np.abs(w[0]), axis=1), 1e-300)
        gap = np.min(np.diff(w[0], axis=1), axis=1) / scale
        x = int(np.argmax(gap))
        if gap[x] < COVARIANT_GAP:
            return None
        bases.append((vecs[0, x], vecs[1, x]))
    a = kron_list([p for p, _ in bases])
    b = kron_list([q for _, q in bases])
    g1 = a.conj().T @ f1 @ a
    g2 = b.conj().T @ f2 @ b
    m1 = np.abs(g1)
    top = float(m1.max())
    i, j, onehot, bounds = _phase_layout(tuple(dims))
    keep = m1[i, j] > COVARIANT_GAP * top
    order = np.argsort(-m1[i, j][keep], kind="stable")
    i, j = i[keep][order], j[keep][order]
    return [
        [(p * np.concatenate([[1.0], ph[lo:hi]])) @ q.conj().T
         for (p, q), lo, hi in zip(bases, bounds[:-1], bounds[1:])]
        for ph in _phase_vectors(onehot[i] - onehot[j], g1[i, j] * g2[i, j].conj(),
                                 (g1, g2), top)
    ]


def _align(f1: np.ndarray, f2: np.ndarray, dims: Sequence[int],
           start: Optional[Sequence[np.ndarray]] = None) -> list[np.ndarray]:
    """Local unitaries U_k, from `start`, that bring V = U f2 U^dag toward
    f1 for U = (x)U_k, by Gauss-Newton steps on the local unitary group.

    A step solves i[H, V] = f1 - V in the least-squares sense over local
    Hermitian H = sum_k H_k, H_k acting on party k: a real problem of 2 n^2
    equations in sum_k d_k^2 unknowns, the coefficients of H_k in party
    k's _hermitian_basis, each basis matrix lifted to the whole system on
    every call. It then sets U_k <- exp(i H_k) U_k (_expm). The steps stop
    at a residual ||f1 - V|| of ALIGN_TOL relative to ||f1||, or after
    ALIGN_STEPS; a step that raises the residual does not stop them, since
    Gauss-Newton is not monotone far from a solution. The result is a
    proposal, which the oracle judges.

    With no start given, U_k starts at exp(i ALIGN_START sum_a l_a), the
    sum over party k's _hermitian_basis: just off the identity, which is a
    stationary point whenever f1 and f2 commute (as GHZ-diagonal normal
    forms do), since every step direction i[H, f2] is then orthogonal to
    f1 - f2.
    """
    bases = [_hermitian_basis(d) for d in dims]
    # each basis matrix lifted to the whole system
    lifted = np.concatenate([
        [np.kron(np.kron(np.eye(math.prod(dims[:k])), e), np.eye(math.prod(dims[k + 1:])))
         for e in basis] for k, basis in enumerate(bases)])
    bounds = np.cumsum([0] + [d * d for d in dims])
    u = list(start) if start is not None else [_expm(b.sum(0), 1j * ALIGN_START) for b in bases]
    tol = ALIGN_TOL * float(np.linalg.norm(f1))
    for _ in range(ALIGN_STEPS):
        big = kron_list(u)
        v = big @ f2 @ big.conj().T
        r = f1 - v
        if float(np.linalg.norm(r)) <= tol:
            break
        c = 1j * (lifted @ v - v @ lifted)
        jac = np.concatenate([c.real, c.imag], axis=1).reshape(len(c), -1).T
        x = np.linalg.lstsq(jac, np.concatenate([r.real, r.imag]).ravel(), rcond=None)[0]
        for k, basis in enumerate(bases):
            u[k] = _expm(np.tensordot(x[bounds[k]:bounds[k + 1]], basis, 1), 1j) @ u[k]
    return u


def _su2_lift(o: np.ndarray) -> np.ndarray:
    """A unitary U, up to scale, with U^dag sigma_i U = sum_k o_ik sigma_k:
    the null vector of sigma_i U - U (sum_k o_ik sigma_k) = 0. The sigma_i
    are taken as _hermitian_basis(2)[1:], the Pauli matrices over sqrt(2);
    that common scale leaves the null vector alone."""
    eye, sigma = np.eye(2), _hermitian_basis(2)[1:]
    m = np.concatenate([
        np.kron(sigma[i], eye) - np.kron(eye, np.tensordot(o[i], sigma, 1).T)
        for i in range(3)
    ])
    return np.linalg.svd(m)[2][-1].conj().reshape(2, 2)


def _two_qubit_unitaries(f1: np.ndarray, f2: np.ndarray) -> list[np.ndarray]:
    """The local unitaries [U_A, U_B] proposed for U f2 U^dag = f1 for two
    two-qubit normal forms, read off their correlation tensors.

    U maps T_ij = Tr f (sigma_i (x) sigma_j) to O_A T O_B^T (Verstraete,
    Dehaene and De Moor, PRA 64, 010101(R)). T is read over
    _hermitian_basis(2)[1:], the Pauli matrices over sqrt(2), so it is
    defined up to a factor 2, which changes no rotation below. SVDs
    T1 = P1 S Q1^T and T2 = P2 S Q2^T give O_A = P1 D_A P2^T and
    O_B = Q1 D_B Q2^T, with D = diag(1, 1, +-1) chosen for determinant
    +1. Each rotation lifts to
    SU(2) by _su2_lift. Nothing is compared here. A two-qubit normal form
    is a local-unitary image of a Bell-diagonal state, and two of those
    with equal spectra have correlation tensors related by a signed
    permutation with an even number of sign flips: equal singular values
    and determinants of one sign. So the filtered-spectra screen leaves
    D_A != D_B only on a zero singular value, and the oracle refuses a U
    that does not map f2 onto f1.
    """
    # T_ij = sum f[(a c), (b d)] sigma_i[b, a] sigma_j[d, c], over 2
    sigma = _hermitian_basis(2)[1:]
    t1, t2 = (np.einsum("iba,jdc,acbd->ij", sigma, sigma, f.reshape(2, 2, 2, 2)).real
              for f in (f1, f2))
    p1, _, q1 = np.linalg.svd(t1)
    p2, _, q2 = np.linalg.svd(t2)
    sign_a = np.sign(np.linalg.det(p1) * np.linalg.det(p2))
    sign_b = np.sign(np.linalg.det(q1) * np.linalg.det(q2))
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
    (q1, w1), (q2, w2) = eigh_desc(rho1), eigh_desc(rho2)
    if not numerical_rank(w1, n) == numerical_rank(w2, n) == n - 1:
        return None
    pi = np.argmax(np.abs(q1.conj().T @ kron_list(factors) @ q2), axis=1)
    if np.unique(pi).size != n or pi[-1] != n - 1:
        return None
    top, low = np.split(np.sqrt(w1[:-1] / w2[pi[:-1]]), [n // 2])
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

    Both inputs are MixedStates, which refuse non-finite entries. The first
    step is the rank screen: invertible local maps keep the global rank and
    every single-party reduced rank, each taken once by decisive_rank. A
    reduced mismatch (rank_mismatch) is Inequivalent at once; a global one
    only when either state has no normal form or their better-conditioned
    normal forms mismatch too. Equivalent only with an independently
    verified witness. Each normal form's eigenvalues are taken once, and
    they serve that recheck and the filtered-spectra screen: spectra that
    differ end the verdict Inconclusive, the one invariant screen on the
    normal forms.
    Otherwise the local unitary between the normal forms is proposed in
    closed form (_two_qubit_unitaries, else _covariant_unitaries, which
    gives none without a covariant gap) and composed with the filters. When
    no proposal passes the oracle, _align runs from each proposal in turn,
    then from its fixed start, then from that start with the two normal
    forms swapped (its result inverted), and the oracle judges each result
    before the next start runs. A
    pair with no normal form (NoNormalForm) whose reduced matrices are not
    all full rank is decided through their supports (_compressed_factors);
    else its Inconclusive reason follows the cause, "normal form not
    certified" for uncertified and "marginals stay short" for the others.
    The oracle alone accepts a candidate (_first_verdict), and "no
    decomposable connector found" means that no candidate was built or
    none passed it. An Equivalent verdict reports a kernel ratio in the one
    case _kernel_ratio covers: a qubit first party, both support ranks
    n - 1 (read first off the rank screen's singular values, so that no
    other state is eigendecomposed for it), and a pairing that fixes the
    kernel. Everything else is Inconclusive.
    """
    if not (isinstance(rho1, MixedState) and isinstance(rho2, MixedState)):
        raise ValueError("check_mixed_equivalence expects MixedState inputs")
    if rho1.shape != rho2.shape:
        raise ValueError("states have different shapes")
    r1, r2 = rho1.rho, rho2.rho
    dims = rho1.shape.dims
    n = math.prod(dims)
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
    else:
        # each normal form's spectrum, nonincreasing and clipped at 0: the
        # global-rank recheck, the support ranks and the spectra screen read it
        w1, w2 = (np.clip(np.linalg.eigvalsh(f)[::-1], 0.0, None) for f in (f1t, f2t))
    if mismatch is not None and (cause is not None or rank_mismatch(
            _decisive(w1), _decisive(w2)) is not None):
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
                    for u in candidates]

        if float(np.linalg.norm(f1t - f2t)) <= COVARIANT_MATCH * float(np.linalg.norm(f1t)):
            verdict = _first_verdict(
                rho1, rho2, composed([[np.eye(d, dtype=complex) for d in dims]]), dims)
        else:
            if (numerical_rank(w1, n) != numerical_rank(w2, n)
                    or float(np.max(np.abs(w1 - w2))) > COVARIANT_MATCH):
                return Verdict("Inconclusive", None, "filtered spectra mismatch", ())
            proposals = ([_two_qubit_unitaries(f1t, f2t)] if dims == (2, 2)
                         else _covariant_unitaries(f1t, f2t, dims) or [])

            def candidates():
                # the proposals, then one aligned result per start, each
                # judged before the next start runs
                yield proposals
                for start in proposals:
                    yield [_align(f1t, f2t, dims, start)]
                yield [_align(f1t, f2t, dims)]
                yield [[w.conj().T for w in _align(f2t, f1t, dims)]]

            verdict = next(filter(None, (_first_verdict(rho1, rho2, composed(group), dims)
                                         for group in candidates())), None)
    if verdict is None:
        return Verdict("Inconclusive", None, "no decomposable connector found", ())
    # the ratio needs both support ranks n - 1; for a state, whose
    # eigenvalues are at least -1e-10, singular values give those ranks by
    # the same cutoff, so the raw states are eigendecomposed only when it
    # can report. It reads only the pairing, which the witness's scale
    # leaves alone
    if not all(numerical_rank(s, n) == n - 1 for s in svals):
        return verdict
    return replace(verdict, kernel_ratio=_kernel_ratio(verdict.witness.factors, r1, r2, dims))
