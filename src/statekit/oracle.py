"""Independent verification and fixture construction for equivalence claims.

Witness checks substitute the claimed local factors directly into the
defining transformation and measure the residual; they share no code with
the decision pipelines, so a passing check is independent evidence. A
bound on the backward error, the residual times the witness's condition
number, refuses degenerations: a map into the closure of another orbit
(GHZ towards W) leaves a small residual only with ill-conditioned factors.
Both pipelines report a `Verdict`, and an Equivalent one is only built
here, by `witness_verdict`, once its witness has passed the check that
`statekit verify` applies. The fixture builders produce the reference
states used across the test suite: Bell-diagonal pairs, two ranks of
corner-decorated diagonal states on three qubits, and a pair of
biseparable three-qubit vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .factor import FactorSet, canonicalize, kron
from .linalg import as_dims, kron_list

# A witness passes when its substitution residual is at most ORACLE_TOL and
# its backward error (residual times condition number) at most BACKWARD_TOL.
ORACLE_TOL = 1e-7
BACKWARD_TOL = 1e-4
# Condition-number cap for randomly drawn local factors.
ILO_COND_CAP = 1e3
# Least distance between fixture parameters that must differ.
PARAM_SEPARATION = 1e-12


@dataclass(frozen=True)
class WitnessCheck:
    """Substitution residual, backward error, and the pass decision."""

    relative_residual: float
    backward_error: float
    passed: bool


@dataclass(frozen=True)
class Verdict:
    """Three-valued outcome of an equivalence check, with the verified
    witness of an Equivalent one and the evidence behind it."""

    outcome: str
    witness: Optional[FactorSet]
    reason: str
    residuals: tuple[float, ...]
    oracle_residual: Optional[float] = None
    kernel_ratio: Optional[float] = None


def _decide(residual: float, cond: float) -> WitnessCheck:
    residual = float(residual)
    backward = residual * cond
    return WitnessCheck(residual, backward,
                        residual <= ORACLE_TOL and backward <= BACKWARD_TOL)


@dataclass(frozen=True)
class FixtureParams:
    """Named parameters for the reference families.

    Bell-diagonal pairs take the two weight vectors `lam` and `mu`. The
    corner-decorated families take `a`, `b`, `c` and, for the full-corner
    family, the second triple `alpha`, `beta`, `gamma`.
    """

    lam: Optional[tuple[float, ...]] = None
    mu: Optional[tuple[float, ...]] = None
    a: Optional[float] = None
    b: Optional[float] = None
    c: Optional[float] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    gamma: Optional[float] = None


def _amplitudes(state) -> np.ndarray:
    amp = getattr(state, "amplitudes", state)
    return np.asarray(amp, dtype=complex).reshape(-1)


def _density(state) -> np.ndarray:
    rho = getattr(state, "rho", state)
    return np.asarray(rho, dtype=complex)


def _require_invertible(w: FactorSet) -> float:
    """The condition number of the Kronecker product of the factors, the
    product of theirs; raises on a singular factor or a zero scale."""
    cond = 1.0
    for f in w.factors:
        s = np.linalg.svd(np.asarray(f), compute_uv=False)
        if s[0] <= 0.0 or s[-1] / s[0] < 1e-15:
            raise ValueError("witness contains a singular factor")
        cond *= float(s[0] / s[-1])
    if w.scale == 0:
        raise ValueError("witness scale is zero")
    return cond


def verify_witness_pure(phi, psi, w: FactorSet) -> WitnessCheck:
    """Residual of |phi> against the normalized image of |psi> under the
    witness, minimized over the free global phase.

    The optimal phase is the argument of the inner product; the residual is
    then the direct difference norm, which stays at machine precision for
    exact witnesses where sqrt(2 - 2|overlap|) would floor near 1e-8.
    """
    cond = _require_invertible(w)
    target = _amplitudes(phi)
    # the scale cancels in the normalization, so it never enters the product
    image = kron_list(w.factors) @ _amplitudes(psi)
    nrm = float(np.linalg.norm(image))
    if nrm == 0.0:
        return _decide(np.inf, cond)
    image = image / nrm
    ip = complex(np.vdot(target, image))
    phase = ip / abs(ip) if abs(ip) > 0.0 else 1.0
    return _decide(float(np.linalg.norm(target * phase - image)), cond)


def verify_witness_mixed(rho1, rho2, w: FactorSet) -> WitnessCheck:
    """Relative Frobenius residual of rho1 against the trace-renormalized
    conjugation of rho2 by the witness.

    The renormalization is deliberate: invertible local maps do not preserve
    trace, and both inputs are unit-trace density matrices, so the
    comparison quotients out the overall scale.
    """
    cond = _require_invertible(w)
    # the scale cancels in the trace renormalization
    a = kron_list(w.factors)
    m1 = _density(rho1)
    image = a @ _density(rho2) @ a.conj().T
    tr = float(np.trace(image).real)
    if tr <= 0.0:
        return _decide(np.inf, cond)
    return _decide(
        float(np.linalg.norm(m1 - image / tr)) / float(np.linalg.norm(m1)), cond
    )


def witness_verdict(verify: Callable[..., WitnessCheck], first, second,
                    witness: FactorSet, reason: str) -> Optional[Verdict]:
    """The Equivalent verdict for a canonical witness mapping `second` onto
    `first`, with no residuals and no kernel ratio, or None when the
    substitution check `verify` (verify_witness_pure or
    verify_witness_mixed) fails it or finds a factor singular."""
    try:
        check = verify(first, second, witness)
    except ValueError:
        return None
    if not check.passed:
        return None
    return Verdict("Equivalent", witness, reason, (), check.relative_residual)


def random_ilo(shape, seed) -> FactorSet:
    """Independent complex-Gaussian local factors, redrawn until each has
    condition number at most 1e3; deterministic per seed."""
    dims = as_dims(shape)
    rng = np.random.default_rng(seed)
    factors = []
    for d in dims:
        while True:
            f = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            s = np.linalg.svd(f, compute_uv=False)
            if s[-1] / s[0] >= 1.0 / ILO_COND_CAP:
                factors.append(f)
                break
    return canonicalize(factors)


def make_equivalent_pair(state, seed):
    """Transform a state by a random invertible local map; returns the new
    state of the same kind together with the generating witness."""
    fs = random_ilo(state.shape, seed)
    a = kron(fs)
    if hasattr(state, "amplitudes"):
        from .pure import PureState

        image = a @ state.amplitudes
        return PureState(state.shape, image / np.linalg.norm(image)), fs
    from .mixed import MixedState

    image = a @ state.rho @ a.conj().T
    return MixedState(state.shape, image / np.trace(image).real), fs


def _bell_basis() -> list[np.ndarray]:
    s = 1.0 / np.sqrt(2.0)
    return [
        np.array([s, 0.0, 0.0, s]),
        np.array([s, 0.0, 0.0, -s]),
        np.array([0.0, s, s, 0.0]),
        np.array([0.0, s, -s, 0.0]),
    ]


def _bell_diagonal(weights) -> np.ndarray:
    # projectors assembled from the integer vectors, divided by their squared
    # norm; keeps uniform weights summing to exactly I/4
    out = np.zeros((4, 4), dtype=complex)
    for w, v in zip(weights, _bell_basis()):
        u = np.sign(v)
        out += w * np.outer(u, u.conj()) / 2.0
    return out


def _corner_family(a: float, b: float, c: float, corner: float) -> np.ndarray:
    """Diagonal (1, a, b, c, 1/c, 1/b, 1/a, 1) with corner entries at
    (0,7) and (7,0), normalized by 2 + a + b + c + 1/a + 1/b + 1/c."""
    k = 2.0 + a + b + c + 1.0 / a + 1.0 / b + 1.0 / c
    m = np.zeros((8, 8), dtype=complex)
    for i, v in enumerate([1.0, a, b, c, 1.0 / c, 1.0 / b, 1.0 / a, 1.0]):
        m[i, i] = v / k
    m[0, 7] = m[7, 0] = corner / k
    return m


def _half_corner_partner(a: float, b: float, c: float) -> np.ndarray:
    """The known local-unitary image of the half-corner family, written out
    entrywise over the normalization 2K."""
    k = 2.0 + a + b + c + 1.0 / a + 1.0 / b + 1.0 / c
    rows = [
        [1 + b, 0, 1 - b, 0, 0, -1 / 2, 0, 1 / 2],
        [0, a + c, 0, a - c, 0, 0, 0, 0],
        [1 - b, 0, 1 + b, 0, 0, -1 / 2, 0, 1 / 2],
        [0, a - c, 0, a + c, 0, 0, 0, 0],
        [0, 0, 0, 0, 1 / c + 1 / a, 0, -1 / a + 1 / c, 0],
        [-1 / 2, 0, -1 / 2, 0, 0, 1 / b + 1, 0, -1 + 1 / b],
        [0, 0, 0, 0, -1 / a + 1 / c, 0, 1 / c + 1 / a, 0],
        [1 / 2, 0, 1 / 2, 0, 0, -1 + 1 / b, 0, 1 + 1 / b],
    ]
    return np.array(rows, dtype=complex) / (2.0 * k)


def _positive(*values) -> bool:
    return all(v is not None and float(v) > 0.0 for v in values)


def _distinct(*values) -> bool:
    return all(_excludes(values[i + 1:], (float(v),)) for i, v in enumerate(values))


def _excludes(values, banned) -> bool:
    return all(abs(float(v) - e) > PARAM_SEPARATION for v in values for e in banned)


def fixtures(example_id: int, params: Optional[FixtureParams] = None):
    """Construct a reference state pair.

    1: two Bell-diagonal two-qubit states with weights `lam` and `mu`.
    2: the full-corner three-qubit family with parameter triples (a, b, c)
       and (alpha, beta, gamma), each entry positive and not 1, each triple
       pairwise distinct.
    3: the half-corner three-qubit family and its entrywise local-unitary
       partner; (a, b, c) distinct and outside {0, 1, 2/3, 3/2, 2, 1/2}.
    4: the biseparable pure pair (|001> + |010>)/sqrt(2) and
       (|101> + |011>)/sqrt(2).
    """
    from .mixed import MixedState
    from .pure import PureState
    from .linalg import SystemShape

    params = params or FixtureParams()
    if example_id == 1:
        lam, mu = params.lam, params.mu
        for w in (lam, mu):
            if w is None or len(w) != 4 or not _positive(*w):
                raise ValueError("Bell-diagonal weights must be 4 positive numbers")
            if abs(sum(float(x) for x in w) - 1.0) > 1e-9:
                raise ValueError("Bell-diagonal weights must sum to 1")
        shape = SystemShape((2, 2))
        return (
            MixedState(shape, _bell_diagonal(lam)),
            MixedState(shape, _bell_diagonal(mu)),
        )
    if example_id == 2:
        vals = (params.a, params.b, params.c, params.alpha, params.beta, params.gamma)
        if not _positive(*vals):
            raise ValueError("all six parameters must be positive")
        if not _excludes(vals, (1.0,)):
            raise ValueError(
                "parameters equal to 1 make a diagonal value collide with its "
                "reciprocal; choose values away from 1"
            )
        if not (_distinct(params.a, params.b, params.c)
                and _distinct(params.alpha, params.beta, params.gamma)):
            raise ValueError("each parameter triple must be pairwise distinct")
        shape = SystemShape((2, 2, 2))
        return (
            MixedState(shape, _corner_family(params.a, params.b, params.c, 1.0)),
            MixedState(
                shape, _corner_family(params.alpha, params.beta, params.gamma, 1.0)
            ),
        )
    if example_id == 3:
        vals = (params.a, params.b, params.c)
        if not _positive(*vals):
            raise ValueError("a, b, c must be positive")
        if not _excludes(vals, (0.0, 1.0, 2.0 / 3.0, 1.5, 2.0, 0.5)):
            raise ValueError("parameters must avoid {0, 1, 2/3, 3/2, 2, 1/2}")
        if not _distinct(*vals):
            raise ValueError("a, b, c must be pairwise distinct")
        shape = SystemShape((2, 2, 2))
        return (
            MixedState(shape, _corner_family(params.a, params.b, params.c, 0.5)),
            MixedState(shape, _half_corner_partner(params.a, params.b, params.c)),
        )
    if example_id == 4:
        shape = SystemShape((2, 2, 2))
        s = 1.0 / np.sqrt(2.0)
        psi1 = np.zeros(8, dtype=complex)
        psi1[1] = psi1[2] = s
        psi2 = np.zeros(8, dtype=complex)
        psi2[5] = psi2[3] = s
        return PureState(shape, psi1), PureState(shape, psi2)
    raise ValueError(f"unknown fixture id {example_id!r}")
