"""Shared test builders and the suite-wide witness soundness gate.

Every equivalence verdict obtained in the tests goes through checked_pure or
checked_mixed: an Equivalent outcome is immediately re-verified against the
independent oracle, so an invalid witness fails the build at the point it
appears. Verified witnesses accumulate in EQUIVALENT_LOG for the final
re-verification sweep.
"""

from __future__ import annotations

import numpy as np

from statekit.linalg import SystemShape
from statekit.mixed import MixedState, check_mixed_equivalence
from statekit.oracle import ORACLE_TOL, verify_witness_mixed, verify_witness_pure
from statekit.pure import PureState, check_pure_equivalence

# (kind, first, second, witness, oracle_residual) for every Equivalent
# verdict seen anywhere in the suite.
EQUIVALENT_LOG: list[tuple] = []


def checked_pure(phi, psi):
    verdict = check_pure_equivalence(phi, psi)
    if verdict.outcome == "Equivalent":
        assert verdict.witness is not None, "Equivalent verdict without witness"
        check = verify_witness_pure(phi, psi, verdict.witness)
        assert check.passed, f"unsound pure witness: residual {check.relative_residual:.3e}"
        EQUIVALENT_LOG.append(("pure", phi, psi, verdict.witness, check.relative_residual))
    return verdict


def checked_mixed(rho1, rho2):
    verdict = check_mixed_equivalence(rho1, rho2)
    if verdict.outcome == "Equivalent":
        assert verdict.witness is not None, "Equivalent verdict without witness"
        check = verify_witness_mixed(rho1, rho2, verdict.witness)
        assert check.passed, f"unsound mixed witness: residual {check.relative_residual:.3e}"
        EQUIVALENT_LOG.append(("mixed", rho1, rho2, verdict.witness, check.relative_residual))
    return verdict


def reverify(entry) -> float:
    """Independent re-check of one logged witness; returns its residual."""
    kind, first, second, witness, _ = entry
    if kind == "pure":
        check = verify_witness_pure(first, second, witness)
    else:
        check = verify_witness_mixed(first, second, witness)
    assert check.passed and check.relative_residual <= ORACLE_TOL
    return check.relative_residual


def random_complex(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_pure(dims, seed) -> PureState:
    rng = np.random.default_rng(seed)
    v = random_complex(rng, int(np.prod(dims)))
    return PureState(SystemShape(tuple(dims)), v / np.linalg.norm(v))


def qubit_supported(dims, seed) -> PureState:
    """A random three-qubit state written into the first two levels of
    each party of `dims`, so every rank-deficient party lives on C2."""
    t = np.zeros(dims, dtype=complex)
    t[:2, :2, :2] = random_pure((2, 2, 2), seed).amplitudes.reshape(2, 2, 2)
    return PureState(SystemShape(tuple(dims)), t.reshape(-1))


def random_density(dims, seed) -> MixedState:
    """Full-rank random density matrix (Gram matrix of a square Gaussian)."""
    rng = np.random.default_rng(seed)
    n = int(np.prod(dims))
    g = random_complex(rng, n, n)
    rho = g @ g.conj().T
    return MixedState(SystemShape(tuple(dims)), rho / np.trace(rho).real)


def naive_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product straight from the definition, as an oracle for the
    library routines."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    m, n = a.shape
    p, q = b.shape
    out = np.zeros((m * p, n * q), dtype=complex)
    for i in range(m):
        for j in range(n):
            for k in range(p):
                for l in range(q):
                    out[i * p + k, j * q + l] = a[i, j] * b[k, l]
    return out


def traced_remainder(a: np.ndarray, n1: int) -> np.ndarray:
    """Trace out the first party of an operator on a bipartitioned space."""
    rest = a.shape[0] // n1
    t = a.reshape(n1, rest, n1, rest)
    return np.trace(t, axis1=0, axis2=2)


GHZ3 = PureState(
    SystemShape((2, 2, 2)),
    np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=complex) / np.sqrt(2.0),
)
W3 = PureState(
    SystemShape((2, 2, 2)),
    np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=complex) / np.sqrt(3.0),
)


def w_image(seed) -> MixedState:
    """The projector onto (A (x) B (x) C)|W>, normalized, with complex
    Gaussian factors from default_rng(seed), each redrawn until its
    condition number is at most 100. It is in the W class, which has no
    normal form, but rounding can carry the filtering to a fiction."""
    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(3):
        f = random_complex(rng, 2, 2)
        while np.linalg.cond(f) > 100:
            f = random_complex(rng, 2, 2)
        factors.append(f)
    v = np.kron(np.kron(factors[0], factors[1]), factors[2]) @ W3.amplitudes
    v = v / np.linalg.norm(v)
    return MixedState(SystemShape((2, 2, 2)), np.outer(v, v.conj()))
