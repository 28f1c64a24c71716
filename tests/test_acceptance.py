"""Release acceptance checks, one test per criterion.

Each test prints one pass/fail line under pytest -v. Every Equivalent
verdict in the suite flows through the checked_* helpers, which verify the
witness against the independent oracle at the call site and log it; the
final soundness sweep re-verifies everything logged.
"""

import numpy as np

from statekit.factor import kron as kron_factors
from statekit.factor import canonicalize, decomposability, extract_factors
from statekit.linalg import SystemShape, rank_report, realign, vec
from statekit.oracle import (
    ORACLE_TOL,
    FixtureParams,
    fixtures,
    make_equivalent_pair,
    random_ilo,
    verify_witness_pure,
)
from statekit.pure import PureState, check_bipartite, rank_signature
from util import (
    EQUIVALENT_LOG,
    GHZ3,
    W3,
    checked_mixed,
    checked_pure,
    random_complex,
    random_density,
    random_pure,
    reverify,
)

MIDDLE_ROTATION = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)


def test_c01_realignment_turns_kronecker_products_into_rank_one():
    """realign(A (x) B) equals vec(A) vec(B)^T and has numerical rank one."""
    sizes = [(m, n) for m in (2, 3, 4) for n in (2, 3, 4)]
    for seed in range(200):
        m, n = sizes[seed % len(sizes)]
        rng = np.random.default_rng(seed)
        a = random_complex(rng, m, m)
        b = random_complex(rng, n, n)
        r = realign(np.kron(a, b), m, n)
        assert np.max(np.abs(r - np.outer(vec(a), vec(b)))) <= 1e-12
        assert rank_report(r).numerical_rank == 1


def test_c02_products_factor_and_generic_maps_do_not():
    """Invertible Kronecker products round-trip through factor extraction;
    generic invertible matrices are recognized as non-products."""
    shapes = [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2)]
    for seed in range(200):
        dims = shapes[seed % len(shapes)]
        fs = random_ilo(dims, seed)
        a = kron_factors(fs)
        report = decomposability(a, dims)
        assert report.invertible and report.decomposable
        rebuilt = kron_factors(extract_factors(a, dims))
        assert np.linalg.norm(rebuilt - a) <= 1e-10 * np.linalg.norm(a)
    for seed in range(100):
        dims = shapes[seed % len(shapes)]
        rng = np.random.default_rng(10_000 + seed)
        side = int(np.prod(dims))
        a = random_complex(rng, side, side)
        report = decomposability(a, dims)
        assert report.invertible
        assert not report.decomposable


def test_c03_biseparable_pair_is_inequivalent_by_rank_signature():
    """The biseparable reference pair fails on rank signatures, and no
    unitary connector between their eigenframes has a product structure."""
    phi, psi = fixtures(4)
    assert rank_signature(phi).entries[(1,)] == 1
    assert rank_signature(psi).entries[(1,)] == 2
    verdict = checked_pure(phi, psi)
    assert verdict.outcome == "Inequivalent"
    assert "rank signature" in verdict.reason
    # the full unitary connector between completed eigenbases
    connector = np.zeros((8, 8))
    for row, col in [(0, 0), (1, 3), (2, 5), (3, 1), (4, 2), (5, 4), (6, 6), (7, 7)]:
        connector[row, col] = 1.0
    connector /= np.sqrt(2.0)
    assert rank_report(realign(connector, 2, 4)).numerical_rank != 1
    # restricted to the rank-one support the connector is the outer product
    # of the two state vectors; its realignment has rank exactly two
    support = np.outer(phi.amplitudes, psi.amplitudes.conj())
    assert rank_report(realign(support, 2, 4)).numerical_rank == 2


def test_c04_corner_family_kernel_completion_and_verdict():
    """With the matched parameter triple the kernel entry completes to 1/4,
    all realignment residuals vanish, and the verdict is Equivalent; a
    detuned third parameter must not verify."""
    pair = fixtures(2, FixtureParams(a=0.3, b=0.4, c=0.5, alpha=0.6, beta=1.6, gamma=4.0))
    verdict = checked_mixed(*pair)
    assert verdict.outcome == "Equivalent"
    assert verdict.kernel_ratio is not None
    assert abs(verdict.kernel_ratio - 0.25) <= 1e-9
    assert len(verdict.residuals) == 3
    assert all(r <= 1e-8 for r in verdict.residuals)
    assert verdict.oracle_residual <= 1e-8
    detuned = fixtures(
        2, FixtureParams(a=0.3, b=0.4, c=0.5, alpha=0.6, beta=1.6, gamma=4.05)
    )
    assert checked_mixed(*detuned).outcome != "Equivalent"


def test_c05_half_corner_family_yields_the_middle_rotation():
    """Twenty parameter draws of the half-corner family all verify with a
    witness whose middle factor is the fixed 45-degree rotation."""
    banned = (0.5, 2.0 / 3.0, 1.0, 1.5)
    target = canonicalize([MIDDLE_ROTATION]).factors[0]
    for draw in range(20):
        rng = np.random.default_rng(1000 + draw)
        vals: list[float] = []
        while len(vals) < 3:
            x = float(rng.uniform(0.25, 1.9))
            if all(abs(x - v) >= 0.05 for v in (*banned, *vals)):
                vals.append(x)
        pair = fixtures(3, FixtureParams(a=vals[0], b=vals[1], c=vals[2]))
        verdict = checked_mixed(*pair)
        assert verdict.outcome == "Equivalent", (draw, verdict.reason)
        middle = canonicalize([verdict.witness.factors[1]]).factors[0]
        assert np.max(np.abs(middle - target)) <= 1e-7


def test_c06_bell_diagonal_weight_permutations():
    """A weight permutation with matching cross products verifies; one that
    breaks them must never ship an unverified witness."""
    lam = (0.4, 0.3, 0.2, 0.1)
    matched = fixtures(1, FixtureParams(lam=lam, mu=(0.2, 0.1, 0.4, 0.3)))
    assert checked_mixed(*matched).outcome == "Equivalent"
    broken = fixtures(1, FixtureParams(lam=lam, mu=(0.3, 0.4, 0.2, 0.1)))
    verdict = checked_mixed(*broken)
    assert verdict.outcome != "Inequivalent"
    if verdict.outcome == "Equivalent":
        assert verdict.oracle_residual <= ORACLE_TOL


def test_c07_constructed_mixed_pairs_are_recalled():
    """At least 95 of 100 random full-rank three-qubit pairs built from
    known local maps come back Equivalent; none may come back Inequivalent."""
    equivalent = 0
    inequivalent = 0
    for seed in range(100):
        base = random_density((2, 2, 2), 20_000 + seed)
        other, _ = make_equivalent_pair(base, 30_000 + seed)
        outcome = checked_mixed(base, other).outcome
        equivalent += outcome == "Equivalent"
        inequivalent += outcome == "Inequivalent"
    assert inequivalent == 0
    assert equivalent >= 95


def test_c09_bipartite_pairs_resolve_by_schmidt_rank():
    """Fifty equal-rank bipartite pairs verify as Equivalent; unequal ranks
    are Inequivalent."""
    dims_cycle = [(2, 2), (3, 3), (4, 4), (2, 3), (2, 4), (3, 4)]
    for seed in range(50):
        m, n = dims_cycle[seed % len(dims_cycle)]
        rank = 1 + seed % min(m, n)
        phi = _schmidt_state(m, n, rank, 2 * seed)
        psi = _schmidt_state(m, n, rank, 2 * seed + 1)
        verdict = check_bipartite(phi, psi)
        assert verdict.outcome == "Equivalent", (seed, verdict.reason)
        check = verify_witness_pure(phi, psi, verdict.witness)
        assert check.passed
        EQUIVALENT_LOG.append(("pure", phi, psi, verdict.witness, check.relative_residual))
    for seed in range(10):
        m, n = dims_cycle[seed % len(dims_cycle)]
        low = 1 + seed % (min(m, n) - 1)
        phi = _schmidt_state(m, n, low, 200 + 2 * seed)
        psi = _schmidt_state(m, n, low + 1, 201 + 2 * seed)
        assert check_bipartite(phi, psi).outcome == "Inequivalent"


def test_c10_inequivalent_entanglement_classes_never_verify():
    """The two fully entangled three-qubit classes must never be declared
    Equivalent; the honest answer is Inconclusive."""
    assert checked_pure(GHZ3, W3).outcome == "Inconclusive"
    assert checked_pure(W3, GHZ3).outcome == "Inconclusive"


def test_c08_every_equivalent_witness_reverifies():
    """Suite-wide soundness: every Equivalent verdict logged by the checks
    above re-verifies against the oracle within tolerance."""
    assert len(EQUIVALENT_LOG) >= 100
    residuals = [reverify(entry) for entry in EQUIVALENT_LOG]
    assert max(residuals) <= ORACLE_TOL


def _schmidt_state(m: int, n: int, rank: int, seed: int) -> PureState:
    rng = np.random.default_rng(40_000 + seed)
    u = np.linalg.qr(random_complex(rng, m, m))[0]
    v = np.linalg.qr(random_complex(rng, n, n))[0]
    weights = rng.uniform(0.2, 1.0, rank)
    c = u[:, :rank] @ np.diag(weights) @ v[:, :rank].conj().T
    amp = c.reshape(-1)
    return PureState(SystemShape((m, n)), amp / np.linalg.norm(amp))
