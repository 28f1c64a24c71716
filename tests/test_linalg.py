"""Tests for vectorization, realignment, index permutation, and rank tools."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statekit.factor import decomposability
from statekit.linalg import (
    RANK_REL_TOL,
    RankReport,
    SystemShape,
    as_dims,
    bipartition_view,
    decisive_rank,
    eigh_desc,
    kron_list,
    lift_supports,
    local_supports,
    numerical_rank,
    partial_trace_keep,
    rank_report,
    realign,
    realign_inverse,
    unvec,
    vec,
)
from util import naive_kron, random_complex

DIMS = st.sampled_from([2, 3, 4])


def test_vec_stacks_columns():
    a = np.array([[1, 2], [3, 4]])
    assert np.array_equal(vec(a), np.array([1, 3, 2, 4]))


def test_unvec_inverts_vec():
    rng = np.random.default_rng(0)
    a = random_complex(rng, 3, 4)
    assert np.array_equal(unvec(vec(a), 3, 4), a)
    with pytest.raises(ValueError):
        unvec(np.arange(5), 2, 3)


def test_realignment_worked_example():
    z = np.array([
        [1, 2, 5, 6],
        [3, 4, 7, 8],
        [9, 10, 13, 14],
        [11, 12, 15, 16],
    ])
    expected = np.array([
        [1, 3, 2, 4],
        [9, 11, 10, 12],
        [5, 7, 6, 8],
        [13, 15, 14, 16],
    ])
    assert np.array_equal(realign(z, 2, 2), expected)


def test_realignment_shape_checks():
    with pytest.raises(ValueError):
        realign(np.eye(4), 2, 3)
    with pytest.raises(ValueError):
        realign_inverse(np.eye(4), 2, 3)


@settings(deadline=None, max_examples=40)
@given(m=DIMS, n=DIMS, seed=st.integers(0, 10_000))
def test_realignment_round_trip(m, n, seed):
    rng = np.random.default_rng(seed)
    z = random_complex(rng, m * n, m * n)
    assert np.array_equal(realign_inverse(realign(z, m, n), m, n), z)


@settings(deadline=None, max_examples=40)
@given(m=DIMS, n=DIMS, seed=st.integers(0, 10_000))
def test_realignment_of_kronecker_product_is_outer_product(m, n, seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, m, m)
    b = random_complex(rng, n, n)
    r = realign(naive_kron(a, b), m, n)
    assert np.allclose(r, np.outer(vec(a), vec(b)), atol=1e-12)
    assert rank_report(r).numerical_rank == 1


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    alpha=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    beta=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
)
def test_vec_is_linear(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, 3, 3)
    b = random_complex(rng, 3, 3)
    assert np.allclose(vec(alpha * a + beta * b), alpha * vec(a) + beta * vec(b))


def test_bipartition_view_party_one_is_identity():
    rng = np.random.default_rng(1)
    a = random_complex(rng, 12, 12)
    assert np.array_equal(bipartition_view(a, (2, 3, 2), 1), a)


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 3), (2, 2, 2, 3)])
def test_bipartition_view_moves_factor_first(dims):
    rng = np.random.default_rng(len(dims))
    factors = [random_complex(rng, d, d) for d in dims]
    a = kron_list(factors)
    for party in range(1, len(dims) + 1):
        reordered = [factors[party - 1]] + [
            f for i, f in enumerate(factors) if i != party - 1
        ]
        assert np.allclose(bipartition_view(a, dims, party), kron_list(reordered))


def test_kron_list_matches_np_kron_bit_for_bit():
    # the broadcast multiply forms the products np.kron forms; factors may
    # be rectangular (support isometries) or real
    rng = np.random.default_rng(3)
    for trial in range(100):
        shapes = [tuple(rng.integers(1, 4, size=2)) for _ in range(int(rng.integers(1, 5)))]
        mats = [random_complex(rng, *shp) for shp in shapes]
        if trial % 3 == 0:
            mats[0] = mats[0].real
        want = np.array([[1.0 + 0.0j]])
        for m in mats:
            want = np.kron(want, np.asarray(m, dtype=complex))
        assert kron_list(mats).tobytes() == want.tobytes()


def test_bipartition_view_is_permutation_similarity():
    rng = np.random.default_rng(2)
    a = random_complex(rng, 8, 8)
    a = a + a.conj().T
    view = bipartition_view(a, (2, 2, 2), 2)
    assert np.isclose(np.linalg.norm(view), np.linalg.norm(a))
    assert np.allclose(np.linalg.eigvalsh(view), np.linalg.eigvalsh(a))


def test_eigh_desc_sorted_and_reconstructs():
    rng = np.random.default_rng(4)
    g = random_complex(rng, 5, 5)
    h = g + g.conj().T
    q, w = eigh_desc(h)
    assert np.all(np.diff(w) <= 0)
    assert np.allclose(q @ np.diag(w) @ q.conj().T, h)


def test_eigh_desc_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigh_desc(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rank_report_thresholds():
    rep = rank_report(np.diag([1.0, 1e-3, 1e-16]))
    assert isinstance(rep, RankReport)
    assert rep.numerical_rank == 2
    assert np.isclose(rep.rank1_residual, 1e-3)
    assert rank_report(np.zeros((2, 2))).numerical_rank == 0


def test_numerical_rank_of_zero_and_empty_values_is_zero():
    assert numerical_rank(np.zeros(3), 3) == 0
    assert numerical_rank(np.zeros(0), 5) == 0


def test_numerical_rank_counts_a_value_at_the_cutoff_as_zero():
    cutoff = 3 * 1.0 * RANK_REL_TOL
    assert numerical_rank(np.array([1.0, cutoff]), 3) == 1
    assert numerical_rank(np.array([1.0, np.nextafter(cutoff, 1.0)]), 3) == 2


@pytest.mark.parametrize("spectrum", [(1.0, 0.3, 1e-12, 0.0), (1.0, 0.3, 0.2, 0.1)],
                         ids=["singular", "invertible"])
def test_every_rank_decision_reads_numerical_rank(spectrum):
    # one PSD matrix, where singular values and eigenvalues coincide: the
    # rank report, the support rank and the invertibility test agree
    q = np.linalg.qr(random_complex(np.random.default_rng(8), 4, 4))[0]
    h = (q * np.array(spectrum)) @ q.conj().T
    h = (h + h.conj().T) / 2.0
    rank = numerical_rank(np.linalg.svd(h, compute_uv=False), 4)
    assert rank == sum(x > 1e-9 for x in spectrum)
    assert rank_report(h).numerical_rank == rank
    assert numerical_rank(eigh_desc(h)[1], 4) == rank
    assert decomposability(h, (2, 2)).invertible == (rank == 4)


def test_decisive_rank_clear_gap():
    rank, decisive = decisive_rank(np.diag([1.0, 0.5, 1e-14]))
    assert (rank, decisive) == (2, True)
    rank, decisive = decisive_rank(np.zeros((3, 3)))
    assert (rank, decisive) == (0, True)


def test_decisive_rank_dead_band_is_indecisive():
    # A singular value between the hard floor and the soft cutoff must not
    # support an irreversible verdict.
    rank, decisive = decisive_rank(np.diag([1.0, 0.5, 1e-9]))
    assert rank == 2
    assert not decisive


def test_partial_trace_keep_product_state():
    rng = np.random.default_rng(5)
    parts = []
    for d, seed in ((2, 10), (3, 11)):
        g = random_complex(np.random.default_rng(seed), d, d)
        m = g @ g.conj().T
        parts.append(m / np.trace(m).real)
    rho = kron_list(parts)
    for party, expected in ((1, parts[0]), (2, parts[1])):
        red = partial_trace_keep(rho, (2, 3), party)
        assert np.allclose(red, expected)
        assert np.isclose(np.trace(red).real, 1.0)


def test_partial_trace_keep_entangled_state():
    dims = (2, 3, 2)
    g = random_complex(np.random.default_rng(7), 12, 12)
    rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
    t = rho.reshape(dims + dims)
    for party in (1, 2, 3):
        keep = party - 1
        expected = np.zeros((dims[keep], dims[keep]), dtype=complex)
        for i in range(dims[keep]):
            for j in range(dims[keep]):
                for rest in np.ndindex(*(d for p, d in enumerate(dims) if p != keep)):
                    row = list(rest)
                    row.insert(keep, i)
                    col = list(rest)
                    col.insert(keep, j)
                    expected[i, j] += t[tuple(row) + tuple(col)]
        assert np.allclose(partial_trace_keep(rho, dims, party), expected, atol=1e-14)


def test_kron_list_matches_pairwise():
    rng = np.random.default_rng(6)
    mats = [random_complex(rng, d, d) for d in (2, 3, 2)]
    expected = naive_kron(naive_kron(mats[0], mats[1]), mats[2])
    assert np.allclose(kron_list(mats), expected)


def test_bipartition_view_rejects_a_wrong_shape_and_a_party_out_of_range():
    with pytest.raises(ValueError, match="expected shape"):
        bipartition_view(np.eye(6), (2, 3, 2), 1)
    for party in (0, 4):
        with pytest.raises(ValueError, match="out of range"):
            bipartition_view(np.eye(12), (2, 3, 2), party)


def test_system_shape_validation():
    assert SystemShape((2, 3)).side == 6
    assert SystemShape((2, 3)).nparties == 2
    # exact, where an int64 product of 64 twos wraps to 0
    assert SystemShape((2,) * 64).side == 2**64
    assert as_dims([2, 2]) == (2, 2)
    assert as_dims(SystemShape((4,))) == (4,)
    with pytest.raises(ValueError):
        SystemShape((2, 1))
    with pytest.raises(ValueError):
        SystemShape(())


def test_local_supports_and_their_lift():
    # party 1 is full rank and keeps the identity; party 2 has rank 2 of 3,
    # and the lift of a connector between the supports maps the second
    # state's support onto the first's and its kernel onto the first's kernel
    rng = np.random.default_rng(3)
    a1, b1 = random_complex(rng, 2, 2), random_complex(rng, 3, 2)
    a2, b2 = random_complex(rng, 2, 2), random_complex(rng, 3, 2)
    mats1 = [a1 @ random_complex(rng, 2, 6), b1 @ random_complex(rng, 2, 4)]
    mats2 = [a2 @ random_complex(rng, 2, 6), b2 @ random_complex(rng, 2, 4)]
    splits = local_supports(mats1, mats2, [2, 2])
    p1, q1, p2, q2 = splits[0]
    assert np.array_equal(p1, np.eye(2)) and np.array_equal(p2, np.eye(2))
    assert q1.shape == q2.shape == (2, 0)
    p1, q1, p2, q2 = splits[1]
    for p, q, b in ((p1, q1, b1), (p2, q2, b2)):
        assert p.shape == (3, 2) and q.shape == (3, 1)
        assert np.allclose(p @ p.conj().T @ b, b, atol=1e-12)
        assert np.allclose(q.conj().T @ b, 0.0, atol=1e-12)
    inner = [random_complex(rng, 2, 2), random_complex(rng, 2, 2)]
    first, lifted = lift_supports(splits, inner)
    assert np.allclose(first, inner[0], atol=1e-12)
    assert np.allclose(lifted @ p2, p1 @ inner[1], atol=1e-12)
    assert np.allclose(lifted @ q2, q1, atol=1e-12)


def test_lift_of_a_rank_one_party_maps_support_onto_support():
    rng = np.random.default_rng(4)
    u, v = random_complex(rng, 3), random_complex(rng, 3)
    splits = local_supports([np.outer(u, u.conj())], [np.outer(v, v.conj())], [1])
    (lifted,) = lift_supports(splits, [])
    image = lifted @ v
    assert abs(abs(np.vdot(u, image)) - np.linalg.norm(u) * np.linalg.norm(image)) < 1e-12
    assert np.linalg.cond(lifted) < 1.0 + 1e-12
