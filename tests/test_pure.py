"""Tests for coefficient matrices, rank signatures, and pure-state verdicts."""

import numpy as np
import pytest

from statekit import pure
from statekit.factor import kron as kron_factors
from statekit.linalg import SystemShape, kron_list
from statekit.oracle import fixtures, make_equivalent_pair, random_ilo, verify_witness_pure
from statekit.pure import (
    PureState,
    check_bipartite,
    check_pure_equivalence,
    coefficient_matrix,
    rank_signature,
)
from util import GHZ3, W3, checked_pure, qubit_supported, random_complex, random_pure

THREE_QUBITS = SystemShape((2, 2, 2))


def test_state_requires_near_unit_norm():
    with pytest.raises(ValueError):
        PureState(SystemShape((2,)), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="expected 4 amplitudes, got 3"):
        PureState(SystemShape((2, 2)), np.array([1.0, 0.0, 0.0]))
    amp = np.array([1.0, 0.0]) * (1 + 5e-7)
    assert np.isclose(np.linalg.norm(PureState(SystemShape((2,)), amp).amplitudes), 1.0)


def test_coefficient_matrix_three_qubit_layout():
    amp = (np.arange(8) + 1).astype(complex)
    psi = PureState(THREE_QUBITS, amp / np.linalg.norm(amp))
    c = coefficient_matrix(psi, (1,))
    expected = psi.amplitudes.reshape(2, 4)
    assert np.array_equal(c, expected)
    # rows indexed by party 1, columns by (party 2, party 3) in order
    assert c[1, 2] == psi.amplitudes[6]


def test_coefficient_matrix_pair_cut_layout():
    amp = (np.arange(16) + 1).astype(complex)
    psi = PureState(SystemShape((2, 2, 2, 2)), amp / np.linalg.norm(amp))
    c = coefficient_matrix(psi, (1, 2))
    # row index = binary (i1 i2), column index = binary (i3 i4)
    assert c[2, 1] == psi.amplitudes[0b1001]
    c = coefficient_matrix(psi, (2, 4))
    assert c[0b10, 0b01] == psi.amplitudes[0b0110]


def test_coefficient_matrix_default_cut_is_first_half():
    psi = random_pure((2, 3, 2), 0)
    assert coefficient_matrix(psi).shape == (2, 6)
    psi = random_pure((2, 2, 2, 2), 1)
    assert coefficient_matrix(psi).shape == (4, 4)


def test_coefficient_matrix_rejects_bad_cuts():
    psi = random_pure((2, 2, 2), 2)
    with pytest.raises(ValueError):
        coefficient_matrix(psi, ())
    with pytest.raises(ValueError):
        coefficient_matrix(psi, (1, 2, 3))
    with pytest.raises(ValueError):
        coefficient_matrix(psi, (1, 1))
    with pytest.raises(ValueError):
        coefficient_matrix(psi, (4,))


def test_rank_signature_product_state():
    single = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    amp = kron_list([single.reshape(2, 1)] * 3).reshape(-1)
    psi = PureState(THREE_QUBITS, amp)
    sig = rank_signature(psi)
    assert all(rank == 1 for rank in sig.entries.values())


def test_rank_signature_fully_entangled_three_qubits():
    sig = rank_signature(GHZ3)
    assert sig.entries == {(1,): 2, (2,): 2, (3,): 2}


def test_rank_signature_of_one_party_is_empty():
    # one party has no bipartition to take a rank over
    sig = rank_signature(PureState(SystemShape((3,)), np.array([0.0, 1.0, 0.0])))
    assert sig.nparties == 1
    assert sig.entries == {}


def test_rank_signature_complement_symmetry():
    psi = random_pure((2, 2, 3), 3)
    sig = rank_signature(psi)
    for cut in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3)):
        comp = tuple(p for p in (1, 2, 3) if p not in cut)
        assert sig.rank(cut) == sig.rank(comp)


# Signature keys in order: each cut's smaller side, or the side holding
# party 1 when both sides are the same size; beyond six parties, single
# parties only.
CUT_KEYS = {
    1: [],
    2: [(1,)],
    3: [(1,), (2,), (3,)],
    4: [(1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4)],
    5: [(1,), (2,), (3,), (4,), (5,), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3),
        (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)],
    6: [(1,), (2,), (3,), (4,), (5,), (6,), (1, 2), (1, 3), (1, 4), (1, 5),
        (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5),
        (4, 6), (5, 6), (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 3, 4),
        (1, 3, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6), (1, 5, 6)],
    7: [(1,), (2,), (3,), (4,), (5,), (6,), (7,)],
    8: [(1,), (2,), (3,), (4,), (5,), (6,), (7,), (8,)],
}


@pytest.mark.parametrize("k", sorted(CUT_KEYS))
def test_rank_signature_lists_its_cuts_in_order(k):
    psi = random_pure((3,) + (2,) * (k - 1), 500 + k)
    sig = rank_signature(psi)
    assert list(sig.entries) == CUT_KEYS[k]
    for cut, rank in sig.entries.items():
        assert rank == np.linalg.matrix_rank(coefficient_matrix(psi, cut))


def test_rank_signature_invariant_under_local_maps():
    for seed in range(8):
        psi = random_pure((2, 2, 2), 40 + seed)
        fs = random_ilo(psi.shape, 80 + seed)
        image = kron_factors(fs) @ psi.amplitudes
        mapped = PureState(psi.shape, image / np.linalg.norm(image))
        assert rank_signature(mapped) == rank_signature(psi)


def test_biseparable_pair_signatures_differ():
    phi, psi = fixtures(4)
    assert rank_signature(phi).entries[(1,)] == 1
    assert rank_signature(psi).entries[(1,)] == 2
    verdict = checked_pure(phi, psi)
    assert verdict.outcome == "Inequivalent"
    assert "rank signature" in verdict.reason


def test_identical_states_shortcut():
    verdict = checked_pure(GHZ3, GHZ3)
    assert verdict.outcome == "Equivalent"
    assert verdict.oracle_residual <= 1e-12


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2)])
def test_identical_amplitudes_are_accepted_first(dims):
    psi = random_pure(dims, 7)
    verdict = checked_pure(psi, psi)
    assert verdict.outcome == "Equivalent"
    assert verdict.reason == "identical amplitudes"


def test_two_party_pairs_are_screened_by_schmidt_rank_alone(monkeypatch):
    product = PureState(SystemShape((2, 2)), np.array([1.0, 0, 0, 0]))
    bell = PureState(SystemShape((2, 2)), np.array([1.0, 0, 0, 1.0]) / np.sqrt(2))

    def refuse(psi):
        raise AssertionError("a two-party pair needs no rank signature")

    monkeypatch.setattr(pure, "rank_signature", refuse)
    verdict = checked_pure(product, bell)
    assert verdict.outcome == "Inequivalent"
    assert verdict.reason == "Schmidt ranks differ (1 vs 2)"


def test_single_party_states_are_rotations():
    a = PureState(SystemShape((3,)), np.array([1.0, 0.0, 0.0]))
    b = PureState(SystemShape((3,)), np.array([0.0, 1.0j, 0.0]))
    verdict = checked_pure(a, b)
    assert verdict.outcome == "Equivalent"


def test_constructed_three_qubit_pairs_are_recovered():
    for seed in range(10):
        psi = random_pure((2, 2, 2), 200 + seed)
        phi, _ = make_equivalent_pair(psi, 300 + seed)
        verdict = checked_pure(phi, psi)
        assert verdict.outcome == "Equivalent", verdict.reason


@pytest.mark.parametrize("a", [0.6, 0.8, 1 / np.sqrt(2.0)], ids=["0.6", "0.8", "1/sqrt2"])
def test_ghz_images_are_connected_by_product_vector_pairing(a):
    # a|000> + b|111>: its coefficient rowspaces are spanned by exact product
    # rows, the branch of _product_vectors that finds them without a root
    amp = np.zeros(8)
    amp[0], amp[7] = a, np.sqrt(1.0 - a * a)
    psi = PureState(THREE_QUBITS, amp)
    for seed in range(10):
        phi, _ = make_equivalent_pair(psi, 300 + seed)
        for first, second in ((psi, phi), (phi, psi)):
            verdict = checked_pure(first, second)
            assert verdict.outcome == "Equivalent", verdict.reason
            assert verdict.reason == "witness from product-vector pairing"


def test_product_factor_splits_off():
    rng = np.random.default_rng(9)
    local = random_complex(rng, 2)
    tail = random_complex(rng, 4)
    amp = np.kron(local, tail)
    psi = PureState(THREE_QUBITS, amp / np.linalg.norm(amp))
    phi, _ = make_equivalent_pair(psi, 10)
    verdict = checked_pure(phi, psi)
    assert verdict.outcome == "Equivalent"
    assert "factors out" in verdict.reason


@pytest.mark.parametrize("dims", [(2, 2, 3), (2, 3, 3), (3, 3, 3)])
def test_rank_deficient_qudits_are_compressed_to_their_supports(dims):
    # each qutrit lives on two levels; its compression leaves a three-qubit
    # pair, which product-vector pairing connects
    for seed in range(20):
        psi = qubit_supported(dims, seed)
        phi, _ = make_equivalent_pair(psi, 100 + seed)
        for first, second in ((phi, psi), (psi, phi)):
            verdict = checked_pure(first, second)
            assert verdict.outcome == "Equivalent", verdict.reason
            assert verify_witness_pure(first, second, verdict.witness).passed
            assert "kernel factor" in verdict.reason


@pytest.mark.parametrize("eps", [1e-10, 3e-10])
def test_near_product_party_still_factors_out(eps):
    # |0> (x) r + eps |1> (x) s has party-1 sigma_2 / sigma_1 near eps: a
    # numerical rank of one, though not a decisive one, so the party must
    # drop out against local-unitary images
    rng = np.random.default_rng(5)
    shape = SystemShape((2, 2, 2, 2))
    for _ in range(20):
        r, s = random_complex(rng, 8), random_complex(rng, 8)
        amp = np.kron([1.0, 0.0], r / np.linalg.norm(r)) + eps * np.kron(
            [0.0, 1.0], s / np.linalg.norm(s))
        psi = PureState(shape, amp / np.linalg.norm(amp))
        local = kron_list([np.linalg.qr(random_complex(rng, 2, 2))[0] for _ in range(4)])
        phi = PureState(shape, local @ psi.amplitudes)
        verdict = checked_pure(phi, psi)
        assert verdict.outcome == "Equivalent", verdict.reason
        assert verdict.reason == "party 1 factors out; remainder equivalent"


@pytest.mark.parametrize("dims,nlocal", [((2, 2, 2, 2), 2), ((2, 3, 2), 3)])
def test_several_product_parties_factor_out(dims, nlocal):
    # u (x) v (x) psi over four qubits, and a full product, against an
    # image under random invertible local maps
    rng = np.random.default_rng(7)
    vectors = [random_complex(rng, d) for d in dims[:nlocal]]
    if nlocal < len(dims):
        vectors.append(random_complex(rng, int(np.prod(dims[nlocal:]))))
    amp = kron_list([v.reshape(-1, 1) for v in vectors]).reshape(-1)
    psi = PureState(SystemShape(dims), amp / np.linalg.norm(amp))
    phi, _ = make_equivalent_pair(psi, 8)
    for first, second in ((phi, psi), (psi, phi)):
        verdict = checked_pure(first, second)
        assert verdict.outcome == "Equivalent", verdict.reason
        assert "remainder equivalent" in verdict.reason


def test_refused_lift_is_inconclusive(monkeypatch):
    # a lifted witness that the oracle refuses ends as a remainder that
    # could not be connected, never as Equivalent
    rng = np.random.default_rng(9)
    amp = np.kron(random_complex(rng, 2), random_complex(rng, 4))
    psi = PureState(THREE_QUBITS, amp / np.linalg.norm(amp))
    phi, _ = make_equivalent_pair(psi, 10)
    monkeypatch.setattr(pure, "lift_supports", lambda splits, inner: [np.eye(2)] * 3)
    verdict = checked_pure(phi, psi)
    assert verdict.outcome == "Inconclusive"
    assert verdict.reason == "party 1 factors out but the remainder is inconclusive"


def _bell_pairs(pairs, k):
    """|0> on qubit 0 and |Phi+> on each listed pair of the other qubits."""
    amp = np.zeros(2 ** k, dtype=complex)
    for bits in range(2 ** len(pairs)):
        idx = [0] * k
        for j, (p, q) in enumerate(pairs):
            idx[p] = idx[q] = (bits >> j) & 1
        amp[int("".join(map(str, idx)), 2)] = 1.0
    return PureState(SystemShape((2,) * k), amp / np.linalg.norm(amp))


def test_remainder_inequivalent_after_factoring():
    # beyond six parties only single-party cuts are screened, and those
    # agree here; the two-qubit cut of the six-qubit remainder tells the
    # pairings apart
    phi = _bell_pairs([(1, 2), (3, 4), (5, 6)], 7)
    psi = _bell_pairs([(1, 3), (2, 4), (5, 6)], 7)
    for first, second, ranks in ((phi, psi, "1 vs 4"), (psi, phi, "4 vs 1")):
        verdict = checked_pure(first, second)
        assert verdict.outcome == "Inequivalent"
        assert verdict.reason == (
            f"after factoring party 1: rank signature differs on cut (1, 2) ({ranks})"
        )


def test_product_with_undecided_remainder_is_inconclusive():
    rest = random_pure((2, 2, 3), 0)
    psi = PureState(SystemShape((2, 2, 2, 3)), np.kron([1.0, 0.0], rest.amplitudes))
    phi, _ = make_equivalent_pair(psi, 100)
    for first, second in ((phi, psi), (psi, phi)):
        verdict = checked_pure(first, second)
        assert verdict.outcome == "Inconclusive"
        assert verdict.reason == "party 1 factors out but the remainder is inconclusive"


def test_ghz_w_guard():
    assert checked_pure(GHZ3, W3).outcome == "Inconclusive"
    assert checked_pure(W3, GHZ3).outcome == "Inconclusive"


def test_swapping_arguments_never_contradicts():
    pairs = [
        (GHZ3, W3),
        fixtures(4),
        (random_pure((2, 2, 2), 21), random_pure((2, 2, 2), 22)),
    ]
    psi = random_pure((2, 2, 2), 23)
    phi, _ = make_equivalent_pair(psi, 24)
    pairs.append((phi, psi))
    for a, b in pairs:
        fwd = checked_pure(a, b).outcome
        rev = checked_pure(b, a).outcome
        assert {fwd, rev} != {"Equivalent", "Inequivalent"}


def test_check_bipartite_refuses_other_shapes_and_party_counts():
    with pytest.raises(ValueError, match="different shapes"):
        check_bipartite(random_pure((2, 2), 0), random_pure((2, 3), 1))
    with pytest.raises(ValueError, match="exactly two parties"):
        check_bipartite(GHZ3, GHZ3)


def test_bipartite_verdict_takes_one_svd_per_state(monkeypatch):
    # the numerical ranks, their decisiveness and the witness all read the
    # same decomposition of each coefficient matrix; the two calls after
    # those are the oracle's condition numbers of the 2x2 and 3x3 factors
    phi = _schmidt_state(2, 3, 2, 20)
    psi = _schmidt_state(2, 3, 2, 21)
    calls = []
    inner = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return inner(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    verdict = check_bipartite(phi, psi)
    assert verdict.outcome == "Equivalent"
    assert calls == [(2, 3), (2, 3), (2, 2), (3, 3)]


def test_bipartite_equal_schmidt_rank_is_equivalent():
    for m, n, rank, seed in [(2, 2, 2, 0), (3, 3, 2, 1), (4, 4, 3, 2), (2, 4, 2, 3)]:
        phi = _schmidt_state(m, n, rank, 2 * seed)
        psi = _schmidt_state(m, n, rank, 2 * seed + 1)
        verdict = check_bipartite(phi, psi)
        assert verdict.outcome == "Equivalent"
        verified = checked_pure(phi, psi)
        assert verified.outcome == "Equivalent"


def test_bipartite_unequal_schmidt_rank_is_inequivalent():
    phi = _schmidt_state(3, 3, 3, 50)
    psi = _schmidt_state(3, 3, 2, 51)
    verdict = check_bipartite(phi, psi)
    assert verdict.outcome == "Inequivalent"
    assert "rank" in verdict.reason


def test_product_vs_entangled_is_inequivalent():
    product = PureState(SystemShape((2, 2)), np.array([1.0, 0, 0, 0]))
    bell = PureState(SystemShape((2, 2)), np.array([1.0, 0, 0, 1.0]) / np.sqrt(2))
    verdict = checked_pure(product, bell)
    assert verdict.outcome == "Inequivalent"


def _near_product_pair(k: int):
    """(|0...0> + 3e-9 |1...1>)/norm and its image under I (x) ... (x)
    diag(1, 0.01): every cut has a second singular value inside the
    indecision band, so no rank separates the pair."""
    amp = np.zeros(2 ** k, dtype=complex)
    amp[0], amp[-1] = 1.0, 3e-9
    image = kron_list([np.eye(2)] * (k - 1) + [np.diag([1.0, 0.01])]) @ amp
    shape = SystemShape((2,) * k)
    return (PureState(shape, amp / np.linalg.norm(amp)),
            PureState(shape, image / np.linalg.norm(image)))


@pytest.mark.parametrize("k", [2, 3])
def test_borderline_ranks_are_never_inequivalent(k):
    phi, psi = _near_product_pair(k)
    for a, b in ((phi, psi), (psi, phi)):
        assert checked_pure(a, b).outcome != "Inequivalent"
    # an exact product state has a decisive rank but phi's is borderline, and
    # the pair's exact ranks differ, so no witness may be accepted either
    product = PureState(phi.shape, np.eye(2 ** k)[0])
    for a, b in ((phi, product), (product, phi)):
        assert checked_pure(a, b).outcome == "Inconclusive"
        if k == 2:
            assert check_bipartite(a, b).outcome == "Inconclusive"


def test_local_unitary_four_qubit_images_are_inconclusive():
    """Random four-qubit states against their images under random local
    unitaries. No constructive route covers this class, so the pairs are
    refused; this pins that known gap, and a route that closes it turns the
    expected outcome into Equivalent."""
    rng = np.random.default_rng(31)
    dims = (2, 2, 2, 2)
    for seed in range(5):
        psi = random_pure(dims, 400 + seed)
        local = kron_list([np.linalg.qr(random_complex(rng, 2, 2))[0] for _ in dims])
        phi = PureState(SystemShape(dims), local @ psi.amplitudes)
        verdict = checked_pure(phi, psi)
        assert verdict.outcome == "Inconclusive"
        assert verdict.reason == "no verifiable connector found in the computed frames"


def test_non_finite_amplitudes_are_rejected():
    with pytest.raises(ValueError):
        PureState(SystemShape((2,)), np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        PureState(SystemShape((2,)), np.array([np.inf, 0.0]))


def test_shape_mismatch_is_rejected():
    a = random_pure((2, 2), 60)
    b = random_pure((2, 3), 61)
    with pytest.raises(ValueError):
        check_pure_equivalence(a, b)


def test_check_requires_tagged_states():
    psi = random_pure((2, 2), 62)
    for args in ((psi.amplitudes, psi.amplitudes), (psi, psi.amplitudes), (psi.amplitudes, psi)):
        with pytest.raises(ValueError, match="expects PureState inputs"):
            check_pure_equivalence(*args)


def _schmidt_state(m: int, n: int, rank: int, seed: int) -> PureState:
    rng = np.random.default_rng(7000 + seed)
    u = np.linalg.qr(random_complex(rng, m, m))[0]
    v = np.linalg.qr(random_complex(rng, n, n))[0]
    weights = rng.uniform(0.2, 1.0, rank)
    c = u[:, :rank] @ np.diag(weights) @ v[:, :rank].conj().T
    amp = c.reshape(-1)
    return PureState(SystemShape((m, n)), amp / np.linalg.norm(amp))
