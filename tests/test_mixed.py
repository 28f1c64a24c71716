"""Tests for spectral preparation, gauge search, filtering, and mixed verdicts."""

import numpy as np
import pytest

from statekit import mixed
from statekit.factor import NotDecomposable, extract_factors
from statekit.factor import kron as kron_factors
from statekit.linalg import SystemShape, kron_list, realign_inverse
from statekit.mixed import (
    MixedState,
    _rank1_project,
    _ratio_complete,
    check_mixed_equivalence,
    cluster_pairings,
    gauge_search,
    invariant_screen,
    normal_form,
    spectral_prep,
)
from statekit.oracle import FixtureParams, fixtures, make_equivalent_pair
from util import checked_mixed, random_complex, random_density

TWO_QUBITS = SystemShape((2, 2))
THREE_QUBITS = SystemShape((2, 2, 2))


def test_state_validation():
    bad_herm = np.eye(4, dtype=complex)
    bad_herm[0, 1] = 1.0
    with pytest.raises(ValueError):
        MixedState(TWO_QUBITS, bad_herm / 4.0)
    with pytest.raises(ValueError):
        MixedState(TWO_QUBITS, np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
    with pytest.raises(ValueError):
        MixedState(TWO_QUBITS, np.eye(4, dtype=complex) / 2.0)
    with pytest.raises(ValueError):
        MixedState(TWO_QUBITS, np.eye(8, dtype=complex) / 8.0)


def test_non_finite_density_is_rejected():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[1, 2] = rho[2, 1] = np.nan
    with pytest.raises(ValueError):
        MixedState(TWO_QUBITS, rho)


def test_spectral_prep_full_corner_spectrum():
    a, b, c = 0.45, 0.4, 0.3
    state, _ = fixtures(2, FixtureParams(a=a, b=b, c=c, alpha=0.9, beta=0.8, gamma=0.6))
    k = 2 + a + b + c + 1 / a + 1 / b + 1 / c
    expected = np.array([1 / c, 1 / b, 1 / a, 2.0, a, b, c, 0.0]) / k
    data = spectral_prep(state.rho)
    assert np.allclose(data.eigvals, expected, atol=1e-12)
    assert data.support_rank == 7
    assert np.all(np.diff(data.eigvals) <= 0)


def test_spectral_prep_half_corner_spectrum():
    a, b, c = 0.64, 0.58, 0.54
    state, _ = fixtures(3, FixtureParams(a=a, b=b, c=c))
    k = 2 + a + b + c + 1 / a + 1 / b + 1 / c
    expected = np.array([1 / c, 1 / b, 1 / a, 1.5, a, b, c, 0.5]) / k
    data = spectral_prep(state.rho)
    assert np.allclose(data.eigvals, expected, atol=1e-12)
    assert data.support_rank == 8


def test_spectral_prep_reconstructs_and_clusters():
    rho = np.diag([0.4, 0.4, 0.2, 0.0]).astype(complex)
    data = spectral_prep(rho)
    assert data.support_rank == 3
    assert data.clusters == ((0, 1), (2,), (3,))
    q, w = data.eigvecs, data.eigvals
    assert np.allclose(q @ np.diag(w) @ q.conj().T, rho)


def test_gauge_search_result_satisfies_spectral_law():
    # rho1 = A rho2 A^dag / tr with A = u diag(1, 1.1 i) u^dag (x) v diag(1, 1.2) v^dag
    # keeps the eigenvalue order, so the raw eigenbases admit a diagonal
    # connector; its entries must satisfy |d_i|^2 mu_pi(i) = lambda_i
    rng = np.random.default_rng(5)
    u, v = (np.linalg.qr(random_complex(rng, 2, 2))[0] for _ in range(2))
    frame = np.kron(u, v)
    rho2 = frame @ np.diag([0.6, 0.25, 0.1, 0.05]) @ frame.conj().T
    a = np.kron(u @ np.diag([1.0, 1.1j]) @ u.conj().T, v @ np.diag([1.0, 1.2]) @ v.conj().T)
    rho1 = a @ rho2 @ a.conj().T
    s1 = spectral_prep(rho1 / np.trace(rho1).real)
    s2 = spectral_prep(rho2)
    result = gauge_search(
        s1.eigvecs, s2.eigvecs, s1.support_rank, (2, 2),
        eigvals=(s1.eigvals, s2.eigvals), pairings=cluster_pairings(s1.clusters),
    )
    assert result is not None and max(result.per_cut) <= 1e-8
    d = np.abs(result.diagonal)
    assert np.allclose(d * d * s2.eigvals[list(result.pairing)], s1.eigvals, rtol=1e-10)


def test_gauge_search_identity_frames():
    lam = np.array([0.4, 0.3, 0.2, 0.1])
    s = spectral_prep(np.diag(lam).astype(complex))
    eye = np.eye(4, dtype=complex)
    result = gauge_search(
        eye, eye, s.support_rank, (2, 2), eigvals=(s.eigvals, s.eigvals), seed=0
    )
    assert result is not None
    assert max(result.per_cut) <= 1e-8
    assert np.allclose(np.abs(result.diagonal), 1.0)
    assert np.allclose(result.connector, eye)


@pytest.mark.parametrize("p,q", [(4, 9), (9, 4), (4, 64), (3, 3)])
def test_rank1_projection_matches_svd_truncation(p, q):
    rng = np.random.default_rng(p * 100 + q)
    stack = random_complex(rng, 6, 2, p, q)
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    truncated = s[..., :1, None] * u[..., :, :1] @ vh[..., :1, :]
    assert np.max(np.abs(_rank1_project(stack) - truncated)) <= 1e-12


def test_gauge_search_is_deterministic():
    # a product of local unitaries behind random column phases: stage (b)
    # must find the compensating phases
    rng = np.random.default_rng(7)
    dims = (2, 2, 2)
    local = kron_list([np.linalg.qr(random_complex(rng, 2, 2))[0] for _ in dims])
    x = local * np.exp(2j * np.pi * rng.random(8))
    eye = np.eye(8, dtype=complex)
    ones = np.ones(8)
    first = gauge_search(x, eye, 8, dims, eigvals=(ones, ones), seed=3)
    second = gauge_search(x, eye, 8, dims, eigvals=(ones, ones), seed=3)
    assert first is not None and max(first.per_cut) <= 1e-8
    assert not np.allclose(first.diagonal, 1.0)
    assert first.connector.tobytes() == second.connector.tobytes()


def test_gauge_search_accepts_only_connectors_that_extract():
    # realignment sigma_2 / sigma_1 = 5e-8 on both cuts: small enough for a
    # summed-squares rule to pass, above RANK1_ACCEPT, so extraction refuses
    # it; the search may only return a connector whose factors extract
    rng = np.random.default_rng(5)
    u = np.linalg.qr(random_complex(rng, 4, 2))[0]
    v = np.linalg.qr(random_complex(rng, 9, 2))[0]
    a = realign_inverse(u @ np.diag([1.0, 5e-8]) @ v.T, 2, 3)
    with pytest.raises(NotDecomposable):
        extract_factors(a, (2, 3))
    ones = np.ones(6)
    result = gauge_search(a, np.eye(6, dtype=complex), 6, (2, 3), eigvals=(ones, ones))
    if result is not None:
        fs = extract_factors(result.connector, (2, 3))
        assert fs.scale == result.factors.scale
        assert all(np.array_equal(f, g) for f, g in zip(fs.factors, result.factors.factors))


def test_cluster_pairings_identity_first():
    pairings = cluster_pairings([(0, 1), (2,)])
    assert pairings[0] == (0, 1, 2)
    assert set(pairings) == {(0, 1, 2), (1, 0, 2)}


def test_cluster_pairings_refuses_large_clusters():
    assert cluster_pairings([tuple(range(5))]) is None
    # 24^3 pairings exceed PAIRING_BUDGET
    assert cluster_pairings([(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]) is None


def test_ratio_completion_fills_kernel_entry():
    diag = np.diag(kron_list([np.diag([1.0, 2.0]), np.diag([1.0, 3.0]), np.diag([1.0, 5.0])])).copy()
    pinned = diag.astype(complex)
    pinned[7] = np.nan
    filled, ratio = _ratio_complete(pinned, (2, 2, 2), kernel=[7])
    assert filled is not None
    assert np.isclose(complex(filled[7]).real, diag[7].real)
    assert np.isclose(complex(ratio), 2.0)


def test_ratio_completion_requires_known_leading_row():
    pinned = np.array([np.nan, 1.0, 1.0, 1.0], dtype=complex)
    filled, ratio = _ratio_complete(pinned, (2, 2), kernel=[0])
    assert filled is None and ratio is None


def test_ratio_completion_refuses_inconsistent_rows():
    # second row is not proportional to the first on its known entries
    pinned = np.array([1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 7.0, np.nan], dtype=complex)
    filled, _ = _ratio_complete(pinned, (2, 4), kernel=[7])
    assert filled is None


def test_invariant_screen_global_rank():
    rank2 = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    full = random_density((2, 2), 3).rho
    message = invariant_screen(rank2, full, (2, 2))
    assert message is not None and "global rank" in message


def test_invariant_screen_reduced_rank():
    # equal global ranks, different single-party reduced ranks
    rho_a = kron_list([np.diag([1.0, 0.0]), np.eye(2) / 2.0])
    rho_b = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    message = invariant_screen(rho_a, rho_b, (2, 2))
    assert message is not None and "party 1" in message


def test_invariant_screen_passes_constructed_pairs():
    for seed in range(6):
        base = random_density((2, 2, 2), 400 + seed)
        other, _ = make_equivalent_pair(base, 500 + seed)
        assert invariant_screen(base.rho, other.rho, (2, 2, 2)) is None


def test_normal_form_reaches_maximally_mixed_marginals():
    base = random_density((2, 2), 8)
    out = normal_form(base.rho, (2, 2))
    assert out is not None
    filtered, filters = out
    big = kron_list(filters)
    image = big @ base.rho @ big.conj().T
    assert np.allclose(filtered, image / np.trace(image).real)
    from statekit.linalg import partial_trace_keep

    for party in (1, 2):
        red = partial_trace_keep(filtered, (2, 2), party)
        assert np.linalg.norm(2.0 * red - np.eye(2)) <= 1e-9


def test_normal_form_fixed_point_of_balanced_state():
    state, _ = fixtures(1, FixtureParams(lam=(0.4, 0.3, 0.2, 0.1), mu=(0.25,) * 4))
    out = normal_form(state.rho, (2, 2))
    assert out is not None
    filtered, filters = out
    assert np.linalg.norm(filtered - state.rho) <= 1e-10
    for f in filters:
        scaled = f / np.linalg.norm(f) * np.sqrt(2.0)
        assert np.allclose(scaled, np.eye(2))


def test_normal_form_refuses_singular_marginal():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert normal_form(rho, (2, 2)) is None


def test_check_requires_tagged_states():
    rho = random_density((2, 2), 9)
    with pytest.raises(ValueError):
        check_mixed_equivalence(rho.rho, rho.rho)
    other = random_density((2, 2, 2), 10)
    with pytest.raises(ValueError):
        check_mixed_equivalence(rho, other)


def test_reflexivity():
    state = random_density((2, 2), 11)
    verdict = checked_mixed(state, state)
    assert verdict.outcome == "Equivalent"


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2)])
def test_constructed_pairs_are_recovered(dims):
    for seed in range(3):
        base = random_density(dims, 600 + seed)
        other, _ = make_equivalent_pair(base, 700 + seed)
        verdict = checked_mixed(base, other, seed=seed)
        assert verdict.outcome == "Equivalent", verdict.reason


def test_raw_support_mismatch_with_converging_filter_is_equivalent():
    # the local map pushes the smallest eigenvalue of the image just below
    # the support cutoff (raw support ranks 4 vs 3) while both ranks stay
    # borderline, so the filtered frames decide and the refine pass, which
    # needs equal raw support ranks, must step aside
    base = random_density((2, 2), 0)
    a = kron_list([np.diag([1.0, 0.003])] * 2)
    image = a @ base.rho @ a.conj().T
    image = (image + image.conj().T) / (2.0 * np.trace(image).real)
    other = MixedState(TWO_QUBITS, image)
    assert spectral_prep(base.rho).support_rank == 4
    assert spectral_prep(other.rho).support_rank == 3
    verdict = checked_mixed(base, other)
    assert verdict.outcome == "Equivalent", verdict.reason


def _conjugated(rho, a):
    image = a @ rho @ a.conj().T
    return MixedState(TWO_QUBITS, image / np.trace(image).real)


def test_product_state_without_normal_form_is_decided_over_eigenbases():
    # |0><0| (x) diag(0.7, 0.3) has a singular reduced matrix, so neither
    # state filters, and only the raw-eigenbasis search can certify the pair
    rho = np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex)
    base = MixedState(TWO_QUBITS, rho)
    other = _conjugated(rho, np.kron(np.diag([1.0, 2.0]), np.diag([1.0, 0.5j])))
    assert normal_form(base.rho, (2, 2)) is None
    assert normal_form(other.rho, (2, 2)) is None
    for first, second in ((base, other), (other, base)):
        verdict = checked_mixed(first, second)
        assert verdict.outcome == "Equivalent", verdict.reason
        assert verdict.reason == "decomposable connector over eigenbases"
    # a map that is not diagonal in the eigenbases is not found there; the
    # pair must still never be called Inequivalent, and a refusal names the
    # failed filtering
    other = _conjugated(rho, np.kron(np.eye(2), np.array([[1.0, 0.4], [0.2, 1.0]])))
    for first, second in ((base, other), (other, base)):
        verdict = checked_mixed(first, second)
        assert verdict.outcome != "Inequivalent", verdict.reason
        if verdict.outcome == "Inconclusive":
            assert verdict.reason == "filtering did not converge (rank-deficient state)"


def test_rank_mismatch_is_inequivalent():
    rank2 = MixedState(TWO_QUBITS, np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    full = random_density((2, 2), 12)
    verdict = checked_mixed(rank2, full)
    assert verdict.outcome == "Inequivalent"
    assert "rank" in verdict.reason


def test_failed_search_is_inconclusive_with_evidence():
    pair = fixtures(2, FixtureParams(a=0.3, b=0.4, c=0.5, alpha=0.6, beta=1.6, gamma=4.05))
    verdict = checked_mixed(*pair)
    assert verdict.outcome == "Inconclusive"
    assert verdict.witness is None
    assert verdict.reason


def test_swapping_arguments_never_contradicts():
    pairs = [
        fixtures(2, FixtureParams(a=0.3, b=0.4, c=0.5, alpha=0.6, beta=1.6, gamma=4.0)),
        (random_density((2, 2), 13), random_density((2, 2), 14)),
    ]
    base = random_density((2, 2, 2), 15)
    other, _ = make_equivalent_pair(base, 16)
    pairs.append((base, other))
    for a, b in pairs:
        fwd = checked_mixed(a, b).outcome
        rev = checked_mixed(b, a).outcome
        assert {fwd, rev} != {"Equivalent", "Inequivalent"}



def test_search_count_per_verdict(monkeypatch):
    calls = []
    inner = mixed.gauge_search

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(mixed, "gauge_search", counted)
    # a random connector is not near monomial in the raw eigenbases, so the
    # filtered-frame search is the only one
    base = random_density((2, 2, 2), 17)
    other, _ = make_equivalent_pair(base, 18)
    verdict = checked_mixed(base, other)
    assert verdict.reason == "connector composed through filtered frames"
    assert len(calls) == 1
    lam = (0.4, 0.3, 0.2, 0.1)
    reference = [
        fixtures(2, FixtureParams(a=0.3, b=0.4, c=0.5, alpha=0.6, beta=1.6, gamma=4.0)),
        fixtures(2, FixtureParams(a=0.3, b=0.4, c=0.5, alpha=0.6, beta=1.6, gamma=4.05)),
        fixtures(3, FixtureParams(a=0.7, b=0.8, c=1.2)),
        fixtures(3, FixtureParams(a=0.3, b=1.8, c=0.9)),
        fixtures(1, FixtureParams(lam=lam, mu=(0.2, 0.1, 0.4, 0.3))),
        fixtures(1, FixtureParams(lam=lam, mu=(0.3, 0.4, 0.2, 0.1))),
    ]
    for pair in reference:
        calls.clear()
        checked_mixed(*pair)
        assert len(calls) <= 2
    # a filtered-spectrum mismatch ends the verdict before any search
    calls.clear()
    verdict = checked_mixed(*reference[1])
    assert verdict.reason == "filtered spectra mismatch"
    assert len(calls) == 0
    # a degenerate filtered spectrum skips the filtered-frame search, and the
    # raw-eigenbasis search certifies the pair
    calls.clear()
    verdict = checked_mixed(*reference[2])
    assert verdict.reason == "decomposable connector over eigenbases"
    assert len(calls) == 1
