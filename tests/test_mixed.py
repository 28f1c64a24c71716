"""Tests for spectral preparation, gauge search, filtering, and mixed verdicts."""

import numpy as np
import pytest

from statekit import mixed
from statekit.factor import NotDecomposable, extract_factors
from statekit.factor import kron as kron_factors
from statekit.linalg import SystemShape, kron_list, partial_trace_keep, realign_inverse
from statekit.mixed import (
    MixedState,
    _covariant_unitaries,
    _party_covariants,
    _phase_fix_columns,
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
from util import W3, checked_mixed, random_complex, random_density

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


def _phase_fix_loop(v):
    """The column gauge one column at a time, as a reference."""
    v = np.array(v, dtype=complex)
    for j in range(v.shape[1]):
        col = v[:, j]
        piv = col[int(np.argmax(np.abs(col)))]
        if abs(piv) > 0.0:
            v[:, j] = col * (abs(piv) / piv)
    return v


def test_phase_fix_matches_the_column_loop_bit_for_bit():
    rng = np.random.default_rng(21)
    for trial in range(400):
        rows, cols = rng.integers(1, 17, size=2)
        v = random_complex(rng, rows, cols)
        if trial % 3 == 0:
            v *= 10.0 ** rng.uniform(-300, 300, size=(rows, cols))
        if trial % 4 == 0:
            v = v.real.astype(complex)
        # zero columns, one of negative zeros, keep their bits
        v[:, rng.integers(cols)] = 0.0
        v[:, rng.integers(cols)] = complex(-0.0, -0.0)
        assert _phase_fix_columns(v).tobytes() == _phase_fix_loop(v).tobytes()


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


def _normal_form_reference(rho, dims):
    """normal_form with the filter built through np.diag and applied by
    tensordot over the party's row and column axes of the full tensor."""
    k = len(dims)
    r = np.asarray(rho, dtype=complex)
    r = r / np.trace(r).real
    filters = [np.eye(d, dtype=complex) for d in dims]
    best = np.inf
    since_gain = 0
    for _ in range(mixed.FILTER_SWEEPS):
        dev = 0.0
        for party in range(k):
            red = partial_trace_keep(r, dims, party + 1)
            dev = max(dev, float(np.linalg.norm(dims[party] * red - np.eye(dims[party]))))
            w, v = np.linalg.eigh(red)
            if float(w.min()) < 1e-14:
                return None
            f = v @ np.diag((dims[party] * w) ** -0.5) @ v.conj().T
            t = r.reshape(dims + dims)
            t = np.moveaxis(np.tensordot(f, t, axes=(1, party)), 0, party)
            t = np.moveaxis(np.tensordot(t, f.conj(), axes=(k + party, 1)), -1, k + party)
            r = t.reshape(r.shape)
            r = r / np.trace(r).real
            filters[party] = f @ filters[party]
        if dev < mixed.FILTER_TOL:
            return r, filters
        if dev < 0.9 * best:
            best = dev
            since_gain = 0
        else:
            since_gain += 1
            if since_gain > 200 and dev < mixed.FILTER_SOFT_TOL:
                return r, filters
    return None


@pytest.mark.parametrize("dims", [(2, 3, 2), (2, 2, 2, 2)])
def test_normal_form_matches_tensordot_reference(dims):
    n = int(np.prod(dims))
    rng = np.random.default_rng(n)
    states = [random_density(dims, 800 + i).rho for i in range(3)]
    g = random_complex(rng, n, 2)
    states.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    # a pure first party leaves its reduced matrix singular: no normal form
    rest = random_density(dims[1:], 810).rho
    states.append(np.kron(np.diag([1.0, 0.0]), rest).astype(complex))
    for rho in states:
        got = normal_form(rho, dims)
        want = _normal_form_reference(rho, dims)
        assert (got is None) == (want is None)
        if want is None:
            continue
        for a, b in zip((got[0], *got[1]), (want[0], *want[1])):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
    assert normal_form(states[-1], dims) is None


def _counted_eigh(monkeypatch):
    """Patch np.linalg.eigh to count its calls: one per party per sweep in
    normal_form and in its reference."""
    calls = [0]
    inner = np.linalg.eigh

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def _slow_two_qubit_state():
    # a rank-two state plus a little of the identity filters slowly
    g = random_complex(np.random.default_rng(1), 4, 2)
    rho = g @ g.conj().T + 0.03 * np.eye(4)
    return rho / np.trace(rho).real


@pytest.mark.parametrize("dims", [(2, 3, 2), (2, 2, 2, 2), (2, 2)], ids=lambda d: "x".join(map(str, d)))
def test_normal_form_runs_the_reference_sweeps(monkeypatch, dims):
    # the deviation read off the eigenvalues, the fixed reshape shapes and
    # one trace renormalization per sweep stop on the same sweep as the
    # reference and agree with it
    if dims == (2, 2):
        states = [_slow_two_qubit_state()]
    else:
        states = [random_density(dims, 820 + i).rho for i in range(3)]
    calls = _counted_eigh(monkeypatch)
    for rho in states:
        calls[0] = 0
        got = normal_form(rho, dims)
        steps = calls[0]
        calls[0] = 0
        want = _normal_form_reference(rho, dims)
        assert got is not None and want is not None
        assert steps == calls[0]
        if dims == (2, 2):
            assert steps > 80 * len(dims)
        for a, b in zip((got[0], *got[1]), (want[0], *want[1])):
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


def test_w_projector_has_no_normal_form_and_warns_nothing():
    # W's marginals stay 0.87 from maximally mixed while its filters grow
    # without bound; the filtering ends at the no-gain plateau, before the
    # filters overflow (pytest turns any warning into an error)
    w = MixedState(THREE_QUBITS, np.outer(W3.amplitudes, W3.amplitudes.conj()))
    assert normal_form(w.rho, (2, 2, 2)) is None
    verdict = checked_mixed(w, w)
    assert verdict.outcome == "Inconclusive"
    assert "filtering did not converge (marginals stay short of maximally mixed)" in verdict.reason
    assert "rank-deficient" not in verdict.reason


def test_normal_form_refuses_singular_marginal():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert normal_form(rho, (2, 2)) is None


def test_check_requires_tagged_states():
    rho = random_density((2, 2), 9)
    for args in ((rho.rho, rho.rho), (rho, rho.rho), (rho.rho, rho)):
        with pytest.raises(ValueError, match="expects MixedState inputs"):
            check_mixed_equivalence(*args)
    other = random_density((2, 2, 2), 10)
    with pytest.raises(ValueError, match="different shapes"):
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
    filtered = "connector composed through filtered frames"
    raw = "decomposable connector over eigenbases"
    # the covariant solve certifies a (2,2,2) pair with no search; a (2,2)
    # normal form has no covariant that fixes the local unitary, so the
    # filtered-frame search runs once
    for dims, seeds, searches in (((2, 2, 2), (17, 18), 0), ((2, 2), (20, 21), 1)):
        calls.clear()
        base = random_density(dims, seeds[0])
        other, _ = make_equivalent_pair(base, seeds[1])
        verdict = checked_mixed(base, other)
        assert verdict.reason == filtered
        assert len(calls) == searches
    lam = (0.4, 0.3, 0.2, 0.1)
    # (pair, searches, reason): a connector certified in the filtered frames
    # is the verdict, so the raw-eigenbasis search runs only where filtering
    # certified nothing, and at most once
    reference = [
        # the covariant solve certifies the matched corner pair with no search
        (fixtures(2, FixtureParams(a=0.3, b=0.4, c=0.5, alpha=0.6, beta=1.6, gamma=4.0)),
         0, filtered),
        # a filtered-spectrum mismatch ends the verdict before any search
        (fixtures(2, FixtureParams(a=0.3, b=0.4, c=0.5, alpha=0.6, beta=1.6, gamma=4.05)),
         0, "filtered spectra mismatch"),
        # a degenerate filtered spectrum skips the filtered-frame search, and
        # the raw-eigenbasis search certifies the pair
        (fixtures(3, FixtureParams(a=0.7, b=0.8, c=1.2)), 1, raw),
        (fixtures(3, FixtureParams(a=0.3, b=1.8, c=0.9)), 1, raw),
        # two-qubit covariants fix no unitary, so the filtered-frame search runs
        (fixtures(1, FixtureParams(lam=lam, mu=(0.2, 0.1, 0.4, 0.3))), 1, filtered),
        (fixtures(1, FixtureParams(lam=lam, mu=(0.3, 0.4, 0.2, 0.1))), 1, filtered),
    ]
    verdicts = []
    for pair, searches, reason in reference:
        calls.clear()
        verdicts.append(checked_mixed(*pair))
        assert verdicts[-1].reason == reason
        assert len(calls) == searches
    # the matched corner pair's kernel ratio is read off the filtered connector
    assert abs(verdicts[0].kernel_ratio - 0.25) <= 1e-9


def _recorded_als(monkeypatch):
    """Patch mixed._als to record the number of rows of every batch."""
    sizes = []
    inner = mixed._als

    def recorded(d, *args):
        sizes.append(d.shape[0])
        return inner(d, *args)

    monkeypatch.setattr(mixed, "_als", recorded)
    return sizes


def _filtered_frames(dims, seeds):
    """Spectral data of the normal forms of random_density(dims, seeds[0])
    and of its image under make_equivalent_pair(..., seeds[1]): the frames
    of the filtered-frame search in check_mixed_equivalence."""
    base = random_density(dims, seeds[0])
    other, _ = make_equivalent_pair(base, seeds[1])
    return [spectral_prep(normal_form(s.rho, dims)[0]) for s in (base, other)]


def _filtered_search(dims, seeds):
    t1, t2 = _filtered_frames(dims, seeds)
    return gauge_search(
        t1.eigvecs, t2.eigvecs, t1.support_rank, dims, eigvals=(t1.eigvals, t2.eigvals), seed=0,
    )


def test_stage_b_starts_with_one_start(monkeypatch):
    sizes = _recorded_als(monkeypatch)
    assert _filtered_search((2, 2, 2), (17, 18)) is not None
    assert sizes and sizes[0] == 1


def test_later_start_matches_one_batch_of_every_start(monkeypatch):
    # filtered frames of a (2,3) pair whose first starts all miss
    dims = (2, 3)
    n = 6
    t1, t2 = _filtered_frames(dims, (900, 950))
    assert t1.support_rank == n
    full_als = mixed._als
    sizes = _recorded_als(monkeypatch)
    result = gauge_search(
        t1.eigvecs, t2.eigvecs, n, dims, eigvals=(t1.eigvals, t2.eigvals), seed=0,
    )
    assert result is not None and sum(sizes) > 2
    # the same starts as one (N_STARTS, n) batch, first accepted in start order
    pin = np.sqrt(t1.eigvals / t2.eigvals).astype(complex)
    rng = np.random.default_rng(0)
    starts = np.tile(pin, (mixed.N_STARTS, 1))
    starts[1:] *= np.exp(2j * np.pi * rng.random((mixed.N_STARTS - 1, n)))
    pencil, groups = mixed._cut_pencil(t1.eigvecs, t2.eigvecs, dims)
    pinv_t = mixed._lstsq_pinv(pencil.T).T
    supm = np.ones(n, dtype=bool)
    for d in full_als(starts, pencil, groups, pinv_t, supm, pin):
        try:
            extract_factors((t1.eigvecs * d) @ t2.eigvecs.conj().T, dims)
        except NotDecomposable:
            continue
        break
    else:
        pytest.fail("no start of the full batch is accepted")
    assert result.pairing == tuple(range(n))
    assert np.max(np.abs(result.diagonal - d)) <= 1e-10


def test_missed_search_runs_every_start_per_pairing(monkeypatch):
    # a generic unitary is no product of local factors behind any diagonal
    sizes = _recorded_als(monkeypatch)
    x = np.linalg.qr(random_complex(np.random.default_rng(3), 4, 4))[0]
    ones = np.ones(4)
    pairings = [(0, 1, 2, 3), (1, 0, 2, 3)]
    result = gauge_search(
        x, np.eye(4, dtype=complex), 4, (2, 2), eigvals=(ones, ones), pairings=pairings,
    )
    assert result is None
    assert sizes == [1, 1, 2, 4, 8, 16] * len(pairings)
    assert sum(sizes) == mixed.N_STARTS * len(pairings)


def _recorded_gaps(monkeypatch):
    """Patch mixed._rank1_stack to record, per ALS iteration, each row's gap
    relative to its rank-one target."""
    gaps = []
    inner = mixed._rank1_stack

    def recorded(y, groups):
        target = inner(y, groups)
        gaps.append(np.linalg.norm(y - target, axis=1) / np.linalg.norm(target, axis=1))
        return target

    monkeypatch.setattr(mixed, "_rank1_stack", recorded)
    return gaps


@pytest.mark.parametrize("dims,seeds,iters", [
    pytest.param((2, 2, 2), (17, 18), 33, id="2x2x2"),
    pytest.param((2, 2), (20, 21), 3, id="2x2"),
])
def test_accepted_row_stops_on_the_rounding_floor(monkeypatch, dims, seeds, iters):
    # the filtered-frame search of each pair, called directly since the
    # covariant solve certifies the (2,2,2) pair without it. Start 0 is
    # accepted, so every iteration is its row's. The (2,2,2) row gains about
    # 60% per iteration inside the acceptance band and runs down to the
    # 1e-13 stop; the (2,2) row lands on the floor at its second iteration
    # and must stop at the next, where the stall rule alone would idle to 28
    # iterations
    sizes = _recorded_als(monkeypatch)
    gaps = _recorded_gaps(monkeypatch)
    assert _filtered_search(dims, seeds) is not None
    assert sizes == [1]
    run = np.array([g[0] for g in gaps])
    assert run.size == iters
    enter = int(np.argmax(run <= mixed.RANK1_ACCEPT))
    assert run[enter] <= mixed.RANK1_ACCEPT
    best = np.minimum.accumulate(run)
    idle = int(np.sum(run[enter + 1:] >= best[enter:-1]))
    assert idle <= 1
    if dims == (2, 2):
        assert run.size - 1 - enter <= 2


# ALS iterations and filtering steps over four pairs per shape, as counted
# with numpy 2.4.6 and one OpenBLAS thread; an iteration or sweep that does
# nothing shows as a higher count. The covariant solve certifies the (2,3)
# and (2,2,2) pairs with no ALS at all (a search there ran 357 and 272
# iterations); without the rounding-floor stop the (2,2) ALS runs 112.
WORK_BUDGET = {(2, 2): (15, 468), (2, 3): (0, 488), (2, 2, 2): (0, 420)}


@pytest.mark.parametrize("dims", sorted(WORK_BUDGET), ids=lambda d: "x".join(map(str, d)))
def test_work_counts_stay_within_budget(monkeypatch, dims):
    gaps = _recorded_gaps(monkeypatch)
    steps = _counted_eigh(monkeypatch)
    filtering = [0]
    inner = mixed.normal_form

    def counted_normal_form(*args):
        before = steps[0]
        out = inner(*args)
        filtering[0] += steps[0] - before
        return out

    monkeypatch.setattr(mixed, "normal_form", counted_normal_form)
    for s in range(4):
        base = random_density(dims, 1100 + s)
        other, _ = make_equivalent_pair(base, 1200 + s)
        assert checked_mixed(base, other).outcome == "Equivalent"
    als_budget, filter_budget = WORK_BUDGET[dims]
    assert len(gaps) <= als_budget
    assert filtering[0] <= filter_budget


def _local_unitary_image(f, dims, rng):
    local = kron_list([np.linalg.qr(random_complex(rng, d, d))[0] for d in dims])
    return local @ f @ local.conj().T


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (2, 2, 2, 2)],
                         ids=lambda d: "x".join(map(str, d)))
def test_covariant_solve_recovers_the_local_unitary(dims):
    rng = np.random.default_rng(len(dims) * 100 + sum(dims))
    for seed in range(3):
        f1 = normal_form(random_density(dims, 1300 + seed).rho, dims)[0]
        f2 = _local_unitary_image(f1, dims, rng)
        u = kron_list(_covariant_unitaries(f1, f2, dims))
        assert np.linalg.norm(u @ f2 @ u.conj().T - f1) <= 1e-9 * np.linalg.norm(f1)


def test_covariant_solve_refuses_two_qubits():
    # every one-copy covariant of a two-qubit normal form is a multiple of I
    dims = (2, 2)
    f1 = normal_form(random_density(dims, 1310).rho, dims)[0]
    for party in range(2):
        for c in _party_covariants(f1, dims, party):
            assert np.linalg.norm(c - np.trace(c) / 2.0 * np.eye(2)) <= 1e-12 * np.linalg.norm(c)
    f2 = _local_unitary_image(f1, dims, np.random.default_rng(1311))
    assert _covariant_unitaries(f1, f2, dims) is None


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2)], ids=lambda d: "x".join(map(str, d)))
def test_covariant_solve_refuses_unrelated_states(dims):
    f1, f2 = (normal_form(random_density(dims, s).rho, dims)[0] for s in (1320, 1321))
    assert _covariant_unitaries(f1, f2, dims) is None


def test_seed_nine_r23_pair_is_equivalent():
    # pair r23-3 of the mixed-random benchmark workload at seed 9, drawn as
    # there: a random full-rank (2,3) state and its image under complex
    # Gaussian local factors with condition number at most 100. The
    # filtered-frame search missed it at every start
    dims = (2, 3)
    rng = np.random.default_rng([9, 3, 2])
    g = random_complex(rng, 6, 6)
    rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
    factors = []
    for d in dims:
        while True:
            f = random_complex(rng, d, d)
            s = np.linalg.svd(f, compute_uv=False)
            if s[0] / s[-1] <= 100.0:
                factors.append(f)
                break
    a = kron_list(factors)
    image = a @ rho @ a.conj().T
    base = MixedState(SystemShape(dims), rho)
    other = MixedState(SystemShape(dims), image / np.trace(image).real)
    for first, second in ((base, other), (other, base)):
        verdict = checked_mixed(first, second)
        assert verdict.outcome == "Equivalent", verdict.reason
        assert verdict.reason == "connector composed through filtered frames"


def test_rank_six_three_qubit_pair_is_equivalent():
    # a rank-6 (2,2,2) state has a degenerate (zero) filtered eigenvalue
    # pair, which leaves the filtered eigenbasis free; the covariants still
    # fix the local unitary
    g = random_complex(np.random.default_rng(1330), 8, 6)
    base = MixedState(THREE_QUBITS, g @ g.conj().T / np.trace(g @ g.conj().T).real)
    other, _ = make_equivalent_pair(base, 1331)
    for first, second in ((base, other), (other, base)):
        verdict = checked_mixed(first, second)
        assert verdict.outcome == "Equivalent", verdict.reason
        assert verdict.oracle_residual <= 1e-9


@pytest.mark.parametrize("dims, corners", [((2, 3), (0, 4)), ((2, 2, 2), (0, 7))],
                         ids=["2x3", "2x2x2"])
def test_phase_symmetric_pairs_are_certified_by_the_filtered_search(monkeypatch, dims, corners):
    # rho = diag(u) + |v><v| with v on |0...0> and |1...1> commutes with a
    # family of diagonal local phases, and so do its normal form and every
    # one-copy covariant: the covariants are diagonal, no entry fixes a
    # column phase, and the covariant solve returns None. The filtered
    # spectrum is not degenerate, so the filtered-frame search runs, and its
    # stage (b) connects the pair
    calls = []
    inner = mixed.gauge_search

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(mixed, "gauge_search", counted)
    n = int(np.prod(dims))
    for s in range(10):
        rng = np.random.default_rng(s)
        v = np.zeros(n, dtype=complex)
        rho = np.diag(rng.uniform(0.1, 1.0, n)).astype(complex)
        v[list(corners)] = random_complex(rng, 2)
        rho += np.outer(v, v.conj())
        base = MixedState(SystemShape(dims), rho / np.trace(rho).real)
        other, _ = make_equivalent_pair(base, 100 + s)
        f1, f2 = (normal_form(x.rho, dims)[0] for x in (base, other))
        assert _covariant_unitaries(f1, f2, dims) is None
        assert all(len(c) == 1 for c in spectral_prep(f1).clusters)
        for first, second in ((base, other), (other, base)):
            calls.clear()
            verdict = checked_mixed(first, second)
            assert verdict.outcome == "Equivalent", (s, verdict.reason)
            assert verdict.reason == "connector composed through filtered frames"
            assert len(calls) == 1
