"""Tests for spectral preparation, filtering, the closed-form local unitaries
and mixed verdicts."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statekit import mixed, oracle
from statekit.factor import canonicalize, decomposability, extract_factors, kron as kron_factors
from statekit.linalg import (SystemShape, decisive_rank, eigh_desc, kron_list, numerical_rank,
                             partial_trace_keep, rank_mismatch)
from statekit.mixed import (
    MixedState,
    NoNormalForm,
    _covariant_unitaries,
    _exp_half,
    _exp_sigma,
    _first_verdict,
    _hermitian_basis,
    _kernel_ratio,
    _party_covariants,
    _powers,
    _qubit_power,
    _sign_solutions,
    _torus_phases,
    _two_qubit_unitaries,
    check_mixed_equivalence,
    normal_form,
)
from statekit.oracle import FixtureParams, fixtures, make_equivalent_pair, random_ilo
from util import GHZ3, W3, checked_mixed, random_complex, random_density, w_image

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


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", [decomposability, extract_factors, normal_form],
                         ids=lambda f: f.__name__)
def test_non_finite_matrices_are_refused_before_any_decomposition(call, value):
    # an SVD of a matrix with an inf entry need not return, and NaN entries
    # fail every comparison of normal_form's certificate
    a = np.eye(4, dtype=complex) / 4.0
    a[0, 1] = value
    with pytest.raises(ValueError, match="entries must be finite"):
        call(a, (2, 2))


@pytest.mark.parametrize("rho", [np.zeros((4, 4)), np.diag([1.0, -1.0, 0.5, -0.5]), -np.eye(4)],
                         ids=["zero", "traceless", "minus_identity"])
def test_normal_form_refuses_a_trace_that_is_not_positive(rho):
    # dividing by a zero trace makes every entry NaN, which no comparison of
    # the certificate refuses; eigh need not converge on a traceless
    # indefinite matrix; and -I over its trace is I/4
    with pytest.raises(ValueError, match="trace must be positive") as caught:
        normal_form(rho.astype(complex), (2, 2))
    assert not isinstance(caught.value, NoNormalForm)


def test_normal_form_certificate_fails_closed_on_nan(monkeypatch):
    # every comparison with NaN is false, so the certificate must ask for
    # the bound to hold rather than for it to be exceeded
    monkeypatch.setattr(mixed, "kron_list", lambda mats: np.full((4, 4), np.nan))
    with pytest.raises(NoNormalForm, match="^uncertified$"), np.errstate(invalid="ignore"):
        normal_form(random_density((2, 2), 40).rho, (2, 2))


def test_spectral_prep_full_corner_spectrum():
    a, b, c = 0.45, 0.4, 0.3
    state, _ = fixtures(2, FixtureParams(a=a, b=b, c=c, alpha=0.9, beta=0.8, gamma=0.6))
    k = 2 + a + b + c + 1 / a + 1 / b + 1 / c
    expected = np.array([1 / c, 1 / b, 1 / a, 2.0, a, b, c, 0.0]) / k
    w = eigh_desc(state.rho)[1]
    assert np.allclose(w, expected, atol=1e-12)
    assert numerical_rank(w, w.size) == 7
    assert np.all(np.diff(w) <= 0)


def test_spectral_prep_half_corner_spectrum():
    a, b, c = 0.64, 0.58, 0.54
    state, _ = fixtures(3, FixtureParams(a=a, b=b, c=c))
    k = 2 + a + b + c + 1 / a + 1 / b + 1 / c
    expected = np.array([1 / c, 1 / b, 1 / a, 1.5, a, b, c, 0.5]) / k
    w = eigh_desc(state.rho)[1]
    assert np.allclose(w, expected, atol=1e-12)
    assert numerical_rank(w, w.size) == 8


def test_spectral_prep_reconstructs_and_clusters():
    rho = np.diag([0.4, 0.4, 0.2, 0.0]).astype(complex)
    q, w = eigh_desc(rho)
    assert numerical_rank(w, w.size) == 3
    # the degenerate pair leads, the kernel trails
    assert np.allclose(w, [0.4, 0.4, 0.2, 0.0], atol=1e-15)
    assert np.allclose(q @ np.diag(w) @ q.conj().T, rho)


def test_kernel_ratio_of_the_matched_corner_pair_is_a_quarter():
    first, second = fixtures(2, FixtureParams(a=0.3, b=0.4, c=0.5, alpha=0.6, beta=1.6, gamma=4.0))
    verdict = check_mixed_equivalence(first, second)
    assert _kernel_ratio(verdict.witness.factors, first.rho, second.rho, (2, 2, 2)) == 0.25


def test_kernel_ratio_needs_a_qubit_first_party():
    state = random_density((3, 3), 5).rho
    # one kernel entry, an identity pairing: only the first party's
    # dimension rules the ratio out
    rho = state - np.linalg.eigvalsh(state)[0] * np.eye(9)
    rho /= np.trace(rho).real
    assert _kernel_ratio([np.eye(3)] * 2, rho, rho, (3, 3)) is None


def test_kernel_ratio_needs_both_support_ranks_n_minus_one():
    # a full-rank state has no kernel entry to fill
    rho = random_density((2, 2), 6).rho
    assert _kernel_ratio([np.eye(2)] * 2, rho, rho, (2, 2)) is None


def test_kernel_ratio_needs_the_kernel_paired_with_itself():
    # identity factors pair each eigenvector of rho1 with its own basis
    # vector in rho2's eigenbasis: the pairing is [0, 1, 3, 2], so rho1's
    # kernel meets rho2's 0.2 and rho1's 0.2 would be divided by rho2's 0
    rho1 = np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)
    rho2 = np.diag([0.5, 0.3, 0.0, 0.2]).astype(complex)
    assert _kernel_ratio([np.eye(2)] * 2, rho1, rho2, (2, 2)) is None


def test_kernel_ratio_of_a_single_qubit_is_none():
    # n = 2: support rank n - 1 and the kernel fixed, but row 1 holds only
    # the kernel entry
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert _kernel_ratio([np.eye(2)], rho, rho, (2,)) is None


def test_kernel_ratio_needs_proportional_rows():
    # diagonal states with identity factors pair each eigenvalue with itself,
    # so the table of sqrt(lambda_i / mu_i) is (1, 1, 1, 1 | 2, 2, last, -)
    # up to one common scale
    lam = np.array([0.3, 0.2, 0.15, 0.12, 0.1, 0.08, 0.05, 0.0])

    def ratio(last):
        mu = lam / np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, last, 1.0]) ** 2
        rho1, rho2 = (np.diag(w / w.sum()).astype(complex) for w in (lam, mu))
        return _kernel_ratio([np.eye(2)] * 3, rho1, rho2, (2, 2, 2))

    assert abs(ratio(2.0) - 2.0) <= 1e-12
    assert ratio(3.0) is None


def test_full_rank_verdict_eigendecomposes_only_the_normal_forms(monkeypatch):
    # the kernel ratio needs both support ranks n - 1, and the rank screen's
    # singular values already rule that out for full-rank states, so the
    # raw states are never eigendecomposed: only the two normal forms are,
    # each once and for its eigenvalues alone
    dims = (2, 2, 2)
    base = random_density(dims, 1340)
    other, _ = make_equivalent_pair(base, 1341)
    forms = [normal_form(state.rho, dims)[0] for state in (base, other)]
    seen, full = [], []
    inner_values, inner_full = np.linalg.eigvalsh, np.linalg.eigh

    def spy_values(a, *args, **kwargs):
        seen.append(a)
        return inner_values(a, *args, **kwargs)

    def spy_full(a, *args, **kwargs):
        full.append(np.shape(a))
        return inner_full(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy_values)
    monkeypatch.setattr(np.linalg, "eigh", spy_full)
    verdict = checked_mixed(base, other)
    assert verdict.outcome == "Equivalent" and verdict.kernel_ratio is None
    assert len(seen) == 2
    for a, form in zip(seen, forms):
        assert np.array_equal(a, form)
    assert all(shape[-2:] != (8, 8) for shape in full)


def test_first_verdict_leaves_an_ill_conditioned_connector_to_the_oracle():
    # each factor has condition number 1e7 and the substitution residual is
    # at rounding level, but the backward error, residual times 1e14, is
    # far above BACKWARD_TOL: the oracle refuses it, and no verdict is built
    second = random_density((2, 2), 11)
    k = np.diag([1.0, 1e-7])
    image = kron_list([k, k]) @ second.rho @ kron_list([k, k]).conj().T
    first = MixedState(TWO_QUBITS, image / np.trace(image).real)
    assert not oracle.verify_witness_mixed(first, second, canonicalize([k, k])).passed
    assert _first_verdict(first, second, [[k, k]], (2, 2)) is None


@pytest.mark.parametrize("pair", ["c04", "random22"])
def test_mixed_witness_scale_maps_without_renormalization(pair):
    if pair == "c04":
        rho1, rho2 = fixtures(
            2, FixtureParams(a=0.3, b=0.4, c=0.5, alpha=0.6, beta=1.6, gamma=4.0))
    else:
        rho2 = random_density((2, 2), 21)
        rho1, _ = make_equivalent_pair(rho2, 22)
    verdict = checked_mixed(rho1, rho2)
    assert verdict.outcome == "Equivalent"
    scale = verdict.witness.scale
    assert scale.imag == 0.0 and scale.real > 0.0
    a = kron_factors(verdict.witness)
    image = a @ rho2.rho @ a.conj().T
    assert np.linalg.norm(image - rho1.rho) <= oracle.ORACLE_TOL * np.linalg.norm(rho1.rho)


def test_invariant_screen_global_rank():
    rank2 = MixedState(TWO_QUBITS, np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    full = random_density((2, 2), 3)
    verdict = checked_mixed(rank2, full)
    assert verdict.outcome == "Inequivalent" and "global rank" in verdict.reason


def test_invariant_screen_reduced_rank():
    # equal global ranks, different single-party reduced ranks
    rho_a = MixedState(TWO_QUBITS, kron_list([np.diag([1.0, 0.0]), np.eye(2) / 2.0]))
    rho_b = MixedState(TWO_QUBITS, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
    verdict = checked_mixed(rho_a, rho_b)
    assert verdict.outcome == "Inequivalent" and "party 1" in verdict.reason


def test_invariant_screen_passes_constructed_pairs():
    for seed in range(6):
        base = random_density((2, 2, 2), 400 + seed)
        other, _ = make_equivalent_pair(base, 500 + seed)
        assert checked_mixed(base, other).outcome == "Equivalent"


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
    tensordot over the party's row and column axes of the full tensor, the
    same over-relaxation rule written out, and the certificate formed
    through np.kron and partial_trace_keep."""
    k = len(dims)
    rho = np.asarray(rho, dtype=complex)
    rho = rho / np.trace(rho).real
    r = rho
    filters = [np.eye(d, dtype=complex) for d in dims]
    best = np.inf
    since_gain = 0
    omega, last, ratio = 1.0, np.inf, None
    for _ in range(mixed.FILTER_SWEEPS):
        dev = 0.0
        for party in range(k):
            red = partial_trace_keep(r, dims, party + 1)
            dev = max(dev, float(np.linalg.norm(dims[party] * red - np.eye(dims[party]))))
            w, v = np.linalg.eigh(red)
            if float(w.min()) < 1e-14:
                return None
            f = v @ np.diag((dims[party] * w) ** (-omega / 2.0)) @ v.conj().T
            t = r.reshape(dims + dims)
            t = np.moveaxis(np.tensordot(f, t, axes=(1, party)), 0, party)
            t = np.moveaxis(np.tensordot(t, f.conj(), axes=(k + party, 1)), -1, k + party)
            r = t.reshape(r.shape)
            r = r / np.trace(r).real
            filters[party] = f @ filters[party]
        if dev < mixed.FILTER_TOL:
            break
        if dev < 0.9 * best:
            best = dev
            since_gain = 0
        else:
            since_gain += 1
            if since_gain > 200:
                if dev < mixed.FILTER_SOFT_TOL:
                    break
                return None
        # Young: (rate + omega - 1)^2 = rate omega^2 mu^2 over two parties
        rate = dev / last
        if rate > 2.0:
            omega, rate = 1.0 + (omega - 1.0) / 2.0, None
        elif (k == 2 and rate < 1.0 and ratio is not None
              and abs(rate - ratio) <= 0.05 * (1.0 - rate)):
            mu2 = (rate + omega - 1.0) ** 2 / (rate * omega ** 2)
            if mu2 < 1.0:
                omega = 2.0 / (1.0 + np.sqrt(1.0 - mu2))
        last, ratio = dev, rate
    else:
        return None
    big = filters[0]
    for f in filters[1:]:
        big = np.kron(big, f)
    g = big @ rho @ big.conj().T
    g = g / np.trace(g).real
    if np.linalg.norm(g - r) > mixed.FILTER_SOFT_TOL * np.linalg.norm(r):
        return None
    g = (g + g.conj().T) / 2.0
    for party in range(k):
        red = partial_trace_keep(g, dims, party + 1)
        if np.linalg.norm(dims[party] * red - np.eye(dims[party])) > mixed.FILTER_SOFT_TOL:
            return None
    return g, filters


@pytest.mark.parametrize("dims", [(2, 3, 2), (2, 2, 2, 2)])
def test_normal_form_matches_tensordot_reference(dims):
    # the Newton steps reach the reference's normal form up to local
    # unitaries: the spectra agree, and each party's F_ref F^-1 is a
    # multiple of a unitary
    n = int(np.prod(dims))
    rng = np.random.default_rng(n)
    states = [random_density(dims, 800 + i).rho for i in range(3)]
    g = random_complex(rng, n, 2)
    states.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    # a pure first party leaves its reduced matrix singular: no normal form
    rest = random_density(dims[1:], 810).rho
    states.append(np.kron(np.diag([1.0, 0.0]), rest).astype(complex))
    for rho in states[:-1]:
        got = normal_form(rho, dims)
        want = _normal_form_reference(rho, dims)
        assert np.max(np.abs(np.linalg.eigvalsh(got[0]) - np.linalg.eigvalsh(want[0]))) <= 1e-12
        for f, f_ref in zip(got[1], want[1]):
            w = f_ref @ np.linalg.inv(f)
            ww = w @ w.conj().T
            assert np.linalg.norm(ww / (np.trace(ww).real / len(ww)) - np.eye(len(ww))) <= 1e-10
    assert _normal_form_reference(states[-1], dims) is None
    with pytest.raises(NoNormalForm, match="^singular_marginal$"):
        normal_form(states[-1], dims)


def _counted_steps(monkeypatch):
    """Count filtering steps, one filter power per party per sweep: calls of
    np.linalg.eigh, which the reference makes for every party and
    normal_form for parties of dimension 3 and up, and of _qubit_power,
    which normal_form makes for qubits."""
    calls = [0]

    def counting(inner):
        def counted(*args, **kwargs):
            calls[0] += 1
            return inner(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(mixed, "_qubit_power", counting(mixed._qubit_power))
    return calls


def _count_solves(monkeypatch, counter):
    """Add one to counter[0] at every np.linalg.solve call: inside
    normal_form, one per Newton step."""
    inner = np.linalg.solve

    def counted(*args, **kwargs):
        counter[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)


def _refuse_newton(monkeypatch):
    """Make normal_form's Newton attempt give up at its first solve, as on a
    singular Hessian, so that the sweeps run on from the first sweep."""
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)


def _gram_plus_identity(seed, eps):
    # a rank-two (2,2) state plus a little of the identity filters slowly,
    # the more so the smaller eps
    g = random_complex(np.random.default_rng(seed), 4, 2)
    rho = g @ g.conj().T + eps * np.eye(4)
    return rho / np.trace(rho).real


@pytest.mark.parametrize("dims", [(2, 3, 2), (2, 2, 2, 2), (2, 2), (3, 3)],
                         ids=lambda d: "x".join(map(str, d)))
def test_normal_form_runs_the_reference_sweeps(monkeypatch, dims):
    # with the Newton attempt refused, the closed-form qubit power, the
    # deviation read off the eigenvalues, the fixed reshape shapes and one
    # trace renormalization per sweep stop on the same sweep as the
    # reference and agree with it; two parties run over-relaxed
    _refuse_newton(monkeypatch)
    if dims == (2, 2):
        states = [_gram_plus_identity(2, 0.01)]
    else:
        states = [random_density(dims, 820 + i).rho for i in range(3)]
    calls = _counted_steps(monkeypatch)
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


def _eigh_power(red, p):
    w, v = np.linalg.eigh(red)
    return (v * (2.0 * w / np.sum(w)) ** p) @ v.conj().T


@pytest.mark.parametrize("omega", [1.0, 1.5, 1.9])
def test_qubit_power_matches_the_eigh_power(omega):
    # random marginals, eigengaps of 1e-12 and 0 in a random frame, a
    # multiple of I and I/2 itself: agreement within 1e-13 relative, a
    # Hermitian power to the bit and no floating-point warning, where the
    # naive divided difference would divide 0 by 0
    rng = np.random.default_rng(1600)
    reds = [random_density((2,), 1600 + s).rho for s in range(20)]
    for gap in (1e-12, 0.0):
        for _ in range(5):
            u = np.linalg.qr(random_complex(rng, 2, 2))[0]
            low = rng.uniform(0.1, 0.5)
            reds.append((u * [low, low + gap]) @ u.conj().T)
    reds += [0.3 * np.eye(2, dtype=complex), np.eye(2, dtype=complex) / 2.0]
    p = -omega / 2.0
    with np.errstate(all="raise"):
        for red in reds:
            f, low, high = _qubit_power(red, p)
            want = _eigh_power(red, p)
            assert np.linalg.norm(f - want) <= 1e-13 * np.linalg.norm(want)
            assert np.array_equal(f, f.conj().T)
            w = np.linalg.eigvalsh(red)
            assert np.allclose([low, high], 2.0 * w / np.sum(w), rtol=0.0, atol=1e-14)
    f, low, high = _qubit_power(np.eye(2, dtype=complex) / 2.0, p)
    assert (low, high) == (1.0, 1.0) and np.array_equal(f, np.eye(2))


def test_qubit_power_refuses_a_singular_marginal():
    f, low, high = _qubit_power(np.diag([1.0, 0.0]).astype(complex), -0.5)
    assert f is None and low == 0.0 and high == 2.0


@pytest.mark.parametrize("p", [-0.5, -1.0])
def test_qubit_power_stays_finite_as_the_least_eigenvalue_vanishes(p):
    # low = 1 - s, so low below the spacing of doubles at 1 comes out 0 and
    # the power None; above it, (low high)^(p/2) and the cosh of the angle
    # stay finite for every over-relaxed power
    u = np.linalg.qr(random_complex(np.random.default_rng(1610), 2, 2))[0]
    reds = [red for eps in (1e-13, 1e-16, 1e-300)
            for red in (np.diag([eps, 1.0]).astype(complex), (u * [eps, 1.0]) @ u.conj().T)]
    with np.errstate(all="raise"):
        for red in reds:
            f, low, high = _qubit_power(red, p)
            assert (f is None) == (low <= 0.0)
            assert f is None or np.all(np.isfinite(f))
    assert _qubit_power(np.diag([1e-13, 1.0]).astype(complex), p)[0] is not None
    assert _qubit_power(np.diag([1e-300, 1.0]).astype(complex), p)[0] is None


def _eigh_exp(h):
    w, q = np.linalg.eigh(h)
    return (q * np.exp(w)) @ q.conj().T


def test_pauli_matrices_are_the_scaled_qubit_basis():
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    assert np.allclose(np.sqrt(2.0) * _hermitian_basis(2)[1:], sigma, rtol=0.0, atol=1e-15)


def test_qubit_exponentials_match_the_eigh_exponential():
    # _exp_half's qubit branch and _qubit_power share _exp_sigma,
    # exp(a I + v . sigma)
    sigma = np.sqrt(2.0) * _hermitian_basis(2)[1:]
    rng = np.random.default_rng(1620)
    xs = [rng.standard_normal(3) * scale for scale in (1e-8, 1.0, 10.0) for _ in range(4)]
    for x in xs + [np.zeros(3)]:
        h = np.tensordot(x, _hermitian_basis(2)[1:], 1)
        want = _eigh_exp(-h / 2.0)
        assert np.linalg.norm(_exp_half(x, 2) - want) <= 1e-13 * np.linalg.norm(want)
        for a in (0.0, rng.standard_normal()):
            want = _eigh_exp(a * np.eye(2) + np.tensordot(x, sigma, 1))
            got = _exp_sigma(a, *x.tolist())
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
            assert np.array_equal(got, got.conj().T)
    assert np.array_equal(_exp_half(np.zeros(3), 2), np.eye(2))
    assert np.array_equal(_exp_sigma(0.0, 0.0, 0.0, 0.0), np.eye(2))


def test_exp_sigma_overflow_ends_the_newton_attempt(monkeypatch):
    # cosh overflows a double past |v| = 710: the Newton attempt gives up on
    # it, and the sweeps carry the filtering to a certified normal form
    assert np.all(np.isfinite(_exp_sigma(0.0, 0.0, 700.0, 0.0)))
    with pytest.raises(OverflowError):
        _exp_sigma(0.0, 0.0, 711.0, 0.0)
    raised = []

    def spied(*v):
        try:
            return _exp_sigma(*v)
        except OverflowError:
            raised.append(v)
            raise

    inner = np.linalg.solve
    monkeypatch.setattr(mixed, "_exp_sigma", spied)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: 1e4 * np.ones_like(inner(a, b)))
    rho = random_density((2, 2, 2), 1630).rho
    factor = np.linalg.cholesky(rho)
    assert mixed._newton_filter(factor, [np.eye(2)] * 3, (2, 2, 2)) is None
    assert len(raised) == 1
    filtered, filters = normal_form(rho, (2, 2, 2))
    for party in (1, 2, 3):
        red = partial_trace_keep(filtered, (2, 2, 2), party)
        assert np.linalg.norm(2.0 * red - np.eye(2)) <= mixed.FILTER_SOFT_TOL
    assert len(raised) == 2


def test_w_projector_has_no_normal_form_and_warns_nothing():
    # W's marginals stay 0.87 from maximally mixed while its filters grow
    # without bound; the filtering ends at the no-gain plateau, before the
    # filters overflow (pytest turns any warning into an error)
    w = MixedState(THREE_QUBITS, np.outer(W3.amplitudes, W3.amplitudes.conj()))
    with pytest.raises(NoNormalForm, match="^stalled$"):
        normal_form(w.rho, (2, 2, 2))
    verdict = checked_mixed(w, w)
    assert verdict.outcome == "Inconclusive"
    assert "filtering did not converge (marginals stay short of maximally mixed)" in verdict.reason
    assert "rank-deficient" not in verdict.reason


def test_w_verdict_filters_the_state_once(monkeypatch):
    # the check reads the cause normal_form raises, so an Inconclusive
    # |W><W| verdict costs one filtering and no second run to choose its
    # reason
    w = MixedState(THREE_QUBITS, np.outer(W3.amplitudes, W3.amplitudes.conj()))
    steps = _counted_steps(monkeypatch)
    with pytest.raises(NoNormalForm, match="^stalled$"):
        normal_form(w.rho, (2, 2, 2))
    alone, steps[0] = steps[0], 0
    assert checked_mixed(w, w).outcome == "Inconclusive"
    assert steps[0] == alone > 0


def test_ill_conditioned_image_is_accepted_on_the_plateau(monkeypatch):
    # a pure (2,2) state under rotated diag(1, 1e-2) factors: the image's
    # filtering stops gaining between FILTER_TOL and FILTER_SOFT_TOL, the
    # double precision floor, where the plateau accepts it and the
    # certificate passes it
    rng = np.random.default_rng(0)
    g = random_complex(rng, 4, 1)
    rho = g @ g.conj().T
    base = MixedState(TWO_QUBITS, rho / np.trace(rho).real)
    a = kron_list([np.linalg.qr(random_complex(rng, 2, 2))[0] @ np.diag([1.0, 1e-2])
                   for _ in range(2)])
    image = a @ base.rho @ a.conj().T
    other = MixedState(TWO_QUBITS, (image + image.conj().T) / (2.0 * np.trace(image).real))
    normal_form(other.rho, (2, 2))
    for first, second in ((base, other), (other, base)):
        assert checked_mixed(first, second).outcome == "Equivalent"
    # with no plateau tolerance the Newton steps still reach FILTER_TOL,
    # where the certificate, now at 0, refuses the iterate; the sweeps
    # alone end as stalled
    monkeypatch.setattr(mixed, "FILTER_SOFT_TOL", 0.0)
    with pytest.raises(NoNormalForm, match="^uncertified$"):
        normal_form(other.rho, (2, 2))
    _refuse_newton(monkeypatch)
    with pytest.raises(NoNormalForm, match="^stalled$"):
        normal_form(other.rho, (2, 2))


def test_normal_form_refuses_singular_marginal():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    with pytest.raises(NoNormalForm, match="^singular_marginal$"):
        normal_form(rho, (2, 2))


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
        verdict = checked_mixed(base, other)
        assert verdict.outcome == "Equivalent", verdict.reason


def test_raw_support_mismatch_with_converging_filter_is_equivalent():
    # the local map pushes the smallest eigenvalue of the image just below
    # the support cutoff (raw support ranks 4 vs 3) while both ranks stay
    # borderline, so no rank screen acts, both states filter, and the
    # filtered frames decide
    base = random_density((2, 2), 0)
    a = kron_list([np.diag([1.0, 0.003])] * 2)
    image = a @ base.rho @ a.conj().T
    image = (image + image.conj().T) / (2.0 * np.trace(image).real)
    other = MixedState(TWO_QUBITS, image)
    assert numerical_rank(eigh_desc(base.rho)[1], 4) == 4
    assert numerical_rank(eigh_desc(other.rho)[1], 4) == 3
    verdict = checked_mixed(base, other)
    assert verdict.outcome == "Equivalent", verdict.reason


def _conjugated(rho, a):
    image = a @ rho @ a.conj().T
    return MixedState(TWO_QUBITS, image / np.trace(image).real)


def test_product_state_without_normal_form_is_decided_through_its_supports():
    # |0><0| (x) diag(0.7, 0.3) has a singular reduced matrix, so neither
    # state filters. Compressed to the supports of their reduced matrices,
    # the pair is one qubit against one qubit, and the lifted factors connect
    # the originals whether or not the map is diagonal in the eigenbases:
    # the second map is not, and the random ones are not either
    rho = np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex)
    base = MixedState(TWO_QUBITS, rho)
    maps = [np.kron(np.diag([1.0, 2.0]), np.diag([1.0, 0.5j])),
            np.kron(np.eye(2), np.array([[1.0, 0.4], [0.2, 1.0]]))]
    maps += [kron_list(random_ilo((2, 2), 60 + s).factors) for s in range(9)]
    with pytest.raises(NoNormalForm, match="^singular_marginal$"):
        normal_form(base.rho, (2, 2))
    for a in maps:
        other = _conjugated(rho, a)
        with pytest.raises(NoNormalForm, match="^singular_marginal$"):
            normal_form(other.rho, (2, 2))
        for first, second in ((base, other), (other, base)):
            verdict = checked_mixed(first, second)
            assert verdict.outcome == "Equivalent", verdict.reason
            assert verdict.reason == "connector composed through filtered frames"


def _qubit_pair_in_qubit_qutrit(seed):
    """A random full-rank (2,2) state placed on C^2 (x) span(|0>, |1>) of a
    (2,3) system, so that the qutrit's reduced matrix is singular."""
    embed = np.kron(np.eye(2), np.eye(3)[:, :2])
    rho = embed @ random_density((2, 2), seed).rho @ embed.T
    return MixedState(SystemShape((2, 3)), rho)


def test_states_with_a_singular_marginal_are_decided_through_their_supports():
    # under diagonal and general local maps, the compressed (2,2) pair is
    # decided in the filtered frames and its factors lift to the qutrit
    rng = np.random.default_rng(1400)
    for s in range(16):
        base = _qubit_pair_in_qubit_qutrit(1410 + s)
        if s % 2:
            a = kron_list([np.diag(rng.uniform(0.5, 2.0, d)) for d in (2, 3)])
            image = a @ base.rho @ a.conj().T
            other = MixedState(base.shape, image / np.trace(image).real)
        else:
            other, _ = make_equivalent_pair(base, 1430 + s)
        with pytest.raises(NoNormalForm, match="^singular_marginal$"):
            normal_form(other.rho, (2, 3))
        for first, second in ((base, other), (other, base)):
            verdict = checked_mixed(first, second)
            assert verdict.outcome == "Equivalent", (s, verdict.reason)
            assert verdict.oracle_residual <= 1e-9
    # a compressed pair that is not Equivalent leaves the filtering note
    first, second = _qubit_pair_in_qubit_qutrit(1450), _qubit_pair_in_qubit_qutrit(1451)
    verdict = checked_mixed(first, second)
    assert verdict.outcome == "Inconclusive"
    assert verdict.reason == "filtering did not converge (rank-deficient state)"


def test_indecisive_reduced_rank_is_not_compressed(monkeypatch):
    # |W><W| (x) diag(1 - delta, delta): the fourth party's reduced rank is
    # 1 inside the indecision band, so the supports it would compress to
    # are not trusted, and the pair is refused before any compression
    delta = 1e-9
    w = np.outer(W3.amplitudes, W3.amplitudes.conj())
    base = MixedState(SystemShape((2, 2, 2, 2)), np.kron(w, np.diag([1.0 - delta, delta])))
    other, _ = make_equivalent_pair(base, 3)
    compressions = []
    monkeypatch.setattr(mixed, "local_supports", lambda *args: compressions.append(args))
    verdict = checked_mixed(base, other)
    assert verdict.outcome == "Inconclusive"
    assert verdict.reason == "filtering did not converge (rank-deficient state)"
    assert compressions == []


def _werner33(p: float) -> MixedState:
    """(1 - p) (I - F)/6 + p (I + F)/12 over two qutrits, F the swap."""
    swap = np.eye(9)[[3 * (i % 3) + i // 3 for i in range(9)]]
    eye = np.eye(9)
    return MixedState(SystemShape((3, 3)),
                      ((1 - p) * (eye - swap) / 6 + p * (eye + swap) / 12).astype(complex))


@pytest.mark.parametrize("p", [0.2, 0.35])
def test_werner_images_are_certified_by_the_aligner(p):
    # a Werner state is its own normal form, and its U (x) U symmetry makes
    # every covariant a multiple of I and its spectrum degenerate, so no
    # closed-form solver fixes a local unitary; the aligner finds one from
    # the identity
    rho = _werner33(p)
    assert checked_mixed(rho, rho).outcome == "Equivalent"
    for seed in range(3):
        image, _ = make_equivalent_pair(rho, seed)
        for pair in ((rho, image), (image, rho)):
            verdict = checked_mixed(*pair)
            assert verdict.outcome == "Equivalent", (seed, verdict.reason)
            assert verdict.reason == "connector composed through filtered frames"


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
    # no verdict draws a random number: the module holds no seeded search,
    # and every reference pair below is decided in closed form with the
    # reason given
    for name in ("gauge_search", "cluster_pairings", "GaugeResult", "N_STARTS"):
        assert not hasattr(mixed, name)
    filtered = "connector composed through filtered frames"
    lam = (0.4, 0.3, 0.2, 0.1)
    reference = []
    for dims, seeds in (((2, 2, 2), (17, 18)), ((2, 2), (20, 21))):
        base = random_density(dims, seeds[0])
        reference.append(((base, make_equivalent_pair(base, seeds[1])[0]), filtered))
    reference += [
        # the covariants certify the matched corner pair
        (fixtures(2, FixtureParams(a=0.3, b=0.4, c=0.5, alpha=0.6, beta=1.6, gamma=4.0)),
         filtered),
        # a filtered-spectrum mismatch ends the verdict
        (fixtures(2, FixtureParams(a=0.3, b=0.4, c=0.5, alpha=0.6, beta=1.6, gamma=4.05)),
         "filtered spectra mismatch"),
        # phase-symmetric normal forms: the torus solve over GF(2)
        (fixtures(3, FixtureParams(a=0.7, b=0.8, c=1.2)), filtered),
        (fixtures(3, FixtureParams(a=0.3, b=1.8, c=0.9)), filtered),
        # two-qubit normal forms: the correlation tensor
        (fixtures(1, FixtureParams(lam=lam, mu=(0.2, 0.1, 0.4, 0.3))), filtered),
        (fixtures(1, FixtureParams(lam=lam, mu=(0.3, 0.4, 0.2, 0.1))), filtered),
    ]
    draws = []
    inner = np.random.default_rng

    def counted(*args, **kwargs):
        draws.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    legacy = np.random.get_state()[1].copy()
    verdicts = []
    for pair, reason in reference:
        verdicts.append(checked_mixed(*pair))
        assert verdicts[-1].reason == reason
    assert draws == []
    assert np.array_equal(np.random.get_state()[1], legacy)
    # the matched corner pair's kernel ratio is read off the filtered connector
    assert abs(verdicts[2].kernel_ratio - 0.25) <= 1e-9


# Filtering steps and Newton solves over four pairs per shape, as counted
# with numpy 2.4.6 and one OpenBLAS thread; a sweep or a Newton step that
# does nothing shows as a higher count. Each normal form takes one sweep and
# then Newton steps, whose qutrit filters count as steps too.
FILTER_BUDGET = {(2, 2): 40, (2, 3): 74, (2, 2, 2): 51}


@pytest.mark.parametrize("dims", sorted(FILTER_BUDGET), ids=lambda d: "x".join(map(str, d)))
def test_work_counts_stay_within_budget(monkeypatch, dims):
    steps = _counted_steps(monkeypatch)
    _count_solves(monkeypatch, steps)
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
    assert filtering[0] <= FILTER_BUDGET[dims]


def test_slow_two_qubit_state_filters_in_half_the_plain_sweeps(monkeypatch):
    # plain filtering took 15953 sweeps on this state, and its verdict
    # 0.78 s; the Newton steps after the first sweep reach the normal form
    base = MixedState(TWO_QUBITS, _gram_plus_identity(0, 1e-3))
    other, _ = make_equivalent_pair(base, 3)
    steps = _counted_steps(monkeypatch)
    assert normal_form(base.rho, (2, 2)) is not None
    assert steps[0] / len(base.shape.dims) <= 15953 / 2
    for first, second in ((base, other), (other, base)):
        assert checked_mixed(first, second).outcome == "Equivalent"


def test_slower_two_qubit_state_no_longer_uses_up_the_sweeps(monkeypatch):
    # plain filtering still gained on this state after FILTER_SWEEPS sweeps,
    # so its verdict was Inconclusive ("marginals stay short"); the Newton
    # steps after the first sweep reach the normal form
    base = MixedState(TWO_QUBITS, _gram_plus_identity(1, 1e-4))
    other, _ = make_equivalent_pair(base, 3)
    steps = _counted_steps(monkeypatch)
    assert normal_form(base.rho, (2, 2)) is not None
    assert steps[0] / len(base.shape.dims) < mixed.FILTER_SWEEPS
    for first, second in ((base, other), (other, base)):
        assert checked_mixed(first, second).outcome == "Equivalent"


def test_sweep_cap_ends_the_verdict_short_of_maximally_mixed(monkeypatch):
    # with the Newton attempt refused and the sweeps capped at 50, the
    # filtering of this slow state is still gaining when it stops, so
    # neither order of the pair has a normal form
    monkeypatch.setattr(mixed, "FILTER_SWEEPS", 50)
    _refuse_newton(monkeypatch)
    base = MixedState(TWO_QUBITS, _gram_plus_identity(1, 1e-4))
    other, _ = make_equivalent_pair(base, 3)
    with pytest.raises(NoNormalForm, match="^sweep_cap$"):
        normal_form(base.rho, (2, 2))
    for first, second in ((base, other), (other, base)):
        verdict = checked_mixed(first, second)
        assert verdict.outcome == "Inconclusive"
        assert verdict.reason == (
            "filtering did not converge (marginals stay short of maximally mixed)")


def test_newton_steps_certify_the_state_the_sweep_cap_ends(monkeypatch):
    # the same state and cap: Newton steps after the first sweep reach the
    # normal form, and the pair is Equivalent in both orders
    monkeypatch.setattr(mixed, "FILTER_SWEEPS", 50)
    base = MixedState(TWO_QUBITS, _gram_plus_identity(1, 1e-4))
    other, _ = make_equivalent_pair(base, 3)
    assert normal_form(base.rho, (2, 2)) is not None
    for first, second in ((base, other), (other, base)):
        assert checked_mixed(first, second).outcome == "Equivalent"


@pytest.mark.parametrize("dims", [(2, 16), (2, 32)], ids=lambda d: "x".join(map(str, d)))
def test_wide_party_pairs_filter_by_sweeps_alone(monkeypatch, dims):
    # a Hessian of 258 or 1026 unknowns is past NEWTON_WIDTH: the sweeps
    # alone filter both states, with no Newton layout built, and the pair is
    # decided in milliseconds within a few megabytes
    calls = _counted_solves(monkeypatch)
    layouts = mixed._newton_layout.cache_info().misses
    base = random_density(dims, 5)
    other, _ = make_equivalent_pair(base, 6)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        verdict = checked_mixed(base, other)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.outcome == "Equivalent"
    assert calls == [0, 0]
    assert mixed._newton_layout.cache_info().misses == layouts
    assert elapsed < 5.0 and peak < 32 * 2 ** 20


def test_wide_two_party_state_filters_over_relaxed(monkeypatch):
    # a (8,9) Hessian would have 143 unknowns, past NEWTON_WIDTH, so this
    # near-pure state runs the sweeps alone: plain ones took 217, and the
    # over-relaxed ones take under half as many
    rho = _near_pure((8, 9), 0, 1e-2).rho
    solves = [0]
    _count_solves(monkeypatch, solves)
    steps = _counted_steps(monkeypatch)
    normal_form(rho, (8, 9))
    assert solves == [0] and steps[0] / 2 <= 217 / 2


def _near_pure(dims, seed, eps):
    """psi psi^dag + eps I, normalized, for an unnormalized complex Gaussian
    psi drawn from default_rng([9, seed])."""
    n = int(np.prod(dims))
    psi = random_complex(np.random.default_rng([9, seed]), n)
    rho = np.outer(psi, psi.conj()) + eps * np.eye(n)
    return MixedState(SystemShape(dims), rho / np.trace(rho).real)


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5])
def test_near_pure_three_qubit_pairs_are_certified(eps):
    # the sweeps contract near a pure GHZ-class state by about 1 - O(eps)
    # each: they certified 10, 6, 0 and 0 of these 10 verdicts, at medians
    # of 0.13 s, 0.70 s, 8 ms and 7 ms, where Newton steps take about 2 ms
    for s in range(5):
        base = _near_pure((2, 2, 2), s, eps)
        other, _ = make_equivalent_pair(base, s)
        for first, second in ((base, other), (other, base)):
            verdict = checked_mixed(first, second)
            assert verdict.outcome == "Equivalent", (s, verdict.reason)


def test_rank_two_qubit_pair_plus_little_identity_is_certified(monkeypatch):
    # the sweeps stall on this state short of FILTER_SOFT_TOL
    rho = _gram_plus_identity(0, 1e-5)
    filtered, _ = normal_form(rho, (2, 2))
    for party in (1, 2):
        red = partial_trace_keep(filtered, (2, 2), party)
        assert np.linalg.norm(2.0 * red - np.eye(2)) <= mixed.FILTER_SOFT_TOL
    _refuse_newton(monkeypatch)
    with pytest.raises(NoNormalForm, match="^stalled$"):
        normal_form(rho, (2, 2))


def _counted_solves(monkeypatch):
    """The Newton solves of each normal_form call, appended as it ends."""
    solves, calls = [0], []
    _count_solves(monkeypatch, solves)
    inner = mixed.normal_form

    def counted_form(*args):
        before = solves[0]
        try:
            return inner(*args)
        finally:
            calls.append(solves[0] - before)

    monkeypatch.setattr(mixed, "normal_form", counted_form)
    return calls


def test_newton_solves_per_normal_form_are_bounded(monkeypatch):
    # full-rank random states take at most 5 solves each after the first
    # sweep, and near-pure ones and their images at most NEWTON_STEPS: the
    # image at s = 7 keeps 0.93 of its deviation at its first solve and
    # converges at its tenth. A W image, which has no normal form, keeps its
    # deviation through two solves, and the sweeps take over there
    calls = _counted_solves(monkeypatch)
    for dims in ((2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 2, 2)):
        for s in range(3):
            mixed.normal_form(random_density(dims, 1500 + s).rho, dims)
    assert len(calls) == 15 and max(calls) <= 5
    calls.clear()
    for s in range(10):
        base = _near_pure((2, 2, 2), s, 1e-5)
        for state in (base, make_equivalent_pair(base, s)[0]):
            mixed.normal_form(state.rho, (2, 2, 2))
    assert calls[15] == 10 and max(calls) <= mixed.NEWTON_STEPS
    calls.clear()
    for s in range(3):
        with pytest.raises(NoNormalForm, match="^uncertified$"):
            mixed.normal_form(w_image(s).rho, (2, 2, 2))
    assert calls == [2, 2, 2]


def test_uncertified_normal_forms_are_never_trusted():
    # GHZ against W images and W images against each other, in both orders:
    # the iterates drift off the states their filters reach (when rho itself
    # was filtered, also off Hermitian, once a ValueError from spectral_prep),
    # so the certificate refuses them, and no verdict raises or is
    # Inequivalent
    ghz = MixedState(THREE_QUBITS, np.outer(GHZ3.amplitudes, GHZ3.amplitudes.conj()))
    reasons = set()
    for s in range(20):
        for a, b in ((ghz, w_image(s)), (w_image(s), w_image(s + 100))):
            for first, second in ((a, b), (b, a)):
                verdict = checked_mixed(first, second)
                assert verdict.outcome != "Inequivalent", (s, verdict.reason)
                reasons.add(verdict.reason)
    assert "normal form not certified" in reasons
    with pytest.raises(NoNormalForm, match="^uncertified$"):
        normal_form(w_image(0).rho, (2, 2, 2))


def test_normal_form_certifies_the_marginals_of_the_recomputed_state(monkeypatch):
    # with FILTER_TOL at 1e-3 filtering stops early: the filters reproduce
    # the iterate they reached, but its marginals are short of I/d by more
    # than FILTER_SOFT_TOL, and the certificate refuses it at the first party
    monkeypatch.setattr(mixed, "FILTER_TOL", 1e-3)
    marginals = []
    inner = mixed.partial_trace_keep

    def spy(rho, dims, party):
        marginals.append(party)
        return inner(rho, dims, party)

    monkeypatch.setattr(mixed, "partial_trace_keep", spy)
    with pytest.raises(NoNormalForm, match="^uncertified$"):
        normal_form(random_density((2, 2, 2), 900).rho, (2, 2, 2))
    assert marginals == [1]


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
        candidates = _covariant_unitaries(f1, f2, dims)
        assert len(candidates) == 1
        u = kron_list(candidates[0])
        assert np.linalg.norm(u @ f2 @ u.conj().T - f1) <= 1e-9 * np.linalg.norm(f1)


def test_covariant_solve_refuses_two_qubits():
    # every one-copy covariant of a two-qubit normal form is a multiple of I
    dims = (2, 2)
    f1 = normal_form(random_density(dims, 1310).rho, dims)[0]
    for party in range(2):
        for c in _party_covariants(_powers(f1), dims, party):
            assert np.linalg.norm(c - np.trace(c) / 2.0 * np.eye(2)) <= 1e-12 * np.linalg.norm(c)
    f2 = _local_unitary_image(f1, dims, np.random.default_rng(1311))
    assert _covariant_unitaries(f1, f2, dims) is None


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2)], ids=lambda d: "x".join(map(str, d)))
def test_covariant_solve_refuses_unrelated_states(dims):
    # the solver only proposes: it compares no spectra, so it proposes a
    # unitary for unrelated states too, and the refusal is left to the
    # filtered-spectra screen and the oracle
    states = [random_density(dims, s) for s in (1320, 1321)]
    f1, f2 = (normal_form(state.rho, dims)[0] for state in states)
    candidates = _covariant_unitaries(f1, f2, dims)
    assert candidates
    for factors in candidates:
        u = kron_list(factors)
        assert np.linalg.norm(u @ f2 @ u.conj().T - f1) > 1e-3 * np.linalg.norm(f1)
    for first, second in (states, states[::-1]):
        assert checked_mixed(first, second).outcome != "Equivalent"


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




@pytest.mark.parametrize("dims, corners", [
    ((2, 3), (0, 4)), ((2, 2, 2), (0, 7)), ((3, 3), (0, 8)), ((2, 2, 2, 2), (0, 15)),
], ids=["2x3", "2x2x2", "3x3", "2x2x2x2"])
def test_phase_symmetric_pairs_are_certified_by_the_torus_solve(dims, corners):
    # rho = diag(u) + |v><v| with v on |0...0> and |1...1> commutes with a
    # family of diagonal local phases, and so do its normal form and every
    # one-copy covariant: the covariants are diagonal, so no covariant entry
    # fixes a phase. The normal forms' one large off-diagonal entry does, on
    # the torus
    n = int(np.prod(dims))
    for s in range(10):
        rng = np.random.default_rng(s)
        v = np.zeros(n, dtype=complex)
        rho = np.diag(rng.uniform(0.1, 1.0, n)).astype(complex)
        v[list(corners)] = random_complex(rng, 2)
        rho += np.outer(v, v.conj())
        base = MixedState(SystemShape(dims), rho / np.trace(rho).real)
        other, _ = make_equivalent_pair(base, 100 + s)
        f1 = normal_form(base.rho, dims)[0]
        for k in range(len(dims)):
            for c in _party_covariants(_powers(f1), dims, k):
                assert np.linalg.norm(c - np.diag(np.diag(c))) <= 1e-12 * np.linalg.norm(c)
        for first, second in ((base, other), (other, base)):
            verdict = checked_mixed(first, second)
            assert verdict.outcome == "Equivalent", (s, verdict.reason)
            assert verdict.reason == "connector composed through filtered frames"
            assert verdict.oracle_residual <= 1e-9


def _twirled(g, group):
    """The average of g g^dag conjugated by every element of a group."""
    rho = sum(u @ g @ g.conj().T @ u.conj().T for u in group)
    return rho / np.trace(rho).real


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2)], ids=["2x2x2", "2x2x2x2"])
def test_ghz_diagonal_pairs_are_certified_over_the_eigenbases(dims):
    # a state diagonal in the GHZ basis commutes with Z (x) Z on every
    # neighbouring pair and with X on every party, so every one-copy
    # covariant is a multiple of I and no covariant fixes a basis. The
    # aligner finds the local unitary from its start near the identity or,
    # where that start stalls in a local minimum, from the same start with
    # the two normal forms swapped
    x, z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    k = len(dims)
    generators = [kron_list([z if p in (q, q + 1) else np.eye(2) for p in range(k)])
                  for q in range(k - 1)] + [kron_list([x] * k)]
    group = [np.eye(2 ** k)]
    for gen in generators:
        group += [gen @ u for u in group]
    rng = np.random.default_rng(1550 + k)
    for s in range(4):
        g = rng.standard_normal((2 ** k, 2 ** k)) if s % 2 else random_complex(rng, 2 ** k, 2 ** k)
        base = MixedState(SystemShape(dims), _twirled(g, group))
        f1 = normal_form(base.rho, dims)[0]
        for c in _party_covariants(_powers(f1), dims, 0):
            assert np.linalg.norm(c - np.trace(c) / 2.0 * np.eye(2)) <= 1e-12 * np.linalg.norm(c)
        if s % 2:
            a = kron_list([np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in dims])
            other = MixedState(base.shape, a @ base.rho @ a.T)
        else:
            other, _ = make_equivalent_pair(base, 1560 + s)
        assert _covariant_unitaries(f1, normal_form(other.rho, dims)[0], dims) is None
        for first, second in ((base, other), (other, base)):
            verdict = checked_mixed(first, second)
            assert verdict.outcome == "Equivalent", (s, verdict.reason)
            assert verdict.reason == "connector composed through filtered frames"


def _ghz_basis() -> np.ndarray:
    """The (2,2,2) GHZ basis as rows: |0x> + |1x'> and |0x> - |1x'> for each
    x, with x' = x with bits flipped."""
    ghz = np.zeros((8, 8))
    for x in range(4):
        ghz[2 * x, [x, x ^ 7]] = 1.0
        ghz[2 * x + 1, [x, x ^ 7]] = 1.0, -1.0
    return ghz / np.sqrt(2.0)


def test_eigenbasis_candidates_that_do_not_split_are_skipped():
    # GHZ-diagonal (2,2,2) states are their own normal forms. With the
    # weights permuted non-locally, two have equal spectra and no covariant
    # fixes a basis, and no start of the aligner reaches a local unitary
    # that the oracle passes
    w = np.array([0.3, 0.2, 0.15, 0.12, 0.1, 0.07, 0.04, 0.02])
    ghz = _ghz_basis()
    base = MixedState(THREE_QUBITS, (ghz.T * w) @ ghz + 0j)
    rng = np.random.default_rng(1590)
    for _ in range(3):
        other = MixedState(THREE_QUBITS, (ghz.T * w[rng.permutation(8)]) @ ghz + 0j)
        for first, second in ((base, other), (other, base)):
            verdict = checked_mixed(first, second)
            assert verdict.outcome == "Inconclusive"
            assert verdict.reason == "no decomposable connector found"


def test_repeated_weight_ghz_diagonal_pairs_are_certified_by_the_aligner():
    # a repeated weight leaves the filtered spectrum degenerate, as well as
    # every covariant a multiple of I
    w = np.array([0.3, 0.2, 0.15, 0.1, 0.1, 0.07, 0.06, 0.02])
    ghz = _ghz_basis()
    base = MixedState(THREE_QUBITS, (ghz.T * w) @ ghz + 0j)
    for s in range(6):
        other, _ = make_equivalent_pair(base, s)
        for first, second in ((base, other), (other, base)):
            verdict = checked_mixed(first, second)
            assert verdict.outcome == "Equivalent", (s, verdict.reason)


def test_ghz_diagonal_pairs_related_by_a_local_clifford_are_certified():
    # these local maps permute the GHZ basis, so the two states commute and
    # the identity is a stationary point of the alignment, which the
    # aligner's own starts sit just off
    w = np.array([0.3, 0.2, 0.15, 0.12, 0.1, 0.07, 0.04, 0.02])
    ghz = _ghz_basis()
    base = MixedState(THREE_QUBITS, (ghz.T * w) @ ghz + 0j)
    x, eye = np.array([[0, 1], [1, 0]]), np.eye(2)
    for factors in ([np.diag([1, -1j]), x @ np.diag([1j, 1]), eye], [x, eye, eye]):
        u = kron_list(factors)
        other = MixedState(THREE_QUBITS, u @ base.rho @ u.conj().T)
        assert np.linalg.norm(base.rho @ other.rho - other.rho @ base.rho) <= 1e-15
        assert np.linalg.norm(base.rho - other.rho) > 0.1
        for first, second in ((base, other), (other, base)):
            verdict = checked_mixed(first, second)
            assert verdict.outcome == "Equivalent", verdict.reason


def test_aligner_polishes_a_proposal_the_oracle_refuses(monkeypatch):
    # each proposal of the covariant solve is moved off by exp(i 1e-3 H_k)
    # on every party, far outside the oracle's tolerance
    dims = (2, 2, 3)
    rng = np.random.default_rng(1600)
    inner_solve, inner_align = mixed._covariant_unitaries, mixed._align
    proposals, starts, refused = [], [], []

    def nudged(f1, f2, dims):
        out = []
        for factors in inner_solve(f1, f2, dims):
            kicked = []
            for u in factors:
                h = random_complex(rng, len(u), len(u))
                w, q = np.linalg.eigh(h + h.conj().T)
                kicked.append(u @ (q * np.exp(1e-3j * w)) @ q.conj().T)
            out.append(kicked)
        proposals.extend(out)
        return out

    def spied_align(f1, f2, dims, start=None):
        starts.append(start)
        return inner_align(f1, f2, dims, start)

    def spied_verdict(rho1, rho2, candidates, dims):
        verdict = _first_verdict(rho1, rho2, candidates, dims)
        refused.append(verdict is None)
        return verdict

    monkeypatch.setattr(mixed, "_covariant_unitaries", nudged)
    monkeypatch.setattr(mixed, "_align", spied_align)
    monkeypatch.setattr(mixed, "_first_verdict", spied_verdict)
    base = random_density(dims, 1601)
    other, _ = make_equivalent_pair(base, 1602)
    verdict = checked_mixed(base, other)
    assert verdict.outcome == "Equivalent", verdict.reason
    # the nudged proposal is refused, and its polish, the first start, passes
    assert refused == [True, False]
    assert len(starts) == 1 and starts[0] is proposals[0]


def test_aligner_work_is_bounded_by_its_starts(monkeypatch):
    # a refused pair runs every start to the step cap at most: one per
    # proposal, the identity, and the identity with the forms swapped
    w = np.array([0.3, 0.2, 0.15, 0.12, 0.1, 0.07, 0.04, 0.02])
    ghz = _ghz_basis()
    base = MixedState(THREE_QUBITS, (ghz.T * w) @ ghz + 0j)
    other = MixedState(THREE_QUBITS, (ghz.T * w[[3, 0, 6, 1, 7, 2, 5, 4]]) @ ghz + 0j)
    calls, proposals = [], []
    inner_lstsq, inner_solve = np.linalg.lstsq, mixed._covariant_unitaries

    def counted(*args, **kwargs):
        calls.append(1)
        return inner_lstsq(*args, **kwargs)

    def spied(*args):
        out = inner_solve(*args)
        proposals.append(len(out or []))
        return out

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    monkeypatch.setattr(mixed, "_covariant_unitaries", spied)
    verdict = checked_mixed(base, other)
    assert verdict.outcome == "Inconclusive"
    assert len(proposals) == 1
    assert 0 < len(calls) <= (proposals[0] + 2) * mixed.ALIGN_STEPS


def test_torus_phases_satisfy_every_row_of_a_consistent_system():
    # rows of -1, 0 and 1, as the torus solve forms them, with right-hand
    # sides from a known theta: the solution need not be theta (free
    # variables, pivots of 2), but it satisfies every row mod 2 pi
    rng = np.random.default_rng(1500)
    for _ in range(200):
        nvars = int(rng.integers(1, 7))
        theta = rng.uniform(-np.pi, np.pi, nvars)
        rows = rng.integers(-1, 2, size=(int(rng.integers(1, 3 * nvars + 1)), nvars))
        rhs = np.angle(np.exp(1j * (rows @ theta)))
        got = _torus_phases(rows, rhs)
        assert np.max(np.abs(np.exp(1j * (rows @ got)) - np.exp(1j * rhs))) <= 1e-9
    # theta_0 + theta_1 = a and theta_0 - theta_1 = b leave a pivot of 2,
    # which the extended-Euclid step reaches at its own leading column
    got = _torus_phases(np.array([[1, 1], [1, -1]]), np.array([0.3, -1.1]))
    assert np.allclose(np.exp(1j * np.array([got.sum(), got[0] - got[1]])),
                       np.exp(1j * np.array([0.3, -1.1])))


def test_torus_phases_stop_once_every_variable_has_a_unit_pivot():
    # rows enter in decreasing magnitude, so the leading rows fix theta and
    # a later row that disagrees with them is left to the oracle
    got = _torus_phases(np.array([[1, 0], [0, 1], [1, 1]]), np.array([0.1, 0.2, 0.5]))
    assert np.array_equal(got, [0.1, 0.2])


def test_sign_solutions_are_every_solution_over_gf2():
    rng = np.random.default_rng(1510)
    for _ in range(200):
        nvars = int(rng.integers(1, 6))
        rows = rng.integers(-1, 2, size=(int(rng.integers(1, 8)), nvars))
        odd = rng.integers(0, 2, size=rows.shape[0]).astype(bool)
        every = [np.array(b) for b in np.ndindex(*(2,) * nvars)]
        want = {b.astype(bool).tobytes() for b in every if not np.any((rows @ b + odd) % 2)}
        got = _sign_solutions(rows, odd)
        assert (got is None) == (not want)
        if got is not None:
            assert len(got) == len(want)
            assert {s.tobytes() for s in got} == want


BELL = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2.0)


@pytest.mark.parametrize("weights", [
    (0.4, 0.2, 0.2, 0.2), (0.5, 0.25, 0.25, 0.0), (0.7, 0.1, 0.1, 0.1),
], ids=["4222", "5520", "7111"])
def test_bell_diagonal_pairs_are_certified_by_the_correlation_tensor(weights):
    # a Bell-diagonal state is its own normal form, with a degenerate
    # spectrum and a diagonal correlation tensor with repeated (for 5520
    # also zero) singular values; the two SVDs still give the rotations
    base = MixedState(TWO_QUBITS, (BELL.T * weights) @ BELL)
    for s in (40, 41, 42):
        other, _ = make_equivalent_pair(base, s)
        for first, second in ((base, other), (other, base)):
            verdict = checked_mixed(first, second)
            assert verdict.outcome == "Equivalent", (s, verdict.reason)
            assert verdict.reason == "connector composed through filtered frames"


def test_rank_two_two_qubit_pairs_are_certified_by_the_correlation_tensor():
    # the two zero filtered eigenvalues are one degenerate cluster
    for s in range(40):
        g = (np.random.default_rng(2000 + s).standard_normal((4, 2))
             + 1j * np.random.default_rng(3000 + s).standard_normal((4, 2)))
        base = MixedState(TWO_QUBITS, g @ g.conj().T / np.trace(g @ g.conj().T).real)
        other, _ = make_equivalent_pair(base, 4000 + s)
        for first, second in ((base, other), (other, base)):
            verdict = checked_mixed(first, second)
            assert verdict.outcome == "Equivalent", (s, verdict.reason)


def test_two_qubit_solve_recovers_the_local_unitary():
    rng = np.random.default_rng(1520)
    states = [random_density((2, 2), 1530 + s) for s in range(4)]
    forms = [normal_form(state.rho, (2, 2))[0] for state in states]
    # a zero singular value, where the two rotations' sign choices may differ
    forms.append((BELL.T * (0.5, 0.25, 0.25, 0.0)) @ BELL)
    for f1 in forms:
        for _ in range(3):
            f2 = _local_unitary_image(f1, (2, 2), rng)
            u = kron_list(_two_qubit_unitaries(f1, f2))
            u = u / np.abs(np.linalg.det(u)) ** 0.25
            assert np.linalg.norm(u @ f2 @ u.conj().T - f1) <= 1e-9 * np.linalg.norm(f1)
    # unrelated forms still get a proposal, which maps neither onto the
    # other; the pipeline refuses the pair
    f1, f2 = forms[0], forms[1]
    u = kron_list(_two_qubit_unitaries(f1, f2))
    u = u / np.abs(np.linalg.det(u)) ** 0.25
    assert np.linalg.norm(u @ f2 @ u.conj().T - f1) > 1e-3 * np.linalg.norm(f1)
    for first, second in ((states[0], states[1]), (states[1], states[0])):
        assert checked_mixed(first, second).outcome != "Equivalent"


def test_global_rank_mismatch_must_hold_on_the_normal_forms():
    # spectrum (0.5, 0.3, 0.2, 1e-6) against its conjugate by
    # diag(1, 1/30) (x) diag(1, 1/30): the map squeezes the smallest
    # eigenvalue into a decisive zero (raw global ranks 4 vs 3), while the
    # normal forms, which filtering conditions, keep rank 4
    a = np.kron(np.diag([1.0, 1 / 30]), np.diag([1.0, 1 / 30]))
    for s in range(2, 6):
        rng, other_rng = np.random.default_rng(s), np.random.default_rng(s + 50)
        u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * other_rng.standard_normal((4, 4)))[0]
        rho = u @ np.diag([0.5, 0.3, 0.2, 1e-6]) @ u.conj().T
        base = MixedState(TWO_QUBITS, (rho + rho.conj().T) / (2.0 * np.trace(rho).real))
        other = _conjugated(base.rho, a)
        assert rank_mismatch(decisive_rank(base.rho), decisive_rank(other.rho)) == (4, 3)
        for first, second in ((base, other), (other, base)):
            verdict = checked_mixed(first, second)
            assert verdict.outcome == "Equivalent", (s, verdict.reason)
    # a genuine mismatch between two states that filter holds on the normal
    # forms, and keeps its reason
    g = random_complex(np.random.default_rng(1330), 8, 6)
    rank6 = MixedState(THREE_QUBITS, g @ g.conj().T / np.trace(g @ g.conj().T).real)
    verdict = checked_mixed(rank6, random_density((2, 2, 2), 1540))
    assert verdict.outcome == "Inequivalent"
    assert verdict.reason == "global rank mismatch (6 vs 8)"


@settings(max_examples=60)
@given(dims=st.sampled_from([(2, 2), (2, 3), (2, 2, 2)]), seed=st.integers(0, 10**6),
       exponent=st.floats(-8.0, -5.0))
@example(dims=(2, 2, 2), seed=131072, exponent=-6.0)
def test_near_threshold_equivalent_pairs_are_never_inequivalent(dims, seed, exponent):
    # a state whose smallest eigenvalue is 10^exponent, in a random unitary
    # frame, against its image under random_ilo factors (condition number at
    # most ILO_COND_CAP), which can push that eigenvalue across the rank band.
    # The raw global ranks of the pinned example are 8 vs 7, decisively
    n = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(random_complex(rng, n, n))[0]
    w = rng.uniform(0.1, 1.0, n)
    w[-1] = 10.0 ** exponent
    rho = (u * w) @ u.conj().T
    base = MixedState(SystemShape(dims), (rho + rho.conj().T) / (2.0 * np.trace(rho).real))
    other, _ = make_equivalent_pair(base, seed + 1)
    for first, second in ((base, other), (other, base)):
        assert checked_mixed(first, second).outcome != "Inequivalent"
