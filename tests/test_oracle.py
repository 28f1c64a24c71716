"""Tests for witness verification, random local maps, and reference states."""

import numpy as np
import pytest

from statekit.factor import FactorSet, canonicalize, kron
from statekit.linalg import SystemShape
from statekit.mixed import MixedState
from statekit.oracle import (
    FixtureParams,
    fixtures,
    make_equivalent_pair,
    random_ilo,
    verify_witness_mixed,
    verify_witness_pure,
    witness_verdict,
)
from statekit.pure import PureState
from util import GHZ3, W3, random_complex, random_density, random_pure


def _identity_witness(dims) -> FactorSet:
    return FactorSet(tuple(np.eye(d, dtype=complex) for d in dims))


def test_identity_witness_on_identical_pure_state():
    psi = random_pure((2, 2, 2), 0)
    check = verify_witness_pure(psi, psi, _identity_witness((2, 2, 2)))
    assert check.passed
    assert check.relative_residual <= 1e-14


def test_identity_witness_on_identical_mixed_state():
    rho = random_density((2, 2), 1)
    check = verify_witness_mixed(rho, rho, _identity_witness((2, 2)))
    assert check.passed
    assert check.relative_residual <= 1e-14


def test_constructed_pure_pair_verifies_tightly():
    for seed in range(5):
        psi = random_pure((2, 2, 2), 10 + seed)
        phi, witness = make_equivalent_pair(psi, 20 + seed)
        check = verify_witness_pure(phi, psi, witness)
        assert check.passed
        assert check.relative_residual <= 1e-10


def test_constructed_mixed_pair_verifies_tightly():
    for seed in range(5):
        rho = random_density((2, 2), 30 + seed)
        other, witness = make_equivalent_pair(rho, 40 + seed)
        check = verify_witness_mixed(other, rho, witness)
        assert check.passed
        assert check.relative_residual <= 1e-10


def test_residual_is_phase_insensitive():
    psi = random_pure((2, 2), 2)
    rotated = PureState(psi.shape, psi.amplitudes * np.exp(0.7j))
    check = verify_witness_pure(rotated, psi, _identity_witness((2, 2)))
    assert check.relative_residual <= 1e-14


def test_no_random_witness_connects_inequivalent_classes():
    worst = np.inf
    for seed in range(1000):
        witness = random_ilo((2, 2, 2), seed)
        check = verify_witness_pure(GHZ3, W3, witness)
        worst = min(worst, check.relative_residual)
        assert not check.passed
    assert worst > 0.1


def test_witness_composition_is_transitive():
    chi = random_pure((2, 2, 2), 3)
    psi, w_ps = make_equivalent_pair(chi, 4)  # psi = W(w_ps) chi
    phi, w_ph = make_equivalent_pair(psi, 5)  # phi = W(w_ph) psi
    composed = FactorSet(
        tuple(a @ b for a, b in zip(w_ph.factors, w_ps.factors)),
        w_ph.scale * w_ps.scale,
    )
    assert verify_witness_pure(phi, chi, composed).passed


def test_inverse_witness_reverses_the_pair():
    rho = random_density((2, 2, 2), 6)
    other, witness = make_equivalent_pair(rho, 7)
    inverse = FactorSet(
        tuple(np.linalg.inv(f) for f in witness.factors), 1.0 / witness.scale
    )
    assert verify_witness_mixed(rho, other, inverse).passed


def test_huge_witness_scale_still_verifies():
    # both checks quotient the scale out, so a valid witness stays valid
    # whatever its scale, even where the scaled product would overflow
    psi = random_pure((2, 2, 2), 12)
    phi, witness = make_equivalent_pair(psi, 13)
    huge = FactorSet(witness.factors, witness.scale * 1e200)
    with np.errstate(over="raise", invalid="raise"):
        check = verify_witness_pure(phi, psi, huge)
    assert check.passed and check.relative_residual <= 1e-10
    rho = random_density((2, 2), 14)
    other, witness = make_equivalent_pair(rho, 15)
    huge = FactorSet(witness.factors, witness.scale * 1e200)
    with np.errstate(over="raise", invalid="raise"):
        check = verify_witness_mixed(other, rho, huge)
    assert check.passed and check.relative_residual <= 1e-10


def test_singular_witness_is_rejected():
    singular = FactorSet((np.diag([1.0, 0.0]).astype(complex), np.eye(2, dtype=complex)))
    psi = random_pure((2, 2), 8)
    with pytest.raises(ValueError):
        verify_witness_pure(psi, psi, singular)
    rho = random_density((2, 2), 9)
    with pytest.raises(ValueError):
        verify_witness_mixed(rho, rho, singular)
    zero = FactorSet(_identity_witness((2, 2)).factors, 0.0)
    for verify, state in ((verify_witness_pure, psi), (verify_witness_mixed, rho)):
        with pytest.raises(ValueError, match="witness scale is zero"):
            verify(state, state, zero)


def test_a_zero_second_state_has_an_infinite_residual():
    # raw arrays bypass the state classes' checks, so the image can vanish
    eye = _identity_witness((2, 2))
    checks = [verify_witness_pure(random_pure((2, 2), 8), np.zeros(4), eye),
              verify_witness_mixed(random_density((2, 2), 9), np.zeros((4, 4)), eye)]
    for check in checks:
        assert check.relative_residual == np.inf and not check.passed


def _ghz_to_w_degeneration(eps) -> FactorSet:
    # A (x) A (x) A maps |000> + |111> to eps (|001> + |010> + |100>) + O(eps^2)
    a = np.array([[1.0, -1.0], [eps, 0.0]], dtype=complex)
    return canonicalize([a, a, a])


def _projector(psi) -> MixedState:
    return MixedState(psi.shape, np.outer(psi.amplitudes, psi.amplitudes.conj()))


@pytest.mark.parametrize("eps", [1e-7, 1e-8, 1e-9])
def test_ghz_to_w_degeneration_is_no_witness(eps):
    # W lies in the closure of the GHZ orbit, not in it: the map leaves a
    # residual near eps, but only through factors of condition number 2/eps
    witness = _ghz_to_w_degeneration(eps)
    for verify, first, second in (
        (verify_witness_pure, W3, GHZ3),
        (verify_witness_mixed, _projector(W3), _projector(GHZ3)),
    ):
        check = verify(first, second, witness)
        assert not check.passed
        assert check.backward_error >= 8e14
        assert witness_verdict(verify, first, second, witness, "degeneration") is None


def _conditioned_factor(rng, kappa) -> np.ndarray:
    u, _ = np.linalg.qr(random_complex(rng, 2, 2))
    v, _ = np.linalg.qr(random_complex(rng, 2, 2))
    return u @ np.diag([1.0, 1.0 / kappa]) @ v


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_witness_verdict_accepts_exactly_what_verify_passes(kind):
    # per-factor condition numbers from 1 to 1e10, exact images and images
    # moved by 1e-9: the verdict and the check agree on every witness, and
    # both outcomes occur
    rng = np.random.default_rng(5)
    dims = (2, 2, 2) if kind == "pure" else (2, 2)
    outcomes = set()
    for kappa in 10.0 ** np.arange(11):
        for noise in (0.0, 1e-9):
            witness = canonicalize([_conditioned_factor(rng, kappa) for _ in dims])
            a = kron(witness)
            if kind == "pure":
                second = random_pure(dims, int(rng.integers(1000)))
                image = a @ second.amplitudes + noise * random_complex(rng, a.shape[0])
                first = PureState(second.shape, image / np.linalg.norm(image))
                verify = verify_witness_pure
            else:
                second = random_density(dims, int(rng.integers(1000)))
                image = a @ second.rho @ a.conj().T
                image = image / np.trace(image).real + noise * random_density(dims, 7).rho
                image = (image + image.conj().T) / 2.0
                first = MixedState(second.shape, image / np.trace(image).real)
                verify = verify_witness_mixed
            check = verify(first, second, witness)
            cond = np.prod([np.linalg.cond(f) for f in witness.factors])
            assert check.backward_error == pytest.approx(check.relative_residual * cond, rel=1e-6)
            verdict = witness_verdict(verify, first, second, witness, "constructed")
            assert (verdict is not None) == check.passed
            outcomes.add(check.passed)
    assert outcomes == {True, False}
    # a singular witness makes verify raise, and the verdict refuse
    singular = FactorSet(tuple(np.diag([1.0, 0.0]).astype(complex) for _ in dims))
    with pytest.raises(ValueError):
        verify(first, second, singular)
    assert witness_verdict(verify, first, second, singular, "singular") is None


def test_random_ilo_is_deterministic_and_well_conditioned():
    first = random_ilo((2, 3, 2), 99)
    second = random_ilo((2, 3, 2), 99)
    for f, g in zip(first.factors, second.factors):
        assert np.array_equal(f, g)
    assert first.scale == second.scale
    for seed in range(20):
        for f in random_ilo((3, 4), seed).factors:
            s = np.linalg.svd(f, compute_uv=False)
            assert s[-1] / s[0] >= 1e-3


def test_make_equivalent_pair_round_trips():
    psi = random_pure((2, 2), 50)
    phi, witness = make_equivalent_pair(psi, 51)
    assert isinstance(phi, PureState)
    assert verify_witness_pure(phi, psi, witness).passed
    rho = random_density((2, 2), 52)
    other, witness = make_equivalent_pair(rho, 53)
    assert isinstance(other, MixedState)
    assert verify_witness_mixed(other, rho, witness).passed


def test_uniform_bell_weights_give_maximally_mixed_state():
    state, _ = fixtures(1, FixtureParams(lam=(0.25,) * 4, mu=(0.25,) * 4))
    assert np.array_equal(state.rho, np.eye(4) / 4.0)


def test_bell_weights_are_validated():
    with pytest.raises(ValueError):
        fixtures(1, FixtureParams(lam=(0.5, 0.5, 0.0, 0.0), mu=(0.25,) * 4))
    with pytest.raises(ValueError):
        fixtures(1, FixtureParams(lam=(0.4, 0.3, 0.2, 0.2), mu=(0.25,) * 4))


def test_full_corner_family_structure():
    a, b, c = 0.3, 0.4, 0.55
    state, partner = fixtures(2, FixtureParams(a=a, b=b, c=c, alpha=0.6, beta=1.6, gamma=4.4))
    k = 2 + a + b + c + 1 / a + 1 / b + 1 / c
    rho = state.rho
    assert np.allclose(np.diag(rho).real * k, [1, a, b, c, 1 / c, 1 / b, 1 / a, 1])
    assert np.isclose(rho[0, 7].real * k, 1.0)
    assert np.isclose(rho[7, 0].real * k, 1.0)
    assert partner.shape == state.shape


def test_full_corner_parameters_are_validated():
    ones = FixtureParams(a=1.0, b=1.0, c=1.0, alpha=1.0, beta=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        fixtures(2, ones)
    repeated = FixtureParams(a=0.3, b=0.3, c=0.5, alpha=0.6, beta=1.6, gamma=4.0)
    with pytest.raises(ValueError):
        fixtures(2, repeated)


def test_half_corner_partner_entries():
    a, b, c = 0.64, 0.58, 0.54
    state, partner = fixtures(3, FixtureParams(a=a, b=b, c=c))
    k = 2 + a + b + c + 1 / a + 1 / b + 1 / c
    assert np.isclose(state.rho[0, 7].real * k, 0.5)
    assert np.isclose(partner.rho[0, 2].real * (2 * k), 1 - b)
    assert np.isclose(partner.rho[0, 0].real * (2 * k), 1 + b)
    assert np.isclose(partner.rho[5, 7].real * (2 * k), -1 + 1 / b)


def test_half_corner_parameters_are_validated():
    with pytest.raises(ValueError):
        fixtures(3, FixtureParams(a=0.5, b=0.58, c=0.54))
    with pytest.raises(ValueError):
        fixtures(3, FixtureParams(a=0.64, b=0.64, c=0.54))


def test_half_corner_pair_admits_middle_rotation_witness():
    state, partner = fixtures(3, FixtureParams(a=0.64, b=0.58, c=0.54))
    eye = np.eye(2, dtype=complex)
    rotation = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    witness = FactorSet((eye, rotation.astype(complex), eye))
    check = verify_witness_mixed(state, partner, witness)
    assert check.passed
    assert check.relative_residual <= 1e-9


def test_biseparable_pure_pair_amplitudes():
    phi, psi = fixtures(4)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(phi.amplitudes, [0, s, s, 0, 0, 0, 0, 0])
    assert np.allclose(psi.amplitudes, [0, 0, 0, s, 0, s, 0, 0])


def test_all_fixtures_are_valid_states():
    cases = [
        fixtures(1, FixtureParams(lam=(0.4, 0.3, 0.2, 0.1), mu=(0.2, 0.1, 0.4, 0.3))),
        fixtures(2, FixtureParams(a=0.3, b=0.4, c=0.5, alpha=0.6, beta=1.6, gamma=4.0)),
        fixtures(3, FixtureParams(a=0.64, b=0.58, c=0.54)),
    ]
    for first, second in cases:
        for state in (first, second):
            assert np.isclose(np.trace(state.rho).real, 1.0, atol=1e-12)
            assert np.linalg.eigvalsh(state.rho).min() >= -1e-12


def test_unknown_fixture_id_raises():
    with pytest.raises(ValueError):
        fixtures(5)
