"""Tests for Kronecker decomposability and factor extraction."""

import numpy as np
import pytest

from statekit.factor import (
    FactorSet,
    NotDecomposable,
    canonicalize,
    decomposability,
    extract_factors,
    kron,
)
from statekit.linalg import kron_list, unvec
from statekit.oracle import random_ilo
from util import naive_kron, random_complex, traced_remainder

SHAPES = [(2, 2), (2, 3), (2, 2, 2), (2, 3, 2), (2, 2, 2, 2)]

CNOT = np.array([
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
], dtype=complex)


def test_kron_matches_definition():
    rng = np.random.default_rng(0)
    a = random_complex(rng, 2, 2)
    b = random_complex(rng, 3, 3)
    fs = FactorSet((a, b), 2.5 - 1.0j)
    assert np.allclose(kron(fs), (2.5 - 1.0j) * naive_kron(a, b))


def test_canonicalize_normalizes_factors():
    rng = np.random.default_rng(1)
    mats = [random_complex(rng, d, d) for d in (2, 3)]
    fs = canonicalize(mats, scale=3.0j)
    for f in fs.factors:
        assert np.isclose(np.linalg.norm(f), 1.0)
        lead = f.reshape(-1)[np.argmax(np.abs(f.reshape(-1)) > 1e-12)]
        assert abs(lead.imag) < 1e-12 and lead.real > 0
    assert np.allclose(kron(fs), 3.0j * kron_list(mats))


def test_canonicalize_rejects_zero_factor():
    with pytest.raises(ValueError):
        canonicalize([np.zeros((2, 2))])


@pytest.mark.parametrize("dims", SHAPES)
def test_extract_round_trip(dims):
    for seed in range(5):
        fs = random_ilo(dims, seed)
        a = kron(fs)
        rep = decomposability(a, dims)
        assert rep.invertible and rep.decomposable
        assert all(rank == 1 for _, _, rank in rep.per_party)
        rebuilt = kron(extract_factors(a, dims))
        assert np.linalg.norm(rebuilt - a) <= 1e-10 * np.linalg.norm(a)


def test_scale_only_changes_scale_field():
    fs = random_ilo((2, 2, 2), 7)
    a = kron(fs)
    got_base = extract_factors(a, (2, 2, 2))
    got_scaled = extract_factors((2.0 - 1.5j) * a, (2, 2, 2))
    for f, g in zip(got_base.factors, got_scaled.factors):
        assert np.allclose(f, g)
    assert np.isclose(got_scaled.scale / got_base.scale, 2.0 - 1.5j)


def test_extraction_agrees_with_trace_out_formula():
    # Alternative route to the non-leading factors: multiply by the inverse
    # of the first factor on its slot and trace that party out.
    dims = (2, 3, 2)
    fs = random_ilo(dims, 3)
    a = kron(fs)
    got = extract_factors(a, dims)
    inv_first = np.linalg.inv(got.factors[0])
    rest = traced_remainder(kron_list([inv_first, np.eye(6)]) @ a, 2) / 2
    assert np.allclose(rest, got.scale * kron_list(got.factors[1:]), atol=1e-10)


def test_controlled_gate_is_not_decomposable():
    rep = decomposability(CNOT, (2, 2))
    assert rep.invertible
    assert not rep.decomposable
    assert rep.per_party[0][2] == 2
    with pytest.raises(NotDecomposable):
        extract_factors(CNOT, (2, 2))


def test_generic_matrices_are_not_decomposable():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        a = random_complex(rng, 8, 8)
        rep = decomposability(a, (2, 2, 2))
        assert rep.invertible
        assert not rep.decomposable


def test_singular_input_is_flagged_not_raised():
    a = naive_kron(np.diag([1.0, 0.0]), np.eye(2))
    rep = decomposability(a, (2, 2))
    assert not rep.invertible
    assert not rep.decomposable
    with pytest.raises(NotDecomposable):
        extract_factors(a, (2, 2))


def test_report_exposes_residuals():
    fs = random_ilo((2, 2), 11)
    rep = decomposability(kron(fs), (2, 2))
    assert len(rep.residuals) == 2
    assert all(r <= 1e-8 for r in rep.residuals)


@pytest.mark.parametrize("dims,eps", [((2, 3), 5e-9), ((2, 2, 2), 5e-9), ((2, 2, 2, 2), 7e-9)],
                         ids=["2x3", "2x2x2", "2x2x2x2"])
def test_near_product_within_rank1_accept_extracts(dims, eps):
    # F_1 (x) ... (x) F_K + eps G_1 (x) ... (x) G_K with unit factors and
    # each G_k orthogonal to F_k: every cut's realignment has sigma_2 /
    # sigma_1 = eps, numerical rank two (the cutoff is about 9e-10 for a
    # (2,3) cut, 1.6e-9 for (2,2,2) and 6.4e-9 for (2,2,2,2)) but within
    # RANK1_ACCEPT, the threshold extraction applies, so the report and the
    # extraction agree
    rng = np.random.default_rng(21)
    frames = [np.linalg.qr(random_complex(rng, d * d, 2))[0] for d in dims]
    a = (kron_list([unvec(q[:, 0], d, d) for q, d in zip(frames, dims)])
         + eps * kron_list([unvec(q[:, 1], d, d) for q, d in zip(frames, dims)]))
    rep = decomposability(a, dims)
    assert rep.invertible and rep.decomposable
    assert all(rank == 2 for _, _, rank in rep.per_party)
    assert all(np.isclose(r, eps, rtol=1e-3) for r in rep.residuals)
    fs = extract_factors(a, dims)
    assert np.linalg.norm(kron(fs) - a) <= 1e-8 * np.linalg.norm(a)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        decomposability(np.eye(6), (2, 2))
    with pytest.raises(ValueError):
        extract_factors(np.eye(6), (2, 2))
