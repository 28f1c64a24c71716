"""Workload inputs, built from a seed with no help from the program.

Every pair carries a ground-truth label that holds by construction (an
explicit local map relates the two states) or by theorem (a rank invariant,
the Verstraete-Dehaene-De Moor normal form, or the GHZ/W class split). Pairs
whose label cannot be established are redrawn, never included. States are
plain numpy arrays; the runner wraps them in the program's state types.

Nothing here imports statekit, so a change to the program's own fixture or
random-map helpers cannot change a workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

EQUIVALENT = "equivalent"
INEQUIVALENT = "inequivalent"

# Condition-number cap for the random local maps that build equivalent pairs.
LOCAL_COND_CAP = 100.0
# Normal-form spectra closer than this are not taken as proof of inequivalence.
SPECTRUM_GAP = 1e-6


@dataclass(frozen=True)
class Pair:
    """One input pair with its ground truth and the reason it holds."""

    pair_id: str
    kind: str  # "mixed" or "pure"
    dims: tuple[int, ...]
    first: np.ndarray
    second: np.ndarray
    label: str
    basis: str


# ---------------------------------------------------------------- builders


def _gauss(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_density(rng, dims, rank=None) -> np.ndarray:
    """Gram matrix of an n x rank complex Gaussian, trace one."""
    n = int(np.prod(dims))
    g = _gauss(rng, n, n if rank is None else rank)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_vector(rng, n) -> np.ndarray:
    v = _gauss(rng, n)
    return v / np.linalg.norm(v)


def random_local_map(rng, dims) -> list[np.ndarray]:
    """Complex Gaussian factors, redrawn until each is well conditioned."""
    out = []
    for d in dims:
        while True:
            f = _gauss(rng, d, d)
            s = np.linalg.svd(f, compute_uv=False)
            if s[0] / s[-1] <= LOCAL_COND_CAP:
                out.append(f)
                break
    return out


def kron_all(mats) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def conjugate(rho, a) -> np.ndarray:
    img = a @ rho @ a.conj().T
    return img / np.trace(img).real


def apply(psi, a) -> np.ndarray:
    img = a @ psi
    return img / np.linalg.norm(img)


def bell_diagonal(weights) -> np.ndarray:
    """sum_k w_k |B_k><B_k| over (Phi+, Phi-, Psi+, Psi-)."""
    basis = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2.0)
    return sum(w * np.outer(b, b) for w, b in zip(weights, basis)).astype(complex)


def corner_family(a, b, c, corner) -> np.ndarray:
    """diag(1, a, b, c, 1/c, 1/b, 1/a, 1) with `corner` at (0,7) and (7,0)."""
    m = np.diag([1.0, a, b, c, 1.0 / c, 1.0 / b, 1.0 / a, 1.0]).astype(complex)
    m[0, 7] = m[7, 0] = corner
    return m / np.trace(m).real


# ------------------------------------------------ normal-form spectra label


def _reduced(rho, dims, party) -> np.ndarray:
    k = len(dims)
    t = rho.reshape(dims + dims)
    keep = [party, k + party]
    rest = [i for i in range(k) if i != party]
    t = t.transpose(keep + rest + [k + i for i in rest])
    n = dims[party]
    r = int(np.prod([dims[i] for i in rest]))
    return np.einsum("abii->ab", t.reshape(n, n, r, r))


def filtered_spectrum(rho, dims, sweeps=3000, tol=1e-11):
    """Spectrum of the local filtering normal form, whose reduced matrices
    are all maximally mixed; None when the filtering does not converge."""
    dims = tuple(dims)
    r = rho / np.trace(rho).real
    for _ in range(sweeps):
        dev = 0.0
        for p, d in enumerate(dims):
            red = _reduced(r, dims, p)
            dev = max(dev, float(np.linalg.norm(d * red - np.eye(d))))
            w, v = np.linalg.eigh(red)
            if w.min() < 1e-13:
                return None
            f = (v * (d * w) ** -0.5) @ v.conj().T
            big = kron_all([f if q == p else np.eye(n) for q, n in enumerate(dims)])
            r = conjugate(r, big)
        if dev < tol:
            return np.sort(np.linalg.eigvalsh(r))
    return None


def normal_forms_differ(rho1, rho2, dims) -> bool:
    """True when both normal forms exist and their spectra differ. Equivalent
    states have local-unitarily related normal forms (Verstraete, Dehaene and
    De Moor, PRA 68, 012103), so this proves inequivalence."""
    s1 = filtered_spectrum(rho1, dims)
    s2 = filtered_spectrum(rho2, dims)
    return s1 is not None and s2 is not None and float(np.max(np.abs(s1 - s2))) > SPECTRUM_GAP


# ------------------------------------------------------------ pair kinds


def mixed_equivalent(rng, dims, rank=None) -> tuple:
    rho = random_density(rng, dims, rank)
    a = kron_all(random_local_map(rng, dims))
    return rho, conjugate(rho, a), EQUIVALENT, "random local map"


def mixed_rank_mismatch(rng, dims) -> tuple:
    n = int(np.prod(dims))
    low = int(rng.integers(1, n))
    return (random_density(rng, dims), random_density(rng, dims, low),
            INEQUIVALENT, f"global rank {n} vs {low}")


def mixed_independent(rng, dims, rank=None):
    rho1 = random_density(rng, dims, rank)
    rho2 = random_density(rng, dims, rank)
    if not normal_forms_differ(rho1, rho2, dims):
        return None
    return rho1, rho2, INEQUIVALENT, "normal-form spectra differ"


def _distinct_params(rng, count, banned, lo=0.25, hi=3.0):
    vals: list[float] = []
    while len(vals) < count:
        x = float(rng.uniform(lo, hi))
        if all(abs(x - v) >= 0.05 for v in (*banned, *vals)):
            vals.append(x)
    return vals


def fixture1_pair(rng, matched):
    """Bell-diagonal states; a Pauli or Hadamard pair permutes the weights."""
    lam = rng.dirichlet(np.ones(4))
    if matched:
        perm = [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0), (0, 2, 1, 3)][int(rng.integers(4))]
        return (bell_diagonal(lam), bell_diagonal(lam[list(perm)]), EQUIVALENT,
                "Bell weights permuted by a local Pauli or Hadamard pair")
    rho1, rho2 = bell_diagonal(lam), bell_diagonal(rng.dirichlet(np.ones(4)))
    if not normal_forms_differ(rho1, rho2, (2, 2)):
        return None
    return rho1, rho2, INEQUIVALENT, "normal-form spectra differ"


def fixture2_pair(rng, matched):
    """Full-corner family; (alpha/a)(beta/b) = gamma/c is met by diagonal
    local maps, and detuning gamma breaks it."""
    a, b, c = _distinct_params(rng, 3, (1.0,))
    u, v = _distinct_params(rng, 2, (1.0,), 0.5, 2.0)
    alpha, beta, gamma = u * a, v * b, u * v * c
    if not matched:
        gamma *= float(rng.uniform(1.03, 1.2))
    if min(alpha, beta, gamma) < 1e-3 or min(abs(x - 1.0) for x in (alpha, beta, gamma)) < 0.02:
        return None
    if len({round(x, 6) for x in (alpha, beta, gamma)}) < 3:
        return None
    rho1 = corner_family(a, b, c, 1.0)
    rho2 = corner_family(alpha, beta, gamma, 1.0)
    if matched:
        return rho1, rho2, EQUIVALENT, "diagonal local maps"
    if not normal_forms_differ(rho1, rho2, (2, 2, 2)):
        return None
    return rho1, rho2, INEQUIVALENT, "normal-form spectra differ"


def fixture3_pair(rng):
    """Half-corner family and its image under a fixed middle rotation."""
    a, b, c = _distinct_params(rng, 3, (0.5, 2.0 / 3.0, 1.0, 1.5, 2.0), 0.25, 1.9)
    rot = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    rho = corner_family(a, b, c, 0.5)
    u = kron_all([np.eye(2), rot, np.eye(2)])
    return rho, conjugate(rho, u), EQUIVALENT, "middle-party rotation"


def pure_equivalent(rng, dims):
    psi = random_vector(rng, int(np.prod(dims)))
    a = kron_all(random_local_map(rng, dims))
    return psi, apply(psi, a), EQUIVALENT, "random local map"


def pure_product_factor(rng, dims):
    """A product of one local vector and a random state of the other
    parties, against its image under a random local map."""
    psi = np.kron(random_vector(rng, dims[0]), random_vector(rng, int(np.prod(dims[1:]))))
    a = kron_all(random_local_map(rng, dims))
    return psi, apply(psi, a), EQUIVALENT, "random local map of a product state"


GHZ = np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
W = np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=complex) / np.sqrt(3.0)


def ghz_w(order):
    first, second = (GHZ, W) if order == 0 else (W, GHZ)
    return first, second, INEQUIVALENT, "GHZ and W classes (Dur, Vidal, Cirac 2000)"


def fixture4_pair(order):
    """|0>(|01>+|10>) against (|01>+|10>)|1>: product over different cuts."""
    phi = np.zeros(8, dtype=complex)
    phi[1] = phi[2] = 1 / np.sqrt(2.0)
    psi = np.zeros(8, dtype=complex)
    psi[5] = psi[3] = 1 / np.sqrt(2.0)
    first, second = (phi, psi) if order == 0 else (psi, phi)
    return first, second, INEQUIVALENT, "single-party ranks differ"


# ------------------------------------------------------------- workloads

Recipe = tuple[str, str, tuple[int, ...], Callable]

# One cycle of each workload. A run measures whole cycles, so every run sees
# the kinds in these proportions. The shares are set so that the median and
# the tail percentile each fall inside one kind's band of verdict times
# rather than on the edge between two, which keeps them steady across seeds.
MIXED_RANDOM: list[Recipe] = [
    ("r22", "mixed", (2, 2), lambda g: mixed_equivalent(g, (2, 2))),
    ("r222", "mixed", (2, 2, 2), lambda g: mixed_equivalent(g, (2, 2, 2))),
    ("r23", "mixed", (2, 3), lambda g: mixed_equivalent(g, (2, 3))),
    ("r2222", "mixed", (2, 2, 2, 2), lambda g: mixed_equivalent(g, (2, 2, 2, 2))),
    ("r33", "mixed", (3, 3), lambda g: mixed_equivalent(g, (3, 3))),
    ("r222b", "mixed", (2, 2, 2), lambda g: mixed_equivalent(g, (2, 2, 2))),
    ("r222c", "mixed", (2, 2, 2), lambda g: mixed_equivalent(g, (2, 2, 2))),
]

MIXED_STRUCTURED: list[Recipe] = [
    ("f2", "mixed", (2, 2, 2), lambda g: fixture2_pair(g, True)),
    ("rank", "mixed", (2, 2, 2), lambda g: mixed_rank_mismatch(g, (2, 2, 2))),
    ("indep", "mixed", (2, 2, 2), lambda g: mixed_independent(g, (2, 2, 2))),
    ("f3", "mixed", (2, 2, 2), fixture3_pair),
    ("f2detuned", "mixed", (2, 2, 2), lambda g: fixture2_pair(g, False)),
    ("indepb", "mixed", (2, 2, 2), lambda g: mixed_independent(g, (2, 2, 2))),
    ("f1", "mixed", (2, 2), lambda g: fixture1_pair(g, True)),
    ("eq6", "mixed", (2, 2, 2), lambda g: mixed_equivalent(g, (2, 2, 2), 6)),
    ("rank23", "mixed", (2, 3), lambda g: mixed_rank_mismatch(g, (2, 3))),
    ("indepc", "mixed", (2, 2, 2), lambda g: mixed_independent(g, (2, 2, 2))),
    ("f1other", "mixed", (2, 2), lambda g: fixture1_pair(g, False)),
    ("f2detunedb", "mixed", (2, 2, 2), lambda g: fixture2_pair(g, False)),
    ("indepd", "mixed", (2, 2, 2), lambda g: mixed_independent(g, (2, 2, 2))),
    ("indep6", "mixed", (2, 2, 2), lambda g: mixed_independent(g, (2, 2, 2), 6)),
]

PURE: list[Recipe] = [
    ("p22", "pure", (2, 2), lambda g: pure_equivalent(g, (2, 2))),
    ("p222", "pure", (2, 2, 2), lambda g: pure_equivalent(g, (2, 2, 2))),
    ("ghzw", "pure", (2, 2, 2), lambda g: ghz_w(0)),
    ("p34", "pure", (3, 4), lambda g: pure_equivalent(g, (3, 4))),
    ("p223", "pure", (2, 2, 3), lambda g: pure_equivalent(g, (2, 2, 3))),
    ("prod222", "pure", (2, 2, 2), lambda g: pure_product_factor(g, (2, 2, 2))),
    ("f4", "pure", (2, 2, 2), lambda g: fixture4_pair(0)),
    ("p2222", "pure", (2, 2, 2, 2), lambda g: pure_equivalent(g, (2, 2, 2, 2))),
    ("wghz", "pure", (2, 2, 2), lambda g: ghz_w(1)),
    ("p333", "pure", (3, 3, 3), lambda g: pure_equivalent(g, (3, 3, 3))),
    ("prod2222", "pure", (2, 2, 2, 2), lambda g: pure_product_factor(g, (2, 2, 2, 2))),
    ("f4swap", "pure", (2, 2, 2), lambda g: fixture4_pair(1)),
]

LIBRARY = {"mixed-random": MIXED_RANDOM, "mixed-structured": MIXED_STRUCTURED, "pure": PURE}


def build_cycle(recipes: list[Recipe], seed: int, cycle: int) -> list[Pair]:
    """One round of the recipe list, each pair drawn from its own stream of
    `seed`, redrawing any pair whose label cannot be proved."""
    pairs = []
    for slot, (tag, kind, dims, make) in enumerate(recipes):
        rng = np.random.default_rng([seed, cycle, slot])
        made = None
        while made is None:
            made = make(rng)
        first, second, label, basis = made
        pairs.append(Pair(f"{tag}-{cycle}", kind, dims, first, second, label, basis))
    return pairs
