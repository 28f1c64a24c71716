"""Ground-truth scoring and the benchmark's own witness re-check.

A verdict is unsound when it contradicts the pair's label, or when it is
Equivalent with a witness that fails the substitution below. The re-check
shares no code with the program: it multiplies the factors out itself.
"""

from __future__ import annotations

import numpy as np

from workloads import EQUIVALENT, INEQUIVALENT, Pair

# Looser than the program's own gate, so only a real defect trips it.
RECHECK_TOL = 1e-6


def witness_residual(kind: str, first, second, factors, scale) -> float:
    """Residual of `first` against the image of `second` under
    scale * (f_1 (x) ... (x) f_K), after normalization."""
    a = complex(scale) * np.ones((1, 1), dtype=complex)
    for f in factors:
        a = np.kron(a, np.asarray(f, dtype=complex))
    first = np.asarray(first, dtype=complex)
    second = np.asarray(second, dtype=complex)
    if a.shape[0] != second.shape[0] or not np.all(np.isfinite(a)):
        return float("inf")
    if kind == "pure":
        img = a @ second.reshape(-1)
        nrm = float(np.linalg.norm(img))
        if nrm == 0.0:
            return float("inf")
        img = img / nrm
        target = first.reshape(-1) / np.linalg.norm(first)
        ip = complex(np.vdot(img, target))
        phase = ip / abs(ip) if abs(ip) > 0.0 else 1.0
        return float(np.linalg.norm(target - phase * img))
    img = a @ second @ a.conj().T
    tr = float(np.trace(img).real)
    if not tr > 0.0:
        return float("inf")
    return float(np.linalg.norm(first - img / tr) / np.linalg.norm(first))


def score(pair: Pair, outcome: str, factors=None, scale=1.0) -> tuple[bool, bool]:
    """(solved, unsound) for one verdict on a labelled pair."""
    if outcome == "Equivalent":
        ok = (
            factors is not None
            and witness_residual(pair.kind, pair.first, pair.second, factors, scale) <= RECHECK_TOL
        )
        sound = ok and pair.label == EQUIVALENT
        return sound, not sound
    if outcome == "Inequivalent":
        return pair.label == INEQUIVALENT, pair.label != INEQUIVALENT
    return False, False
