"""statekit: equivalence of multiparty states under invertible local maps.

The package decides whether two states (pure vectors or density matrices)
are related by a Kronecker product of invertible per-party factors. Verdicts
are three-valued: Inequivalent only on decisive invariant mismatches,
Equivalent only with an independently verified witness, Inconclusive
otherwise.

`import statekit` loads neither numpy nor any of its modules. Each public
name imports its home module the first time it is read, so the command line
can refuse a bad call before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "linalg": (
        "RANK1_ACCEPT", "RANK_REL_TOL", "RankReport", "SystemShape", "vec", "unvec",
        "realign", "realign_inverse", "bipartition_view", "eigh_desc", "rank_report",
        "decisive_rank", "rank_mismatch", "partial_trace_keep", "kron_list",
    ),
    "factor": (
        "FactorSet", "DecomposabilityReport", "NotDecomposable", "canonicalize", "kron",
        "decomposability", "extract_factors",
    ),
    "mixed": (
        "MixedState", "NoNormalForm", "normal_form", "check_mixed_equivalence",
    ),
    "pure": (
        "PureState", "RankSignature", "coefficient_matrix", "rank_signature",
        "check_bipartite", "check_pure_equivalence",
    ),
    "oracle": (
        "ORACLE_TOL", "BACKWARD_TOL", "Verdict", "WitnessCheck", "FixtureParams",
        "witness_verdict", "verify_witness_pure", "verify_witness_mixed", "random_ilo",
        "make_equivalent_pair", "fixtures",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
