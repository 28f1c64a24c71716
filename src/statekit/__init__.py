"""statekit: equivalence of multiparty states under invertible local maps.

The package decides whether two states (pure vectors or density matrices)
are related by a Kronecker product of invertible per-party factors. Verdicts
are three-valued: Inequivalent only on decisive invariant mismatches,
Equivalent only with an independently verified witness, Inconclusive
otherwise.
"""

from .linalg import (
    RANK1_ACCEPT,
    RANK_REL_TOL,
    RankReport,
    SystemShape,
    bipartition_view,
    decisive_rank,
    eigh_desc,
    kron_list,
    partial_trace_keep,
    rank_mismatch,
    rank_report,
    realign,
    realign_inverse,
    unvec,
    vec,
)
from .factor import (
    DecomposabilityReport,
    FactorSet,
    NotDecomposable,
    canonicalize,
    decomposability,
    extract_factors,
    kron,
)
from .mixed import (
    MixedState,
    SpectralData,
    check_mixed_equivalence,
    invariant_screen,
    normal_form,
    spectral_prep,
)
from .pure import (
    PureState,
    RankSignature,
    check_bipartite,
    check_pure_equivalence,
    coefficient_matrix,
    rank_signature,
)
from .oracle import (
    BACKWARD_TOL,
    ORACLE_TOL,
    FixtureParams,
    Verdict,
    WitnessCheck,
    fixtures,
    make_equivalent_pair,
    random_ilo,
    verify_witness_mixed,
    verify_witness_pure,
    witness_verdict,
)

__version__ = "0.1.0"

__all__ = [
    "RANK1_ACCEPT",
    "RANK_REL_TOL",
    "ORACLE_TOL",
    "BACKWARD_TOL",
    "RankReport",
    "SystemShape",
    "vec",
    "unvec",
    "realign",
    "realign_inverse",
    "bipartition_view",
    "eigh_desc",
    "rank_report",
    "decisive_rank",
    "rank_mismatch",
    "partial_trace_keep",
    "kron_list",
    "FactorSet",
    "DecomposabilityReport",
    "NotDecomposable",
    "canonicalize",
    "kron",
    "decomposability",
    "extract_factors",
    "MixedState",
    "SpectralData",
    "spectral_prep",
    "normal_form",
    "invariant_screen",
    "check_mixed_equivalence",
    "PureState",
    "RankSignature",
    "coefficient_matrix",
    "rank_signature",
    "check_bipartite",
    "check_pure_equivalence",
    "Verdict",
    "WitnessCheck",
    "FixtureParams",
    "witness_verdict",
    "verify_witness_pure",
    "verify_witness_mixed",
    "random_ilo",
    "make_equivalent_pair",
    "fixtures",
    "__version__",
]
