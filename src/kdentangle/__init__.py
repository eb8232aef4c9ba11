"""Kirkwood-Dirac quasiprobability tables and a nonreality-based bipartite
entanglement monotone: closed form, basis optimization, convex roof, bounds,
and a sampled estimation pipeline."""

from .entanglement import (
    BoundsReport,
    PureEntanglementReport,
    asymmetry_lower_bound,
    binary_entropy,
    bounds_report,
    certified_lower,
    entropy_from_concurrence,
    marginal_disturbance,
    measurement_disturbance,
    minimized_nonreality,
    mixed_entanglement,
    nonreality_entropy,
    pure_entanglement,
    roof_normalization,
    wootters_concurrence,
)
from .errors import (
    BadParamCount,
    BadSpec,
    BasisPairSingular,
    DimensionMismatch,
    DomainError,
    KdToolError,
    NoConvergence,
    NotPSD,
    NotUnitary,
    OptimizerFailed,
)
from .kd import (
    KDDistribution,
    kd_full,
    kd_marginal,
    kd_to_csv,
    max_nonreality,
    nonreality,
    optimal_second_basis,
    reconstruct_state,
)
from .linalg import (
    commutator_trace_norm,
    embed_local,
    partial_trace,
    svd,
    trace_norm,
)
from .optimize import (
    ConvexRoofResult,
    OptimizerConfig,
    SearchDiagnostics,
    minimize_convex_roof,
    minimize_over_bases,
    unitary_from_angles,
)
from .states import (
    BipartiteDims,
    BipartitePureState,
    DensityOperator,
    SchmidtDecomposition,
    apply_local_unitary,
    basis_ket,
    bell_state,
    haar_pure,
    haar_unitary,
    isotropic_state,
    load_state,
    make_state,
    max_entangled,
    product_state,
    random_entangled_pure,
    random_mixed,
    random_product_pure,
    save_state,
    schmidt,
    werner_state,
)
from .weakvalue import (
    ShotRecord,
    WeakValueEstimate,
    estimate_kd_imag,
    sample_born,
    sampled_entanglement,
    sampled_max_nonreality,
)

__version__ = "0.1.0"
