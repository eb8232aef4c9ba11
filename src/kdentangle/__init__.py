"""Kirkwood-Dirac quasiprobability tables and a nonreality-based bipartite
entanglement monotone: closed form, basis optimization, convex roof, bounds,
and a sampled estimation pipeline."""

from .entanglement import (
    BoundsReport,
    ConvexRoofResult,
    PureEntanglementReport,
    asymmetry_lower_bound,
    bounds_report,
    certified_lower,
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
    KdToolError,
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
    trace_norm,
)
from .optimize import (
    OptimizerConfig,
    SearchDiagnostics,
    minimize_over_bases,
    unitary_from_angles,
)
from .states import (
    BipartiteDims,
    BipartitePureState,
    DensityOperator,
    SchmidtDecomposition,
    bell_state,
    haar_pure,
    haar_unitary,
    isotropic_state,
    load_state,
    make_basis,
    make_state,
    max_entangled,
    product_state,
    random_mixed,
    save_state,
    schmidt,
    werner_state,
)
from .weakvalue import (
    ShotRecord,
    WeakValueEstimate,
    estimate_kd_imag,
    sampled_entanglement,
    sampled_max_nonreality,
)

__version__ = "0.1.0"
