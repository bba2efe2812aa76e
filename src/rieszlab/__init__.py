"""Numerical laboratory for discrete Riesz transforms on weighted point clouds.

The package computes truncated and regularized vector Riesz kernels against
finite weighted point measures, estimates L2 operator norms, Menger curvature
and multiscale density functionals, and runs an AD-regularization pipeline
that augments a measure with planar patches under a bounded-overlap ball
cover.  A treecode accelerates kernel summation for large supports.
"""

from rieszlab.measure import (
    DiscreteMeasure,
    ScaleGrid,
    SpatialTree,
    EmptySelectionError,
    total_mass,
    ball_mass,
    ball_masses,
    density_ratios,
    growth_constant,
    density_profile,
    ad_constants,
    restrict,
    support_diameter,
    read_measure,
    write_measure,
)
from rieszlab.kernels import (
    KernelConfig,
    VectorField,
    TRUNCATED,
    REGULARIZED,
    kernel_eval,
    riesz_apply,
    maximal_function,
    truncation_gap_check,
    read_vector_field,
    write_vector_field,
)
from rieszlab.analysis import (
    NormEstimate,
    CurvatureEstimate,
    NonConvergenceError,
    operator_norm,
    dense_operator_norm,
    adjoint_apply,
    menger_curvature,
    curvature_c2,
    norm_sweep,
    joint_norm_experiment,
)
from rieszlab.generators import (
    gen_plane,
    gen_segment,
    gen_lipschitz_graph,
    gen_four_corners,
    gen_sparse_cantor,
    gen_union,
    DecayTrendWarning,
)
from rieszlab.treecode import (
    TreecodeParams,
    build_tree,
    treecode_apply,
)
from rieszlab.construction import (
    DensitySubsetParams,
    CoverReport,
    DiskPatch,
    BackdropPlane,
    ConstructionResult,
    VerificationReport,
    EmptyCoreError,
    EmptyExclusionError,
    ZeroMassBallError,
    UnassignedPointError,
    CoverOverlapError,
    density_params,
    extract_dense_set,
    extract_core_set,
    besicovitch_cover,
    attach_patches,
    build_regularized_measure,
    build_proxy_measure,
    split_local_nonlocal,
    transfer_ball_averages,
    ball_interaction_field,
    comparison_mismatch_ratio,
    run_construction,
    adaptive_family,
    verify_construction,
    save_construction,
)

__version__ = "0.1.0"
