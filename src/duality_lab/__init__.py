"""Numerical verification of the coherence / path-distinguishability
duality in n-path interferometers.

The wave side of an interference experiment is quantified by the
normalized l1 coherence of the quanton's reduced state; the particle
side by an unambiguous-state-discrimination bound over the which-path
detector states. For pure quantons the two sum to one exactly; mixing
the quanton or the detector turns the equality into an inequality with
an explicitly computable slack. This package builds the configurations,
computes every quantity, scans fringe visibilities, and verifies the
relations on closed-form and randomized instances.
"""

from .duality import (
    SCENARIOS,
    CampaignResult,
    DualityReport,
    ThreeSlitReport,
    TwoSlitReport,
    check_three_slit_relation,
    check_two_slit_relation,
    evaluate_mixed,
    evaluate_mixed_detector,
    evaluate_pure,
    run_campaign,
    sweep_overlap,
)
from .interference import (
    FringeScan,
    intensity,
    scan_visibility,
    symmetric_detectors,
)
from .linalg import (
    DensityMatrix,
    NotHermitianError,
    NotPSDError,
    NotUnitTraceError,
    ValidationError,
    partial_trace_second,
    principal_submatrix_margin,
    spectral_decompose,
    tensor,
    validate_density,
)
from .measures import (
    coherence_bound_mixed_detector,
    coherence_l1,
    coherence_normalized,
    distinguishability_mixed,
    distinguishability_mixed_detector,
    distinguishability_pure,
    egy_distinguishability,
    idp_limit,
    mixed_duality_slack,
    uqsd_bound,
)
from .random import (
    haar_unitary,
    random_density,
    random_density_matrix,
    random_detectors,
    random_pure,
    stream,
    uniform_overlap_detectors,
)
from .states import (
    BranchOverlaps,
    DetectorSet,
    MixedDetectorInteraction,
    MixedQuanton,
    PureQuanton,
    branch_overlaps,
    entangle_pure,
    induced_detectors,
    joint_mixed,
    reduce_quanton,
    reduce_quanton_mixed_detector,
)

__version__ = "0.1.0"
