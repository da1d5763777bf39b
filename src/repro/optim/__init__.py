"""SGD substrate: losses, update operators, schedules, projections, PSGD.

This package is the non-private optimization layer the paper treats as a
black box. :mod:`repro.core` builds the bolt-on private algorithms on top
of it; :mod:`repro.baselines` builds the white-box competitors by using its
noise/sampling hooks.
"""

from repro.optim.growth import (
    averaged_divergence_bound,
    divergence_bound,
    worst_case_divergence_bound,
)
from repro.optim.losses import (
    HingeLoss,
    HuberSVMLoss,
    LeastSquaresLoss,
    LogisticLoss,
    Loss,
    LossProperties,
    MarginLoss,
    fusion_groups,
)
from repro.optim.operators import (
    BatchGradientUpdate,
    GradientUpdate,
    OperatorBounds,
    boundedness_bound,
    empirical_boundedness,
    empirical_expansiveness,
    expansiveness_bound,
    operator_bounds,
)
from repro.optim.projection import (
    BoxProjection,
    IdentityProjection,
    L2BallProjection,
    Projection,
    rows_projector,
)
from repro.optim.psgd import (
    PSGD,
    ModelSpec,
    MultiModelPSGD,
    MultiModelResult,
    PSGDConfig,
    PSGDResult,
    minibatch_slices,
    run_psgd,
)
from repro.optim.variance_reduced import SAG, SVRG, VarianceReducedResult
from repro.optim.schedules import (
    BST14Schedule,
    CappedInverseTSchedule,
    ConstantSchedule,
    DecreasingSchedule,
    InverseSqrtTSchedule,
    InverseTSchedule,
    SquareRootSchedule,
    StepSizeSchedule,
    validate_convex_step_size,
    validate_strongly_convex_step_size,
)

__all__ = [
    "Loss",
    "MarginLoss",
    "LossProperties",
    "LogisticLoss",
    "HuberSVMLoss",
    "LeastSquaresLoss",
    "HingeLoss",
    "GradientUpdate",
    "BatchGradientUpdate",
    "OperatorBounds",
    "expansiveness_bound",
    "boundedness_bound",
    "operator_bounds",
    "empirical_expansiveness",
    "empirical_boundedness",
    "Projection",
    "IdentityProjection",
    "L2BallProjection",
    "BoxProjection",
    "StepSizeSchedule",
    "ConstantSchedule",
    "InverseTSchedule",
    "CappedInverseTSchedule",
    "InverseSqrtTSchedule",
    "DecreasingSchedule",
    "SquareRootSchedule",
    "BST14Schedule",
    "validate_convex_step_size",
    "validate_strongly_convex_step_size",
    "PSGD",
    "PSGDConfig",
    "PSGDResult",
    "ModelSpec",
    "MultiModelPSGD",
    "MultiModelResult",
    "fusion_groups",
    "rows_projector",
    "SVRG",
    "SAG",
    "VarianceReducedResult",
    "run_psgd",
    "minibatch_slices",
    "divergence_bound",
    "worst_case_divergence_bound",
    "averaged_divergence_bound",
]
