"""curvlab: a numerical laboratory for algebraic curvature operators.

Dense curvature tensors with enforced symmetries, model geometries
(spheres, complex projective space, products, flat paddings), orthonormal
frames and their weighted lifts, the isotropic-curvature functional and
its pinching family, multistart Stiefel minimization behind the condition
checkers, and the quadratic reaction ODE with cone-margin experiments.
"""

from .tensors import (
    CurvatureTensor,
    combine,
    fubini_study,
    pad_euclidean,
    product,
    project_curvature,
    random_tensor,
    ricci,
    scalar_curvature,
    sectional,
    sphere,
    standard_complex_structure,
    symmetry_residuals,
)
from .frames import (
    Frame,
    complete_basis,
    cyclic_frames,
    lift_frame,
    random_block_rotation,
    random_frame,
    random_unitary,
    unitary_action,
)
from .conditions import (
    ConditionReport,
    MinimizeOpts,
    ProductBlockGroup,
    UnitaryGroup,
    Weights,
    check_nic,
    check_pic2,
    cyclic_sum_identity,
    frame_objective,
    holonomy_orbit_invariance,
    isotropic_curvature,
    lift_identity_residual,
    minimize_frame,
    quarter_pinch_reports,
    weighted_isotropic_curvature,
)
from .flow import (
    ConeMarginResult,
    FlowBlowupError,
    FlowOpts,
    FlowTrace,
    TraceRow,
    cone_margin_experiment,
    decomposition_residual,
    integrate,
    quadratic_reaction,
    sphere_kappa,
)

__version__ = "0.1.0"

__all__ = [
    "CurvatureTensor",
    "combine",
    "fubini_study",
    "pad_euclidean",
    "product",
    "project_curvature",
    "random_tensor",
    "ricci",
    "scalar_curvature",
    "sectional",
    "sphere",
    "standard_complex_structure",
    "symmetry_residuals",
    "Frame",
    "complete_basis",
    "cyclic_frames",
    "lift_frame",
    "random_block_rotation",
    "random_frame",
    "random_unitary",
    "unitary_action",
    "ConditionReport",
    "MinimizeOpts",
    "ProductBlockGroup",
    "UnitaryGroup",
    "Weights",
    "check_nic",
    "check_pic2",
    "cyclic_sum_identity",
    "frame_objective",
    "holonomy_orbit_invariance",
    "isotropic_curvature",
    "lift_identity_residual",
    "minimize_frame",
    "quarter_pinch_reports",
    "weighted_isotropic_curvature",
    "ConeMarginResult",
    "FlowBlowupError",
    "FlowOpts",
    "FlowTrace",
    "TraceRow",
    "cone_margin_experiment",
    "decomposition_residual",
    "integrate",
    "quadratic_reaction",
    "sphere_kappa",
]
