"""Polyharmonic Poisson and Bergman kernels on unions of rotated unit balls.

Evaluates the closed forms and zonal series of the order-p Poisson and
Bergman kernels (weighted and unweighted), the zonal-polyharmonic machinery
behind them, polyharmonic polynomial test functions, and the sphere/ball
quadrature needed to verify every reproducing identity numerically.
"""

__version__ = "0.1.0"

from .core import (
    KernelConfig,
    PairInvariants,
    RotatedPoint,
    make_rotated_point,
    pair_invariants,
    principal_pow,
    unit_ball_volume,
)
from .errors import (
    BranchCutProximity,
    ConvergenceDomain,
    KernelDomainError,
    NearSingular,
)
from .kernels import (
    Truncation,
    bergman,
    bergman_decomposed,
    bergman_series,
    calibrated_constant,
    derivative_form_check,
    evaluation_regime,
    make_truncation,
    poisson,
    poisson_series,
    truncation_degree,
    weighted_bergman_decomposed,
    weighted_bergman_series,
    weighted_coefficient,
)
from .polyspace import (
    PolyharmonicPolynomial,
    ZonalBlock,
    evaluate,
    from_json,
    random_homogeneous,
    random_polyharmonic,
    to_json,
)
from .quadrature import (
    BallRule,
    RadialRule,
    SphereRule,
    build_ball_rule,
    build_radial_rule,
    build_sphere_rule,
    inner_product_ball,
    inner_product_sphere,
    laplacian_power_residual,
    mean_value_eval,
    radial_moment,
    reproduce,
    sphere_monomial_moment,
)
from .verify import SUITES, run_suite
from .zonal import (
    BACKEND_NAME,
    sph_dim,
    zonal_polyharmonic,
)

__all__ = [
    "BACKEND_NAME",
    "BallRule",
    "BranchCutProximity",
    "ConvergenceDomain",
    "KernelConfig",
    "KernelDomainError",
    "NearSingular",
    "PairInvariants",
    "PolyharmonicPolynomial",
    "RadialRule",
    "RotatedPoint",
    "SphereRule",
    "SUITES",
    "Truncation",
    "ZonalBlock",
    "bergman",
    "bergman_decomposed",
    "bergman_series",
    "build_ball_rule",
    "build_radial_rule",
    "build_sphere_rule",
    "calibrated_constant",
    "derivative_form_check",
    "evaluate",
    "evaluation_regime",
    "from_json",
    "inner_product_ball",
    "inner_product_sphere",
    "laplacian_power_residual",
    "make_rotated_point",
    "make_truncation",
    "mean_value_eval",
    "pair_invariants",
    "poisson",
    "poisson_series",
    "principal_pow",
    "radial_moment",
    "random_homogeneous",
    "random_polyharmonic",
    "reproduce",
    "run_suite",
    "sph_dim",
    "sphere_monomial_moment",
    "to_json",
    "truncation_degree",
    "unit_ball_volume",
    "weighted_bergman_decomposed",
    "weighted_bergman_series",
    "weighted_coefficient",
    "zonal_polyharmonic",
]
