"""germimage: classify the local image of polynomial map germs (C^n,0) -> (C^2,0).

Exact symbolic decision pipeline (gcd decomposition, the pencil criterion
with one nomination walk for gap lines and gap curves, one resultant for
curve images) cross-checked by a seeded Monte Carlo occupancy probe.
"""

from .algebra import (
    GcdDecomposition,
    IntersectionCase,
    decompose,
    gcd,
    intersection_dimension_case,
    jacobian_rank_deficient,
    squarefree_part,
    zero_set_germ_included,
)
from .classifier import (
    PlaneCurveCandidate,
    ProjectiveRatio,
    Status,
    SubflatLabel,
    Verdict,
    bounded_gap_curve_search,
    classify,
    is_gap_curve,
    pencil_constancy_locus,
    prop_crit_check,
    verify_witness,
    witness_kind,
)
from .groebner import image_curve_equation
from .parsing import format_polynomial, parse_map_germ, parse_polynomial
from .poly import MapGerm, Polynomial, compose_target
from .probe import (
    OccupancyReport,
    SamplerConfig,
    ball_image_occupancy,
    curve_residual_probe,
    germ_stability_probe,
)
from .rationals import GaussianRational

__version__ = "0.1.0"

__all__ = [
    "GaussianRational",
    "Polynomial",
    "MapGerm",
    "compose_target",
    "gcd",
    "squarefree_part",
    "zero_set_germ_included",
    "decompose",
    "GcdDecomposition",
    "IntersectionCase",
    "intersection_dimension_case",
    "jacobian_rank_deficient",
    "image_curve_equation",
    "ProjectiveRatio",
    "PlaneCurveCandidate",
    "Status",
    "SubflatLabel",
    "Verdict",
    "classify",
    "verify_witness",
    "witness_kind",
    "prop_crit_check",
    "pencil_constancy_locus",
    "is_gap_curve",
    "bounded_gap_curve_search",
    "SamplerConfig",
    "OccupancyReport",
    "ball_image_occupancy",
    "germ_stability_probe",
    "curve_residual_probe",
    "parse_map_germ",
    "parse_polynomial",
    "format_polynomial",
    "__version__",
]
