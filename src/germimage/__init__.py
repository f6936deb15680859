"""germimage: classify the local image of polynomial map germs (C^n,0) -> (C^2,0).

Exact symbolic decision pipeline (gcd decomposition, gap lines, gap
curves, Groebner elimination for curve images) cross-checked by a seeded
Monte Carlo occupancy probe.
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
    find_gap_lines,
    is_gap_curve,
    is_gap_line,
    pencil_constancy_locus,
    prop_crit_check,
    verify_witness,
    witness_kind,
)
from .groebner import GroebnerBasis, TermOrder, buchberger, image_curve_equation, normal_form
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
    "TermOrder",
    "GroebnerBasis",
    "buchberger",
    "normal_form",
    "image_curve_equation",
    "ProjectiveRatio",
    "PlaneCurveCandidate",
    "Status",
    "SubflatLabel",
    "Verdict",
    "classify",
    "verify_witness",
    "witness_kind",
    "is_gap_line",
    "find_gap_lines",
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
