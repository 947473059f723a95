"""Exact section-count bounds, syzygy-sheaf stability certificates, and
minimal certified twists for polarized projective varieties."""

from .bounds import (
    BoundForm,
    BoundReport,
    Branch,
    BranchError,
    bound_high,
    bound_low,
    clifford_bound,
    rank_one_bound,
    restriction_sum,
    riemann_roch_bound,
    sections_bound,
    select_branch,
)
from .errors import InconsistentInputError, InvalidVarietyError, UnknownVarietyError, UsageError
from .exactnum import Rational, falling_sum_check, format_rational, genbinom, parse_rational
from .stability import (
    ConditionState,
    ConditionStatus,
    StabilityReport,
    SyzygyInvariants,
    Verdict,
    check_stability,
    slope,
    syzygy_invariants,
)
from .twist import (
    ConditionPolys,
    HilbertPoly,
    Poly,
    ScanRow,
    TaylorShift,
    TwistCertificate,
    TwistExpansion,
    bound_high_poly,
    build_condition_polys,
    cauchy_bound,
    fujiwara_bound,
    minimal_stable_twist,
    validate_hilbert,
)
from .varieties import (
    SheafSpec,
    Variety,
    catalog_entries,
    catalog_lookup,
    catalog_names,
    derive_genus,
    make_variety,
    parse_problem,
)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "BoundForm", "BoundReport", "Branch", "BranchError",
    "CheckResult", "ConditionPolys", "ConditionState", "ConditionStatus",
    "HilbertPoly", "InconsistentInputError", "InvalidVarietyError",
    "Poly", "Rational", "ScanRow", "SheafSpec", "StabilityReport",
    "SyzygyInvariants", "TaylorShift", "TwistCertificate", "TwistExpansion",
    "UnknownVarietyError", "UsageError", "Variety", "Verdict",
    "bound_high", "bound_high_poly", "bound_low", "build_condition_polys",
    "catalog_entries", "catalog_lookup", "catalog_names", "cauchy_bound",
    "check_stability", "clifford_bound", "derive_genus", "falling_sum_check",
    "format_rational", "fujiwara_bound", "genbinom", "make_variety", "minimal_stable_twist",
    "parse_problem", "parse_rational", "rank_one_bound", "restriction_sum",
    "riemann_roch_bound", "run_suite", "sections_bound", "select_branch",
    "slope", "syzygy_invariants", "validate_hilbert",
]
