"""Slope-stability certificates for syzygy sheaves of rank-1 inputs.

The syzygy sheaf of a globally-generated line bundle L is the kernel of
the evaluation map from h0(L) trivial summands onto L; it has rank
h0 - 1 and degree -deg(L).  check_stability evaluates two explicit
inequalities that together certify slope stability of that kernel.  The
test is one-sided: a failed inequality never certifies instability.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .bounds import _check_common, _high_ratio, _low_ratio
from .errors import InconsistentInputError
from .record import Record
from .varieties import Variety


class Verdict(Enum):
    STABLE = "Stable"
    SEMISTABLE = "Semistable"
    INCONCLUSIVE = "Inconclusive"
    TRIVIALLY_STABLE = "TriviallyStable"
    DEGENERATE = "Degenerate"


class ConditionState(Enum):
    STRICT_PASS = "StrictPass"
    EQUALITY = "Equality"
    FAIL = "Fail"
    VACUOUS = "Vacuous"


class ConditionStatus(Record):
    status: ConditionState
    lhs: Fraction | None
    rhs: Fraction | None
    threshold_degree: int | None


class SyzygyInvariants(Record):
    rank: int
    degree: int
    slope: object  # Fraction, or math.inf when rank is 0


class StabilityReport(Record):
    verdict: Verdict
    condition1: ConditionStatus
    condition2: ConditionStatus
    syzygy: SyzygyInvariants
    degree: int
    sections: int
    note: str | None = None


def slope(rank: int, degree) -> object:
    """degree/rank, with the rank-0 convention of +infinity."""
    if rank < 0:
        raise ValueError(f"rank must be >= 0, got {rank}")
    if rank == 0:
        return math.inf
    return Fraction(degree) / rank


def syzygy_invariants(degree: int, h0: int) -> SyzygyInvariants:
    r = h0 - 1
    return SyzygyInvariants(rank=r, degree=-degree, slope=slope(r, -degree))


_VACUOUS = ConditionStatus(ConditionState.VACUOUS, None, None, None)


def _compare(lhs: Fraction, num: int, den: int, threshold_degree: int) -> ConditionStatus:
    """The status of the integer lhs against num/den (den > 0), compared by
    cross-multiplication; the Fraction of the rhs is built for the report."""
    left = lhs.numerator * den
    if left > num:
        state = ConditionState.STRICT_PASS
    elif left == num:
        state = ConditionState.EQUALITY
    else:
        state = ConditionState.FAIL
    return ConditionStatus(state, lhs, Fraction(num, den), threshold_degree)


def check_stability(variety: Variety, degree: int, h0: int) -> StabilityReport:
    """Certify slope stability of the syzygy sheaf of a rank-1 input with
    the given degree and section count.

    Condition 1 (present when g >= 2) compares h0 - 1 against
    (d/(2g-2)) * bound_low(n, h, 2g-2); condition 2 compares it against
    (d/(d-1)) * bound_high(n, h, g, d-1).  Each right side is its cap's
    integer kernel scaled by d over the threshold degree, compared with
    h0 - 1 by cross-multiplication; the report's lhs and rhs Fractions are
    built once.  Strict passes everywhere give Stable; an equality
    downgrades to Semistable; any failure leaves the question open.
    Degrees 0 and 1 short-circuit: no subsheaf can destabilize, so no
    inequality is consulted.
    """
    if degree < 0:
        raise InconsistentInputError(
            f"degree must be >= 0 for a globally generated input, got {degree}"
        )
    if h0 < 1:
        raise InconsistentInputError(f"a globally generated input has h0 >= 1, got {h0}")
    if degree == 0 and h0 != 1:
        raise InconsistentInputError(
            f"degree 0 forces the input to be trivial with h0 = 1, got h0 = {h0}"
        )

    lm = syzygy_invariants(degree, h0)
    if h0 == 1:
        return StabilityReport(
            Verdict.DEGENERATE, _VACUOUS, _VACUOUS, lm, degree, h0,
            note="syzygy sheaf is zero (h0 = 1); nothing to destabilize",
        )
    if degree == 1:
        return StabilityReport(
            Verdict.TRIVIALLY_STABLE, _VACUOUS, _VACUOUS, lm, degree, h0,
            note="no admissible destabilizer degree in [1, d-1]",
        )

    n, h, g = variety.dim, variety.h_top, variety.genus
    _check_common(n, h, degree - 1)
    lhs = Fraction(h0 - 1)

    if g >= 2:
        low, den = _low_ratio(n, h, 2 * g - 2, 1)
        cond1 = _compare(lhs, degree * low, (2 * g - 2) * den, 2 * g - 2)
    else:
        cond1 = _VACUOUS
    high, den = _high_ratio(n, h, g, degree - 1, 1)
    cond2 = _compare(lhs, degree * high, (degree - 1) * den, degree - 1)

    states = [c.status for c in (cond1, cond2) if c.status is not ConditionState.VACUOUS]
    if ConditionState.FAIL in states:
        verdict = Verdict.INCONCLUSIVE
    elif ConditionState.EQUALITY in states:
        verdict = Verdict.SEMISTABLE
    else:
        verdict = Verdict.STABLE
    return StabilityReport(verdict, cond1, cond2, lm, degree, h0)
