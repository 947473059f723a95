"""Minimal certified twists via exact polynomial sign analysis.

Twisting the input by k steps of the polarization turns both stability
inequalities into polynomial sign conditions in k; the high cap enters
as its exact polynomial in the degree (bounds.closed_form_poly) composed
with the twisted degree (bound_high_poly).  Clearing denominators gives
polynomials whose top terms cancel exactly, leaving positive leading
coefficients; each condition is built as integer numerators over one
denominator, from the numerators of the Hilbert polynomial and the cap.
Positivity from some point on is then certified by a Taylor shift: if
every coefficient of F(k + c) is >= 0 and F(c) > 0, then F > 0 on
[c, oo) (the sign test behind Vincent's theorem and Descartes' rule of
signs; poly.positive_shift).  The least such integer c is found by a
doubling search up from the start, capped at the Cauchy root bound where
the test is proven to hold, then bisection of the last gap; the rows
below c are evaluated downward to the first failure.  The certificate
records c, the shifted coefficients (the passing test's own result), the
evaluated rows, the bound, and the polynomials (poly.Poly, re-exported
here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .bounds import BoundForm, bound_low, closed_form_poly, d_pos
from .errors import InconsistentInputError, UsageError
from .poly import Poly, positive_shift
from .varieties import Variety


@dataclass(frozen=True)
class HilbertPoly:
    """Section-count polynomial plus the twist from which it is exact."""

    poly: Poly
    regularity: int


def validate_hilbert(variety: Variety, d0: int, hp: HilbertPoly) -> None:
    """Check the two coefficients that geometry pins down: the leading one
    is h_top/n! and the next is (d0 + c1_dot_h/2)/(n-1)!.

    Lower coefficients depend on data outside the inputs, so they are
    the user's responsibility.
    """
    n = variety.dim
    if hp.poly.degree != n:
        raise InconsistentInputError(
            f"hilbert polynomial must have degree {n}, got degree {hp.poly.degree}"
        )
    want_top = Fraction(variety.h_top, math.factorial(n))
    if hp.poly.coeff(n) != want_top:
        raise InconsistentInputError(
            f"hilbert leading coefficient must be h_top/n! = {want_top}, "
            f"got {hp.poly.coeff(n)}"
        )
    want_next = (d0 + Fraction(variety.c1_dot_h, 2)) / math.factorial(n - 1)
    if hp.poly.coeff(n - 1) != want_next:
        raise InconsistentInputError(
            f"hilbert second coefficient must be (d0 + c1_dot_h/2)/(n-1)! = {want_next}, "
            f"got {hp.poly.coeff(n - 1)}"
        )


@dataclass(frozen=True)
class TwistExpansion:
    """bound_high at degree d0 + k*h_top - 1 as a polynomial in k, exact from k_pos on."""

    poly: Poly
    k_pos: int


def bound_high_poly(variety: Variety, d0: int) -> TwistExpansion:
    """bound_high at degree d0 + k*h_top - 1 as a polynomial in k: the cap's
    polynomial in d (bounds.closed_form_poly) composed with that degree.
    k_pos is the least k whose degree is at least bounds.d_pos."""
    n, h, g = variety.dim, variety.h_top, variety.genus
    if d0 < 0:
        raise InconsistentInputError(f"degree must be >= 0, got {d0}")
    k_pos = -((d0 - 1 - d_pos(g, h)) // h)
    poly = closed_form_poly(n, h, g, BoundForm.SIMPLIFIED).compose_linear(h, d0 - 1)
    return TwistExpansion(poly=poly, k_pos=k_pos)


@dataclass(frozen=True)
class ConditionPolys:
    cond2: Poly
    cond1: Poly | None
    k_pos: int


def build_condition_polys(variety: Variety, d0: int, hilbert: HilbertPoly) -> ConditionPolys:
    """Clear denominators in both stability inequalities at twisted degree
    d(k) = d0 + k*h_top.

    cond2 = (d(k) - 1)*(P(k) - 1) - d(k)*bound_high_poly(k): its degree
    n+1 terms cancel exactly, leaving degree n with positive leading
    coefficient h_top*(1 - 1/n)/(n-1)!.  cond1 (only when g >= 2) =
    (2g-2)*(P(k) - 1) - d(k)*bound_low(n, h, 2g-2).

    Each is one integer polynomial over one denominator, built from the
    numerators of P = p/D_P and of the cap E = e/D_E with no intermediate
    Poly.  Over D_P*D_E, a = (p - D_P)*D_E is P - 1 and delta = a - e*D_P
    is P - 1 - E, so coefficient i of cond2 is d0*delta_i - a_i +
    h*delta_{i-1}; cond1 is taken over D_P times the denominator of
    bound_low.
    """
    n, h, g = variety.dim, variety.h_top, variety.genus
    if n < 2:
        raise UsageError("twist certificates need dimension >= 2")
    validate_hilbert(variety, d0, hilbert)
    expansion = bound_high_poly(variety, d0)
    dp, de, e = hilbert.poly._denom, expansion.poly._denom, expansion.poly._nums
    p_minus_1 = list(hilbert.poly._nums)  # over D_P; P has degree n >= 2
    p_minus_1[0] -= dp
    a = [x * de for x in p_minus_1]
    delta = [x - y * dp for x, y in zip_longest(a, e, fillvalue=0)]
    cond2 = Poly._from_ints(dp * de, [d0 * x - y + h * z for x, y, z in
                                      zip(delta + [0], a + [0], [0] + delta)])
    want_lead = Fraction(h, 1) * (1 - Fraction(1, n)) / math.factorial(n - 1)
    if cond2.degree != n or cond2.leading != want_lead or want_lead <= 0:
        raise RuntimeError(
            f"condition polynomial has degree {cond2.degree}, leading "
            f"{cond2.leading if cond2.coeffs else 0}; expected degree {n} with leading {want_lead}"
        )
    cond1 = None
    if g >= 2:
        low = bound_low(n, h, 2 * g - 2)
        u, v = low.numerator * dp, low.denominator
        nums = [(2 * g - 2) * v * x for x in p_minus_1]
        nums[0] -= d0 * u
        nums[1] -= h * u
        cond1 = Poly._from_ints(dp * v, nums)
    return ConditionPolys(cond2=cond2, cond1=cond1, k_pos=expansion.k_pos)


def cauchy_bound(p: Poly) -> Fraction:
    """1 + max|c_i/c_deg| over the non-leading coefficients; every real
    root lies inside this radius."""
    if p.degree < 1:
        raise ValueError("root bound needs a nonconstant polynomial")
    return 1 + Fraction(max(abs(a) for a in p._nums[:-1]), abs(p._nums[-1]))


@dataclass(frozen=True)
class ScanRow:
    k: int
    cond2_value: Fraction
    cond1_value: Fraction | None
    passed: bool


@dataclass(frozen=True)
class TaylorShift:
    """cond2 and cond1 rewritten as polynomials in k - c: every coefficient
    is >= 0 and the constant is > 0, so both are positive for all k >= c."""

    c: int
    cond2: Poly
    cond1: Poly | None


@dataclass(frozen=True)
class TwistCertificate:
    k_min: int
    cauchy: Fraction
    scanned_range: tuple[int, int]
    shift: TaylorShift
    cond2: Poly
    cond1: Poly | None
    k_pos: int
    regularity: int
    scan: tuple[ScanRow, ...]
    notes: tuple[str, ...]


def minimal_stable_twist(variety: Variety, d0: int, hilbert: HilbertPoly) -> TwistCertificate:
    """Least integer twist from which both condition polynomials stay
    strictly positive, hence every larger twist is certified stable.

    From start = max(regularity, k_pos), the search finds the least
    integer c up to top = max(start, ceiling of the Cauchy bound) at which
    both polynomials shifted to k + c have every coefficient >= 0 and a
    positive constant, so both are positive on [c, oo).  The test is
    monotone in c: a shift by d >= 0 keeps nonnegative coefficients
    nonnegative and does not lower the constant.  So it is tried at
    start, start + 1, start + 3, start + 7, ... (capped at top) until it
    passes, and the gap after the last failure is bisected; the work
    follows log(c - start), not log(top).  At top it must pass: by
    Gauss-Lucas the roots of every derivative lie inside the Cauchy
    bound, so every Taylor coefficient F^(i)(c)/i! has the sign of the
    positive leading coefficient there; a failure raises RuntimeError.

    Rows are evaluated from c down to the first failing k, or down to
    start; k_min is that k + 1, or start.  A zero value counts as a
    failure (stability needs strict inequalities) and is recorded in the
    notes.
    """
    polys = build_condition_polys(variety, d0, hilbert)
    conds = [p for p in (polys.cond2, polys.cond1) if p is not None]
    start = max(hilbert.regularity, polys.k_pos)
    radius = max(cauchy_bound(p) for p in conds)

    top = max(start, math.ceil(radius))
    lo = hi = start
    while (shift := positive_shift(conds, hi)) is None:
        if hi == top:
            raise RuntimeError(
                f"Taylor shift at c = {hi}, past the Cauchy bound {radius}, is not positive"
            )
        lo, hi = hi + 1, min(top, 2 * hi - start + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if (passed := positive_shift(conds, mid)) is None:
            lo = mid + 1
        else:
            hi, shift = mid, passed
    c = hi

    notes = [
        "raw difference has formal degree dim+1; the top terms cancel exactly, "
        "leaving degree dim with a positive leading coefficient",
    ]
    if polys.cond1 is not None:
        notes.append(
            "genus >= 2, so the low-branch condition is scanned alongside as a "
            "second polynomial"
        )

    rows = []
    for k in range(c, start - 1, -1):
        v2 = polys.cond2(k)
        v1 = polys.cond1(k) if polys.cond1 is not None else None
        rows.append(ScanRow(k=k, cond2_value=v2, cond1_value=v1,
                            passed=v2 > 0 and (v1 is None or v1 > 0)))
        if not rows[-1].passed:
            if v2 == 0 or v1 == 0:
                notes.append(
                    f"equality at k = {k}: the certificate gives only semistability there"
                )
            break
    rows.reverse()
    k_min = rows[0].k if rows[0].passed else rows[0].k + 1

    return TwistCertificate(
        k_min=k_min,
        cauchy=radius,
        scanned_range=(start, c),
        shift=TaylorShift(c=c, cond2=shift[0], cond1=shift[1] if len(shift) > 1 else None),
        cond2=polys.cond2,
        cond1=polys.cond1,
        k_pos=polys.k_pos,
        regularity=hilbert.regularity,
        scan=tuple(rows),
        notes=tuple(notes),
    )
