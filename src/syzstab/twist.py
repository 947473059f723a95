"""Minimal certified twists via exact polynomial sign analysis.

Twisting the input by k steps of the polarization turns both stability
inequalities into polynomial sign conditions in k; the high cap enters
as its exact polynomial in k, interpolated from its kernel's values at
n+2 consecutive twists (_cap_in_k, integer numerators over one
denominator; bound_high_poly is its Poly).  Clearing denominators gives
polynomials whose top terms cancel exactly, leaving positive leading
coefficients; each condition is built as integer numerators over one
denominator, from the numerators of the Hilbert polynomial and the cap.
Positivity from some point on is then certified by a Taylor shift: if
every coefficient of F(k + c) is >= 0 and F(c) > 0, then F > 0 on
[c, oo) (the sign test behind Vincent's theorem and Descartes' rule of
signs).  The least such integer c is found by one bisection from the
start up to a root bound where the test is proven to hold: the lesser
of the Cauchy bound and Fujiwara's bound rounded up to a power of two
(fujiwara_bound), compared on the integers (the Cauchy bound as the
ratio _cauchy_ratio).  Both lie strictly above the modulus of every
root, so by Gauss-Lucas above every root of every derivative too, and
each Taylor coefficient F^(i)(c)/i! has the sign of the positive leading
coefficient there.  Each bisection step runs one Taylor shift
(poly.taylor_shift: integer synthetic division that stops at the first
negative Taylor coefficient); the search keeps the shifted numerators of
its last passing step, which are the shift at c.  The row at c is read
from the shift's constants D*F(c), and the rows below c are evaluated
downward to the first failure, by Horner's rule on the numerators.

The search is one integer kernel, _certify, in the style of
_cauchy_ratio and _cap_in_k: past the condition polynomials it returns
only integers (start, c, the Cauchy ratio, the shifted numerators, each
row's value numerators), the notes and k_min.  minimal_stable_twist is
its API edge: it builds the certificate's Fractions, shifted
polynomials (poly.Poly, re-exported here) and rows from them once.  The
CLI prints the kernel's integers itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from .bounds import BoundForm, _differences, _low_ratio, d_pos
from .errors import InconsistentInputError, UsageError
from .poly import Poly, taylor_shift
from .record import Record
from .varieties import Variety


class HilbertPoly(Record):
    """Section-count polynomial plus the twist from which it is exact."""

    poly: Poly
    regularity: int


def validate_hilbert(variety: Variety, d0: int, hp: HilbertPoly) -> None:
    """Check the two coefficients that geometry pins down: the leading one
    is h_top/n! and the next is (d0 + c1_dot_h/2)/(n-1)!.

    Lower coefficients depend on data outside the inputs, so they are
    the user's responsibility.  Both are compared with the stored
    numerators over the stored denominator D by cross-multiplication;
    Fractions are built only for the error message.
    """
    n = variety.dim
    if hp.poly.degree != n:
        raise InconsistentInputError(
            f"hilbert polynomial must have degree {n}, got degree {hp.poly.degree}"
        )
    denom, nums = hp.poly._denom, hp.poly._nums
    fact = math.factorial(n - 1)
    if nums[n] * n * fact != variety.h_top * denom:
        raise InconsistentInputError(
            f"hilbert leading coefficient must be h_top/n! = "
            f"{Fraction(variety.h_top, math.factorial(n))}, got {hp.poly.coeff(n)}"
        )
    if 2 * fact * nums[n - 1] != (2 * d0 + variety.c1_dot_h) * denom:
        want_next = (d0 + Fraction(variety.c1_dot_h, 2)) / fact
        raise InconsistentInputError(
            f"hilbert second coefficient must be (d0 + c1_dot_h/2)/(n-1)! = {want_next}, "
            f"got {hp.poly.coeff(n - 1)}"
        )


class TwistExpansion(Record):
    """bound_high at degree d0 + k*h_top - 1 as a polynomial in k, exact from k_pos on."""

    poly: Poly
    k_pos: int


def _cap_in_k(n: int, h: int, g: int, d0: int) -> tuple[int, int, list[int]]:
    """bound_high at degree d0 + k*h_top - 1 as a polynomial in k, exact at
    every integer k >= k_pos, the least k whose degree is at least
    bounds.d_pos: (k_pos, L, nums), the polynomial sum nums[i]*k^i / L,
    unreduced.  With D and D_j the difference table of the cap at the
    degrees of x_j = k_pos + j (bounds._differences, in steps of h_top),
    L = D*n! and L times the cap is sum_j D_j*(n!/j!)*(k-x_0)...(k-x_{j-1}),
    built by Horner's rule."""
    if d0 < 0:
        raise InconsistentInputError(f"degree must be >= 0, got {d0}")
    k_pos = -((d0 - 1 - d_pos(g, h)) // h)
    den, diffs = _differences(n, h, g, BoundForm.SIMPLIFIED, d0 - 1 + k_pos * h, h)
    acc, scale = [0] * (n + 1), 1  # scale is n!/j!
    for j in range(n, -1, -1):
        x = k_pos + j
        for i in range(n, 0, -1):  # acc *= (k - x_j)
            acc[i] = acc[i - 1] - x * acc[i]
        acc[0] = diffs[j] * scale - x * acc[0]
        scale *= j or 1
    return k_pos, den * scale, acc


def bound_high_poly(variety: Variety, d0: int) -> TwistExpansion:
    """bound_high at degree d0 + k*h_top - 1 as a polynomial in k, exact at
    every integer k >= k_pos (the kernel _cap_in_k, reduced once)."""
    k_pos, den, nums = _cap_in_k(variety.dim, variety.h_top, variety.genus, d0)
    return TwistExpansion(poly=Poly._from_ints(den, nums), k_pos=k_pos)


class ConditionPolys(Record):
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
    numerators of P = p/D_P and of the cap E = e/D_E (_cap_in_k,
    unreduced) with no intermediate Poly; cond2 is reduced once, when it
    is stored.  Over D_P*D_E, a = (p - D_P)*D_E is P - 1 and
    delta = a - e*D_P is P - 1 - E, so coefficient i of cond2 is
    d0*delta_i - a_i + h*delta_{i-1}; cond1 is taken over D_P times the
    denominator of bound_low.
    """
    n, h, g = variety.dim, variety.h_top, variety.genus
    if n < 2:
        raise UsageError("twist certificates need dimension >= 2")
    validate_hilbert(variety, d0, hilbert)
    k_pos, de, e = _cap_in_k(n, h, g, d0)
    dp = hilbert.poly._denom
    p_minus_1 = list(hilbert.poly._nums)  # over D_P; P has degree n >= 2
    p_minus_1[0] -= dp
    a = [x * de for x in p_minus_1]
    delta = [x - y * dp for x, y in zip_longest(a, e, fillvalue=0)]
    cond2 = Poly._from_ints(dp * de, [d0 * x - y + h * z for x, y, z in
                                      zip(delta + [0], a + [0], [0] + delta)])
    # the lead h*(n-1)/n!, compared across the stored denominator
    if (cond2.degree != n or h * (n - 1) <= 0
            or cond2._nums[-1] * math.factorial(n) != h * (n - 1) * cond2._denom):
        want_lead = Fraction(h, 1) * (1 - Fraction(1, n)) / math.factorial(n - 1)
        raise RuntimeError(
            f"condition polynomial has degree {cond2.degree}, leading "
            f"{cond2.leading if cond2.coeffs else 0}; expected degree {n} with leading {want_lead}"
        )
    cond1 = None
    if g >= 2:
        u, v = _low_ratio(n, h, 2 * g - 2, 1)
        u *= dp
        nums = [(2 * g - 2) * v * x for x in p_minus_1]
        nums[0] -= d0 * u
        nums[1] -= h * u
        cond1 = Poly._from_ints(dp * v, nums)
    return ConditionPolys(cond2=cond2, cond1=cond1, k_pos=k_pos)


def _cauchy_ratio(p: Poly) -> tuple[int, int]:
    """Cauchy's bound 1 + max|c_i/c_deg| of a nonconstant p as (num, den),
    unreduced, from the stored numerators alone."""
    lead = abs(p._nums[-1])
    return max(abs(a) for a in p._nums[:-1]) + lead, lead


def cauchy_bound(p: Poly) -> Fraction:
    """1 + max|c_i/c_deg| over the non-leading coefficients; every root,
    real or complex, has modulus strictly below it."""
    if p.degree < 1:
        raise ValueError("root bound needs a nonconstant polynomial")
    return Fraction(*_cauchy_ratio(p))


def fujiwara_bound(p: Poly) -> int:
    """A power of two strictly above the modulus of every root, real or
    complex: Fujiwara's bound 2*max(|c_i/c_n|^(1/(n-i)), |c_0/(2c_n)|^(1/n))
    over i = 1..n-1, with each ratio rounded up from bit lengths alone.

    For a nonzero numerator a and the lead b, |a| < 2^len(a) and
    |b| >= 2^(len(b)-1), so |a/b| < 2^(len(a)-len(b)+1) and
    |a/(2b)| < 2^(len(a)-len(b)); the root of each power of two is
    rounded up to the next one.  Zero coefficients add nothing; the
    result is at least 1."""
    if p.degree < 1:
        raise ValueError("root bound needs a nonconstant polynomial")
    n, nums = p.degree, p._nums
    lead = nums[-1].bit_length()
    # ceil(e/m) as -(-e // m): the exponent of 2 over each term of the max
    exps = [-((lead - a.bit_length() - (i > 0)) // (n - i))
            for i, a in enumerate(nums[:-1]) if a]
    return 1 << max(0, 1 + max(exps, default=-1))


class ScanRow(Record):
    k: int
    cond2_value: Fraction
    cond1_value: Fraction | None
    passed: bool


class TaylorShift(Record):
    """cond2 and cond1 rewritten as polynomials in k - c: every coefficient
    is >= 0 and the constant is > 0, so both are positive for all k >= c."""

    c: int
    cond2: Poly
    cond1: Poly | None


class TwistCertificate(Record):
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


def _certify(variety: Variety, d0: int, hilbert: HilbertPoly) -> tuple:
    """The search of minimal_stable_twist on the integers: (polys, start,
    c, (num, den), shifted, rows, notes, k_min).  polys is
    build_condition_polys' record; (num, den) the Cauchy bound as
    _cauchy_ratio's unreduced ratio; shifted the numerators of each
    condition at k + c over its stored denominator D, F first; each row is
    (k, values, passed) with values the numerators D*F(k) (and D*G(k)),
    from c down to the first failure and then listed upward.  The row at c
    is read from the shift's constants; the rows below c are evaluated by
    Horner's rule on the stored numerators at the integer k.  No Fraction,
    Poly or record is built past build_condition_polys."""
    polys = build_condition_polys(variety, d0, hilbert)
    conds = [p for p in (polys.cond2, polys.cond1) if p is not None]
    start = max(hilbert.regularity, polys.k_pos)
    num, den = _cauchy_ratio(conds[0])
    for p in conds[1:]:
        a, b = _cauchy_ratio(p)
        if a * den > num * b:
            num, den = a, b
    power = max(fujiwara_bound(p) for p in conds)

    lo, hi = start, max(start, min(-(-num // den), power))
    shifted = None  # the shift at hi, once a midpoint has passed there
    while lo < hi:
        mid = (lo + hi) // 2
        if (nums := taylor_shift(conds, mid)) is not None:
            hi, shifted = mid, nums
        else:
            lo = mid + 1
    c = hi
    if shifted is None and (shifted := taylor_shift(conds, c)) is None:
        raise RuntimeError(
            f"Taylor shift at c = {c}, past the root bound {min(Fraction(num, den), power)}, "
            f"is not positive"
        )

    notes = [
        "raw difference has formal degree dim+1; the top terms cancel exactly, "
        "leaving degree dim with a positive leading coefficient",
    ]
    if polys.cond1 is not None:
        notes.append(
            "genus >= 2, so the low-branch condition is scanned alongside as a "
            "second polynomial"
        )

    # the row at c passes: its values are the shift's constants D*p(c)
    rows = [(c, [nums[0] for nums in shifted], True)]
    tops = [p._nums[::-1] for p in conds]  # leading numerator first, for Horner
    for k in range(c - 1, start - 1, -1):
        values = []
        for top in tops:
            acc = 0
            for a in top:
                acc = acc * k + a
            values.append(acc)
        passed = min(values) > 0
        rows.append((k, values, passed))
        if not passed:
            if 0 in values:
                notes.append(
                    f"equality at k = {k}: the certificate gives only semistability there"
                )
            break
    rows.reverse()
    k, _, passed = rows[0]
    return polys, start, c, (num, den), shifted, rows, notes, k if passed else k + 1


def minimal_stable_twist(variety: Variety, d0: int, hilbert: HilbertPoly) -> TwistCertificate:
    """Least integer twist from which both condition polynomials stay
    strictly positive, hence every larger twist is certified stable.

    From start = max(regularity, k_pos), the search finds the least
    integer c up to top = max(start, min(ceiling of the Cauchy bound, P))
    at which both polynomials shifted to k + c have every coefficient
    >= 0 and a positive constant, so both are positive on [c, oo).  P is
    Fujiwara's bound rounded up to a power of two (fujiwara_bound), the
    larger over the two polynomials.  The top is taken on the integers:
    the Cauchy bounds are the ratios num/den of _cauchy_ratio, the larger
    picked by cross-multiplication and its ceiling taken as
    -(-num // den); the certificate's Cauchy bound is that ratio as a
    Fraction.  The test is monotone in c: a shift by d >= 0 keeps
    nonnegative coefficients nonnegative and does not lower the
    constant.  So one bisection over [start, top] finds c in
    at most log2(top - start) + 1 tests (taylor_shift).  The numerators
    of the last passing midpoint are the shift at c, and the certificate's
    shifted polynomials are built once from them.

    When no midpoint passed, c is top, which no midpoint tested: the shift
    is computed there, once, and the test must pass.  Both bounds are
    strict: every root of each polynomial has modulus below them
    (Cauchy's radius is 1 + max|c_i/c_n|, and P is a power of two
    above Fujiwara's bound, which a root can reach: k - 6 has its root
    on it).  By Gauss-Lucas the roots of every derivative lie in the
    convex hull of the roots, so below top as well, and every Taylor
    coefficient F^(i)(c)/i! at c = top has the sign of the positive
    leading coefficient; a failure there raises RuntimeError naming the
    bound.

    The rows run from c down to the first failing k, or down to start;
    k_min is that k + 1, or start.  The row at c passes, and its values
    are the constants of the shift, D*p(c) over each denominator D; only
    the rows below c are evaluated, and each passes when the numerators of
    its values are positive.  A zero value counts as a failure (stability
    needs strict inequalities) and is recorded in the notes.

    The search runs in the integer kernel _certify; this edge builds the
    certificate's Fractions, shifted polynomials and rows from its
    integers.
    """
    polys, start, c, cauchy, shifted, rows, notes, k_min = _certify(variety, d0, hilbert)
    denoms = [p._denom for p in (polys.cond2, polys.cond1) if p is not None]
    shift = [Poly._from_ints(d, nums) for d, nums in zip(denoms, shifted)]
    scan = tuple(ScanRow(k=k, cond2_value=Fraction(values[0], denoms[0]),
                         cond1_value=Fraction(values[1], denoms[1]) if len(values) > 1 else None,
                         passed=passed) for k, values, passed in rows)
    return TwistCertificate(
        k_min=k_min,
        cauchy=Fraction(*cauchy),
        scanned_range=(start, c),
        shift=TaylorShift(c=c, cond2=shift[0], cond1=shift[1] if len(shift) > 1 else None),
        cond2=polys.cond2,
        cond1=polys.cond1,
        k_pos=polys.k_pos,
        regularity=hilbert.regularity,
        scan=scan,
        notes=tuple(notes),
    )
