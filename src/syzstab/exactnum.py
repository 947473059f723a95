"""Exact rational scalars and the generalized binomial coefficient.

Every number that reaches a verdict in this package is a Rational; no
float ever enters a comparison.  Rational is the standard library
Fraction, which already stores canonically reduced arbitrary-precision
values and compares by exact cross-multiplication.

The generalized binomial at y = p/q is one integer ratio, the rising
product (p+q)(p+2q)...(p+kq) over q^k * k!, reduced into a single
Fraction: no float, no tolerance and no sampling.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import UsageError

Rational = Fraction

_RATIONAL_RE = re.compile(r"([+-]?)(\d+)(?:/(\d+))?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact Rational.

    Only plain integer-over-integer strings are accepted; decimal or
    exponent notation is rejected so a lossy value can never sneak in.
    The value is built from the matched digit groups, numerator first, as
    Fraction(text) would build it: a group past the int-from-string digit
    limit raises the same ValueError.
    """
    m = _RATIONAL_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    sign, num, den = m.groups()
    num = -int(num) if sign == "-" else int(num)
    if den is None:
        return Fraction(num)
    den = int(den)
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def too_many_digits() -> UsageError:
    """The error of a result whose integers are past the int-to-string
    digit limit (str raised ValueError on them)."""
    return UsageError(
        f"a result has more than {sys.get_int_max_str_digits()} digits, too many to print")


def _ratio_text(num: int, den: int) -> str:
    """num/den, for an int den > 0, in lowest terms as format_rational
    prints it, "p/q" or "p", with one gcd and no Fraction.  An integer past
    the int-to-string digit limit raises ValueError, which each caller
    turns into too_many_digits()."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}" if g != den else f"{num // den}"


def format_rational(value: Fraction) -> str:
    """Render exactly, as "p/q", or "p" when the denominator is 1.

    A numerator or denominator past the interpreter's int-to-string digit
    limit cannot be printed exactly and raises UsageError; the limit, which
    keeps conversion time bounded, is left in place.
    """
    num, den = value.numerator, value.denominator
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise too_many_digits() from None


def _rising(a: int, q: int, k: int) -> int:
    """The integer product (a+q)(a+2q)...(a+kq), under genbinom's piecewise
    convention: 1 for k = 0, 0 for a < 0 with k >= 1."""
    if k and a < 0:
        return 0
    return math.prod(range(a + q, a + k * q + 1, q))


def genbinom(y, k: int) -> Fraction:
    """Generalized binomial: the number of ways to choose k from y+k slots,
    extended to rational y.

    Piecewise by convention: k = 0 gives 1 whatever y is; negative y with
    k >= 1 gives 0; otherwise the product (y+1)(y+2)...(y+k) / k!.
    y = 0 falls in the product branch and gives 1.
    Scaled: for y = p/q this is _rising(p, q, k) / (q^k * k!).
    """
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    if k == 0:
        return Fraction(1)
    y = Fraction(y)
    p, q = y.numerator, y.denominator
    return Fraction(_rising(p, q, k), q**k * math.factorial(k))


def falling_sum_check(x, a: int, m: int, k: int) -> bool:
    """Check the telescoping identity

        sum_{i=a..m} C(x-i, k) == C(x-a+1, k+1) - C(x-m, k+1)

    with every C expressed through genbinom (C(z, j) = genbinom(z-j, j)).
    Requires positive integers a <= m, k, and x - m - k >= 0 so that all
    the binomials sit in the product branch.

    Checked as one integer identity, with no Fraction per term: for
    x = p/q the left side is sum_i _rising(p-(i+k)q, q, k) over q^k * k!
    and the right side a difference of two _rising(., q, k+1) over
    q^(k+1) * (k+1)!, so the sides are equal iff their numerators are
    once the left one is scaled by q * (k+1).
    """
    if a < 1 or m < 1 or k < 1:
        raise ValueError("a, m, k must be positive integers")
    if a > m:
        raise ValueError("need a <= m")
    x = Fraction(x)
    if x - m - k < 0:
        raise ValueError("need x - m - k >= 0")
    p, q = x.numerator, x.denominator
    lhs = sum(_rising(p - (i + k) * q, q, k) for i in range(a, m + 1))
    rhs = _rising(p - (a + k) * q, q, k + 1) - _rising(p - (m + k + 1) * q, q, k + 1)
    return lhs * q * (k + 1) == rhs
