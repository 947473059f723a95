"""Exact univariate polynomials over the rationals (Poly), and the
Taylor-shift positivity test (taylor_shift).

A Poly stores one integer polynomial over one denominator, so callers
such as the twist conditions build their coefficients on the integers and
wrap them once (Poly._from_ints); it has no ring arithmetic.
taylor_shift is the sign test behind the twist certificates: it shifts
the integer numerators, stops at the first negative Taylor coefficient,
and returns the shifted numerators, which the certificate prints, when
every test passes."""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import _ratio_text, too_many_digits


class Poly:
    """Dense univariate polynomial with exact Rational coefficients,
    constant term first.  The zero polynomial has no coefficients and
    degree -1.  Immutable once built.

    The only stored state is a pair: a denominator D > 0 and integer
    numerators, constant first, so that coefficient i is nums[i]/D.  The
    pair is canonical: no trailing zero numerator and gcd(D, *nums) = 1,
    so D is the lcm of the reduced coefficient denominators (1 for the
    zero polynomial) and equal polynomials store equal pairs.  `coeffs`,
    `coeff` and `leading` are Fraction views of the pair.  Evaluation runs
    on the integers: x = p/q (q = 1 for an int) gives sum nums[i] * p^i *
    q^(n-i) over D * q^n by Horner's rule, and one reduced Fraction is
    built from that pair; the Taylor shift (taylor_shift) reads the
    numerators alone."""

    __slots__ = ("_denom", "_nums")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        denom = math.lcm(*(c.denominator for c in cs))
        self._store(denom, [c.numerator * (denom // c.denominator) for c in cs])

    @classmethod
    def _from_ints(cls, denom: int, nums) -> "Poly":
        """The polynomial with coefficients nums[i]/denom, for an int denom > 0."""
        poly = cls.__new__(cls)
        poly._store(denom, list(nums))
        return poly

    def _store(self, denom: int, nums: list[int]) -> None:
        while nums and nums[-1] == 0:
            nums.pop()
        g = math.gcd(denom, *nums)
        if g != 1:
            denom, nums = denom // g, [n // g for n in nums]
        object.__setattr__(self, "_denom", denom)
        object.__setattr__(self, "_nums", tuple(nums))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the coefficients, since restoring slot
        # state would go through __setattr__
        return (Poly, (self.coeffs,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self._denom) for n in self._nums)

    @property
    def degree(self) -> int:
        return len(self._nums) - 1

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self._nums):
            return Fraction(self._nums[i], self._denom)
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        if not self._nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._nums[-1], self._denom)

    def __call__(self, x) -> Fraction:
        """Exact value at an int or Fraction x."""
        nums = self._nums or (0,)  # the zero polynomial is the constant 0
        p, q = x.numerator, x.denominator
        acc, qpow = nums[-1], 1
        for c in nums[-2::-1]:
            qpow *= q
            acc = acc * p + c * qpow
        return Fraction(acc, self._denom * qpow)

    def to_strings(self) -> list[str]:
        """Each coefficient as format_rational prints it, "p/q" or "p",
        reduced from the stored pair (exactnum._ratio_text); an integer
        past the int-to-string digit limit raises the same UsageError."""
        denom = self._denom
        try:
            return [_ratio_text(n, denom) for n in self._nums]
        except ValueError:
            raise too_many_digits() from None

    def __eq__(self, other):
        return (isinstance(other, Poly) and self._denom == other._denom
                and self._nums == other._nums)

    def __hash__(self):
        return hash((self._denom, self._nums))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def taylor_shift(polys, c: int) -> list[list[int]] | None:
    """The Taylor-shift positivity test at an integer c: for each p with
    stored pair (D, nums), the integer coefficients of D * p(k + c),
    constant first, when every coefficient of each is >= 0 and each
    constant is > 0, so that each p is positive on [c, oo) (the sign test
    behind Vincent's theorem); None otherwise.  D > 0, so the signs are
    those of p(k + c).  Synthetic division, O(deg^2) integer steps: pass i
    leaves a_i final (a_0 = D*p(c) after the first), and the lead a_n is
    never touched, so each coefficient is tested as soon as it is known
    and the test stops at the first negative one."""
    shifted = []
    for p in polys:
        a = list(p._nums)
        if not a or a[-1] < 0:  # the zero polynomial's constant is 0; no lead is 0
            return None
        n = len(a) - 1
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                a[j] += c * a[j + 1]
            if a[i] < (i == 0):  # a_0 > 0, every other a_i >= 0
                return None
        shifted.append(a)
    return shifted
