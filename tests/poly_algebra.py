"""Ring arithmetic and linear substitution for syzstab.Poly, frozen here
for the tests.

The package builds its polynomials on the integers and needs no Poly
arithmetic, so the operators live only in the tests, as references:
criterion 8's cancellation, the hand expansion of the high cap, the
condition polynomials built by Poly algebra, and the Taylor shift as a
substitution k -> k + c.  RingPoly is a Poly with these operators, each
built from the stored integer pair as the package built it; ring(p)
views any Poly as one.  A RingPoly equals and hashes like the Poly with
the same coefficients."""

import math
from fractions import Fraction
from itertools import zip_longest

from syzstab import Poly


class RingPoly(Poly):
    __slots__ = ()

    def _promote(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return RingPoly._from_ints(other.denominator, [other.numerator])
        return None

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        denom = math.lcm(self._denom, other._denom)
        sa, sb = denom // self._denom, denom // other._denom
        return RingPoly._from_ints(denom, [a * sa + b * sb for a, b in
                                           zip_longest(self._nums, other._nums, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self):
        return RingPoly._from_ints(self._denom, [-a for a in self._nums])

    def __sub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        denom = math.lcm(self._denom, other._denom)
        sa, sb = denom // self._denom, denom // other._denom
        return RingPoly._from_ints(denom, [a * sa - b * sb for a, b in
                                           zip_longest(self._nums, other._nums, fillvalue=0)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        out = [0] * (len(self._nums) + len(other._nums) - 1)
        for i, a in enumerate(self._nums):
            for j, b in enumerate(other._nums):
                out[i + j] += a * b
        return RingPoly._from_ints(self._denom * other._denom, out)

    __rmul__ = __mul__

    def compose_linear(self, a, b) -> "RingPoly":
        """Substitute the variable by a*k + b (ints or Fractions): with
        a*k + b = (u*k + v)/m over ints, the numerators of p(x/m) are
        shifted by v by synthetic division, then coefficient i is scaled by
        u^i."""
        m = math.lcm(a.denominator, b.denominator)
        u, v = a.numerator * (m // a.denominator), b.numerator * (m // b.denominator)
        n = max(self.degree, 0)
        shifted = [c * m ** (n - i) for i, c in enumerate(self._nums)]
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                shifted[j] += v * shifted[j + 1]
        return RingPoly._from_ints(self._denom * m ** n, [c * u ** i for i, c in enumerate(shifted)])


def ring(p: Poly) -> RingPoly:
    """p with the frozen ring operations."""
    return RingPoly._from_ints(p._denom, p._nums)
