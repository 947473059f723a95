"""Self-check suite: every identity and dominance property the bounds
are supposed to satisfy, evaluated exactly on grids and seeded samples.

Two check families run from tables, one function each.  `_CAPS` holds
the caps whose ratio -d/cap(d) rises with d: a row gives the check's
name, its note, the cap's integer kernel and a draw rng -> (head, base,
spread) of the kernel's leading arguments and the range of the first
degree; `_check_monotone` runs a row.  The sharp-family table that
run_suite builds per grid holds the families on which the section bound
is sharp, P^n and the anticanonical multiples on del Pezzo surfaces: a
family gives the check's name, its ranks and its rows, and a row the
catalog variety, the degree, the known h0 there and the cell's label in
a failure (`d=...` or `m=...`); `_check_sharp` runs a family.  A new
family of either kind is a new row, not a new function.

Two checks deliberately restrict their sampling domain, and say so in
their notes: for fractional x in the open unit gap the telescoping
identity diverges from its piecewise reading, and just above 2g-2 the
high cap's ratio can stall.  The dominance sweep restricts nothing; on
the strip dim >= 3, 0 < (d - (2g-2))/h_top < 1, where the telescoping
step behind the summed form does not apply, the closed form takes one
restriction step instead and is checked like every other cell.  The
suite checks what is true, not what is wished.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

from .bounds import BoundForm, _high_ratio, _low_ratio, _rank_one_ratio, _sections_ratio, d_pos
from .exactnum import falling_sum_check
from .record import Record
from .stability import Verdict, check_stability
from .twist import HilbertPoly, Poly, bound_high_poly, minimal_stable_twist
from .varieties import catalog_lookup

_MAX_ITEMIZED = 10


class CheckResult:
    """One check's tally: its pass and fail counts, its first failures
    spelled out, and an optional note on where it samples.  A check counts
    into it as it runs, so unlike the frozen result types it is mutable and
    unhashable; it shares their field tuple and repr, and equals another
    CheckResult with equal fields.  failures=None starts a fresh list."""

    _fields = ("name", "passed", "failed", "failures", "note")
    __repr__ = Record.__repr__

    def __init__(self, name: str, passed: int = 0, failed: int = 0,
                 failures: list[str] | None = None, note: str | None = None):
        self.name, self.passed, self.failed = name, passed, failed
        self.failures = [] if failures is None else failures
        self.note = note

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, f) for f in self._fields] == [getattr(other, f) for f in self._fields]

    def record(self, ok: bool, describe):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < _MAX_ITEMIZED:
                self.failures.append(describe() if callable(describe) else describe)
            elif len(self.failures) == _MAX_ITEMIZED:
                self.failures.append("...")


def _check_telescoping(rng: random.Random, samples: int) -> CheckResult:
    res = CheckResult(
        "telescoping-identity",
        note="x drawn integral or with x - m - k >= 1; in the open unit gap the "
        "piecewise binomial departs from the product formula and the identity fails",
    )
    for _ in range(samples):
        a = rng.randint(1, 6)
        m = rng.randint(a, a + 6)
        k = rng.randint(1, 5)
        if rng.random() < 0.5:
            x = Fraction(m + k + rng.randint(0, 40))
        else:
            x = m + k + 1 + Fraction(rng.randint(0, 200), rng.randint(1, 7))
        ok = falling_sum_check(x, a, m, k)
        res.record(ok, lambda: f"x={x}, a={a}, m={m}, k={k}")
    return res


# The caps whose ratio -d/cap(d) rises with d, which is why the stability
# criterion may read them at d - 1: (name, note, kernel, draw), the kernel
# called as kernel(*head, p, e) at d = p/e, the draw giving the head, the
# least degree sampled and how far above it d1 may land.
_CAPS = (
    ("ratio-monotonicity-low", None, _low_ratio,
     lambda rng: ((rng.randint(2, 4), rng.randint(1, 4)), 0, 360)),
    ("ratio-monotonicity-high",
     "sampled at degrees >= max(2g-2, g-1) + h_top, where the high cap is "
     "positive and the ratio is provably strict; just above 2g-2 it can stall",
     _high_ratio,
     lambda rng: ((rng.randint(2, 4), h := rng.randint(1, 4), g := rng.randint(0, 6)),
                  d_pos(g, h), 300)),
)


def _check_monotone(rng: random.Random, samples: int, name, note, kernel, draw) -> CheckResult:
    """One row of _CAPS: cap(d1) > 0, cap(d2) > 0 and d1*cap(d2) >
    d2*cap(d1), i.e. -d1/cap(d1) < -d2/cap(d2), compared by
    cross-multiplication (every denominator > 0).  After the head, d1 =
    base + a/b and d2 = d1 + c/f are drawn as a, b, c, f in that order and
    kept as unreduced ratios p1/b and p2/(b*f)."""
    res = CheckResult(name, note=note)
    for _ in range(samples):
        head, base, spread = draw(rng)
        a, b = rng.randint(1, spread), rng.randint(1, 6)
        c, f = rng.randint(1, 240), rng.randint(1, 6)
        p1 = base * b + a
        p2, e2 = p1 * f + c * b, b * f
        (cap1, den1), (cap2, den2) = kernel(*head, p1, b), kernel(*head, p2, e2)
        res.record(
            cap1 > 0 and cap2 > 0 and p1 * cap2 * e2 * den1 > p2 * cap1 * b * den2,
            lambda: ", ".join(f"{key}={value}" for key, value in zip("nhg", head))
            + f", d1={Fraction(p1, b)}, d2={Fraction(p2, e2)}",
        )
    return res


def _dominance_cells(dims, h_tops, genera, degrees):
    """Yield _check_dominance's cells (n, h, g, d, closed, oracle) in the
    order of itertools.product(dims, h_tops, genera, degrees), closed and
    oracle as (numerator, denominator > 0); every dimension is >= 2."""
    columns = {}
    for n, h, g in product(dims, h_tops, genera):
        below = columns.pop((n - 1, h, g), None)
        if below is None:
            below = [_rank_one_ratio(n - 1, h, g, d, 1) for d in range(degrees.stop)]
        column = columns[n, h, g] = [_rank_one_ratio(n, h, g, d, 1) for d in range(degrees.stop)]
        sums = below[:h]
        for num, den in below[h:]:  # R_n(d) = r_{n-1}(d) + R_n(d - h)
            total, total_den = sums[-h]
            if total_den != den:
                lcm = math.lcm(den, total_den)
                num, total, den = num * (lcm // den), total * (lcm // total_den), lcm
            sums.append((num + total, den))
        for d in degrees:
            yield n, h, g, d, column[d], sums[d]


def _check_dominance(dims, h_tops, genera, degrees) -> CheckResult:
    """The closed rank-1 bound r_n(d) against one restriction step R_n(d)
    = sum_i r_{n-1}(d - i*h), on every cell of the grid.  The degrees
    start at 0; per (h, g), a column of r_n at the degrees 0..D, each
    value from _rank_one_ratio, gives the closed values in dimension n and
    the terms of the sums in dimension n + 1, so each rank-1 value is
    computed once per call.  The sums run along the column below, R_n(d) =
    r_{n-1}(d) + R_n(d - h), or r_{n-1}(d) for d < h, over the lcm of the
    two denominators."""
    res = CheckResult(
        "restriction-dominance",
        note="every cell of the grid, no cells excluded; on the strip dim >= 3, "
        "0 < (d - (2g-2))/h_top < 1 the closed form is one restriction step",
    )
    for n, h, g, d, closed, oracle in _dominance_cells(dims, h_tops, genera, degrees):
        res.record(
            closed[0] * oracle[1] >= oracle[0] * closed[1],
            lambda: f"n={n}, h={h}, g={g}, d={d}: {Fraction(*closed)} < {Fraction(*oracle)}",
        )
    return res


def _check_sharp(name: str, ranks, rows) -> CheckResult:
    """sections_bound where it is sharp: a row of the table gives the
    catalog variety, the degree, the known h0 there and the cell's label in
    a failure; at rank r the simplified form must equal h0 + r - 1."""
    res = CheckResult(name)
    for v, d, h0, label in rows:
        for r in ranks:
            _, _, got, den = _sections_ratio(v.dim, v.h_top, v.genus, r, d, 1, BoundForm.SIMPLIFIED)
            res.record(
                got == (h0 + r - 1) * den,
                lambda: f"{v.name}, rank={r}, {label}: {Fraction(got, den)} != {h0 + r - 1}",
            )
    return res


def _check_expansion(d0_values, span: int) -> CheckResult:
    """bound_high_poly against bound_high at the twists k_pos .. k_pos+span:
    the cap's polynomial in k, interpolated from its kernel at the degrees
    d0 + k*h_top - 1 of the twists k_pos .. k_pos+n+1, checked against the
    kernel at every twist of the span, most of them past those nodes."""
    res = CheckResult("twist-expansion-agreement")
    for name in ("P2", "P3", "quartic-K3", "cubic-surface", "quintic-surface"):
        variety = catalog_lookup(name)
        for d0 in d0_values:
            exp = bound_high_poly(variety, d0)
            for k in range(exp.k_pos, exp.k_pos + span + 1):
                poly_val = exp.poly(k)
                direct, den = _high_ratio(
                    variety.dim, variety.h_top, variety.genus,
                    d0 + k * variety.h_top - 1, 1,
                )
                res.record(
                    poly_val.numerator * den == direct * poly_val.denominator,
                    lambda: f"{name}, d0={d0}, k={k}: {poly_val} != {Fraction(direct, den)}",
                )
    return res


_CERT_CASES = (
    ("P2", 0, (1, Fraction(3, 2), Fraction(1, 2)), 0),
    ("P3", 0, (1, Fraction(11, 6), 1, Fraction(1, 6)), 0),
    ("quartic-K3", 0, (2, 0, 2), 0),
)


def _check_certificates(rng: random.Random, extra_samples: int) -> CheckResult:
    res = CheckResult("certificate-soundness")
    for name, d0, coeffs, reg in _CERT_CASES:
        variety = catalog_lookup(name)
        cert = minimal_stable_twist(variety, d0, HilbertPoly(Poly(coeffs), reg))
        hp = Poly(coeffs)
        top = math.ceil(cert.cauchy)

        def signs_ok(k):
            return cert.cond2(k) > 0 and (cert.cond1 is None or cert.cond1(k) > 0)

        # every twist from the scan start through the Cauchy radius, printed
        # in the certificate's scan or not
        for k in range(cert.scanned_range[0], top + 1):
            verdict = check_stability(variety, d0 + k * variety.h_top, int(hp(k))).verdict
            passed = signs_ok(k)
            res.record(
                (verdict is Verdict.STABLE) == passed,
                lambda: f"{name}, k={k}: scan passed={passed} but verdict={verdict.value}",
            )
        if cert.k_min > cert.scanned_range[0]:
            verdict = check_stability(
                variety,
                d0 + (cert.k_min - 1) * variety.h_top,
                int(hp(cert.k_min - 1)),
            ).verdict
            res.record(
                verdict is not Verdict.STABLE,
                lambda: f"{name}: k_min={cert.k_min} not minimal, stable at k_min-1",
            )
        for _ in range(extra_samples):
            # many draws land past the Cauchy radius, exercising the
            # no-roots-beyond-the-bound part of the certificate
            k = rng.randint(cert.k_min, top + 50)
            verdict = check_stability(variety, d0 + k * variety.h_top, int(hp(k))).verdict
            res.record(
                verdict is Verdict.STABLE and signs_ok(k),
                lambda: f"{name}, k={k}: verdict={verdict.value}",
            )
    return res


def run_suite(grid: str = "small", seed: int = 0) -> list[CheckResult]:
    """Run every invariant check; grid picks the sweep sizes."""
    if grid not in ("small", "full"):
        raise ValueError(f"grid must be 'small' or 'full', got {grid!r}")
    rng = random.Random(seed)
    if grid == "full":
        samples = 200
        dominance = (range(2, 5), range(1, 5), range(0, 7), range(0, 61))
        sharp_p = (range(1, 6), range(0, 31), range(1, 5))
        sharp_dp = (range(1, 10), range(1, 11), range(1, 4))
        expansion = ((0, 1, 2, 5), 25)
        cert_extra = 50
    else:
        samples = 60
        dominance = (range(2, 4), range(1, 3), range(0, 4), range(0, 25))
        sharp_p = (range(1, 4), range(0, 13), range(1, 4))
        sharp_dp = ((1, 3, 5), range(1, 6), range(1, 3))
        expansion = ((0, 1), 12)
        cert_extra = 20
    (dims, degrees, p_ranks), (surfaces, multiples, dp_ranks) = sharp_p, sharp_dp
    sharp = (
        ("sharpness-projective-space", p_ranks,
         [(v, d, math.comb(d + n, n), f"d={d}")
          for n in dims for v in [catalog_lookup(f"P{n}")] for d in degrees]),
        # anticanonical Riemann-Roch on the surface: h0(mH) - 1 = e*m(m+1)/2
        ("sharpness-del-pezzo", dp_ranks,
         [(v, m * e, e * m * (m + 1) // 2 + 1, f"m={m}")
          for e in surfaces for v in [catalog_lookup(f"delpezzo-{e}")] for m in multiples]),
    )
    return [
        _check_telescoping(rng, samples),
        *(_check_monotone(rng, samples, *cap) for cap in _CAPS),
        _check_dominance(*dominance),
        *(_check_sharp(*family) for family in sharp),
        _check_expansion(*expansion),
        _check_certificates(rng, cert_extra),
    ]
