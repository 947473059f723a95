"""Acceptance gate: one test per advertised guarantee, one printed
PASS/FAIL line per criterion.

Every comparison is exact rational equality; there are no tolerances.
Criterion 4 runs on the whole advertised grid, the thin strip of cells
with dim >= 3 and 0 < (d - (2g-2))/h_top < 1 included: there the
closed-form bound takes one hyperplane-restriction step instead of the
telescoped sum, and it is held to the same recursion as every other cell.
"""

import io
import json
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction

from poly_algebra import RingPoly
from syzstab.bounds import (
    bound_high,
    bound_low,
    clifford_bound,
    rank_one_bound,
    restriction_sum,
    sections_bound,
)
from syzstab.cli import main
from syzstab.exactnum import falling_sum_check
from syzstab.stability import Verdict, check_stability
from syzstab.twist import HilbertPoly, bound_high_poly, minimal_stable_twist
from syzstab.varieties import catalog_lookup, make_variety


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {label}: {status}{suffix}")


def test_criterion_1_projective_space_sharpness():
    bad = []
    for n in range(1, 6):
        variety = catalog_lookup(f"P{n}")
        for d in range(0, 31):
            expected_rank_one = math.comb(d + n, n)
            for r in range(1, 5):
                got = sections_bound(variety, r, d).value
                if got != expected_rank_one + r - 1:
                    bad.append((n, d, r, got))
    ok = not bad
    _report(1, "projective-space sharpness (620 cells)", ok,
            "" if ok else f"{len(bad)} mismatches, first {bad[:3]}")
    assert ok, f"projective-space sharpness violated at {bad[:5]}"


def test_criterion_2_del_pezzo_sharpness():
    bad = []
    for e in range(1, 10):
        variety = catalog_lookup(f"delpezzo-{e}")
        for m in range(1, 11):
            # independent oracle: surface Riemann-Roch for the anticanonical
            # class gives h0(mH) = e*m(m+1)/2 + 1, and the bound is that
            # count plus rank - 1
            expected_rank_one = Fraction(e * m * (m + 1), 2) + 1
            for r in range(1, 4):
                got = sections_bound(variety, r, m * e).value
                if got != expected_rank_one + r - 1:
                    bad.append((e, m, r, got))
    ok = not bad
    _report(2, "del Pezzo sharpness (270 cells)", ok,
            "" if ok else f"{len(bad)} mismatches, first {bad[:3]}")
    assert ok, f"del Pezzo sharpness violated at {bad[:5]}"


def test_criterion_3_curve_collapse():
    rng = random.Random(3)
    bad = []
    for _ in range(200):
        h = rng.randint(1, 6)
        g = rng.randint(0, 15)
        r = rng.randint(1, 4)
        d = max(2 * g - 1, g - 1 + h) + rng.randint(0, 60)
        curve = make_variety("curve", 1, h, 2 - 2 * g)
        got = sections_bound(curve, r, d).value
        if got != d - g + r:
            bad.append((h, g, r, d, got))
    for g in range(1, 21):
        for h in range(1, 5):
            curve = make_variety("curve", 1, h, 2 - 2 * g)
            # the summed shape keeps its linear term only for 2g-2 >= h;
            # below that the piecewise binomial zeroes it
            if (2 * g - 2 >= h or g == 1) and clifford_bound(1, h, g, 2 * g - 2) != g:
                bad.append(("clifford", h, g))
            rep = sections_bound(curve, 1, 2 * g - 2)
            if rep.branch.value != "Clifford" or rep.value != g:
                bad.append(("branch", h, g, rep.value))
    ok = not bad
    _report(3, "curve collapse to Riemann-Roch and Clifford", ok,
            "" if ok else f"first failures {bad[:3]}")
    assert ok, f"curve collapse violated at {bad[:5]}"


def test_criterion_4_recursion_dominance_full_grid():
    violations = []
    total = 0
    for n in (2, 3, 4):
        for h in range(1, 5):
            for g in range(0, 7):
                for d in range(0, 61):
                    total += 1
                    closed = rank_one_bound(n, h, g, d)
                    oracle = restriction_sum(n, h, g, d)
                    if closed < oracle:
                        violations.append((n, h, g, d, closed, oracle))
    in_strip = [
        v for v in violations
        if v[0] >= 3 and 0 < Fraction(v[3] - (2 * v[2] - 2), v[1]) < 1
    ]
    ok = not violations
    _report(4, f"recursion dominance on the full grid ({total} cells)", ok,
            "" if ok else f"{len(violations)} violations, all {len(in_strip)} in "
                          f"the strip dim>=3, 0<(d-(2g-2))/h_top<1")
    assert ok, (
        f"closed form < restriction sum at {len(violations)} of {total} cells; "
        f"every violation ({len(in_strip)}/{len(violations)}) lies in the strip "
        f"dim >= 3 with 0 < (d - (2g-2))/h_top < 1, where the piecewise binomial "
        f"zeroes the closed form's cross term but not the recursion's; "
        f"first cells (n, h, g, d, closed, oracle): {violations[:5]}"
    )


def test_criterion_5_telescoping_identity():
    # the identity needs the tail argument clear of the open unit gap:
    # x integral, or x - m - k >= 1; inside the gap the piecewise binomial
    # zeroes one side and the identity genuinely fails
    rng = random.Random(5)
    bad = []
    for _ in range(200):
        a = rng.randint(1, 6)
        m = a + rng.randint(0, 6)
        k = rng.randint(1, 5)
        if rng.random() < 0.5:
            x = Fraction(m + k + rng.randint(0, 40))
        else:
            x = m + k + 1 + Fraction(rng.randint(0, 200), rng.randint(1, 7))
        if not falling_sum_check(x, a, m, k):
            bad.append((x, a, m, k))
    ok = not bad
    _report(5, "telescoping identity (200 seeded samples)", ok,
            "" if ok else f"first failures {bad[:3]}")
    assert ok, f"telescoping identity failed at {bad[:5]}"


def test_criterion_6_ratio_monotonicity():
    rng = random.Random(6)
    bad_low, bad_high = [], []
    for _ in range(200):
        n = rng.randint(2, 4)
        h = rng.randint(1, 4)
        d1 = Fraction(rng.randint(1, 360), rng.randint(1, 6))
        d2 = d1 + Fraction(rng.randint(1, 240), rng.randint(1, 6))
        a1, a2 = bound_low(n, h, d1), bound_low(n, h, d2)
        if not (a1 > 0 and a2 > 0 and -d1 / a1 < -d2 / a2):
            bad_low.append((n, h, d1, d2))
    for _ in range(200):
        n = rng.randint(2, 4)
        h = rng.randint(1, 4)
        g = rng.randint(0, 6)
        base = max(2 * g - 2, g - 1) + h
        d1 = base + Fraction(rng.randint(1, 300), rng.randint(1, 6))
        d2 = d1 + Fraction(rng.randint(1, 240), rng.randint(1, 6))
        b1, b2 = bound_high(n, h, g, d1), bound_high(n, h, g, d2)
        if not (b1 > 0 and b2 > 0 and -d1 / b1 < -d2 / b2):
            bad_high.append((n, h, g, d1, d2))
    ok = not bad_low and not bad_high
    _report(6, "slope-ratio monotonicity (200 pairs per cap)", ok,
            "" if ok else f"low {len(bad_low)}, high {len(bad_high)}")
    assert ok, f"monotonicity violated: low {bad_low[:3]}, high {bad_high[:3]}"


def test_criterion_7_stability_reproduction():
    bad = []
    p2, p3 = catalog_lookup("P2"), catalog_lookup("P3")
    for d in range(2, 51):
        if check_stability(p2, d, math.comb(d + 2, 2)).verdict is not Verdict.STABLE:
            bad.append(("P2", d))
        if check_stability(p3, d, math.comb(d + 3, 3)).verdict is not Verdict.STABLE:
            bad.append(("P3", d))
    k3 = catalog_lookup("quartic-K3")
    for m in range(1, 21):
        rep = check_stability(k3, 4 * m, 2 * m * m + 2)
        want = Verdict.INCONCLUSIVE if m <= 3 else Verdict.STABLE
        if rep.verdict is not want:
            bad.append(("quartic-K3", m, rep.verdict.value))
    ok = not bad
    _report(7, "stability verdicts on plane, space, and quartic surface", ok,
            "" if ok else f"first failures {bad[:3]}")
    assert ok, f"stability reproduction failed at {bad[:5]}"


_TWIST_CASES = (
    ("P2", (1, Fraction(3, 2), Fraction(1, 2)), 2),
    ("P3", (1, Fraction(11, 6), 1, Fraction(1, 6)), 2),
    ("quartic-K3", (2, 0, 2), 4),
)


def test_criterion_8_twist_certificates():
    rng = random.Random(8)
    bad = []
    for name, coeffs, expected_k_min in _TWIST_CASES:
        variety = catalog_lookup(name)
        hp = RingPoly(coeffs)
        cert = minimal_stable_twist(variety, 0, HilbertPoly(hp, 0))
        if cert.k_min != expected_k_min:
            bad.append((name, "k_min", cert.k_min))
            continue

        # (a) the two degree-(n+1) pieces cancel exactly, leaving degree n
        n, h = variety.dim, variety.h_top
        dpoly = RingPoly((0, h))
        bpoly = bound_high_poly(variety, 0).poly
        top_left = ((dpoly - 1) * (hp - 1)).coeff(n + 1)
        top_right = (dpoly * bpoly).coeff(n + 1)
        raw = (dpoly - 1) * (hp - 1) - dpoly * bpoly
        if not (top_left == top_right != 0 and raw == cert.cond2 and raw.degree == n):
            bad.append((name, "cancellation", raw.degree))

        # (b) minimality evidence at k_min - 1
        if not (cert.cond2(cert.k_min - 1) <= 0 or cert.k_min == cert.scanned_range[0]):
            bad.append((name, "minimality", cert.cond2(cert.k_min - 1)))

        # scan agreement, twist by twist from the scan start through the
        # Cauchy radius, against the standalone checker
        for k in range(cert.scanned_range[0], math.ceil(cert.cauchy) + 1):
            verdict = check_stability(variety, k * h, int(hp(k))).verdict
            passed = cert.cond2(k) > 0 and (cert.cond1 is None or cert.cond1(k) > 0)
            if (verdict is Verdict.STABLE) != passed:
                bad.append((name, "scan", k, verdict.value, passed))

        # (c) stability at 50 sampled twists past k_min
        for _ in range(50):
            k = rng.randint(cert.k_min, cert.k_min + 400)
            verdict = check_stability(variety, k * h, int(hp(k))).verdict
            if verdict is not Verdict.STABLE:
                bad.append((name, "sampled", k, verdict.value))
    ok = not bad
    _report(8, "minimal-twist certificates (k_min 2, 2, 4)", ok,
            "" if ok else f"first failures {bad[:3]}")
    assert ok, f"twist certificates failed at {bad[:5]}"


def _capture(argv):
    sink = io.StringIO()
    with redirect_stdout(sink):
        code = main(list(argv))
    return code, sink.getvalue()


def test_criterion_9_determinism_and_round_trip():
    invocations = (
        ("bound", "--catalog", "P3", "--rank", "2", "--degree", "3"),
        ("bound", "--catalog", "quartic-K3", "--degree", "0..20"),
        ("check", "--catalog", "P2", "--degree", "2", "--h0", "6"),
        ("check", "--catalog", "quartic-K3", "--degree", "0",
         "--hilbert", "2,0,2", "--regularity", "0", "--twist", "5"),
        ("twist", "--catalog", "quartic-K3", "--degree", "0",
         "--hilbert", "2,0,2", "--regularity", "0"),
        ("catalog",),
        ("verify", "--grid", "small", "--seed", "0"),
    )
    bad = []
    for argv in invocations:
        code1, out1 = _capture(argv)
        code2, out2 = _capture(argv)
        if code1 != 0 or code2 != 0:
            bad.append((argv, "exit", code1, code2))
        if out1 != out2:
            bad.append((argv, "nondeterministic"))
        try:
            if json.dumps(json.loads(out1), sort_keys=True, indent=2) + "\n" != out1:
                bad.append((argv, "round-trip"))
        except json.JSONDecodeError:
            bad.append((argv, "not json"))
    ok = not bad
    _report(9, "CLI determinism and JSON round-trip", ok,
            "" if ok else f"first failures {bad[:2]}")
    assert ok, f"determinism/round-trip failed: {bad[:5]}"
