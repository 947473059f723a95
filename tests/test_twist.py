import collections
import contextlib
import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from poly_algebra import RingPoly, ring
from syzstab import bounds, twist
from syzstab.exactnum import genbinom
from syzstab.poly import taylor_shift
from syzstab import (
    HilbertPoly,
    InconsistentInputError,
    Poly,
    UsageError,
    bound_high,
    bound_high_poly,
    bound_low,
    build_condition_polys,
    catalog_lookup,
    cauchy_bound,
    make_variety,
    minimal_stable_twist,
    validate_hilbert,
)

P2 = catalog_lookup("P2")
P3 = catalog_lookup("P3")
K3 = catalog_lookup("quartic-K3")

HP_P2 = HilbertPoly(Poly((1, Fraction(3, 2), Fraction(1, 2))), 0)
HP_P3 = HilbertPoly(Poly((1, Fraction(11, 6), 1, Fraction(1, 6))), 0)
HP_K3 = HilbertPoly(Poly((2, 0, 2)), 0)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def poly_strategy(max_deg=4):
    """Any polynomial, with the frozen ring operations."""
    return st.lists(rationals, min_size=0, max_size=max_deg + 1).map(RingPoly)


def taylor_polys(polys, c):
    """taylor_shift(polys, c) as polynomials over each input's denominator,
    or None."""
    nums = taylor_shift(polys, c)
    return None if nums is None else tuple(Poly._from_ints(p._denom, a) for p, a in zip(polys, nums))


class TestPoly:
    def test_eval(self):
        assert Poly((1, 0, 1))(Fraction(1, 2)) == Fraction(5, 4)

    def test_mul(self):
        assert RingPoly((1, 1)) * Poly((-1, 1)) == Poly((-1, 0, 1))

    def test_compose_linear(self):
        assert RingPoly((0, 0, 1)).compose_linear(2, 1) == Poly((1, 4, 4))

    def test_trailing_zeros_stripped(self):
        p = Poly((1, 2, 0, 0))
        assert p.degree == 1
        assert p.coeffs == (1, 2)

    def test_zero_polynomial(self):
        z = Poly((0, 0))
        assert z.degree == -1
        assert z(17) == 0
        with pytest.raises(ValueError):
            z.leading

    def test_coeff_out_of_range(self):
        assert Poly((1, 2)).coeff(7) == 0

    def test_scalar_ops(self):
        p = 2 * RingPoly((1, 1)) - 1
        assert p == Poly((1, 2))

    def test_immutable(self):
        p = Poly((1,))
        with pytest.raises(AttributeError):
            p.coeffs = (2,)

    @given(poly_strategy(), poly_strategy(), rationals)
    def test_ring_axioms_at_points(self, p, q, x):
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)
        assert (p - q)(x) == p(x) - q(x)

    @given(poly_strategy(3), rationals, rationals, rationals)
    def test_compose_matches_substitution(self, p, a, b, x):
        assert p.compose_linear(a, b)(x) == p(a * x + b)

    @given(
        st.lists(
            st.one_of(
                st.just(Fraction(0)),
                st.integers(-10**6, 10**6).map(Fraction),
                st.fractions(max_denominator=10**9),
            ),
            max_size=7,
        ),
        st.one_of(
            st.integers(max_value=-1),
            st.just(0),
            st.integers(min_value=1),
            st.fractions(max_denominator=10**6),
        ),
    )
    def test_eval_matches_fraction_horner(self, coeffs, x):
        want = Fraction(0)
        for c in reversed(coeffs):
            want = want * x + c
        p = Poly(coeffs)
        for _ in range(2):  # the first call scales the coefficients, the second reuses them
            got = p(x)
            assert type(got) is Fraction
            assert got == want

    @given(poly_strategy(5), rationals, rationals | st.integers(-10**6, 10**6))
    def test_compose_linear_is_the_substitution(self, p, a, b):
        # the frozen reference the Taylor-shift tests compare with, checked
        # against evaluation
        q = p.compose_linear(a, b)
        for x in (0, 1, -3, Fraction(5, 2)):
            assert q(x) == p(a * x + b)


def _polys_of(obj):
    return [obj] if isinstance(obj, Poly) else [p for p in (obj.cond2, obj.cond1) if p is not None]


def _fresh_objects():
    """A Poly, a ConditionPolys and a TwistCertificate whose polynomials
    have not been evaluated yet."""
    cert = minimal_stable_twist(K3, 0, HP_K3)
    fields = {name: getattr(cert, name) for name in cert._fields}
    cert = type(cert)(**dict(fields, cond2=Poly(cert.cond2.coeffs), cond1=Poly(cert.cond1.coeffs)))
    return [Poly(HP_P3.poly.coeffs), build_condition_polys(K3, 0, HP_K3), cert]


class TestCopyAndPickle:
    @pytest.mark.parametrize("evaluated", [False, True])
    @pytest.mark.parametrize("round_trip", [
        copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_round_trip(self, round_trip, evaluated):
        points = (5, Fraction(7, 2), -3)
        for obj in _fresh_objects():
            if evaluated:
                for p in _polys_of(obj):
                    p(points[0])
            clone = round_trip(obj)
            assert clone == obj
            for p, q in zip(_polys_of(obj), _polys_of(clone)):
                assert [q(x) for x in points] == [p(x) for x in points]
            with pytest.raises(AttributeError):
                _polys_of(clone)[0].coeffs = ()


class TestCauchyBound:
    def test_quadratic(self):
        assert cauchy_bound(Poly((-4, 0, 1))) == 5

    def test_linear(self):
        assert cauchy_bound(Poly((-3, 1))) == 4

    def test_cubic(self):
        assert cauchy_bound(Poly((-6, 1, 0, 2))) == 4

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            cauchy_bound(Poly((3,)))
        with pytest.raises(ValueError):
            cauchy_bound(Poly(()))

    def test_bounds_real_roots(self):
        rng = random.Random(6)
        for _ in range(100):
            coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 5)) for _ in range(4)]
            coeffs.append(Fraction(rng.choice([1, 2, -1]), 1))
            p = Poly(coeffs)
            r = cauchy_bound(p)
            # no sign changes at integer points beyond the bound
            sign = p(math.ceil(r) + 1) > 0
            for k in range(math.ceil(r) + 1, math.ceil(r) + 20):
                assert (p(k) > 0) == sign


def below_fujiwara_power(p, top):
    """Fujiwara's bound 2*max(|c_i/c_n|^(1/(n-i)), |c_0/(2c_n)|^(1/n)) is
    strictly below top, checked exactly on the powers of each term."""
    n, lead, half = p.degree, p.leading, Fraction(top, 2)
    return (all(abs(p.coeff(i) / lead) < half ** (n - i) for i in range(1, n))
            and abs(p.coeff(0) / (2 * lead)) < half ** n)


class TestFujiwaraBound:
    def test_root_on_the_unrounded_bound(self):
        # Fujiwara's bound of k - 6 is 2 * |-6/2| = 6, the root itself: the
        # shift test fails there (constant 0) and passes at the power of two
        p = Poly((-6, 1))
        assert twist.fujiwara_bound(p) == 8
        assert taylor_polys([p], 6) is None
        assert taylor_polys([p], 8) == (Poly((2, 1)),)

    def test_complex_roots(self):
        # (k - 10)^2 + 1 has roots 10 +- i; |-20| < 2^5 and |101/2| < 2^6
        # give 2 * max(2^5, 2^3) = 2^6, below the Cauchy bound 102
        p = Poly((101, -20, 1))
        assert twist.fujiwara_bound(p) == 64
        assert cauchy_bound(p) == 102
        assert taylor_polys([p], 64) == (Poly((2917, 108, 1)),)
        # at 10 the value is 1 > 0, but the linear coefficient is 0 and at
        # 9 it is -2: the test fails below the real part of the roots
        assert taylor_polys([p], 9) is None

    def test_only_the_lead(self):
        assert twist.fujiwara_bound(Poly((0, 0, Fraction(1, 3)))) == 1

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            twist.fujiwara_bound(Poly((3,)))
        with pytest.raises(ValueError):
            twist.fujiwara_bound(Poly(()))

    @given(st.lists(
        st.tuples(st.lists(st.fractions(-10**6, 10**6, max_denominator=10**4), min_size=1,
                           max_size=6),
                  st.fractions(min_value=Fraction(1, 10**4), max_value=10**4,
                               max_denominator=10**4))
        .map(lambda cl: Poly(cl[0] + [cl[1]])), min_size=1, max_size=3))
    # a root on the unrounded bound, complex roots, a double root at 2^k
    @example([Poly((-6, 1))])
    @example([Poly((101, -20, 1))])
    @example([Poly((64, -16, 1)), Poly((-6, 1))])
    @settings(deadline=None)
    def test_shift_passes_at_either_top(self, polys):
        # positive leading coefficients: at a power of two above Fujiwara's
        # bound, and at the ceiling of the Cauchy bound, the test passes
        tops = [twist.fujiwara_bound(p) for p in polys]
        for p, top in zip(polys, tops):
            assert top >= 1 and top & (top - 1) == 0
            assert below_fujiwara_power(p, top)
        assert taylor_polys(polys, max(tops)) is not None
        assert taylor_polys(polys, math.ceil(max(cauchy_bound(p) for p in polys))) is not None


def frozen_validate_hilbert(variety, d0, hp):
    """validate_hilbert as it compared Fractions before it cross-multiplied
    the stored numerators: the reference for the differential test."""
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


@st.composite
def hilbert_checks(draw):
    """A variety (c1_dot_h odd whenever (dim-1)*h_top is), a degree, and
    Hilbert coefficients whose top two are each the pinned value, near it,
    or anything, at the right degree or one off."""
    n, h, g = draw(st.integers(1, 5)), draw(st.integers(1, 12)), draw(st.integers(0, 30))
    variety = make_variety("custom", n, h, (n - 1) * h - 2 * (g - 1))
    d0 = draw(st.integers(-50, 50))
    pinned = [(d0 + Fraction(variety.c1_dot_h, 2)) / math.factorial(n - 1),
              Fraction(h, math.factorial(n))]
    top = [draw(st.one_of(st.just(want), st.just(want + Fraction(1, 2)), st.just(2 * want),
                          rationals))
           for want in pinned]
    lower = draw(st.lists(rationals, min_size=n - 1, max_size=n - 1))
    coeffs = lower + top
    size = draw(st.sampled_from((len(coeffs), len(coeffs), len(coeffs) - 1, len(coeffs) + 1)))
    return variety, d0, tuple((coeffs + [Fraction(1)])[:size])


class TestHilbertValidation:
    def test_accepts_standard_polys(self):
        validate_hilbert(P2, 0, HP_P2)
        validate_hilbert(P3, 0, HP_P3)
        validate_hilbert(K3, 0, HP_K3)

    def test_rejects_wrong_degree(self):
        with pytest.raises(InconsistentInputError, match="degree 2"):
            validate_hilbert(P2, 0, HilbertPoly(Poly((1, 1)), 0))

    def test_rejects_wrong_leading(self):
        with pytest.raises(InconsistentInputError, match="leading"):
            validate_hilbert(K3, 0, HilbertPoly(Poly((2, 0, 1)), 0))

    def test_rejects_wrong_second(self):
        with pytest.raises(InconsistentInputError, match="second"):
            validate_hilbert(P2, 0, HilbertPoly(Poly((1, 1, Fraction(1, 2))), 0))

    def test_error_reports_expected_and_got(self):
        with pytest.raises(InconsistentInputError, match="1/2.*got 1"):
            validate_hilbert(P2, 0, HilbertPoly(Poly((1, Fraction(3, 2), 1)), 0))

    @given(hilbert_checks())
    # odd c1_dot_h (dim 2, h_top 1, genus 0): the second coefficient is
    # (d0 + 3/2)/1!, a half-integer, right and one half off
    @example((make_variety("custom", 2, 1, 3), 4, (0, Fraction(11, 2), Fraction(1, 2))))
    @example((make_variety("custom", 2, 1, 3), 4, (0, 5, Fraction(1, 2))))
    @example((make_variety("custom", 2, 1, 3), -4, (0, Fraction(-5, 2), Fraction(1, 2))))
    def test_matches_fraction_checks(self, case):
        variety, d0, coeffs = case
        hp = HilbertPoly(Poly(coeffs), 0)
        outcomes = []
        for check in (validate_hilbert, frozen_validate_hilbert):
            try:
                check(variety, d0, hp)
                outcomes.append(None)
            except InconsistentInputError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


class TestHighCapExpansion:
    def test_p2_threshold(self):
        assert bound_high_poly(P2, 0).k_pos == 1

    def test_k3_threshold(self):
        assert bound_high_poly(K3, 0).k_pos == 3

    def test_k3_coefficients(self):
        poly = bound_high_poly(K3, 0).poly
        assert poly == Poly((Fraction(21, 8), -1, 2))

    def test_pointwise_agreement(self):
        for name in ("P2", "P3", "quartic-K3", "cubic-surface", "quintic-surface"):
            v = catalog_lookup(name)
            for d0 in (0, 1, 3):
                exp = bound_high_poly(v, d0)
                for k in range(exp.k_pos, exp.k_pos + 26):
                    direct = bound_high(v.dim, v.h_top, v.genus, d0 + k * v.h_top - 1)
                    assert exp.poly(k) == direct, (name, d0, k)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_the_cap_from_d_pos(self, n):
        # 61 twists from d_pos, h 1-9, g 0-20, with d0 chosen so that the
        # first twisted degree d0 - 1 + k_pos*h is d_pos itself (the lemma
        # half of this grid is tail_columns', in test_bounds)
        for h in range(1, 10):
            for g in range(21):
                start = bounds.d_pos(g, h)
                d0 = (start + 1) % h
                exp = bound_high_poly(make_variety("custom", n, h, (n - 1) * h - 2 * (g - 1)), d0)
                assert exp.poly.degree == n and d0 - 1 + exp.k_pos * h == start
                for k in range(exp.k_pos, exp.k_pos + 61):
                    assert exp.poly(k) == bound_high(n, h, g, d0 - 1 + k * h), (n, h, g, k)

    def test_second_coefficient_tracks_degree(self):
        # expanding at shifted base degree d+1 realizes the cap at d + k*h;
        # its next-to-top coefficient must be (d + c1_dot_h/2)/(n-1)!
        for name in ("P2", "P3", "quartic-K3", "delpezzo-6", "quintic-surface"):
            v = catalog_lookup(name)
            n = v.dim
            for d in (0, 2, 7):
                poly = bound_high_poly(v, d + 1).poly
                want = (d + Fraction(v.c1_dot_h, 2)) / math.factorial(n - 1)
                assert poly.coeff(n - 1) == want, (name, d)


def frozen_bound_high_poly(variety, d0):
    """The high cap transcribed by hand as a polynomial in k, as it stood
    before bound_high_poly interpolated bound_high: the reference for the
    differential test."""
    def genbinom_poly(shift, count):
        acc = RingPoly((1,))
        for i in range(1, count + 1):
            acc = acc * Poly((Fraction(shift) + i, 1))
        return acc * Fraction(1, math.factorial(count))

    n, h, g = variety.dim, variety.h_top, variety.genus
    poly = h * genbinom_poly(Fraction(d0 - g, h) - 1, n) - 1
    if n >= 2:
        cross = genbinom(Fraction(2 * g - 2, h), n - 1)
        poly = poly + (Fraction((n - 1) * (n + g - 1), n)
                       * genbinom_poly(Fraction(d0 - 2 * g + 1, h) - 1, n - 2) * cross)
    k_pos = math.ceil(Fraction(max(2 * g - 2, g - 1) + h + 1 - d0, h))
    return poly, k_pos


class TestInterpolatedCap:
    @given(n=st.integers(1, 5), h=st.integers(1, 12), g=st.integers(0, 40),
           d0=st.integers(0, 200))
    def test_matches_hand_expansion(self, n, h, g, d0):
        variety = make_variety("custom", n, h, (n - 1) * h - 2 * (g - 1))
        exp = bound_high_poly(variety, d0)
        assert (exp.poly, exp.k_pos) == frozen_bound_high_poly(variety, d0)

    @pytest.mark.parametrize("extra", [
        lambda n, d: Fraction(1, d + 1),    # not a polynomial at all
        lambda n, d: d ** (n + 1),          # a polynomial of degree n+1
    ])
    def test_cap_of_wrong_shape_is_caught(self, monkeypatch, extra):
        # the order-(n+1) difference through the extra node is then non-zero;
        # the cap is read through its integer kernel, at d = p/e
        real = bounds._high_ratio

        def patched(n, h, g, p, e):
            num, den = real(n, h, g, p, e)
            x = Fraction(extra(n, Fraction(p, e)))
            return num * x.denominator + x.numerator * den, den * x.denominator

        monkeypatch.setattr(bounds, "_high_ratio", patched)
        with pytest.raises(RuntimeError, match="not a polynomial"):
            bound_high_poly(P3, 2)


class TestConditionPolys:
    def test_p2(self):
        polys = build_condition_polys(P2, 0, HP_P2)
        assert polys.cond2 == Poly((0, Fraction(-1, 2), Fraction(1, 2)))
        assert polys.cond2(1) == 0
        assert polys.cond2(2) == 1
        assert polys.cond1 is None  # genus 0

    def test_k3(self):
        polys = build_condition_polys(K3, 0, HP_K3)
        assert polys.cond2 == Poly((-1, Fraction(-13, 2), 2))
        assert polys.cond1 == Poly((4, -12, 8))
        assert polys.cond2(3) == Fraction(-5, 2)
        assert polys.cond2(4) == 5

    def test_top_cancellation(self):
        for v, hp in ((P2, HP_P2), (P3, HP_P3), (K3, HP_K3)):
            polys = build_condition_polys(v, 0, hp)
            n = v.dim
            assert polys.cond2.coeff(n + 1) == 0
            assert polys.cond2.degree == n
            want = v.h_top * (1 - Fraction(1, n)) / math.factorial(n - 1)
            assert polys.cond2.leading == want

    def test_rejects_curves(self):
        curve = catalog_lookup("P1")
        with pytest.raises(UsageError):
            build_condition_polys(curve, 0, HilbertPoly(Poly((1, 1)), 0))

    def test_rejects_invalid_hilbert(self):
        with pytest.raises(InconsistentInputError):
            build_condition_polys(P2, 0, HilbertPoly(Poly((1, 1, 1)), 0))

    @pytest.mark.parametrize("power,message", [
        # k more in the cap takes -h_top * k^2 off F's lead 2
        (1, "condition polynomial has degree 2, leading -2; expected degree 2 with leading 2"),
        # k^2 more in the cap leaves -h_top * k^3 uncancelled
        (2, "condition polynomial has degree 3, leading -4; expected degree 2 with leading 2"),
    ], ids=["lead", "degree"])
    def test_lead_check_fires(self, monkeypatch, power, message):
        real = twist._cap_in_k

        def cap_plus_power(n, h, g, d0):
            k_pos, den, nums = real(n, h, g, d0)
            nums = list(nums)
            nums[power] += den  # the cap is nums/den, so this adds k^power
            return k_pos, den, nums

        monkeypatch.setattr(twist, "_cap_in_k", cap_plus_power)
        with pytest.raises(RuntimeError) as info:
            build_condition_polys(K3, 0, HP_K3)
        assert str(info.value) == message


def fraction_horner(poly, k):
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * k + c
    return acc


def frozen_radius_scan(variety, d0, hilbert):
    """k_min found as it was before the Taylor shift: by evaluating every
    integer from the start through the ceiling of the Cauchy bound.  The
    reference for the differential test."""
    polys = build_condition_polys(variety, d0, hilbert)
    conds = [p for p in (polys.cond2, polys.cond1) if p is not None]
    start = max(hilbert.regularity, polys.k_pos)
    top = math.ceil(max(cauchy_bound(p) for p in conds))
    last_fail = None
    for k in range(start, top + 1):
        if min(fraction_horner(p, k) for p in conds) <= 0:
            last_fail = k
    return start if last_fail is None else last_fail + 1


def frozen_bisection(variety, d0, hilbert):
    """The shift point c found as it was before the doubling search: by
    bisection over [start, ceil(Cauchy bound)], testing the signs of
    compose_linear's coefficients.  The reference for the shift point."""
    polys = build_condition_polys(variety, d0, hilbert)
    conds = [p for p in (polys.cond2, polys.cond1) if p is not None]
    lo = max(hilbert.regularity, polys.k_pos)
    hi = max(lo, math.ceil(max(cauchy_bound(p) for p in conds)))
    while lo < hi:
        mid = (lo + hi) // 2
        shifted = [ring(p).compose_linear(1, mid).coeffs for p in conds]
        if all(s[0] > 0 and min(s) >= 0 for s in shifted):
            hi = mid
        else:
            lo = mid + 1
    return hi


@contextlib.contextmanager
def counted_shifts():
    """Record the shift point of every Taylor shift (taylor_shift) that
    minimal_stable_twist computes while inside, as one list."""
    calls = []
    real = twist.taylor_shift

    def counting(polys, c):
        calls.append(c)
        return real(polys, c)

    twist.taylor_shift = counting
    try:
        yield calls
    finally:
        twist.taylor_shift = real


def search_range(variety, d0, hilbert):
    """The start and the top of the search for c: top is the least of the
    Cauchy bound's ceiling and the power of two over Fujiwara's bound,
    taken over F and G, or the start when that is higher."""
    polys = build_condition_polys(variety, d0, hilbert)
    conds = [p for p in (polys.cond2, polys.cond1) if p is not None]
    start = max(hilbert.regularity, polys.k_pos)
    top = min(math.ceil(max(cauchy_bound(p) for p in conds)),
              max(twist.fujiwara_bound(p) for p in conds))
    return start, max(start, top)


def assert_sound(cert):
    """The certificate proves itself: the shifted polynomials are F and G
    at k + c with nonnegative coefficients and a positive constant, the
    rows run without a gap from the first one up to c, each holds F and G
    at its k, and only the lowest row, at k_min - 1, may fail."""
    start, c = cert.scanned_range
    assert cert.shift.c == c >= start
    for poly, shifted in ((cert.cond2, cert.shift.cond2), (cert.cond1, cert.shift.cond1)):
        if poly is None:
            assert shifted is None
            continue
        assert shifted == ring(poly).compose_linear(1, c)
        assert shifted.coeffs[0] > 0 and min(shifted.coeffs) >= 0
    ks = [row.k for row in cert.scan]
    assert ks == list(range(ks[0], c + 1))
    for row in cert.scan:
        assert row.cond2_value == fraction_horner(cert.cond2, row.k)
        assert row.cond1_value == (None if cert.cond1 is None else fraction_horner(cert.cond1, row.k))
        assert row.passed == (row.cond2_value > 0 and (cert.cond1 is None or row.cond1_value > 0))
    assert all(row.passed for row in cert.scan[1:])
    if cert.k_min > start:
        assert ks[0] == cert.k_min - 1 and not cert.scan[0].passed
    else:
        assert ks[0] == start == cert.k_min and cert.scan[0].passed


def custom_case(n, h, g, d0, lower, regularity=0):
    """A custom variety with the given genus, and a Hilbert polynomial with
    the given lower coefficients under the two that geometry pins down."""
    c1h = (n - 1) * h - 2 * (g - 1)
    top = [(d0 + Fraction(c1h, 2)) / math.factorial(n - 1), Fraction(h, math.factorial(n))]
    return make_variety("custom", n, h, c1h), d0, HilbertPoly(Poly(list(lower) + top), regularity)


@st.composite
def twist_inputs(draw):
    n = draw(st.integers(2, 3))
    lower = st.lists(st.fractions(-8, 8, max_denominator=6), min_size=n - 1, max_size=n - 1)
    return custom_case(n, draw(st.integers(1, 3)), draw(st.integers(0, 8)), draw(st.integers(0, 5)),
                       draw(lower), draw(st.sampled_from((0, 1, 3, 7))))


def frozen_condition_polys(variety, d0, hilbert):
    """F and G built by Poly algebra, as build_condition_polys built them
    before it worked on the integer numerators: the reference for the
    differential test."""
    n, h, g = variety.dim, variety.h_top, variety.genus
    dpoly = RingPoly((d0, h))
    p_minus_1 = ring(hilbert.poly) - 1
    cond2 = (dpoly - 1) * p_minus_1 - dpoly * bound_high_poly(variety, d0).poly
    cond1 = None
    if g >= 2:
        cond1 = (2 * g - 2) * p_minus_1 - dpoly * bound_low(n, h, 2 * g - 2)
    return cond2, cond1


@st.composite
def condition_inputs(draw):
    n = draw(st.integers(2, 5))
    lower = draw(st.lists(st.fractions(-60, 60, max_denominator=30), min_size=n - 1, max_size=n - 1))
    return custom_case(n, draw(st.integers(1, 6)), draw(st.integers(0, 8)), draw(st.integers(0, 20)),
                       lower)


class TestIntegerConditionPolys:
    @given(condition_inputs())
    # genus 0 and 1 have no G; genus 2 (P - 1 = 0 at the constant) has one
    @example(custom_case(2, 1, 0, 0, [0]))
    @example(custom_case(3, 4, 1, 20, [Fraction(-7, 30), 0]))
    @example(custom_case(2, 2, 2, 0, [1]))
    @settings(deadline=None)
    def test_matches_poly_algebra(self, case):
        variety, d0, hilbert = case
        polys = build_condition_polys(variety, d0, hilbert)
        want2, want1 = frozen_condition_polys(variety, d0, hilbert)
        assert (polys.cond1 is None) == (want1 is None) == (variety.genus < 2)
        for got, want in ((polys.cond2, want2), (polys.cond1, want1)):
            if want is not None:
                assert (got._denom, got._nums) == (want._denom, want._nums)
                assert hash(got) == hash(want)
                assert_canonical(got)


class TestMinimalStableTwist:
    def test_plane(self):
        cert = minimal_stable_twist(P2, 0, HP_P2)
        assert cert.k_min == 2
        assert cert.cauchy == 2
        assert cert.scanned_range == (1, 2)
        assert any("k = 1" in note for note in cert.notes)

    def test_space(self):
        cert = minimal_stable_twist(P3, 0, HP_P3)
        assert cert.k_min == 2
        assert cert.cond2 == Poly((0, Fraction(-5, 6), Fraction(1, 2), Fraction(1, 3)))

    def test_quartic_surface(self):
        cert = minimal_stable_twist(K3, 0, HP_K3)
        assert cert.k_min == 4
        assert cert.cauchy == Fraction(17, 4)
        assert cert.scanned_range == (3, 4)
        assert cert.k_pos == 3
        assert [row.passed for row in cert.scan] == [False, True]
        assert cert.shift.c == 4
        assert cert.shift.cond2 == Poly((5, Fraction(19, 2), 2))
        assert cert.shift.cond1 == Poly((84, 52, 8))

    def test_positivity_past_scan(self):
        for v, hp in ((P2, HP_P2), (P3, HP_P3), (K3, HP_K3)):
            cert = minimal_stable_twist(v, 0, hp)
            for k in range(cert.k_min, cert.scanned_range[1] + 30):
                assert cert.cond2(k) > 0
                if cert.cond1 is not None:
                    assert cert.cond1(k) > 0

    def test_scan_values_are_recorded(self):
        cert = minimal_stable_twist(K3, 0, HP_K3)
        first = cert.scan[0]
        assert first.k == 3
        assert first.cond2_value == Fraction(-5, 2)
        assert first.cond1_value == 40

    def test_regularity_shifts_start(self):
        cert = minimal_stable_twist(K3, 0, HilbertPoly(Poly((2, 0, 2)), 4))
        assert cert.scanned_range[0] == 4
        assert cert.k_min == 4

    def test_passed_from_k_min_on(self):
        long_scan = make_variety("custom", 2, 1, -11)
        cases = ((P2, HP_P2), (P3, HP_P3), (K3, HP_K3),
                 (long_scan, HilbertPoly(Poly((0, Fraction(-11, 2), Fraction(1, 2))), 0)))
        for v, hp in cases:
            cert = minimal_stable_twist(v, 0, hp)
            assert_sound(cert)
            assert all(row.passed for row in cert.scan if row.k >= cert.k_min)
            assert cert.scan[-1].k >= cert.k_min

    @pytest.mark.parametrize("kernel,value,bound", [
        # Cauchy's radius 5/2 puts the top at the start 3, and prints as a Fraction
        ("_cauchy_ratio", (5, 2), "5/2"),
        # Fujiwara's power 2 puts the top at the start 3, and prints as an int
        ("fujiwara_bound", 2, "2"),
    ], ids=["cauchy", "fujiwara"])
    def test_post_scan_check_fires(self, monkeypatch, kernel, value, bound):
        # a root bound below the start puts the upper end of the search at
        # the start 3, where F(3) = -5/2: the shift there is not positive
        monkeypatch.setattr(twist, kernel, lambda p: value)
        with pytest.raises(RuntimeError) as info:
            minimal_stable_twist(K3, 0, HP_K3)
        assert str(info.value) == (
            f"Taylor shift at c = 3, past the root bound {bound}, is not positive")

    def test_start_past_cauchy_bound(self):
        cert = minimal_stable_twist(K3, 0, HilbertPoly(Poly((2, 0, 2)), 40))
        assert cert.k_min == 40
        assert cert.scanned_range == (40, 40)
        assert [(row.k, row.passed) for row in cert.scan] == [(40, True)]
        assert_sound(cert)

    @pytest.mark.parametrize("variety,hilbert,k_min", [
        # genus 36, Cauchy bound about 1.7e8
        (make_variety("custom", 4, 3, -61), (0, 0, 0, Fraction(-61, 12), Fraction(1, 8)), 317144),
        # genus 23, 311,627 rows for the radius scan
        (make_variety("custom", 3, 2, -40), (1, 1, -10, Fraction(1, 3)), 14090),
    ], ids=["dim4", "dim3-genus23"])
    def test_large_cases_take_few_rows(self, variety, hilbert, k_min):
        cert = minimal_stable_twist(variety, 0, HilbertPoly(Poly(hilbert), 0))
        assert cert.k_min == k_min
        assert len(cert.scan) <= 2
        assert_sound(cert)

    @given(twist_inputs())
    # F > 0 from k = 2 to 19 and <= 0 from 20 to 28: a search on the sign of
    # F(c) alone can end in the first positive run
    @example(custom_case(3, 1, 0, 0, (185, -15)))
    # positive from the start 6 on, but F(k + 33) has a negative coefficient,
    # so the rows run down from c = 34
    @example(custom_case(3, 1, 3, 0, (192, Fraction(57, 2))))
    @settings(deadline=None)
    def test_matches_radius_scan(self, case):
        variety, d0, hilbert = case
        polys = build_condition_polys(variety, d0, hilbert)
        radius = max(cauchy_bound(p) for p in (polys.cond2, polys.cond1) if p is not None)
        assume(radius <= 10**4)
        cert = minimal_stable_twist(variety, d0, hilbert)
        assert cert.k_min == frozen_radius_scan(variety, d0, hilbert)
        assert cert.shift.c == frozen_bisection(variety, d0, hilbert)
        assert_sound(cert)

    @given(twist_inputs())
    @example(custom_case(3, 1, 0, 0, (185, -15)))
    @example(custom_case(3, 1, 3, 0, (192, Fraction(57, 2))))
    @settings(deadline=None)
    def test_one_bisection_up_to_the_root_bound(self, case):
        # the inputs of test_matches_radius_scan: the shifts of one
        # bisection over [start, top], and one at top when no midpoint passed
        variety, d0, hilbert = case
        start, top = search_range(variety, d0, hilbert)
        with counted_shifts() as calls:
            cert = minimal_stable_twist(variety, d0, hilbert)
        assert start <= cert.shift.c <= top
        assert len(calls) <= (top - start).bit_length() + 1
        assert all(start <= c <= top for c in calls)
        # no shift is computed twice; the printed one is the one at c
        assert len(set(calls)) == len(calls) and cert.shift.c in calls

    def test_dim80_makes_few_shift_tests(self):
        # top = 2^18 = 262,144 (the Cauchy bound is about 9.1e116); the
        # doubling search up from the start made 32 tests
        variety, d0, hilbert = custom_case(80, 1, 0, 0, [0] * 79)
        with counted_shifts() as calls:
            cert = minimal_stable_twist(variety, d0, hilbert)
        assert cert.shift.c == 63195
        assert len(calls) <= 18
        assert len(set(calls)) == len(calls) and 63195 in calls

    def test_dim80_least_shift_far_below_cauchy_bound(self):
        # only the two pinned Hilbert coefficients are nonzero: the Cauchy
        # bound is about 9.1e116, the least shift point is k_min itself
        variety, d0, hilbert = custom_case(80, 1, 0, 0, [0] * 79)
        cert = minimal_stable_twist(variety, d0, hilbert)
        assert cert.cauchy > 10**116
        assert (cert.k_min, cert.shift.c) == (63195, 63195)
        assert [(row.k, row.passed) for row in cert.scan] == [(63194, False), (63195, True)]
        assert_sound(cert)


def integer_search_grid(count=400, seed=31):
    """Seeded inputs of dim 2-3, h_top 1-4, genus 2-40 (half of them 2-6,
    where F often stays positive below c) and d0 0-3, with free lower
    Hilbert coefficients of up to four digits."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 3)
        lower = [Fraction(rng.randint(-10 ** rng.randint(0, 3), 10 ** rng.randint(0, 3)),
                          rng.randint(1, 6)) for _ in range(n - 1)]
        genus = rng.choice((rng.randint(2, 40), rng.randint(2, 6)))
        yield custom_case(n, rng.randint(1, 4), genus, rng.randint(0, 3), lower)


class TestIntegerSearch:
    def test_matches_fraction_route(self):
        # the search on integer kernels against the Fraction route: the
        # condition polynomials, the radius over F and G, the bracket of the
        # bisection and the rows
        seen = collections.Counter()
        for case in integer_search_grid():
            variety, d0, hilbert = case
            polys = build_condition_polys(variety, d0, hilbert)
            assert (polys.cond2, polys.cond1) == frozen_condition_polys(*case)
            assert polys.k_pos == bound_high_poly(variety, d0).k_pos
            conds = [polys.cond2, polys.cond1]
            radii = [cauchy_bound(p) for p in conds]
            cert = minimal_stable_twist(variety, d0, hilbert)
            assert cert.cauchy == max(radii)
            start, top = search_range(variety, d0, hilbert)
            c = cert.shift.c
            assert cert.scanned_range == (start, c) and start <= c <= top
            # c is the least point of the bracket where the shift passes
            assert c == start or taylor_shift(conds, c - 1) is None
            # each row holds F and G at its k, and passes when both are > 0
            assert_sound(cert)
            seen["G's radius"] += radii[1] > radii[0]
            seen["Cauchy top"] += math.ceil(max(radii)) <= max(map(twist.fujiwara_bound, conds))
            seen["c = top"] += c == top
            seen["k_min < c"] += cert.k_min < c
        # the grid reaches both sides of each branch of the search
        assert all(0 < seen[key] < 400 for key in ("G's radius", "Cauchy top", "c = top")), seen
        assert seen["k_min < c"] > 0, seen


def frozen_minimal_stable_twist(variety, d0, hilbert):
    """minimal_stable_twist as it was before its search moved into the
    integer kernel twist._certify: the same search, with the rows below c
    evaluated as Fractions by Poly.__call__ and the records built as the
    search went.  The reference for the differential test."""
    polys = build_condition_polys(variety, d0, hilbert)
    conds = [p for p in (polys.cond2, polys.cond1) if p is not None]
    start = max(hilbert.regularity, polys.k_pos)
    num, den = twist._cauchy_ratio(conds[0])
    for p in conds[1:]:
        a, b = twist._cauchy_ratio(p)
        if a * den > num * b:
            num, den = a, b
    power = max(twist.fujiwara_bound(p) for p in conds)
    lo, hi = start, max(start, min(-(-num // den), power))
    shifted = None
    while lo < hi:
        mid = (lo + hi) // 2
        if (nums := taylor_shift(conds, mid)) is not None:
            hi, shifted = mid, nums
        else:
            lo = mid + 1
    c = hi
    if shifted is None and (shifted := taylor_shift(conds, c)) is None:
        raise RuntimeError("not positive")
    notes = [
        "raw difference has formal degree dim+1; the top terms cancel exactly, "
        "leaving degree dim with a positive leading coefficient",
    ]
    if polys.cond1 is not None:
        notes.append(
            "genus >= 2, so the low-branch condition is scanned alongside as a "
            "second polynomial"
        )
    at_c = [Fraction(nums[0], p._denom) for p, nums in zip(conds, shifted)]
    rows = [twist.ScanRow(k=c, cond2_value=at_c[0], cond1_value=at_c[1] if len(at_c) > 1 else None,
                          passed=True)]
    for k in range(c - 1, start - 1, -1):
        v2 = polys.cond2(k)
        v1 = polys.cond1(k) if polys.cond1 is not None else None
        passed = v2.numerator > 0 and (v1 is None or v1.numerator > 0)
        rows.append(twist.ScanRow(k=k, cond2_value=v2, cond1_value=v1, passed=passed))
        if not passed:
            if v2 == 0 or v1 == 0:
                notes.append(
                    f"equality at k = {k}: the certificate gives only semistability there"
                )
            break
    rows.reverse()
    k_min = rows[0].k if rows[0].passed else rows[0].k + 1
    shift = [Poly._from_ints(p._denom, nums) for p, nums in zip(conds, shifted)]
    return twist.TwistCertificate(
        k_min=k_min,
        cauchy=Fraction(num, den),
        scanned_range=(start, c),
        shift=twist.TaylorShift(c=c, cond2=shift[0], cond1=shift[1] if len(shift) > 1 else None),
        cond2=polys.cond2,
        cond1=polys.cond1,
        k_pos=polys.k_pos,
        regularity=hilbert.regularity,
        scan=tuple(rows),
        notes=tuple(notes),
    )


def kernel_grid(count=400, seed=47):
    """Seeded inputs of dim 2-3, h_top 1-3, genus 0-12, d0 0-3 and
    regularity 0, 2 or 9, with lower Hilbert coefficients of up to three
    digits: G absent and present, c at the start and past it, and rows
    that fail, pass or meet F = 0 below c."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 3)
        lower = [Fraction(rng.randint(-10 ** rng.randint(0, 3), 10 ** rng.randint(0, 3)),
                          rng.randint(1, 6)) for _ in range(n - 1)]
        yield custom_case(n, rng.randint(1, 3), rng.randint(0, 12), rng.randint(0, 3), lower,
                          rng.choice((0, 0, 2, 9)))


class TestIntegerKernel:
    def test_matches_the_frozen_certificate(self):
        # the API edge over twist._certify against the search that built
        # its records as it went: equal records, the same reprs (so every
        # value is a Fraction where it was one), on both sides of each branch
        seen = collections.Counter()
        for case in kernel_grid():
            cert, want = minimal_stable_twist(*case), frozen_minimal_stable_twist(*case)
            assert cert == want and repr(cert) == repr(want), case
            seen["G"] += cert.cond1 is not None
            seen["c = start"] += cert.shift.c == cert.scanned_range[0]
            seen["failed row"] += not cert.scan[0].passed
            seen["equality"] += any(note.startswith("equality") for note in cert.notes)
        assert all(0 < seen[key] < 400 for key in ("G", "c = start", "failed row")), seen
        assert seen["equality"] > 0, seen

    def test_a_zero_g_is_an_equality(self, monkeypatch):
        # F = k^2 + 1 stays positive and G = (k - 3)(k + 1) is 0 at k = 3,
        # just below c = 4: that row fails on G alone and is noted
        polys = twist.ConditionPolys(cond2=Poly((1, 0, 1)), cond1=Poly((-3, -2, 1)), k_pos=0)
        monkeypatch.setattr(twist, "build_condition_polys", lambda *case: polys)
        cert = minimal_stable_twist(P2, 0, HP_P2)
        assert (cert.k_min, cert.shift.c) == (4, 4)
        assert [(row.k, row.cond2_value, row.cond1_value, row.passed) for row in cert.scan] == [
            (3, 10, 0, False), (4, 17, 5, True)]
        assert cert.notes[-1] == "equality at k = 3: the certificate gives only semistability there"

    def test_kernel_returns_integers(self):
        # the kernel builds no Fraction, Poly or record past the condition
        # polynomials: every value it returns is an int, a str or a bool
        def leaves(obj):
            if type(obj) in (list, tuple):
                for item in obj:
                    yield from leaves(item)
            else:
                yield obj

        for case in kernel_grid(count=60, seed=5):
            polys, *rest = twist._certify(*case)
            assert polys == build_condition_polys(*case)
            assert {type(leaf) for leaf in leaves(rest)} <= {int, str, bool}


def shifted_polys(max_deg=4):
    """A polynomial as p(k - c) for a p with nonnegative coefficients and a
    positive constant, so its Taylor shift by c passes, or any polynomial."""
    nonneg = st.lists(st.fractions(0, 50, max_denominator=20), max_size=max_deg).map(
        lambda cs: RingPoly([Fraction(1, 7) + cs[0]] + cs[1:] if cs else [3]))
    return st.one_of(
        st.tuples(nonneg, st.integers(-50, 50)).map(lambda pc: pc[0].compose_linear(1, -pc[1])),
        poly_strategy(max_deg))


class TestPositiveShift:
    @given(st.lists(shifted_polys(), min_size=1, max_size=3), st.integers(-50, 50))
    # F(k + 1) = k^2 + k: no negative coefficient, but a zero constant
    @example([RingPoly((0, -1, 1))], 1)
    # constants, the zero polynomial, and a negative lead with a positive value
    @example([RingPoly((3,)), RingPoly((Fraction(-1, 2),))], 4)
    @example([RingPoly((1, 1)), RingPoly(())], 0)
    @example([RingPoly((5, -1))], 2)
    def test_is_the_taylor_shift_when_it_passes(self, polys, c):
        want = [p.compose_linear(1, c) for p in polys]
        passes = all(q.coeff(0) > 0 and min(q.coeffs) >= 0 for q in want)
        got = taylor_shift(polys, c)
        if not passes:
            assert got is None
            return
        # each p(k + c) as integer numerators over p's own denominator
        assert len(got) == len(polys)
        for p, nums, q in zip(polys, got, want):
            assert all(type(a) is int for a in nums)
            assert [Fraction(a, p._denom) for a in nums] == list(q.coeffs)

    def test_passes_at_the_shift_point(self):
        # F(k) = (k - 1)(k - 2) + k: F(k + 2) = k^2 + 2k + 2
        f = Poly((2, -2, 1))
        assert taylor_polys([f], 2) == (Poly((2, 2, 1)),)
        assert taylor_polys([f, Poly((1, 1))], 2) == (Poly((2, 2, 1)), Poly((3, 1)))

    def test_rejects_a_negative_coefficient(self):
        # F(k) = k^2 - 2k + 2 has no real root, but its -2 fails the test at
        # c = 0; at c = 1, F(k + 1) = k^2 + 1 passes
        assert taylor_polys([Poly((2, -2, 1))], 0) is None
        assert taylor_polys([Poly((2, -2, 1))], 1) == (Poly((1, 0, 1)),)
        # one failing polynomial fails the pair
        assert taylor_polys([Poly((1, 1)), Poly((2, -2, 1))], 0) is None

    def test_rejects_a_zero_constant(self):
        # the equality edge: F(k + 1) = k^2 + k is >= 0 on [0, oo) but 0 at k = 0
        f = Poly((0, -1, 1))
        assert taylor_polys([f], 1) is None
        assert taylor_polys([f], 2) == (Poly((2, 3, 1)),)
        # the zero polynomial's constant is 0
        assert taylor_polys([Poly((Fraction(1, 3),)), Poly(())], 0) is None


def assert_canonical(p):
    """p holds the one stored form of its coefficients: rebuilt from them it
    is equal and hashes the same."""
    rebuilt = Poly(p.coeffs)
    assert p == rebuilt and hash(p) == hash(rebuilt)


class TestStoredForm:
    @given(poly_strategy(), poly_strategy(), rationals, rationals, st.integers(-6, 6))
    # k/2 + k/2, k/2 - k/2, 2 * k/2 and 4 * 1/4 each cancel a common factor
    # of the integer pair they are computed as
    @example(RingPoly((0, Fraction(1, 2))), RingPoly((0, Fraction(1, 2))), Fraction(4), Fraction(0), 2)
    @example(RingPoly((Fraction(1, 4),)), RingPoly(()), Fraction(4), Fraction(1, 3), 3)
    def test_every_operation_stores_the_canonical_pair(self, p, q, a, b, n):
        for r in (p + q, p - q, p * q, -p, p + a, a + p, p - a, a - p, p * a, a * p,
                  p + n, n - p, n * p, p.compose_linear(a, b), p.compose_linear(n, a)):
            assert_canonical(r)

    @given(twist_inputs())
    @settings(deadline=None, max_examples=40)
    def test_certificate_shift_is_canonical(self, case):
        cert = minimal_stable_twist(*case)
        for p in (cert.cond2, cert.cond1, cert.shift.cond2, cert.shift.cond1):
            if p is not None:
                assert_canonical(p)
