import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from syzstab import Branch, UsageError, falling_sum_check, format_rational, genbinom, parse_rational
from syzstab.cli import _printed, _sweep_rows, _SweepRows, render_csv

# Python 3.10 before 3.10.7 has no int-to-string digit limit, so numbers
# past it convert there.
needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="no int-to-string digit limit")


class TestGenbinom:
    def test_integer_case(self):
        assert genbinom(3, 2) == 10  # C(5, 2)

    def test_negative_argument_is_zero(self):
        assert genbinom(Fraction(-1, 2), 3) == 0

    def test_k_zero_ignores_sign(self):
        assert genbinom(Fraction(5, 2), 0) == 1
        assert genbinom(-7, 0) == 1

    def test_fractional_product(self):
        # (1/2 + 1)(1/2 + 2) / 2!
        assert genbinom(Fraction(1, 2), 2) == Fraction(15, 8)

    def test_zero_argument_takes_product_branch(self):
        assert genbinom(0, 5) == 1

    def test_matches_comb_on_integers(self):
        for y in range(0, 12):
            for k in range(0, 6):
                assert genbinom(y, k) == math.comb(y + k, k)

    def test_monotone_in_y(self):
        rng = random.Random(3)
        for _ in range(200):
            k = rng.randint(0, 5)
            y1 = Fraction(rng.randint(0, 50), rng.randint(1, 9))
            y2 = y1 + Fraction(rng.randint(0, 30), rng.randint(1, 9))
            assert genbinom(y1, k) <= genbinom(y2, k)

    def test_positive_on_nonnegative(self):
        rng = random.Random(4)
        for _ in range(100):
            y = Fraction(rng.randint(0, 60), rng.randint(1, 7))
            assert genbinom(y, rng.randint(0, 6)) > 0

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            genbinom(1, -1)


# Decimal digits of any script, as \d and int() read them, and the
# whitespace str.strip() removes.
digit_strings = st.text(st.characters(categories=("Nd",)), min_size=1, max_size=30)
spaces = st.text(st.sampled_from(" \t\n\r\x0b\x0c\u00a0\u2003\u3000"), max_size=3)


class TestRationalStrings:
    def test_format(self):
        assert format_rational(Fraction(3, 1)) == "3"
        assert format_rational(Fraction(-7, 2)) == "-7/2"

    def test_parse(self):
        assert parse_rational("15/8") == Fraction(15, 8)
        assert parse_rational("-3") == -3
        assert parse_rational("+4/6") == Fraction(2, 3)

    @pytest.mark.parametrize("bad", ["1.5", "2e3", "1/0", "three", "1 / 2", ""])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(st.integers(min_value=-10**12, max_value=10**12),
           st.integers(min_value=1, max_value=10**9))
    def test_round_trip(self, p, q):
        r = Fraction(p, q)
        assert parse_rational(format_rational(r)) == r

    @given(st.sampled_from(["", "+", "-"]), digit_strings, st.none() | digit_strings,
           spaces, spaces)
    # leading zeros, a zero denominator, Arabic-Indic and fullwidth digits
    @example("-", "0007", "0004", " ", "\t\n")
    @example("+", "3", "000", "", "")
    @example("", "\u0663", "\uff14", "\u3000", "\u00a0")
    def test_matches_fraction_of_the_text(self, sign, num, den, lead, trail):
        text = f"{lead}{sign}{num}" + ("" if den is None else f"/{den}") + trail
        if den is not None and int(den) == 0:
            with pytest.raises(ZeroDivisionError):
                Fraction(text)
            with pytest.raises(ValueError) as info:
                parse_rational(text)
            assert str(info.value) == f"zero denominator: {text!r}"
            return
        got = parse_rational(text)
        assert type(got) is Fraction and got == Fraction(text)

    @pytest.mark.parametrize("bad", ["1.5", "2e3", "1_000", "1 / 2", "1/-2", "/2", "1/", "- 1",
                                     "", "three"])
    def test_rejection_message(self, bad):
        with pytest.raises(ValueError) as info:
            parse_rational(bad)
        assert str(info.value) == f"not a rational literal: {bad!r}"

    @needs_digit_limit
    @pytest.mark.parametrize("text", ["1" * 5000, "-000" + "7" * 5000 + "/3", "3/" + "9" * 5000,
                                      "8" * 5000 + "/" + "0" * 5000],
                             ids=["integer", "numerator", "denominator", "both"])
    def test_past_digit_limit_as_fraction(self, text):
        # the ValueError int() raises on the first long group, unchanged
        with pytest.raises(ValueError) as want:
            Fraction(text)
        with pytest.raises(ValueError) as got:
            parse_rational(text)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(
            f"Exceeds the limit ({sys.get_int_max_str_digits()} digits) for integer string conversion")


def printed_ratio(num: int, den: int) -> str:
    """num/den (den > 0) as a bound sweep prints a core and a value: reduced
    by the row printer (cli._sweep_rows), then listed and written as a CSV
    sweep lists and writes its rows (cli._printed, cli.render_csv): "p/q",
    or "p" when den divides num.  The made-up row's core and value are both
    num/den, and must print alike."""
    rows = _printed(_SweepRows, _sweep_rows([(0, Branch.RIEMANN_ROCH, num, num, den)], 1))
    _, line = render_csv({"result": {"results": rows}}).splitlines()
    _, core, _, value = line.split(",")
    assert core == value
    return core


class TestFormatRatio:
    """How the bound row printer prints an integer ratio.  The class keeps
    the name of exactnum.format_ratio, which printed a single degree before
    every bound result went through the row printer."""

    @pytest.mark.parametrize("num,den,text", [
        (6, 1, "6"), (-6, 1, "-6"), (0, 7, "0"), (12, 4, "3"), (-12, 4, "-3"),
        (6, 4, "3/2"), (-6, 4, "-3/2"), (5, 7, "5/7"), (-10**30, 6, "-500000000000000000000000000000/3"),
    ])
    def test_reduces_and_prints(self, num, den, text):
        assert printed_ratio(num, den) == text

    @given(st.integers(min_value=-10**40, max_value=10**40),
           st.integers(min_value=1, max_value=10**20), st.integers(min_value=1, max_value=10**6))
    def test_matches_format_rational(self, num, den, scale):
        # scale makes the pair unreduced whatever num and den are
        assert printed_ratio(num * scale, den * scale) == format_rational(Fraction(num, den))
        assert printed_ratio(num, 1) == format_rational(Fraction(num))

    @needs_digit_limit
    @pytest.mark.parametrize("num,den", [(10**5000, 1), (10**5000 + 1, 3), (1, 10**5000 + 1),
                                         (-(10**5000), 7)],
                             ids=["integer", "numerator", "denominator", "negative"])
    def test_past_digit_limit(self, num, den):
        message = f"a result has more than {sys.get_int_max_str_digits()} digits, too many to print"
        with pytest.raises(UsageError, match=message):
            printed_ratio(num, den)
        with pytest.raises(UsageError, match=message):
            format_rational(Fraction(num, den))

    @needs_digit_limit
    def test_reduction_brings_a_pair_under_the_digit_limit(self):
        assert printed_ratio(3 * 10**5000, 10**5000) == "3"


class TestFallingSum:
    def test_integer_instance(self):
        assert falling_sum_check(10, 1, 4, 2)

    def test_rational_instance(self):
        assert falling_sum_check(Fraction(17, 2), 2, 3, 1)

    def test_single_term(self):
        assert falling_sum_check(5, 3, 3, 1)

    def test_seeded_samples(self):
        rng = random.Random(11)
        for _ in range(200):
            a = rng.randint(1, 6)
            m = rng.randint(a, a + 6)
            k = rng.randint(1, 5)
            if rng.random() < 0.5:
                x = Fraction(m + k + rng.randint(0, 40))
            else:
                x = m + k + 1 + Fraction(rng.randint(0, 200), rng.randint(1, 7))
            assert falling_sum_check(x, a, m, k)

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            falling_sum_check(20, 5, 4, 2)

    def test_rejects_small_x(self):
        with pytest.raises(ValueError):
            falling_sum_check(4, 1, 3, 2)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            falling_sum_check(10, 0, 4, 2)
        with pytest.raises(ValueError):
            falling_sum_check(10, 1, 4, 0)

    @given(st.integers(1, 6), st.integers(0, 6), st.integers(1, 5),
           st.integers(0, 300), st.integers(1, 9))
    @example(a=1, span=2, k=2, num=1, den=2)  # x - m - k - 1 = -1/2: the identity fails
    @example(a=2, span=0, k=3, num=0, den=1)  # x - m - k = 0
    def test_matches_the_fraction_sum(self, a, span, k, num, den):
        # x - m - k = num/den >= 0; below 1 it puts C(x-m, k+1) on the
        # piecewise zero, where the two sides differ
        m = a + span
        x = m + k + Fraction(num, den)
        assert falling_sum_check(x, a, m, k) == _fraction_falling_sum_check(x, a, m, k)
        if Fraction(num, den) < 1 and x.denominator > 1:
            assert not falling_sum_check(x, a, m, k)


def _fraction_falling_sum_check(x, a, m, k):
    """falling_sum_check as it was built before it became one integer
    identity: a genbinom Fraction per term."""
    x = Fraction(x)
    lhs = sum((genbinom(x - i - k, k) for i in range(a, m + 1)), Fraction(0))
    rhs = genbinom(x - a - k, k + 1) - genbinom(x - m - k - 1, k + 1)
    return lhs == rhs
