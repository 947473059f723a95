import functools
import math
import random
import re
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from syzstab import bounds
from syzstab import (
    BoundForm,
    Branch,
    BranchError,
    InconsistentInputError,
    bound_high,
    bound_low,
    catalog_lookup,
    clifford_bound,
    make_variety,
    rank_one_bound,
    restriction_sum,
    riemann_roch_bound,
    sections_bound,
    select_branch,
)
from syzstab.varieties import Variety


class TestCliffordBound:
    def test_canonical_degree_on_curve(self):
        # deg 2g-2 gives g, the classical Clifford extreme
        assert clifford_bound(1, 2, 3, 4) == 3

    def test_degree_zero_on_curve(self):
        assert clifford_bound(1, 2, 3, 0) == 1

    def test_piecewise_zero_fires_below_h_top(self):
        assert clifford_bound(2, 4, 3, 3) == Fraction(7, 4)

    def test_rejects_high_degree(self):
        with pytest.raises(BranchError):
            clifford_bound(1, 2, 3, 5)

    def test_rejects_negative_degree(self):
        with pytest.raises(InconsistentInputError):
            clifford_bound(1, 2, 3, -1)

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
            clifford_bound(0, 1, 0, 1)


class TestRiemannRochBound:
    def test_curve_value(self):
        # h0 = d - g + 1 on the curve; the rank-1 sum form lands on 6
        assert riemann_roch_bound(1, 5, 2, 7) == 6

    def test_plane_cubic_system(self):
        assert riemann_roch_bound(2, 1, 0, 3) == 10  # h0(O_P2(3))

    def test_anticanonical_on_cubic_surface(self):
        assert riemann_roch_bound(2, 3, 1, 3) == 4  # h0(-K) on the cubic

    def test_rejects_low_degree(self):
        with pytest.raises(BranchError):
            riemann_roch_bound(1, 2, 3, 4)


class TestSimplifiedCaps:
    def test_low_cap_at_zero(self):
        for n in (1, 2, 3):
            for h in (1, 2, 5):
                assert bound_low(n, h, 0) == 0

    def test_low_cap_on_curve(self):
        assert bound_low(1, 3, 4) == 2

    def test_low_cap_rejects_h_top_zero(self):
        with pytest.raises(ValueError, match="h_top must be >= 1, got 0"):
            bound_low(2, 0, 1)

    def test_low_cap_k3_point(self):
        assert bound_low(2, 4, 4) == 3

    def test_high_cap_projective_space(self):
        for n in range(1, 5):
            for d in range(0, 15):
                assert bound_high(n, 1, 0, d) == math.comb(d + n, n) - 1

    def test_high_cap_del_pezzo(self):
        for e in range(1, 10):
            for m in range(1, 8):
                assert bound_high(2, e, 1, m * e) == Fraction(e * m * (m + 1), 2)

    def test_high_cap_curve_value(self):
        assert bound_high(1, 3, 2, 6) == 4

    def test_high_cap_curve_collapse(self):
        # d - g whenever d >= g - 1 + h_top
        for h in (1, 2, 3):
            for g in (0, 1, 2, 5):
                for d in range(g - 1 + h, g + 20):
                    if d < 0:
                        continue
                    assert bound_high(1, h, g, d) == d - g


class TestBranchSelection:
    def test_boundary(self):
        assert select_branch(3, 4) is Branch.CLIFFORD
        assert select_branch(3, 5) is Branch.RIEMANN_ROCH

    def test_genus_zero_always_high(self):
        assert select_branch(0, 0) is Branch.RIEMANN_ROCH


class TestSectionsBound:
    def test_p3_rank_two(self):
        v = catalog_lookup("P3")
        for form in BoundForm:
            rep = sections_bound(v, 2, 3, form)
            assert rep.value == 21
            assert rep.branch is Branch.RIEMANN_ROCH

    def test_degree_zero_is_rank(self):
        for name in ("P2", "P4", "quadric-surface", "quartic-K3", "delpezzo-5"):
            v = catalog_lookup(name)
            for rank in (1, 2, 3):
                for form in BoundForm:
                    assert sections_bound(v, rank, 0, form).value == rank

    def test_degree_zero_floor_shows_raw_core(self):
        # on the quadric the raw high cap at degree 0 sits below the rank floor
        rep = sections_bound(catalog_lookup("quadric-surface"), 1, 0)
        assert rep.core == -1
        assert rep.value == 1

    def test_k3_polarization_degree(self):
        rep = sections_bound(catalog_lookup("quartic-K3"), 1, 4)
        assert rep.branch is Branch.CLIFFORD
        assert rep.value == 4  # h0(O_X(H)) on the quartic surface

    def test_rejects_negative_degree(self):
        with pytest.raises(InconsistentInputError):
            sections_bound(catalog_lookup("P2"), 1, -1)

    def test_rejects_bad_rank(self):
        with pytest.raises(InconsistentInputError):
            sections_bound(catalog_lookup("P2"), 0, 1)

    def test_report_echo(self):
        rep = sections_bound(catalog_lookup("cubic-surface"), 2, 5, BoundForm.LEMMA)
        assert (rep.n, rep.h_top, rep.genus, rep.rank, rep.degree) == (2, 3, 1, 2, 5)
        assert rep.form is BoundForm.LEMMA

    def test_value_at_least_rank_everywhere(self):
        rng = random.Random(9)
        for _ in range(300):
            n, h, g = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 7)
            v = make_variety("x", n, h, (n - 1) * h - 2 * (g - 1))
            rank = rng.randint(1, 4)
            for form in BoundForm:
                rep = sections_bound(v, rank, rng.randint(0, 40), form)
                assert rep.value >= rank


def _variety(n, h, g):
    return Variety("x", n, h, (n - 1) * h - 2 * (g - 1), g)


def _ratio_rows(v, rank, degrees, form):
    """The rows of bounds.sweep_ratios over the range's own tail, as the
    CLI reads them."""
    return bounds.sweep_ratios(v, rank, degrees, form, bounds.tail_columns(v, rank, degrees, form))


def _fraction_rows(v, rank, degrees, form=BoundForm.SIMPLIFIED):
    """The rows of bounds.sweep_ratios as (degree, branch, core, value)
    with Fraction core and value."""
    return ((d, branch, Fraction(core, den), Fraction(value, den))
            for d, branch, core, value, den in _ratio_rows(v, rank, degrees, form))


def _plus_power(kernel):
    """A closed form's integer kernel (n, h, g, p, e) -> (num, den > 0),
    as the kernel of that form plus d^(n+1), at d = p/e."""
    def patched(n, h, g, p, e):
        num, den = kernel(n, h, g, p, e)
        return num * e ** (n + 1) + p ** (n + 1) * den, den * e ** (n + 1)
    return patched


def _direct_rows(v, rank, degrees, form, direct=sections_bound):
    return [(d, (rep := direct(v, rank, d, form)).branch, rep.core, rep.value)
            for d in degrees]


class TestSweepBounds:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_grid_matches_sections_bound(self, n):
        # every range shape around d_pos: rows below it, a tail too short for
        # the difference table (< n+3 degrees) and one just long enough, from
        # every start 0..d_pos+3 and every rank; 200-degree ranges start at 0
        # and at each degree d_pos-1..d_pos+3, in one rank per variety and form
        for h in range(1, 6):
            for g in range(13):
                v, top = _variety(n, h, g), bounds.d_pos(g, h) + 4
                # the wanted rows, one cache per variety
                direct = functools.lru_cache(maxsize=None)(sections_bound)
                for form in BoundForm:
                    for rank in range(1, 5):
                        want = _direct_rows(v, rank, range(top + n + 2), form, direct)
                        for start in range(top):
                            for length in (1, n + 2, n + 3):
                                got = _fraction_rows(v, rank, range(start, start + length), form)
                                assert list(got) == want[start:start + length]
                    rank = 1 + (h + g + (form is BoundForm.LEMMA)) % 4
                    want = _direct_rows(v, rank, range(top + 199), form, direct)
                    for start in {0, *range(max(top - 5, 0), top)}:
                        got = _fraction_rows(v, rank, range(start, start + 200), form)
                        assert list(got) == want[start:start + 200]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 9), st.integers(0, 20), st.sampled_from(BoundForm),
           st.integers(1, 6), st.integers(0, 90), st.integers(1, 250))
    def test_matches_sections_bound(self, n, h, g, form, rank, start, length):
        v, degrees = _variety(n, h, g), range(start, start + length)
        assert list(_fraction_rows(v, rank, degrees, form)) == _direct_rows(v, rank, degrees, form)

    def test_table_rows_are_integers_over_one_denominator(self):
        # a genus-2 threefold: values with proper fractions; d_pos = 4
        v = _variety(3, 2, 2)
        rows = list(_ratio_rows(v, 2, range(0, 40), BoundForm.LEMMA))
        assert all(type(x) is int for row in rows for x in (row[0], *row[2:]))
        table_dens = {den for d, _, _, _, den in rows if d >= bounds.d_pos(2, 2)}
        assert len(table_dens) == 1 and table_dens != {1}
        assert [(d, b, Fraction(c, den), Fraction(val, den)) for d, b, c, val, den in rows] \
            == _direct_rows(v, 2, range(0, 40), BoundForm.LEMMA)

    def test_tail_costs_n_plus_2_closed_forms(self, monkeypatch):
        # the tail reads bound_high's integer kernel
        calls, kernel = [], bounds._high_ratio

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(bounds, "_high_ratio", counted)
        rows = list(_fraction_rows(catalog_lookup("P5"), 1, range(4, 3005)))
        assert len(calls) == 7 and rows[-1][3] == math.comb(3009, 5)

    def test_self_check_rejects_a_non_polynomial(self, monkeypatch):
        # one extra power of d: the order-(n+1) difference no longer vanishes;
        # the tail reads bound_high's integer kernel
        monkeypatch.setattr(bounds, "_high_ratio", _plus_power(bounds._high_ratio))
        with pytest.raises(RuntimeError, match="not a polynomial of degree 2"):
            list(_fraction_rows(catalog_lookup("P2"), 1, range(0, 10)))
        # the lemma form's polynomial is read from riemann_roch_bound's kernel
        monkeypatch.setattr(bounds, "_riemann_roch_ratio", _plus_power(bounds._riemann_roch_ratio))
        with pytest.raises(RuntimeError, match="not a polynomial of degree 2"):
            list(_fraction_rows(catalog_lookup("P2"), 1, range(0, 10), BoundForm.LEMMA))

    def test_rejects_bad_rank_past_d_pos(self):
        with pytest.raises(InconsistentInputError, match="rank must be >= 1, got 0"):
            list(_fraction_rows(catalog_lookup("P2"), 0, range(50, 100)))


def _tail_rows(v, rank, degrees, form):
    """The tail of a sweep (bounds.tail_columns) as its first degree, its
    denominator D and its rows as (degree, core, value) Fractions."""
    first, den, cores, values, _ = bounds.tail_columns(v, rank, degrees, form)
    return first, den, [(d, Fraction(core, den), Fraction(value, den))
                        for d, core, value in zip(range(first, degrees.stop), cores, values)]


class TestTailColumns:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_projective_space_tails_are_integers(self, n):
        # D == 1, so the CLI prints these tails column by column
        v = catalog_lookup(f"P{n}")
        for form in BoundForm:
            for rank in range(1, 5):
                first, den, rows = _tail_rows(v, rank, range(0, 80), form)
                assert (first, den) == (bounds.d_pos(0, 1), 1)
                assert rows == [(d, core, value) for d, _, core, value
                                in _direct_rows(v, rank, range(first, 80), form)]

    def test_a_fractional_tail_keeps_a_denominator(self):
        # genus 2, dim 3, h_top 2: the lemma form takes proper fractions past d_pos
        v = _variety(3, 2, 2)
        first, den, rows = _tail_rows(v, 2, range(0, 80), BoundForm.LEMMA)
        assert first == bounds.d_pos(2, 2) and den > 1
        assert rows == [(d, core, value) for d, _, core, value
                        in _direct_rows(v, 2, range(first, 80), BoundForm.LEMMA)]

    @pytest.mark.parametrize("form", BoundForm)
    def test_floors_a_tail_below_the_rank(self, form, monkeypatch):
        # no variety is known to floor a row past d_pos, so the closed form
        # is made up: ((d - 20)^2 - 60)/2 falls below 0 for d from 13 to 27,
        # and its differences at degree 0 (d_pos of a rational surface with
        # h_top 1) are negative; the tail reads it as an integer kernel
        def made_up(n, h, g, d):
            return Fraction((d - 20) ** 2 - 60, 2)

        def made_up_ratio(n, h, g, p, e):
            return (p - 20 * e) ** 2 - 60 * e * e, 2 * e * e

        monkeypatch.setattr(bounds, "_high_ratio", made_up_ratio)
        monkeypatch.setattr(bounds, "_riemann_roch_ratio", made_up_ratio)
        shift = 3 if form is BoundForm.SIMPLIFIED else 2
        first, den, rows = _tail_rows(_variety(2, 1, 0), 3, range(0, 60), form)
        assert (first, den) == (0, 2)
        assert rows == [(d, made_up(2, 1, 0, d), max(made_up(2, 1, 0, d) + shift, Fraction(3)))
                        for d in range(60)]
        assert sum(value == 3 for _, _, value in rows) > 10

    def test_columns_end_with_the_range(self):
        # also past sys.maxsize degrees, where itertools.repeat(x, count) fails;
        # P2's simplified core is C(d+2, 2) - 1
        v, form = catalog_lookup("P2"), BoundForm.SIMPLIFIED
        first, den, cores, values, _ = bounds.tail_columns(v, 1, range(0, 10 ** 30), form)
        assert (first, next(cores), next(values)) == (0, 0, 1)
        first, den, cores, values, _ = bounds.tail_columns(v, 1, range(7, 12), form)
        assert (first, list(cores), list(values)) == (7, [35, 44, 54, 65, 77], [36, 45, 55, 66, 78])
        # three degrees are fewer than n+3: sections_bound prints them
        first, den, cores, values, bound = bounds.tail_columns(v, 1, range(7, 10), form)
        assert (first, list(cores), list(values), bound) == (10, [], [], 0)
        assert [(core, value) for _, _, core, value in _fraction_rows(v, 1, range(7, 10))] \
            == [(35, 36), (44, 45), (54, 55)]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 9), st.integers(0, 20), st.sampled_from(BoundForm),
           st.integers(1, 6), st.integers(0, 90), st.integers(1, 250))
    def test_bound_covers_every_integer_of_the_tail(self, n, h, g, form, rank, start, length):
        _, _, cores, values, bound = bounds.tail_columns(_variety(n, h, g), rank,
                                                         range(start, start + length), form)
        assert max(map(abs, chain(cores, values)), default=0) <= bound


class TestLemmaTailFromDPos:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_the_summed_form_from_d_pos(self, n):
        # every integer degree d_pos .. d_pos+60, h 1-9, g 0-20: the tail's
        # cores over D are riemann_roch_bound itself (the simplified half
        # of this grid is bound_high_poly's, along the twist, in test_twist)
        for h in range(1, 10):
            for g in range(21):
                start = bounds.d_pos(g, h)
                first, den, rows = _tail_rows(_variety(n, h, g), 1, range(start, start + 61),
                                              BoundForm.LEMMA)
                assert first == start
                assert [core for _, core, _ in rows] \
                    == [riemann_roch_bound(n, h, g, d) for d in range(start, start + 61)], (n, h, g)


def _fraction_sum(n, h, g, d):
    """The restriction sum as a running Fraction sum of the rank-1 terms,
    the reference for restriction_sum's one integer ratio."""
    return sum((rank_one_bound(n - 1, h, g, d - i * h) for i in range(d // h + 1)), Fraction(0))


class TestRestrictionSum:
    def test_plane_conics(self):
        assert restriction_sum(2, 1, 0, 2) == 6  # h0(O_P2(2))

    def test_single_step(self):
        assert restriction_sum(2, 4, 3, 0) == 1

    def test_space_quadrics(self):
        assert restriction_sum(3, 1, 0, 2) == 10  # h0(O_P3(2))

    def test_rational_degree(self):
        # the terms are the rank-1 bounds one dimension down at 7/2 and 3/2
        got = restriction_sum(3, 2, 1, Fraction(7, 2))
        assert type(got) is Fraction and got == Fraction(109, 16)
        assert got == sum(rank_one_bound(2, 2, 1, Fraction(p, 2)) for p in (7, 3))

    @pytest.mark.parametrize("n,h,g,d,error,message", [
        (1, 1, 0, 3, ValueError, "restriction needs dimension >= 2"),
        (0, 2, 1, 3, ValueError, "restriction needs dimension >= 2"),
        (2, 1, 0, -1, InconsistentInputError, "degree must be >= 0 (degree-0 sheaves are trivial, "
                                              "negative is impossible), got -1"),
        (3, 2, 1, -4, InconsistentInputError, "degree must be >= 0 (degree-0 sheaves are trivial, "
                                              "negative is impossible), got -4"),
        (2, 0, 0, 2, ValueError, "h_top must be >= 1, got 0"),
        (3, -1, 2, 5, ValueError, "h_top must be >= 1, got -1"),
    ])
    def test_rejects_bad_arguments(self, n, h, g, d, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            restriction_sum(n, h, g, d)

    def test_matches_fraction_sum_on_grid(self):
        # every cell of n 2-5, h_top 1-6, genus 0-8, d 0..80
        for n in range(2, 6):
            for h in range(1, 7):
                for g in range(9):
                    for d in range(81):
                        got = restriction_sum(n, h, g, d)
                        assert type(got) is Fraction
                        assert got == _fraction_sum(n, h, g, d), (n, h, g, d)


class TestFormRelations:
    def test_low_cap_matches_summed_form(self):
        # A + 1 equals the summed Clifford form at degree 0 and from h_top up
        rng = random.Random(21)
        for _ in range(300):
            n = rng.randint(1, 4)
            h = rng.randint(1, 4)
            g = rng.randint(2, 8)
            choices = [0] + list(range(h, 2 * g - 1))
            d = rng.choice(choices)
            assert bound_low(n, h, d) + 1 == clifford_bound(n, h, g, d)

    def test_high_cap_equals_summed_form_on_surfaces(self):
        for h in range(1, 5):
            for g in range(0, 7):
                for d in range(max(2 * g - 1, 0), 2 * g + 30):
                    assert bound_high(2, h, g, d) + 1 == riemann_roch_bound(2, h, g, d)

    def test_high_cap_dominates_summed_form_past_gap(self):
        # simplification soundness holds once d clears 2g-2 by a full h_top
        for n in (2, 3, 4):
            for h in range(1, 5):
                for g in range(0, 7):
                    lo = max(2 * g - 1, 0, 2 * g - 2 + h)
                    for d in range(lo, lo + 25):
                        assert bound_high(n, h, g, d) + 1 >= riemann_roch_bound(n, h, g, d)

    def test_high_cap_dominates_restriction_sum_past_strip(self):
        # cap + 1 stays at or above the oracle on the grid where it falls
        # below the summed form (108 cells, all with h_top >= 9)
        cells = 0
        for n in (3, 4):
            for h in range(1, 21):
                for g in range(0, 9):
                    lo = 2 * g - 2 + h
                    for d in range(max(lo, 0), lo + 40):
                        cap = bound_high(n, h, g, d) + 1
                        assert cap >= restriction_sum(n, h, g, d), (n, h, g, d)
                        cells += 1
        assert cells == 14398

    def test_closed_form_dominates_recursion_on_surfaces(self):
        for h in range(1, 5):
            for g in range(0, 7):
                for d in range(0, 45):
                    assert rank_one_bound(2, h, g, d) >= restriction_sum(2, h, g, d)


class TestStrip:
    """Cells with dim >= 3 and 0 < (d - (2g-2))/h_top < 1: the high branch
    holds less than one full hyperplane step, so the telescoped forms do
    not apply and both forms take one restriction step instead."""

    def test_both_forms_dominate_restriction_sum(self):
        # h_top reaches well past the acceptance grid's 1..4
        cells = 0
        for n in (3, 4):
            for h in range(1, 25):
                for g in range(0, 9):
                    for d in range(max(2 * g - 1, 0), 2 * g - 2 + h):
                        cells += 1
                        oracle = restriction_sum(n, h, g, d)
                        closed = rank_one_bound(n, h, g, d)
                        cap = bound_high(n, h, g, d)
                        assert closed >= oracle, (n, h, g, d, closed, oracle)
                        assert cap + 1 == closed, (n, h, g, d, cap, closed)
        assert cells == 4922

    def test_one_restriction_step_value(self):
        # 5 sections on the hyperplane section plus clifford_bound(3, 2, 2, 1) = 15/8
        # for L(-H); the telescoped sum would give 6, below the recursion's 13/2
        assert riemann_roch_bound(3, 2, 2, 3) == Fraction(55, 8)
        assert bound_high(3, 2, 2, 3) == Fraction(47, 8)
        assert restriction_sum(3, 2, 2, 3) == Fraction(13, 2)

    def test_no_twist_term_below_h_top(self):
        # d < h_top: L(-H) has negative degree and contributes nothing
        assert riemann_roch_bound(3, 5, 1, 2) == rank_one_bound(2, 5, 1, 2)


# --- frozen reference --------------------------------------------------------
# The closed forms as Fraction loops over a product binomial, as they stood
# before the integer-scaled evaluation; the program must agree with them on
# value, result type and exception type.

def _ref_binom(y, k):
    if k == 0:
        return Fraction(1)
    if y < 0:
        return Fraction(0)
    out = Fraction(1)
    for i in range(1, k + 1):
        out *= y + i
    return out / math.factorial(k)


def _ref_degree(d):
    d = Fraction(d)
    if d < 0:
        raise InconsistentInputError(d)
    return d


def _ref_clifford(n, h, g, d):
    d = _ref_degree(d)
    if d > 2 * g - 2:
        raise BranchError(d)
    x = d / h
    return Fraction(h, 2) * _ref_binom(x - 1, n) + _ref_binom(x, n - 1)


def _ref_in_strip(n, h, g, d):
    return n >= 3 and 0 < d - (2 * g - 2) < h


def _ref_riemann_roch(n, h, g, d):
    d = _ref_degree(d)
    if d <= 2 * g - 2:
        raise BranchError(d)
    if _ref_in_strip(n, h, g, d):
        total = _ref_rank_one(n - 1, h, g, d)
        if d >= h:
            total += _ref_clifford(n, h, g, d - h)
        return total
    total = h * _ref_binom((d - (g - 1)) / h - 1, n)
    s = (d - (2 * g - 2)) / h - 1
    t = Fraction(2 * g - 2, h)
    for i in range(n - 1):
        total += Fraction(n - i + g - 1, n - i) * _ref_binom(s, i) * _ref_binom(t, n - 1 - i)
    return total


def _ref_rank_one(n, h, g, d):
    if Fraction(d) <= 2 * g - 2:
        return _ref_clifford(n, h, g, d)
    return _ref_riemann_roch(n, h, g, d)


def _ref_low(n, h, d):
    d = _ref_degree(d)
    return (d / (2 * n) + 1) * _ref_binom(d / h, n - 1) - 1


def _ref_high(n, h, g, d):
    d = _ref_degree(d)
    if _ref_in_strip(n, h, g, d):
        return _ref_riemann_roch(n, h, g, d) - 1
    total = h * _ref_binom((d - (g - 1)) / h - 1, n) - 1
    if n >= 2:
        total += (Fraction((n - 1) * (n + g - 1), n)
                  * _ref_binom((d - (2 * g - 2)) / h - 1, n - 2)
                  * _ref_binom(Fraction(2 * g - 2, h), n - 1))
    return total


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except (BranchError, InconsistentInputError) as exc:
        return type(exc)
    assert type(value) is Fraction, (fn.__name__, args, value)
    return value


@st.composite
def _cells(draw):
    n, h, g = draw(st.integers(1, 6)), draw(st.integers(1, 12)), draw(st.integers(0, 10))
    # near 2g-2 the draw covers both branches, their boundary and the strip
    near = draw(st.booleans())
    lo, hi = (2 * g - 2 - h, 2 * g - 2 + 2 * h) if near else (-3, 400)
    if draw(st.booleans()):
        d = draw(st.integers(lo, hi))
    else:
        d = draw(st.fractions(min_value=lo, max_value=hi, max_denominator=12))
    return n, h, g, d


class TestScaledClosedForms:
    @settings(max_examples=600, deadline=None)
    @given(_cells())
    def test_match_fraction_reference(self, cell):
        n, h, g, d = cell
        pairs = (
            (clifford_bound, _ref_clifford, (n, h, g, d)),
            (riemann_roch_bound, _ref_riemann_roch, (n, h, g, d)),
            (bound_low, _ref_low, (n, h, d)),
            (bound_high, _ref_high, (n, h, g, d)),
            (rank_one_bound, _ref_rank_one, (n, h, g, d)),
        )
        for fn, ref, args in pairs:
            assert _outcome(fn, *args) == _outcome(ref, *args), (fn.__name__, args)


# (public function, its integer kernel, whether the kernel takes g, the
# branch the public function accepts: True low, False high, None both)
_KERNELS = (
    (clifford_bound, bounds._clifford_ratio, False, True),
    (riemann_roch_bound, bounds._riemann_roch_ratio, True, False),
    (rank_one_bound, bounds._rank_one_ratio, True, None),
    (bound_low, bounds._low_ratio, False, None),
    (bound_high, bounds._high_ratio, True, None),
)


class TestKernels:
    def test_each_kernel_is_its_public_function(self):
        # fractional degrees (denominators 1, 2, 3 and 7) from degree 0 past
        # d_pos, the strip, n = 1 and g = 0; each kernel also at the
        # unreduced ratio 3p/3e.  Every denominator must be > 0: the sign of
        # a cross-multiplied comparison depends on it
        cells, strip = 0, 0
        for n in range(1, 6):
            for h in range(1, 5):
                for g in range(6):
                    for e in (1, 2, 3, 7):
                        for p in range((bounds.d_pos(g, h) + 3) * e):
                            d, low = Fraction(p, e), p <= (2 * g - 2) * e
                            cells += 1
                            strip += bounds._in_strip(n, h, g, p, e)
                            for public, kernel, takes_g, branch in _KERNELS:
                                if branch is not None and branch is not low:
                                    continue
                                head = (n, h, g) if takes_g else (n, h)
                                want = (public(n, h, d) if public is bound_low
                                        else public(n, h, g, d))
                                for scale in (1, 3):
                                    num, den = kernel(*head, scale * p, scale * e)
                                    assert type(num) is int and type(den) is int and den > 0
                                    assert Fraction(num, den) == want, (public.__name__, n, h, g, d)
        assert (cells, strip) == (13520, 1827)


# The section bound is below the classical h0 of these globally generated
# line bundles (ROADMAP item 1), so `bound` prints a value below it and
# `check` with that h0 exits 3.  Each case fails until the bound is sound;
# strict xfail then reports it as passing.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the section bound is below the classical h0 (ROADMAP item 1)")
@pytest.mark.parametrize("variety, degree, h0", [
    # P2 polarized by -K = O(3): O(2) has degree 6 and 6 sections
    (("delpezzo-9",), 6, 6),
    # O_Q(1) on the quadric surface: 4 sections
    (("quadric-surface",), 2, 4),
    # a pencil of conics on the cubic surface: 2 sections
    (("cubic-surface",), 2, 2),
    # a plane cubic (g = 1): every degree-2 line bundle has 2 sections
    (("custom", 1, 3, 0), 2, 2),
    # the cubic scroll S(1,2): its ruling has 2 sections
    (("custom", 2, 3, 5), 1, 2),
], ids=["delpezzo-9", "quadric-surface", "cubic-surface", "plane-cubic", "cubic-scroll"])
def test_bound_is_at_least_the_classical_h0(variety, degree, h0):
    v = catalog_lookup(*variety) if len(variety) == 1 else make_variety(*variety)
    assert sections_bound(v, 1, degree).value >= h0
