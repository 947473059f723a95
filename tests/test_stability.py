import math
from fractions import Fraction

import pytest

from syzstab import (
    ConditionState,
    InconsistentInputError,
    Verdict,
    bound_high,
    catalog_lookup,
    check_stability,
    make_variety,
    restriction_sum,
    slope,
    syzygy_invariants,
)

P2 = catalog_lookup("P2")
P3 = catalog_lookup("P3")
K3 = catalog_lookup("quartic-K3")


class TestSlope:
    def test_plain(self):
        assert slope(2, -6) == -3

    def test_rank_zero(self):
        assert slope(0, 5) == math.inf

    def test_degree_zero(self):
        assert slope(1, 0) == 0

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError):
            slope(-1, 1)


class TestSyzygyInvariants:
    def test_shape(self):
        inv = syzygy_invariants(2, 6)
        assert inv.rank == 5
        assert inv.degree == -2
        assert inv.slope == Fraction(-2, 5)

    def test_zero_sheaf(self):
        assert syzygy_invariants(0, 1).slope == math.inf


class TestDegenerateCases:
    def test_trivial_bundle(self):
        rep = check_stability(P2, 0, 1)
        assert rep.verdict is Verdict.DEGENERATE
        assert rep.condition1.status is ConditionState.VACUOUS
        assert rep.condition2.status is ConditionState.VACUOUS

    def test_degree_zero_with_extra_sections(self):
        with pytest.raises(InconsistentInputError):
            check_stability(P2, 0, 5)

    def test_single_section_any_degree(self):
        assert check_stability(K3, 8, 1).verdict is Verdict.DEGENERATE

    def test_degree_one(self):
        rep = check_stability(P2, 1, 3)
        assert rep.verdict is Verdict.TRIVIALLY_STABLE
        assert rep.note is not None

    def test_negative_degree(self):
        with pytest.raises(InconsistentInputError):
            check_stability(P2, -2, 3)

    def test_nonpositive_sections(self):
        with pytest.raises(InconsistentInputError):
            check_stability(P2, 3, 0)


class TestPlaneConics:
    def test_spec_point(self):
        rep = check_stability(P2, 2, 6)
        assert rep.verdict is Verdict.STABLE
        assert rep.condition1.status is ConditionState.VACUOUS  # genus 0
        assert rep.condition2.status is ConditionState.STRICT_PASS
        assert rep.condition2.lhs == 5
        assert rep.condition2.rhs == 4

    def test_projective_plane_sweep(self):
        for d in range(2, 51):
            rep = check_stability(P2, d, math.comb(d + 2, 2))
            assert rep.verdict is Verdict.STABLE, d

    def test_projective_space_sweep(self):
        for d in range(2, 51):
            rep = check_stability(P3, d, math.comb(d + 3, 3))
            assert rep.verdict is Verdict.STABLE, d


class TestQuarticK3:
    def h0(self, m):
        return 2 + m * m * K3.h_top // 2

    def test_small_multiples_inconclusive(self):
        for m in (1, 2, 3):
            rep = check_stability(K3, 4 * m, self.h0(m))
            assert rep.verdict is Verdict.INCONCLUSIVE, m
            assert rep.condition2.status is ConditionState.FAIL

    def test_m3_rhs_value(self):
        rep = check_stability(K3, 12, self.h0(3))
        assert rep.condition2.lhs == 19
        assert rep.condition2.rhs == Fraction(1692, 88)

    def test_m4_both_strict(self):
        rep = check_stability(K3, 16, self.h0(4))
        assert rep.verdict is Verdict.STABLE
        assert rep.condition2.lhs == 33
        assert rep.condition2.rhs == Fraction(98, 3)
        assert rep.condition1.status is ConditionState.STRICT_PASS
        assert rep.condition1.rhs == 12

    def test_large_multiples_stable(self):
        for m in range(4, 21):
            assert check_stability(K3, 4 * m, self.h0(m)).verdict is Verdict.STABLE

    def test_m1_fails_via_second_condition(self):
        # lhs 3 hits the first condition exactly but falls short of the
        # second (rhs 4), so the verdict stays open rather than semistable
        rep = check_stability(K3, 4, self.h0(1))
        assert rep.condition1.status is ConditionState.EQUALITY
        assert rep.condition2.status is ConditionState.FAIL
        assert rep.verdict is Verdict.INCONCLUSIVE


class TestVerdictLogic:
    def test_monotone_in_sections(self):
        for name in ("P2", "quartic-K3", "cubic-surface", "quintic-surface"):
            v = catalog_lookup(name)
            for d in range(2, 30, 3):
                stable_seen = False
                for h0 in range(2, 80):
                    verdict = check_stability(v, d, h0).verdict
                    if stable_seen:
                        assert verdict is Verdict.STABLE, (name, d, h0)
                    stable_seen = verdict is Verdict.STABLE

    def test_equality_gives_semistable(self):
        # on the plane at degree 2 the second condition threshold is
        # exactly 4, so h0 = 5 sits on the boundary
        rep = check_stability(P2, 2, 5)
        assert rep.condition2.status is ConditionState.EQUALITY
        assert rep.condition2.rhs == 4
        assert rep.verdict is Verdict.SEMISTABLE

    def test_no_unstable_verdict_exists(self):
        assert "Unstable" not in {v.value for v in Verdict}

    def test_report_is_exact(self):
        rep = check_stability(K3, 12, 20)
        assert isinstance(rep.condition2.rhs, Fraction)


class TestStripThreshold:
    # dim 3, h_top 2, c1.H 2 has sectional genus 2; at degree 4 the
    # condition-2 threshold degree 3 lies on the strip 0 < (d - (2g-2))/h_top < 1
    V = make_variety("strip", 3, 2, 2)

    def test_not_certified_below_one_restriction_step(self):
        rep = check_stability(self.V, 4, 8)
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert rep.condition2.status is ConditionState.FAIL
        assert rep.condition2.rhs == Fraction(47, 6)
        # the cap may not sit below one hyperplane-restriction step
        assert rep.condition2.rhs >= Fraction(4, 3) * (restriction_sum(3, 2, 2, 3) - 1)


# check_stability compares h0 - 1 with d*B(d - 1)/(d - 1) only, with B the
# high cap (bound_high); the slope argument needs h0 - 1 > d*B(d')/d' at
# every d' in [2g - 1, d - 1] (ROADMAP item 3).  On these inputs some d' of
# the window reaches h0 - 1, yet the verdict is Stable.  Each case fails
# until the window is checked; strict xfail then reports it as passing.
_WINDOW_CASES = [
    # (dim, h_top, c1.H, degree, h0), and the window maximum with its d'
    ((5, 18, 66, 21, 8), Fraction(7), 7),
    ((5, 19, 70, 22, 8), Fraction(957, 133), 7),
    ((5, 20, 76, 22, 7), Fraction(154, 25), 5),
]


def _window_maximum(n, h_top, c1_h, degree):
    """max d*B(d')/d' over the window [2g - 1, d - 1], brute force, and the
    least d' that reaches it."""
    g = make_variety("window", n, h_top, c1_h).genus
    ratios = {dp: degree * bound_high(n, h_top, g, dp) / dp for dp in range(2 * g - 1, degree)}
    worst = max(ratios.values())
    return worst, min(dp for dp, ratio in ratios.items() if ratio == worst)


_WINDOW_IDS = ["h_top-18", "h_top-19", "h_top-20"]


@pytest.mark.parametrize("case, worst, at", _WINDOW_CASES, ids=_WINDOW_IDS)
def test_window_maximum_reaches_h0_minus_1(case, worst, at):
    n, h_top, c1_h, degree, h0 = case
    assert _window_maximum(n, h_top, c1_h, degree) == (worst, at)
    assert worst >= h0 - 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="condition 2 is checked at d - 1 only (ROADMAP item 3)")
@pytest.mark.parametrize("case", [case for case, _, _ in _WINDOW_CASES], ids=_WINDOW_IDS)
def test_stable_verdict_clears_the_whole_window(case):
    n, h_top, c1_h, degree, h0 = case
    rep = check_stability(make_variety("window", n, h_top, c1_h), degree, h0)
    worst, _ = _window_maximum(n, h_top, c1_h, degree)
    assert rep.verdict is not Verdict.STABLE or h0 - 1 > worst
