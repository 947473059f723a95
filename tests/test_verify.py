import json
from fractions import Fraction
from itertools import product

import pytest

from syzstab import cli, rank_one_bound, restriction_sum, verify
from syzstab.verify import CheckResult, run_suite

EXPECTED_CHECKS = {
    "telescoping-identity",
    "ratio-monotonicity-low",
    "ratio-monotonicity-high",
    "restriction-dominance",
    "sharpness-projective-space",
    "sharpness-del-pezzo",
    "twist-expansion-agreement",
    "certificate-soundness",
}


class TestSmallGrid:
    def test_all_checks_green(self):
        checks = run_suite(grid="small", seed=0)
        assert {c.name for c in checks} == EXPECTED_CHECKS
        for c in checks:
            assert c.failed == 0, f"{c.name}: {c.failures}"
            assert c.passed > 0

    def test_deterministic_for_fixed_seed(self):
        first = run_suite(grid="small", seed=42)
        second = run_suite(grid="small", seed=42)
        assert [(c.name, c.passed, c.failed, c.failures) for c in first] == [
            (c.name, c.passed, c.failed, c.failures) for c in second
        ]

    def test_seed_changes_draws_not_outcome(self):
        for seed in (1, 2, 3):
            assert all(c.failed == 0 for c in run_suite(grid="small", seed=seed))

    def test_dominance_notes_exclusion(self):
        checks = {c.name: c for c in run_suite(grid="small", seed=0)}
        dominance = checks["restriction-dominance"]
        assert "no cells excluded" in dominance.note
        assert dominance.passed == 2 * 2 * 4 * 25  # the whole small grid

    def test_unknown_grid_rejected(self):
        with pytest.raises(ValueError):
            run_suite(grid="huge", seed=0)


def _ratio(pair):
    """A cell's closed value or oracle as its (numerator, denominator) pair
    of ints, checked: the denominator is > 0, so the pair's sign and order
    are its value's."""
    num, den = pair
    assert type(num) is int and type(den) is int and den > 0, pair
    return num, den


def _assert_literal_cells(axes, cells):
    """The cells of a dominance walk over the grid axes come in product
    order, and each closed value and oracle is the public function's."""
    assert [cell[:4] for cell in cells] == list(product(*axes))
    for n, h, g, d, closed, oracle in cells:
        assert Fraction(*_ratio(closed)) == rank_one_bound(n, h, g, d), (n, h, g, d)
        assert Fraction(*_ratio(oracle)) == restriction_sum(n, h, g, d), (n, h, g, d)


class TestDominanceWalk:
    @pytest.mark.parametrize("grid,count", [("small", 400), ("full", 5124)])
    def test_run_suite_cells_are_the_literal_sums(self, monkeypatch, grid, count):
        walks, real = [], verify._dominance_cells

        def recording(*axes):
            cells = []
            walks.append((axes, cells))
            for cell in real(*axes):
                cells.append(cell)
                yield cell

        monkeypatch.setattr(verify, "_dominance_cells", recording)
        run_suite(grid=grid, seed=0)
        ((axes, cells),) = walks
        assert len(cells) == count
        _assert_literal_cells(axes, cells)

    def test_cells_are_the_literal_sums_on_a_wider_grid(self):
        axes = (range(2, 6), range(1, 7), range(0, 9), range(0, 81))
        _assert_literal_cells(axes, list(verify._dominance_cells(*axes)))

    @pytest.mark.parametrize("grid,evaluations", [("small", 600), ("full", 6832)])
    def test_each_rank_one_value_once_per_run(self, monkeypatch, grid, evaluations):
        # the closed values in dimension n and the sums' terms in dimension
        # n + 1 come from one column: each rank-1 value is computed once per
        # run, and a second run computes them all again
        calls, real = [], verify._rank_one_ratio

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verify, "_rank_one_ratio", counted)
        for _ in range(2):
            run_suite(grid=grid, seed=0)
            assert len(calls) == len(set(calls)) == evaluations
            calls.clear()


class TestFullGrid:
    def test_all_checks_green(self):
        checks = run_suite(grid="full", seed=0)
        for c in checks:
            assert c.failed == 0, f"{c.name}: {c.failures}"
        by_name = {c.name: c for c in checks}
        # the dominance sweep covers the whole grid, 3 dims x 4 h_top x 7 genera x 61 degrees
        assert by_name["restriction-dominance"].passed == 5124
        assert by_name["telescoping-identity"].passed == 200
        assert by_name["ratio-monotonicity-low"].passed == 200
        assert by_name["ratio-monotonicity-high"].passed == 200


class TestFailurePath:
    def test_record_counts_every_failure_and_itemizes_the_first_ten(self):
        described = []

        def describe(i):
            return lambda: described.append(i) or f"case {i}"

        res = CheckResult("demo")
        res.record(True, describe(-1))
        res.record(False, "plain text")
        for i in range(1, 13):
            res.record(False, describe(i))
        assert (res.passed, res.failed) == (1, 13)
        assert res.failures == ["plain text"] + [f"case {i}" for i in range(1, 10)] + ["..."]
        assert described == list(range(1, 10))  # never for a pass or a failure past the tenth

    def test_a_failed_check_makes_verify_exit_2(self, monkeypatch, capsys):
        samples = {c.name: c for c in run_suite()}["telescoping-identity"].passed
        monkeypatch.setattr(verify, "falling_sum_check", lambda *args: False)
        assert cli.main(["verify"]) == 2
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["total_failed"] == samples
        telescoping = next(c for c in result["checks"] if c["name"] == "telescoping-identity")
        assert (telescoping["passed"], telescoping["failed"]) == (0, samples)
        assert len(telescoping["failures"]) == 11 and telescoping["failures"][-1] == "..."
