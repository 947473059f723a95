import json

import pytest

from syzstab import bounds, cli, verify
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


class TestDominanceMemo:
    @pytest.mark.parametrize("grid,evaluations", [("small", 600), ("full", 6832)])
    def test_one_memo_per_run(self, monkeypatch, grid, evaluations):
        # the closed forms in dimension n and the sums' terms from dimension
        # n + 1 share one memo, owned by the dominance check of one run: each
        # rank-1 value is computed once per run, and a second run computes
        # them all again
        memos = []
        real = bounds._rank_one_step

        def recording(memo, *key):
            if not any(m is memo for m in memos):
                memos.append(memo)
            return real(memo, *key)

        monkeypatch.setattr(bounds, "_rank_one_step", recording)
        monkeypatch.setattr(verify, "_rank_one_step", recording)
        for run in range(2):
            run_suite(grid=grid, seed=0)
            assert len(memos) == run + 1 and len(memos[-1]) == evaluations


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
