import argparse
import collections
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from enum import Enum
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import report_walkers as frozen
import syzstab
from syzstab import cli
from syzstab.cli import main
from syzstab.record import Record


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_one_error(result, want_code, needle):
    """The call exited with want_code, printed nothing on stdout, and one
    `error:` line containing needle on stderr."""
    code, out, err = result
    assert code == want_code
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err


class TestBoundCommand:
    def test_p3_rank_two(self):
        code, out, _ = run_cli("bound", "--catalog", "P3", "--rank", "2", "--degree", "3")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["value"] == "21"
        assert report["result"]["branch"] == "RiemannRoch"

    def test_lemma_form(self):
        code, out, _ = run_cli("bound", "--catalog", "P3", "--rank", "2", "--degree", "3",
                               "--form", "lemma")
        assert code == 0
        assert json.loads(out)["result"]["value"] == "21"

    def test_explicit_variety(self):
        code, out, _ = run_cli("bound", "--dim", "2", "--h-top", "4", "--c1-h", "0",
                               "--degree", "4")
        assert code == 0
        report = json.loads(out)
        assert report["input"]["variety"]["genus"] == 3
        assert report["result"]["value"] == "4"

    def test_degree_range_csv(self):
        code, out, _ = run_cli("bound", "--catalog", "P2", "--degree", "0..12",
                               "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 14
        assert lines[0] == "branch,core,degree,value"
        # h0(O_P2(3)) = 10 exactly
        assert "RiemannRoch,9,3,10" in lines

    def test_negative_degree_is_inconsistent(self):
        code, _, err = run_cli("bound", "--catalog", "P2", "--degree", "-3")
        assert code == 3
        assert "degree" in err

    def test_missing_degree(self):
        code, _, err = run_cli("bound", "--catalog", "P2")
        assert code == 1
        assert "--degree" in err

    def test_unknown_catalog_name(self):
        code, _, err = run_cli("bound", "--catalog", "P9", "--degree", "2")
        assert code == 1
        assert "quartic-K3" in err  # the error lists what exists

    def test_catalog_and_dims_conflict(self):
        code, _, err = run_cli("bound", "--catalog", "P2", "--dim", "2", "--h-top", "1",
                               "--c1-h", "3", "--degree", "2")
        assert code == 1

    def test_bad_range(self):
        code, _, err = run_cli("bound", "--catalog", "P2", "--degree", "5..1")
        assert code == 1

    def test_odd_parity_variety(self):
        code, _, err = run_cli("bound", "--dim", "2", "--h-top", "1", "--c1-h", "2",
                               "--degree", "2")
        assert code == 3
        assert "odd" in err


class TestCheckCommand:
    def test_stable_point(self):
        code, out, _ = run_cli("check", "--catalog", "P2", "--degree", "2", "--h0", "6")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["verdict"] == "Stable"
        assert report["result"]["condition2"]["lhs"] == "5"
        assert report["result"]["condition2"]["rhs"] == "4"
        assert report["result"]["condition1"]["status"] == "Vacuous"

    def test_rank_two_rejected(self):
        code, _, err = run_cli("check", "--catalog", "P2", "--rank", "2",
                               "--degree", "2", "--h0", "6")
        assert code == 1
        assert "rank 1" in err

    def test_rank_zero_is_inconsistent(self, tmp_path):
        # the same exit and message as bound --rank 0 and an input file's rank 0
        code, _, err = run_cli("check", "--catalog", "P2", "--rank", "0",
                               "--degree", "2", "--h0", "6")
        assert (code, err) == (3, "error: rank must be >= 1, got 0\n")
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"variety": {"name": "P2"},
                                    "sheaf": {"rank": 0, "degree": 2, "h0": 6}}))
        assert run_cli("check", "--input", str(path)) == (code, "", err)

    def test_negative_h0_is_inconsistent(self, tmp_path):
        code, _, err = run_cli("check", "--catalog", "P2", "--degree", "2", "--h0", "-1")
        assert (code, err) == (3, "error: h0 must be >= 0, got -1\n")
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"variety": {"name": "P2"},
                                    "sheaf": {"rank": 1, "degree": 2, "h0": -1}}))
        assert run_cli("check", "--input", str(path)) == (code, "", err)

    def test_stray_regularity_flag(self):
        # a regularity without hilbert coefficients is refused, not ignored
        code, out, err = run_cli("check", "--catalog", "P2", "--degree", "2", "--h0", "6",
                                 "--regularity", "0")
        assert (code, out) == (1, "")
        assert err == "error: hilbert coefficients and regularity must be given together\n"

    def test_stray_regularity_in_file(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"variety": {"name": "P2"}, "sheaf": {
            "rank": 1, "degree": 2, "h0": 6, "regularity": 0}}))
        code, out, err = run_cli("check", "--input", str(path))
        assert (code, out) == (1, "")
        assert err == "error: hilbert coefficients and regularity must be given together\n"

    def test_hilbert_route_inconclusive(self):
        code, out, _ = run_cli("check", "--catalog", "quartic-K3", "--degree", "0",
                               "--hilbert", "2,0,2", "--regularity", "0", "--twist", "3")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["verdict"] == "Inconclusive"
        assert report["result"]["degree"] == 12
        assert report["result"]["h0"] == 20

    def test_hilbert_route_stable(self):
        code, out, _ = run_cli("check", "--catalog", "quartic-K3", "--degree", "0",
                               "--hilbert", "2,0,2", "--regularity", "0", "--twist", "4")
        assert code == 0
        assert json.loads(out)["result"]["verdict"] == "Stable"

    @pytest.mark.parametrize("h0,code", [(1000000, 3), (7, 3), (6, 0)])
    def test_h0_against_section_bound(self, tmp_path, h0, code):
        # bound --catalog P2 --degree 2 gives 6; an h0 above it is impossible
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"variety": {"name": "P2"},
                                    "sheaf": {"rank": 1, "degree": 2, "h0": h0}}))
        flags = run_cli("check", "--catalog", "P2", "--degree", "2", "--h0", str(h0))
        assert run_cli("check", "--input", str(path)) == flags
        got, out, err = flags
        assert got == code
        if code:
            assert out == ""
            assert err == f"error: h0 = {h0} exceeds the section bound 6 at degree 2\n"
        else:
            assert json.loads(out)["result"]["verdict"] == "Stable"

    @pytest.mark.parametrize("constant,code", [("1000000", 3), ("1", 0)])
    def test_hilbert_route_h0_against_section_bound(self, constant, code):
        # h0 = P(2) = constant + 5 at degree 2
        got, out, err = run_cli("check", "--catalog", "P2", "--degree", "0", "--hilbert",
                                f"{constant},3/2,1/2", "--regularity", "0", "--twist", "2")
        assert got == code
        if code:
            assert err == "error: h0 = 1000005 exceeds the section bound 6 at degree 2\n"
        else:
            assert json.loads(out)["result"]["verdict"] == "Stable"

    def test_rank_checked_before_section_bound(self):
        code, _, err = run_cli("check", "--catalog", "P2", "--rank", "2",
                               "--degree", "2", "--h0", "1000000")
        assert code == 1
        assert "rank 1" in err

    def test_hilbert_route_needs_twist(self):
        code, _, err = run_cli("check", "--catalog", "quartic-K3", "--degree", "0",
                               "--hilbert", "2,0,2", "--regularity", "0")
        assert code == 1
        assert "--twist" in err

    def test_twist_below_regularity(self):
        code, _, err = run_cli("check", "--catalog", "quartic-K3", "--degree", "0",
                               "--hilbert", "2,0,2", "--regularity", "2", "--twist", "1")
        assert code == 1
        assert "regularity" in err

    def test_wrong_hilbert_coefficients(self):
        code, _, err = run_cli("check", "--catalog", "quartic-K3", "--degree", "0",
                               "--hilbert", "2,0,1", "--regularity", "0", "--twist", "3")
        assert code == 3
        assert "leading" in err

    def test_degree_zero_with_sections(self):
        code, _, err = run_cli("check", "--catalog", "P2", "--degree", "0", "--h0", "4")
        assert code == 3

    def test_h0_and_hilbert_conflict(self):
        code, _, err = run_cli("check", "--catalog", "P2", "--degree", "2", "--h0", "6",
                               "--hilbert", "1,3/2,1/2", "--regularity", "0", "--twist", "2")
        assert code == 1

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_degenerate(self, fmt):
        # h0 = 1: the syzygy sheaf has rank 0, so its slope is +inf
        code, out, _ = run_cli("check", "--catalog", "P2", "--degree", "2", "--h0", "1",
                               "--format", fmt)
        assert code == 0
        note = "syzygy sheaf is zero (h0 = 1); nothing to destabilize"
        if fmt == "json":
            result = json.loads(out)["result"]
            assert result["verdict"] == "Degenerate"
            assert result["syzygy"] == {"degree": -2, "rank": 0, "slope": "+inf"}
            assert result["note"] == note
            assert result["condition1"] == result["condition2"] == {"status": "Vacuous"}
        else:
            rows = dict(line.split(None, 1) for line in out.splitlines())
            assert rows["result.verdict"] == "Degenerate"
            assert rows["result.syzygy.slope"] == "+inf"
            assert rows["result.note"] == note

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_trivially_stable(self, fmt):
        # degree 1 leaves no destabilizer degree in [1, d - 1]
        code, out, _ = run_cli("check", "--catalog", "P2", "--degree", "1", "--h0", "3",
                               "--format", fmt)
        assert code == 0
        note = "no admissible destabilizer degree in [1, d-1]"
        if fmt == "json":
            result = json.loads(out)["result"]
            assert result["verdict"] == "TriviallyStable"
            assert result["syzygy"] == {"degree": -1, "rank": 2, "slope": "-1/2"}
            assert result["note"] == note
        else:
            rows = dict(line.split(None, 1) for line in out.splitlines())
            assert rows["result.verdict"] == "TriviallyStable"
            assert rows["result.note"] == note

    def test_hilbert_value_not_an_integer(self):
        # P(k) = k^2/2 + 3k/2 + 1/3 is 16/3 at k = 2
        assert_one_error(run_cli("check", "--catalog", "P2", "--degree", "0",
                                 "--hilbert", "1/3,3/2,1/2", "--regularity", "0", "--twist", "2"),
                         3, "hilbert polynomial is not an integer at k = 2: 16/3")


def _check_reference(variety, degree, h0):
    """The exit code and stderr of check as it compared h0 with the cap
    sections_bound(variety, 1, degree).value, a Fraction."""
    try:
        syzstab.check_stability(variety, degree, h0)
    except syzstab.InconsistentInputError as exc:
        return 3, f"error: {exc}\n"
    cap = syzstab.sections_bound(variety, 1, degree).value
    if h0 > cap:
        return 3, (f"error: h0 = {h0} exceeds the section bound {syzstab.format_rational(cap)} "
                   f"at degree {degree}\n")
    return 0, ""


def _hilbert_for(variety, degree, h0):
    """--hilbert and --twist flags that put h0 sections at degree by the
    Hilbert route: twist 1 from d0 = degree - h_top, or twist 0 below
    that, with a polynomial that validate_hilbert accepts at d0.  None on a
    curve, whose polynomial is pinned, unless it gives h0."""
    n, h, c1 = variety.dim, variety.h_top, variety.c1_dot_h
    k = 1 if degree >= h else 0
    lead, second = Fraction(h, math.factorial(n)), Fraction(2 * (degree - k * h) + c1,
                                                            2 * math.factorial(n - 1))
    if n == 1:
        coeffs = [second, lead] if second + lead * k == h0 else None
    else:
        coeffs = [h0 - (second + lead) * k] + [0] * (n - 2) + [second, lead]
    if coeffs is None:
        return None
    return ("--degree", str(degree - k * h), "--hilbert", ",".join(map(str, coeffs)),
            "--regularity", "0", "--twist", str(k))


# The integer cap test of check against the Fraction one, at h0 = floor(cap)
# and floor(cap) + 1, by flags, by --input and by the Hilbert route: dims
# 1-5, h_top 1-6, genus 0-8, degrees 2-40.  The quadric surface (dim 2,
# h_top 2, genus 0) has the cap 15/4 at degree 2.
@pytest.mark.parametrize("n", range(1, 6))
def test_check_cap_matches_the_fraction_cap(n, tmp_path):
    path = str(tmp_path / "problem.json")
    seen, by_hilbert = set(), set()
    for h in range(1, 7):
        for g in range(9):
            c1 = (n - 1) * h - 2 * (g - 1)
            variety = syzstab.make_variety("custom", n, h, c1)
            flags = ("--dim", str(n), "--h-top", str(h), "--c1-h", str(c1))
            for degree in range(2, 41):
                cap = syzstab.sections_bound(variety, 1, degree).value
                for h0 in (math.floor(cap), math.floor(cap) + 1):
                    want = _check_reference(variety, degree, h0)
                    with open(path, "w") as fh:
                        json.dump({"variety": {"dim": n, "h_top": h, "c1_dot_h": c1},
                                   "sheaf": {"rank": 1, "degree": degree, "h0": h0}}, fh)
                    routes = [("--degree", str(degree), "--h0", str(h0)), ("--input", path),
                              _hilbert_for(variety, degree, h0)]
                    seen.add((want[0], cap.denominator != 1))
                    if routes[2] is not None:
                        by_hilbert.add(want[0])
                    for route in filter(None, routes):
                        argv = ("check",) + (flags if route[0] != "--input" else ()) + route
                        code, out, err = run_cli(*argv)
                        assert (code, err) == want, argv
                        assert code != 0 or json.loads(out)["result"]["h0"] == h0, argv
    # both outcomes, on integer caps and on fractional ones, and by the Hilbert route
    assert seen == {(0, False), (0, True), (3, False), (3, True)}
    assert by_hilbert == {0, 3}


class TestTwistCommand:
    def test_quartic_surface(self):
        code, out, _ = run_cli("twist", "--catalog", "quartic-K3", "--degree", "0",
                               "--hilbert", "2,0,2", "--regularity", "0")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["k_min"] == 4
        assert report["result"]["cauchy_bound"] == "17/4"
        assert report["result"]["condition_polys"]["F"] == ["-1", "-13/2", "2"]
        assert report["result"]["condition_polys"]["G"] == ["4", "-12", "8"]

    def test_plane(self):
        code, out, _ = run_cli("twist", "--catalog", "P2", "--degree", "0",
                               "--hilbert", "1,3/2,1/2", "--regularity", "0")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["k_min"] == 2
        assert "G" not in report["result"]["condition_polys"]

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_start_past_cauchy_bound_prints_its_row(self, fmt):
        # the shift point is the start 40 itself, and its row is always printed
        code, out, _ = run_cli("twist", "--catalog", "quartic-K3", "--degree", "0",
                               "--hilbert", "2,0,2", "--regularity", "40", "--format", fmt)
        assert code == 0
        if fmt == "table":
            assert [line.split()[1] for line in out.splitlines()
                    if line.startswith("result.scan.0.k ")] == ["40"]
        else:
            rows = list(csv.DictReader(io.StringIO(out)))
            assert [(row["k"], row["passed"]) for row in rows] == [("40", "True")]

    def test_requires_hilbert(self):
        code, _, err = run_cli("twist", "--catalog", "P2", "--degree", "0")
        assert code == 1
        assert "--hilbert" in err

    def test_negative_degree_is_inconsistent(self):
        # the Hilbert polynomial passes its checks; the degree is refused after
        assert run_cli("twist", "--catalog", "P2", "--degree", "-1", "--hilbert", "1,1/2,1/2",
                       "--regularity", "0") == (3, "", "error: degree must be >= 0, got -1\n")

    def test_curve_not_applicable(self):
        code, _, err = run_cli("twist", "--catalog", "P1", "--degree", "0",
                               "--hilbert", "1,1", "--regularity", "0")
        assert code == 1
        assert "dimension" in err

    def test_trailing_zero_coefficient_echo(self, tmp_path):
        # both routes echo the normalised polynomial, as check does
        code, out, _ = run_cli("twist", "--catalog", "P2", "--degree", "0",
                               "--hilbert", "1,3/2,1/2,0", "--regularity", "0")
        assert code == 0
        assert json.loads(out)["input"]["sheaf"]["hilbert"] == ["1", "3/2", "1/2"]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"variety": {"name": "P2"}, "sheaf": {
            "rank": 1, "degree": 0, "hilbert": ["1", "3/2", "1/2", "0"], "regularity": 0}}))
        assert run_cli("twist", "--input", str(path)) == (0, out, "")

    def test_bad_coefficient_string(self):
        code, _, err = run_cli("twist", "--catalog", "P2", "--degree", "0",
                               "--hilbert", "1,1.5,0.5", "--regularity", "0")
        assert code == 1
        assert "hilbert" in err


class TestCatalogCommand:
    def test_list(self):
        code, out, _ = run_cli("catalog")
        assert code == 0
        entries = json.loads(out)["result"]["entries"]
        assert len(entries) == 18
        assert entries[0]["name"] == "P1"

    def test_show(self):
        code, out, _ = run_cli("catalog", "show", "quartic-K3")
        assert code == 0
        assert json.loads(out)["result"]["entry"]["genus"] == 3

    def test_show_unknown(self):
        code, _, err = run_cli("catalog", "show", "nope")
        assert code == 1
        assert "available" in err

    def test_csv_listing(self):
        code, out, _ = run_cli("catalog", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 19


class TestVerifyCommand:
    def test_small_grid_passes(self):
        code, out, _ = run_cli("verify", "--grid", "small", "--seed", "0")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["total_failed"] == 0
        assert {c["name"] for c in result["checks"]} >= {
            "telescoping-identity",
            "restriction-dominance",
            "certificate-soundness",
        }

    def test_deterministic_for_seed(self):
        _, out1, _ = run_cli("verify", "--grid", "small", "--seed", "7")
        _, out2, _ = run_cli("verify", "--grid", "small", "--seed", "7")
        assert out1 == out2

    def test_verify_csv(self):
        code, out, _ = run_cli("verify", "--grid", "small", "--seed", "0", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0]) == ["failed", "failures", "name", "note", "passed"]
        assert "certificate-soundness" in {r["name"] for r in rows}
        assert all(r["failed"] == "0" and r["failures"] == "" for r in rows)


class TestInputFiles:
    def test_file_matches_flags(self, tmp_path):
        problem = {
            "variety": {"name": "quartic-K3"},
            "sheaf": {"rank": 1, "degree": 0, "hilbert": ["2", "0", "2"], "regularity": 0},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        _, from_file, _ = run_cli("twist", "--input", str(path))
        _, from_flags, _ = run_cli("twist", "--catalog", "quartic-K3", "--degree", "0",
                                   "--hilbert", "2,0,2", "--regularity", "0")
        assert from_file == from_flags

    def test_file_with_h0(self, tmp_path):
        problem = {"variety": {"name": "P2"}, "sheaf": {"rank": 1, "degree": 2, "h0": 6}}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        code, out, _ = run_cli("check", "--input", str(path))
        assert code == 0
        assert json.loads(out)["result"]["verdict"] == "Stable"

    def test_input_excludes_flags(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"variety": {"name": "P2"},
                                    "sheaf": {"rank": 1, "degree": 2}}))
        code, _, err = run_cli("bound", "--input", str(path), "--degree", "3")
        assert code == 1
        assert "--degree" in err

    def test_missing_file(self):
        code, _, err = run_cli("bound", "--input", "/nonexistent.json")
        assert code == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli("bound", "--input", str(path))
        assert code == 1
        assert "JSON" in err

    def run_input(self, tmp_path, command, problem):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        code, out, err = run_cli(command, "--input", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1
        return err

    def test_decimal_hilbert_coefficient(self, tmp_path):
        err = self.run_input(tmp_path, "twist", {
            "variety": {"name": "P2"},
            "sheaf": {"rank": 1, "degree": 0, "hilbert": ["1.5", "3/2", "1/2"], "regularity": 0},
        })
        assert "1.5" in err

    def test_string_hilbert(self, tmp_path):
        err = self.run_input(tmp_path, "twist", {
            "variety": {"name": "P2"},
            "sheaf": {"rank": 1, "degree": 0, "hilbert": "1,3/2,1/2", "regularity": 0},
        })
        assert "hilbert" in err

    def test_list_valued_variety(self, tmp_path):
        err = self.run_input(tmp_path, "bound", {
            "variety": ["P2"], "sheaf": {"rank": 1, "degree": 2},
        })
        assert "variety" in err

    def test_string_dim(self, tmp_path):
        err = self.run_input(tmp_path, "bound", {
            "variety": {"dim": "2", "h_top": 1, "c1_dot_h": 3},
            "sheaf": {"rank": 1, "degree": 2},
        })
        assert "dim" in err

    def test_list_valued_name(self, tmp_path):
        err = self.run_input(tmp_path, "bound", {
            "variety": {"name": ["P2"]}, "sheaf": {"rank": 1, "degree": 2},
        })
        assert "name" in err

    def test_float_degree(self, tmp_path):
        # "degree": 2.9 used to be truncated to 2 and answered as such
        err = self.run_input(tmp_path, "check", {
            "variety": {"name": "P2"}, "sheaf": {"rank": 1, "degree": 2.9, "h0": 6},
        })
        assert "degree" in err

    def test_float_h0(self, tmp_path):
        err = self.run_input(tmp_path, "check", {
            "variety": {"name": "P2"}, "sheaf": {"rank": 1, "degree": 2, "h0": 6.5},
        })
        assert "h0" in err

    def test_boolean_rank(self, tmp_path):
        err = self.run_input(tmp_path, "bound", {
            "variety": {"name": "P2"}, "sheaf": {"rank": True, "degree": 2},
        })
        assert "rank" in err

    def test_string_h0(self, tmp_path):
        err = self.run_input(tmp_path, "check", {
            "variety": {"name": "P2"}, "sheaf": {"rank": 1, "degree": 2, "h0": "six"},
        })
        assert "h0" in err


# Each flag invocation and its --input twin: (command, variety flags, variety
# block, sheaf flags, sheaf block, flags that stay on the command line).
DIM3 = (("--dim", "3", "--h-top", "2", "--c1-h", "2"), {"dim": 3, "h_top": 2, "c1_dot_h": 2})
P2_FLAGS = (("--catalog", "P2"), {"name": "P2"})
K3_FLAGS = (("--catalog", "quartic-K3"), {"name": "quartic-K3"})
TWINS = [
    ("bound", *P2_FLAGS, ("--rank", "2", "--degree", "5"), {"rank": 2, "degree": 5},
     ("--form", "lemma")),
    ("bound", *K3_FLAGS, ("--degree", "8"), {"rank": 1, "degree": 8}, ()),
    ("bound", *DIM3, ("--rank", "3", "--degree", "5"), {"rank": 3, "degree": 5}, ()),
    ("check", *P2_FLAGS, ("--degree", "2", "--h0", "6"), {"rank": 1, "degree": 2, "h0": 6}, ()),
    ("check", *K3_FLAGS, ("--degree", "12", "--h0", "20"),
     {"rank": 1, "degree": 12, "h0": 20}, ()),
    ("check", *DIM3, ("--degree", "6", "--h0", "9"), {"rank": 1, "degree": 6, "h0": 9}, ()),
    ("check", *P2_FLAGS, ("--degree", "0", "--hilbert", "1,3/2,1/2", "--regularity", "0"),
     {"rank": 1, "degree": 0, "hilbert": ["1", "3/2", "1/2"], "regularity": 0},
     ("--twist", "2")),
    ("check", *K3_FLAGS, ("--degree", "0", "--hilbert", "2,0,2", "--regularity", "0"),
     {"rank": 1, "degree": 0, "hilbert": ["2", "0", "2"], "regularity": 0}, ("--twist", "4")),
    ("check", *DIM3, ("--degree", "3", "--hilbert", "0,0,2,1/3", "--regularity", "0"),
     {"rank": 1, "degree": 3, "hilbert": ["0", "0", "2", "1/3"], "regularity": 0},
     ("--twist", "3")),
    ("twist", *P2_FLAGS, ("--degree", "0", "--hilbert", "1,3/2,1/2", "--regularity", "0"),
     {"rank": 1, "degree": 0, "hilbert": ["1", "3/2", "1/2"], "regularity": 0}, ()),
    ("twist", *K3_FLAGS, ("--degree", "0", "--hilbert", "2,0,2", "--regularity", "1"),
     {"rank": 1, "degree": 0, "hilbert": [2, 0, 2], "regularity": 1}, ()),
    ("twist", *DIM3, ("--degree", "3", "--hilbert", "0,0,2,1/3", "--regularity", "0"),
     {"rank": 1, "degree": 3, "hilbert": ["0", "0", "2", "1/3"], "regularity": 0}, ()),
]


def _twin_id(case) -> str:
    command, _, vblock, _, sblock, _ = case
    route = "-hilbert" if command == "check" and "hilbert" in sblock else ""
    return f"{command}{route}-{vblock.get('name', 'dim3')}"


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("case", TWINS, ids=_twin_id)
def test_flags_and_input_give_the_same_output(tmp_path, case, fmt):
    command, vflags, vblock, sflags, sblock, rest = case
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"variety": vblock, "sheaf": sblock}))
    from_flags = run_cli(command, *vflags, *sflags, *rest, "--format", fmt)
    from_file = run_cli(command, "--input", str(path), *rest, "--format", fmt)
    assert from_flags[0] == 0
    assert from_file == from_flags


class TestOutputContracts:
    def test_byte_identical_repeats(self):
        invocations = [
            ("bound", "--catalog", "P3", "--rank", "2", "--degree", "3"),
            ("check", "--catalog", "quartic-K3", "--degree", "12", "--h0", "20"),
            ("twist", "--catalog", "quartic-K3", "--degree", "0",
             "--hilbert", "2,0,2", "--regularity", "0"),
            ("catalog",),
        ]
        for argv in invocations:
            _, first, _ = run_cli(*argv)
            _, second, _ = run_cli(*argv)
            assert first == second

    def test_json_round_trip(self):
        _, out, _ = run_cli("twist", "--catalog", "quartic-K3", "--degree", "0",
                            "--hilbert", "2,0,2", "--regularity", "0")
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out

    def test_approx_keeps_exact(self):
        code, out, _ = run_cli("check", "--catalog", "quartic-K3", "--degree", "12",
                               "--h0", "20", "--approx")
        report = json.loads(out)
        cond = report["result"]["condition2"]
        assert cond["rhs"] == "423/22"
        assert cond["rhs_approx"] == pytest.approx(19.227272727)
        assert "lhs_approx" not in cond  # integers carry no companion

    def test_table_format(self):
        code, out, _ = run_cli("check", "--catalog", "P2", "--degree", "2", "--h0", "6",
                               "--format", "table")
        assert code == 0
        assert "result.verdict" in out
        assert "Stable" in out

    def test_no_subcommand(self):
        code, _, err = run_cli()
        assert code == 1

    def test_usage_error_message_shape(self):
        code, _, err = run_cli("bound", "--catalog", "P2", "--degree", "x")
        assert code == 1
        assert err.startswith("error:")

    def test_approx_on_list_report(self):
        code, out, _ = run_cli("bound", "--dim", "3", "--h-top", "2", "--c1-h", "2",
                               "--degree", "3..5", "--approx")
        assert code == 0
        rows = json.loads(out)["result"]["results"]
        assert [(r["value"], r.get("value_approx")) for r in rows] == [
            ("55/8", 6.875), ("99/8", 12.375), ("20", None)]
        assert rows[0]["core_approx"] == 5.875

    # a variety name that reads as p/q is echoed input, not a result: it gets
    # no companion, even where converting it would fail
    @pytest.mark.parametrize("name", ["3/4", "1" * 5000 + "/3", "1" * 400 + "/3"],
                             ids=["short", "past-digit-limit", "past-float-range"])
    def test_approx_leaves_input_alone(self, tmp_path, name):
        path = tmp_path / "named.json"
        path.write_text(json.dumps({"variety": {"name": name, "dim": 3, "h_top": 2, "c1_dot_h": 2},
                                    "sheaf": {"rank": 1, "degree": 3}}))
        code, out, err = run_cli("bound", "--input", str(path), "--approx")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["input"]["variety"] == {"name": name, "dim": 3, "h_top": 2,
                                              "c1_dot_h": 2, "genus": 2}
        assert (report["result"]["value"], report["result"]["value_approx"]) == ("55/8", 6.875)


# SHA-256 of stdout for twists whose Cauchy radius lies hundreds to
# thousands of rows past the start: a change to how F and G are evaluated or
# shifted, or to how the top of the search is taken from either root bound,
# must leave certificates byte-identical.
LONG_SCANS = {
    "dim2": ("--dim", "2", "--h-top", "1", "--c1-h", "-11", "--degree", "0",
             "--hilbert", "0,-11/2,1/2"),
    "dim3": ("--dim", "3", "--h-top", "1", "--c1-h", "-4", "--degree", "0",
             "--hilbert", "0,0,-1,1/6"),
    "quartic-K3": ("--catalog", "quartic-K3", "--degree", "0", "--hilbert", "2,0,2"),
    # the Cauchy bound 1697 is the top of the search, and c = k_min = 1697
    "cauchy-top": ("--dim", "2", "--h-top", "2", "--c1-h", "-64", "--degree", "0",
                   "--hilbert", "3,-32,1"),
    # Fujiwara's 64 is the top, below Cauchy's 163, and c = 51
    "fujiwara-top": ("--dim", "2", "--h-top", "1", "--c1-h", "-7", "--degree", "3",
                     "--hilbert", "1,-1/2,1/2"),
}

# Two short certificates whose row below c is an equality, F = 0, which
# fails and is noted: a dim-2 genus-0 variety with k_min 9 (F(8) = 0), and
# P3 (genus 0, so no G) with k_min 2 (F(1) = 0).
TWIST_CASES = {
    **LONG_SCANS,
    "equality": ("--dim", "2", "--h-top", "1", "--c1-h", "3", "--degree", "0",
                 "--hilbert", "-3,3/2,1/2"),
    "P3": ("--catalog", "P3", "--degree", "0", "--hilbert", "1,11/6,1,1/6"),
}

# The flags of each output of a twist: the table form and --approx read the
# certificate's dict, JSON and CSV its printed form.
_TWIST_OUTPUTS = {"json": ("--format", "json"), "csv": ("--format", "csv"),
                  "table": ("--format", "table"), "json-approx": ("--approx",)}

# The case ids keep the digest each case was first pinned with (the radius
# scan's output), so a deliberate re-pin changes the digest but not the id.
# The table, --approx and equality digests were recorded before the
# certificate was printed from the search's integers.  --approx pairs only a
# dict value with a float, so a certificate whose proper fractions all lie in
# coefficient lists has the same --approx and JSON digests.
GOLDEN_TWISTS = [
    pytest.param("dim2", "json", "9808a479e271e93d51c65fe10385d244395a30b248b26f0a99573b7fcc1105c2",
                 id="dim2-json-0c87288875d68fd4bbcadeee3fc87bb7d2c07f7ef8db4c7386501b054d1a34e0"),
    pytest.param("dim2", "csv", "f2be7e453444fabe6c1ba55198f0cf38cda3b2fb734c6c47fe159cfb31e16541",
                 id="dim2-csv-716e5a1c6bdfe607e9c2bb61de115440f8a2cc09805d25cd7859a212e56154c4"),
    pytest.param("dim3", "json", "b511173b61e055cd08c7d9078125198a264baad8c6d856c4ad52d6067b58c855",
                 id="dim3-json-9e254cea9e3a3819e7ab7e0e6884b2a57325e9d43c3325bc032bba3346b31ace"),
    pytest.param("dim3", "csv", "1e5a5d25e35e702009778d8b148f01b05afa60f929d2b2414e95ddff3d207069",
                 id="dim3-csv-884e97f7aa7bf7a4ae5ac14fa5906e5f03edd6dddcd118ab72d58f5bd64ecf9a"),
    pytest.param("quartic-K3", "json", "66226783e46f99550d4e2fea780252cb2ef80d47411baa4ba1b1fb161d7b76af",
                 id="quartic-K3-json-5b1a832c75b8a7bbba4b242fb29ec983e0db32269d082efda6208c89c6309a73"),
    pytest.param("quartic-K3", "csv", "406f1c38b2dc58f71b333f5accd1c82ea8f1222274c861f5887df0a8e288534b",
                 id="quartic-K3-csv-fceb9a9b46f675e62abf94ecc0340c46b647d4116ef953e3d9d1517b4d340f1f"),
    pytest.param("cauchy-top", "json", "7f11a8ed63f9a95d83cddabf8068006ac49d3e8b8e1b186d98f51835ac115531",
                 id="cauchy-top-json-7f11a8ed63f9a95d83cddabf8068006ac49d3e8b8e1b186d98f51835ac115531"),
    pytest.param("cauchy-top", "csv", "a32301d32cacf08c44ad9b119126a131a5911be87e62f7fb95e3a70ac6da3c85",
                 id="cauchy-top-csv-a32301d32cacf08c44ad9b119126a131a5911be87e62f7fb95e3a70ac6da3c85"),
    pytest.param("fujiwara-top", "json", "d5f02b7b6672061fcb40675bf0bcdfb4b16d63bd9b99d09c001e0ea7d67486b3",
                 id="fujiwara-top-json-d5f02b7b6672061fcb40675bf0bcdfb4b16d63bd9b99d09c001e0ea7d67486b3"),
    pytest.param("fujiwara-top", "csv", "3d020c2b56c017d4040defd6fba0041f0670a196e5548361c555e0d00cbd6db9",
                 id="fujiwara-top-csv-3d020c2b56c017d4040defd6fba0041f0670a196e5548361c555e0d00cbd6db9"),
] + [pytest.param(case, fmt, digest, id=f"{case}-{fmt}-{digest}") for case, fmt, digest in [
    ("dim2", "table", "1189053eeb99b3fdb96bdeb85ea1e276e681db66b061c352d3cbb3d30bb76f3d"),
    ("dim2", "json-approx", "9808a479e271e93d51c65fe10385d244395a30b248b26f0a99573b7fcc1105c2"),
    ("dim3", "table", "e1397f0f6c18c6bc851957ec1294e3079cc2419f906be3c3a013fbf11224b47c"),
    ("dim3", "json-approx", "b511173b61e055cd08c7d9078125198a264baad8c6d856c4ad52d6067b58c855"),
    ("quartic-K3", "table", "f6fef1cc507b2884fa8f0803b08d952027f793b6c8d3d8d5e234debc85b07392"),
    ("quartic-K3", "json-approx", "a79175fd2ba7af58cf8b7a994a62fd4509bda3035232777b125a84821219e831"),
    ("cauchy-top", "table", "7ce9dea18d936fd586dfabe8e4025b80cce000ac3df88d2c925d3476615df89c"),
    ("cauchy-top", "json-approx", "7f11a8ed63f9a95d83cddabf8068006ac49d3e8b8e1b186d98f51835ac115531"),
    ("fujiwara-top", "table", "999a045c5b5f015883e4d126109954a771b7f1f7227ae3ab558543ec85ac9235"),
    ("fujiwara-top", "json-approx", "d5f02b7b6672061fcb40675bf0bcdfb4b16d63bd9b99d09c001e0ea7d67486b3"),
    ("equality", "json", "cf0b7d9707520990049f33894db6ac54ae5e6dfdd745cd791e6af30e8a69f373"),
    ("equality", "csv", "2922aae69328295ff473a92cba1d0099db52bb9997f5ed08810eae5ddf99a59a"),
    ("equality", "table", "6e85d667b696cbecc675ddd86f01842438a6b7269cc9efe9c889b2159388fc45"),
    ("equality", "json-approx", "cf0b7d9707520990049f33894db6ac54ae5e6dfdd745cd791e6af30e8a69f373"),
    ("P3", "json", "fdf3a8da9f1551c11e2f1c3224ad67f036152ba7b98063686fb28564ba6fe53a"),
    ("P3", "csv", "069d65a49338ce44d166d93543db709020a015ad02128390439bea7cae602196"),
    ("P3", "table", "f1b454c441b14e25b7d3822bd80858610bbf4c3790ec9b79628499b197db7380"),
    ("P3", "json-approx", "aeac24334b0b4ed35088cfd721bfdc2b7fc6ecd0a5db342c4fcc4f3506e8fa4e"),
]]


@pytest.mark.parametrize("case,fmt,digest", GOLDEN_TWISTS)
def test_long_twist_scan_golden(case, fmt, digest):
    code, out, _ = run_cli("twist", *TWIST_CASES[case], "--regularity", "0", *_TWIST_OUTPUTS[fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_EQUALITY_NOTE = "equality at k = {}: the certificate gives only semistability there"


class TestEqualityRow:
    """A row below c where F = 0 fails, ends the scan and is noted."""

    def test_json(self):
        code, out, err = run_cli("twist", *TWIST_CASES["equality"], "--regularity", "0")
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert (result["k_min"], result["scanned_range"]) == (9, [1, 9])
        assert result["scan"] == [{"F": "0", "k": 8, "passed": False},
                                  {"F": "4", "k": 9, "passed": True}]
        assert result["notes"][-1] == _EQUALITY_NOTE.format(8)
        assert list(result["condition_polys"]) == list(result["shift"])[:-1] == ["F"]

    def test_csv(self):
        assert run_cli("twist", *TWIST_CASES["equality"], "--regularity", "0", "--format", "csv") == (
            0, "F,k,passed\n0,8,False\n4,9,True\n", "")

    def test_table(self):
        code, out, _ = run_cli("twist", *TWIST_CASES["equality"], "--regularity", "0",
                               "--format", "table")
        assert code == 0
        lines = dict(line.split(None, 1) for line in out.splitlines())
        assert lines["result.scan.0.F"] == "0"
        assert lines["result.scan.0.passed"] == "false"
        assert lines["result.k_min"] == "9"
        assert lines["result.notes.1"] == _EQUALITY_NOTE.format(8)
        assert not [key for key in lines if key.endswith(".G") or ".G." in key]

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_p3_has_no_g(self, fmt):
        code, out, _ = run_cli("twist", *TWIST_CASES["P3"], "--regularity", "0", "--format", fmt)
        assert code == 0
        if fmt == "json":
            result = json.loads(out)["result"]
            assert result["k_min"] == 2 and result["notes"][-1] == _EQUALITY_NOTE.format(1)
            assert [row["F"] for row in result["scan"]] == ["0", "3"]
            assert "G" not in result["condition_polys"] and "G" not in result["shift"]
        elif fmt == "csv":
            assert out == "F,k,passed\n0,1,False\n3,2,True\n"
        else:
            lines = dict(line.split(None, 1) for line in out.splitlines())
            assert lines["result.notes.1"] == _EQUALITY_NOTE.format(1)
            assert ".G" not in out


def _frozen_certificate_dict(cert) -> dict:
    """cli._certificate_dict as it stood while it read a TwistCertificate:
    each rational printed by format_rational, F and G by Poly.to_strings."""
    def f_and_g(cond2, cond1):
        out = {"F": cond2.to_strings()}
        if cond1 is not None:
            out["G"] = cond1.to_strings()
        return out

    scan = []
    for row in cert.scan:
        entry = {"k": row.k, "F": syzstab.format_rational(row.cond2_value), "passed": row.passed}
        if row.cond1_value is not None:
            entry["G"] = syzstab.format_rational(row.cond1_value)
        scan.append(entry)
    return {
        "k_min": cert.k_min,
        "cauchy_bound": syzstab.format_rational(cert.cauchy),
        "scanned_range": list(cert.scanned_range),
        "shift": {"c": cert.shift.c, **f_and_g(cert.shift.cond2, cert.shift.cond1)},
        "k_pos": cert.k_pos,
        "regularity": cert.regularity,
        "condition_polys": f_and_g(cert.cond2, cert.cond1),
        "scan": scan,
        "notes": list(cert.notes),
    }


def _writer_cases(count=300, seed=59):
    """Seeded twist argvs of dim 2-3, h_top 1-3, genus 0-12, d0 0-3 and
    regularity 0 to 60, with lower Hilbert coefficients of up to three
    digits: G absent and present, c at the start and past it."""
    rng = random.Random(seed)
    for _ in range(count):
        n, h, g, d0 = rng.randint(2, 3), rng.randint(1, 3), rng.randint(0, 12), rng.randint(0, 3)
        c1h = (n - 1) * h - 2 * (g - 1)
        lower = [Fraction(rng.randint(-10 ** rng.randint(0, 3), 10 ** rng.randint(0, 3)),
                          rng.randint(1, 6)) for _ in range(n - 1)]
        top = [(d0 + Fraction(c1h, 2)) / math.factorial(n - 1), Fraction(h, math.factorial(n))]
        yield ("twist", "--dim", str(n), "--h-top", str(h), "--c1-h", str(c1h), "--degree", str(d0),
               "--hilbert", ",".join(map(str, lower + top)),
               "--regularity", str(rng.choice((0, 0, 1, 5, 60))))


def test_twist_writers_match_the_dict_route(tmp_path):
    # JSON and CSV print the certificate from its printed form, the table
    # form and --approx from its dict: on each input the two routes print
    # the same report, and the dict is the one the API certificate gave
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"variety": {"name": 'a "named" surfa\u00e7e', "dim": 2, "h_top": 1,
                                            "c1_dot_h": -11},
                                "sheaf": {"rank": 1, "degree": 0, "hilbert": ["0", "-11/2", "1/2"],
                                          "regularity": 0}}), encoding="utf-8")
    seen = collections.Counter()
    for argv in [*_writer_cases(), ("twist", "--input", str(path))]:
        args = cli._PARSER.parse_args([*argv, "--format", "table"])
        echo, result, _ = cli._cmd_twist(args)
        variety, spec, _ = cli._resolve(args)
        cert = syzstab.minimal_stable_twist(
            variety, spec.degree, syzstab.HilbertPoly(syzstab.Poly(spec.hilbert), spec.regularity))
        assert result == _frozen_certificate_dict(cert), argv
        report = {"command": "twist", "input": echo, "result": result}
        assert run_cli(*argv) == (0, json.dumps(report, sort_keys=True, indent=2) + "\n", ""), argv
        columns = sorted(result["scan"][0])
        sink = io.StringIO()
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in result["scan"])
        assert run_cli(*argv, "--format", "csv") == (0, sink.getvalue(), ""), argv
        seen["G"] += cert.cond1 is not None
        seen["c = start"] += cert.shift.c == cert.scanned_range[0]
    assert 0 < seen["G"] < 301 and 0 < seen["c = start"] < 301, seen


# SHA-256 of stdout for long degree sweeps in both forms: a change to how the
# closed forms are evaluated must leave every report byte-identical.  The
# dim-4 variety has genus 5, so its range crosses both branches and the strip
# (degrees 9 and 10).  The dim-3 variety has genus 2 and rows with proper
# fractions; P5's tail is all integers.  With --approx, and in table form,
# the rows of each are row dicts of text, where the JSON and CSV writers
# print the sweep rows themselves, ints included.
SWEEPS = {
    "P5": ("--catalog", "P5", "--degree", "0..3000"),
    "dim4": ("--dim", "4", "--h-top", "3", "--c1-h", "1", "--degree", "0..400"),
    "dim3": ("--dim", "3", "--h-top", "2", "--c1-h", "2", "--degree", "0..300"),
}

GOLDEN_SWEEPS = [
    ("P5", "lemma", "json", "087de3df08361bbb32c87e007463adca611e04ece7762ab0816369576cce18ce"),
    ("P5", "lemma", "csv", "9475142c26827770aa3c9a1814d22e301b602d3fb92ffb17d0e3028aa1a97cd2"),
    ("P5", "simplified", "json", "562a2ff434cc27dec0e54dee9afb4589bf7bf968c10defd8e1d60166f03a75d6"),
    ("P5", "simplified", "csv", "12bf4e791e9a9fdf71dcee20a457e4ca1c753215379b3099b2d1be05acb63256"),
    ("dim4", "lemma", "json", "5d4f488fa078b6786f5262d504ab059975a7bbef44c05f5320f0f7daafdf9e6e"),
    ("dim4", "lemma", "csv", "832256b9211865895110ef7fd471acfc4cb4a302fb416faeb4b3ec3ea4d38f3b"),
    ("dim4", "simplified", "json", "f71763ab56c460fab1a8f26db98ad24789a2256776d44a9b323485d1a19e9a5a"),
    ("dim4", "simplified", "csv", "6ddc708d959b518f94c5462b98c535368256a65a43bbe5f879d95b13e55ff8bb"),
    ("dim4", "simplified", "table", "bdbe9e6c10b6dc775828ad53989aafd10fde9142d60b62ac4bcd400a975545e6"),
    ("P5", "simplified", "table", "c5decbe09682e184043fb2d1605d5e9df1c26a189a707a09a7bebbbd2962f239"),
    ("P5", "lemma", "json-approx", "087de3df08361bbb32c87e007463adca611e04ece7762ab0816369576cce18ce"),
    ("P5", "lemma", "csv-approx", "9475142c26827770aa3c9a1814d22e301b602d3fb92ffb17d0e3028aa1a97cd2"),
    ("dim4", "simplified", "json-approx", "4e31be442416e868315c6c37235c6e0a7e3805c53ea2e2059fa2d11393eddb1e"),
    ("dim3", "simplified", "json-approx", "86a72eefb5f8079f71a57b658ba3cb556ad5fa0ccdb8df9d843d8057f6122b36"),
    ("dim3", "lemma", "csv-approx", "3c9a5ea1c286666e61aa3be47fc759b372b405762968463f9002fede61f32b9b"),
]


@pytest.mark.parametrize("case,form,fmt,digest", GOLDEN_SWEEPS)
def test_degree_sweep_golden(case, form, fmt, digest):
    fmt, _, approx = fmt.partition("-")
    code, out, _ = run_cli("bound", *SWEEPS[case], "--form", form, "--format", fmt,
                           *(["--approx"] if approx else []))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of stdout for every other report shape: a single-degree bound in
# the strip (proper fractions) and in the lemma form at rank 3, the three
# check verdicts with a known h0, the Hilbert route (condition 1 applies), a
# twist on a genus-1 surface (no condition 1, so its scan rows have no G),
# the catalog listing and entry, and the invariant suite.  Renaming a field of a result
# type, or changing how results become JSON, makes one of these fail.
REPORTS = {
    "bound-strip": ("bound", "--dim", "3", "--h-top", "2", "--c1-h", "2", "--degree", "3"),
    "bound-lemma": ("bound", "--dim", "4", "--h-top", "3", "--c1-h", "1", "--rank", "3",
                    "--degree", "40", "--form", "lemma"),
    "stable": ("check", "--catalog", "P2", "--degree", "2", "--h0", "6"),
    "degenerate": ("check", "--catalog", "P2", "--degree", "2", "--h0", "1"),
    "trivially-stable": ("check", "--catalog", "P2", "--degree", "1", "--h0", "3"),
    "hilbert": ("check", "--catalog", "quartic-K3", "--degree", "0", "--hilbert", "2,0,2",
                "--regularity", "0", "--twist", "5"),
    "twist-genus-1": ("twist", "--dim", "2", "--h-top", "1", "--c1-h", "1", "--degree", "0",
                      "--hilbert=-500,1/2,1/2", "--regularity", "0"),
    "catalog": ("catalog",),
    "catalog-show": ("catalog", "show", "P3"),
    "verify": ("verify", "--grid", "small", "--seed", "0"),
    "verify-full": ("verify", "--grid", "full", "--seed", "0"),
}

GOLDEN_REPORTS = [
    ("bound-strip", "json", "4ea06714e92a05c84fe7f4917c7ba291076c112066fb8c8b4ae743bd162e5de3"),
    ("bound-strip", "table", "9fd3da8ae908504ec7c9c7416bea6f762d1bf7484e7cb924a8d6ded60b1e9646"),
    ("bound-strip", "csv", "ddcd9b2e5158de32f4d16c9242a7a0471707e8c35ba027e071d00d842a91b688"),
    ("bound-strip", "json-approx", "974623c525b4458b16132daa7b6a289b7e61cf543a6fb7f5cc7af28b24dd8c79"),
    ("bound-lemma", "json", "7184382694b0a9c26d3c86caf81caa03e957b5d24efa0803f6f538ef6430043a"),
    ("bound-lemma", "table", "1e4c8c0ed64cd5a5160c4904548b9c13d43bd4e3552935442b61355bae9fe7d4"),
    ("bound-lemma", "csv", "a26fafe72b69d2d80c2151f896e7a475f012dd115d0121388f04b917f918fe14"),
    ("bound-lemma", "json-approx", "7401be289536abec266a838a855a9e1d06f5babe5acabb5520cca08655c89069"),
    ("stable", "json", "60793201303ae357bc81419ab42b7b5eb70d3867419e981b290cbc021f04d8d6"),
    ("stable", "table", "5eb0c611f30180901a997280a24acfd8f3f63189d63f7e77bd379831f60e9fed"),
    ("stable", "csv", "61a076ff6afe21c3151ef1c5a968185212911c9ab5f0d8f603a9111c1d5b2d0a"),
    ("stable", "json-approx", "03711b5d7c0a0f2fd0c6c1ce99e70f1d92affd5748f6ecb1cad717521cfa3383"),
    ("degenerate", "json", "aea0b7c9f4e5730a891e1fc74363f1cfaba4fea213f204b7dc18ed4a589528ca"),
    ("degenerate", "table", "8cfa9ef6ab64f4deb245ee99690ad2e850fa8d7a699e293bf04773fd985ab132"),
    ("degenerate", "csv", "abf4c05bf199d94ece7f059a0dfd2eef4ad751f55c817c46089431704cd0b0b0"),
    ("degenerate", "json-approx", "aea0b7c9f4e5730a891e1fc74363f1cfaba4fea213f204b7dc18ed4a589528ca"),
    ("trivially-stable", "json", "ea50f30466f94bf50e87d58ffef41fff961c482b43f4759d033295b5923ef211"),
    ("trivially-stable", "table", "941c1c4d17d2b28f3f32db61caa16b07b43debea45cc0d03573c60d736b1a9d2"),
    ("trivially-stable", "csv", "e2f7580621d09963a31619e1032362da97970688aacff6d26a32532a4491051e"),
    ("trivially-stable", "json-approx", "53d4eb5560a883029d3158b0cdf5d7af657e5f505c7d4c7916961ddbe9c826a7"),
    ("hilbert", "json", "e0197c9d3beb1e6c12ec316374bd5d259488b6372fa678fd1e9d74ba8835ecf7"),
    ("hilbert", "table", "025ead67cf07a41e6a7a3e7fbd243048324b8c28745b979c61b64caafec30ea1"),
    ("hilbert", "csv", "b596060ab15a335d6ef6c7584391b8368385deff5b30b6db6fa23c5da7018689"),
    ("hilbert", "json-approx", "23ffcf86f9e1bfaa2f42b6505f5f2419a19e15828a17134fd647531f671c4b01"),
    ("twist-genus-1", "json", "ba214557bb4163fd7a7058e674dfc2adfaec85582f05ef562fa9551775d32100"),
    ("twist-genus-1", "csv", "3719eb9d5b6fcc1e6f7236460941e82e2ed30aabf5303c5e85efe99d970f0b0d"),
    ("catalog", "json", "28455134d983441ee0307bfad375e2525459c8587d7bbee458b3c07985fa5334"),
    ("catalog", "table", "10807bb7747677533ce2b298fbc7780f314f9b90eccbaa1e6f6fad0507ddb78f"),
    ("catalog", "csv", "b65689771f2a66424bf3f9469ae9fbd8de842b9c62cec335d0a23b69c46a7d21"),
    ("catalog-show", "json", "b84ca86042d1fcd4687b4142c10ad5a384a32574acfc7bee0fcb9b979e2df8fe"),
    ("catalog-show", "table", "2650b350466e0347e3c8dcff04b0f6776c1af48ad90d964a185f3755c47f57b6"),
    ("catalog-show", "csv", "04238bc79319ad450d4dc080e575699d7d87bf88ea5f4f8af498a1581a24f110"),
    ("verify", "json", "f7a945024690639c362c540b1826bf34bb1b55c54d9f50b33e37d7fd7537c814"),
    ("verify", "table", "7644069f7979bf900a0e4fdb4116d45e13263ec6a6afd46b290de5d8411c5fd0"),
    ("verify", "csv", "b1c491e898625a8081d4d1a18a867df9efb7b7e675331a79992a55f212428817"),
    ("verify-full", "json", "c0acb0c4209d4c2a0e57218d8733e23d598561c7cee220ec0d39eac742395931"),
    ("verify-full", "table", "ed564970527896e6a147251858dc60b3582839a2150dc65db3ddd33c1575a93a"),
    ("verify-full", "csv", "0b9891e7070a7326fa79b151871b8ce876cb7683cf9dee2f0c3b1d969458279b"),
]


@pytest.mark.parametrize("case,fmt,digest", GOLDEN_REPORTS)
def test_report_golden(case, fmt, digest):
    fmt, _, approx = fmt.partition("-")
    code, out, _ = run_cli(*REPORTS[case], "--format", fmt, *(["--approx"] if approx else []))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


USAGE_ERRORS = [
    pytest.param(("bound", "--catalog", "P2", "--degree", "2", "--format", "xml"),
                 "argument --format: invalid choice: 'xml'", id="format-choice"),
    pytest.param(("bound", "--catalog", "P2", "--degree", "2", "--rank", "x"),
                 "argument --rank: invalid int value: 'x'", id="rank-not-int"),
    pytest.param(("bound", "--bogus"), "unrecognized arguments: --bogus", id="unknown-flag"),
    pytest.param(("frobnicate",), "argument command: invalid choice: 'frobnicate'",
                 id="unknown-subcommand"),
    pytest.param(("bound", "--dim", "2", "--h-top", "1", "--degree", "2"),
                 "give --catalog NAME or all of --dim, --h-top, --c1-h", id="partial-triple"),
    pytest.param(("check", "--catalog", "P2", "--degree", "2", "--hilbert", "1,3/2,1/2"),
                 "--hilbert needs --regularity", id="hilbert-without-regularity"),
    pytest.param(("check", "--catalog", "P2", "--degree", "2", "--h0", "6", "--twist", "2"),
                 "--twist only applies to the hilbert route", id="twist-with-h0"),
    pytest.param(("check", "--catalog", "P2", "--degree", "2"),
                 "give --h0, or --hilbert with --regularity and --twist", id="check-without-sections"),
    pytest.param(("catalog", "show"), "catalog show needs a NAME", id="show-without-name"),
    pytest.param(("catalog", "list", "P2"), "catalog list takes no NAME", id="list-with-name"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS)
def test_usage_errors(argv, message):
    assert_one_error(run_cli(*argv), 1, message)


def test_non_object_input_file(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert_one_error(run_cli("bound", "--input", str(path)), 1, "input must be a JSON object")


def test_input_file_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"variety": {"name": "P\xff"}}')
    assert_one_error(run_cli("bound", "--input", str(path)), 1, "cannot read input file")


# Python 3.10 before 3.10.7 has no int-to-string digit limit, so these
# numbers convert there and the calls print them.
needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="no int-to-string digit limit")


class TestHugeNumbers:
    @needs_digit_limit
    @pytest.mark.parametrize("extra", [("bound",), ("check", "--h0", "5")], ids=["bound", "check"])
    def test_result_past_digit_limit(self, extra):
        # the P5 bound at a 900-digit degree has about 4,500 digits
        command, *flags = extra
        assert_one_error(run_cli(command, "--catalog", "P5", "--degree", "9" * 900, *flags),
                         1, "too many to print")

    @needs_digit_limit
    def test_input_degree_past_digit_limit(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"variety": {"name": "P2"}, "sheaf": {"rank": 1, "degree": %s}}' % ("1" * 5000))
        assert_one_error(run_cli("bound", "--input", str(path)), 1, "cannot read input file")

    @needs_digit_limit
    @pytest.mark.parametrize("degree", ["1" * 5000, "1.." + "1" * 5000, "1" * 5000 + ".." + "2" * 5000],
                             ids=["integer", "range", "range-start"])
    def test_degree_flag_past_digit_limit(self, degree):
        assert_one_error(run_cli("bound", "--catalog", "P2", "--degree", degree),
                         1, "--degree has more than")

    @needs_digit_limit
    @pytest.mark.parametrize("command", [("twist",), ("check", "--twist", "5")], ids=["twist", "check"])
    def test_hilbert_coefficient_past_digit_limit(self, command):
        # the ValueError of int() on the 5000 digits, after the list's prefix
        name, *flags = command
        limit = sys.get_int_max_str_digits()
        assert run_cli(name, "--catalog", "P2", "--degree", "0", "--regularity", "0",
                       "--hilbert", "1" * 5000 + ",3/2,1/2", *flags) == (
            1, "", f"error: bad --hilbert coefficient list: Exceeds the limit ({limit} digits) "
                   "for integer string conversion: value has 5000 digits; use "
                   "sys.set_int_max_str_digits() to increase the limit\n")

    @needs_digit_limit
    @pytest.mark.parametrize("fmt", ["json", "csv", "table", "json-approx"])
    def test_twist_past_digit_limit(self, fmt):
        # the start is 10^3000 - 1, where c is too: F and the shift there
        # have about 6,000 digits
        limit = sys.get_int_max_str_digits()
        assert run_cli("twist", "--catalog", "P2", "--degree", "0", "--hilbert", "1,3/2,1/2",
                       "--regularity", "9" * 3000, *_TWIST_OUTPUTS[fmt]) == (
            1, "", f"error: a result has more than {limit} digits, too many to print\n")

    def test_approx_past_float_range(self):
        assert_one_error(run_cli("bound", "--dim", "3", "--h-top", "2", "--c1-h", "2",
                                 "--degree", "1" + "0" * 200, "--approx"),
                         1, "--approx: value is too large for a float")


# A sweep rejects a bad first degree or rank with the message a single
# degree gets, also when the range lies past d_pos, and prints no stdout.
SWEEP_ERRORS = [
    pytest.param(("--catalog", "P2", "--degree=-3..10"), 3,
                 "degree must be >= 0 (degree-0 sheaves are trivial, negative is impossible), got -3",
                 id="negative-start"),
    # without "=" too: a range starting "-" is a value, like a negative number
    pytest.param(("--catalog", "P2", "--degree", "-3..10"), 3,
                 "degree must be >= 0 (degree-0 sheaves are trivial, negative is impossible), got -3",
                 id="negative-start-as-option"),
    pytest.param(("--catalog", "P2", "--degree", "0..10", "--rank", "0"), 3,
                 "rank must be >= 1, got 0", id="rank-zero"),
    pytest.param(("--catalog", "P2", "--degree", "50..100", "--rank", "0"), 3,
                 "rank must be >= 1, got 0", id="rank-zero-past-d-pos"),
]

# Rows past the int-to-string digit limit (none before CPython 3.10.7): the
# first of ten rows past d_pos; on P1, where the value is d + 1, the last of
# 2,000 rows, which a sweep that wrote its first chunk at once would have
# followed with 1,024 rows on stdout; and rows below d_pos, known to print
# only once printed, that pass the limit some 1,500 rows into the range.
# There (dim 2, h_top 1, genus 10^2152) every degree is in the Clifford
# branch, whose core d(d+5)/4 has the numerator d(d+5)/2 at d = 1 or 2 mod 4.
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", int)()
_CLIFFORD_START = math.isqrt(2 * 10 ** _DIGIT_LIMIT) - 1500
_DIGIT_LIMIT_SWEEPS = {
    "first-row": ("--catalog", "P5", "--degree", f"{10 ** 900}..{10 ** 900 + 9}"),
    "last-row": ("--catalog", "P1", "--degree", f"{10 ** _DIGIT_LIMIT - 2000}..{10 ** _DIGIT_LIMIT - 1}"),
    "below-d-pos": ("--dim", "2", "--h-top", "1", "--c1-h", str(3 - 2 * 10 ** 2152),
                    "--degree", f"{_CLIFFORD_START}..{_CLIFFORD_START + 1999}"),
}
# The flags of each output of a sweep: the table form and --approx list
# its rows into row dicts.
_OUTPUT_FLAGS = {"json": ("--format", "json"), "csv": ("--format", "csv"),
                 "table": ("--format", "table"), "approx": ("--approx",)}
SWEEP_ERRORS += [
    pytest.param((*argv, *flags), 1,
                 f"a result has more than {_DIGIT_LIMIT} digits, too many to print",
                 id=f"digit-limit-{case}-{fmt}", marks=needs_digit_limit)
    for case, argv in _DIGIT_LIMIT_SWEEPS.items() for fmt, flags in _OUTPUT_FLAGS.items()
]


@pytest.mark.parametrize("argv,code,message", SWEEP_ERRORS)
def test_sweep_errors(argv, code, message):
    assert run_cli("bound", *argv) == (code, "", f"error: {message}\n")


def _cap_address_space():
    # in the child, before it runs: a sweep that holds its rows fails fast
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (512 * 2 ** 20, 512 * 2 ** 20))


def _read_and_leave(argv, read):
    """Run `python -m syzstab` on argv, take read(its stdout), close that
    pipe and wait: (what was read, exit code, stderr).  The process gets
    512 MB of address space and is killed after 20 s."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(syzstab.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "syzstab", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
                            preexec_fn=_cap_address_space)
    timer = threading.Timer(20, proc.kill)
    timer.start()
    try:
        got = read(proc.stdout)
        proc.stdout.close()
        return got, proc.wait(), proc.stderr.read()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_sweep_longer_than_sys_maxsize_streams():
    # rows are written as they are printed, and the range's length is never
    # taken: len() of the range raises OverflowError
    argv = ["bound", "--catalog", "P1", "--degree", f"0..{10 ** 30}", "--format", "csv"]
    assert _read_and_leave(argv, lambda out: [out.readline() for _ in range(3)]) == (
        [b"branch,core,degree,value\n", b"RiemannRoch,0,0,1\n", b"RiemannRoch,1,1,2\n"], 0, b"")


def test_sweep_into_a_closed_pipe_exits_quietly():
    # `| head -c 100`: the reader leaves after the first of many writes
    argv = ["bound", "--catalog", "P5", "--degree", "0..300000"]
    head, code, err = _read_and_leave(argv, lambda out: out.read(100))
    assert (head[:22], code, err) == (b'{\n  "command": "bound"', 0, b"")


class _HashSink:
    """A stdout that keeps only the SHA-256, the length and the last 100
    characters of what is written to it."""

    def __init__(self):
        self.sha, self.size, self.tail = hashlib.sha256(), 0, ""

    def write(self, text):
        data = text.encode()
        self.sha.update(data)
        self.size += len(data)
        self.tail = (self.tail + text)[-100:]


# The digests are those of the output written when a sweep held all of its
# rows at once.
@pytest.mark.parametrize("fmt,size,digest", [
    ("json", 15734830, "85be23f62f393351b1e9802c29508d2414e325bfdbeb77ad7258aa65055c5192"),
    ("csv", 6234464, "7dc1bc0f76937ce58857ab00f52ba176ce9c5e0f3931d7987a0f86df1e7073a8"),
])
def test_sweep_memory_does_not_grow_with_the_range(fmt, size, digest):
    # h0(O_P5(d)) = C(d+5, 5) is sharp, so the last value is known
    sink, err = _HashSink(), io.StringIO()
    tracemalloc.start()
    try:
        with redirect_stdout(sink), redirect_stderr(err):
            code = main(["bound", "--catalog", "P5", "--degree", "0..100000", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err.getvalue()) == (0, "")
    assert peak < 8 * 2 ** 20, peak
    last = str(math.comb(100005, 5))
    assert last == "83345834041685416895001"
    ending = (f",100000,{last}\n" if fmt == "csv"
              else f'"value": "{last}"\n      }}\n    ]\n  }}\n}}\n')
    assert sink.tail.endswith(ending)
    assert (sink.size, sink.sha.hexdigest()) == (size, digest)


_HILBERT_CALLS = {
    "twist": ("twist", "--catalog", "delpezzo-3", "--degree", "0", "--regularity", "0"),
    "check": ("check", "--catalog", "delpezzo-3", "--degree", "0", "--regularity", "0", "--twist", "5"),
    # P(3) is negative or not an integer: exit 3 on both forms
    "check-impossible": ("check", "--catalog", "delpezzo-3", "--degree", "0", "--regularity", "0",
                         "--twist", "3"),
}


# exit code of each --hilbert value on each call
_HILBERT_EXITS = {
    # well formed: read, then answered (3: P(3) < 0, or P not an integer at the twist)
    "-30,3/2,3/2": {"twist": 0, "check": 0, "check-impossible": 3},
    "-61/2,3/2,3/2": {"twist": 0, "check": 3, "check-impossible": 3},
    # malformed: the check of --hilbert itself rejects it
    "-1.5,2,3": dict.fromkeys(_HILBERT_CALLS, 1),
    "-1/2/3,2": dict.fromkeys(_HILBERT_CALLS, 1),
}


@pytest.mark.parametrize("argv,flag,value,code", [
    *(pytest.param(argv, "--hilbert", hilbert, codes[name], id=f"{hilbert}-{name}")
      for hilbert, codes in _HILBERT_EXITS.items()
      for name, argv in _HILBERT_CALLS.items()),
    pytest.param(("bound", "--catalog", "P2"), "--degree", "-3..x", 1, id="-3..x-bound"),
    pytest.param(("bound", "--dim", "2", "--h-top", "1", "--degree", "2"), "--c1-h", "-8x", 1,
                 id="-8x-bound"),
])
def test_negative_first_hilbert_coefficient_as_option_value(argv, flag, value, code):
    # a value that starts with "-" and a digit is a value, as with "=", also
    # when it is malformed: the check of its own flag reports it
    spaced = run_cli(*argv, flag, value)
    assert spaced == run_cli(*argv, f"{flag}={value}")
    assert spaced[0] == code and "expected one argument" not in spaced[2]


@pytest.mark.parametrize("form", ["simplified", "lemma"])
def test_sweep_rows_are_single_degree_results(form):
    # genus 5: the range crosses both branches, the strip and d_pos = 11
    variety = ("--dim", "4", "--h-top", "3", "--c1-h", "1")
    code, out, _ = run_cli("bound", *variety, "--rank", "2", "--degree", "0..40", "--form", form)
    assert code == 0
    rows = json.loads(out)["result"]["results"]
    singles = [json.loads(run_cli("bound", *variety, "--rank", "2", "--degree", str(d),
                                  "--form", form)[1])["result"] for d in range(41)]
    assert rows == singles


# Genus 3, dim 3, h_top 2: d_pos = 6, and the lemma tail has a
# denominator, so it takes the one-gcd-per-row printer.  P3: d_pos = 0,
# and the lemma tail is all integers, handed to the writers as its columns.
@pytest.mark.parametrize("argv, first, fractional", [
    (("--dim", "3", "--h-top", "2", "--c1-h", "0", "--rank", "2"), syzstab.bounds.d_pos(3, 2), True),
    (("--catalog", "P3"), syzstab.bounds.d_pos(0, 1), False),
], ids=["denominator", "integer"])
def test_a_sweep_builds_its_tail_table_once(monkeypatch, argv, first, fractional):
    # the closed form is read through its integer kernel, at d = p/e, at
    # the n+2 degrees of the tail's difference table only
    closed, table = syzstab.bounds._riemann_roch_ratio, syzstab.bounds._differences
    degrees, tables = [], []
    monkeypatch.setattr(syzstab.bounds, "_riemann_roch_ratio",
                        lambda n, h, g, p, e: degrees.append(Fraction(p, e)) or closed(n, h, g, p, e))
    monkeypatch.setattr(syzstab.bounds, "_differences",
                        lambda *args: tables.append(args) or table(*args))
    code, out, err = run_cli("bound", *argv, "--form", "lemma", "--degree", "0..4000")
    assert (code, err) == (0, "")
    tail = json.loads(out)["result"]["results"][first:]
    assert any("/" in row["core"] for row in tail) is fractional
    assert [d for d in degrees if d >= first] == list(range(first, first + 5))
    assert len(tables) == 1


def _reference_sweep(n, h_top, g, rank, degrees, form, fmt, approx):
    """A bound sweep's stdout as the CLI wrote it while sweep rows were
    dicts: one row dict per degree from sections_bound, --approx companions
    for the values that are proper fractions, then json.dumps, csv.writer,
    or the frozen table writer (report_walkers)."""
    c1_h = (n - 1) * h_top - 2 * (g - 1)
    variety = syzstab.make_variety("custom", n, h_top, c1_h)
    rows = []
    for d in degrees:
        rep = syzstab.sections_bound(variety, rank, d, syzstab.BoundForm(form))
        row = {"degree": d, "branch": rep.branch.value, "value": str(rep.value), "core": str(rep.core)}
        if approx:
            for key in ("value", "core"):
                if getattr(rep, key).denominator != 1:
                    row[f"{key}_approx"] = float(getattr(rep, key))
        rows.append(row)
    report = {"command": "bound",
              "input": {"variety": {"name": "custom", "dim": n, "h_top": h_top, "c1_dot_h": c1_h,
                                    "genus": g},
                        "sheaf": {"rank": rank, "degree": f"{degrees[0]}..{degrees[-1]}"},
                        "form": form},
              "result": {"results": rows}}
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        columns = sorted(set().union(*rows))
        sink = io.StringIO()
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row.get(c) for c in columns] for row in rows)
        return sink.getvalue()
    return frozen.render_table(report)


# Ranges from 0..60 that cross the Clifford branch, the strip, d_pos and the
# rank floor (at degree 0), a curve whose difference table starts at 0, and
# P3 with --approx, whose row dicts hold only str and int values.
@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 5), h_top=st.integers(1, 5), g=st.integers(0, 8), rank=st.integers(1, 4),
       start=st.integers(0, 60), length=st.integers(2, 300),
       form=st.sampled_from(["LemmaSumForm", "SimplifiedForm"]),
       fmt=st.sampled_from(["json", "csv", "table"]), approx=st.booleans())
@example(n=4, h_top=3, g=5, rank=3, start=0, length=40, form="SimplifiedForm", fmt="json", approx=False)
@example(n=4, h_top=3, g=5, rank=3, start=0, length=40, form="LemmaSumForm", fmt="csv", approx=False)
@example(n=3, h_top=2, g=2, rank=2, start=0, length=30, form="LemmaSumForm", fmt="json", approx=True)
@example(n=1, h_top=1, g=0, rank=2, start=0, length=9, form="SimplifiedForm", fmt="csv", approx=False)
@example(n=3, h_top=1, g=0, rank=1, start=0, length=51, form="SimplifiedForm", fmt="json", approx=True)
def test_sweep_output_matches_row_dict_reference(n, h_top, g, rank, start, length, form, fmt, approx):
    degrees = range(start, start + length)
    flag = "lemma" if form == "LemmaSumForm" else "simplified"
    code, out, err = run_cli("bound", "--dim", str(n), "--h-top", str(h_top),
                             "--c1-h", str((n - 1) * h_top - 2 * (g - 1)), "--rank", str(rank),
                             "--degree", f"{start}..{degrees[-1]}", "--form", flag,
                             "--format", fmt, *(["--approx"] if approx else []))
    assert (code, err) == (0, "")
    assert out == _reference_sweep(n, h_top, g, rank, degrees, form, fmt, approx)


# With chunks of 1 to 40 rows, ranges of up to 150 degrees are written in
# chunks whenever their rows below d_pos fit in the first one.
@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 5), h_top=st.integers(1, 5), g=st.integers(0, 8), rank=st.integers(1, 4),
       start=st.integers(0, 60), length=st.integers(2, 150), chunk=st.integers(1, 40),
       form=st.sampled_from(["LemmaSumForm", "SimplifiedForm"]), fmt=st.sampled_from(["json", "csv"]))
@example(n=4, h_top=3, g=5, rank=3, start=0, length=150, chunk=12, form="SimplifiedForm", fmt="json")
@example(n=1, h_top=1, g=0, rank=2, start=0, length=9, chunk=1, form="LemmaSumForm", fmt="csv")
def test_streamed_sweep_matches_row_dict_reference(n, h_top, g, rank, start, length, chunk, form, fmt):
    degrees = range(start, start + length)
    with mock.patch.object(cli, "_CHUNK", chunk):
        code, out, err = run_cli("bound", "--dim", str(n), "--h-top", str(h_top),
                                 "--c1-h", str((n - 1) * h_top - 2 * (g - 1)), "--rank", str(rank),
                                 "--degree", f"{start}..{degrees[-1]}",
                                 "--form", "lemma" if form == "LemmaSumForm" else "simplified",
                                 "--format", fmt)
    assert (code, err) == (0, "")
    assert out == _reference_sweep(n, h_top, g, rank, degrees, form, fmt, False)


def test_sweep_rows_print_a_floored_value_as_the_rank():
    # no variety is known to floor a fractional core, so the rows are made
    # up: core -1/2 and value 2 = rank, both over the denominator 2, as the
    # int rank; a row over 6 in p/q text; and one whose gcd leaves
    # denominator 1, as ints
    branch = syzstab.Branch.CLIFFORD
    rows = list(cli._sweep_rows([(7, branch, -1, 4, 2), (8, branch, 4, 8, 6), (9, branch, 6, 10, 2)], 2))
    assert rows == [("Clifford", "-1/2", 7, 2), ("Clifford", "2/3", 8, "4/3"), ("Clifford", 3, 9, 5)]


def _python_calls(argv):
    """The Python frames that main(argv) starts or resumes: the "call"
    events of sys.setprofile, a generator's resumption included."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    with redirect_stdout(io.StringIO()):
        sys.setprofile(count)
        try:
            code = main(argv)
        finally:
            sys.setprofile(None)
    assert code == 0
    return calls


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_integer_tail_prints_without_a_frame_per_row(fmt):
    # P5's tail starts at degree 0 and is all integers: its columns reach the
    # writers with no Python frame per row, whole at 1,001 rows and in three
    # chunks at 3,001; the dim-3 genus-2 tail (D = 8) goes through the row
    # printer, a frame per row or more
    def calls(variety, last):
        return _python_calls(["bound", *variety, "--degree", f"0..{last}", "--format", fmt])

    p5 = ("--catalog", "P5")
    assert calls(p5, 3000) - calls(p5, 1000) < 20
    dim3 = ("--dim", "3", "--h-top", "2", "--c1-h", "2")
    assert calls(dim3, 3000) - calls(dim3, 1000) >= 2000


def _section_ratios(variety, rank, degrees, form, tail):
    """The rows of bounds.sweep_ratios, each from sections_bound; tail is
    not used."""
    for d in degrees:
        rep = syzstab.sections_bound(variety, rank, d, form)
        den = rep.core.denominator
        yield d, rep.branch, rep.core.numerator, rep.value.numerator * (den // rep.value.denominator), den


def _no_tail(variety, rank, degrees, form):
    """bounds.tail_columns for a sweep with no tail."""
    return degrees.stop, 1, (), (), 0


def _sweep_outputs(argv):
    """A sweep's stdout from the CLI, and as the CLI writes it when every
    row is sections_bound's, reduced one by one by the row printer."""
    got = run_cli(*argv)
    with mock.patch.multiple(cli, tail_columns=_no_tail, sweep_ratios=_section_ratios):
        want = run_cli(*argv)
    return got, want


# Integer tails (P1-P5, and P3 in lemma form) and tails with a denominator
# (genus 5 and genus 2), both forms, ranks 1-4, rows floored at the rank
# (degrees 0 and 1 of a rational curve with h_top 3), ranges of 1,024
# degrees and ranges that end just past the first and the second 1,024-row
# chunk.
_FROZEN_SWEEPS = [
    ("--catalog", "P1", "--rank", "4", "--form", "lemma", "--degree", "0..1024"),
    ("--dim", "1", "--h-top", "3", "--c1-h", "2", "--rank", "2", "--form", "lemma",
     "--degree", "0..1030"),
    ("--dim", "1", "--h-top", "3", "--c1-h", "2", "--rank", "3", "--degree", "0..2049"),
    ("--catalog", "P2", "--rank", "3", "--degree", "0..1023"),
    ("--catalog", "P3", "--rank", "2", "--form", "lemma", "--degree", "0..2048"),
    ("--catalog", "P4", "--degree", "5..2053"),
    ("--catalog", "P5", "--rank", "2", "--degree", "0..2047"),
    ("--catalog", "quartic-K3", "--rank", "3", "--form", "lemma", "--degree", "0..1500"),
    ("--dim", "4", "--h-top", "3", "--c1-h", "1", "--rank", "3", "--degree", "0..2048"),
    ("--dim", "4", "--h-top", "3", "--c1-h", "1", "--rank", "4", "--form", "lemma",
     "--degree", "0..1024"),
    ("--dim", "3", "--h-top", "2", "--c1-h", "2", "--rank", "1", "--form", "lemma",
     "--degree", "11..2059"),
]


@pytest.mark.parametrize("fmt", _OUTPUT_FLAGS)
@pytest.mark.parametrize("argv", _FROZEN_SWEEPS, ids=lambda argv: " ".join(argv))
def test_sweep_output_matches_the_per_row_printer(argv, fmt):
    got, want = _sweep_outputs(("bound", *argv, *_OUTPUT_FLAGS[fmt]))
    assert got[0] == 0 and got == want


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), h_top=st.integers(1, 5), g=st.integers(0, 12), rank=st.integers(1, 4),
       start=st.integers(0, 60), length=st.integers(2, 2100),
       form=st.sampled_from(["lemma", "simplified"]), fmt=st.sampled_from(["json", "csv"]))
def test_drawn_sweep_output_matches_the_per_row_printer(n, h_top, g, rank, start, length, form, fmt):
    got, want = _sweep_outputs(("bound", "--dim", str(n), "--h-top", str(h_top),
                                "--c1-h", str((n - 1) * h_top - 2 * (g - 1)), "--rank", str(rank),
                                "--degree", f"{start}..{start + length - 1}", "--form", form,
                                "--format", fmt))
    assert got[0] == 0 and got == want


_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
    max_leaves=20,
)


# Keys of flat rows, such as the catalog listing's: text that %-formatting,
# str.format or JSON escaping could trip on, and any text.
_ROW_KEYS = st.text(st.sampled_from('%{}"\\s\u00e9\u2603\n'), max_size=4) | st.text(max_size=6)
_ROW_SCALARS = st.text(max_size=8) | st.integers()
_ODD_VALUES = (_ROW_SCALARS | st.booleans() | st.none() | st.floats(allow_nan=False, allow_infinity=False)
               | st.lists(_ROW_SCALARS, max_size=2) | st.dictionaries(st.text(max_size=3), _ROW_SCALARS,
                                                                      max_size=2))


@st.composite
def _row_lists(draw):
    """A list of flat dicts that share one key set, each key holding str or
    int values, with some items broken: a key added or missing, a value of
    another type, an empty dict, or any other JSON value."""
    keys = draw(st.lists(_ROW_KEYS, min_size=1, max_size=5, unique=True))
    kinds = {key: draw(st.sampled_from([st.text(max_size=8), st.integers()])) for key in keys}
    items = []
    for _ in range(draw(st.integers(1, 8))):
        item = {key: draw(kinds[key]) for key in keys}
        shape = draw(st.sampled_from(["row"] * 12 + ["extra", "missing", "odd", "empty", "other"]))
        if shape == "extra":
            item[draw(_ROW_KEYS.filter(lambda key: key not in item))] = draw(_ROW_SCALARS)
        elif shape == "missing":
            del item[draw(st.sampled_from(keys))]
        elif shape == "odd":
            item[draw(st.sampled_from(keys))] = draw(_ODD_VALUES)
        elif shape == "empty":
            item = {}
        elif shape == "other":
            item = draw(_JSON_TREES)
        items.append(item)
    return tuple(items) if draw(st.booleans()) else items


@settings(max_examples=200, deadline=None)
@given(_JSON_TREES)
def test_render_json_writes_what_json_dumps_writes(tree):
    assert cli.render_json(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


_ROW_TREES = _row_lists() | _row_lists().map(lambda rows: {"result": {"results": rows}})


# Flat row lists with broken items, bare or as a report's results:
# render_json walks a row list item by item like any other list.
@settings(max_examples=300, deadline=None)
@given(_ROW_TREES)
def test_render_json_writes_row_lists_as_json_dumps_writes(tree):
    assert cli.render_json(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


def _poly_free(obj):
    """obj with every Poly inside it replaced by its coefficients: _plain
    renders no Poly, since the CLI prints polynomials with Poly.to_strings."""
    if isinstance(obj, syzstab.Poly):
        return obj.coeffs
    if isinstance(obj, tuple):
        return tuple(_poly_free(item) for item in obj)
    if hasattr(type(obj), "_fields"):
        return type(obj)(*(_poly_free(getattr(obj, name)) for name in type(obj)._fields))
    return obj


def _plain_by_attributes(obj):
    """The walk over a result's instance attributes that _plain, which reads
    the class's field tuple, must agree with; its leaves are the frozen
    walker's (report_walkers.plain)."""
    if hasattr(type(obj), "_fields"):
        return {name: _plain_by_attributes(value) for name, value in vars(obj).items()
                if value is not None}
    if isinstance(obj, (list, tuple)):
        return [_plain_by_attributes(item) for item in obj]
    return frozen.plain(obj)


def test_plain_walks_the_fields_of_every_exported_result_type():
    p2, k3 = syzstab.catalog_lookup("P2"), syzstab.catalog_lookup("quartic-K3")
    hp = syzstab.HilbertPoly(syzstab.Poly((2, 0, 2)), 0)
    cert = syzstab.minimal_stable_twist(k3, 0, hp)
    degenerate = syzstab.check_stability(p2, 2, 1)  # a note, and an infinite slope
    samples = [
        p2, syzstab.SheafSpec(1, 2, sections=6),
        syzstab.SheafSpec(1, 0, hilbert=(Fraction(2), Fraction(1, 2)), regularity=0),
        syzstab.sections_bound(k3, 1, 8), syzstab.check_stability(p2, 2, 6),
        degenerate, degenerate.condition1, degenerate.syzygy,
        syzstab.CheckResult("c", 3, 1, ["k = 2"]), syzstab.CheckResult("d", note="n"),
        hp, syzstab.bound_high_poly(k3, 0), syzstab.build_condition_polys(k3, 0, hp),
        cert, cert.shift, cert.scan[0],
    ]
    exported = {obj for name in syzstab.__all__
                if hasattr(obj := getattr(syzstab, name), "_fields") and isinstance(obj, type)}
    assert len(exported) == 13
    assert {type(value) for value in samples} == exported
    for value in samples:  # the field tuple names every attribute an instance has, in order
        assert list(vars(value)) == list(type(value)._fields), type(value).__name__
    for value in map(_poly_free, samples):
        assert cli._plain(value) == _plain_by_attributes(value), type(value).__name__
        assert cli._plain(value) == frozen.plain(value), type(value).__name__


# Trees for the differential tests of the report walkers against the frozen
# copies in report_walkers, over the types a result is built from.  Leaves
# are what a result holds (str, int, bool, None, Fractions, enums, math.inf
# and p/q text, negative, too large for a float, or over 0) and what it
# never holds (finite floats, -inf, text that is nearly p/q); inner nodes
# are dicts, lists and tuples, empty ones included, and for _plain result
# types: a Record subclass, as every result type but one is, and
# verify.CheckResult.
class _Shade(Enum):  # a plain enum, as every enum of the package is
    DARK = "Dark"
    LIGHT = "Light"


class _Box(Record):
    first: object
    second: object = None


_RATIONAL_TEXT = (st.builds("{}/{}".format, st.integers(-10**6, 10**6), st.integers(0, 10**6))
                  | st.builds("{}/{}".format, st.integers(10**309, 10**320), st.integers(1, 9))
                  | st.builds("-{}/{}".format, st.integers(10**309, 10**320), st.integers(1, 9)))
_SLASHED_TEXT = st.text(st.sampled_from("0123456789/-+ .e"), max_size=7)  # p/q or nearly
_WALKER_LEAVES = (st.none() | st.booleans() | st.integers() | st.text(max_size=6) | _RATIONAL_TEXT
                  | _SLASHED_TEXT
                  | st.floats(allow_nan=False, allow_infinity=False) | st.just(math.inf)
                  | st.just(-math.inf) | st.fractions() | st.sampled_from(list(_Shade)))
_WALKER_KEYS = st.text(max_size=4) | _RATIONAL_TEXT


def _walker_trees(leaves, records=False):
    def extend(inner):
        nodes = (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                 | st.dictionaries(_WALKER_KEYS, inner, max_size=4))
        if records:
            nodes |= (st.builds(_Box, inner, inner)
                      | st.builds(syzstab.CheckResult, st.text(max_size=3), inner, inner,
                                  st.lists(inner, max_size=2), inner))
        return nodes
    return st.recursive(leaves, extend, max_leaves=25)


_REPORT_TREES = _walker_trees(_WALKER_LEAVES)
_RESULT_TREES = _walker_trees(_WALKER_LEAVES, records=True)


def _outcome(walk, *args):
    """What walk(*args) gives: its value with every type spelled out, or
    its error's type and text."""
    try:
        return "value", _typed(walk(*args))
    except Exception as exc:  # the walkers must fail alike
        return type(exc), str(exc)


def _typed(obj):
    if type(obj) in (list, tuple):
        return type(obj), [_typed(item) for item in obj]
    if type(obj) is dict:
        return dict, [(key, _typed(value)) for key, value in obj.items()]
    return type(obj), repr(obj)


@settings(max_examples=400, deadline=None)
@given(_RESULT_TREES)
@example([])
@example(())
@example(_Box(math.inf, [_Shade.DARK, Fraction(-7, 2), None]))
@example({"a": 1})
def test_plain_matches_the_frozen_walker(tree):
    assert _outcome(cli._plain, tree) == _outcome(frozen.plain, tree)


@settings(max_examples=400, deadline=None)
@given(_REPORT_TREES)
@example({})
@example({"a": {}, "b": [], "c": ()})
@example({"x": [True, False, None, 1.5, 2, _Shade.DARK]})
def test_flatten_matches_the_frozen_walker(tree):
    assert _outcome(cli._flatten, tree, "", []) == _outcome(frozen.flatten, tree)
    assert _outcome(cli.render_table, tree) == _outcome(frozen.render_table, tree)


# Only the exact types dict, list and str reach _with_approx: every result
# is built from them, so these trees hold no subclass of theirs.
@settings(max_examples=400, deadline=None)
@given(_REPORT_TREES)
@example({"value": "-7/2", "core": "3", "n": [{"x": "1/3"}, ("2/3",)]})
@example({"value": f"{10**400}/3"})
@example({"value": "1/0"})
def test_with_approx_matches_the_frozen_walker(tree):
    assert _outcome(cli._with_approx, tree) == _outcome(frozen.with_approx, tree)


_COLD_ARGVS = [
    ["catalog", "show", "P3"],
    ["bound", "--catalog", "P3", "--degree", "5"],
    ["check", "--catalog", "P2", "--degree", "2", "--h0", "6"],
    ["twist", "--catalog", "quartic-K3", "--degree", "0", "--hilbert", "2,0,2", "--regularity", "0"],
]


def test_front_door_loads_no_dataclasses_in_a_cold_process():
    # -S: a site hook may import any module.  The result types are records,
    # so neither dataclasses nor the modules it imports are ever loaded.
    src = os.path.dirname(os.path.dirname(os.path.abspath(syzstab.__file__)))
    probe = ("import sys; from syzstab import cli; "
             f"codes = [cli.main(argv) for argv in {_COLD_ARGVS!r}]; "
             "loaded = sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)); "
             "sys.stderr.write(f'{codes} {loaded}')")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.stderr == "[0, 0, 0, 0] []"
    assert proc.stdout.count('"command": ') == len(_COLD_ARGVS)


def _mixed_invocations(problem: str) -> list[tuple[str, ...]]:
    """Invocations of every kind main handles: each subcommand in each
    format, --approx, an --input file, errors raised by argparse and by a
    handler, and an exit-3 input.  Each `check --twist 5` is followed by a
    check without --twist, so a default leaking from one call to the next
    would show."""
    hilbert_check = REPORTS["hilbert"]
    calls = []
    for fmt in ("json", "table", "csv"):
        calls += [(*argv, "--format", fmt) for argv in (
            ("bound", "--catalog", "P3", "--degree", "1..4"),
            hilbert_check,
            REPORTS["stable"],
            ("twist", *LONG_SCANS["quartic-K3"], "--regularity", "0"),
            ("catalog",),
            ("catalog", "show", "P3"),
            ("verify",),
        )]
    return calls + [
        ("bound", "--catalog", "P2", "--degree", "2", "--approx"),
        (*REPORTS["stable"], "--approx"),
        ("check", "--input", problem),
        ("bound", "--input", problem, "--form", "lemma"),
        *(case.values[0] for case in USAGE_ERRORS
          if case.id in ("format-choice", "unknown-subcommand", "rank-not-int")),
        ("catalog", "show"),
        ("check", "--catalog", "P2", "--degree", "2", "--h0", "1000000"),
        hilbert_check,
        hilbert_check[:-2],
    ]


def test_one_parser_serves_every_call(tmp_path, monkeypatch):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"variety": {"name": "P2"}, "sheaf": {"rank": 1, "degree": 2, "h0": 6}}))
    calls = _mixed_invocations(str(path))
    expected = {}
    for argv in calls:
        with monkeypatch.context() as m:
            m.setattr(cli, "_PARSER", cli.build_parser())
            expected[argv] = run_cli(*argv)
    assert {code for code, _, _ in expected.values()} == {0, 1, 3}

    def rebuild():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", rebuild)
    for argv in calls + calls[::-1]:
        assert run_cli(*argv) == expected[argv], argv


@pytest.mark.parametrize("command", ["", "bound", "check", "twist", "catalog", "verify"],
                         ids=lambda c: c or "syzstab")
def test_help(command, monkeypatch):
    argv = [command, "--help"] if command else ["--help"]
    out, text = io.StringIO(), io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    with redirect_stdout(text), pytest.raises(SystemExit):  # argparse's own help text
        cli._PARSER.parse_args(argv)
    assert out.getvalue() == text.getvalue()
    assert out.getvalue().startswith(f"usage: syzstab {command} [-h]" if command
                                     else "usage: syzstab [-h]")
    monkeypatch.setattr(sys, "argv", ["syzstab", *argv])
    with redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exc:
        cli.run()  # the console script: the process still exits 0
    assert exc.value.code == 0
    code, out, _ = run_cli(*REPORTS["stable"], "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == next(
        digest for case, fmt, digest in GOLDEN_REPORTS if (case, fmt) == ("stable", "json"))


class _Parsed(Exception):
    """Raised by a stand-in handler with the Namespace main hands it."""


def _top_level_route(argv):
    """main's parse as it was before a command's argv went straight to the
    command's parser: the whole argv through the top-level parser.  The
    Namespace's fields, or the exit code, stdout and stderr main gave."""
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            args = cli._PARSER.parse_args(list(argv))
        if args.command is None:
            raise syzstab.UsageError("a subcommand is required (bound, check, twist, catalog, verify)")
    except syzstab.UsageError as exc:
        return 1, "", f"error: {exc}\n"
    except SystemExit as exc:
        return exc.code, out.getvalue(), ""
    return vars(args)


def _dispatch_route(argv):
    """What main makes of argv with every handler replaced by one that
    raises its Namespace: the Namespace's fields, or the exit code,
    stdout and stderr."""
    def record(args):
        raise _Parsed(args)

    with mock.patch.dict(cli._HANDLERS, dict.fromkeys(cli._HANDLERS, record)):
        try:
            return run_cli(*argv)
        except _Parsed as parsed:
            return vars(parsed.args[0])


# Whole flags with their values apart, read straight from the command
# parser's option strings: negative numbers, ranges, ratios and lists,
# spellings int() takes (" 7 ", 1_000, an Arabic-Indic digit), an empty
# value, a value past the int-from-string digit limit for a str flag, a
# repeated flag, a switch given twice, and catalog with no positional,
# with its action, and with its action and a name (also an empty one).
_LONG_DIGITS = "1" * 4301
_REGULAR_ARGVS = [
    ("bound", "--catalog", "P2", "--degree", "-8"),
    ("bound", "--catalog", "P2", "--degree", "-3..10", "--form", "lemma", "--format", "csv"),
    ("bound", "--dim", " 7 ", "--h-top", "1_000", "--c1-h", "\u0663", "--degree", "-.5"),
    ("bound", "--catalog", "P2", "--degree", _LONG_DIGITS),
    ("bound", "--catalog", "", "--degree", "2"),
    ("check", "--catalog", "P2", "--degree", "2", "--h0", "-8", "--approx", "--approx"),
    ("check", "--catalog", "quartic-K3", "--degree", "0", "--hilbert", "-3/2", "--regularity", "0",
     "--twist", "5"),
    ("twist", "--catalog", "delpezzo-3", "--degree", "0", "--hilbert", "-30,3/2,3/2",
     "--regularity", "0", "--format", "table"),
    ("twist", "--catalog", "P3", "--catalog", "P2", "--degree", "0", "--hilbert", "1,3/2,1/2",
     "--regularity", "0"),
    ("verify", "--seed", "-8", "--grid", "small", "--seed", "3", "--format", "csv"),
    ("catalog", "--format", "csv"),
    ("catalog", "--approx", "--format", "table"),
    ("catalog", "show", "P3"),
    ("catalog", "list", "--format", "csv"),
    ("catalog", "show", "", "--approx"),
    ("catalog", "list", "P2"),
]

# Argvs that the reader declines, so that argparse reads them: help, an
# "=" value, an abbreviation, "--", a positional where a flag should be,
# after a flag or past catalog's two, a failed choice (also of catalog's
# action), a failed conversion (also of a value past the digit limit), a
# value that starts with "-" and is not a number, a flag where its value
# should be.
_DECLINED_ARGVS = [
    ("bound", "-h"),
    ("bound", "--catalog", "-x", "--degree", "2"),
    ("bound", "--catalog", "--degree", "2"),
    ("bound", "--catalog", "P2", "--deg=2"),
    ("bound", "--cat", "P2", "--degree", "2"),
    ("bound", "--catalog", "P2", "--degree", "2", "--"),
    ("bound", "--catalog", "P2", "P3", "--degree", "2"),
    ("catalog", "list", "--form", "csv"),
    ("catalog", "--format", "csv", "show", "P3"),
    ("catalog", "show", "P3", "P4"),
    ("catalog", "P3"),
    ("catalog", "show", "-x"),
    ("bound", "--catalog", "P2", "--degree", "2", "--format", "xml"),
    ("bound", "--dim", "x", "--h-top", "1", "--c1-h", "3", "--degree", "2"),
    ("check", "--catalog", "P2", "--degree", _LONG_DIGITS, "--h0", "6"),
]

_PARITY_ARGVS = list(dict.fromkeys([
    *REPORTS.values(),
    *(case.values[0] for case in USAGE_ERRORS),
    *(("bound", *case.values[0]) for case in SWEEP_ERRORS),
    ("--help",), *((command, "--help") for command in cli._HANDLERS),
    (), ("-h",), ("bou",), ("--format", "json", "bound"), ("bound", "-h", "--bogus"),
    ("bound", "--catalog", "P2", "--degree", "2", "--", "--rank"),
    ("check", "--cat", "P2", "--deg=2", "--h0", "-6"), ("check", "--h", "2"),
    ("twist", "--catalog", "P2", "--degree", "0", "--hilbert", "-30,3/2,3/2", "--regularity", "0"),
    ("catalog", "show", "P3", "--format=csv", "--approx"), ("catalog", "list", "P2", "stray"),
    ("verify", "--grid", "tiny"), ("verify", "--seed", "-4", "--gr=full"),
    *_REGULAR_ARGVS, *_DECLINED_ARGVS,
]))


def _parity_id(argv) -> str:
    return " ".join(token if len(token) < 100 else f"{token[:3]}...({len(token)} chars)"
                    for token in argv) or "empty"


@pytest.mark.parametrize("argv", _PARITY_ARGVS, ids=_parity_id)
def test_dispatch_parses_as_the_top_level_parser(argv):
    assert _dispatch_route(argv) == _top_level_route(argv)


class _ReachedArgparse(Exception):
    pass


def _apart(argv) -> tuple:
    """argv with each --flag=value written as --flag value."""
    return tuple(part for token in argv
                 for part in (token.split("=", 1) if token.startswith("--") else (token,)))


def test_option_table_reads_regular_argvs_and_argparse_the_rest(monkeypatch):
    for name, parser in cli._PARSER.commands.items():  # a flag added later is one _read reads
        for string, action in parser._option_string_actions.items():
            if string not in ("-h", "--help"):
                value = [] if action.nargs == 0 else [next(iter(action.choices or ["1"]))]
                assert cli._read(parser, [string, *value]) is not None, (name, string)

    regular = [_apart(argv) for argv in REPORTS.values()] + _REGULAR_ARGVS
    by_argparse = {}
    with monkeypatch.context() as m:
        m.setattr(cli, "_read", lambda parser, argv: None)
        for argv in regular + _DECLINED_ARGVS:
            by_argparse[argv] = run_cli(*argv)

    def reached(*args, **kwargs):
        raise _ReachedArgparse

    with monkeypatch.context() as m:
        m.setattr(argparse.ArgumentParser, "parse_known_args", reached)
        for argv in regular:
            assert run_cli(*argv) == by_argparse[argv], argv
        for argv in _DECLINED_ARGVS:
            with pytest.raises(_ReachedArgparse):
                run_cli(*argv)
    for argv in _DECLINED_ARGVS:  # argparse's own text, with the reader in place
        assert run_cli(*argv) == by_argparse[argv], argv


def _misread(parser) -> list:
    """What in a command parser cli._read would read otherwise than argparse:
    it starts from the action defaults and reads only whole option strings
    of store (one value) and store_true actions, so only argparse checks
    required actions and exclusive groups, applies set_defaults, converts a
    str default by its type, fills a positional that takes no token other
    than with its default, converts a positional by its type, warns of a
    deprecated action, and takes "-1" for an option when one of the option
    strings looks like a number."""
    found = [kind for kind, present in (("exclusive group", parser._mutually_exclusive_groups),
                                        ("set_defaults", parser._defaults)) if present]
    for action in parser._actions:
        kind, strings = type(action), action.option_strings
        if action.required or getattr(action, "deprecated", False):
            found.append(f"required or deprecated {action.dest}")
        if any(map(parser._negative_number_matcher.match, strings)):
            found.append(f"negative-number option string {strings}")
        if kind is argparse._StoreAction:
            if action.nargs != (None if strings else "?"):
                found.append(f"{action.dest} takes nargs={action.nargs!r}")
            if action.type is not None and (isinstance(action.default, str) or not strings):
                found.append(f"typed {action.dest} has a str default or no option string")
        elif kind not in (argparse._HelpAction, argparse._StoreTrueAction):
            found.append(f"{action.dest} is a {kind.__name__}")
    return found


def test_command_parsers_hold_only_what_the_reader_reads():
    for name, parser in cli._PARSER.commands.items():
        assert _misread(parser) == [], name


# every flag of every command, whole or abbreviated, its value joined by
# "=" or apart (a choice flag's choices and one bad value, else _VALUES),
# in any order and with a stray token; or, as regular argvs, whole flags
# with their values apart and no stray token, which cli._read reads
# unless a value fails its type or choices
_FLAGS = {
    "bound": ("--catalog", "--dim", "--h-top", "--c1-h", "--input", "--rank", "--degree",
              "--form", "--format", "--approx"),
    "check": ("--catalog", "--dim", "--h-top", "--c1-h", "--input", "--rank", "--degree",
              "--h0", "--hilbert", "--regularity", "--twist", "--format", "--approx"),
    "twist": ("--catalog", "--dim", "--h-top", "--c1-h", "--input", "--rank", "--degree",
              "--hilbert", "--regularity", "--format", "--approx"),
    "catalog": ("--format", "--approx"),
    "verify": ("--grid", "--seed", "--format", "--approx"),
}
_CHOICES = {"--format": ("json", "csv", "table", "xml"), "--form": ("lemma", "simplified", "x"),
            "--grid": ("small", "full", "tiny")}
_VALUES = st.integers(-50, 50).map(str) | st.sampled_from(
    ["P2", "quartic-K3", "x", "", "-3..10", "1..4", "-3/2", "-30,3/2", "2,0,2", "-h",
     "-x", "-8", "-.5", "-1.5,2", " 7 ", "1_000", "\u0663", _LONG_DIGITS])
_STRAY = st.sampled_from(["list", "show", "P3", "stray", "-x", "--bogus", "--", "-", "-5",
                          "--help", "-h", "bound"])


@st.composite
def _command_argvs(draw, regular=False):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    groups = []
    for flag in draw(st.lists(st.sampled_from(_FLAGS[command]), max_size=6)):
        abbreviated = not regular and draw(st.booleans())
        spelled = flag[:draw(st.integers(3, len(flag)))] if abbreviated else flag
        if flag == "--approx":
            groups.append([spelled])
            continue
        value = draw(st.sampled_from(_CHOICES[flag]) if flag in _CHOICES else _VALUES)
        joined = not regular and draw(st.booleans())
        groups.append([f"{spelled}={value}"] if joined else [spelled, value])
    if not regular:
        groups += [[token] for token in draw(st.lists(_STRAY, max_size=1))]
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)]


# About a third of the examples are regular argvs: in five runs, cli._read
# read 62 to 98 of the 300 (other regular argvs fail a type or a choice).
@settings(max_examples=300, deadline=None)
@given(_command_argvs(regular=True) | _command_argvs() | st.lists(_STRAY | _VALUES, max_size=3))
def test_dispatch_parses_drawn_argvs_as_the_top_level_parser(argv):
    assert _dispatch_route(argv) == _top_level_route(argv)


def test_main_reads_sys_argv(monkeypatch):
    for argv in (REPORTS["stable"], USAGE_ERRORS[0].values[0], ("bound", "--help")):
        expected = run_cli(*argv)
        monkeypatch.setattr(sys, "argv", ["syzstab", *argv])
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert (main(), out.getvalue(), err.getvalue()) == expected
