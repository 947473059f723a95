"""Answer checks.  Each one encodes mathematics or the documented CLI
contract, never an output recorded from some commit, so a correctness fix
in the program does not read as a failure.

``check(op, code, out, err)`` returns None for a correct answer and a
one-line reason otherwise.  Table and CSV output are decoded back into
the shape of the JSON ``result`` object so one checker serves every
format.

Run as a script, it checks one pass of a workload in a process of its
own, so that its memory stays out of the measured process:

    python3 perfbench/checks.py WORKLOAD SEED PASS PASS_DIR

PASS_DIR holds the pass's input files and what run.py left there: out.txt
and err.txt with every op's output, one after the other, and records.json
with one [exit code or "raised ...", out start, out end, err start, err
end] per op.  Each op is run again here, in order, and must give the same
exit code and byte-identical output; then its answer is checked.  It
prints one JSON line: the number of ops checked and the failures, as [op
index, reason].
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

import workloads
from workloads import CATALOG, genus


class Wrong(Exception):
    pass


def need(ok: bool, what: str) -> None:
    if not ok:
        raise Wrong(what)


def _q(x) -> Fraction:
    return Fraction(str(x))


def _i(x) -> int:
    return int(str(x))


def _b(x) -> bool:
    need(x in (True, False, "true", "false", "True", "False"), f"not a boolean: {x!r}")
    return x in (True, "true", "True")


# --- decoding -------------------------------------------------------------------

def _unflatten(flat: dict) -> object:
    root: dict = {}
    for path, value in flat.items():
        node = root
        *parents, leaf = path.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    return _listify(root)


def _listify(node):
    if not isinstance(node, dict):
        return node
    items = {k: _listify(v) for k, v in node.items()}
    if items and all(k.isdigit() for k in items):
        return [items[str(i)] for i in range(len(items))]
    return items


_CSV_LISTS = {"catalog-list": "entries", "verify": "checks", "twist": "scan"}


def decode(op, text: str):
    """The ``result`` object of a report, rebuilt from any output format."""
    if op.fmt == "json":
        return json.loads(text)["result"]
    if op.fmt == "table":
        flat = {}
        for line in text.splitlines():
            key, _, value = line.partition(" ")
            flat[key] = value.strip()
        return _unflatten(flat)["result"]
    rows = [{k: v for k, v in row.items() if v != ""}
            for row in csv.DictReader(io.StringIO(text))]
    key = "results" if op.spec.get("sweep") else _CSV_LISTS.get(op.kind)
    if key:
        return {key: rows}
    need(len(rows) == 1, f"expected one CSV row, got {len(rows)}")
    return _unflatten(rows[0])


# --- per-command checks ------------------------------------------------------------

def _sharp_count(name, d: int):
    """h0 of the rank-1 sheaf of degree d where it is known exactly."""
    if name is None:
        return None
    n, h, _ = CATALOG[name]
    if name.startswith("P"):
        return math.comb(d + n, n)
    if name.startswith("delpezzo-") and d % h == 0:
        m = d // h
        return Fraction(h * m * (m + 1), 2) + 1     # anticanonical Riemann-Roch
    return None


def check_bound(spec, result) -> None:
    name, n, h, c1h = spec["variety"]
    g = genus(n, h, c1h)
    rank, degrees = spec["rank"], spec["degrees"]
    rows = result["results"] if spec["sweep"] else [result]
    need(len(rows) == len(degrees), f"{len(rows)} rows for {len(degrees)} degrees")
    shift = rank - (1 if spec["form"] == "lemma" else 0)
    for row, d in zip(rows, degrees):
        need(_i(row["degree"]) == d, f"row for degree {row['degree']}, expected {d}")
        branch = "Clifford" if d <= 2 * g - 2 else "RiemannRoch"
        need(row["branch"] == branch, f"d={d}: branch {row['branch']}, expected {branch}")
        value, core = _q(row["value"]), _q(row["core"])
        need(value == max(core + shift, Fraction(rank)),
             f"d={d}: value {value} is not max(core {core} + {shift}, rank {rank})")
        sharp = _sharp_count(name, d)
        need(sharp is None or value == sharp + rank - 1,
             f"{name} d={d} rank={rank}: value {value}, sharp count {sharp} + {rank - 1}")


_STATES = ("StrictPass", "Equality", "Fail")


def check_check(spec, result) -> None:
    _, n, h, c1h = spec["variety"]
    g = genus(n, h, c1h)
    d, h0 = spec["degree"], spec["h0"]
    need(_i(result["degree"]) == d, f"degree {result['degree']}, expected {d}")
    need(_i(result["h0"]) == h0, f"h0 {result['h0']}, expected {h0}")
    syz = result["syzygy"]
    need(_i(syz["rank"]) == h0 - 1 and _i(syz["degree"]) == -d, "syzygy rank/degree")
    slope = "+inf" if h0 == 1 else Fraction(-d, h0 - 1)
    need((syz["slope"] if h0 == 1 else _q(syz["slope"])) == slope, f"slope {syz['slope']}")
    verdict = result["verdict"]
    conds = [result["condition1"], result["condition2"]]
    if h0 == 1 or d == 1:
        expected = "Degenerate" if h0 == 1 else "TriviallyStable"
        need(verdict == expected, f"verdict {verdict}, expected {expected}")
        need(all(c["status"] == "Vacuous" for c in conds), "short circuit consulted a condition")
        return
    need((conds[0]["status"] != "Vacuous") == (g >= 2), f"condition 1 presence for genus {g}")
    need(conds[1]["status"] != "Vacuous", "condition 2 vacuous")
    states = []
    for cond, threshold in zip(conds, (2 * g - 2, d - 1)):
        if cond["status"] == "Vacuous":
            continue
        lhs, rhs = _q(cond["lhs"]), _q(cond["rhs"])
        need(lhs == h0 - 1, f"lhs {lhs}, expected h0 - 1 = {h0 - 1}")
        need(_i(cond["threshold_degree"]) == threshold, f"threshold degree {cond['threshold_degree']}")
        state = _STATES[0] if lhs > rhs else _STATES[1] if lhs == rhs else _STATES[2]
        need(cond["status"] == state, f"status {cond['status']} for lhs {lhs} vs rhs {rhs}")
        states.append(state)
    if verdict == "Stable":
        need(set(states) == {"StrictPass"}, f"Stable with conditions {states}")
    elif verdict == "Semistable":
        need("Fail" not in states and "Equality" in states, f"Semistable with conditions {states}")
    else:
        need(verdict == "Inconclusive", f"verdict {verdict}")
        need("Fail" in states or "note" in result, f"Inconclusive with conditions {states} and no note")


def _scaled(coeffs) -> tuple[list[int], int]:
    """Integer coefficients and the positive denominator L with P = P_int / L."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * lcm) for c in coeffs], lcm


def _horner(coeffs, k):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


def _cauchy_top(coeffs) -> int:
    """An integer beyond every real root: 1 + max |c_i / lead|, rounded up."""
    lead = coeffs[-1]
    return math.ceil(1 + max(abs(c / lead) for c in coeffs[:-1]))


def check_twist(spec, result) -> None:
    """k_min is certified by the printed F and G alone: both are positive at
    every integer from k_min up to their Cauchy bound (and so beyond it, the
    leads being positive), and one of them is <= 0 at k_min - 1 unless k_min
    is the scan start.  Every printed scan row must agree with F and G."""
    _, n, h, c1h = spec["variety"]
    has_g = genus(n, h, c1h) >= 2
    polys = result["condition_polys"]
    need(("G" in polys) == has_g, "G presence disagrees with genus >= 2")
    named = [("F", [_q(c) for c in polys["F"]])] + ([("G", [_q(c) for c in polys["G"]])] if has_g else [])
    need(len(named[0][1]) == n + 1, "F must have degree dim")
    for key, coeffs in named:
        need(len(coeffs) >= 2 and coeffs[-1] > 0, f"{key} must be nonconstant with a positive lead")
    scaled = [(key, *_scaled(coeffs)) for key, coeffs in named]

    def positive(k):
        return all(_horner(ints, k) > 0 for _, ints, _ in scaled)

    k_min, start = _i(result["k_min"]), _i(result["scanned_range"][0])
    need(k_min >= start, f"k_min {k_min} below scan start {start}")
    top = max(_cauchy_top(coeffs) for _, coeffs in named)
    for k in range(k_min, max(k_min, top) + 1):
        need(positive(k), f"F or G not positive at k={k}, between k_min={k_min} and "
                          f"the Cauchy bound {top}")
    need(k_min == start or not positive(k_min - 1),
         f"k_min={k_min} not minimal: F and G positive at k_min - 1")
    for row in result["scan"]:
        k = _i(row["k"])
        need(("G" in row) == has_g, f"scan row k={k}: G presence")
        for key, ints, lcm in scaled:
            num, _, den = str(row[key]).partition("/")
            need(int(num) * lcm == _horner(ints, k) * int(den or 1),
                 f"scan row k={k}: {key} disagrees with its polynomial")
        need(_b(row["passed"]) == positive(k), f"scan row k={k}: passed disagrees with F, G")


def _scan_rows(rows) -> dict:
    return {_i(r["k"]): (str(r["F"]), str(r.get("G")), _b(r["passed"])) for r in rows}


def check_twist_csv(op, result, run) -> None:
    """CSV carries the scan rows only: the same input is run again in JSON,
    that certificate is checked in full, and the rows must be its rows."""
    argv = list(op.argv)
    argv[argv.index("--format") + 1] = "json"
    code, out, err = run(argv)
    need(code == 0, f"the JSON run of the same input exited {code}: {err.strip()[:200]}")
    full = json.loads(out)["result"]
    check_twist(op.spec, full)
    need(_scan_rows(result["scan"]) == _scan_rows(full["scan"]),
         "CSV scan rows differ from the rows of the JSON certificate")


def check_verify(spec, result) -> None:
    checks = result["checks"]
    need(len(checks) > 0, "no checks reported")
    failed = sum(_i(c["failed"]) for c in checks)
    need(failed == 0, f"verify reports {failed} failures")
    need(_i(result.get("total_failed", 0)) == 0, "total_failed is not 0")


def _check_entry(entry, name) -> None:
    n, h, c1h = CATALOG[name]
    got = (_i(entry["dim"]), _i(entry["h_top"]), _i(entry["c1_dot_h"]), _i(entry["genus"]))
    need(entry["name"] == name and got == (n, h, c1h, genus(n, h, c1h)), f"catalog entry {name}: {got}")


def check_catalog_show(spec, result) -> None:
    _check_entry(result["entry"], spec["name"])


def check_catalog_list(spec, result) -> None:
    entries = result["entries"]
    need(sorted(e["name"] for e in entries) == sorted(CATALOG), "catalog names")
    for entry in entries:
        _check_entry(entry, entry["name"])


def check_approx(node) -> None:
    """Every float companion equals the float of its exact value."""
    if isinstance(node, list):
        for item in node:
            check_approx(item)
    elif isinstance(node, dict):
        for key, value in node.items():
            if key.endswith("_approx"):
                exact = node.get(key[:-len("_approx")])
                need(exact is not None and float(str(value)) == float(_q(exact)),
                     f"{key}={value} disagrees with {exact}")
            else:
                check_approx(value)


CHECKS = {
    "bound": check_bound, "check": check_check, "twist": check_twist, "verify": check_verify,
    "catalog-show": check_catalog_show, "catalog-list": check_catalog_list,
}


def check(op, code, out: str, err: str, run=None):
    """None if the op's answer is right, else the reason it is wrong.  run(argv)
    -> (exit code, stdout, stderr) calls the program again; CSV twist
    certificates need it."""
    if code != op.expect:
        return f"exit {code}, documented {op.expect}: {err.strip()[:200]}"
    if op.expect != 0:
        if out:
            return "an error wrote to stdout"
        if not err.startswith("error: ") or err.count("\n") != 1:
            return f"expected one 'error:' line on stderr, got {err[:200]!r}"
        return None
    try:
        result = decode(op, out)
        if op.kind == "twist" and op.fmt == "csv":
            check_twist_csv(op, result, run)
        else:
            CHECKS[op.kind](op.spec, result)
        check_approx(result)
    except Wrong as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable {op.fmt} answer: {type(exc).__name__}: {exc}"
    return None


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def check_pass(workload: str, seed: int, pass_no: int, pass_dir: str) -> dict:
    from syzstab import cli
    ops, _ = workloads.generate(workload, seed, pass_no, pass_dir, write=False)
    with open(os.path.join(pass_dir, "records.json"), encoding="utf-8") as fh:
        records = json.load(fh)
    failed = []
    with open(os.path.join(pass_dir, "out.txt"), "rb") as out, \
         open(os.path.join(pass_dir, "err.txt"), "rb") as err:
        for i, (op, (outcome, o0, o1, e0, e1)) in enumerate(zip(ops, records)):
            out.seek(o0)
            err.seek(e0)
            text, etext = out.read(o1 - o0).decode(), err.read(e1 - e0).decode()
            if isinstance(outcome, str):
                reason = outcome
            elif _call(cli.main, op.argv) != (outcome, text, etext):
                reason = "a repeat of the op gave another exit code or output"
            else:
                reason = check(op, outcome, text, etext, lambda argv: _call(cli.main, argv))
            if reason:
                failed.append([i, f"{' '.join(op.argv)}: {reason}"])
    return {"checked": len(records), "failed": failed}


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    w, s, p, d = sys.argv[1:]
    print(json.dumps(check_pass(w, int(s), int(p), d)))
