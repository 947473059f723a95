"""Command-line surface.

Subcommands: bound, check, twist, catalog, verify.  Output is JSON by
default and is byte-identical across runs for identical invocations;
every Rational is printed exactly as p/q, and --approx adds float
companions to the values of the result, never to the echoed input,
without ever dropping the exact value.  Each handler returns its input
echo, its result and its exit code; main wraps them in one report.

main(argv) returns the exit code of one call, 0 after --help too, and
may be called repeatedly in one process: every call parses with the
parsers built at import and keeps no state between calls.  An argv that
starts with a command is read straight from that command parser's own
option strings (_read) when it is regular: catalog's optional
positionals first, then every token a whole option string, each value
apart from its flag and passing the flag's type and choices.  Every
other argv goes to argparse: one that starts with a command to that
command's parser (help, an abbreviation, --flag=value, "--", a
positional elsewhere, a missing or failed value), any other (empty,
--help, an unknown name) to the top-level parser.  argparse writes all
help and error text, and both routes give the same Namespace.  A token
of "-" and a digit, or "-." and a digit, is always a value, never an
option: -8, -.5, a degree range with a negative start (-3..10), a
negative p/q and a coefficient list that starts with one (-30,3/2), also
when malformed, so that the flag's own check reports it.

The walkers from a result to a report (_plain, _with_approx, _flatten)
and the one JSON emitter dispatch on exact types.  _plain tests the
exact types int, str, bool, Fraction, list and tuple, then an enum,
then a result type's field tuple; a subclass of one of those six, which
no result holds, is not taken for it.  The emitter writes every report
byte for byte as json.dumps(report, sort_keys=True, indent=2) would.  It
walks every dict and list item by item, except two results that it
writes whole: the rows of a bound sweep and a twist certificate.

A twist result is printed once, from the integers of the search
(twist._certify), into one printed form (_Certificate): each rational
is its reduced p/q text, made from its numerator and denominator by
exactnum._ratio_text, the gcd helper of Poly.to_strings, and each int
is kept.  The form has three readers.  The JSON writer
(_certificate_json) fills one template, built from its pad, with it;
the CSV writer prints each scan row with one f-string; the table form
and --approx read the dict that _certificate_dict builds from it, as
they read a bound's row dicts.  The texts are made, and each writer
makes its text, inside _printed, before any byte is written.

A bound result is a list of sweep rows (branch text, core, degree,
value), one per degree, built with no Fraction or dict, and every format
reads them from one lazy iterator.  The degree is an int, and so are the
core and value of a row whose reduced denominator is 1; other rows hold
them as p/q text.  The handler takes the sweep's tail from
bounds.tail_columns once: its first degree, denominator D, columns and
one bound on their integers.  The row printer (_sweep_rows) reduces the
rows below the tail, and a tail with D > 1, by one gcd per row; a tail
with D == 1 is in lowest terms, and its columns reach the writers as
they come off the difference table, with no Python frame per row.  Each
writer prints a row with one f-string.  _printed, the one place that
turns an int past the int-to-string digit limit into an error, lists the
rows and makes their text: row dicts for a single degree, the table form
and --approx; chunks of _CHUNK rows for a streamed sweep; the whole list
for any other.  A JSON or CSV sweep of more than one chunk is streamed
when the tail's bound shows that every row after its first chunk prints
(_streams); its first chunk is printed before any byte is written, so
every error comes before any output.  Any other report is written once.

Exit codes: 0 success, 1 usage error, 2 verification failure,
3 inconsistent mathematical input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from enum import Enum
from fractions import Fraction
from itertools import chain, islice, repeat

from .bounds import BoundForm, Branch, _sections_ratio, sweep_ratios, tail_columns
from .errors import InconsistentInputError, UsageError
from .exactnum import _ratio_text, format_rational, parse_rational, too_many_digits
from .stability import check_stability
from .twist import HilbertPoly, Poly, _certify, validate_hilbert
from .varieties import SheafSpec, Variety, catalog_entries, catalog_lookup, make_variety, parse_problem
from .verify import run_suite

_DEGREES_RE = re.compile(r"^(-?\d+)(?:\.\.(-?\d+))?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token of "-" and a digit, or "-." and a digit, is a value (see
        # the module docstring); no option starts that way
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)


def _read(parser: _Parser, argv) -> argparse.Namespace | None:
    """The Namespace of a regular argv of a command parser, read straight
    from the parser's own option strings: the parser's optional
    positionals (catalog's action and name), each a token that does not
    start with "-" and passes its action's choices, come first; every
    later token is a whole option string, of a store_true action or of a
    store action of one value followed by that value, a value that starts
    with "-" reads as a number (_Parser), and each value passes its
    action's type and choices.  None for any other argv, which the parser
    then reads: help, abbreviations, --flag=value, "--", a positional
    after an option or past the parser's, a missing or failing value."""
    values = parser.defaults.copy()
    actions, is_value = parser._option_string_actions, parser._negative_number_matcher.match
    given = 0
    for action, token in zip(parser.positionals, argv):
        if token.startswith("-"):
            break
        if action.choices is not None and token not in action.choices:
            return None
        values[action.dest] = token
        given += 1
    tokens = iter(argv[given:])
    for token in tokens:
        action = actions.get(token)
        kind = type(action)
        if kind is argparse._StoreTrueAction:
            values[action.dest] = True
            continue
        if kind is not argparse._StoreAction or action.nargs is not None:
            return None
        value = next(tokens, None)
        if value is None or value.startswith("-") and not is_value(value):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return argparse.Namespace(**values)


def build_parser() -> _Parser:
    output = _Parser(add_help=False)
    output.add_argument("--format", choices=("json", "table", "csv"), default="json")
    output.add_argument("--approx", action="store_true",
                        help="add float companions next to exact rationals")

    source = _Parser(add_help=False)
    source.add_argument("--catalog", metavar="NAME")
    source.add_argument("--dim", type=int)
    source.add_argument("--h-top", type=int)
    source.add_argument("--c1-h", type=int)
    source.add_argument("--input", metavar="FILE",
                        help="JSON problem file; excludes the flag route")

    parser = _Parser(prog="syzstab",
                     description="Exact section bounds, stability certificates, "
                                 "and minimal stable twists")
    sub = parser.add_subparsers(dest="command")
    parser.commands = sub.choices  # name -> its parser, for main's dispatch

    p_bound = sub.add_parser("bound", parents=[source, output],
                             help="upper bound on global sections")
    p_bound.add_argument("--rank", type=int)
    p_bound.add_argument("--degree", help="integer or range a..b")
    p_bound.add_argument("--form", choices=("lemma", "simplified"), default="simplified")

    p_check = sub.add_parser("check", parents=[source, output],
                             help="stability certificate for a syzygy sheaf")
    p_check.add_argument("--rank", type=int)
    p_check.add_argument("--degree", type=int)
    p_check.add_argument("--h0", type=int)
    p_check.add_argument("--hilbert", metavar="C0,C1,...")
    p_check.add_argument("--regularity", type=int)
    p_check.add_argument("--twist", type=int)

    p_twist = sub.add_parser("twist", parents=[source, output],
                             help="minimal certified stable twist")
    p_twist.add_argument("--rank", type=int)
    p_twist.add_argument("--degree", type=int)
    p_twist.add_argument("--hilbert", metavar="C0,C1,...")
    p_twist.add_argument("--regularity", type=int)

    p_catalog = sub.add_parser("catalog", parents=[output],
                               help="list or show built-in varieties")
    p_catalog.add_argument("action", nargs="?", choices=("list", "show"), default="list")
    p_catalog.add_argument("name", nargs="?")

    p_verify = sub.add_parser("verify", parents=[output],
                              help="run the invariant suite")
    p_verify.add_argument("--grid", choices=("small", "full"), default="small")
    p_verify.add_argument("--seed", type=int, default=0)

    for command in parser.commands.values():  # what argparse sets first, for _read
        command.defaults = {action.dest: action.default for action in command._actions
                            if action.default is not argparse.SUPPRESS}
        command.positionals = [action for action in command._actions if not action.option_strings]
    return parser


def _parse_degrees(text: str) -> range:
    m = _DEGREES_RE.match(text)
    if m is None:
        raise UsageError(f"--degree must be an integer or a range a..b, got {text!r}")
    try:
        lo = int(m.group(1))
        hi = lo if m.group(2) is None else int(m.group(2))
    except ValueError:  # past the interpreter's int-from-string digit limit
        raise UsageError(f"--degree has more than {sys.get_int_max_str_digits()} digits") from None
    if lo > hi:
        raise UsageError(f"empty degree range {text!r}")
    return range(lo, hi + 1)


def _parse_hilbert(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(parse_rational(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --hilbert coefficient list: {exc}") from None


def _variety_from_flags(args) -> Variety:
    if args.catalog is not None:
        if args.dim is not None or args.h_top is not None or args.c1_h is not None:
            raise UsageError("give --catalog or the --dim/--h-top/--c1-h triple, not both")
        return catalog_lookup(args.catalog)
    triple = (args.dim, args.h_top, args.c1_h)
    if any(v is None for v in triple):
        raise UsageError("give --catalog NAME or all of --dim, --h-top, --c1-h")
    return make_variety("custom", *triple)


def _forbid_flags_with_input(args, names) -> None:
    clashing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n, None) is not None]
    if clashing:
        raise UsageError(f"--input excludes {', '.join(clashing)}")


_SHEAF_FLAGS = ("rank", "degree", "h0", "hilbert", "regularity")


def _resolve(args) -> tuple[Variety, SheafSpec, range]:
    """The problem of a bound, check or twist call, from --input or from
    flags; the only reader of the sheaf flags.  Both routes build the
    SheafSpec through its own checks.  The degrees are the spec's degree,
    or bound's a..b range."""
    if args.input is not None:
        _forbid_flags_with_input(args, ("catalog", "dim", "h_top", "c1_h") + _SHEAF_FLAGS)
        try:
            with open(args.input, encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"input file is not valid JSON: {exc}") from None
        except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, or an int past the digit limit
            raise UsageError(f"cannot read input file: {exc}") from None
        variety, spec = parse_problem(data)
        return variety, spec, range(spec.degree, spec.degree + 1)
    variety = _variety_from_flags(args)
    if args.degree is None:
        raise UsageError("--degree is required")
    degrees = (_parse_degrees(args.degree) if isinstance(args.degree, str)
               else range(args.degree, args.degree + 1))
    hilbert, regularity = getattr(args, "hilbert", None), getattr(args, "regularity", None)
    if hilbert is not None:
        if regularity is None:
            raise UsageError("--hilbert needs --regularity")
        hilbert = _parse_hilbert(hilbert)
    spec = SheafSpec(1 if args.rank is None else args.rank, degrees[0],
                     sections=getattr(args, "h0", None), hilbert=hilbert, regularity=regularity)
    return variety, spec, degrees


def _plain(obj):
    """A result as JSON values: an int, bool or str stays, a Fraction becomes
    its exact string, an enum its value, math.inf "+inf", a list or tuple a
    list, and a result type (a record.Record, or verify.CheckResult) a dict of
    the fields in its `_fields` tuple that are not None.  Dispatch: module doc."""
    t = type(obj)
    if t is int or t is str or t is bool:
        return obj
    if t is Fraction:
        return format_rational(obj)
    if t is list or t is tuple:
        return [_plain(item) for item in obj]
    if isinstance(obj, Enum):
        return obj.value
    fields = getattr(t, "_fields", None)
    if fields is not None:
        out = {}
        for name in fields:
            if (value := getattr(obj, name)) is not None:  # an int or str as it is
                out[name] = value if type(value) is int or type(value) is str else _plain(value)
        return out
    if isinstance(obj, float) and obj == math.inf:  # the slope of a rank-0 sheaf
        return "+inf"
    raise TypeError(f"no JSON form for {type(obj).__name__} {obj!r}")


def _require_rank_one(rank: int) -> None:
    if rank != 1:
        raise UsageError(
            "stability certificates support rank 1 only: for rank >= 2 the "
            "required inequalities cannot hold at any sufficiently large twist"
        )


# The columns of a sweep row, sorted as JSON and CSV write them.
_SWEEP_COLUMNS = ("branch", "core", "degree", "value")

# The rows a streamed sweep prints and writes at a time (see _cmd_bound).
_CHUNK = 1024


class _SweepRows(list):
    """The rows of a bound result, each a sweep row (_SWEEP_COLUMNS).
    render_json and render_csv print them with one f-string per row, with
    no per-row dict or check: every column is an int, p/q text or a Branch
    value, so none needs escaping or quoting.  The first chunk of a
    streamed sweep yields the chunks after it from rest, each a _SweepRows
    listed when it is read."""

    rest = ()


def _sweep_rows(ratios, rank: int):
    """Yield sweep_ratios' rows as sweep rows, with a gcd on each row over a
    denominator other than 1: value - core is a multiple of the denominator
    unless the value is floored at rank, and then it is rank, so the value
    reduces by the core's gcd.  Branch text is read once per branch run."""
    gcd = math.gcd
    branch = text = None
    for d, row_branch, core, value, den in ratios:
        if row_branch is not branch:
            branch, text = row_branch, row_branch.value
        g = 1 if den == 1 else gcd(core, den)
        if g != 1:
            core, value, den = core // g, value // g, den // g
        if den == 1:
            yield text, core, d, value
        else:
            yield text, f"{core}/{den}", d, rank if value == rank * den else f"{value}/{den}"


def _printed(make, rows, *args):
    """make(rows, *args), which lists sweep rows, prints a twist certificate
    or makes their text: the one place where an int past the int-to-string
    digit limit is too_many_digits()."""
    try:
        return make(rows, *args)
    except ValueError:  # past the int-to-string digit limit
        raise too_many_digits() from None


def _streams(degrees: range, tail: tuple) -> bool:
    """True when a sweep has more than one chunk and every row after the
    first chunk is sure to print, so that the first chunk, printed before
    any byte is written, holds every error.  The rows below the tail's
    first degree (bounds.tail_columns) are known to print only once
    printed, so they must lie in the first chunk.  From there on a row's
    integers are at most the tail's bound; they print when that bound has
    no more digits than the int-to-string limit."""
    first, _, _, _, bound = tail
    if degrees.stop - degrees.start <= _CHUNK or first - degrees.start > _CHUNK:
        return False
    # 0 means no limit; CPython before 3.10.7 has none
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    # bound < 2**bits <= 10**limit, as 3.321 < log2(10)
    return not limit or bound.bit_length() * 1000 <= limit * 3321


def _cmd_bound(args) -> tuple[dict, dict, int]:
    variety, spec, degrees = _resolve(args)
    form = BoundForm.LEMMA if args.form == "lemma" else BoundForm.SIMPLIFIED
    rank, tail = spec.rank, tail_columns(variety, spec.rank, degrees, form)
    first, den, cores, values, _ = tail
    single = degrees.stop - degrees.start == 1  # len() fails past sys.maxsize
    reduced = range(degrees.start, first) if den == 1 else degrees  # D == 1: lowest terms (bounds)
    printed = _sweep_rows(sweep_ratios(variety, rank, reduced, form, tail), rank)
    if reduced.stop < degrees.stop:  # an integer tail, handed on as its columns
        printed = chain(printed, zip(repeat(Branch.RIEMANN_ROCH.value), cores,
                                     range(first, degrees.stop), values))
    if single or args.approx or args.format == "table":  # these read row dicts
        rows = _printed(lambda it: [{"degree": d, "branch": branch, "value": f"{value}",
                                     "core": f"{core}"} for branch, core, d, value in it], printed)
    elif _streams(degrees, tail):
        rows = _printed(_SweepRows, islice(printed, _CHUNK))
        rows.rest = iter(lambda: _SweepRows(islice(printed, _CHUNK)), [])  # all print (_streams)
    else:
        rows = _printed(_SweepRows, printed)
    result = rows[0] if single else {"results": rows}
    sheaf_echo = {"rank": rank,
                  "degree": spec.degree if single else f"{degrees.start}..{degrees.stop - 1}"}
    return {"variety": _plain(variety), "sheaf": sheaf_echo, "form": form.value}, result, 0


def _cmd_check(args) -> tuple[dict, dict, int]:
    variety, spec, _ = _resolve(args)
    _require_rank_one(spec.rank)
    degree, h0, regularity = spec.degree, spec.sections, spec.regularity

    sheaf_echo: dict = {"rank": spec.rank, "degree": degree}
    if h0 is not None and spec.hilbert is not None:
        raise UsageError("give a known h0 or the hilbert route, not both")
    if h0 is None:
        if spec.hilbert is None:
            raise UsageError("give --h0, or --hilbert with --regularity and --twist")
        if args.twist is None:
            raise UsageError("the hilbert route needs --twist K to pick the section count")
        hp = HilbertPoly(Poly(spec.hilbert), regularity)
        validate_hilbert(variety, degree, hp)
        if args.twist < regularity:
            raise UsageError(
                f"twist {args.twist} is below the stated regularity {regularity}; "
                "the polynomial is not certified to count sections there"
            )
        value = hp.poly(args.twist)
        if value.denominator != 1:
            raise InconsistentInputError(
                f"hilbert polynomial is not an integer at k = {args.twist}: {value}"
            )
        h0 = int(value)
        degree = degree + args.twist * variety.h_top
        sheaf_echo.update(hilbert=list(hp.poly.to_strings()), regularity=regularity,
                          twist=args.twist)
    else:
        if args.twist is not None:
            raise UsageError("--twist only applies to the hilbert route")
        sheaf_echo["h0"] = h0

    rep = check_stability(variety, degree, h0)
    *_, cap, den = _sections_ratio(variety.dim, variety.h_top, variety.genus, 1, degree, 1,
                                   BoundForm.SIMPLIFIED)  # sections_bound(...).value is cap/den
    if h0 * den > cap:
        raise InconsistentInputError(f"h0 = {h0} exceeds the section bound "
                                     f"{format_rational(Fraction(cap, den))} at degree {degree}")
    result = _plain(rep)
    result["h0"] = result.pop("sections")
    return {"variety": _plain(variety), "sheaf": sheaf_echo}, result, 0


class _Certificate(tuple):
    """A twist certificate printed from the search's integers
    (twist._certify): (names, k_min, cauchy, start, c, k_pos, regularity,
    polys, shift, scan, notes).  names is ("F",), or ("F", "G") when the
    genus is at least 2; polys and shift hold a list of coefficient texts
    per name; a scan row is (k, one value text per name, passed).  Each
    rational is its reduced p/q text (exactnum._ratio_text), each int is
    itself.  Its readers: _certificate_json, _certificate_csv and
    _certificate_dict (the table form and --approx)."""

    __slots__ = ()


def _print_certificate(certified, regularity: int) -> _Certificate:
    """The kernel's result printed: each rational's text made once."""
    polys, start, c, (num, den), shifted, rows, notes, k_min = certified
    conds = [p for p in (polys.cond2, polys.cond1) if p is not None]
    denoms = [p._denom for p in conds]
    return _Certificate((
        ("F", "G")[:len(conds)], k_min, _ratio_text(num, den), start, c, polys.k_pos, regularity,
        [p.to_strings() for p in conds],
        [[_ratio_text(a, d) for a in nums] for d, nums in zip(denoms, shifted)],
        [(k, [_ratio_text(v, d) for v, d in zip(values, denoms)], passed)
         for k, values, passed in rows],
        notes))


def _certificate_dict(cert: _Certificate) -> dict:
    """The certificate's result as the table form and --approx read it,
    with the printed texts and ints of cert."""
    names, k_min, cauchy, start, c, k_pos, regularity, polys, shift, scan, notes = cert
    return {
        "k_min": k_min,
        "cauchy_bound": cauchy,
        "scanned_range": [start, c],
        "shift": {"c": c, **dict(zip(names, shift))},
        "k_pos": k_pos,
        "regularity": regularity,
        "condition_polys": dict(zip(names, polys)),
        "scan": [{"k": k, **dict(zip(names, texts)), "passed": passed} for k, texts, passed in scan],
        "notes": notes,
    }


def _cmd_twist(args) -> tuple[dict, dict | _Certificate, int]:
    variety, spec, _ = _resolve(args)
    _require_rank_one(spec.rank)
    if spec.hilbert is None:
        raise UsageError("twist needs --hilbert and --regularity")

    hp = HilbertPoly(Poly(spec.hilbert), spec.regularity)
    cert = _printed(_print_certificate, _certify(variety, spec.degree, hp), spec.regularity)
    sheaf_echo = {"rank": spec.rank, "degree": spec.degree,
                  "hilbert": hp.poly.to_strings(), "regularity": spec.regularity}
    result = _certificate_dict(cert) if args.approx or args.format == "table" else cert
    return {"variety": _plain(variety), "sheaf": sheaf_echo}, result, 0


def _cmd_catalog(args) -> tuple[dict, dict, int]:
    if args.action == "show":
        if args.name is None:
            raise UsageError("catalog show needs a NAME")
        result = {"entry": _plain(catalog_lookup(args.name))}
    else:
        if args.name is not None:
            raise UsageError("catalog list takes no NAME")
        result = {"entries": _plain(catalog_entries())}
    return {"action": args.action}, result, 0


def _cmd_verify(args) -> tuple[dict, dict, int]:
    checks = run_suite(grid=args.grid, seed=args.seed)
    total_failed = sum(c.failed for c in checks)
    result = {"checks": _plain(checks), "total_passed": sum(c.passed for c in checks),
              "total_failed": total_failed}
    return {"grid": args.grid, "seed": args.seed}, result, 0 if total_failed == 0 else 2


_RATIONAL_VALUE_RE = re.compile(r"^-?\d+/\d+$")


def _with_approx(obj):
    if type(obj) is list:
        return [_with_approx(item) for item in obj]
    if type(obj) is not dict:
        return obj
    out = {}
    for key, value in obj.items():
        t = type(value)  # only an exact dict or list is walked, only a p/q string matched
        out[key] = _with_approx(value) if t is dict or t is list else value
        if t is str and "/" in value and _RATIONAL_VALUE_RE.match(value):
            try:
                out[f"{key}_approx"] = float(Fraction(value))
            except OverflowError:
                raise UsageError(f"--approx: {key} is too large for a float") from None
    return out


def _flatten(obj, prefix: str, rows: list) -> list[tuple[str, str]]:
    if isinstance(obj, dict):
        for key in sorted(obj):
            if type(value := obj[key]) is str or type(value) is int:  # a leaf, appended here
                rows.append((f"{prefix}{key}", str(value)))
            else:
                _flatten(value, f"{prefix}{key}.", rows)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            _flatten(item, f"{prefix}{i}.", rows)
    else:
        rows.append((prefix[:-1], "true" if obj is True else "false" if obj is False else str(obj)))
    return rows


_json_str = json.encoder.encode_basestring_ascii


def _certificate_json(cert: _Certificate, pad: str) -> str:
    """cert as _emit_json writes its dict (_certificate_dict), pad being
    the newline and indent of its own line: one template around its
    fields, built from pad.  The texts and ints need no escaping; the
    notes are escaped.  Every list is non-empty: F and G have degree at
    least 2, and there is a row at c and a first note."""
    names, k_min, cauchy, start, c, k_pos, regularity, polys, shift, scan, notes = cert
    p1 = pad + "  "
    p2 = p1 + "  "
    p3 = p2 + "  "
    item, key = f'",{p3}"', f",{p2}"

    def block(lists):  # the lists of texts of F and G, as the values of a dict at p1
        return key.join([f'"{name}": [{p3}"{item.join(texts)}"{p2}]'
                         for name, texts in zip(names, lists)])

    # a row: F's value, then G's when there is one, k and passed
    head, to_g, to_k, to_passed, end = (f'{{{p3}"F": "', f'",{p3}"G": "', f'",{p3}"k": ',
                                        f',{p3}"passed": ', f"{p2}}}")
    rows = key.join([f'{head}{to_g.join(texts)}{to_k}{k}{to_passed}{"true" if passed else "false"}{end}'
                     for k, texts, passed in scan])
    return (f'{{{p1}"cauchy_bound": "{cauchy}",{p1}"condition_polys": {{{p2}{block(polys)}{p1}}},'
            f'{p1}"k_min": {k_min},{p1}"k_pos": {k_pos},'
            f'{p1}"notes": [{p2}{key.join(map(_json_str, notes))}{p1}],'
            f'{p1}"regularity": {regularity},{p1}"scan": [{p2}{rows}{p1}],'
            f'{p1}"scanned_range": [{p2}{start},{p2}{c}{p1}],'
            f'{p1}"shift": {{{p2}{block(shift)},{p2}"c": {c}{p1}}}{pad}}}')


def _certificate_csv(cert: _Certificate) -> str:
    """The scan rows of cert as render_csv writes a list of row dicts:
    one f-string per row under the header of its sorted columns."""
    names, *_, scan, _ = cert
    return ",".join(names) + ",k,passed\n" + "".join(
        [f'{",".join(texts)},{k},{"True" if passed else "False"}\n' for k, texts, passed in scan])


def _write_rows(rows: _SweepRows, pad: str, out: list) -> None:
    """Append rows, a non-empty _SweepRows, as _emit_json writes a list of
    dicts: one f-string per row, around its columns a head for its branch,
    two middles and an end, built from pad once; degree is written as a
    number, the other columns between double quotes.  A streamed sweep
    writes out, its first chunk included, to stdout and empties it, then
    writes each later chunk as it is printed."""
    inner, key_pad = pad + "  ", pad + "    "
    heads = {b.value: f'{inner}{{{key_pad}"branch": "{b.value}",{key_pad}"core": "' for b in Branch}
    to_degree, to_value, end = f'",{key_pad}"degree": ', f',{key_pad}"value": "', f'"{inner}}}'

    def text(chunk):
        return ",".join([f"{heads[branch]}{core}{to_degree}{degree}{to_value}{value}{end}"
                         for branch, core, degree, value in chunk])

    out.extend(("[", _printed(text, rows)))
    if rows.rest:
        write = sys.stdout.write
        write("".join(out))
        out.clear()
        for chunk in rows.rest:
            write("," + text(chunk))  # each later row follows one before it
    out.append(pad + "]")


def _emit_json(obj, pad: str, out: list) -> None:
    """Append obj to out in parts, as json.dumps(obj, sort_keys=True,
    indent=2) writes it; pad is the newline and indent of obj's own line.
    obj is built of the exact types str, int, float (finite), bool, None,
    dict (with str keys), list and tuple; a tuple is written as a list,
    and an int or a float by its repr.  The rows of a bound sweep
    (_SweepRows) are written whole (_write_rows), and so is a twist
    certificate (_certificate_json); any other list item by item."""
    t = type(obj)
    if t is str:
        out.append(_json_str(obj))
    elif t is int:
        out.append(int.__repr__(obj))
    elif t is dict:
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(f"{sep}{_json_str(key)}: ")
            _emit_json(obj[key], inner, out)
            sep = "," + inner
        out.append(pad + "}")
    elif t is list or t is tuple:
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _emit_json(item, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif obj is None:
        out.append("null")
    elif t is float:
        out.append(float.__repr__(obj))
    elif t is _SweepRows:
        _write_rows(obj, pad, out)
    elif t is _Certificate:
        out.append(_printed(_certificate_json, obj, pad))
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def render_json(report: dict) -> str:
    """The report as JSON; a streamed sweep writes all of it up to its last
    row to stdout (_write_rows) and returns the text after that row."""
    out: list = []
    _emit_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


def render_table(report: dict) -> str:
    rows = _flatten(report, "", [])
    width = max([len(k) for k, _ in rows])
    return "".join([f"{k.ljust(width)}  {v}\n" for k, v in rows])


def render_csv(report: dict) -> str:
    """The result's list of rows (a sweep's, the catalog's, verify's checks
    or a twist's scan) as CSV, one column per key; any other result is one
    row of its flattened fields.  Each sweep row is one f-string; a streamed
    sweep writes each chunk to stdout once printed, and returns ""."""
    result = report["result"]
    if type(result) is _Certificate:
        return _printed(_certificate_csv, result)
    for key in ("results", "entries", "checks", "scan"):
        items = result.get(key)
        if type(items) is _SweepRows:
            def text(chunk):
                return "".join([f"{branch},{core},{degree},{value}\n"
                                for branch, core, degree, value in chunk])

            first = ",".join(_SWEEP_COLUMNS) + "\n" + _printed(text, items)
            if not items.rest:
                return first
            write = sys.stdout.write
            write(first)
            for chunk in items.rest:
                write(text(chunk))
            return ""
        if isinstance(items, list):
            break
    else:
        items = [dict(_flatten(result, "", []))]
    if key == "checks":
        items = [{**row, "failures": "; ".join(row["failures"])} for row in items]
    columns = sorted(set().union(*items))
    rows = ([item.get(c) for c in columns] for item in items)  # None is written ""
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return sink.getvalue()


_RENDERERS = {"json": render_json, "table": render_table, "csv": render_csv}

_HANDLERS = {
    "bound": _cmd_bound,
    "check": _cmd_check,
    "twist": _cmd_twist,
    "catalog": _cmd_catalog,
    "verify": _cmd_verify,
}

_PARSER = build_parser()


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser = _PARSER.commands.get(argv[0]) if argv else None
        if parser is not None:  # parsed once, as the top-level parser would hand it on
            args = _read(parser, argv[1:]) or parser.parse_args(argv[1:])
            args.command = argv[0]
        else:
            args = _PARSER.parse_args(argv)
            if args.command is None:
                raise UsageError("a subcommand is required (bound, check, twist, catalog, verify)")
        echo, result, code = _HANDLERS[args.command](args)
        if args.approx:  # companions for the result only, never for echoed input
            result = _with_approx(result)
        report = {"command": args.command, "input": echo, "result": result}
        sys.stdout.write(_RENDERERS[args.format](report))
        return code
    except SystemExit as exc:  # only argparse exits, after printing --help
        return exc.code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InconsistentInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    code = 0
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout left (`| head`) while a streamed sweep was
        # being written, which would have exited 0: no error follows its
        # first write.  As the signal module's documentation advises, stdout
        # goes to os.devnull so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)
