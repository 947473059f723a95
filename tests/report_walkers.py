"""The walkers from a result to a report, frozen here for the tests as
syzstab.cli wrote them while they dispatched on isinstance alone.

plain, flatten and with_approx are cli._plain, cli._flatten and
cli._with_approx as they stood then, verbatim but for their names: the
differential tests in tests/test_cli.py hold the package's walkers, which
dispatch on exact types first, to the same output and the same errors,
and the sweep and result-type tests read their references from here."""

import math
import re
from enum import Enum
from fractions import Fraction

from syzstab.errors import UsageError
from syzstab.exactnum import format_rational


def plain(obj):
    """A result as JSON values: an int, bool or str stays, a Fraction becomes
    its exact string, an enum its value, math.inf "+inf", a list or tuple a
    list, and a result type (a record.Record, or verify.CheckResult) a dict of
    the fields in its `_fields` tuple that are not None."""
    if isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [plain(item) for item in obj]
    fields = getattr(type(obj), "_fields", None)
    if fields is not None:
        return {name: plain(value) for name in fields
                if (value := getattr(obj, name)) is not None}
    if isinstance(obj, float) and obj == math.inf:  # the slope of a rank-0 sheaf
        return "+inf"
    raise TypeError(f"no JSON form for {type(obj).__name__} {obj!r}")


_RATIONAL_VALUE_RE = re.compile(r"^-?\d+/\d+$")


def with_approx(obj):
    if isinstance(obj, list):
        return [with_approx(item) for item in obj]
    if not isinstance(obj, dict):
        return obj
    out = {}
    for key, value in obj.items():
        out[key] = with_approx(value)
        if isinstance(value, str) and _RATIONAL_VALUE_RE.match(value):
            try:
                out[f"{key}_approx"] = float(Fraction(value))
            except OverflowError:
                raise UsageError(f"--approx: {key} is too large for a float") from None
    return out


def flatten(obj, prefix="") -> list[tuple[str, str]]:
    rows = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            rows.extend(flatten(obj[key], f"{prefix}{key}."))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            rows.extend(flatten(item, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], "true" if obj is True else "false" if obj is False else str(obj)))
    return rows


def render_table(report) -> str:
    """cli.render_table over the frozen flatten."""
    rows = flatten(report)
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)
