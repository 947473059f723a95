"""Polarized-variety and sheaf data, plus the built-in example catalog.

A Variety records the dimension n, the top self-intersection number of
the polarizing divisor, and the intersection number of the anticanonical
class with its (n-1)-st power.  The sectional genus is always derived
from those three by adjunction, never accepted from the user, so an
inconsistent quadruple cannot be constructed.

The catalog is the literal table `_CATALOG` below: one (name, dim,
h_top, c1_dot_h) row per variety, sorted by name, which is the order
`syzstab catalog` prints.  Each row goes through make_variety, so its
genus is derived and checked like any user's.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InconsistentInputError, InvalidVarietyError, UnknownVarietyError, UsageError
from .exactnum import parse_rational
from .record import Record


class Variety(Record):
    name: str
    dim: int
    h_top: int
    c1_dot_h: int
    genus: int


def derive_genus(dim: int, h_top: int, c1_dot_h: int) -> int:
    """Sectional genus by adjunction: g = 1 + ((dim-1)*h_top - c1_dot_h)/2.

    The curve in question is cut out by dim-1 general members of the
    polarizing system, so its genus must be a nonnegative integer; parity
    and sign violations mean the input numbers describe nothing.
    """
    if dim < 1:
        raise InvalidVarietyError(f"dim must be >= 1, got {dim}")
    if h_top < 1:
        raise InvalidVarietyError(f"h_top must be >= 1, got {h_top}")
    twice = (dim - 1) * h_top - c1_dot_h
    if twice % 2 != 0:
        raise InvalidVarietyError(
            f"genus integrality fails: (dim-1)*h_top - c1_dot_h = {twice} is odd"
        )
    g = 1 + twice // 2
    if g < 0:
        raise InvalidVarietyError(f"derived genus is negative: {g}")
    return g


def make_variety(name: str, dim: int, h_top: int, c1_dot_h: int) -> Variety:
    return Variety(name, dim, h_top, c1_dot_h, derive_genus(dim, h_top, c1_dot_h))


_CATALOG = {
    name: make_variety(name, dim, h_top, c1_dot_h)
    for name, dim, h_top, c1_dot_h in (
        ("P1", 1, 1, 2),
        ("P2", 2, 1, 3),
        ("P3", 3, 1, 4),
        ("P4", 4, 1, 5),
        ("P5", 5, 1, 6),
        ("cubic-surface", 2, 3, 3),
        ("delpezzo-1", 2, 1, 1),
        ("delpezzo-2", 2, 2, 2),
        ("delpezzo-3", 2, 3, 3),
        ("delpezzo-4", 2, 4, 4),
        ("delpezzo-5", 2, 5, 5),
        ("delpezzo-6", 2, 6, 6),
        ("delpezzo-7", 2, 7, 7),
        ("delpezzo-8", 2, 8, 8),
        ("delpezzo-9", 2, 9, 9),
        ("quadric-surface", 2, 2, 4),
        ("quartic-K3", 2, 4, 0),
        ("quintic-surface", 2, 5, -5),
    )
}


def catalog_names() -> list[str]:
    return list(_CATALOG)


def catalog_entries() -> list[Variety]:
    return list(_CATALOG.values())


def catalog_lookup(name: str) -> Variety:
    try:
        return _CATALOG[name]
    except KeyError:
        raise UnknownVarietyError(
            f"unknown variety {name!r}; available: {', '.join(catalog_names())}"
        ) from None


class SheafSpec(Record):
    """Rank and degree of the sheaf, with optional section data.

    Section data comes in two flavors: a directly known h0, or a Hilbert
    polynomial (coefficients, constant first) together with the twist
    threshold from which the polynomial counts sections.
    """

    rank: int
    degree: int
    sections: int | None = None
    hilbert: tuple[Fraction, ...] | None = None
    regularity: int | None = None

    def __post_init__(self):
        if self.rank < 1:
            raise InconsistentInputError(f"rank must be >= 1, got {self.rank}")
        if self.sections is not None and self.sections < 0:
            raise InconsistentInputError(f"h0 must be >= 0, got {self.sections}")
        if (self.hilbert is None) != (self.regularity is None):
            raise UsageError("hilbert coefficients and regularity must be given together")


def _is_json_int(value) -> bool:
    """True for a JSON integer; a bool is not one, and nothing is rounded."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_problem(data: dict) -> tuple[Variety, SheafSpec]:
    """Decode the input-file schema: {"variety": {...}, "sheaf": {...}}.

    A variety block naming a catalog entry may omit the numeric fields;
    if it supplies them too they must agree with the catalog.
    """
    if not isinstance(data, dict):
        raise UsageError("input must be a JSON object")
    vblock, sblock = data.get("variety"), data.get("sheaf")
    if not isinstance(vblock, dict) or not isinstance(sblock, dict):
        raise UsageError('input must contain "variety" and "sheaf" objects')

    name = vblock.get("name")
    if name is not None and not isinstance(name, str):
        raise UsageError('variety "name" must be a string')
    numeric = {k: vblock[k] for k in ("dim", "h_top", "c1_dot_h") if k in vblock}
    if not all(_is_json_int(v) for v in numeric.values()):
        raise UsageError('variety "dim", "h_top" and "c1_dot_h" must be integers')
    if name is not None and not numeric:
        variety = catalog_lookup(name)
    elif len(numeric) == 3:
        variety = make_variety(name or "custom", numeric["dim"], numeric["h_top"], numeric["c1_dot_h"])
        stock = _CATALOG.get(name)
        if stock is not None and (stock.dim, stock.h_top, stock.c1_dot_h) != (
            variety.dim, variety.h_top, variety.c1_dot_h
        ):
            raise InconsistentInputError(f"variety block for {name!r} disagrees with the catalog entry")
    else:
        raise UsageError('variety block needs "name" or all of "dim", "h_top", "c1_dot_h"')

    rank, degree = sblock.get("rank"), sblock.get("degree")
    if not (_is_json_int(rank) and _is_json_int(degree)):
        raise UsageError('sheaf block needs integer "rank" and "degree"')
    hilbert = None
    if "hilbert" in sblock:
        if not isinstance(sblock["hilbert"], list):
            raise UsageError('sheaf "hilbert" must be a list of coefficients')
        try:
            hilbert = tuple(parse_rational(str(c)) for c in sblock["hilbert"])
        except ValueError as exc:
            raise UsageError(f"bad hilbert coefficient list: {exc}") from None
    regularity, sections = sblock.get("regularity"), sblock.get("h0")
    if not all(v is None or _is_json_int(v) for v in (regularity, sections)):
        raise UsageError('sheaf "regularity" and "h0" must be integers')
    spec = SheafSpec(rank, degree, sections=sections, hilbert=hilbert, regularity=regularity)
    return variety, spec
