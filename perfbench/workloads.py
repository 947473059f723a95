"""Seeded op lists for the three workloads.

An op is one argv for an in-process ``syzstab.cli.main`` call plus the
exit code its input class documents (0 valid, 1 malformed, 3
impossible) and the facts its answer check needs.  Inputs depend only on
the workload name, the seed, the pass number and this file, never on the
program under test, so a parent commit and a change see the same ops.

Each list is one *pass*, and every pass of a run draws fresh inputs: an op
reuses the input of an earlier pass only where a pool of inputs is finite
(the catalog, the twist strata) and has been used up, and the builder
counts those ops.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

# Catalog entries as mathematical facts: (dim, h_top, c1_dot_h).
CATALOG = {
    **{f"P{n}": (n, 1, n + 1) for n in range(1, 6)},
    "quadric-surface": (2, 2, 4),
    "cubic-surface": (2, 3, 3),
    "quartic-K3": (2, 4, 0),
    "quintic-surface": (2, 5, -5),
    **{f"delpezzo-{e}": (2, e, e) for e in range(1, 10)},
}

FORMATS = ("json", "table", "csv")


def genus(n: int, h: int, c1h: int) -> int:
    """Sectional genus by adjunction."""
    return 1 + ((n - 1) * h - c1h) // 2


def c1h_for(n: int, h: int, g: int) -> int:
    """The c1.H^(n-1) that gives sectional genus g."""
    return (n - 1) * h - 2 * (g - 1)


@dataclass
class Op:
    argv: list[str]
    expect: int                  # documented exit code
    kind: str                    # selects the answer check
    spec: dict = field(default_factory=dict)
    fmt: str = "json"


# --- input sizing -----------------------------------------------------------
# The check draw puts h0 around the stability threshold.  The threshold is
# computed here with a copy of the caps as they stood when this benchmark
# was written, so the draw never follows the program under test.

def _binom(y: Fraction, k: int) -> Fraction:
    if k == 0:
        return Fraction(1)
    if y < 0:
        return Fraction(0)
    p = Fraction(1)
    for i in range(1, k + 1):
        p *= y + i
    return p / math.factorial(k)


def _cap_high(n: int, h: int, g: int, d: int) -> Fraction:
    t = h * _binom(Fraction(d - (g - 1), h) - 1, n) - 1
    if n >= 2:
        t += (Fraction((n - 1) * (n + g - 1), n)
              * _binom(Fraction(d - (2 * g - 2), h) - 1, n - 2)
              * _binom(Fraction(2 * g - 2, h), n - 1))
    return t


def _cap_low(n: int, h: int, d: int) -> Fraction:
    return (Fraction(d, 2 * n) + 1) * _binom(Fraction(d, h), n - 1) - 1


def _threshold(n: int, h: int, g: int, d: int) -> Fraction:
    t = Fraction(d, d - 1) * _cap_high(n, h, g, d - 1)
    if g >= 2:
        t = max(t, Fraction(d, 2 * g - 2) * _cap_low(n, h, 2 * g - 2))
    return t


def _h0_cap(n: int, h: int, g: int, d: int) -> int:
    core = _cap_low(n, h, d) if d <= 2 * g - 2 else _cap_high(n, h, g, d)
    return math.floor(max(core + 1, Fraction(1)))


# Twist inputs on custom varieties, in 16 log-spaced strata of scan length
# from 10^2 to 2*10^4 rows.  Each stratum is (ops per pass, fewest rows, most
# rows, bases); a base is (dim, h_top, genus, d0), all bases of a stratum
# share the dim, and an input is a base plus lower Hilbert coefficients from
# LOWER.  The lower coefficients are free (the program checks only the top
# two) and move the scan length by a few rows.  The row counts were measured
# when this benchmark was written; they size the workload and are no
# baseline.  Smaller scans get more ops, so a pass holds 100 ops (p90 has 10
# beyond it) and still runs in a few seconds.  A stratum's ops are shared
# out over its bases in order, the same way every pass, and only the lower
# coefficients are drawn: the cost of an op depends on its base far more
# than on its row count, so a fixed mix of bases keeps p50 and p90 from
# moving with the draw.
TWIST_STRATA = (
    (24, 108, 126, ((2, 1, 7, 0), (2, 1, 7, 1), (2, 2, 8, 3), (2, 2, 10, 1), (2, 2, 10, 2),
                    (2, 3, 12, 1), (2, 3, 12, 2), (2, 3, 12, 3), (2, 4, 13, 0), (2, 4, 14, 2),
                    (2, 4, 14, 3))),
    (20, 149, 168, ((2, 1, 5, 3), (2, 1, 6, 2), (2, 1, 8, 0), (2, 1, 8, 1), (2, 2, 11, 0),
                    (2, 3, 14, 2), (2, 3, 14, 3), (2, 4, 16, 2), (2, 4, 16, 3))),
    (13, 219, 240, ((2, 1, 6, 3), (2, 1, 7, 2), (2, 2, 11, 3), (2, 2, 13, 0), (2, 3, 16, 1),
                    (2, 4, 18, 0), (2, 4, 19, 3))),
    (9, 310, 325, ((2, 1, 8, 2), (2, 1, 11, 0), (2, 1, 11, 1), (2, 2, 13, 3), (2, 3, 19, 2),
                   (2, 3, 19, 3), (2, 4, 22, 2), (2, 4, 22, 3))),
    (6, 432, 453, ((2, 1, 8, 3), (2, 2, 18, 0), (2, 2, 18, 1), (2, 3, 22, 1), (2, 4, 25, 0),
                   (2, 4, 26, 3))),
    (5, 611, 623, ((2, 1, 15, 0), (2, 1, 15, 1), (2, 2, 21, 0), (2, 3, 26, 3), (2, 4, 30, 2))),
    (4, 850, 868, ((2, 2, 25, 1), (2, 2, 25, 2), (2, 3, 30, 0), (2, 4, 35, 2))),
    (3, 1201, 1208, ((2, 2, 29, 0), (2, 3, 36, 2), (2, 3, 36, 3))),
    (2, 1630, 1669, ((2, 1, 24, 0), (2, 2, 34, 0), (2, 2, 34, 1), (2, 2, 34, 2))),
    (6, 2315, 2364, ((3, 1, 4, 0), (3, 4, 11, 2))),
    (2, 3235, 3290, ((3, 2, 7, 0), (3, 4, 12, 2))),
    (2, 4405, 4436, ((2, 1, 28, 2), (2, 1, 39, 0))),
    (1, 6063, 6387, ((3, 3, 11, 0), (3, 4, 14, 1))),
    (1, 8823, 8910, ((3, 1, 5, 2), (3, 4, 15, 0))),
    (1, 12405, 12597, ((3, 2, 10, 0), (3, 4, 17, 2))),
    (1, 16601, 17288, ((3, 3, 15, 2), (3, 3, 15, 3))),
)

# Lower Hilbert coefficients (constant first) of custom twist inputs, by dim.
LOWER = {
    2: tuple((Fraction(j, 4),) for j in range(13)),
    3: tuple((Fraction(a, 2), Fraction(b, 2)) for a in range(5) for b in range(5)),
}

# Small custom twist bases for the request mix, 2-48 rows each.
TWIST_SMALL = (
    (2, 1, 1, 2), (2, 2, 0, 3), (2, 2, 1, 3), (2, 3, 0, 2), (2, 3, 1, 3), (2, 3, 3, 3),
    (2, 3, 6, 1), (2, 3, 7, 1), (3, 2, 2, 3), (3, 3, 1, 2), (3, 4, 0, 2), (3, 4, 1, 3),
)


def _fmt(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def custom_hilbert(n: int, h: int, c1h: int, d0: int, lower) -> list[Fraction]:
    """Hilbert coefficients, constant first, whose top two match what
    geometry pins down: h/n! and (d0 + c1h/2)/(n-1)!."""
    nxt = (d0 + Fraction(c1h, 2)) / math.factorial(n - 1)
    return [Fraction(c) for c in lower] + [nxt, Fraction(h, math.factorial(n))]


def pn_hilbert(n: int, d0: int) -> list[Fraction]:
    """C(k + d0 + n, n) as a polynomial in k: h0(O(d0 + k)) on P^n."""
    coeffs = [Fraction(1)]
    for i in range(1, n + 1):
        shifted = [Fraction(0)] + coeffs                      # k * p
        coeffs = [a + (d0 + i) * b for a, b in zip(shifted, coeffs + [Fraction(0)])]
    return [c / math.factorial(n) for c in coeffs]


def delpezzo_hilbert(e: int, m: int) -> list[Fraction]:
    """h0(-(m+k)K) = e(m+k)(m+k+1)/2 + 1 on the degree-e del Pezzo surface."""
    return [Fraction(e * m * (m + 1), 2) + 1, Fraction(e * (2 * m + 1), 2), Fraction(e, 2)]


# Catalog varieties with known Hilbert polynomials: (name, d0, coefficients,
# twist from which the polynomial counts sections).  Twist scans on these
# take 1-40 rows.
CATALOG_HILBERT = (
    [(f"P{n}", d0, pn_hilbert(n, d0), 0) for n, top in ((2, 4), (3, 3), (4, 1), (5, 0))
     for d0 in range(top + 1)]
    + [(f"delpezzo-{e}", m * e, delpezzo_hilbert(e, m), 0) for e in range(1, 10) for m in range(3)]
    # chi(kH) = 2k^2 + 2 is h0 only from k = 1 on: h2(O) = 1
    + [("quartic-K3", 0, [Fraction(2), Fraction(0), Fraction(2)], 1)]
)


def poly_at(coeffs, k) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


# --- op builders ------------------------------------------------------------

class _Builder:
    def __init__(self, rng: random.Random, workdir: str, run: str, pass_no: int, write: bool):
        self.rng = rng
        self.workdir = workdir
        self.run = run
        self.pass_no = pass_no
        self.write = write
        self.files = 0
        self.recurring = 0           # ops whose input an earlier pass already drew

    def input_file(self, payload) -> str:
        path = os.path.join(self.workdir, f"in{self.files:05d}.json")
        self.files += 1
        if self.write:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload if isinstance(payload, str) else json.dumps(payload))
        return path

    def fresh(self, key, pool, count=1) -> list:
        """Items pass_no*count ... of a shuffle of pool fixed for the run, so
        that successive passes draw distinct items until the pool runs out."""
        order = list(pool)
        random.Random(f"{self.run}/{key}").shuffle(order)
        first = max(0, self.pass_no) * count
        self.recurring += max(0, min(count, first + count - len(order)))
        return [order[(first + j) % len(order)] for j in range(count)]

    def fmt_flags(self, approx_share=0.0) -> tuple[list[str], str]:
        fmt = self.rng.choices(FORMATS, weights=(6, 2, 2))[0]
        approx = self.rng.random() < approx_share
        return ["--format", fmt] + (["--approx"] if approx else []), fmt

    def variety(self, custom_share=0.4, dims=(1, 2, 3, 4), max_g=8):
        """(argv flags, variety spec).  Spec is (name or None, n, h, c1h)."""
        if self.rng.random() >= custom_share:
            name = self.rng.choice(sorted(CATALOG))
            return ["--catalog", name], (name, *CATALOG[name])
        n = self.rng.choice(dims)
        h = self.rng.randint(1, 4)
        g = self.rng.randint(0, max_g)
        c1h = c1h_for(n, h, g)
        return (["--dim", str(n), "--h-top", str(h), "--c1-h", str(c1h)], (None, n, h, c1h))

    # bound ------------------------------------------------------------------
    def bound(self, degrees=None, variety=None, form=None, fmts=None) -> Op:
        rng = self.rng
        vflags, var = variety or self.variety()
        rank = rng.randint(1, 4)
        if degrees is None:
            degrees = range(d := rng.randint(0, 60), d + 1)
        form = form or rng.choice(("simplified", "lemma"))
        if fmts is None:
            out, fmt = self.fmt_flags(0.2)
        else:
            fmt = rng.choice(fmts)
            out = ["--format", fmt]
        text = str(degrees[0]) if len(degrees) == 1 else f"{degrees[0]}..{degrees[-1]}"
        argv = ["bound", *vflags, "--rank", str(rank), "--degree", text, "--form", form, *out]
        return Op(argv, 0, "bound", dict(variety=var, rank=rank, degrees=degrees,
                                         form=form, sweep=len(degrees) > 1), fmt)

    def bound_input(self) -> Op:
        rng = self.rng
        _, var = self.variety()
        name, n, h, c1h = var
        d, rank = rng.randint(0, 60), rng.randint(1, 4)
        vblock = {"name": name} if name else {"dim": n, "h_top": h, "c1_dot_h": c1h}
        path = self.input_file({"variety": vblock, "sheaf": {"rank": rank, "degree": d}})
        form = rng.choice(("simplified", "lemma"))
        out, fmt = self.fmt_flags()
        return Op(["bound", "--input", path, "--form", form, *out], 0, "bound",
                  dict(variety=var, rank=rank, degrees=range(d, d + 1), form=form, sweep=False),
                  fmt)

    # check ------------------------------------------------------------------
    def check_cell(self):
        """A variety and a degree >= 2; custom dim >= 3 cells land in the
        strip 0 < (d-1 - (2g-2))/h < 1 about one time in five."""
        rng = self.rng
        vflags, var = self.variety(custom_share=0.5, dims=(2, 3, 4), max_g=6)
        _, n, h, c1h = var
        g = genus(n, h, c1h)
        if var[0] is None and n >= 3 and h >= 2 and rng.random() < 0.2:
            d = 2 * g - 2 + rng.randint(1, h - 1) + 1
            if d >= 2:
                return vflags, var, d
        return vflags, var, rng.randint(2, 40)

    def draw_h0(self, n, h, g, d) -> int:
        rng = self.rng
        t = _threshold(n, h, g, d)
        h0 = math.floor(t) + 1 + rng.choice((-2, -1, -1, 0, 0, 1, 1, 2))
        return max(1, min(h0, _h0_cap(n, h, g, d)))

    def check_h0(self) -> Op:
        rng = self.rng
        vflags, var, d = self.check_cell()
        _, n, h, c1h = var
        roll = rng.random()
        if roll < 0.04:
            h0 = 1                                   # degenerate syzygy sheaf
        elif roll < 0.08:                            # trivially stable
            d = 1
            h0 = max(1, min(rng.randint(2, n + 1), _h0_cap(n, h, genus(n, h, c1h), 1)))
        else:
            h0 = self.draw_h0(n, h, genus(n, h, c1h), d)
        out, fmt = self.fmt_flags(0.2)
        argv = ["check", *vflags, "--degree", str(d), "--h0", str(h0), *out]
        return Op(argv, 0, "check", dict(variety=var, degree=d, h0=h0), fmt)

    def check_h0_input(self) -> Op:
        rng = self.rng
        _, var, d = self.check_cell()
        name, n, h, c1h = var
        h0 = self.draw_h0(n, h, genus(n, h, c1h), d)
        vblock = {"name": name} if name else {"dim": n, "h_top": h, "c1_dot_h": c1h}
        path = self.input_file({"variety": vblock, "sheaf": {"rank": 1, "degree": d, "h0": h0}})
        out, fmt = self.fmt_flags()
        return Op(["check", "--input", path, *out], 0, "check",
                  dict(variety=var, degree=d, h0=h0), fmt)

    def check_hilbert(self) -> Op:
        rng = self.rng
        name, d0, coeffs, reg = rng.choice(CATALOG_HILBERT)
        k = rng.randint(reg, 6)
        n, h, _ = CATALOG[name]
        out, fmt = self.fmt_flags(0.2)
        argv = ["check", "--catalog", name, "--degree", str(d0),
                "--hilbert", ",".join(_fmt(c) for c in coeffs), "--regularity", str(reg),
                "--twist", str(k), *out]
        return Op(argv, 0, "check",
                  dict(variety=(name, *CATALOG[name]), degree=d0 + k * h,
                       h0=int(poly_at(coeffs, k))), fmt)

    # twist ------------------------------------------------------------------
    def twist_custom(self, base, lower, fmt) -> Op:
        n, h, g, d0 = base
        c1h = c1h_for(n, h, g)
        coeffs = custom_hilbert(n, h, c1h, d0, lower)
        argv = ["twist", "--dim", str(n), "--h-top", str(h), "--c1-h", str(c1h),
                "--degree", str(d0), "--hilbert", ",".join(_fmt(c) for c in coeffs),
                "--regularity", "0", "--format", fmt]
        return Op(argv, 0, "twist", dict(variety=(None, n, h, c1h), d0=d0), fmt)

    def twist_catalog(self, name, d0, coeffs, reg, fmt) -> Op:
        """A twist on a known Hilbert polynomial.  Any regularity from the
        true one up is valid input; it and --approx vary between passes."""
        extra, approx = self.fresh(("catalog-twist", name, d0, fmt),
                                   [(r, a) for r in range(3) for a in (False, True)])[0]
        reg += extra
        out = ["--format", fmt] + (["--approx"] if approx else [])
        if self.rng.random() < 0.25:
            path = self.input_file({"variety": {"name": name}, "sheaf": {
                "rank": 1, "degree": d0, "hilbert": [_fmt(c) for c in coeffs], "regularity": reg}})
            argv = ["twist", "--input", path, *out]
        else:
            argv = ["twist", "--catalog", name, "--degree", str(d0),
                    "--hilbert", ",".join(_fmt(c) for c in coeffs), "--regularity", str(reg), *out]
        return Op(argv, 0, "twist", dict(variety=(name, *CATALOG[name]), d0=d0), fmt)

    def twist_small_set(self) -> list[Op]:
        """Every small twist base and every catalog Hilbert polynomial once
        in each format: these are the slowest requests, so a fixed set keeps
        the p99 about the same every pass."""
        ops = []
        for fmt in FORMATS:
            for base in TWIST_SMALL:
                lower = self.fresh(("small-twist", base, fmt), LOWER[base[0]])[0]
                ops.append(self.twist_custom(base, lower, fmt))
            ops += [self.twist_catalog(*entry, fmt) for entry in CATALOG_HILBERT]
        return ops

    # catalog ----------------------------------------------------------------
    def catalog(self) -> Op:
        out, fmt = self.fmt_flags()
        if self.rng.random() < 0.3:
            return Op(["catalog", "list", *out], 0, "catalog-list", {}, fmt)
        name = self.rng.choice(sorted(CATALOG))
        return Op(["catalog", "show", name, *out], 0, "catalog-show", dict(name=name), fmt)

    # malformed (exit 1) and impossible (exit 3) -----------------------------
    def bad(self) -> Op:
        rng = self.rng
        name = rng.choice(sorted(CATALOG))
        d = str(rng.randint(2, 30))
        hil = ",".join(_fmt(c) for c in pn_hilbert(2, 1))
        # entries are argv lists; a dict or str second item is an --input payload
        malformed = (
            ["bound", "--catalog", name],
            ["bound", "--catalog", "P9", "--degree", d],
            ["bound", "--catalog", name, "--degree", "9..3"],
            ["bound", "--catalog", name, "--degree", "x"],
            ["bound", "--catalog", name, "--degree", d, "--format", "xml"],
            ["bound", "--catalog", name, "--dim", "2", "--degree", d],
            ["check", "--catalog", name, "--degree", d, "--h0", "4", "--rank", "2"],
            ["check", "--catalog", name, "--degree", d],
            ["check", "--catalog", "P2", "--degree", "1", "--hilbert", hil],
            ["check", "--catalog", "P2", "--degree", "1", "--hilbert", hil,
             "--regularity", "2", "--twist", "1"],
            ["twist", "--catalog", name, "--degree", "0"],
            ["catalog", "show"],
            ["catalog", "list", name],
            [],
            ("bound", "{not json"),
            ("check", [1, 2]),
            ("bound", {"variety": {"dim": 2}, "sheaf": {"rank": 1, "degree": 2}}),
            ("bound", {"variety": {"name": "P2"}}),
        )
        impossible = (
            ["bound", "--dim", "2", "--h-top", "1", "--c1-h", "2", "--degree", d],
            ["bound", "--dim", "0", "--h-top", "1", "--c1-h", "0", "--degree", d],
            ["bound", "--catalog", name, "--degree", "-" + d],
            ["bound", "--catalog", name, "--degree", d, "--rank", "0"],
            ["check", "--catalog", name, "--degree", "0", "--h0", "2"],
            ["check", "--catalog", name, "--degree", d, "--h0", "0"],
            ["check", "--catalog", "P2", "--degree", "1", "--hilbert", "1,1,1",
             "--regularity", "0", "--twist", "1"],
            ["check", "--catalog", "P2", "--degree", "0", "--hilbert", "1/3,3/2,1/2",
             "--regularity", "0", "--twist", "1"],
            ("bound", {"variety": {"name": "P2", "dim": 3, "h_top": 1, "c1_dot_h": 4},
                       "sheaf": {"rank": 1, "degree": 2}}),
        )
        expect, pool = (1, malformed) if rng.random() < 0.6 else (3, impossible)
        argv = rng.choice(pool)
        if isinstance(argv, tuple):
            argv = [argv[0], "--input", self.input_file(argv[1])]
        return Op(list(argv), expect, "error")

    # bulk -------------------------------------------------------------------
    def verify(self) -> Op:
        s = self.rng.randint(0, 10**6)
        return Op(["verify", "--grid", "small", "--seed", str(s)], 0, "verify", {}, "json")

    def anchor(self) -> Op:
        """The largest report, P5 over 3001 degrees, so that peak memory has
        the same cause every pass."""
        a = self.fresh("anchor", range(201))[0]
        return self.bound(degrees=range(a, a + 3001), fmts=("json",),
                          variety=(["--catalog", "P5"], ("P5", *CATALOG["P5"])))


# --- workloads ----------------------------------------------------------------

def _requests(b: _Builder) -> list[Op]:
    mix = (
        (764, b.bound), (440, b.check_h0), (140, b.check_hilbert), (200, b.catalog),
        (100, b.bound_input), (100, b.check_h0_input), (100, b.bad),
    )
    ops = [make() for count, make in mix for _ in range(count)] + b.twist_small_set()
    b.rng.shuffle(ops)
    return ops


def _bulk(b: _Builder) -> list[Op]:
    rng = b.rng
    ops = [b.anchor()]
    # 94 sweeps, lengths log-stratified over 100..3000 degrees; variety class,
    # form and format rotate with the stratum so every pass does the same work
    classes = [f"P{n}" for n in range(1, 6)] + [2, 3, 4]
    for j in range(94):
        length = int(100 * 30 ** ((j + rng.random()) / 94))
        cls = classes[j % len(classes)]
        if isinstance(cls, str):
            variety = (["--catalog", cls], (cls, *CATALOG[cls]))
        else:
            variety = b.variety(custom_share=1.0, dims=(cls,), max_g=8)
        a = rng.randint(0, 200)
        ops.append(b.bound(degrees=range(a, a + length), variety=variety,
                           form=("simplified", "lemma")[j // (2 * len(classes)) % 2],
                           fmts=(("json", "csv")[j // len(classes) % 2],)))
    ops += [b.verify() for _ in range(5)]
    rng.shuffle(ops)
    return ops


def _twist_scan(b: _Builder) -> list[Op]:
    ops = []
    for count, _, _, bases in TWIST_STRATA:
        for j, base in enumerate(bases):
            share = count // len(bases) + (j < count % len(bases))
            ops += [b.twist_custom(base, lower, "json")
                    for lower in b.fresh(("twist", base), LOWER[base[0]], share)]
    # every fourth op in stratum order is CSV, so the formats of the
    # largest scans, and with them peak memory, are the same every pass
    for op in ops[1::4]:
        op.argv[-1] = op.fmt = "csv"
    b.rng.shuffle(ops)
    return ops


def _warmup(workload: str, b: _Builder) -> list[Op]:
    """One op per code path of the workload, run before timing so that lazy
    set-up (the catalog cache, regex compilation, first imports) stays out
    of the timed ops."""
    if workload == "bulk":
        return [b.bound(degrees=range(0, 50), fmts=(fmt,)) for fmt in ("json", "csv")] + [b.verify()]
    if workload == "twist-scan":
        base = TWIST_STRATA[0][3][0]
        return [b.twist_custom(base, LOWER[base[0]][0], fmt) for fmt in ("json", "csv")]
    ops = [b.catalog(), b.bound(), b.check_h0(), b.check_hilbert(), b.bound_input(), b.bad(),
           b.twist_custom(TWIST_SMALL[0], LOWER[2][0], "json"),
           b.twist_catalog(*CATALOG_HILBERT[0], "json")]
    return ops + [Op(["catalog", "show", "P3", "--format", fmt], 0, "catalog-show",
                     dict(name="P3"), fmt) for fmt in FORMATS]


WORKLOADS = {"requests": _requests, "bulk": _bulk, "twist-scan": _twist_scan}
WARMUP = -1                     # the pass number of the warm-up ops


def generate(workload: str, seed: int, pass_no: int, workdir: str,
             write: bool = True) -> tuple[list[Op], int]:
    """The ops of one pass (WARMUP: the warm-up ops) and how many of them
    reuse an input of an earlier pass.  Input files go into workdir; with
    write=False the same ops are built without writing them again."""
    rng = random.Random(f"{workload}/{seed}/{pass_no}")
    b = _Builder(rng, workdir, f"{workload}/{seed}", pass_no, write)
    ops = _warmup(workload, b) if pass_no == WARMUP else WORKLOADS[workload](b)
    return ops, b.recurring


# Malformed --input values that the CLI documents as usage errors (exit 1)
# but that still end in a traceback.  They are probed once per run, outside
# the timed ops, and reported beside the result.
def input_defect_ops(workdir: str) -> list[tuple[str, Op]]:
    b = _Builder(random.Random("defects"), workdir, "defects", 0, True)
    cases = (
        ("decimal hilbert coefficient", "twist",
         {"variety": {"name": "P2"}, "sheaf": {"rank": 1, "degree": 0,
                                               "hilbert": ["1.5", "3/2", "1/2"], "regularity": 0}}),
        ("string hilbert", "twist",
         {"variety": {"name": "P2"}, "sheaf": {"rank": 1, "degree": 0,
                                               "hilbert": "1,3/2,1/2", "regularity": 0}}),
        ("list-valued variety", "bound",
         {"variety": ["P2"], "sheaf": {"rank": 1, "degree": 2}}),
        ("string dim", "bound",
         {"variety": {"dim": "2", "h_top": 1, "c1_dot_h": 3}, "sheaf": {"rank": 1, "degree": 2}}),
    )
    return [(label, Op([cmd, "--input", b.input_file(payload)], 1, "error"))
            for label, cmd, payload in cases]
