"""Closed-form upper bounds on global sections, in both shapes.

Rank-1 bounds come in two branches split at degree 2g-2: a generalized
Clifford inequality below, a Riemann-Roch count above.  Each branch has
a summed form (the shape the restriction-to-hyperplane induction
produces) and a simplified cap (the shape the stability certificate
consumes).  restriction_sum recomputes one induction step by brute
force; it exists so the closed forms can be checked against it.

Each closed form is evaluated as one integer ratio.  With d = p/e and
q = h_top*e, every binomial argument is an integer over q, so a form is
a sum of integer rising products (exactnum._rising) over one known
denominator: no float, no tolerance and no sampling.  Each form has one
integer kernel, _clifford_ratio, _riemann_roch_ratio (strip case
included), _rank_one_ratio, _low_ratio and _high_ratio, and the formula
lives there only.  A kernel takes the degree as integers p and e > 0,
in any ratio p/e of it, reduced or not, and returns (numerator,
denominator) with the denominator > 0 and the ratio not reduced; it
checks nothing.  So a comparison of two values is one
cross-multiplication of integers, whose sign is right because both
denominators are positive.  Fractions are built only at the API edge:
the public function of a form checks its arguments and builds one
Fraction from its kernel, and sections_bound builds its own from
_sections_ratio.  restriction_sum is the literal reference for one
induction step: it reads each rank-1 term from _rank_one_ratio and
builds one Fraction of their sum.  The running sums over a whole degree
range belong to verify's dominance check, which reads the same kernel.
Inside the package, sweeps (sweep_ratios, _differences),
stability.check_stability, twist's condition G and verify's checks read
the kernels directly.

On the strip (dim >= 3 and 0 < (d - (2g-2))/h_top < 1) the high branch
takes a single restriction step instead of the telescoped sum; see
riemann_roch_bound.

From d_pos on (see d_pos) the high-branch forms are exact polynomials of
degree n in d.  _differences is the package's one check that a form is
the polynomial it is taken for: the form's values at n+2 degrees from
d_pos on, equally spaced, over one denominator, whose order-(n+1)
difference must vanish.  twist.bound_high_poly reads the cap's table
along the twisted degrees, h_top apart, and interpolates it in the
twist k; no polynomial in d is built.  A degree sweep builds the table
once, at its own first degree from d_pos on, and runs it as n nested
itertools.accumulate chains (tail_columns), with no Python bytecode per
row; degrees below d_pos are sections_bound's kernel one by one
(sweep_ratios).  A sweep row is integers, the core and the value
numerators over one denominator D; from d_pos on, D is the table's,
reduced by the table's gcd, so D == 1 exactly when every row of the tail
is an integer, and Newton's form bounds every integer of the tail at its
last degree.  value - core is a multiple of D unless the value is
floored at rank, so one gcd per row reduces both, and a tail with D == 1
is in lowest terms: a caller prints its columns as they are.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import accumulate, compress, repeat, tee

from .errors import InconsistentInputError
from .exactnum import _rising
from .record import Record
from .varieties import Variety


class Branch(Enum):
    CLIFFORD = "Clifford"
    RIEMANN_ROCH = "RiemannRoch"


class BoundForm(Enum):
    LEMMA = "LemmaSumForm"
    SIMPLIFIED = "SimplifiedForm"


class BranchError(ValueError):
    """Degree handed to the wrong branch of the rank-1 bound."""


def _check_common(n: int, h_top: int, d):
    """Validate the shared arguments; an int degree stays an int, any
    other degree becomes a Fraction."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if h_top < 1:
        raise ValueError(f"h_top must be >= 1, got {h_top}")
    if not isinstance(d, int):
        d = Fraction(d)
    if d < 0:
        raise InconsistentInputError(
            f"degree must be >= 0 (degree-0 sheaves are trivial, negative is impossible), got {d}"
        )
    return d


def select_branch(g: int, d) -> Branch:
    return Branch.CLIFFORD if d <= 2 * g - 2 else Branch.RIEMANN_ROCH


def _in_strip(n: int, h_top: int, g: int, p: int, e: int) -> bool:
    """True on the strip: dim >= 3 and 0 < (d - (2g-2))/h_top < 1, for d = p/e.

    There the high branch holds less than one full hyperplane step, so
    the telescoped summed form does not apply (see riemann_roch_bound).
    """
    return n >= 3 and 0 < p - (2 * g - 2) * e < h_top * e


def _clifford_ratio(n: int, h_top: int, p: int, e: int) -> tuple[int, int]:
    """clifford_bound at d = p/e as (numerator, denominator > 0)."""
    q = h_top * e
    num = h_top * _rising(p - q, q, n) + 2 * n * q * _rising(p, q, n - 1)
    return num, 2 * q**n * math.factorial(n)


def _riemann_roch_ratio(n: int, h_top: int, g: int, p: int, e: int) -> tuple[int, int]:
    """riemann_roch_bound at d = p/e as (numerator, denominator > 0)."""
    q = h_top * e
    if _in_strip(n, h_top, g, p, e):
        num, den = _rank_one_ratio(n - 1, h_top, g, p, e)
        if p >= q:
            low, low_den = _clifford_ratio(n, h_top, p - q, e)
            num, den = num * low_den + low * den, den * low_den
        return num, den
    a_s, a_t = p - (2 * g - 2) * e - q, (2 * g - 2) * e
    cross = sum(
        math.comb(n, i) * (n - i + g - 1) * _rising(a_s, q, i) * _rising(a_t, q, n - 1 - i)
        for i in range(n - 1)
    )
    num = _rising(p - (g - 1) * e - q, q, n) + e * cross
    return num, e * q ** (n - 1) * math.factorial(n)


def _rank_one_ratio(n: int, h_top: int, g: int, p: int, e: int) -> tuple[int, int]:
    """rank_one_bound at d = p/e as (numerator, denominator > 0)."""
    if p <= (2 * g - 2) * e:
        return _clifford_ratio(n, h_top, p, e)
    return _riemann_roch_ratio(n, h_top, g, p, e)


def _low_ratio(n: int, h_top: int, p: int, e: int) -> tuple[int, int]:
    """bound_low at d = p/e as (numerator, denominator > 0)."""
    q = h_top * e
    den = 2 * e * q ** (n - 1) * math.factorial(n)
    return (p + 2 * n * e) * _rising(p, q, n - 1) - den, den


def _high_ratio(n: int, h_top: int, g: int, p: int, e: int) -> tuple[int, int]:
    """bound_high at d = p/e as (numerator, denominator > 0)."""
    if _in_strip(n, h_top, g, p, e):
        num, den = _riemann_roch_ratio(n, h_top, g, p, e)
        return num - den, den
    q = h_top * e
    main = _rising(p - (g - 1) * e - q, q, n)
    if n == 1:
        return main - e, e
    a_s, a_t = p - (2 * g - 2) * e - q, (2 * g - 2) * e
    fact = math.factorial(n - 1)
    den = e * q ** (2 * n - 3) * n * fact * fact
    num = (main * q ** (n - 2) * fact
           + (n - 1) ** 2 * (n + g - 1) * e * _rising(a_s, q, n - 2) * _rising(a_t, q, n - 1))
    return num - den, den


def clifford_bound(n: int, h_top: int, g: int, d) -> Fraction:
    """Low-degree rank-1 bound: (h/2)*genbinom(d/h - 1, n) + genbinom(d/h, n-1).

    Valid for 0 <= d <= 2g-2; on a curve this is Clifford's theorem.
    Scaled (d = p/e, q = h*e, R = _rising over q):
    (h*R(p-q, n) + 2nq*R(p, n-1)) / (2q^n * n!).
    """
    d = _check_common(n, h_top, d)
    if d > 2 * g - 2:
        raise BranchError(f"degree {d} exceeds 2g-2 = {2 * g - 2}; use the high branch")
    return Fraction(*_clifford_ratio(n, h_top, d.numerator, d.denominator))


def d_pos(g: int, h_top: int) -> int:
    """The least degree from which the high-branch forms are polynomials in d:
    every d >= max(2g-2, g-1) + h_top is in the high branch, off the strip,
    and gives every d-dependent binomial argument a value >= 0."""
    return max(2 * g - 2, g - 1) + h_top


def riemann_roch_bound(n: int, h_top: int, g: int, d) -> Fraction:
    """High-degree rank-1 bound in summed form.

    h*genbinom((d-(g-1))/h - 1, n)
      + sum_{i=0..n-2} ((n-i+g-1)/(n-i)) * genbinom((d-(2g-2))/h - 1, i)
                                         * genbinom((2g-2)/h, n-1-i)

    Valid for d >= 2g-1; the sum is empty on a curve.

    The sum comes from restricting to a hyperplane section d//h + 1 times
    (as restriction_sum does) and telescoping the dimension-(n-1) bounds
    of the high-branch steps; a hyperplane section is an (n-1)-fold with
    the same h_top and sectional genus, and L|_H keeps degree d.  The
    telescoping needs at least one full high-branch step,
    s = (d-(2g-2))/h - 1 >= 0.  On the strip (dim >= 3, -1 < s < 0) it
    has none: the piecewise genbinom(s, i) is 0 for i >= 1 and the cross
    terms vanish although the restriction steps still carry sections.
    There the bound takes one restriction step instead,

        h0(L) <= h0(L|_H) + h0(L(-H))
              <= rank_one_bound(n-1, h, g, d) + clifford_bound(n, h, g, d-h),

    where L(-H) has degree d - h <= 2g-2 and so falls in the low branch;
    the second term is absent when d < h, as L(-H) then has negative
    degree.  On surfaces the i = 0 cross term carries no s, so the sum
    stays valid there.

    Scaled off the strip (d = p/e, q = h*e, R = _rising over q,
    a_s = p-(2g-2)e-q, a_t = (2g-2)e): (R(p-(g-1)e-q, n)
    + e*sum_i C(n,i)(n-i+g-1)*R(a_s, i)*R(a_t, n-1-i)) / (e*q^(n-1)*n!).
    """
    d = _check_common(n, h_top, d)
    if d <= 2 * g - 2:
        raise BranchError(f"degree {d} is at most 2g-2 = {2 * g - 2}; use the low branch")
    return Fraction(*_riemann_roch_ratio(n, h_top, g, d.numerator, d.denominator))


def rank_one_bound(n: int, h_top: int, g: int, d) -> Fraction:
    d = _check_common(n, h_top, d)
    return Fraction(*_rank_one_ratio(n, h_top, g, d.numerator, d.denominator))


def bound_low(n: int, h_top: int, d) -> Fraction:
    """Simplified low-branch cap: (d/(2n) + 1)*genbinom(d/h, n-1) - 1.

    Scaled (d = p/e, q = h*e, R = _rising over q, D = 2e*q^(n-1)*n!):
    ((p + 2ne)*R(p, n-1) - D) / D.
    """
    d = _check_common(n, h_top, d)
    return Fraction(*_low_ratio(n, h_top, d.numerator, d.denominator))


def bound_high(n: int, h_top: int, g: int, d) -> Fraction:
    """Simplified high-branch cap.

    h*genbinom((d-(g-1))/h - 1, n) - 1
      + ((n-1)(n+g-1)/n) * genbinom((d-(2g-2))/h - 1, n-2) * genbinom((2g-2)/h, n-1)

    The cross term drops for n = 1 (zero factor), where the value
    collapses to d - g once d >= g - 1 + h.

    The simplification bounds each genbinom(s+i, i) of the telescoped sum
    by genbinom(s+n-2, n-2), which needs s = (d-(2g-2))/h - 1 >= 0.  On
    the strip (dim >= 3, -1 < s < 0) it fails, so the cap there is the
    one-step value of riemann_roch_bound minus 1, the relation that
    holds exactly on surfaces (the cap needs no simplification there).

    Scaled off the strip (d = p/e, q = h*e, R = _rising over q,
    R1 = R(p-(g-1)e-q, n), D = e*q^(2n-3)*n!*(n-1)!): for n >= 2,
    (R1*q^(n-2)*(n-1)! + (n-1)^2(n+g-1)*e*R(a_s, n-2)*R(a_t, n-1) - D) / D
    with a_s, a_t as in riemann_roch_bound; for n = 1, (R1 - e)/e.
    """
    d = _check_common(n, h_top, d)
    return Fraction(*_high_ratio(n, h_top, g, d.numerator, d.denominator))


def _differences(n: int, h_top: int, g: int, form: BoundForm, start: int,
                 step: int = 1) -> tuple[int, list[int]]:
    """The forward-difference table of the closed form in use at start,
    read from its kernel: bound_high (simplified) or riemann_roch_bound,
    which is rank_one_bound from d_pos on (lemma).  Its values at the
    degrees start + j*step (j = 0..n+1) over one integer denominator L
    have forward differences D_j, and D_{n+1} must vanish; returns L and
    D_0..D_n.  The package's one check that a form is the polynomial of
    degree n it is taken for (start >= d_pos): sweeps read it at unit
    steps, twist along the twisted degrees (step h_top)."""
    _check_common(n, h_top, start)
    closed = _high_ratio if form is BoundForm.SIMPLIFIED else _riemann_roch_ratio
    values = [closed(n, h_top, g, start + j * step, 1) for j in range(n + 2)]
    den = math.lcm(*(v_den for _, v_den in values))
    diffs = [v * (den // v_den) for v, v_den in values]
    for j in range(1, n + 2):  # diffs[j] becomes D_j
        for i in range(n + 1, j - 1, -1):
            diffs[i] -= diffs[i - 1]
    if diffs.pop() != 0:
        raise RuntimeError(
            f"the {form.value} bound is not a polynomial of degree {n} from degree {start}")
    return den, diffs


class BoundReport(Record):
    branch: Branch
    form: BoundForm
    value: Fraction
    core: Fraction
    n: int
    h_top: int
    genus: int
    rank: int
    degree: int


def _check_rank(rank: int) -> None:
    if rank < 1:
        raise InconsistentInputError(f"rank must be >= 1, got {rank}")


def _sections_ratio(n: int, h_top: int, g: int, rank: int, p: int, e: int,
                    form: BoundForm) -> tuple:
    """sections_bound at d = p/e as (branch, core, value, den): the core
    and the value numerators over one denominator den > 0."""
    simplified = form is BoundForm.SIMPLIFIED
    if p <= (2 * g - 2) * e:
        branch = Branch.CLIFFORD
        core, den = (_low_ratio if simplified else _clifford_ratio)(n, h_top, p, e)
    else:
        branch = Branch.RIEMANN_ROCH
        core, den = (_high_ratio if simplified else _riemann_roch_ratio)(n, h_top, g, p, e)
    shift = rank if simplified else rank - 1
    return branch, core, max(core + shift * den, rank * den), den


def sections_bound(variety: Variety, rank: int, degree: int,
                   form: BoundForm = BoundForm.SIMPLIFIED) -> BoundReport:
    """Upper bound on h0 of a globally-generated torsion-free sheaf.

    Simplified form adds rank to the branch cap; lemma form adds rank-1
    to the summed rank-1 bound.  Either way the result is floored at
    rank: a globally-generated sheaf needs at least rank sections, and
    a degree-0 one is trivial with exactly that many.
    """
    _check_rank(rank)
    d = _check_common(variety.dim, variety.h_top, degree)
    n, h, g = variety.dim, variety.h_top, variety.genus
    branch, core, value, den = _sections_ratio(n, h, g, rank, d.numerator, d.denominator, form)
    return BoundReport(
        branch=branch, form=form, value=Fraction(value, den), core=Fraction(core, den),
        n=n, h_top=h, genus=g, rank=rank, degree=int(d),
    )


def tail_columns(variety: Variety, rank: int, degrees: range, form: BoundForm) -> tuple:
    """The tail of a sweep of a unit-step range, the degrees from
    max(start, d_pos) on, as (first, D, cores, values, bound): its first
    degree, the denominator D, iterables of the core and value numerators
    over D, and a bound on the absolute value of every integer in them.  A
    range that ends below d_pos, or whose part from d_pos on has fewer than
    n+3 degrees, has no tail: (degrees.stop, 1, (), (), 0).

    The table is the closed form's own forward differences at first
    (_differences), reduced with D by their gcd, so D == 1 exactly when
    every row is an integer: the values at the first n+1 degrees are
    integers exactly when every table entry is.  It runs as n nested
    itertools.accumulate chains: the inner n-1 are shared, the outermost
    starts once from t_0 for the cores and once from t_0 plus rank*D, or
    (rank-1)*D in lemma form, for the values.  The values are floored at
    rank*D unless the table shows that no row falls below it.  At degree
    first + k the core is sum_j t_j*C(k, j) (Newton's form), so no integer
    of the columns exceeds sum_j |t_j|*C(b - first, j) + rank*D, for the
    range's last degree b.
    """
    _check_rank(rank)
    n, h, g = variety.dim, variety.h_top, variety.genus
    first = min(max(degrees.start, d_pos(g, h)), degrees.stop)
    if degrees.stop - first < n + 3:
        return degrees.stop, 1, (), (), 0
    den, table = _differences(n, h, g, form, first)
    common = math.gcd(den, *table)
    den, table = den // common, [t // common for t in table]
    floor = rank * den
    start = table[0] + (floor if form is BoundForm.SIMPLIFIED else floor - den)
    # table[n] once per degree from first + n on (all > 0, so compress keeps
    # each): the columns stop with the range, which may pass sys.maxsize
    steps = compress(repeat(table[n]), range(first + n, degrees.stop))
    for entry in reversed(table[1:n]):
        steps = accumulate(steps, initial=entry)
    core_steps, value_steps = tee(steps)
    values = accumulate(value_steps, initial=start)
    if start < floor or min(table[1:]) < 0:  # else no value falls below the first
        values = map(max, values, repeat(floor))
    span = degrees.stop - 1 - first
    bound = sum(abs(t) * math.comb(span, j) for j, t in enumerate(table)) + floor
    return first, den, accumulate(core_steps, initial=table[0]), values, bound


def sweep_ratios(variety: Variety, rank: int, degrees: range, form: BoundForm, tail: tuple):
    """Yield the rows of sections_bound for every degree of a unit-step
    range, in order, as integers: (degree, branch, core numerator, value
    numerator, denominator), the ratios not reduced.

    Degrees below the tail's first degree (tail is tail_columns' value for
    the same arguments) are sections_bound's own integer ratios
    (_sections_ratio), over the closed form's denominator.  The rest are
    the tail's columns over their denominator D: core is D times the
    form's value and value is core + rank*D (simplified) or core +
    (rank-1)*D (lemma), floored at rank*D.  A range that stops at the
    tail's first degree yields the rows below the tail and reads none of
    its columns.
    """
    first, tail_den, cores, values, _ = tail
    n, h, g = variety.dim, variety.h_top, variety.genus
    if degrees.start < first:  # sections_bound's checks, once for the rising degrees
        _check_rank(rank)
        _check_common(n, h, degrees.start)
    for d in range(degrees.start, first):
        yield (d, *_sections_ratio(n, h, g, rank, d, 1, form))
    yield from zip(range(first, degrees.stop), repeat(Branch.RIEMANN_ROCH),
                   cores, values, repeat(tail_den))


def restriction_sum(n: int, h_top: int, g: int, d: int) -> Fraction:
    """One induction step, recomputed literally: restrict to a hyperplane
    section d//h + 1 times and add up the rank-1 bounds in dimension n-1.

    The closed forms are supposed to dominate this sum wherever the
    induction's own hypotheses hold.  Like a closed form it is one integer
    ratio: the terms' numerators (_rank_one_ratio) over the lcm of their
    denominators, and one Fraction is built at the end.
    """
    if n < 2:
        raise ValueError("restriction needs dimension >= 2")
    d = _check_common(n, h_top, d)
    p, e = d.numerator, d.denominator
    q = h_top * e
    terms = [_rank_one_ratio(n - 1, h_top, g, p - i * q, e) for i in range(p // q + 1)]
    # a set, not a generator: unpacking an iterator of unknown length regrows
    # the argument tuple, and those reallocations raised peak RSS run by run
    den = math.lcm(*{t_den for _, t_den in terms})
    return Fraction(sum(t * (den // t_den) for t, t_den in terms), den)
