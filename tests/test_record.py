"""The result types against dataclass twins.

Every exported result type is a frozen record (syzstab.record.Record),
except verify.CheckResult, a plain mutable class.  Each is compared here
with a twin that dataclasses.make_dataclass builds from the type's own
field tuple and __init__ defaults: repr, equality, hashing, construction
and immutability must all agree.  Only this test imports dataclasses.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

import syzstab
from syzstab import CheckResult, Poly
from syzstab.record import Record

P2, P3, K3 = (syzstab.catalog_lookup(name) for name in ("P2", "P3", "quartic-K3"))
HP_K3 = syzstab.HilbertPoly(Poly((2, 0, 2)), 0)
HP_P3 = syzstab.HilbertPoly(Poly((1, Fraction(11, 6), 1, Fraction(1, 6))), 0)
CERT_K3 = syzstab.minimal_stable_twist(K3, 0, HP_K3)
CERT_P3 = syzstab.minimal_stable_twist(P3, 0, HP_P3)
STABLE = syzstab.check_stability(P2, 2, 6)
DEGENERATE = syzstab.check_stability(P2, 2, 1)  # a note, and an infinite slope

# Two unequal instances of every exported result type.
PAIRS = [
    (P2, P3),
    (syzstab.SheafSpec(1, 2, sections=6),
     syzstab.SheafSpec(1, 0, hilbert=(Fraction(2), Fraction(1, 2)), regularity=0)),
    (syzstab.sections_bound(K3, 1, 8), syzstab.sections_bound(P2, 2, 3)),
    (STABLE.condition2, DEGENERATE.condition1),
    (STABLE.syzygy, DEGENERATE.syzygy),
    (STABLE, DEGENERATE),
    (HP_K3, HP_P3),
    (syzstab.bound_high_poly(K3, 0), syzstab.bound_high_poly(P3, 0)),
    (syzstab.build_condition_polys(K3, 0, HP_K3), syzstab.build_condition_polys(P3, 0, HP_P3)),
    (CERT_K3.scan[0], CERT_P3.scan[0]),
    (CERT_K3.shift, CERT_P3.shift),
    (CERT_K3, CERT_P3),
    (CheckResult("c", 3, 1, ["k = 2"]), CheckResult("d", note="n")),
]
IDS = [type(a).__name__ for a, _ in PAIRS]
FROZEN = [a for a, _ in PAIRS if isinstance(a, Record)]


def _values(obj):
    return [getattr(obj, name) for name in type(obj)._fields]


def _twin(cls):
    """A dataclass with cls's name, fields and defaults; frozen when cls is
    a Record.  CheckResult's failures=None stands for a fresh list."""
    defaults = cls.__init__.__defaults__ or ()
    required = len(cls._fields) - len(defaults)
    specs = list(cls._fields[:required])
    for name, default in zip(cls._fields[required:], defaults):
        if cls is CheckResult and name == "failures":
            default = dataclasses.field(default_factory=list)
        specs.append((name, object, default))
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=issubclass(cls, Record),
                                      namespace=namespace)


def _hash_of(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


def test_the_pairs_cover_every_exported_result_type():
    exported = {obj for name in syzstab.__all__
                if isinstance(obj := getattr(syzstab, name), type) and hasattr(obj, "_fields")}
    assert {type(a) for a, _ in PAIRS} == {type(b) for _, b in PAIRS} == exported
    assert len(exported) == 13
    assert exported - {CheckResult} == {cls for cls in exported if issubclass(cls, Record)}
    assert [a != b for a, b in PAIRS] == [True] * len(PAIRS)


@pytest.mark.parametrize("a, b", PAIRS, ids=IDS)
def test_repr_eq_and_hash_agree_with_the_twin(a, b):
    cls, twin = type(a), _twin(type(a))
    ta, tb = twin(*_values(a)), twin(*_values(b))
    assert (repr(a), repr(b)) == (repr(ta), repr(tb))
    same = cls(*_values(a))
    assert same is not a
    for x, y, tx, ty in ((a, same, ta, twin(*_values(a))), (a, b, ta, tb), (b, a, tb, ta)):
        assert (x == y, x != y) == (tx == ty, tx != ty)
        assert _hash_of(x) == _hash_of(tx)
    assert (_hash_of(a) is TypeError) == (cls is CheckResult)
    # a type whose fields are equal is still another type, even another
    # record, and so is a tuple
    assert (a == ta, a != ta, ta == a, ta != a) == (False, True, False, True)
    other = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(cls._fields)})
    assert (a == other(*_values(a)), a != other(*_values(a))) == (False, True)
    assert (a == tuple(_values(a)), a != tuple(_values(a))) == (False, True)


@pytest.mark.parametrize("a, b", PAIRS, ids=IDS)
def test_construction_agrees_with_the_twin(a, b):
    cls, twin = type(a), _twin(type(a))
    fields, values = cls._fields, _values(a)
    assert cls(*values) == a
    assert cls(**dict(zip(fields, values))) == a
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == a
    required = len(fields) - len(cls.__init__.__defaults__ or ())
    assert repr(cls(*values[:required])) == repr(twin(*values[:required]))
    for args, kwargs in (((), {}), (values[:required - 1], {}), (values + [None], {}),
                         (values, {fields[0]: values[0]}), (values, {"no_such_field": 1})):
        for make in (cls, twin):
            with pytest.raises(TypeError):
                make(*args, **kwargs)


@pytest.mark.parametrize("a", FROZEN, ids=[type(a).__name__ for a in FROZEN])
def test_frozen_types_refuse_assignment_and_deletion(a):
    before, twin = repr(a), _twin(type(a))(*_values(a))
    for obj in (a, twin):
        for name in (*type(a)._fields, "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert repr(a) == before


def test_check_result_is_mutable_and_gets_a_fresh_failures_list():
    first, second = CheckResult("x"), CheckResult("x")
    assert first.failures == [] and first.failures is not second.failures
    first.record(False, "k = 1")
    first.note = "n"
    assert (first.failed, first.failures, first.note) == (1, ["k = 1"], "n")
    assert (second.failed, second.failures, second.note) == (0, [], None)
    assert first != second
    kept = ["k = 2"]
    assert CheckResult("y", failures=kept).failures is kept


@pytest.mark.parametrize("round_trip", [
    copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)),
], ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("a, b", PAIRS, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(round_trip, a, b):
    for obj in (a, b):
        clone = round_trip(obj)
        assert type(clone) is type(obj)
        assert clone == obj and repr(clone) == repr(obj) and _hash_of(clone) == _hash_of(obj)
        if isinstance(obj, Record):
            with pytest.raises(AttributeError):
                setattr(clone, clone._fields[0], None)


def test_a_field_without_a_default_may_not_follow_one_with_a_default():
    # the defaults fill __init__'s last parameters, so they would shift
    with pytest.raises(TypeError, match="follows one with a default"):
        type("Bad", (Record,), {"__annotations__": {"a": int, "b": int}, "a": 0})
    assert type("Good", (Record,), {"__annotations__": {"a": int, "b": int}, "b": 0})(1).b == 0
