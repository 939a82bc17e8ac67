"""`exactq.Record` against the frozen dataclass it replaces.

Every value class of the package derives from `Record`, as does the nerve
oracle's `ChainComplexCount` in the tests.  For each one, the slow path is
a `dataclasses.make_dataclass(..., frozen=True)` twin with the same public
fields, defaults and `__post_init__`: on sample values both must print,
compare, hash and fail alike.
"""

import dataclasses
import itertools
import re
from fractions import Fraction

import pytest

import category_oracle  # noqa: F401  (defines the nerve oracle's record)
from bicat_euler import bicat, bifib, catdsl, exactq, fib1, fincat  # noqa: F401  (defines every record)
from bicat_euler.exactq import QMatrix, QVector, Record
from bicat_euler.fincat import Morphism

RECORDS = sorted(Record.__subclasses__(), key=lambda cls: (cls.__module__, cls.__name__))
PACKAGE_MODULES = {f"bicat_euler.{name}" for name in ("exactq", "fincat", "catdsl", "fib1", "bicat", "bifib")}
# The test suite's own records: `category_oracle.ChainComplexCount`.
TEST_MODULES = {"category_oracle"}

_ID = Morphism("id*", "*", "*")
SAMPLES = {
    QVector: [(("a", "b"), (Fraction(1), Fraction(-1, 2))), ((), ()), (("b", "a"), (Fraction(1), Fraction(-1, 2)))],
    QMatrix: [(("r",), ((Fraction(2),),)), (("r", "s"), ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))), ((), ())],
    fincat.FinCategory: [
        (("*",), (_ID,), {"*": "id*"}, {("id*", "id*"): "id*"}),
        (("*",), (_ID,), (("*", "id*"),), ((("id*", "id*"), "id*"),)),
        ((), (), (), ()),
    ],
}


def _fields(cls):
    """The public annotated names, in order, and the class-level defaults among them."""
    names = [name for name in cls.__annotations__ if not name.startswith("_")]
    return names, {name: cls.__dict__[name] for name in names if name in cls.__dict__}


def _twin(cls, name=None):
    names, defaults = _fields(cls)
    spec = [(n, object, dataclasses.field(default=defaults[n])) if n in defaults else (n, object) for n in names]
    namespace = {"__post_init__": cls.__dict__["__post_init__"]} if "__post_init__" in cls.__dict__ else {}
    return dataclasses.make_dataclass(name or cls.__name__, spec, frozen=True, namespace=namespace)


def _record(cls, name):
    """Another record class with the same fields and defaults."""
    names, defaults = _fields(cls)
    return type(name, (Record,), {"__annotations__": {n: "object" for n in names}, **defaults})


def _samples(cls):
    if cls in SAMPLES:
        return SAMPLES[cls]
    names, _ = _fields(cls)
    return [
        tuple(f"{cls.__name__}.{n}" for n in names),
        tuple((n, i) for i, n in enumerate(names)),
        tuple({n: i} for i, n in enumerate(names)),  # unhashable: hash must fail alike
    ]


def _same_outcome(call, twin_call):
    """Both calls give equal values, or both raise the same exception type with the same message."""
    try:
        expected = twin_call()
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            call()
        assert str(got.value) == str(exc)
    else:
        assert call() == expected


def test_every_value_class_is_a_record():
    assert {cls.__module__ for cls in RECORDS} == PACKAGE_MODULES | TEST_MODULES
    assert not [cls for cls in RECORDS if dataclasses.is_dataclass(cls)]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_matches_frozen_dataclass(cls):
    names, defaults = _fields(cls)
    twin, other, other_twin = _twin(cls), _record(cls, "Other"), _twin(cls, "Other")
    samples = _samples(cls)
    for args in samples:
        rec, ref = cls(*args), twin(*args)
        by_keyword = cls(**dict(zip(names, args)))
        assert repr(rec) == repr(ref) == repr(by_keyword)
        assert rec == by_keyword and not rec != by_keyword
        assert (rec == other(*args), rec != other(*args)) == (ref == other_twin(*args), ref != other_twin(*args))
        assert (rec == ref, rec != ref) == (False, True)
        for built in (rec, by_keyword):
            _same_outcome(lambda: hash(built), lambda: hash(ref))
        required = len(names) - len(defaults)
        assert repr(cls(*args[:required])) == repr(twin(*args[:required]))
    for a, b in itertools.combinations(samples, 2):
        assert (cls(*a) == cls(*b), cls(*a) != cls(*b)) == (twin(*a) == twin(*b), twin(*a) != twin(*b))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_rejects_what_the_dataclass_rejects(cls):
    names, defaults = _fields(cls)
    twin = _twin(cls)
    args = _samples(cls)[0]
    first_required = next(n for n in names if n not in defaults)
    bad_calls = [
        (lambda c: c(), repr(first_required)),
        (lambda c: c(*args, nosuch=1), "'nosuch'"),
        (lambda c: c(*args, **{names[0]: args[0]}), f"multiple values for argument {names[0]!r}"),
        (lambda c: c(*args, None), ""),
    ]
    for call, named in bad_calls:
        for c in (twin, cls):
            with pytest.raises(TypeError) as got:
                call(c)
            assert named in str(got.value)
    rec, ref = cls(*args), twin(*args)
    for target in (rec, ref):
        for name in (names[0], "nosuch"):
            with pytest.raises(AttributeError):
                setattr(target, name, None)
        with pytest.raises(AttributeError):
            delattr(target, names[0])
    assert [getattr(rec, n) for n in names] == [getattr(ref, n) for n in names]


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (QVector, {"index": ("a", "b"), "entries": (Fraction(1),)}),
        (QVector, {"index": ("a", "a"), "entries": (Fraction(1), Fraction(2))}),
        (QMatrix, {"rows": ("r", "r"), "entries": ((Fraction(1),) * 2,) * 2}),
        (QMatrix, {"rows": ("r",), "entries": ()}),
        (QMatrix, {"rows": ("r",), "entries": ((Fraction(1), Fraction(2)),)}),
    ],
)
def test_post_init_checks_match_the_dataclass(cls, kwargs):
    twin = _twin(cls)
    for build in (lambda c: c(**kwargs), lambda c: c(*kwargs.values())):
        with pytest.raises(ValueError) as expected:
            build(twin)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            build(cls)


def test_private_attributes_stay_out_of_equality_and_repr():
    cat = fincat.PT
    same = fincat.FinCategory(*(getattr(cat, n) for n in ("objects", "morphisms", "identity", "compose")))
    assert cat == same and cat._by_name == same._by_name and cat._homs == {("*", "*"): ("id*",)}
    assert "_by_name" not in repr(cat) and "_homs" not in repr(cat)


def test_to_json_writes_each_field_under_its_own_name():
    vector = QVector(("a", "b"), (Fraction(1, 2), Fraction(-1)))
    euler = exactq.MatrixEuler(vector, None, Fraction(-1, 2))
    expected = [("weighting", {"a": "1/2", "b": "-1"}), ("coweighting", None), ("chi", "-1/2")]
    assert list(euler.to_json().items()) == expected
    matrix = QMatrix(("r", "s"), ((Fraction(1), Fraction(2, 3)), (Fraction(0), Fraction(-1))))
    assert matrix.to_json() == {"rows": ["r", "s"], "entries": [["1", "2/3"], ["0", "-1"]]}
    component = fib1.Component(("0", "1"), Fraction(1, 2), Fraction(2))
    assert component == (("0", "1"), Fraction(1, 2), Fraction(2))
    report = fib1.ProductFormulaReport(Fraction(1), Fraction(1), (component,), True)
    assert report.to_json() == {
        "chi_total": "1",
        "sum_of_products": "1",
        "components": [{"objects": ["0", "1"], "chi_base": "1/2", "chi_fiber": "2"}],
        "equal": True,
    }
    witnesses = {"non_cartesian_1cell": (("0", "1", "a"), ("no_lift", "1", "id1", "I", "idI")), "n": (3, [2])}
    report = bifib.BiFibrationReport(True, False, False, False, False, witnesses)
    assert report.to_json()["witnesses"] == {
        "non_cartesian_1cell": [["0", "1", "a"], ["no_lift", "1", "id1", "I", "idI"]],
        "n": [3, [2]],
    }
