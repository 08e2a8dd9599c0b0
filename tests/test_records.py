"""Record semantics of every value class: what `@dataclass(frozen=True)`
gave them, now supplied by `expr.Record` without generated code."""

import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import scatsym
from scatsym.catalog import ExampleRecord
from scatsym.certificates import Certificate, all_of, proven
from scatsym.cli import to_jsonable
from scatsym.expr import Record
from scatsym.geometry import Chart, GeometryError, ZeroVerdictMap

RECORDS = {
    "expr": ("Const", "Var", "Sum", "Prod", "Pow", "Exp", "Sin", "Cos",
             "Piece", "PiecewiseDecay"),
    "geometry": ("Chart", "SingularForm", "LaurentSlot", "ZeroVerdictMap"),
    "certificates": ("Certificate",),
    "algebroids": ("AlgebroidFrame", "NoGoReport"),
    "structures": ("ContactData", "CosymplecticData", "FillingVerdict"),
    "gluing": ("FillingCollar", "GluedForm"),
    "cohomology": ("BettiProfile", "FiniteRank", "Zero", "InfiniteDimensional",
                   "Unresolved", "CohomologyReport"),
    "quotient": ("QuotientVerdict",),
    "catalog": ("ExampleRecord",),
}
CLASSES = [getattr(importlib.import_module(f"scatsym.{mod}"), name)
           for mod, names in RECORDS.items() for name in names]
# every verdict is a Certificate, on one ladder of kinds, except these
# records named for a verdict, each kept for the reason given
VERDICTS = {
    "ZeroVerdictMap": "perfbench/expected.json pins its is_zero key in five "
        "reports",
    "FillingVerdict": "perfbench/expected.json pins its filling key",
    "QuotientVerdict": "its consistent flag is an equivalence of two "
        "findings, not a pass",
}


def _filled(cls, values):
    """An instance holding `values` as its fields, bypassing the field
    validation some classes run on construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls._fields, values))
    return obj


def _reference(cls):
    """The frozen dataclass these records replaced, for repr and hash."""
    spec = [(name, object) if name in cls._compared
            else (name, object, dataclasses.field(compare=False))
            for name in cls._fields]
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True)


def test_every_value_class_is_a_record():
    assert len(CLASSES) == 30
    assert all(issubclass(cls, Record) for cls in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_semantics(cls):
    values = tuple(range(1, len(cls._fields) + 1))
    obj, twin = _filled(cls, values), _filled(cls, values)
    ref = _reference(cls)(*values)
    assert obj == twin and not obj != twin
    assert hash(obj) == hash(twin) == hash(ref)
    assert repr(obj) == repr(ref)
    other = _filled(type("Other", (cls,), {}), values)
    assert obj != other and other != obj
    assert obj != _filled(cls, (0,) + values[1:])
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    back = pickle.loads(pickle.dumps(obj))
    assert type(back) is cls and back == obj and repr(back) == repr(obj)


def test_example_record_extras_stay_out_of_eq_and_hash():
    a = ExampleRecord("n", (), "sc", None, ("folded",), {"k": 1})
    b = ExampleRecord("n", (), "sc", None, ("folded",), {"k": 2})
    assert a == b and hash(a) == hash(b)
    assert a != ExampleRecord("m", (), "sc", None, ("folded",), {"k": 1})


def test_init_takes_positions_keywords_and_defaults():
    c = Certificate("proven", detail="d")
    assert c == Certificate("proven", 0, 0.0, None, None, "d")
    assert c == Certificate(kind="proven", detail="d")
    with pytest.raises(TypeError):
        Certificate()
    with pytest.raises(TypeError):
        Certificate("proven", 0, 0.0, None, None, "d", (), "extra")
    with pytest.raises(TypeError):
        Certificate("proven", color="red")
    with pytest.raises(GeometryError):  # __post_init__ runs
        Chart(("x", "x"), ((0.0, 1.0), (0.0, 1.0)))


def test_to_jsonable_lists_type_fields_and_properties():
    rep = all_of("d", section=proven(), closed=ZeroVerdictMap({}),
                 nondegeneracy=Certificate("proven"))
    doc = to_jsonable(rep)
    assert doc["type"] == "Certificate"
    # the parts sit under their own names beside the fields
    assert set(doc) == {"type", "kind", "grid_points", "tolerance",
                        "min_margin", "witness", "detail", "section",
                        "closed", "nondegeneracy", "passed"}
    assert doc["passed"] is True
    assert doc["nondegeneracy"]["kind"] == "proven"
    assert doc["section"]["passed"] is True
    assert doc["closed"] == {"type": "ZeroVerdictMap", "verdicts": {},
                             "is_zero": True}


def test_the_only_verdict_records_besides_certificate():
    for info in pkgutil.iter_modules(scatsym.__path__):
        importlib.import_module(f"scatsym.{info.name}")
    found, todo = set(), [Record]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("scatsym.") and "Verdict" in cls.__name__:
            found.add(cls.__name__)
    assert found == set(VERDICTS)
