"""Records: the ``==``, ``hash`` and ``repr`` that every package record
takes from :class:`ftqc_estimator.records.Record` agree with the ones
``dataclasses`` generates, on records nested in records and on formula
trees too.

Each record is built without its ``__init__`` (its checks would only
narrow the values) and compared with a twin: a class that
``dataclasses.make_dataclass`` makes with the same name and fields and
its default ``eq`` and ``repr``, holding the twins of the same values.
Floats are drawn without NaN: a dataclass compares tuples before Python
3.13 and field by field from 3.13 on, which differ on one NaN object
compared with itself, and :class:`Record` compares tuples.

Pickling and copying a record keep its fields alone, and an error keeps
its type, message and attributes.  ``__replace__`` copies a record or
changes one field, the setters raise ``dataclasses.FrozenInstanceError``,
and a record's class statement rejects the declarations ``dataclasses``
rejects.

Hypothesis does not shrink a failing example here: shrinking nested
records (reports inside a frontier result) took minutes per failing
class, so a failure is reported with the example that found it.
"""

import copy
import dataclasses
import functools
import inspect
import pickle
import sys
import typing
from enum import Enum

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ftqc_estimator import errors, formulas, jobs, layout, records
from ftqc_estimator.profiles import HardwareProfile, load_profile
from test_golden import GOLDEN
from test_public_api import package_records

RECORDS = package_records()
UNSHRUNK = settings(deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
TWINS = {
    cls: dataclasses.make_dataclass(cls.__qualname__, cls._field_names, frozen=True)
    for cls in RECORDS
}
# a record subclass of each, with the same fields
HEIRS = {cls: type(cls.__name__, (cls,), {"__doc__": "An heir."}) for cls in RECORDS}


def bare(cls, values: dict):
    """An instance of ``cls`` holding ``values``, made without its ``__init__``."""
    instance = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(instance, name, value)
    return instance


def twin(value):
    """``value`` with each record in it, at any depth, replaced by its twin."""
    if type(value) in TWINS:
        return TWINS[type(value)](**{name: twin(getattr(value, name)) for name in value._field_names})
    if type(value) is tuple:
        return tuple(twin(item) for item in value)
    return value


@functools.cache
def field_values(cls) -> st.SearchStrategy:
    """Dicts of values for the fields of ``cls``, drawn by annotation."""
    hints = typing.get_type_hints(cls)
    return st.fixed_dictionaries({name: values_of(hints[name]) for name in cls._field_names})


def records_of(cls) -> st.SearchStrategy:
    return field_values(cls).map(functools.partial(bare, cls))


def _trees() -> st.SearchStrategy:
    def extend(children):
        return st.one_of(
            st.builds(formulas.Call, st.sampled_from(sorted(formulas.FUNCTIONS)), children),
            st.builds(formulas.Neg, children),
            st.builds(formulas.BinOp, st.sampled_from("+-*/^"), children, children),
        )

    leaves = records_of(formulas.Number) | records_of(formulas.Variable)
    return st.recursive(leaves, extend, max_leaves=6)


def values_of(hint) -> st.SearchStrategy:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint == formulas.FormulaExpr:  # a Union of the node types: tested first
        return _trees()
    if origin is typing.Union:
        return st.one_of([values_of(arg) for arg in args])
    if origin is tuple:
        if args[1:] == (Ellipsis,):
            return st.lists(values_of(args[0]), max_size=3).map(tuple)
        return st.tuples(*map(values_of, args))
    if hint is type(None):
        return st.none()
    if hint is float:
        return st.floats(allow_nan=False)
    if hint is int:
        return st.integers()
    if hint is str:
        return st.text(max_size=6)
    if issubclass(hint, Enum):
        return st.sampled_from(hint)
    if issubclass(hint, errors.EstimatorError):
        return st.text(max_size=6).map(hint)
    if issubclass(hint, records.Record):
        return records_of(hint)
    raise TypeError(f"no values for fields of type {hint!r}")


def test_every_record_kind_is_covered():
    names = {cls.__name__ for cls in RECORDS}
    assert {"AlgorithmicLogicalEstimate", "FrontierPoint", "FrontierResult"} <= names
    assert {"Number", "Variable", "Call", "Neg", "BinOp"} <= names
    assert all(issubclass(cls, records.Record) for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(UNSHRUNK, max_examples=25)
@given(data=st.data())
def test_eq_hash_and_repr_agree_with_a_dataclasses_twin(cls, data):
    values = data.draw(field_values(cls))
    record = bare(cls, values)
    same = bare(cls, dict(values))
    other = data.draw(records_of(cls))
    assert repr(record) == repr(twin(record))
    assert hash(record) == hash(twin(record))
    assert record == same and twin(record) == twin(same)
    assert (record == other) is (twin(record) == twin(other))
    assert (record != other) is (twin(record) != twin(other))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(UNSHRUNK, max_examples=10)
@given(data=st.data())
def test_never_equal_to_another_class(cls, data):
    values = data.draw(field_values(cls))
    record = bare(cls, values)
    stranger = data.draw(st.sampled_from([c for c in RECORDS if c is not cls]).flatmap(records_of))
    for left, right in (
        (record, stranger),
        (record, twin(record)),  # equal fields, another class
        (record, bare(HEIRS[cls], values)),  # equal fields, a subclass
        (record, tuple(values.values())),
    ):
        assert left != right and right != left
        assert not (left == right or right == left)
    assert twin(record) != twin(stranger)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(UNSHRUNK, max_examples=10)
@given(data=st.data())
def test_pickling_and_copying_keep_the_fields_alone(cls, data):
    record = data.draw(records_of(cls))
    object.__setattr__(record, "_kept", "a value outside the fields")
    names = list(cls._field_names)
    for made in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(made) is cls and list(vars(made)) == names
        assert repr(made) == repr(record)  # an error in a field is equal to itself only


# sample arguments of each error class whose __init__ takes its own
ERROR_ARGUMENTS = {
    errors.FormulaSyntaxError: (3, "an operand"),
    errors.UnknownFunctionError: ("sinh", 4),
    errors.UnboundVariableError: ("v",),
    errors.UseAfterReleaseError: (1, 2),
    errors.DoubleAllocError: (1, 2),
    errors.ArityMismatchError: (5, "cx takes 2 qubits"),
    errors.InvalidCountsError: ("tCount", "must be >= 0"),
    errors.AboveThresholdError: (0.02, 0.01),
    errors.DistanceExhaustedError: (49,),
    errors.RuntimeTooShortError: (1e6, 1e3),
    errors.EstimationStageError: ("qec", errors.UnboundVariableError("v")),
}
ERRORS = [
    value
    for value in vars(errors).values()
    if isinstance(value, type)
    and issubclass(value, errors.EstimatorError)
    and value.__module__ == errors.__name__
]


def test_every_error_with_its_own_arguments_is_sampled():
    assert {cls for cls in ERRORS if "__init__" in vars(cls)} == set(ERROR_ARGUMENTS)


def same_error(made, error) -> None:
    assert type(made) is type(error) and str(made) == str(error)
    assert made.args == error.args and list(vars(made)) == list(vars(error))
    for name, value in vars(error).items():
        if isinstance(value, BaseException):
            same_error(getattr(made, name), value)
        else:
            assert getattr(made, name) == value


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_pickling_and_copying_keep_an_error(cls):
    error = cls(*ERROR_ARGUMENTS.get(cls, ("a message",)))
    for made in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
        same_error(made, error)


@functools.cache
def built() -> dict:
    """One instance of each record class, made by its constructor: the
    records in three golden jobs, their reports and frontier, a formula with
    every node kind, a built-in profile and a post-layout estimate."""
    found = {}

    def walk(value):
        if type(value) in TWINS:
            found.setdefault(type(value), value)
            for name in value._field_names:
                walk(getattr(value, name))
        elif type(value) is tuple:
            for item in value:
                walk(item)

    for name in ("gate_ns_e3_counts", "copy_limit_slowdown"):
        job = jobs.load_job(GOLDEN / f"{name}.json")
        walk((job, jobs.run_job(job)))
    job = jobs.load_job(GOLDEN / "frontier_custom_units.json")
    walk((job, jobs.run_frontier(job, [1])))
    walk((formulas.parse_formula("-sqrt(x) + 1"), load_profile("qubit_gate_ns_e3")))
    walk(layout.estimate_algorithmic(found[jobs.LogicalCounts], 1e-3))
    return found


def test_every_record_kind_is_built():
    assert set(built()) == set(RECORDS)


def unchecked(cls) -> type:
    """A heir of ``cls`` whose ``__post_init__`` checks no value, so that
    any field can be set to any object."""
    namespace = {"__doc__": "An unchecked heir.", "__post_init__": lambda self: None}
    return type(cls.__name__, (cls,), namespace)


@pytest.mark.parametrize("heir", [False, True], ids=["record", "heir"])
@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_replace_changes_only_the_given_fields_and_setters_raise(cls, heir):
    made = built()[cls]
    if heir:
        cls = HEIRS[cls]
        made = cls(**made.__getstate__())
    parameters = inspect.signature(cls).parameters.values()
    assert sorted(p.name for p in parameters) == sorted(cls._field_names)
    assert cls.__match_args__ == tuple(p.name for p in parameters if p.kind is p.POSITIONAL_OR_KEYWORD)
    copies = [made.__replace__()]
    if sys.version_info >= (3, 13):
        copies.append(copy.replace(made))
    for copied in copies:
        assert type(copied) is cls and copied == made
    loose = unchecked(cls)(**made.__getstate__()) if hasattr(cls, "__post_init__") else made
    new = object()
    for name in cls._field_names:
        changed = loose.__replace__(**{name: new})
        kept = {other: value for other, value in vars(changed).items() if value is getattr(loose, other)}
        assert type(changed) is type(loose) and vars(changed) == {**kept, name: new}
        assert list(kept) == [other for other in cls._field_names if other != name]
    for name in cls._field_names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(made, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(made, name)
    assert made.__replace__() == made  # untouched by the failed writes


def test_a_profiles_description_is_keyword_only_and_empty_by_default():
    parameters = inspect.signature(HardwareProfile).parameters
    assert [name for name, p in parameters.items() if p.kind is p.KEYWORD_ONLY] == ["description"]
    assert parameters["description"].default == ""
    profile = built()[HardwareProfile]
    with pytest.raises(TypeError):
        HardwareProfile(profile.name, "text", profile.qubit_params, profile.default_scheme_name)


def declare_record(name: str, namespace: dict) -> type:
    return type(name, (records.Record,), namespace)


def declare_dataclass(name: str, namespace: dict) -> type:
    # the oracle: a frozen dataclass that is no Record
    return dataclasses.dataclass(frozen=True)(type(name, (), namespace))


DECLARATIONS = [declare_record, declare_dataclass]


@pytest.mark.parametrize("declare", DECLARATIONS, ids=["record", "dataclass"])
def test_a_field_without_a_default_after_one_with_a_default_is_a_type_error(declare):
    namespace = {"__annotations__": {"first": "int", "second": "int"}, "first": 1}
    with pytest.raises(TypeError, match="'second'"):
        declare("Late", namespace)


@pytest.mark.parametrize("default", [[], {}, set()], ids=type)
@pytest.mark.parametrize("declare", DECLARATIONS, ids=["record", "dataclass"])
def test_a_mutable_default_is_a_value_error(declare, default):
    with pytest.raises(ValueError, match="mutable default"):
        declare("Mutable", {"__annotations__": {"value": "object"}, "value": default})
