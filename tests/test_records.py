"""Records: the ``==``, ``hash`` and ``repr`` that every package dataclass
takes from :class:`ftqc_estimator.errors.Record` agree with the ones
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
its type, message and attributes.

Hypothesis does not shrink a failing example here: shrinking nested
records (reports inside a frontier result) took minutes per failing
class, so a failure is reported with the example that found it.
"""

import copy
import dataclasses
import functools
import pickle
import typing
from enum import Enum

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ftqc_estimator import errors, formulas
from test_public_api import package_dataclasses

RECORDS = package_dataclasses()
UNSHRUNK = settings(deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
TWINS = {
    cls: dataclasses.make_dataclass(
        cls.__qualname__, [f.name for f in dataclasses.fields(cls)], frozen=True
    )
    for cls in RECORDS
}
# a record subclass of each, with the same fields
HEIRS = {cls: errors.record(type(cls.__name__, (cls,), {"__doc__": "An heir."})) for cls in RECORDS}


def bare(cls, values: dict):
    """An instance of ``cls`` holding ``values``, made without its ``__init__``."""
    instance = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(instance, name, value)
    return instance


def twin(value):
    """``value`` with each record in it, at any depth, replaced by its twin."""
    if type(value) in TWINS:
        fields = dataclasses.fields(value)
        return TWINS[type(value)](**{f.name: twin(getattr(value, f.name)) for f in fields})
    if type(value) is tuple:
        return tuple(twin(item) for item in value)
    return value


@functools.cache
def field_values(cls) -> st.SearchStrategy:
    """Dicts of values for the fields of ``cls``, drawn by annotation."""
    hints = typing.get_type_hints(cls)
    return st.fixed_dictionaries(
        {f.name: values_of(hints[f.name]) for f in dataclasses.fields(cls)}
    )


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
    if dataclasses.is_dataclass(hint):
        return records_of(hint)
    raise TypeError(f"no values for fields of type {hint!r}")


def test_every_record_kind_is_covered():
    names = {cls.__name__ for cls in RECORDS}
    assert {"AlgorithmicLogicalEstimate", "FrontierPoint", "FrontierResult"} <= names
    assert {"Number", "Variable", "Call", "Neg", "BinOp"} <= names
    assert all(issubclass(cls, errors.Record) for cls in RECORDS)


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
    names = [f.name for f in dataclasses.fields(cls)]
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
