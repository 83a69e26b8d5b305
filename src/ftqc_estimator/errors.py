"""Exception hierarchy for the estimation engine, and its JSON spelling.

Every error raised deliberately by this package derives from
:class:`EstimatorError`, so callers can distinguish engine failures from
programming mistakes with a single ``except`` clause.  The readers below
decode job JSON into typed values.  Every record is declared with
:func:`record` and takes ``==``, ``hash`` and ``repr`` from :class:`Record`.
:class:`JsonRecord` reads and writes every record from its dataclass
fields, each key the camelCase of its field's name, so a record's keys are
spelled once, by its fields, and :func:`indented_json` writes records and
documents as indented JSON.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from json.encoder import encode_basestring_ascii
from numbers import Real
from typing import Callable, Optional, Union, get_args, get_origin, get_type_hints


class EstimatorError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# formula engine


class FormulaError(EstimatorError):
    """Base class for formula parsing and evaluation failures."""


class FormulaSyntaxError(FormulaError):
    """Malformed formula source.

    ``position`` is the 0-based character offset of the offending input;
    ``expected`` describes what the parser was looking for there.
    """

    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"at position {position}: expected {expected}")


class UnknownFunctionError(FormulaError):
    """A function call uses a name outside the recognized function set."""

    def __init__(self, name: str, position: int = 0):
        self.name = name
        self.position = position
        super().__init__(f"unknown function {_shown(repr(name))} at position {position}")


class UnboundVariableError(FormulaError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {_shown(repr(name))} is not bound in the environment")


class DivisionByZeroError(FormulaError):
    """Division by zero, or zero raised to a negative power."""


class FormulaDomainError(FormulaError):
    """Argument outside a function's or operator's real domain."""


# ---------------------------------------------------------------------------
# trace ingestion and logical counts


class TraceError(EstimatorError):
    """Base class for malformed gate-event traces."""


class TraceFormatError(TraceError):
    """Unparseable trace record or unknown ``op`` value."""


class UseAfterReleaseError(TraceError):
    def __init__(self, qubit_id: int, event_index: int):
        self.qubit_id = qubit_id
        self.event_index = event_index
        super().__init__(
            f"event {event_index} references qubit {qubit_id}, which is not allocated"
        )


class DoubleAllocError(TraceError):
    def __init__(self, qubit_id: int, event_index: int):
        self.qubit_id = qubit_id
        self.event_index = event_index
        super().__init__(
            f"event {event_index} allocates qubit {qubit_id}, which is already live"
        )


class ArityMismatchError(TraceError):
    def __init__(self, event_index: int, detail: str):
        self.event_index = event_index
        super().__init__(f"event {event_index}: {detail}")


class InvalidCountsError(EstimatorError):
    """A logical-counts record violates its invariants."""

    def __init__(self, field: str, detail: str):
        self.field = field
        super().__init__(f"invalid counts field {_shown(repr(field))}: {detail}")


# ---------------------------------------------------------------------------
# layout estimation


class InvalidBudgetError(EstimatorError):
    """Rotation-synthesis budget outside the open interval (0, 1)."""


# ---------------------------------------------------------------------------
# error correction


class AboveThresholdError(EstimatorError):
    """Physical error rate at or above the scheme's correction threshold."""

    def __init__(self, physical_error_rate: float, threshold: float):
        self.physical_error_rate = physical_error_rate
        self.threshold = threshold
        super().__init__(
            f"physical error rate {physical_error_rate:g} is not below the "
            f"error correction threshold {threshold:g}"
        )


class DistanceExhaustedError(EstimatorError):
    """No code distance up to the scheme's maximum meets the target."""

    def __init__(self, max_code_distance: int):
        self.max_code_distance = max_code_distance
        super().__init__(
            f"no odd code distance <= {max_code_distance} reaches the target "
            "logical error rate"
        )


# ---------------------------------------------------------------------------
# T factories


class NoFeasiblePipelineError(EstimatorError):
    """No distillation chain reaches the required T-state error."""


class FactoryConstraintInfeasibleError(EstimatorError):
    """Copy limit cannot be met even at the maximum allowed slowdown."""


class RuntimeTooShortError(EstimatorError):
    """A single factory run does not fit in the (stretched) runtime."""

    def __init__(self, duration_per_run: float, runtime: float):
        self.duration_per_run = duration_per_run
        self.runtime = runtime
        super().__init__(
            f"factory run of {duration_per_run:g} ns does not fit in the "
            f"available runtime of {runtime:g} ns"
        )


# ---------------------------------------------------------------------------
# pipeline and front end


class ConfigError(EstimatorError, ValueError):
    """Invalid job specification, profile, command-line usage, or component argument."""


class InvalidPartitionError(ConfigError):
    """Budget parts that do not sum to the total, or a used share outside (0, 1)."""


class EstimationStageError(EstimatorError):
    """Component failure tagged with the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: EstimatorError):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {cause}")


# Readers for decoded job, scheme, unit and profile JSON; each malformed
# value ends as a ConfigError.


def _shown(text: str) -> str:
    """``text`` cut to 100 characters, so an echoed value stays short."""
    return text if len(text) <= 100 else text[:100] + "..."


def read_record(value, what: str, fields: Optional[frozenset] = None, required=frozenset()):
    """``value`` as an object with every ``required`` key and no key outside ``fields``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {_shown(repr(value))}")
    keys = value.keys()
    if not keys >= required:
        raise ConfigError(f"{what} is missing {', '.join(sorted(required - keys))}")
    if fields is not None and not keys <= fields:
        raise ConfigError(f"unknown {what} field(s): {_shown(', '.join(sorted(keys - fields)))}")
    return value


def read_number(value, what: str, whole: bool = False):
    """``value`` as a finite ``float``, or with ``whole`` as an ``int``.

    Booleans and strings are not numbers; a fraction is not whole, 15.0 is;
    an integer beyond float range is not finite.
    """
    kind = type(value)  # the exact types first: the ABC check is slower
    is_number = kind is float or kind is int or (isinstance(value, Real) and kind is not bool)
    if not (is_number and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{what} must be a finite number, got {_shown(repr(value))}")
    if not whole:
        return float(value)
    if value != int(value):
        raise ConfigError(f"{what} must be a whole number, got {_shown(repr(value))}")
    return int(value)


def read_string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {_shown(repr(value))}")
    return value


def read_list(value, what: str, read_item: Callable) -> tuple:
    """``value`` as a non-empty list, each item read by ``read_item``."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{what} must be a non-empty list")
    return tuple(read_item(item, f"{what}[{i}]") for i, item in enumerate(value))


def read_choice(value, what: str, choices: type[Enum]):
    """``value`` as a member of the string enum ``choices``."""
    try:
        return choices(value)
    except ValueError:
        expected = ", ".join(repr(choice.value) for choice in choices)
        raise ConfigError(f"unknown {what} {_shown(repr(value))}; expected one of {expected}") from None


def read_file(path, what: str, parse: Callable = json.loads):
    """``parse`` applied to the UTF-8 text of the file at ``path`` (a path
    object); a file that cannot be read or decoded is a ConfigError."""
    shown = _shown(str(path))
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(what, path, exc) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {shown} is not valid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # int-string limit, or nested too deep
        raise ConfigError(f"{what} {shown} is not valid JSON: {exc}") from exc


def _unreadable(what: str, path, exc: Exception) -> ConfigError:
    """The error for a file that cannot be read; an OS error's text repeats
    the file name, so both echoes are cut like any other."""
    return ConfigError(f"cannot read {what} {_shown(str(path))}: {_shown(str(exc))}")


class Record:
    """Mixin giving a dataclass declared with :func:`record` the ``==``,
    ``hash`` and ``repr`` that ``dataclasses`` would generate for it: equal
    only to an instance of the same class whose field tuple is equal, the
    hash of that tuple, and ``Name(field=value, ...)`` in field order.
    Written once here, they cost nothing per class at import.  A pickled or
    copied record holds its fields alone, not values kept beside them."""

    _field_names: tuple[str, ...] = ()  # set by record()

    def _field_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._field_names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values() == other._field_values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._field_names)
        return f"{self.__class__.__qualname__}({shown})"

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self._field_names}


def record(cls: type) -> type:
    """``cls``, a :class:`Record`, as a frozen dataclass: ``dataclasses``
    generates its ``__init__`` and the frozen setters, and :class:`Record`
    supplies the rest.  Give the class a docstring: without one,
    ``dataclasses`` writes one from ``inspect.signature`` at import."""
    cls = dataclass(frozen=True, eq=False, repr=False)(cls)
    cls._field_names = tuple(f.name for f in fields(cls))
    return cls


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(part.capitalize() for part in rest)


class JsonRecord(Record):
    """Mixin giving a dataclass its JSON form, read and written from its
    fields: each field, in field order, under the camelCase of its name or
    under its entry in ``_RENAMED``.

    Values encode as: records by their own mapping, tuples and lists as
    lists, dicts as objects, enums by value, formula trees by their source
    text (their ``str``); None, bool, int, float and str pass through.
    :func:`indented_json` writes the same JSON without building the
    mapping, and :meth:`from_mapping` reads the same keys back.  A record
    whose decoding raises errors of its own overrides :meth:`from_mapping`.
    """

    _RENAMED: dict[str, str] = {}
    _BARE_KEYS = False  # True where messages name a key alone, as the job's do
    _hints = classmethod(functools.cache(get_type_hints))  # each field's annotation, by attribute

    @classmethod
    @functools.cache
    def _json_fields(cls) -> tuple[tuple[str, str], ...]:
        """(attribute, key) per field, in field order."""
        return tuple((f.name, cls._RENAMED.get(f.name) or _camel(f.name)) for f in fields(cls))

    @classmethod
    @functools.cache
    def _json_readers(cls) -> tuple[tuple, frozenset, frozenset]:
        """(attribute, key, reader) per field, then all keys and the keys
        of the fields without a default, which are required."""
        hints = cls._hints()
        readers = tuple((attr, key, _reader(hints[attr])) for attr, key in cls._json_fields())
        required = frozenset(
            key
            for f, (_, key) in zip(fields(cls), cls._json_fields())
            if f.default is MISSING and f.default_factory is MISSING
        )
        return readers, frozenset(key for _, key, _ in readers), required

    @classmethod
    @functools.cache
    def _json_heads(cls, newline: str) -> tuple[tuple[str, str], ...]:
        """(attribute, the text before its value) per field, for the record
        written after ``newline``."""
        inner = newline + "  "
        return tuple(
            (attr, ("," if i else "{") + inner + encode_basestring_ascii(key) + ": ")
            for i, (attr, key) in enumerate(cls._json_fields())
        )

    def as_mapping(self) -> dict:
        return {key: _encoded(getattr(self, attr)) for attr, key in self._json_fields()}

    @classmethod
    def from_mapping(cls, data, what: str = ""):
        """The record that :meth:`as_mapping` would write as ``data``.

        A key whose field has a default may be absent or null, which leaves
        the default.  Messages name the record as ``what`` (by default the
        class name), then the key.
        """
        what = what or cls.__name__
        prefix = "" if cls._BARE_KEYS else f"{what} "
        readers, keys, required = cls._json_readers()
        read_record(data, what, keys, required)
        return cls(**{
            attr: read(data[key], prefix + key)
            for attr, key, read in readers
            if key in required or data.get(key) is not None
        })

    @classmethod
    def from_strings(cls, *args, **kwargs):
        """The constructor, with each formula field given as source text and
        parsed, in field order, before the record checks its values."""
        from . import formulas  # formulas imports this module

        arguments = inspect.signature(cls).bind(*args, **kwargs).arguments
        for attr, hint in cls._hints().items():
            if attr in arguments and hint == formulas.FormulaExpr:
                arguments[attr] = formulas.parse_formula(arguments[attr])
        return cls(**arguments)


def _reader(hint) -> Callable:
    """The reader, called with (value, what), of a field annotated ``hint``:
    ``Optional[X]`` reads null as None and else as ``X``, a whole ``int``
    and a finite ``float`` as numbers, a string enum by value, a record by
    its own :meth:`~JsonRecord.from_mapping`, a formula from its source
    text, and ``Union[scalar, X]`` as the record ``X`` if the value is an
    object."""
    # looked up on the module when called, so a replaced parse_formula is
    # seen by the cached readers too; formulas imports this module
    from . import formulas

    if get_origin(hint) is Union and type(None) in get_args(hint):
        read = _reader(Union[tuple(arg for arg in get_args(hint) if arg is not type(None))])
        return lambda value, what: None if value is None else read(value, what)
    if hint is float:
        return read_number
    if hint is int:
        return functools.partial(read_number, whole=True)
    if hint is str:
        return read_string
    if hint == formulas.FormulaExpr:  # a Union too, of its node types, so tested first
        return lambda value, what: formulas.parse_formula(read_string(value, what))
    if get_origin(hint) is Union:
        scalar, record = map(_reader, get_args(hint))
        return lambda value, what: (record if isinstance(value, dict) else scalar)(value, what)
    if get_origin(hint) is tuple:  # tuple[X, ...]: a non-empty list of X
        return functools.partial(read_list, read_item=_reader(get_args(hint)[0]))
    if issubclass(hint, Enum):
        return functools.partial(read_choice, choices=hint)
    if issubclass(hint, JsonRecord):
        return hint.from_mapping
    raise TypeError(f"no JSON reader for fields of type {hint!r}")


_PLAIN = frozenset({type(None), bool, int, float, str})


def _encoded(value):
    if type(value) in _PLAIN:
        return value
    if isinstance(value, JsonRecord):
        return value.as_mapping()
    if isinstance(value, (tuple, list)):
        return [_encoded(item) for item in value]
    if isinstance(value, dict):
        return {key: _encoded(item) for key, item in value.items()}
    if isinstance(value, Enum):
        return value.value
    return str(value)  # a formula tree: str() gives its source text


def indented_json(value) -> str:
    """``json.dumps(_encoded(value), indent=2, allow_nan=False)``, byte for
    byte, written without building the mapping: CPython's C encoder does not
    indent, and its pure-Python fallback is the slower path.  Dict keys are
    strings; a non-finite float raises json's ``ValueError``."""
    chunks: list[str] = []
    _write(value, "\n", chunks.append)
    return "".join(chunks)


def _write(value, newline: str, emit: Callable[[str], None]) -> None:
    """Emit ``value`` as indented JSON, its nested lines after ``newline``."""
    kind = type(value)
    if kind is str:
        emit(encode_basestring_ascii(value))
    elif kind is float:
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        emit(float.__repr__(value))
    elif kind is int:
        emit(int.__repr__(value))
    elif value is None:
        emit("null")
    elif kind is bool:
        emit("true" if value else "false")
    elif isinstance(value, JsonRecord):
        heads = value._json_heads(newline)
        if heads:
            inner = newline + "  "
            for attr, head in heads:
                emit(head)
                _write(getattr(value, attr), inner, emit)
            emit(newline + "}")
        else:
            emit("{}")
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        separator = "{"
        for key, item in value.items():
            emit(separator + inner + encode_basestring_ascii(key) + ": ")
            _write(item, inner, emit)
            separator = ","
        emit(newline + "}")
    elif isinstance(value, (tuple, list)):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        separator = "["
        for item in value:
            emit(separator + inner)
            _write(item, inner, emit)
            separator = ","
        emit(newline + "]")
    elif isinstance(value, Enum):
        _write(value.value, newline, emit)
    else:
        emit(encode_basestring_ascii(str(value)))  # a formula tree: its source text


#: Errors meaning "the requested machine cannot be built", as opposed to a
#: malformed request; the CLI maps these to their own exit code.
INFEASIBLE_ERRORS = (
    AboveThresholdError,
    DistanceExhaustedError,
    NoFeasiblePipelineError,
    FactoryConstraintInfeasibleError,
    RuntimeTooShortError,
)
