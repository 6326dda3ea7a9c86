"""Exception hierarchy shared by all semdrift modules, the JSON value check that raises
ValidationError, and the base classes of the package's records."""

import sys
import unicodedata
from enum import Enum


class SemdriftError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(SemdriftError):
    """Malformed input files, inconsistent resources, or violated contracts."""


class IngestError(SemdriftError):
    """A corpus file could not be read."""


class AnalysisError(SemdriftError):
    """A computation is undefined for the given data (empty stratum, zero vector, ...)."""


class DegenerateVarianceWarning(UserWarning):
    """Emitted when a statistical test runs on data with zero within-group variance."""


class Record:
    """A record: `repr` and `==` read its fields, the positional parameters of its class's
    `__init__`, in order. Attributes set later, such as caches, take no part. Defining
    `__eq__` leaves a record unhashable unless it is a FrozenRecord."""

    def __init_subclass__(cls):
        code = getattr(cls.__init__, "__code__", None)  # a base without an __init__ has none
        cls._fields = code.co_varnames[1:code.co_argcount] if code else ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()


class FrozenRecord(Record):
    """A record whose `__init__` sets its attributes through `self.__dict__`; any later
    assignment or deletion is an AttributeError, and equal records hash equal."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def __hash__(self):
        return hash(self._values())


NUMBER = (int, float)  # a JSON number, which comes back as a float
PATH = (str,)          # a string kept as written, so a file name in any normal form opens
_TYPE_NAMES = {str: "a string", PATH: "a string", int: "an integer", NUMBER: "a number",
               bool: "true or false", dict: "an object", list: "a list"}


def check(name: str, value, spec):
    """Return the JSON value `value` checked against `spec`, or raise a ValidationError
    naming where it failed (`name`, then `.key` for object members, `[i]` for list items).

    A spec is one of:
    - `[item]`: a list, each item of spec `item`;
    - `{str: item}`: an object with any keys, each value of spec `item`;
    - `{key: spec, ...}`: an object whose listed keys have those specs; a null
      value is dropped, so the key takes its default, and unknown keys pass through;
    - an Enum: a string that is one of its values, returned as the member;
    - `NUMBER`, a finite number returned as a float; `str`, returned in NFC;
      `PATH`, a string returned as written; or `int`, `bool`, `dict`, `list`.
    JSON booleans are neither integers nor numbers here, although Python's are.
    """
    if isinstance(spec, list):
        _check_type(name, value, list)
        return [check(f"{name}[{i}]", item, spec[0]) for i, item in enumerate(value)]
    if isinstance(spec, dict):
        _check_type(name, value, dict)
        prefix = f"{name}." if name else ""
        if str in spec:
            return {k: check(prefix + k, v, spec[str]) for k, v in value.items()}
        return {k: check(prefix + k, v, spec[k]) if k in spec else v
                for k, v in value.items() if v is not None}
    if isinstance(spec, type) and issubclass(spec, Enum):
        _check_type(name, value, str)
        return member(name, value, spec)
    _check_type(name, value, spec)
    if spec is NUMBER:  # Python's JSON reader also takes NaN, Infinity and 400-digit integers
        if not abs(value) <= sys.float_info.max:
            raise ValidationError(f"{name} must be a finite number within the float range")
        return float(value)
    if spec is str:
        return unicodedata.normalize("NFC", value)
    return value


def member(name: str, value, enum: type[Enum]):
    """`value` as a member of `enum`, given as the member or its value, or a ValidationError
    naming `name` and the allowed values."""
    try:
        return enum(value)
    except ValueError:
        allowed = ", ".join(repr(m.value) for m in enum)
        raise ValidationError(f"{name} must be one of {allowed}, got {value!r}") from None


def _check_type(name: str, value, expected) -> None:
    if isinstance(value, bool) != (expected is bool) or not isinstance(value, expected):
        raise ValidationError(f"{name} must be {_TYPE_NAMES[expected]}, got {value!r}")
