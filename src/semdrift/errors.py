"""Exception hierarchy shared by all semdrift modules, and the JSON type checks that raise
ValidationError."""


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


NUMBER = (int, float)
_TYPE_NAMES = {str: "a string", int: "an integer", NUMBER: "a number", bool: "true or false",
               dict: "an object", list: "a list"}


def check_type(name: str, value, expected) -> None:
    """Raise ValidationError unless `value` has the JSON type `expected`.

    JSON booleans are neither integers nor numbers here, although Python's are.
    """
    if isinstance(value, bool) != (expected is bool) or not isinstance(value, expected):
        raise ValidationError(f"{name} must be {_TYPE_NAMES[expected]}, got {value!r}")


def check_types(body: dict, types: dict, prefix: str = "") -> dict:
    """Check every known key of a JSON object and return it without its null values."""
    body = {k: v for k, v in body.items() if v is not None}
    for key, expected in types.items():
        if key in body:
            check_type(prefix + key, body[key], expected)
    return body
