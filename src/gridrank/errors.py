"""Exception types shared across the toolkit, and ``from_dict``, which
reads a config dataclass from JSON and raises ConfigError for a bad value.

Each maps to a CLI exit code: ConfigError -> 2, DataError -> 3,
NumericalError -> 4. ShapeError marks a caller's programming error and
has no exit code: outside input that does not fit fails earlier.
"""

import dataclasses
import math
import typing


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class DataError(ValueError):
    """Dataset is missing, malformed, or violates an invariant."""


class NumericalError(ArithmeticError):
    """Non-finite values, divergence, or a numeric domain violation."""


class ShapeError(ValueError):
    """Tensor operands have incompatible shapes: a caller's programming error."""


def from_dict(cls, payload, prefix: str = ""):
    """Build a config dataclass from a JSON object, coercing each value by field type."""
    section = prefix.rstrip(".") or "root"
    if not isinstance(payload, dict):
        raise ConfigError(f"config section {section} must be an object")
    hints = typing.get_type_hints(cls)
    unknown = set(payload) - set(hints)
    if unknown:
        raise ConfigError(f"unknown config key(s) {sorted(unknown)} in section {section}")
    return cls(**{name: _coerce(value, hints[name], f"{prefix}{name}") for name, value in payload.items()})


def _coerce(value, hint, key: str):
    """``value`` as the annotated type ``hint``: a nested section, ``T | None``,
    ``list[T]``, or a scalar (ints widen to float; bools never pass as numbers;
    floats must be finite, though ``json`` parses NaN and Infinity)."""
    if dataclasses.is_dataclass(hint):
        return from_dict(hint, value, f"{key}.")
    arms = typing.get_args(hint)
    if type(None) in arms:
        if value is None:
            return None
        (hint,) = [arm for arm in arms if arm is not type(None)]
    if typing.get_origin(hint) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return [_coerce(item, typing.get_args(hint)[0], key) for item in value]
    if hint is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, hint) or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"{key} must be of type {hint.__name__}, got {value!r}")
    if hint is float and not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return value
