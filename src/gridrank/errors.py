"""Exception types shared across the toolkit; ``from_dict``, which builds a
dataclass or a TypedDict from JSON; and ``read_json``, the one reader of
the JSON files the program writes.

Each maps to a CLI exit code: ConfigError -> 2, DataError -> 3,
NumericalError -> 4. ShapeError marks a caller's programming error and
has no exit code; it is raised only by autodiff's API guards (a
non-scalar loss or checked function, ``item`` of a non-scalar).

Each outside input is checked once, where it enters the program:
- a run config, by ``from_dict`` and each section's ``validate``, then
  against the loaded grid by the CLI and ``training.train`` (cutoffs
  above S, a ``--day`` outside the study period);
- a file, by ``read_json``, ``read_tensors`` and ``grid._load_keyed``,
  then by ``load_grid`` (sizes, the recorded split) and
  ``StGrid.validate`` (finite, non-negative and non-zero risk, a finite
  total gain), and a checkpoint by ``model.load_checkpoint``;
- a grid handed to the model, by ``model._check_inputs``, and a split
  by ``training.split_windows``.
Library functions below those boundaries trust their callers: the
metrics, the cross-K curve, the importance refresh, the surrogate losses
and the Adam step take arrays the program built from a checked grid and
config, and do not check them again. A value that overflows in a run is
a NumericalError where it is computed.
"""

import dataclasses
import functools
import json
import math
import typing
from pathlib import Path


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class DataError(ValueError):
    """Dataset is missing, malformed, or violates an invariant."""


class NumericalError(ArithmeticError):
    """Non-finite values, divergence, or a numeric domain violation."""


class ShapeError(ValueError):
    """Tensor operands have incompatible shapes: a caller's programming error."""


def read_json(path: Path, cls, label: str):
    """The JSON file at ``path``, which the program wrote, as ``cls``. Any
    fault is one DataError line, ``missing file: <path>`` or ``malformed
    <label> <path>: <what>``, where ``what`` names the key path, as in
    ``config.hidden must be positive, got -1``."""
    if not path.exists():
        raise DataError(f"missing file: {path}")
    try:
        with open(path) as fh:
            return from_dict(cls, json.load(fh), written=True)
    except (OSError, ValueError) as exc:  # ConfigError, JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise DataError(f"malformed {label} {path}: {exc}") from None


@functools.cache
def _form(hint) -> tuple:
    """How :func:`_coerce` reads ``hint``: whether it admits None, then
    "section" and the class, "list" and the item's form, or "scalar" and
    the type."""
    if type(None) in typing.get_args(hint):  # T | None
        return (True,) + _form(*(arm for arm in typing.get_args(hint) if arm is not type(None)))[1:]
    if dataclasses.is_dataclass(hint) or typing.is_typeddict(hint):
        return False, "section", hint
    if typing.get_origin(hint) is list:
        return False, "list", _form(typing.get_args(hint)[0])
    return False, "scalar", hint


@functools.cache
def _schema(cls, written: bool) -> tuple[dict, frozenset, bool]:
    """The form of each field of ``cls``, the keys a payload must hold,
    and whether to validate what is built."""
    forms = {name: _form(hint) for name, hint in typing.get_type_hints(cls).items()}
    if typing.is_typeddict(cls):
        return forms, cls.__required_keys__, False
    return forms, frozenset(forms) if written else frozenset(), hasattr(cls, "validate")


def from_dict(cls, payload, prefix: str = "", written: bool = False):
    """Build ``cls``, a dataclass or a TypedDict, from a JSON object,
    coercing each value by its annotated type and rejecting unknown keys.
    A TypedDict needs its required keys. A run config may leave out any
    dataclass field; a file the program wrote (``written``) must hold
    every one. A dataclass with a ``validate`` is validated as built, and
    its error is named with the key path, as in ``model.hidden must be
    positive, got 0``."""
    forms, required, validate = _schema(cls, written)
    if not (isinstance(payload, dict) and forms.keys() >= payload.keys() >= required):
        section = prefix.rstrip(".") or "root"
        if not isinstance(payload, dict):
            raise ConfigError(f"{section} must be a JSON object, got {payload!r}" if written
                              else f"config section {section} must be an object")
        unknown = sorted(payload.keys() - forms.keys())
        if unknown:
            raise ConfigError(f"{section} has unknown keys {unknown}" if written
                              else f"unknown config key(s) {unknown} in section {section}")
        raise ConfigError(f"{section} lacks keys {sorted(required - payload.keys())}")
    built = cls(**{name: _coerce(value, forms[name], f"{prefix}{name}", written) for name, value in payload.items()})
    if validate:
        try:
            built.validate()
        except ConfigError as exc:
            raise ConfigError(f"{prefix}{exc}") from None
    return built


def _coerce(value, form: tuple, key: str, written: bool):
    """``value`` in ``form``: list item i is named ``key[i]``; ints widen to
    float, bools never pass as numbers, and floats must be finite."""
    optional, kind, target = form
    if type(value) is target and target is not float:  # a str, int, bool or dict as annotated
        return value
    if value is None and optional:
        return None
    if kind == "section":
        return from_dict(target, value, f"{key}.", written)
    if kind == "list":
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return [_coerce(entry, target, f"{key}[{i}]", written) for i, entry in enumerate(value)]
    if target is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, target) or (isinstance(value, bool) and target is not bool):
        raise ConfigError(f"{key} must be of type {target.__name__}, got {value!r}")
    if target is float and not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return value
