"""JSON codec for the config dataclasses.

Every config file (scenario, feature, experiment spec) and every config
stored in a model bundle is read by `from_dict` and written by `to_dict`.
Both are driven by the dataclass fields and their type hints, so key
names and defaults are stated once, in the dataclasses. A field's file
key is its name unless `field(metadata={"key": ...})` renames it.

Decoding rules; every fault is a ConfigurationError naming the key path:
  * unknown keys are refused at every level; a missing key takes the
    field default, and a missing key without one is refused
  * int takes a JSON integer (not true/false, not 2.9)
  * float takes a finite JSON number, stored as float
  * bool takes true/false, str takes a string
  * Optional[X] also takes null, Tuple[X, ...] takes a list, and a
    nested dataclass takes an object
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from functools import lru_cache

from .errors import ConfigurationError


def _key(f: dataclasses.Field) -> str:
    return f.metadata.get("key", f.name)


def to_dict(config) -> dict:
    """The JSON object for a config dataclass: file keys, nested
    dataclasses as objects, tuples as lists."""
    return {_key(f): _encode(getattr(config, f.name)) for f in dataclasses.fields(config)}


def _encode(value):
    if dataclasses.is_dataclass(value):
        return to_dict(value)
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


@lru_cache(maxsize=None)
def _fields(cls) -> dict:
    """File key -> (field, resolved type) for a config dataclass."""
    hints = typing.get_type_hints(cls)
    return {_key(f): (f, hints[f.name]) for f in dataclasses.fields(cls)}


def from_dict(cls, d, where: str):
    """Decode a JSON object into the config dataclass `cls`; `where`
    names the object in error messages (e.g. "scenario config")."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {type(d).__name__}")
    fields = _fields(cls)
    unknown = set(d) - set(fields)
    if unknown:
        raise ConfigurationError(f"{where} has unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, (f, tp) in fields.items():
        if key in d:
            kwargs[f.name] = decode(tp, d[key], f"{where}.{key}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigurationError(f"{where} is missing required key {key!r}")
    return cls(**kwargs)


def decode(tp, value, where: str):
    """One JSON value as type `tp`, by the rules in the module docstring."""
    if tp is float:
        # bool is an int subclass; a JSON true is no number
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                out = float(value)
            except OverflowError:  # a JSON integer past float range
                out = math.inf
            if math.isfinite(out):
                return out
        raise ConfigurationError(f"{where} must be a finite number, got {value!r:.60}")
    if tp in _SCALARS:
        if isinstance(value, tp) and not (tp is int and isinstance(value, bool)):
            return value
        raise ConfigurationError(f"{where} must be {_SCALARS[tp]}, got {value!r:.60}")
    args = typing.get_args(tp)
    if type(None) in args:  # Optional[X]
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return decode(tp, value, where)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigurationError(f"{where} must be a list, got {value!r:.60}")
        return tuple(decode(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, value, where)
    raise TypeError(f"no JSON decoding for {tp!r} at {where}")


_SCALARS = {int: "an integer", bool: "true or false", str: "a string"}


def load_object(path, what: str) -> dict:
    """The JSON object in the file at `path`; `what` names the file in
    error messages."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            d = json.load(fh)
    # ValueError: bad JSON or non-ASCII bytes; RecursionError: nesting
    # deeper than the parser's stack
    except (OSError, ValueError, RecursionError) as e:
        raise ConfigurationError(f"cannot read {what} {path}: {e}") from e
    if not isinstance(d, dict):
        raise ConfigurationError(f"{what} {path} must hold a JSON object")
    return d
