"""Field checks shared by the config dataclasses, and their JSON ingestion."""

from __future__ import annotations

import functools
import math
import numbers
import typing

# Options earlier versions accepted, with what takes their place.
REMOVED_OPTIONS = {
    "encrypt": "was removed; share_noise_std: 0 is the noiseless setting",
    "clear_replay_per_episode": "was removed; the replay buffer persists across episodes",
}


def config_from_json(cls, data: dict, **built):
    """Build config dataclass `cls` from the JSON object `data`.

    Removed and unknown keys are rejected, and JSON lists become tuples for
    tuple-typed fields. `built` passes fields that are already objects (the
    sections of a nested config); `data` may not name them.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {data!r}")
    hints = _type_hints(cls)
    kwargs = dict(built)
    for key, value in data.items():
        if key in REMOVED_OPTIONS:
            raise ValueError(f"option {key!r} {REMOVED_OPTIONS[key]}")
        if key not in hints or key in built:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(value, list) and _is_tuple_type(hints[key]):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


@functools.cache
def _type_hints(cls) -> dict:
    """`typing.get_type_hints`, evaluated once per config class."""
    return typing.get_type_hints(cls)


def _is_tuple_type(hint) -> bool:
    """True for tuple[...] and Optional[tuple[...]]."""
    return tuple in (typing.get_origin(hint), *map(typing.get_origin, typing.get_args(hint)))


def is_integer(value) -> bool:
    """True for integers (numpy's too); False for bools and for floats such as 2.0."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_integers(obj, names) -> None:
    """Reject fields of `obj` that are not integers, bools and 2.0 included."""
    for name in names:
        value = getattr(obj, name)
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def require_integer_list(obj, name, minimum: int, distinct: bool = False) -> None:
    """Reject a field of `obj` that is not a list of integers >= `minimum`."""
    values = getattr(obj, name)
    ok = isinstance(values, (tuple, list)) and all(
        is_integer(v) and v >= minimum for v in values
    )
    if ok and distinct:
        ok = len(set(values)) == len(values)
    if not ok:
        kind = "distinct integers" if distinct else "integers"
        shown = list(values) if isinstance(values, tuple) else values
        raise ValueError(f"{name} must be a list of {kind} >= {minimum}, got {shown!r}")


def require_positive_list(obj, name) -> None:
    """Reject a field of `obj` that is not a list of finite numbers > 0, bools included."""
    values = getattr(obj, name)
    if not isinstance(values, (tuple, list)) or any(
        isinstance(v, bool) or not isinstance(v, numbers.Real) for v in values
    ):
        shown = list(values) if isinstance(values, tuple) else values
        raise ValueError(f"{name} must be a list of numbers, got {shown!r}")
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise ValueError(f"{name} must be finite and > 0, got {list(values)!r}")


def require_finite(obj, names) -> None:
    """Reject float fields of `obj` that are NaN or infinite; None passes."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
