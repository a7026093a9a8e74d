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
# Options earlier versions wrote, with the one value they may still hold: it
# is now the only behaviour, so the key is dropped on read.
DROPPED_OPTIONS = {"share_mode": "vector"}


def config_from_json(cls, data: dict, **built):
    """Build config dataclass `cls` from the JSON object `data`.

    Removed and unknown keys are rejected, a dropped key is skipped when it
    holds its one value and rejected otherwise, and JSON lists become tuples.
    `built` passes fields that are already objects (the sections of a nested
    config); `data` may not name them.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {data!r}")
    hints = _type_hints(cls)
    kwargs = dict(built)
    for key, value in data.items():
        if key in DROPPED_OPTIONS:
            kept = DROPPED_OPTIONS[key]
            if value != kept:
                raise ValueError(
                    f"option {key!r} was removed; only {kept!r} remains, got {value!r}"
                )
            continue
        if key in REMOVED_OPTIONS:
            raise ValueError(f"option {key!r} {REMOVED_OPTIONS[key]}")
        if key not in hints or key in built:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


@functools.cache
def _type_hints(cls) -> dict:
    """`typing.get_type_hints`, evaluated once per config class."""
    return typing.get_type_hints(cls)


def is_integer(value) -> bool:
    """True for integers (numpy's too); False for bools and for floats such as 2.0."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# What a field annotated with each single-value type takes, and how errors
# name one value and a list of them.
_SCALARS = {
    int: (is_integer, "an integer", "integers"),
    float: (
        lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool), "a number", "numbers"
    ),
    str: (lambda v: isinstance(v, str), "a string", "strings"),
    bool: (lambda v: isinstance(v, bool), "true or false", "booleans"),
}


def _as_float(value) -> float:
    """`float(value)`; an integer too large for a float reads as the infinity of its sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_fields(obj, infinite: tuple[str, ...] = ()) -> None:
    """Check every field of config dataclass `obj` against its annotation.

    int takes integers but not bools or 2.0; float takes real numbers but not
    bools, finite unless the field is named in `infinite` (an integer too
    large for a float counts as infinite); str and bool take exactly that
    type; tuple[T, ...] takes a list of T; Optional[T] takes None or T; a
    nested config takes an instance of its class. A mismatch raises
    ValueError naming the field and the value.
    """
    for name, hint in _type_hints(type(obj)).items():
        value = getattr(obj, name)
        if type(None) in typing.get_args(hint):
            if value is None:
                continue
            hint = typing.get_args(hint)[0]
        shown = list(value) if isinstance(value, tuple) else value
        if typing.get_origin(hint) is tuple:
            hint = typing.get_args(hint)[0]
            accepts, _, kinds = _SCALARS[hint]
            values, kind = value, f"a list of {kinds}"
            ok = isinstance(value, (tuple, list)) and all(map(accepts, value))
        elif hint in _SCALARS:
            accepts, kind, _ = _SCALARS[hint]
            values, ok = (value,), accepts(value)
        else:
            values, kind, ok = (), f"a {hint.__name__}", isinstance(value, hint)
        if not ok:
            raise ValueError(f"{name} must be {kind}, got {shown!r}")
        if hint is float and not all(
            math.isfinite(f) or (name in infinite and not math.isnan(f))
            for f in map(_as_float, values)
        ):
            bound = "a number, not NaN" if name in infinite else "finite"
            raise ValueError(f"{name} must be {bound}, got {shown!r}")
