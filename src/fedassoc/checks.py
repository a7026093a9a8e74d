"""Field checks shared by the config dataclasses, and their JSON ingestion."""

from __future__ import annotations

import functools
import math
import numbers
import typing
from dataclasses import dataclass

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
    hints = _field_rules(cls)
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
def _field_rules(cls) -> dict:
    """Each field of `cls`, read from its annotation: (type, Range or None, takes None)."""
    rules = {}
    for name, hint in typing.get_type_hints(cls, include_extras=True).items():
        optional = type(None) in typing.get_args(hint)
        hint = typing.get_args(hint)[0] if optional else hint
        annotated = typing.get_origin(hint) is typing.Annotated
        rules[name] = (*typing.get_args(hint), optional) if annotated else (hint, None, optional)
    return rules


@dataclass(frozen=True)
class Range:
    """A numeric field's bounds, or each item's in a list field: `low <= value <=
    high`, or `low < value` if `open`. Errors state the rule, then `note`. A
    float field is finite unless `infinite` lets it hold inf (`high` is then inf)."""

    low: float
    high: float = math.inf
    open: bool = False
    note: str = ""
    infinite: bool = False

    def __str__(self) -> str:
        if self.high < math.inf:
            return f"in {'(' if self.open else '['}{self.low}, {self.high}]{self.note}"
        return f"{'>' if self.open else '>='} {self.low}{self.note}"

    def holds(self, value) -> bool:
        return (self.low < value if self.open else self.low <= value) and value <= self.high


POSITIVE = Range(0, open=True)
UNIT = Range(0, 1)


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


def check_fields(obj) -> None:
    """Check every field of config dataclass `obj` against its annotation, which
    declares its type and, as `Annotated[T, Range(...)]`, its range.

    int takes integers but not bools or 2.0; float takes real numbers but not
    bools, finite unless its Range is `infinite` (an integer too large for a
    float counts as infinite); str and bool take exactly that type;
    tuple[T, ...] takes a list of T; Optional[T] takes None or T; a nested
    config takes an instance of its class; a Range bounds the value or each
    item. The first field, in declaration order, to break its rule raises
    ValueError naming it, the rule and the value. Each config's `__post_init__`
    calls it, then checks the rules between fields.
    """
    for name, (hint, bounds, optional) in _field_rules(type(obj)).items():
        value = getattr(obj, name)
        if optional and value is None:
            continue
        infinite = getattr(bounds, "infinite", False)
        if typing.get_origin(hint) is tuple:
            hint = typing.get_args(hint)[0]
            accepts, _, kinds = _SCALARS[hint]
            values, kind = value, f"a list of {kinds}"
            ok = isinstance(value, (tuple, list)) and all(map(accepts, value))
            prefix = f"{kind} "
        elif hint in _SCALARS:
            accepts, kind, _ = _SCALARS[hint]
            values, ok, prefix = (value,), accepts(value), ""
        else:
            values, kind, ok = (), f"a {hint.__name__}", isinstance(value, hint)
        if not ok:
            rule = kind
        elif hint is float and not all(
            math.isfinite(f) or (infinite and not math.isnan(f)) for f in map(_as_float, values)
        ):
            rule = "a number, not NaN" if infinite else "finite"
        elif bounds is not None and not all(map(bounds.holds, values)):
            rule = f"{prefix}{bounds}"
        else:
            continue
        shown = list(value) if isinstance(value, tuple) else value
        raise ValueError(f"{name} must be {rule}, got {shown!r}")
