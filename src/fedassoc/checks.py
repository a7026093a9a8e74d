"""Field checks shared by the config dataclasses."""

from __future__ import annotations

import math
import numbers


def require_integers(obj, names) -> None:
    """Reject fields of `obj` that are not integers, bools and 2.0 included."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def require_finite(obj, names) -> None:
    """Reject float fields of `obj` that are NaN or infinite; None passes."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
