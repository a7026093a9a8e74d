"""Every config field is checked against its annotation, including fields added later."""

import dataclasses
import math
import typing

import numpy as np
import pytest

from fedassoc.agents import TrainerConfig
from fedassoc.env import EnvConfig
from fedassoc.harness import ExperimentConfig

CONFIGS = (EnvConfig, TrainerConfig, ExperimentConfig)

# Fields that may hold an infinite value; every other float field must be finite.
MAY_BE_INFINITE = {"grad_clip"}


def bad_values(cls, name):
    """Values of the wrong type or non-finite values for one field, from its annotation."""
    hint = typing.get_type_hints(cls)[name]
    args = typing.get_args(hint)
    if type(None) in args:
        hint = args[0]
    if typing.get_origin(hint) is tuple:
        return [1, [True]]
    if hint is int:
        return [True, 2.5]
    if hint is float:
        return [True, "1", math.nan] + ([] if name in MAY_BE_INFINITE else [math.inf])
    if hint is str:
        return [5, None]
    if hint is bool:
        return ["yes", 1]
    if dataclasses.is_dataclass(hint):
        return [{}]
    raise AssertionError(f"{cls.__name__}.{name}: no bad values for {hint}; add them here")


CASES = [
    pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")
    for cls in CONFIGS
    for f in dataclasses.fields(cls)
    for value in bad_values(cls, f.name)
]


@pytest.mark.parametrize("cls, name, value", CASES)
def test_every_field_rejects_values_of_another_type(cls, name, value):
    cfg = dataclasses.replace(cls(), **{name: value})
    with pytest.raises(ValueError) as info:
        cfg.validate()
    assert str(info.value).startswith(f"{name} must be")


def test_defaults_and_wider_numeric_types_pass():
    for cls in CONFIGS:
        cls().validate()
    EnvConfig(road_length=1000, mean_speeds=[5, np.float64(7.0)]).validate()
    TrainerConfig(batch_size=np.int64(8), grad_clip=math.inf, epsilon_end=None).validate()


# An integer too large for a float: math.isfinite raises OverflowError on it.
HUGE = 10**400


def float_fields():
    for cls in CONFIGS:
        for f in dataclasses.fields(cls):
            hint = typing.get_type_hints(cls)[f.name]
            args = typing.get_args(hint)
            if float in args or hint is float:
                yield pytest.param(cls, f.name, f.name in MAY_BE_INFINITE,
                                   id=f"{cls.__name__}.{f.name}")


@pytest.mark.parametrize("cls, name, may_be_infinite", float_fields())
def test_integer_too_large_for_a_float_is_not_finite(cls, name, may_be_infinite):
    is_list = typing.get_origin(typing.get_type_hints(cls)[name]) is tuple
    for value in (HUGE, -HUGE):
        cfg = dataclasses.replace(cls(), **{name: [value] if is_list else value})
        if may_be_infinite and value > 0:
            cfg.validate()
            continue
        with pytest.raises(ValueError) as info:
            cfg.validate()
        message = f"{name} must be > 0" if may_be_infinite else f"{name} must be finite"
        assert str(info.value).startswith(message)
