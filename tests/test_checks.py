"""Every config field is checked against its annotation, including fields added later."""

import dataclasses
import math
import typing

import numpy as np
import pytest

from fedassoc.agents import TrainerConfig
from fedassoc.env import EnvConfig
from fedassoc.harness import ExperimentConfig, config_from_dict

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


# Config values that break a rule of `validate`, each with the rule its
# message states; the message also names every value given.
RULE_BREAKS = {
    "num-vehicles": ({"num_vehicles": 0}, "num_vehicles must be >= 1"),
    "horizon": ({"horizon": 0}, "horizon must be >= 1"),
    "power-levels": ({"power_levels": 1}, "power_levels must be >= 2"),
    "power-range": ({"power_min_dbm": 35.0, "power_max_dbm": 23.0},
                    "power_min_dbm must be < power_max_dbm"),
    "road-length": ({"road_length": -5.0}, "road_length must be > 0"),
    # Layouts numpy cannot size: their allocation fails at once.
    "num-rsus-10**45": ({"num_rsus": 10**45}, "num_rsus must be at most"),
    "num-rsus-2**62": ({"num_rsus": 2**62}, "num_rsus must be at most"),
    "mean-speed-low": ({"mean_speed_low": 0.0, "mean_speed_high": 10.0},
                       "mean speed range must satisfy 0 < low <= high"),
    "mean-speed-order": ({"mean_speed_low": 9.0, "mean_speed_high": 6.0},
                         "mean speed range must satisfy 0 < low <= high"),
    "mean-speeds-length": ({"mean_speeds": [5.0, 6.0, 7.0]},
                           "mean_speeds must have one entry per vehicle"),
    "speed-std": ({"speed_std": -1.5}, "speed_std must be >= 0"),
    "gain-range": ({"gain_db_low": -40.0, "gain_db_high": -60.0},
                   "gain_db_low must be < gain_db_high"),
    "discount": ({"discount": 1.5}, "discount must be in [0, 1]"),
    "epsilon-end": ({"epsilon_end": -0.25}, "epsilon_end must be in [0, 1]"),
    "batch-size": ({"batch_size": 0}, "batch_size must be >= 1"),
    "target-sync": ({"target_sync": -3}, "target_sync must be >= 1"),
    "fedavg-period": ({"fedavg_period": 0}, "fedavg_period must be >= 1"),
    "replay-capacity": ({"replay_capacity": 16, "batch_size": 32},
                        "replay_capacity must be >= batch_size"),
    "grad-clip": ({"grad_clip": -2.5}, "grad_clip must be > 0"),
    "lr-order": ({"lr_start": 0.002, "lr_end": 0.02}, "need lr_start >= lr_end > 0"),
    "lr-end": ({"lr_start": 0.01, "lr_end": 0.0}, "need lr_start >= lr_end > 0"),
    "eval-window": ({"episodes": 10, "eval_window": 11}, "eval_window must be in [1, episodes]"),
}


@pytest.mark.parametrize("data, rule", RULE_BREAKS.values(), ids=RULE_BREAKS)
def test_rule_messages_name_the_values_given(data, rule):
    with pytest.raises(ValueError) as info:
        config_from_dict(data)
    message = str(info.value)
    assert message.startswith(rule)
    for value in data.values():
        assert str(value) in message, (value, message)
