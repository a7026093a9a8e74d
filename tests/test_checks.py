"""Every config field is checked against its annotation, including fields added later."""

import dataclasses
import math
import typing

import numpy as np
import pytest

from fedassoc.agents import TrainerConfig
from fedassoc.checks import POSITIVE, UNIT, Range
from fedassoc.env import EnvConfig
from fedassoc.harness import ExperimentConfig, config_from_dict

CONFIGS = (EnvConfig, TrainerConfig, ExperimentConfig)


def declared(cls, name):
    """A field's type and the Range its annotation declares, or None."""
    hint = typing.get_type_hints(cls, include_extras=True)[name]
    args = typing.get_args(hint)
    if type(None) in args:
        hint = args[0]
    if typing.get_origin(hint) is typing.Annotated:
        return typing.get_args(hint)
    return hint, None


# Fields that may hold an infinite value; every other float field must be finite.
MAY_BE_INFINITE = {
    f.name
    for cls in CONFIGS
    for f in dataclasses.fields(cls)
    if getattr(declared(cls, f.name)[1], "infinite", False)
}


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
    with pytest.raises(ValueError) as info:
        dataclasses.replace(cls(), **{name: value})
    assert str(info.value).startswith(f"{name} must be")


def test_defaults_and_wider_numeric_types_pass():
    for cls in CONFIGS:
        cls()
    EnvConfig(road_length=1000, mean_speeds=[5, np.float64(7.0)])
    TrainerConfig(batch_size=np.int64(8), grad_clip=math.inf, epsilon_end=None)


@pytest.mark.parametrize("cls", CONFIGS)
def test_configs_are_frozen(cls):
    cfg = cls()
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, f.name, getattr(cfg, f.name))


def test_range_rules_read_as_errors_state_them():
    assert str(Range(1)) == ">= 1"
    assert str(POSITIVE) == "> 0"
    assert str(UNIT) == "in [0, 1]"
    assert str(Range(0, 1, open=True, note=" (x)")) == "in (0, 1] (x)"
    assert MAY_BE_INFINITE == {"grad_clip"}


def step(value, item, direction):
    """The nearest value of type `item` beyond `value` in `direction` (+1 or -1)."""
    return value + direction if item is int else math.nextafter(value, direction * math.inf)


def range_edges():
    """Each end of each declared range: the edge value a field accepts, and
    the nearest value beyond it, which it rejects."""
    for cls in CONFIGS:
        for f in dataclasses.fields(cls):
            hint, bounds = declared(cls, f.name)
            if bounds is None:
                continue
            is_list = typing.get_origin(hint) is tuple
            item = typing.get_args(hint)[0] if is_list else hint
            low = item(bounds.low)
            edges = [(step(low, item, 1), low) if bounds.open else (low, step(low, item, -1))]
            if bounds.high < math.inf:
                high = item(bounds.high)
                edges.append((high, step(high, item, 1)))
            rule = str(bounds)
            if is_list:
                rule = f"a list of {'integers' if item is int else 'numbers'} {rule}"
            for inside, outside in edges:
                # Two items: mean_speeds takes one per vehicle of the default world.
                inside, outside = ([v] * 2 if is_list else v for v in (inside, outside))
                yield pytest.param(cls, f.name, inside, outside, rule,
                                   id=f"{cls.__name__}.{f.name}={outside!r}")


@pytest.mark.parametrize("cls, name, inside, outside, rule", range_edges())
def test_each_declared_range_takes_its_edge_and_rejects_the_value_beyond(
    cls, name, inside, outside, rule
):
    dataclasses.replace(cls(), **{name: inside})
    with pytest.raises(ValueError) as info:
        dataclasses.replace(cls(), **{name: outside})
    assert str(info.value) == f"{name} must be {rule}, got {outside!r}"


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
        changes = {name: [value] if is_list else value}
        if may_be_infinite and value > 0:
            dataclasses.replace(cls(), **changes)
            continue
        with pytest.raises(ValueError) as info:
            dataclasses.replace(cls(), **changes)
        message = f"{name} must be > 0" if may_be_infinite else f"{name} must be finite"
        assert str(info.value).startswith(message)


# Config values that break a rule of a config's check, each with the rule its
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


def replaced(data):
    """The ExperimentConfig of `data`, each key given by `dataclasses.replace`
    on the default of its section: EnvConfig, TrainerConfig or the run's."""
    sections, run = {}, dict(data)
    for name, cls in (("env", EnvConfig), ("trainer", TrainerConfig)):
        keys = {f.name for f in dataclasses.fields(cls)} & data.keys()
        sections[name] = dataclasses.replace(cls(), **{key: run.pop(key) for key in keys})
    return dataclasses.replace(ExperimentConfig(), **sections, **run)


@pytest.mark.parametrize("data", [data for data, _ in RULE_BREAKS.values()], ids=RULE_BREAKS)
def test_replace_breaks_a_rule_with_the_message_of_a_config_file(data):
    with pytest.raises(ValueError) as from_file:
        config_from_dict(data)
    with pytest.raises(ValueError) as from_replace:
        replaced(data)
    assert str(from_replace.value) == str(from_file.value)


@pytest.mark.parametrize("data, rule", RULE_BREAKS.values(), ids=RULE_BREAKS)
def test_rule_messages_name_the_values_given(data, rule):
    with pytest.raises(ValueError) as info:
        config_from_dict(data)
    message = str(info.value)
    assert message.startswith(rule)
    for value in data.values():
        assert str(value) in message, (value, message)
