"""Config ingestion, experiment outputs, summaries and sweeps."""

import dataclasses
import json

import numpy as np
import pytest

from fedassoc.cli import main as cli_main
from fedassoc.harness import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    echo_config,
    load_config,
    run_experiment,
    sweep,
    window_stats,
)
from fedassoc.agents import TrainerConfig
from fedassoc.env import EnvConfig
from fedassoc.metrics import EpisodeRecord, read_metrics_csv, write_metrics_csv


def tiny_config(out_dir, **run_overrides):
    cfg = ExperimentConfig(
        env=EnvConfig(horizon=4),
        trainer=TrainerConfig(
            episodes=3, batch_size=4, replay_capacity=32,
            local_hidden=(8,), mlp_hidden=(8,), target_sync=5,
        ),
        seeds=(1, 2, 3),
        out_dir=str(out_dir),
        eval_window=2,
    )
    for key, value in run_overrides.items():
        setattr(cfg, key, value)
    return cfg


# -- config files ----------------------------------------------------------

def test_empty_config_gives_documented_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    cfg = load_config(path)
    env, trainer = cfg.env, cfg.trainer
    assert env.num_vehicles == 2 and env.num_rsus == 12
    assert env.coverage_radius == 200.0 and env.road_length == 1000.0
    assert env.visible_rsus == 4
    assert (env.power_min_dbm, env.power_max_dbm) == (23.0, 35.0)
    assert env.min_rate == 8.0
    assert (env.mean_speed_low, env.mean_speed_high) == (5.0, 10.0)
    assert env.speed_std == 0.1 and env.speed_memory == 0.1
    assert (env.weight_rate, env.weight_handover, env.weight_power) == (0.5, 0.25, 0.25)
    assert env.penalty == -1.0
    assert trainer.discount == 0.9 and trainer.epsilon == 0.1
    assert trainer.batch_size == 32 and trainer.share_noise_std == 1.0
    assert trainer.local_hidden == (80, 80, 80)
    assert trainer.episodes == 500 and cfg.eval_window == 100


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"num_vehicle": 2}))
    with pytest.raises(ValueError, match="num_vehicle"):
        load_config(path)


def test_out_of_range_value_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"weight_rate": 1.5}))
    with pytest.raises(ValueError, match="weight_rate"):
        load_config(path)
    path.write_text(json.dumps({"eval_window": 900}))
    with pytest.raises(ValueError):
        load_config(path)
    path.write_text("[1, 2]")
    with pytest.raises(ValueError):
        load_config(path)


def test_config_round_trip(tmp_path):
    cfg = tiny_config(tmp_path / "runs", algos=("proposed", "imarl"))
    echoed = echo_config(cfg, tmp_path / "runs")
    loaded = load_config(echoed)
    assert loaded == cfg
    assert config_from_dict(config_to_dict(cfg)) == cfg


# -- metric csv ---------------------------------------------------------------

def test_metrics_csv_round_trip(tmp_path):
    records = [
        EpisodeRecord(1, 0.5, 0.4, 20.0, 3.5, 2.1, 4, 0.1, 0.01),
        EpisodeRecord(2, -0.25, -0.3, 19.0, 0.0, 2.0, 0, 0.1, 0.009),
    ]
    path = tmp_path / "m.csv"
    write_metrics_csv(path, records)
    assert read_metrics_csv(path) == records


# -- experiments ------------------------------------------------------------------

def test_run_experiment_bookkeeping(tmp_path):
    cfg = tiny_config(tmp_path / "runs")
    result = run_experiment(cfg)
    files = sorted(p.name for p in (tmp_path / "runs").iterdir())
    assert "config.json" in files and "summary.txt" in files
    for seed in (1, 2, 3):
        assert f"metrics_proposed_seed{seed}.csv" in files
    assert len(result.records) == 3
    assert all(len(r) == 3 for r in result.records.values())
    assert (tmp_path / "runs" / "checkpoints" / "proposed_seed1").is_dir()


def test_run_experiment_is_byte_identical(tmp_path):
    algos = ("proposed", "cdrl", "imarl", "fmarl-avg")
    for name in ("a", "b"):
        run_experiment(
            tiny_config(tmp_path / name, algos=algos, per_ts_log=True, fedavg_period=2)
        )
    for algo in algos:
        for seed in (1, 2, 3):
            for prefix in ("metrics", "ts_log"):
                fa = (tmp_path / "a" / f"{prefix}_{algo}_seed{seed}.csv").read_bytes()
                fb = (tmp_path / "b" / f"{prefix}_{algo}_seed{seed}.csv").read_bytes()
                assert fa == fb
    assert (tmp_path / "a" / "summary.txt").read_bytes() == (
        tmp_path / "b" / "summary.txt"
    ).read_bytes()


def test_summary_matches_recomputation_from_file(tmp_path):
    cfg = tiny_config(tmp_path / "runs")
    result = run_experiment(cfg)
    reread = read_metrics_csv(tmp_path / "runs" / f"metrics_proposed_seed2.csv")
    window = [r.mean_utility for r in reread[-cfg.eval_window:]]
    stats = next(s for s in result.stats if s.seed == 2)
    assert stats.utility_mean == pytest.approx(float(np.mean(window)), abs=1e-12)
    text = (tmp_path / "runs" / "summary.txt").read_text()
    line = next(l for l in text.splitlines() if l.startswith("algo=proposed seed=2"))
    parsed = dict(kv.split("=") for kv in line.split()[2:])
    assert float(parsed["utility_mean"]) == pytest.approx(float(np.mean(window)), abs=1e-9)


def test_per_ts_log_reproduces_episode_utility(tmp_path):
    cfg = tiny_config(tmp_path / "runs", per_ts_log=True, seeds=(5,))
    result = run_experiment(cfg)
    import csv

    by_episode = {}
    with open(tmp_path / "runs" / "ts_log_proposed_seed5.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            by_episode.setdefault(int(row["episode"]), []).append(float(row["mean_utility"]))
    for record in result.records[("proposed", 5)]:
        offline = sum(by_episode[record.episode]) / len(by_episode[record.episode])
        assert abs(offline - record.mean_utility) < 1e-9


def test_everything_stays_inside_out_dir(tmp_path):
    out = tmp_path / "only_here"
    cfg = tiny_config(out, seeds=(1,))
    run_experiment(cfg)
    strays = [p for p in tmp_path.iterdir() if p.name != "only_here"]
    assert strays == []


def test_validation_rejects_empty_seed_list(tmp_path):
    cfg = tiny_config(tmp_path / "runs", seeds=())
    with pytest.raises(ValueError):
        run_experiment(cfg)
    cfg = tiny_config(tmp_path / "runs", algos=("sarsa",))
    with pytest.raises(ValueError):
        run_experiment(cfg)


# -- sweeps ------------------------------------------------------------------------

def test_rsu_sweep_layout_and_rows(tmp_path):
    cfg = tiny_config(tmp_path / "runs", seeds=(1, 2), algos=("proposed", "imarl"))
    stats = sweep(cfg, "rsus", [8, 12])
    assert len(stats) == 2 * 2 * 2
    table = (tmp_path / "runs" / "sweep_rsus" / "sweep_rsus.csv").read_text().splitlines()
    assert len(table) == 1 + 8
    assert (tmp_path / "runs" / "sweep_rsus" / "rsus_8" / "metrics_imarl_seed2.csv").exists()


def test_sigma_sweep_restricted_to_proposed(tmp_path):
    cfg = tiny_config(tmp_path / "runs", seeds=(1,), algos=("proposed", "cdrl"))
    stats = sweep(cfg, "sigma", [0.0, 1.0])
    assert {s.algo for s in stats} == {"proposed"}
    assert len(stats) == 2
    with pytest.raises(ValueError):
        sweep(cfg, "speed", [1.0])


def test_window_stats_iqr():
    records = [
        EpisodeRecord(i, float(u), 0.0, 0.0, 0.0, 0.0, 0, 0.1, 0.01)
        for i, u in enumerate([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    ]
    stats = window_stats("proposed", 1, records, window=4)
    assert stats.utility_mean == pytest.approx(6.5)
    assert stats.utility_median == pytest.approx(6.5)
    assert stats.utility_iqr == pytest.approx(1.5)


# -- command line ---------------------------------------------------------------------

def cli_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "horizon": 4, "episodes": 3, "batch_size": 4, "replay_capacity": 32,
        "local_hidden": [8], "mlp_hidden": [8], "eval_window": 2,
        "out_dir": str(tmp_path / "runs"),
    }))
    return path


def test_cli_single_run(tmp_path, capsys):
    rc = cli_main([
        "--config", str(cli_config(tmp_path)), "--algo", "imarl", "--seed", "4",
    ])
    assert rc == 0
    assert (tmp_path / "runs" / "metrics_imarl_seed4.csv").exists()


def test_cli_override_flags(tmp_path):
    rc = cli_main([
        "--config", str(cli_config(tmp_path)), "--algo", "proposed",
        "--seed", "1", "--episodes", "2", "--sigma", "0.0",
        "--num-rsus", "8", "--out", str(tmp_path / "other"),
    ])
    assert rc == 0
    echoed = json.loads((tmp_path / "other" / "config.json").read_text())
    assert echoed["episodes"] == 2
    assert echoed["share_noise_std"] == 0.0
    assert echoed["num_rsus"] == 8


def test_cli_sweep(tmp_path):
    rc = cli_main([
        "--config", str(cli_config(tmp_path)), "--algo", "proposed",
        "--seed", "1", "--sweep", "sigma", "--values", "0,1",
    ])
    assert rc == 0
    assert (tmp_path / "runs" / "sweep_sigma" / "sweep_sigma.csv").exists()


def test_cli_eval_from_checkpoint(tmp_path):
    cfg_path = cli_config(tmp_path)
    assert cli_main(["--config", str(cfg_path), "--algo", "proposed", "--seed", "1"]) == 0
    ckpt = tmp_path / "runs" / "checkpoints" / "proposed_seed1"
    rc = cli_main([
        "--config", str(tmp_path / "runs" / "config.json"),
        "--eval", str(ckpt), "--episodes", "2", "--out", str(tmp_path / "eval"),
    ])
    assert rc == 0
    records = read_metrics_csv(tmp_path / "eval" / "eval_metrics.csv")
    assert len(records) == 2


def test_cli_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    cases = [
        ({"weight_rate": 2.0}, "weight_rate"),
        ({"episodes": 2.5}, "episodes must be an integer"),
        ({"batch_size": 4.0}, "batch_size must be an integer"),
        ({"num_rsus": 12.0}, "num_rsus must be an integer"),
        ({"eval_window": 1.5}, "eval_window must be an integer"),
        ({"num_vehicles": 3}, "num_vehicles must be 2"),
    ]
    for data, message in cases:
        data["out_dir"] = str(tmp_path / "runs")
        bad.write_text(json.dumps(data))
        rc = cli_main(["--config", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key", ["encrypt", "clear_replay_per_episode"])
def test_cli_names_removed_options(tmp_path, capsys, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({key: False}))
    assert cli_main(["--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"'{key}' was removed" in err and err.count("\n") == 1
    if key == "encrypt":
        assert "share_noise_std: 0" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda state: state.pop("train_steps"), "missing key 'train_steps'"),
        (lambda state: state["cfg"].update(encrypt=True), "share_noise_std: 0"),
        (lambda state: state["cfg"].update(batch_size=4.5), "batch_size must be an integer"),
    ],
    ids=["missing-key", "removed-option", "bad-value"],
)
def test_cli_eval_rejects_bad_checkpoint_state(tmp_path, capsys, edit, message):
    cfg_path = cli_config(tmp_path)
    assert cli_main(["--config", str(cfg_path), "--algo", "proposed", "--seed", "1"]) == 0
    ckpt = tmp_path / "runs" / "checkpoints" / "proposed_seed1"
    state = json.loads((ckpt / "state.json").read_text())
    edit(state)
    (ckpt / "state.json").write_text(json.dumps(state))
    capsys.readouterr()
    rc = cli_main([
        "--config", str(tmp_path / "runs" / "config.json"),
        "--eval", str(ckpt), "--episodes", "2", "--out", str(tmp_path / "eval"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(ckpt / "state.json") in err and message in err


def test_cli_rejects_negative_grad_clip(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grad_clip": -1.0}))
    assert cli_main(["--config", str(bad)]) == 2
    assert "grad_clip" in capsys.readouterr().err


def test_cli_sweep_requires_values(tmp_path):
    rc = cli_main(["--config", str(cli_config(tmp_path)), "--sweep", "rsus"])
    assert rc == 2
