"""Config ingestion, experiment outputs, summaries and sweeps."""

import concurrent.futures
import dataclasses
import json
import os
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import fedassoc
from fedassoc import harness
from fedassoc.cli import build_parser, main as cli_main
from fedassoc.harness import (
    ALGORITHMS,
    TRAINERS,
    ExperimentConfig,
    WindowStats,
    blas_threads,
    config_from_dict,
    config_to_dict,
    derive_seeds,
    echo_config,
    load_config,
    run_experiment,
    sweep,
    window_stats,
    write_summary,
)
import fedassoc.agents as agents_mod
from fedassoc.agents import FederatedTrainer, TrainerConfig
from fedassoc.checks import config_from_json
from fedassoc.env import EdgeAssocEnv, EnvConfig
from fedassoc.metrics import EpisodeRecord, read_metrics_csv, record_cells, write_metrics_csv
from fedassoc.nn import load_net, net_fingerprint
from processes import force_cpus
from reference_replay import columns, upgrade_checkpoint


def tiny_config(out_dir, fedavg_period=5, **run_overrides):
    """Three seeds of three 4-TS episodes; `run_overrides` replace run-level
    fields, and a name that is not one raises TypeError."""
    cfg = ExperimentConfig(
        env=EnvConfig(horizon=4),
        trainer=TrainerConfig(
            episodes=3, batch_size=4, replay_capacity=32,
            local_hidden=(8,), mlp_hidden=(8,), target_sync=5, fedavg_period=fedavg_period,
        ),
        seeds=(1, 2, 3),
        out_dir=str(out_dir),
        eval_window=2,
    )
    return dataclasses.replace(cfg, **run_overrides)


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
    # Section names are not keys: their fields sit at the top level.
    path.write_text(json.dumps({"env": {"num_rsus": 8}}))
    with pytest.raises(ValueError, match="unknown config key 'env'"):
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
    path.write_text('{"episodes": }')
    with pytest.raises(ValueError, match=re.escape(f"{path}: Expecting value")):
        load_config(path)


def numpy_twin(cfg):
    """`cfg` rebuilt with a list for each tuple and a numpy scalar for each
    number, its sections too."""
    def wider(value):
        if dataclasses.is_dataclass(value):
            return numpy_twin(value)
        if isinstance(value, tuple):
            return [wider(v) for v in value]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return np.int64(value) if isinstance(value, int) else np.float64(value)
        return value
    return type(cfg)(**{f.name: wider(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)})


def test_config_round_trip(tmp_path):
    cfg = tiny_config(tmp_path / "runs", algos=("proposed", "imarl"))
    echoed = echo_config(cfg, tmp_path / "runs")
    loaded = load_config(echoed)
    assert loaded == cfg
    # Built from lists and numpy scalars, a config is the same plain value.
    plain = dataclasses.replace(cfg, env=EnvConfig(horizon=4, mean_speeds=(6, 7.5)))
    twin = numpy_twin(plain)
    assert twin == plain and hash(twin) == hash(plain)
    for built in (cfg, twin):
        assert config_from_dict(config_to_dict(built)) == built
        assert config_from_dict(json.loads(json.dumps(config_to_dict(built)))) == built
        for section in (built.env, built.trainer):
            assert config_from_json(type(section), json.loads(json.dumps(
                dataclasses.asdict(section)))) == section
        with pytest.raises(AttributeError):
            built.seeds.append(1)
        with pytest.raises(AttributeError):
            built.trainer.local_hidden.append(0)
    echoed = echo_config(twin, tmp_path / "twin").read_bytes()
    assert echoed == echo_config(plain, tmp_path / "plain").read_bytes()


def test_a_config_of_numpy_scalars_runs_and_saves_as_its_python_twin(tmp_path, monkeypatch):
    """A config built from numpy scalars holds the Python numbers they equal,
    so its run, whose checkpoint is a saved, trained FederatedTrainer, writes
    every byte its twin's run writes: `config.json` and `state.json` too."""
    cfg = tiny_config("runs", seeds=(1,), eval_window=3)
    for name, built in (("python", cfg), ("numpy", numpy_twin(cfg))):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        run_experiment(built)
    python, numpy = (file_bytes(tmp_path / name) for name in ("python", "numpy"))
    assert {"runs/config.json", "runs/checkpoints/proposed_seed1/state.json"} <= python.keys()
    assert numpy == python


def test_every_algorithm_comes_from_the_trainer_table():
    assert ALGORITHMS == tuple(TRAINERS) == ("proposed", "cdrl", "imarl", "fmarl-avg")
    (algo,) = [a for a in build_parser()._actions if a.dest == "algo"]
    assert tuple(algo.choices) == ALGORITHMS


def test_fedavg_period_is_a_trainer_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"fedavg_period": 2}))
    cfg = load_config(path)
    assert cfg.trainer.fedavg_period == 2
    assert config_to_dict(cfg)["fedavg_period"] == 2
    assert not hasattr(cfg, "fedavg_period")


# -- what the algorithms of one seed share -------------------------------------

def test_the_algorithms_of_a_seed_see_the_same_worlds():
    """Mobility, fading and placement ignore the actions, and every algorithm
    gets the seed's env seed, so training leaves their envs equal."""
    env_seed, algo_seed = derive_seeds(3)
    states, blocks = [], []
    for algo in ALGORITHMS:
        env = EdgeAssocEnv(EnvConfig(horizon=20), env_seed)
        TRAINERS[algo](env, TrainerConfig(episodes=3), algo_seed).run()
        states.append(env.get_state())
        block, stacks = env.reset_block(2)
        blocks.append(([s.tobytes() for s in stacks], block.obs.tobytes(), block.gains.tobytes()))
    assert all(state == states[0] for state in states[1:])
    assert all(block == blocks[0] for block in blocks[1:])


class CountingRng:
    """A random stream that counts its `random` calls."""

    def __init__(self, rng):
        self.rng = rng
        self.random_calls = 0

    def random(self, *args, **kwargs):
        self.random_calls += 1
        return self.rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("algo, draws", [
    ("proposed", 1),
    ("cdrl", 1),
    ("imarl", 2),
    ("fmarl-avg", 2),
])
def test_exploration_draws_per_time_slot(algo, draws):
    """Joint-action learners draw once per TS whether to explore, per-vehicle
    learners once per vehicle, so at ε = 0.1 some vehicle explores on 10 % and
    on 19 % of TS."""
    env = EdgeAssocEnv(EnvConfig(horizon=5), 0)
    trainer = TRAINERS[algo](env, TrainerConfig(), 1)
    trainer.rng_explore = CountingRng(trainer.rng_explore)
    obs = env.reset()
    for t in range(1, 6):
        actions = trainer.select_actions(obs, 0.5)
        assert trainer.rng_explore.random_calls == draws * t
        obs = env.step(actions)[0]


# -- metric csv ---------------------------------------------------------------

def test_metrics_csv_round_trip(tmp_path):
    records = [
        EpisodeRecord(1, 0.5, 0.4, 20.0, 3.5, 2.1, 4, 0.1, 0.01),
        EpisodeRecord(2, -0.25, -0.3, 19.0, 0.0, 2.0, 0, 0.1, 0.009),
    ]
    path = tmp_path / "m.csv"
    write_metrics_csv(path, records)
    assert read_metrics_csv(path) == records


def test_metrics_csv_text_is_the_records_fields(tmp_path):
    # Integers in float fields (a JSON `"epsilon": 0`) are written as floats.
    records = [
        EpisodeRecord(1, 0.1 + 0.2, 0.4, 20, 3.5, 2.1, 4, 0, 0.01),
        EpisodeRecord(2, -0.25, -0.3, 19.0, 0.0, 2.0, 0, 0.1, 1e-05),
    ]
    assert record_cells(records[0]) == [
        1, "0.30000000000000004", "0.4", "20.0", "3.5", "2.1", 4, "0.0", "0.01"
    ]
    path = tmp_path / "m.csv"
    write_metrics_csv(path, records)
    assert path.read_bytes() == (
        b"episode,mean_utility,mean_reward,mean_rate,handovers_per_user,mean_power_w,"
        b"violations,epsilon,lr\r\n"
        b"1,0.30000000000000004,0.4,20.0,3.5,2.1,4,0.0,0.01\r\n"
        b"2,-0.25,-0.3,19.0,0.0,2.0,0,0.1,1e-05\r\n"
    )


def test_summary_text_is_the_window_stats_fields(tmp_path):
    cfg = tiny_config(tmp_path, algos=("proposed", "cdrl"))
    per_run = [
        WindowStats("proposed", 1, 1, 0.5, 0.25, 0, 20.0, 0.1 + 0.2, 2.5),
        WindowStats("proposed", 2, 2.0, 2.0, 0.0, 1.0, 21.5, 3.0, 1e-05),
        WindowStats("cdrl", 1, 0.25, 0.25, 0.0, 0.5, 19.0, 4.0, 1.0),
    ]
    path = tmp_path / "summary.txt"
    write_summary(path, cfg, per_run)
    assert path.read_text() == (
        "# window statistics over the final 2 of 3 episodes\n"
        "algo=proposed seed=1 utility_mean=1.0 utility_median=0.5 utility_iqr=0.25 "
        "reward_mean=0.0 rate_mean=20.0 handovers_mean=0.30000000000000004 power_w_mean=2.5\n"
        "algo=proposed seed=2 utility_mean=2.0 utility_median=2.0 utility_iqr=0.0 "
        "reward_mean=1.0 rate_mean=21.5 handovers_mean=3.0 power_w_mean=1e-05\n"
        "algo=cdrl seed=1 utility_mean=0.25 utility_median=0.25 utility_iqr=0.0 "
        "reward_mean=0.5 rate_mean=19.0 handovers_mean=4.0 power_w_mean=1.0\n"
        "algo=proposed seeds=1,2 utility_mean=1.5 utility_median=1.5 utility_iqr=0.5\n"
        "algo=cdrl seeds=1 utility_mean=0.25 utility_median=0.25 utility_iqr=0.0\n"
    )


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


def test_run_experiment_is_byte_identical(tmp_path, monkeypatch):
    """Runs on one CPU, in process ("a", "b"), and on two, in a pool of two
    workers ("pool"), write the same bytes."""
    algos = ("proposed", "cdrl", "imarl", "fmarl-avg")
    for name, cpus in (("a", 1), ("b", 1), ("pool", 2)):
        force_cpus(monkeypatch, cpus)
        run_experiment(tiny_config(tmp_path / name, fedavg_period=2, algos=algos, per_ts_log=True))
    # fmarl-avg is imarl until its first average, after episode 2.
    for seed in (1, 2, 3):
        imarl, fmarl = (
            (tmp_path / "a" / f"metrics_{algo}_seed{seed}.csv").read_text().splitlines()
            for algo in ("imarl", "fmarl-avg")
        )
        assert imarl[:3] == fmarl[:3] and imarl[3] != fmarl[3]
    for algo in algos:
        for seed in (1, 2, 3):
            for prefix in ("metrics", "ts_log"):
                fa = (tmp_path / "a" / f"{prefix}_{algo}_seed{seed}.csv").read_bytes()
                fb = (tmp_path / "b" / f"{prefix}_{algo}_seed{seed}.csv").read_bytes()
                assert fa == fb
    assert (tmp_path / "a" / "summary.txt").read_bytes() == (
        tmp_path / "b" / "summary.txt"
    ).read_bytes()
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.*"))
    # Every run writes its checkpoint: the nets its algorithm names, the replay and the state.
    checkpoints = {rel.parts[1] for rel in files if rel.parts[0] == "checkpoints"}
    assert checkpoints == {f"{algo}_seed{seed}" for algo in algos for seed in (1, 2, 3)}
    cfg = tiny_config(tmp_path)
    for algo in algos:
        nets = TRAINERS[algo].net_dims(EdgeAssocEnv(cfg.env, 0), cfg.trainer)
        saved = (tmp_path / "a" / "checkpoints" / f"{algo}_seed1").iterdir()
        assert sorted(p.name for p in saved) == sorted(
            [*(f"{name}.net" for name in nets), "replay.npz", "state.json"]
        )
    pool = tmp_path / "pool"
    assert files == sorted(p.relative_to(pool) for p in pool.rglob("*.*"))
    for rel in files:
        if rel.name != "config.json":  # it names its own out_dir
            assert (tmp_path / "a" / rel).read_bytes() == (pool / rel).read_bytes(), rel


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
    with pytest.raises(ValueError):
        tiny_config(tmp_path / "runs", seeds=())
    with pytest.raises(ValueError):
        tiny_config(tmp_path / "runs", algos=("sarsa",))


# -- sweeps ------------------------------------------------------------------------

def test_rsu_sweep_layout_and_rows(tmp_path):
    cfg = tiny_config(tmp_path / "runs", seeds=(1, 2), algos=("proposed", "imarl"))
    stats = sweep(cfg, "rsus", [8, 12])
    assert len(stats) == 2 * 2 * 2
    table = (tmp_path / "runs" / "sweep_rsus" / "sweep_rsus.csv").read_text().splitlines()
    assert len(table) == 1 + 8
    assert table[0] == (
        "axis,value,algo,seed,utility_mean,utility_median,utility_iqr,"
        "reward_mean,rate_mean,handovers_mean,power_w_mean"
    )
    values = [8] * 4 + [12] * 4
    assert table[1:] == [
        ",".join(map(str, ["rsus", value, *record_cells(s)])) for value, s in zip(values, stats)
    ]
    assert (tmp_path / "runs" / "sweep_rsus" / "rsus_8" / "metrics_imarl_seed2.csv").exists()


def test_sigma_sweep_rejects_other_algorithms(tmp_path, capsys):
    cfg = tiny_config(tmp_path / "runs", seeds=(1,), algos=("proposed", "cdrl"))
    with pytest.raises(ValueError, match=r"proposed only, but algos names \['cdrl'\]"):
        sweep(cfg, "sigma", [0.0, 1.0])
    with pytest.raises(ValueError):
        sweep(cfg, "speed", [1.0])
    assert not (tmp_path / "runs").exists()
    rc = cli_main([
        "--config", str(cli_config(tmp_path)), "--sweep", "sigma", "--values", "0",
        "--algo", "cdrl",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: --sweep sigma varies the sharing noise of proposed only, " \
        "but algos names ['cdrl']\n"
    assert not (tmp_path / "runs").exists()
    cfg = dataclasses.replace(cfg, algos=("proposed",))
    assert [(s.algo, s.seed) for s in sweep(cfg, "sigma", [0.0, 1.0])] == [("proposed", 1)] * 2


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


def test_a_run_refuses_a_checkpoint_directory_it_could_not_replace(tmp_path, capsys, monkeypatch):
    """A run whose checkpoint directory is not empty and holds no state.json
    is refused before it trains: one stderr line, exit 2, and no output but
    the stray file."""
    monkeypatch.chdir(tmp_path)
    ckpt = tmp_path / "runs" / "checkpoints" / "proposed_seed1"
    ckpt.mkdir(parents=True)
    (ckpt / "notes.txt").write_text("keep")
    trained = []
    monkeypatch.setattr(harness, "run_single", lambda *task: trained.append(task))
    rc = cli_main(["--algo", "proposed", "--seed", "1", "--episodes", "1"])
    assert rc == 2 and trained == []
    assert capsys.readouterr().err == (
        f"error: {Path('runs') / 'checkpoints' / 'proposed_seed1'}: not a checkpoint "
        "(no state.json); not replacing it\n"
    )
    assert [p.relative_to(tmp_path).as_posix() for p in sorted(tmp_path.rglob("*"))] == [
        "runs", "runs/checkpoints", "runs/checkpoints/proposed_seed1",
        "runs/checkpoints/proposed_seed1/notes.txt",
    ]


def test_a_refused_sweep_writes_no_config(tmp_path, capsys):
    """A sweep refused at its second value's checkpoint directory is refused
    before the first value's config.json is written: only the blocking
    directory is left."""
    sweep_dir = tmp_path / "runs" / "sweep_rsus"
    ckpt = sweep_dir / "rsus_12" / "checkpoints" / "proposed_seed1"
    ckpt.mkdir(parents=True)
    (ckpt / "notes.txt").write_text("keep")
    argv = ["--config", str(cli_config(tmp_path)), "--algo", "proposed", "--seed", "1",
            "--sweep", "rsus", "--values", "8,12"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {ckpt}: not a checkpoint (no state.json); not replacing it\n"
    )
    assert [p.relative_to(sweep_dir).as_posix() for p in sorted(sweep_dir.rglob("*"))] == [
        "rsus_12", "rsus_12/checkpoints", "rsus_12/checkpoints/proposed_seed1",
        "rsus_12/checkpoints/proposed_seed1/notes.txt",
    ]


def test_a_replay_buffer_too_large_to_map_writes_nothing(tmp_path, capsys):
    cfg_path = cli_config(tmp_path)
    cfg_path.write_text(json.dumps({**json.loads(cfg_path.read_text()), "replay_capacity": 10**20}))
    assert cli_main(["--config", str(cfg_path), "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate ")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_a_diverging_run_writes_nothing(tmp_path, capsys):
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps({
        "lr_start": 1e6, "lr_end": 1e6, "grad_clip": 1e308, "out_dir": str(tmp_path / "runs"),
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["--config", str(path), "--seed", "1", "--episodes", "3"]) == 2
    assert capsys.readouterr().err == "error: non-finite training loss\n"
    assert [p.name for p in tmp_path.iterdir()] == ["diverge.json"]


def test_cli_single_run(tmp_path, capsys):
    rc = cli_main([
        "--config", str(cli_config(tmp_path)), "--algo", "imarl", "--seed", "4",
    ])
    assert rc == 0
    assert (tmp_path / "runs" / "metrics_imarl_seed4.csv").exists()


def test_cli_parser_is_built_once_and_parses_as_a_fresh_one():
    from fedassoc import cli

    assert cli._parser() is cli._parser()
    # Repeated flags, a rejected value and another mode leave nothing behind.
    for argv in (["--seed", "1", "--seed", "2"], ["--seed", "x"], ["--eval", "ck"], ["--seed", "3"]):
        try:
            want = vars(build_parser().parse_args(argv))
        except SystemExit:
            with pytest.raises(SystemExit):
                cli._parser().parse_args(argv)
            continue
        assert vars(cli._parser().parse_args(argv)) == want


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


def file_bytes(root):
    """The bytes of every file under `root`, by relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_a_sweep_runs_as_one_grid(tmp_path, monkeypatch):
    """A one-seed σ sweep of two values sends both tasks to one pool of two
    workers, and writes what it writes in process on one CPU, byte for byte."""
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            super().__init__(max_workers, **kwargs)
            pools.append((max_workers, []))

        def submit(self, fn, /, *args, **kwargs):
            trainer_cfg, algo, seed = args[1:4]
            pools[-1][1].append((algo, seed, trainer_cfg.share_noise_std))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    config = str(cli_config(tmp_path))
    for cpus in (2, 1):
        force_cpus(monkeypatch, cpus)
        (tmp_path / f"cpus{cpus}").mkdir()
        monkeypatch.chdir(tmp_path / f"cpus{cpus}")
        argv = ["--config", config, "--algo", "proposed", "--seed", "1", "--sweep", "sigma",
                "--values", "0,1", "--out", "runs"]
        assert cli_main(argv) == 0
    assert pools == [(2, [("proposed", 1, 0.0), ("proposed", 1, 1.0)])]
    pooled, in_process = (file_bytes(tmp_path / f"cpus{cpus}") for cpus in (2, 1))
    assert "runs/sweep_sigma/sigma_1/checkpoints/proposed_seed1/replay.npz" in pooled
    assert pooled == in_process


def failing_on_seed_1(env_cfg, trainer_cfg, algo, seed, per_ts_log, checkpoint_dir):
    """Stands in for `run_single` in a pool: notes the task's seed and
    process, then fails on seed 1 and takes 0.3 s on any other."""
    started = Path(checkpoint_dir).parents[1] / "started"
    started.mkdir(parents=True, exist_ok=True)
    (started / str(seed)).write_text(str(os.getpid()))
    if seed == 1:
        raise RuntimeError("seed 1 failed")
    time.sleep(0.3)
    return [], None


def test_a_failing_task_cancels_the_rest_of_its_grid(tmp_path, monkeypatch, capsys):
    force_cpus(monkeypatch, 2)
    monkeypatch.setattr(harness, "run_single", failing_on_seed_1)
    seeds = range(1, 13)
    argv = ["--config", str(cli_config(tmp_path)), "--algo", "imarl"]
    assert cli_main(argv + [arg for seed in seeds for arg in ("--seed", str(seed))]) == 2
    assert capsys.readouterr().err == "error: seed 1 failed\n"
    started = {
        int(p.name): int(p.read_text()) for p in (tmp_path / "runs" / "started").iterdir()
    }
    # The pool holds a few tasks beyond its two running ones; the last never start.
    assert 1 in started and len(started) < len(seeds)
    for pid in set(started.values()):
        assert pid != os.getpid()
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def blas_threads_of_task(*task):
    """Stands in for `run_single`: the BLAS threads of the process that ran `task`."""
    return blas_threads()


def test_grid_workers_run_one_blas_thread(monkeypatch):
    threads = blas_threads()
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS whose threads can be read")
    force_cpus(monkeypatch, 2)
    monkeypatch.setattr(harness, "run_single", blas_threads_of_task)
    harness.set_blas_threads(2)
    try:
        tasks = [(None, None, "proposed", seed, False, None) for seed in (1, 2)]
        assert harness._run_grid(tasks) == [1, 1]
        assert blas_threads() == 2
    finally:
        harness.set_blas_threads(threads)


def test_an_in_process_grid_runs_one_blas_thread_then_restores_the_count(monkeypatch):
    """A grid of one task, or on one CPU, runs in this process on one BLAS
    thread; the caller's count is back once the tasks end, or one fails."""
    threads = blas_threads()
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS whose threads can be read")
    force_cpus(monkeypatch, 1)
    monkeypatch.setattr(harness, "run_single", blas_threads_of_task)
    harness.set_blas_threads(2)
    try:
        tasks = [(None, None, "proposed", seed, False, None) for seed in (1, 2)]
        assert harness._run_grid(tasks) == [1, 1]
        assert blas_threads() == 2

        def failing(*task):
            raise RuntimeError("task failed")

        monkeypatch.setattr(harness, "run_single", failing)
        with pytest.raises(RuntimeError, match="task failed"):
            harness._run_grid(tasks[:1])
        assert blas_threads() == 2
    finally:
        harness.set_blas_threads(threads)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_cli_eval_from_checkpoint(tmp_path, capsys, algo):
    """Each algorithm's checkpoint evaluates greedily, twice to the same bytes;
    only the proposed pair's names the σ it acted at."""
    cfg_path = cli_config(tmp_path)
    assert cli_main(["--config", str(cfg_path), "--algo", algo, "--seed", "1"]) == 0
    ckpt = tmp_path / "runs" / "checkpoints" / f"{algo}_seed1"
    state = json.loads((ckpt / "state.json").read_text())
    assert (state["format"], state["algo"]) == (agents_mod.CHECKPOINT_FORMAT, algo)
    capsys.readouterr()
    csvs = []
    for k in (1, 2):
        out = tmp_path / f"eval{k}"
        rc = cli_main([
            "--config", str(tmp_path / "runs" / "config.json"),
            "--eval", str(ckpt), "--episodes", "2", "--out", str(out),
        ])
        assert rc == 0
        sigma = " at sigma 1.0" if algo == "proposed" else ""
        assert capsys.readouterr().out == f"wrote {out / 'eval_metrics.csv'}{sigma}\n"
        assert len(read_metrics_csv(out / "eval_metrics.csv")) == 2
        csvs.append((out / "eval_metrics.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_a_checkpoint_without_format_and_algo_loads_as_proposed(tmp_path, capsys):
    """Checkpoints written before `format` and `algo` existed are proposed ones
    of format 1: `--eval` refuses one in one line naming the upgrade tool, and
    once upgraded (format 1's column-per-field replay) it evaluates as before."""
    cfg_path = cli_config(tmp_path)
    assert cli_main(["--config", str(cfg_path), "--algo", "proposed", "--seed", "1"]) == 0
    ckpt = tmp_path / "runs" / "checkpoints" / "proposed_seed1"
    evaluate = ["--config", str(tmp_path / "runs" / "config.json"), "--eval", str(ckpt),
                "--episodes", "2", "--out"]
    assert cli_main([*evaluate, str(tmp_path / "new")]) == 0
    path = ckpt / "state.json"
    state = json.loads(path.read_text())
    del state["format"], state["algo"]
    path.write_text(json.dumps(state, indent=1))
    with np.load(ckpt / "replay.npz") as data:
        np.savez(ckpt / "replay.npz", **columns(dict(data)))
    capsys.readouterr()
    assert cli_main([*evaluate, str(tmp_path / "old")]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: format 1: upgrade it with tools/upgrade_checkpoint.py\n"
    )
    assert not (tmp_path / "old").exists()
    assert upgrade_checkpoint.main([str(ckpt)]) == 0
    assert json.loads(path.read_text())["algo"] == "proposed"
    assert cli_main([*evaluate, str(tmp_path / "old")]) == 0
    csvs = [(tmp_path / d / "eval_metrics.csv").read_bytes() for d in ("new", "old")]
    assert csvs[0] == csvs[1]


# Checkpoints that `--eval` refuses: the algorithm, the keys that overwrite
# its state.json, the flags, and the message after the file it names, its
# state.json or, without an edit, the checkpoint.
BAD_CHECKPOINTS = {
    "unknown-algo": (
        "cdrl", {"algo": "dqn"}, [],
        "unknown algo 'dqn'; choose from ('proposed', 'cdrl', 'imarl', 'fmarl-avg')",
    ),
    "newer-format": (
        "proposed", {"format": 3}, [],
        "format 3 is newer than format 2, the newest this version reads",
    ),
    "format-one": (
        "fmarl-avg", {"format": 1}, [], "format 1: upgrade it with tools/upgrade_checkpoint.py",
    ),
    "format-zero": ("imarl", {"format": 0}, [], "format must be an integer >= 1, got 0"),
    "sigma-on-cdrl": (
        "cdrl", {}, ["--sigma", "0"],
        "--sigma sets the sharing noise of proposed, but this is a cdrl checkpoint",
    ),
}


@pytest.mark.parametrize("algo, edit, flags, message", BAD_CHECKPOINTS.values(),
                         ids=BAD_CHECKPOINTS)
def test_cli_eval_rejects_a_checkpoint_it_cannot_act_on(tmp_path, capsys, algo, edit, flags,
                                                         message):
    cfg_path = cli_config(tmp_path)
    assert cli_main(["--config", str(cfg_path), "--algo", algo, "--seed", "1"]) == 0
    ckpt = tmp_path / "runs" / "checkpoints" / f"{algo}_seed1"
    path = ckpt / "state.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}, indent=1))
    capsys.readouterr()
    out = tmp_path / "eval"
    rc = cli_main([
        "--config", str(tmp_path / "runs" / "config.json"), *flags,
        "--eval", str(ckpt), "--episodes", "2", "--out", str(out),
    ])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {path if edit else ckpt}: {message}\n"
    assert not out.exists()


def test_a_trainer_class_loads_only_its_own_algorithm(tmp_path):
    """`FederatedTrainer.load` refuses a cdrl checkpoint, naming its state.json,
    and leaves the env as it was; `Trainer.load` builds the class a checkpoint names."""
    cfg_path = cli_config(tmp_path)
    assert cli_main(["--config", str(cfg_path), "--algo", "cdrl", "--seed", "1"]) == 0
    ckpt = tmp_path / "runs" / "checkpoints" / "cdrl_seed1"
    env = EdgeAssocEnv(load_config(tmp_path / "runs" / "config.json").env, 0)
    before = env.get_state()
    with pytest.raises(ValueError) as info:
        FederatedTrainer.load(ckpt, env)
    assert str(info.value) == (
        f"{ckpt / 'state.json'}: a cdrl checkpoint, but FederatedTrainer loads proposed ones"
    )
    assert env.get_state() == before
    assert type(agents_mod.Trainer.load(ckpt, env)) is TRAINERS["cdrl"]


def test_cli_eval_acts_at_the_given_sigma(tmp_path, capsys, monkeypatch):
    cfg_path = cli_config(tmp_path)
    assert cli_main(["--config", str(cfg_path), "--algo", "proposed", "--seed", "1"]) == 0
    ckpt = tmp_path / "runs" / "checkpoints" / "proposed_seed1"
    state = json.loads((ckpt / "state.json").read_text())
    assert state["cfg"]["share_noise_std"] == 1.0
    loaded, load = [], agents_mod.Trainer.load

    def recording_load(directory, env):
        loaded.append(load(directory, env))
        return loaded[-1]

    monkeypatch.setattr(agents_mod.Trainer, "load", recording_load)
    capsys.readouterr()

    def evaluate(name, *flags):
        out = tmp_path / name
        argv = ["--config", str(tmp_path / "runs" / "config.json"), "--eval", str(ckpt),
                "--episodes", "3", "--out", str(out), *flags]
        assert cli_main(argv) == 0
        return capsys.readouterr().out, (out / "eval_metrics.csv").read_bytes()

    out, plain = evaluate("plain")
    assert out == f"wrote {tmp_path / 'plain' / 'eval_metrics.csv'} at sigma 1.0\n"
    out, own = evaluate("own", "--sigma", "1")
    assert own == plain and out.endswith(" at sigma 1.0\n")
    out, _ = evaluate("noiseless", "--sigma", "0")
    assert out.endswith(" at sigma 0.0\n")
    # At sigma 0 nothing is drawn; at the checkpoint's sigma the noise was.
    assert loaded[-1].rng_noise.bit_generator.state == state["rng_noise"]
    assert loaded[-2].rng_noise.bit_generator.state != state["rng_noise"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--eval", "CKPT", "--sweep", "rsus", "--values", "8"], "--sweep does not apply to --eval"),
        (["--eval", "CKPT", "--algo", "cdrl"], "--algo does not apply to --eval"),
        (["--eval", "CKPT", "--seed", "7"], "--seed does not apply to --eval"),
        (["--values", "8,12"], "--values does not apply to a run without --sweep"),
        (["--sweep", "sigma", "--values", "0,1", "--sigma", "2"],
         "--sigma does not apply to --sweep sigma"),
        (["--sweep", "rsus", "--values", "8", "--num-rsus", "12"],
         "--num-rsus does not apply to --sweep rsus"),
    ],
    ids=["eval-sweep", "eval-algo", "eval-seed", "values-without-sweep",
         "sigma-sweep-sigma", "rsus-sweep-num-rsus"],
)
def test_cli_rejects_a_flag_its_mode_ignores(tmp_path, capsys, flags, message):
    cfg_path = cli_config(tmp_path)
    assert cli_main(["--config", str(cfg_path), "--algo", "proposed", "--seed", "1"]) == 0
    ckpt = tmp_path / "runs" / "checkpoints" / "proposed_seed1"
    capsys.readouterr()
    out = tmp_path / "out"
    flags = [str(ckpt) if flag == "CKPT" else flag for flag in flags]
    rc = cli_main(["--config", str(tmp_path / "runs" / "config.json"), *flags, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    cases = [
        ({"weight_rate": 2.0}, "weight_rate"),
        ({"episodes": 2.5}, "episodes must be an integer"),
        ({"batch_size": 4.0}, "batch_size must be an integer"),
        ({"num_rsus": 12.0}, "num_rsus must be an integer"),
        ({"eval_window": 1.5}, "eval_window must be an integer"),
        ({"num_vehicles": 3}, "num_vehicles must be 2"),
        ({"share_noise_std": float("nan")}, "share_noise_std must be finite"),
        ({"discount": float("inf")}, "discount must be finite"),
        ({"coverage_radius": float("nan")}, "coverage_radius must be finite"),
        ({"noise_dbm": float("-inf")}, "noise_dbm must be finite"),
        ({"mean_speeds": [-5.0, 7.0]}, "mean_speeds must be a list of numbers > 0"),
        ({"mean_speeds": [float("nan"), 7.0]}, "mean_speeds must be finite, got [nan, 7.0]"),
        ({"seeds": [1.5]}, "seeds must be a list of integers, got [1.5]"),
        ({"seeds": [True]}, "seeds must be a list of integers, got [True]"),
        ({"seeds": [1, 1]}, "seeds must be a list of distinct integers >= 0, got [1, 1]"),
        ({"seeds": [-1]}, "seeds must be a list of distinct integers >= 0, got [-1]"),
        ({"seeds": 1}, "seeds must be a list of integers, got 1"),
        ({"algos": ["imarl", "imarl"]}, "algos must be distinct"),
        ({"local_hidden": [80, 0]}, "local_hidden must be a list of integers >= 1, got [80, 0]"),
        ({"local_hidden": [80.7]}, "local_hidden must be a list of integers, got [80.7]"),
        ({"mlp_hidden": [True]}, "mlp_hidden must be a list of integers, got [True]"),
        ({"mean_speeds": 5}, "mean_speeds must be a list of numbers, got 5"),
        ({"mean_speeds": ["5", 7.0]}, "mean_speeds must be a list of numbers, got ['5', 7.0]"),
        ({"algos": "proposed"}, "algos must be a list of strings, got 'proposed'"),
        ({"fedavg_period": 0}, "fedavg_period must be >= 1"),
        ({}, "share_noise_std must be >= 0", "--eval", str(tmp_path / "ckpt"), "--sigma", "-1"),
        ({}, "share_noise_std must be finite", "--eval", str(tmp_path / "ckpt"), "--sigma", "nan"),
        # Each field's annotation is its type: bools are not numbers, and
        # strings are not numbers or booleans.
        ({"penalty": True}, "penalty must be a number, got True"),
        ({"grad_clip": True}, "grad_clip must be a number, got True"),
        ({"share_noise_std": True}, "share_noise_std must be a number, got True"),
        ({"weight_rate": False}, "weight_rate must be a number, got False"),
        ({"per_ts_log": "yes"}, "per_ts_log must be true or false, got 'yes'"),
        ({"road_length": "abc"}, "road_length must be a number, got 'abc'"),
        ({"epsilon_end": "0.1"}, "epsilon_end must be a number, got '0.1'"),
        ({"grad_clip": "x"}, "grad_clip must be a number, got 'x'"),
        ({"grad_clip": float("nan")}, "grad_clip must be a number, not NaN, got nan"),
        # Integers too large for a float are not finite.
        ({"road_length": 10**400}, "road_length must be finite"),
        # The RSU layout multiplies road_length by num_rsus - 1.
        ({"road_length": 1e308}, "road_length times num_rsus - 1 must be finite (the RSU "
         "layout multiplies them), got road_length 1e+308 and num_rsus 12"),
        ({"road_length": 2e307, "num_rsus": 10}, "got road_length 2e+307 and num_rsus 10"),
        ({"epsilon": 10**400}, "epsilon must be finite"),
        # Flags and sweep values are overrides, checked like the file's keys.
        ({}, "episodes must be >= 1", "--episodes", "0"),
        ({}, "num_rsus must be >= num_vehicles", "--num-rsus", "0"),
        ({}, "num_rsus must be an integer, got 8.5", "--sweep", "rsus", "--values", "8.5,8"),
        # A value is checked before its directory's label formats it.
        ({}, "--sweep rsus value a: num_rsus must be an integer, got 'a'",
         "--sweep", "rsus", "--values", '"a"'),
        ({}, "--values must be comma-separated numbers, got 'abc'",
         "--sweep", "rsus", "--values", "abc"),
        ({}, "sweep values 8 and 8 both write rsus_8", "--sweep", "rsus", "--values", "8,8"),
        ({}, "sweep values 0.1 and 0.10000001 both write sigma_0.1",
         "--sweep", "sigma", "--values", "0.1,0.10000001"),
    ]
    for data, message, *flags in cases:
        data["out_dir"] = str(tmp_path / "runs")
        bad.write_text(json.dumps(data))
        rc = cli_main(["--config", str(bad), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


def test_cli_reports_an_array_too_large_to_allocate(tmp_path, capsys):
    """Local nets of 2**29 by 2**30 hidden units need 4 EiB: more than any
    64-bit CPU's address space (at most 2**57 bytes) can map, so the
    allocation fails at once and allocates nothing."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"local_hidden": [2**29, 2**30], "out_dir": str(tmp_path / "runs")}))
    assert cli_main(["--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 4.00 EiB") and err.count("\n") == 1


@pytest.mark.parametrize("route", ["config", "checkpoint"])
def test_cli_reports_a_replay_buffer_too_large_to_map(tmp_path, capsys, route):
    """A replay capacity of 10**20 rows needs more bytes than a mapping's size
    can count, from a config file or from a checkpoint's config alike."""
    huge = 10**20
    cfg_path = cli_config(tmp_path)
    if route == "config":
        data = json.loads(cfg_path.read_text())
        cfg_path.write_text(json.dumps({**data, "replay_capacity": huge}))
        flags = ["--config", str(cfg_path)]
    else:
        assert cli_main(["--config", str(cfg_path), "--algo", "proposed", "--seed", "1"]) == 0
        state_path = tmp_path / "runs" / "checkpoints" / "proposed_seed1" / "state.json"
        state = json.loads(state_path.read_text())
        state["cfg"]["replay_capacity"] = huge
        state_path.write_text(json.dumps(state))
        flags = ["--config", str(tmp_path / "runs" / "config.json"), "--eval",
                 str(state_path.parent), "--episodes", "2", "--out", str(tmp_path / "eval")]
    capsys.readouterr()
    assert cli_main(flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1


def test_cli_rejects_non_string_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text(json.dumps({"out_dir": 5}))
    assert cli_main(["--config", "bad.json"]) == 2
    err = capsys.readouterr().err
    assert "out_dir must be a string, got 5" in err and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


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
        (lambda state: state.update(episode=2.7), "episode must be an integer >= 0, got 2.7"),
        (lambda state: state.update(train_steps=True),
         "train_steps must be an integer >= 0, got True"),
        (lambda state: state["env_state"].update(mean_speeds=[float("nan"), 7.0]),
         "mean_speeds must be finite, got [nan, 7.0]"),
        (lambda state: state["env_state"].update(mean_speeds=[float("inf"), 7.0]),
         "mean_speeds must be finite, got [inf, 7.0]"),
        (lambda state: state["env_state"].update(mean_speeds=[-6.0, 7.0]),
         "mean_speeds must be a list of numbers > 0, got [-6.0, 7.0]"),
        (lambda state: state["env_state"].update(mean_speeds=[10**400, 7.0]),
         f"mean_speeds must be finite, got [{10**400}, 7.0]"),
        (lambda state: state["env_state"].update(mean_speeds=[True, 7.0]),
         "mean_speeds must be a list of numbers, got [True, 7.0]"),
        (lambda state: state["env_state"].update(mean_speeds="fast"),
         "mean_speeds must be a list of numbers, got 'fast'"),
        (lambda state: state.update(env_state=list(state["env_state"])),
         "env state must be a JSON object, got list"),
        # Random-stream states numpy cannot hold in its integers.
        (lambda state: state["rng_explore"]["state"].update(state=10**50), "too large to convert"),
        (lambda state: state["rng_explore"]["state"].update(state=-1), "out of bounds"),
        (lambda state: state["rng_explore"].update(has_uint32=10**30), "too large to convert"),
        (lambda state: state["env_state"]["rng_init"]["state"].update(state=10**60),
         "too large to convert"),
    ],
    ids=[
        "missing-key", "removed-option", "bad-value", "fractional-episode", "bool-steps",
        "nan-speed", "infinite-speed", "negative-speed", "huge-integer-speed", "bool-speed",
        "string-speeds", "env-state-list", "huge-stream-state", "negative-stream-state",
        "huge-has-uint32", "huge-env-stream-state",
    ],
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


def test_cli_eval_loads_a_checkpoint_without_fedavg_period(tmp_path):
    """Checkpoints written before `fedavg_period` was a trainer key lack it in
    `cfg`; they load with the default and evaluate to the same bytes."""
    cfg_path = cli_config(tmp_path)
    assert cli_main(["--config", str(cfg_path), "--algo", "proposed", "--seed", "1"]) == 0
    ckpt = tmp_path / "runs" / "checkpoints" / "proposed_seed1"

    def evaluate(name):
        out = tmp_path / name
        assert cli_main([
            "--config", str(tmp_path / "runs" / "config.json"),
            "--eval", str(ckpt), "--episodes", "3", "--out", str(out),
        ]) == 0
        return (out / "eval_metrics.csv").read_bytes()

    current = evaluate("current")
    state = json.loads((ckpt / "state.json").read_text())
    assert state["cfg"].pop("fedavg_period") == 5
    (ckpt / "state.json").write_text(json.dumps(state, indent=1))
    env = EdgeAssocEnv(EnvConfig(horizon=4), 0)
    assert FederatedTrainer.load(ckpt, env).cfg.fedavg_period == 5
    assert evaluate("older") == current


def test_cli_drops_the_vector_share_mode(tmp_path):
    """Config files and checkpoints written while `share_mode` was a key say
    "share_mode": "vector"; they run and evaluate as before, and no output
    names the key."""
    cfg_path = cli_config(tmp_path)
    cfg_path.write_text(json.dumps({**json.loads(cfg_path.read_text()), "share_mode": "vector"}))
    assert cli_main(["--config", str(cfg_path), "--algo", "proposed", "--seed", "1"]) == 0
    ckpt = tmp_path / "runs" / "checkpoints" / "proposed_seed1"
    state = json.loads((ckpt / "state.json").read_text())
    assert "share_mode" not in state["cfg"]
    assert "share_mode" not in (tmp_path / "runs" / "config.json").read_text()

    def evaluate(name):
        out = tmp_path / name
        assert cli_main([
            "--config", str(tmp_path / "runs" / "config.json"),
            "--eval", str(ckpt), "--episodes", "3", "--out", str(out),
        ]) == 0
        return (out / "eval_metrics.csv").read_bytes()

    current = evaluate("current")
    state["cfg"]["share_mode"] = "vector"
    (ckpt / "state.json").write_text(json.dumps(state, indent=1))
    assert evaluate("older") == current


@pytest.mark.parametrize("value", ["scalar", "tabular"])
def test_cli_rejects_another_share_mode(tmp_path, capsys, value):
    """Any share mode but "vector", the only one, ends in exit 2 and one
    stderr line naming the file, from a config file or a checkpoint."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"share_mode": value}))
    assert cli_main(["--config", str(bad), "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(bad) in err
    assert f"'share_mode' was removed; only 'vector' remains, got {value!r}" in err
    assert not (tmp_path / "runs").exists()

    cfg_path = cli_config(tmp_path)
    assert cli_main(["--config", str(cfg_path), "--algo", "proposed", "--seed", "1"]) == 0
    ckpt = tmp_path / "runs" / "checkpoints" / "proposed_seed1"
    state = json.loads((ckpt / "state.json").read_text())
    state["cfg"]["share_mode"] = value
    (ckpt / "state.json").write_text(json.dumps(state))
    capsys.readouterr()
    rc = cli_main([
        "--config", str(tmp_path / "runs" / "config.json"),
        "--eval", str(ckpt), "--episodes", "2", "--out", str(tmp_path / "eval"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(ckpt / "state.json") in err and f"got {value!r}" in err
    assert not (tmp_path / "eval").exists()


def test_cli_eval_rejects_a_state_that_is_not_an_object(tmp_path, capsys):
    cfg_path = cli_config(tmp_path)
    assert cli_main(["--config", str(cfg_path), "--algo", "proposed", "--seed", "1"]) == 0
    ckpt = tmp_path / "runs" / "checkpoints" / "proposed_seed1"
    (ckpt / "state.json").write_text("[1, 2]")
    capsys.readouterr()
    rc = cli_main([
        "--config", str(tmp_path / "runs" / "config.json"),
        "--eval", str(ckpt), "--episodes", "2", "--out", str(tmp_path / "eval"),
    ])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {ckpt / 'state.json'}: must hold a JSON object, got list\n"
    )
    assert not (tmp_path / "eval").exists()


def _set_meta(size, cursor, side=None):
    """An edit that sets the meta size, cursor and, if given, side cursor."""
    def edit(arrays):
        arrays["meta"][:2] = size, cursor
        if side is not None:
            arrays["meta"][3] = side
    return edit


def _set_next(row, value):
    def edit(arrays):
        arrays["next"][row] = value
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda arrays: arrays.update(obs=arrays["obs"][:5]),
         "'obs' has shape (5, 2, 14) and dtype float64, not (12, 2, 14) and float64"),
        (lambda arrays: arrays.pop("done"), "missing array 'done'"),
        (lambda arrays: arrays["meta"].__setitem__(2, 999),
         "replay meta [12, 12, 999, 2] does not fit this buffer: capacity 32"),
        (None, "File is not a zip file"),
        (_set_meta(60, 12), "replay meta [60, 12, 32, 2] does not fit this buffer: capacity 32"),
        (_set_meta(-3, 12), "replay meta [-3, 12, 32, 2] does not fit"),
        (_set_meta(12, 999), "replay meta [12, 999, 32, 2] does not fit"),
        (_set_meta(12, -1), "replay meta [12, -1, 32, 2] does not fit"),
        (_set_meta(10, 3), "replay meta [10, 3, 32, 2] does not fit"),
        (_set_meta(12, 12, side=32), "replay meta [12, 12, 32, 32] does not fit"),
        (lambda arrays: arrays.update(meta=arrays["meta"][None]),
         "replay meta has shape (1, 4) and dtype int64, not 4 integers"),
        (lambda arrays: arrays.update(meta=arrays["meta"] + 0.7), "dtype float64"),
        (lambda arrays: arrays.update(meta=arrays["meta"] + 0j), "dtype complex128"),
        # A chain that no buffer writes: a `next` entry out of range, and a
        # side cursor under which a later add would overwrite a side slot in use.
        (_set_next(5, 10**6), "replay array 'next' row 5 holds 1000000, not the following row 6 "
         "or side slot 33, the next before side cursor 2"),
        (_set_next(11, 12), "replay array 'next' row 11 holds 12, not the pending slot 64"),
        (_set_meta(12, 12, side=3), "replay array 'next' row 3 holds 32, not the following row 4 "
         "or side slot 33, the next before side cursor 3"),
        # Filled rows that no run writes.
        (lambda arrays: arrays.update(act_lead=arrays["act_lead"] + 1000),
         "replay array 'act_lead' row 0 holds 10"),
        (lambda arrays: arrays.update(act_follow=arrays["act_follow"] + 0.7),
         "replay array 'act_follow' has shape (12,) and dtype float64, not (12,) and int64"),
        (lambda arrays: arrays["reward"].__setitem__(5, np.nan),
         "replay array 'reward' row 5 holds nan, not a finite number"),
        (lambda arrays: arrays["obs"].__setitem__((1, 1, 0), np.inf),
         "replay array 'obs' row 1 holds inf, not a finite number"),
        (lambda arrays: arrays["done"].__setitem__(0, 2.0),
         "replay array 'done' row 0 holds 2.0, not 0 or 1"),
    ],
    ids=[
        "truncated", "missing", "capacity", "cut-file",
        "size-past-capacity", "negative-size", "cursor-past-capacity", "negative-cursor",
        "cursor-not-size", "side-cursor-past-capacity", "2-d-meta", "float-meta", "complex-meta",
        "next-out-of-range", "newest-not-pending", "side-cursor", "shifted-action", "float-action", "nan-reward",
        "infinite-observation", "done-flag",
    ],
)
def test_cli_eval_rejects_bad_replay_arrays(tmp_path, capsys, edit, message):
    cfg_path = cli_config(tmp_path)
    assert cli_main(["--config", str(cfg_path), "--algo", "proposed", "--seed", "1"]) == 0
    ckpt = tmp_path / "runs" / "checkpoints" / "proposed_seed1"
    path = ckpt / "replay.npz"
    if edit is None:
        path.write_bytes(path.read_bytes()[:300])
    else:
        with np.load(path) as data:
            arrays = dict(data)
        edit(arrays)
        np.savez(path, **arrays)
    capsys.readouterr()
    rc = cli_main([
        "--config", str(tmp_path / "runs" / "config.json"),
        "--eval", str(ckpt), "--episodes", "2", "--out", str(tmp_path / "eval"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(ckpt / "replay.npz") in err and message in err
    assert not (tmp_path / "eval" / "eval_metrics.csv").exists()


def _set_activation_code(path):
    data = bytearray(path.read_bytes())
    data[8:12] = b"\xff\xff\xff\xff"
    path.write_bytes(bytes(data))


def _set_nan_weight(path):
    data = bytearray(path.read_bytes())
    data[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(data))


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_activation_code, "unknown activation code 4294967295"),
        (lambda path: path.write_bytes(path.read_bytes()[:-5]), "bytes, layer dims"),
        (lambda path: path.write_bytes(path.read_bytes()[:10]), "not a DNET checkpoint"),
        (_set_nan_weight, "non-finite parameters"),
        (lambda path: path.write_bytes((path.parent / "mlp.net").read_bytes()),
         "the checkpoint's config builds a net of dims (14, 8, 16)"),
    ],
    ids=["activation", "truncated", "cut-header", "nan", "mlp-over-lead"],
)
def test_cli_eval_rejects_bad_net_files(tmp_path, capsys, edit, message):
    cfg_path = cli_config(tmp_path)
    assert cli_main(["--config", str(cfg_path), "--algo", "proposed", "--seed", "1"]) == 0
    ckpt = tmp_path / "runs" / "checkpoints" / "proposed_seed1"
    edit(ckpt / "lead.net")
    capsys.readouterr()
    rc = cli_main([
        "--config", str(tmp_path / "runs" / "config.json"),
        "--eval", str(ckpt), "--episodes", "2", "--out", str(tmp_path / "eval"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(ckpt / "lead.net") in err and message in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_load_builds_no_net_it_discards(tmp_path, monkeypatch, algo):
    """Load and `--eval` read each net of the checkpoint and draw none."""
    cfg_path = cli_config(tmp_path)
    assert cli_main(["--config", str(cfg_path), "--algo", algo, "--seed", "1"]) == 0
    ckpt = tmp_path / "runs" / "checkpoints" / f"{algo}_seed1"
    config = tmp_path / "runs" / "config.json"
    world = load_config(config).env
    names = TRAINERS[algo].net_dims(EdgeAssocEnv(world, 0), load_config(config).trainer)
    saved = {name: net_fingerprint(load_net(ckpt / f"{name}.net")) for name in names}
    evaluate = ["--config", str(config), "--eval", str(ckpt), "--episodes", "2", "--out"]
    assert cli_main([*evaluate, str(tmp_path / "drawn")]) == 0

    def no_draws(dims, rng):
        raise AssertionError(f"a net of dims {dims} was drawn")

    # Every module that binds `init_net`: agents draws a trainer's nets.
    for module in vars(fedassoc).values():
        if hasattr(module, "init_net"):
            monkeypatch.setattr(module, "init_net", no_draws)
    assert agents_mod.init_net is no_draws
    loaded = TRAINERS[algo].load(ckpt, EdgeAssocEnv(world, 0))
    assert {name: net_fingerprint(net) for name, net in loaded.nets.items()} == saved
    assert cli_main([*evaluate, str(tmp_path / "read")]) == 0
    csvs = [(tmp_path / d / "eval_metrics.csv").read_bytes() for d in ("drawn", "read")]
    assert csvs[0] == csvs[1]
    if algo != "proposed":
        return
    # A net of other dims fails with the file and both dims named.
    (ckpt / "lead.net").write_bytes((ckpt / "mlp.net").read_bytes())
    with pytest.raises(ValueError) as info:
        FederatedTrainer.load(ckpt, EdgeAssocEnv(world, 0))
    assert str(info.value) == (
        f"{ckpt / 'lead.net'}: a net of dims (32, 8, 256), "
        "but the checkpoint's config builds a net of dims (14, 8, 16)"
    )


@pytest.mark.parametrize(
    "flags, edit, message",
    [
        (["--num-rsus", "16"], {}, "its num_rsus is 12, this world's is 16"),
        (["--num-rsus", "8"], {}, "its num_rsus is 12, this world's is 8"),
        ([], {"coverage_radius": 50.0}, "its coverage_radius is 200.0, this world's is 50.0"),
        # Nets of other dims: the differing field is named before any net is read.
        ([], {"visible_rsus": 3}, "its visible_rsus is 4, this world's is 3"),
        ([], {"power_levels": 3}, "its power_levels is 4, this world's is 3"),
    ],
    ids=["16", "8", "coverage-radius", "visible-rsus", "power-levels"],
)
def test_cli_eval_rejects_checkpoint_of_another_world(tmp_path, capsys, flags, edit, message):
    cfg_path = cli_config(tmp_path)
    assert cli_main(["--config", str(cfg_path), "--algo", "proposed", "--seed", "1"]) == 0
    ckpt = tmp_path / "runs" / "checkpoints" / "proposed_seed1"
    config = tmp_path / "runs" / "config.json"
    config.write_text(json.dumps({**json.loads(config.read_text()), **edit}))
    capsys.readouterr()
    rc = cli_main([
        "--config", str(config), *flags,
        "--eval", str(ckpt), "--episodes", "2", "--out", str(tmp_path / "eval"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(ckpt / "state.json") in err
    assert f"env state is of another world: {message}" in err
    assert not (tmp_path / "eval" / "eval_metrics.csv").exists()


@pytest.mark.parametrize("lr", [1e3, 1e6])
def test_cli_diverging_run_prints_one_line(tmp_path, capsys, lr):
    # Numpy's overflow warnings would each add lines; under "error" they raise.
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps({
        "lr_start": lr, "lr_end": lr, "grad_clip": 1e308, "out_dir": str(tmp_path / "runs"),
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli_main(["--config", str(path), "--seed", "1", "--episodes", "3"])
    assert rc == 2
    assert capsys.readouterr().err == "error: non-finite training loss\n"


def test_cli_rejects_negative_grad_clip(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"grad_clip": -1.0}))
    assert cli_main(["--config", str(bad)]) == 2
    assert "grad_clip" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--sweep", "rsus", "--values", "12,2"],
         "--sweep rsus value 2: visible_rsus must be in [1, num_rsus] = [1, 2], got 4"),
        (["--sweep", "rsus", "--values", "8,1"],
         "--sweep rsus value 1: num_rsus must be >= num_vehicles (2), got 1"),
        (["--sweep", "rsus", "--values", "8,7"],
         "--sweep rsus value 7: num_rsus must be even (equal counts per roadside), got 7"),
        (["--algo", "proposed", "--sweep", "sigma", "--values", "0,-0.5"],
         "--sweep sigma value -0.5: share_noise_std must be >= 0, got -0.5"),
    ],
)
def test_cli_sweep_names_the_value_that_breaks_a_rule(tmp_path, capsys, flags, message):
    # A later value breaks a cross-field rule: no run starts, not even the first value's.
    assert cli_main(["--config", str(cli_config(tmp_path)), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "runs").exists()


def test_cli_sweep_requires_values(tmp_path):
    rc = cli_main(["--config", str(cli_config(tmp_path)), "--sweep", "rsus"])
    assert rc == 2
