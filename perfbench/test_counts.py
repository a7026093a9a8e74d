"""Tests of the benchmark itself: count identities, repeatability, tracer hygiene.

    python -m pytest perfbench/test_counts.py -q

The workloads run shrunk to a few episodes; the identities hold at any size.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fedassoc  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WIDE = fedassoc.EnvConfig().actions_per_agent ** 2
HORIZON = fedassoc.EnvConfig().horizon


def traced_pass(name, tmp_path, seed=3):
    tracer = tracing.Tracer(wide_width=WIDE)
    out = workloads.Outcome()
    workload = workloads.make(name, seed, 1, tmp_path, min_episodes=2)
    with tracer.installed():
        workload.setup()
        with workloads.EpisodeClock().installed() as clock:
            workload.run(out, clock)
    assert out.failed == 0, out.problems
    return workload, out, tracer.layer_metrics()


def value(metrics, name):
    return metrics[name]["value"]


def test_proposed_count_identities(tmp_path):
    workload, out, m = traced_pass("train-proposed", tmp_path)
    steps = workload.trainer.train_steps
    assert steps == workload.episodes * HORIZON - (workload.trainer.cfg.batch_size - 1)
    assert value(m, "env.step.calls") == workload.episodes * HORIZON
    assert value(m, "env.reset.calls") == workload.episodes
    assert len(out.episode_s) == workload.episodes
    assert value(m, "replay.sample.calls") == steps
    backward = value(m, "nn.backward.local.calls") + value(m, "nn.backward.wide.calls")
    assert backward == 4 * steps
    assert value(m, "nn.sgd_apply.calls") == 4 * steps
    assert value(m, "agents.train_step_lead.calls") == steps
    assert value(m, "nn.wide.useful_fraction") == pytest.approx(1 / WIDE, rel=1e-3)


def test_baselines_count_identities(tmp_path):
    workload, out, m = traced_pass("train-baselines", tmp_path)
    ts = workload.episodes * HORIZON
    assert value(m, "env.step.calls") == len(workloads.BASELINES) * ts
    assert len(out.episode_s) == len(workloads.BASELINES) * workload.episodes
    steps = ts - (workload.trainer_cfg.batch_size - 1)
    assert value(m, "replay.sample.calls") == len(workloads.BASELINES) * steps
    # cdrl updates one head per step, imarl and fmarl-avg two.
    assert value(m, "baselines.update.calls") == 5 * steps
    assert value(m, "nn.backward.wide.calls") == steps
    assert value(m, "agents.train_step_lead.calls") == 0


def test_eval_bypasses_training(tmp_path):
    workload, out, m = traced_pass("eval-checkpoint", tmp_path)
    greedy = workload.calls * workloads.EVAL_EPISODES_PER_CALL
    training = workloads.CHECKPOINT_EPISODES
    assert value(m, "env.step.calls") == (greedy + training) * HORIZON
    assert value(m, "cli.main.calls") == workload.calls
    assert value(m, "nn.load_net.calls") == 5 * (1 + workloads.ROUND_TRIPS + workload.calls)
    # Only the set-up training, none of the greedy TS, runs a backward pass.
    steps = training * HORIZON - (fedassoc.TrainerConfig().batch_size - 1)
    backward = value(m, "nn.backward.local.calls") + value(m, "nn.backward.wide.calls")
    assert backward == 4 * steps
    assert len(out.save_s) == workloads.ROUND_TRIPS
    assert out.checkpoint_bytes > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_for_one_seed(name, tmp_path):
    _, _, first = traced_pass(name, tmp_path / "a")
    _, _, second = traced_pass(name, tmp_path / "b")
    for metric, unit in tracing.LAYER_METRICS:
        if unit != "ms":
            assert value(first, metric) == value(second, metric), metric
    assert value(first, "agents.encrypt_q.values") > 0 or name == "train-baselines"


def test_tracer_restores_every_binding(tmp_path):
    from fedassoc import agents, baselines, env, nn

    before = (agents.forward, baselines.backward, env.EdgeAssocEnv.__dict__["step"],
              agents.FederatedTrainer.__dict__["load"])
    traced_pass("train-proposed", tmp_path)
    after = (agents.forward, baselines.backward, env.EdgeAssocEnv.__dict__["step"],
             agents.FederatedTrainer.__dict__["load"])
    assert after == before
    assert agents.forward is nn.forward


def test_benchmark_json_names_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    e2e = run.end_to_end(workloads.Outcome(), [1.0])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in spec["end_to_end"]] == [m["unit"] for m in e2e.values()]
    layer = dict(tracing.LAYER_METRICS)
    layer["trace.ts_per_s_ratio"] = "ratio"
    layer["blas2.ts_per_s"] = "1/s"
    layer.update({k: m["unit"] for k, m in run.workload_figures(workloads.Outcome()).items()})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-proposed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
