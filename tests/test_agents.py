"""Sharing primitives, joint-action math and the federated trainer."""

import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedassoc.agents as agents_mod
from fedassoc.agents import (
    FederatedTrainer,
    TrainerConfig,
    compose_joint,
    decompose_joint,
    encrypt_q,
    epsilon_greedy,
    joint_q,
)
from fedassoc.env import EdgeAssocEnv, EnvConfig
from fedassoc.harness import usable_cpus
from fedassoc.nn import clone, forward, init_net, linear_schedule, net_fingerprint
from fedassoc.replay import Batch
from reference_replay import all_rows, same_arrays
from processes import blas_threads
from toy_env import ToyEnv, separable_table, toy_trainer_cfg


# -- encryption ----------------------------------------------------------------

def test_encrypt_sigma_zero_is_identity():
    q = np.array([1.0, -2.0, 0.5])
    out = encrypt_q(q, 0.0, np.random.default_rng(0))
    assert np.array_equal(out, q)
    assert out is not q


def test_encrypt_rejects_negative_sigma():
    with pytest.raises(ValueError):
        encrypt_q(np.zeros(3), -0.1, np.random.default_rng(0))


def test_encrypt_seeded_reproducible():
    q = np.linspace(-1.0, 1.0, 16)
    got = encrypt_q(q, 1.0, np.random.default_rng(77))
    oracle = q + np.random.default_rng(77).normal(0.0, 1.0, 16)
    assert np.array_equal(got, oracle)


def test_encrypt_noise_is_zero_mean():
    rng = np.random.default_rng(5)
    sigma = 1.0
    n = 100_000
    q = np.zeros(n)
    noise = encrypt_q(q, sigma, rng) - q
    assert abs(noise.mean()) < 3.0 * sigma / np.sqrt(n)
    assert abs(noise.std() - sigma) / sigma < 0.02


# -- epsilon-greedy ----------------------------------------------------------------

def test_greedy_is_pure_argmax():
    rng = np.random.default_rng(0)
    assert epsilon_greedy(np.array([1.0, 3.0, 2.0]), 0.0, rng) == 1


def test_greedy_tie_breaks_low_index():
    rng = np.random.default_rng(0)
    assert epsilon_greedy(np.array([5.0, 5.0, 0.0]), 0.0, rng) == 0


def test_full_exploration_is_uniform():
    # At eps 1 each call draws random(), always below 1, then a uniform
    # index, so its actions are exactly a twin generator's integers(16).
    rng, twin = np.random.default_rng(0), np.random.default_rng(0)
    values = np.zeros(16)
    actions = []
    for _ in range(10_000):
        actions.append(epsilon_greedy(values, 1.0, rng))
        twin.random()
        assert actions[-1] == twin.integers(16)
    counts = np.bincount(actions, minlength=16)
    assert len(counts) == 16 and np.all(np.abs(counts - 625) < 0.15 * 625)


@given(
    st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=64),
    st.integers(-10**9, 10**9),
)
@settings(max_examples=100, deadline=None)
def test_greedy_shift_invariant(values, shift):
    # Integer-valued floats keep their gaps exactly under the shift.
    v = np.asarray(values, dtype=float)
    rng = np.random.default_rng(0)
    assert epsilon_greedy(v, 0.0, rng) == epsilon_greedy(v + float(shift), 0.0, rng)


def test_greedy_matches_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(100):
        v = rng.standard_normal(256)
        best, best_i = -np.inf, -1
        for i, x in enumerate(v):
            if x > best:
                best, best_i = x, i
        assert epsilon_greedy(v, 0.0, rng) == best_i


# -- joint index math -----------------------------------------------------------------

def test_decompose_trivial_corners():
    assert decompose_joint(0, 16) == (0, 0)
    assert decompose_joint(255, 16) == (15, 15)


def test_decompose_out_of_range():
    with pytest.raises(ValueError):
        decompose_joint(256, 16)
    with pytest.raises(ValueError):
        decompose_joint(-1, 16)


def test_compose_decompose_round_trip_exhaustive():
    for j in range(256):
        own, peer = decompose_joint(j, 16)
        assert compose_joint(own, peer, 16) == j


@given(st.integers(2, 40), st.data())
@settings(max_examples=60, deadline=None)
def test_compose_decompose_round_trip_random(n, data):
    own = data.draw(st.integers(0, n - 1))
    peer = data.draw(st.integers(0, n - 1))
    assert decompose_joint(compose_joint(own, peer, n), n) == (own, peer)


def test_joint_q_dimensions_and_zero_net():
    mlp = init_net((32, 8, 256), 4)
    out = joint_q(mlp, np.ones(16), np.ones(16))
    assert out.shape == (256,)
    for w in mlp.weights:
        w[...] = 0.0
    assert np.all(joint_q(mlp, np.ones(16), np.ones(16)) == 0.0)
    with pytest.raises(ValueError):
        joint_q(mlp, np.ones(16), np.ones(15))


# -- trainer construction -----------------------------------------------------------------

def small_env(seed=3, **overrides):
    cfg = EnvConfig(horizon=5, **overrides)
    return EdgeAssocEnv(cfg, seed=seed)


def small_cfg(**overrides):
    defaults = dict(
        episodes=3,
        batch_size=8,
        replay_capacity=64,
        local_hidden=(12,),
        mlp_hidden=(12,),
        target_sync=5,
    )
    defaults.update(overrides)
    return TrainerConfig(**defaults)


def test_network_dimensions_vector_mode():
    trainer = FederatedTrainer(small_env(), small_cfg(), seed=0)
    assert trainer.pair.lead.dims == (14, 12, 16)
    assert trainer.pair.mlp.dims == (32, 12, 256)
    q, _ = forward(trainer.pair.lead, small_env().reset()[0])
    assert q.shape == (16,)


def test_trainer_rejects_bad_config():
    with pytest.raises(ValueError):
        FederatedTrainer(small_env(), small_cfg(discount=1.5), seed=0)
    with pytest.raises(ValueError):
        FederatedTrainer(small_env(), small_cfg(batch_size=0), seed=0)
    with pytest.raises(ValueError, match="epsilon_decay_episodes must be >= 1"):
        small_cfg(epsilon_decay_episodes=0).validate()
    for name in ("epsilon_decay_episodes", "batch_size", "replay_capacity", "target_sync",
                 "episodes", "lr_decay_episodes"):
        for value in (8.0, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                small_cfg(**{name: value}).validate()
    small_cfg(batch_size=np.int64(8)).validate()
    for name in ("discount", "epsilon", "epsilon_end", "share_noise_std", "lr_start", "lr_end"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                small_cfg(**{name: value}).validate()


@pytest.mark.parametrize("grad_clip", [-1.0, 0.0, float("nan")])
def test_trainer_rejects_bad_grad_clip(grad_clip):
    with pytest.raises(ValueError, match="grad_clip"):
        small_cfg(grad_clip=grad_clip).validate()


def test_infinite_grad_clip_is_accepted():
    # Integers above int64 pass, and one too large for a float counts as infinite.
    for grad_clip in (float("inf"), 2**70, 10**400):
        small_cfg(grad_clip=grad_clip).validate()


def test_epsilon_schedule():
    # epsilon_end None keeps epsilon constant: read it from episodes 1 and 500.
    trainer = FederatedTrainer(ToyEnv(separable_table(3, 0)), small_cfg(), seed=0)
    first = trainer.run(episodes=1)[0]
    trainer.episode = 499
    last = trainer.run(episodes=1)[0]
    assert (first.episode, last.episode) == (1, 500)
    assert first.epsilon == last.epsilon == 0.1
    assert linear_schedule(0.5, 0.0, 11, 1) == 0.5
    assert linear_schedule(0.5, 0.0, 11, 6) == pytest.approx(0.25)
    assert linear_schedule(0.5, 0.0, 11, 11) == 0.0
    assert linear_schedule(0.5, 0.0, 11, 100) == 0.0


# -- target computation -----------------------------------------------------------------

def make_batch(rng, n, obs_dim, num_actions, done=0.0):
    return Batch(
        obs_lead=rng.random((n, obs_dim)),
        act_lead=rng.integers(0, num_actions, n),
        reward=rng.random(n),
        next_obs_lead=rng.random((n, obs_dim)),
        obs_follow=rng.random((n, obs_dim)),
        act_follow=rng.integers(0, num_actions, n),
        next_obs_follow=rng.random((n, obs_dim)),
        done=np.full(n, done),
    )


def zeroed(trainer):
    for net in (trainer.pair.lead, trainer.pair.lead_target, trainer.pair.follow,
                trainer.pair.mlp, trainer.pair.mlp_target):
        for w in net.weights:
            w[...] = 0.0
        for b in net.biases:
            b[...] = 0.0
    return trainer


def test_targets_hand_example():
    trainer = zeroed(FederatedTrainer(small_env(), small_cfg(share_noise_std=0.0), seed=0))
    trainer.pair.mlp_target.biases[-1][5] = 2.0  # max joint value of the next state
    rng = np.random.default_rng(1)
    batch = make_batch(rng, 4, 14, 16)
    batch.reward[:] = 1.0
    y = trainer.compute_targets(batch)
    assert np.allclose(y, 2.8)


def test_targets_terminal_cutoff():
    trainer = zeroed(FederatedTrainer(small_env(), small_cfg(share_noise_std=0.0), seed=0))
    trainer.pair.mlp_target.biases[-1][5] = 2.0
    rng = np.random.default_rng(2)
    batch = make_batch(rng, 4, 14, 16, done=1.0)
    assert np.array_equal(trainer.compute_targets(batch), batch.reward)


def test_targets_zero_discount():
    trainer = FederatedTrainer(small_env(), small_cfg(discount=0.0), seed=3)
    rng = np.random.default_rng(3)
    batch = make_batch(rng, 6, 14, 16)
    assert np.array_equal(trainer.compute_targets(batch), batch.reward)


# -- composed-loss gradients -----------------------------------------------------------------

def copied_grads(side_grads):
    """`_side_grads`' (loss, own, joint head) with both gradients copied."""
    loss, *sets = side_grads
    return loss, *map(clone, sets)


def test_composed_loss_matches_finite_differences():
    env = ToyEnv(separable_table(2, seed=4), obs_dim=3)
    cfg = TrainerConfig(
        episodes=1, batch_size=3, replay_capacity=8, local_hidden=(4,),
        mlp_hidden=(5,), share_noise_std=0.0,
    )
    trainer = FederatedTrainer(env, cfg, seed=11)
    rng = np.random.default_rng(12)
    batch = make_batch(rng, 3, 3, 2)
    targets = rng.random(3)
    h = 1e-5
    for lead_side in (True, False):
        own = trainer.pair.lead if lead_side else trainer.pair.follow
        # Copied, since the perturbed passes below overwrite the trainer's buffers.
        loss0, g_own, g_mlp = copied_grads(trainer._side_grads(batch, targets, lead_side))
        for net, grads in ((own, g_own), (trainer.pair.mlp, g_mlp)):
            flat, gflat = net.params, grads.params
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = trainer._side_grads(batch, targets, lead_side)[0]
                flat[i] = orig - h
                down = trainer._side_grads(batch, targets, lead_side)[0]
                flat[i] = orig
                fd = (up - down) / (2.0 * h)
                denom = max(abs(fd) + abs(gflat[i]), 1.0)
                assert abs(fd - gflat[i]) / denom < 1e-4


def test_perfect_prediction_keeps_parameters():
    trainer = zeroed(FederatedTrainer(small_env(), small_cfg(share_noise_std=0.0), seed=0))
    rng = np.random.default_rng(5)
    batch = make_batch(rng, 4, 14, 16)
    targets = np.zeros(4)  # zero nets predict exactly zero
    before = [net_fingerprint(trainer.pair.lead), net_fingerprint(trainer.pair.mlp)]
    loss = trainer.train_step_lead(batch, targets, lr=0.05)
    assert loss == 0.0
    assert [net_fingerprint(trainer.pair.lead), net_fingerprint(trainer.pair.mlp)] == before


def test_loss_descends_on_frozen_batch():
    env = small_env()
    trainer = FederatedTrainer(env, small_cfg(share_noise_std=0.0), seed=7)
    rng = np.random.default_rng(8)
    batch = make_batch(rng, 8, 14, 16)
    targets = rng.random(8)
    losses = [trainer.train_step_lead(batch, targets, lr=0.01) for _ in range(50)]
    assert losses[-1] < losses[0]
    losses_f = [trainer.train_step_follow(batch, targets, lr=0.01) for _ in range(50)]
    assert losses_f[-1] < losses_f[0]


def test_side_symmetry_with_identical_inputs():
    # Same nets, same observations, symmetric joint action: both sides see
    # the identical composed problem, so their gradients must coincide.
    trainer = FederatedTrainer(small_env(), small_cfg(share_noise_std=0.0), seed=9)
    trainer.pair.follow = clone(trainer.pair.lead)
    rng = np.random.default_rng(10)
    batch = make_batch(rng, 4, 14, 16)
    batch.obs_follow = batch.obs_lead.copy()
    batch.next_obs_follow = batch.next_obs_lead.copy()
    batch.act_follow = batch.act_lead.copy()
    targets = rng.random(4)
    # Each side's gradients are copied: the next backward of a net overwrites them.
    _, g_lead, g_mlp_lead = copied_grads(trainer._side_grads(batch, targets, lead_side=True))
    _, g_follow, g_mlp_follow = copied_grads(trainer._side_grads(batch, targets, lead_side=False))
    assert np.array_equal(g_mlp_lead.params, g_mlp_follow.params)
    assert np.array_equal(g_lead.params, g_follow.params)


def test_update_isolation_across_sides():
    trainer = FederatedTrainer(small_env(), small_cfg(), seed=13)
    rng = np.random.default_rng(14)
    batch = make_batch(rng, 8, 14, 16)
    targets = rng.random(8)
    follow_before = net_fingerprint(trainer.pair.follow)
    trainer.train_step_lead(batch, targets, lr=0.01)
    assert net_fingerprint(trainer.pair.follow) == follow_before
    lead_after_own_update = net_fingerprint(trainer.pair.lead)
    trainer.train_step_follow(batch, targets, lr=0.01)
    assert net_fingerprint(trainer.pair.lead) == lead_after_own_update
    assert net_fingerprint(trainer.pair.follow) != follow_before


def five_fingerprints(trainer):
    p = trainer.pair
    return [net_fingerprint(n) for n in (p.lead, p.lead_target, p.follow, p.mlp, p.mlp_target)]


def test_train_step_equals_lead_then_follow():
    fused = FederatedTrainer(small_env(), small_cfg(), seed=15)
    split = FederatedTrainer(small_env(), small_cfg(), seed=15)
    rng = np.random.default_rng(16)
    for _ in range(3):
        batch = make_batch(rng, 8, 14, 16)
        targets = rng.random(8)
        losses = fused.train_step(batch, targets, lr=0.05)
        assert losses == (split.train_step_lead(batch, targets, lr=0.05),
                          split.train_step_follow(batch, targets, lr=0.05))
        assert five_fingerprints(fused) == five_fingerprints(split)
        assert fused.rng_noise.bit_generator.state == split.rng_noise.bit_generator.state


def test_non_finite_gradient_leaves_every_net_unchanged(monkeypatch):
    trainer = FederatedTrainer(small_env(), small_cfg(), seed=17)
    rng = np.random.default_rng(18)
    batch = make_batch(rng, 8, 14, 16)
    targets = rng.random(8)
    real_backward = agents_mod.backward

    def poisoned(net, cache, output_gradient, cols=None, grads=None):
        grads, d_in = real_backward(net, cache, output_gradient, cols, grads)
        if net is trainer.pair.mlp:
            grads.biases[-1][0] = np.nan
        return grads, d_in

    monkeypatch.setattr(agents_mod, "backward", poisoned)
    before = five_fingerprints(trainer)
    for step in (trainer.train_step, trainer.train_step_lead, trainer.train_step_follow):
        with pytest.raises(ValueError, match="non-finite gradient"):
            step(batch, targets, lr=0.05)
        assert five_fingerprints(trainer) == before


def test_shared_q_values_per_step(monkeypatch):
    shared = []
    real_encrypt = agents_mod.encrypt_q

    def counting(q, sigma, rng):
        shared.append(np.size(q))
        return real_encrypt(q, sigma, rng)

    monkeypatch.setattr(agents_mod, "encrypt_q", counting)
    env = small_env(seed=19)
    cfg = small_cfg(episodes=2)
    trainer = FederatedTrainer(env, cfg, seed=20)
    trainer.run()
    ts = cfg.episodes * env.cfg.horizon
    steps = ts - (cfg.batch_size - 1)
    assert trainer.train_steps == steps
    width = env.num_actions
    # One share per action selection; targets, lead and follower side per step.
    assert sum(shared) == ts * width + steps * 3 * cfg.batch_size * width
    assert len(shared) == ts + 3 * steps


# -- full runs -----------------------------------------------------------------------------

def test_run_produces_one_record_per_episode():
    records = FederatedTrainer(small_env(), small_cfg(episodes=4), seed=1).run()
    assert len(records) == 4
    assert [r.episode for r in records] == [1, 2, 3, 4]
    assert all(np.isfinite(r.mean_utility) for r in records)


def test_run_is_deterministic():
    rec_a = FederatedTrainer(small_env(seed=5), small_cfg(), seed=2).run()
    rec_b = FederatedTrainer(small_env(seed=5), small_cfg(), seed=2).run()
    assert rec_a == rec_b


def test_sigma_zero_equals_encryption_disabled(monkeypatch):
    # A sigma 0 run never draws from the noise stream ...
    quiet = FederatedTrainer(small_env(seed=5), small_cfg(share_noise_std=0.0), seed=2)
    fresh = quiet.rng_noise.bit_generator.state
    records = quiet.run()
    assert quiet.rng_noise.bit_generator.state == fresh
    # ... and equals a run whose sharing path skips the noise entirely.
    monkeypatch.setattr(agents_mod, "encrypt_q", lambda q, sigma, rng: np.array(q, dtype=float))
    bypass = FederatedTrainer(small_env(seed=5), small_cfg(share_noise_std=5.0), seed=2)
    assert bypass.run() == records
    assert five_fingerprints(bypass) == five_fingerprints(quiet)


def test_targets_frozen_between_syncs():
    env = small_env(seed=6)
    cfg = small_cfg(episodes=4, target_sync=7)
    trainer = FederatedTrainer(env, cfg, seed=3)
    seen = []
    real_update = trainer.update

    def update(batch, lr):
        real_update(batch, lr)
        seen.append(
            (trainer.train_steps + 1, net_fingerprint(trainer.pair.lead_target),
             net_fingerprint(trainer.pair.mlp_target))
        )

    trainer.update = update
    trainer.run()
    assert len(seen) == trainer.train_steps
    for (step, lead_fp, mlp_fp), (_, lead_prev, mlp_prev) in zip(seen[1:], seen[:-1]):
        if (step - 1) % 7 == 0 and step > 1:
            assert lead_fp != lead_prev
        else:
            assert lead_fp == lead_prev
            assert mlp_fp == mlp_prev


def test_replay_ring_semantics_in_training():
    env = EdgeAssocEnv(EnvConfig(horizon=20), seed=7)
    cfg = small_cfg(episodes=2, replay_capacity=16, batch_size=4)
    trainer = FederatedTrainer(env, cfg, seed=4)
    trainer.run()
    assert len(trainer.buffer) == 16
    assert trainer.buffer.cursor == 40 % 16


def test_replay_keeps_one_side_slot_per_episode_end():
    """After k default episodes the side ring holds k - 1 next observations
    (each episode's last but the newest) and the pending slot one: every
    other row's next observations are the next row's."""
    k = 3
    trainer = FederatedTrainer(EdgeAssocEnv(EnvConfig(), seed=3), TrainerConfig(), seed=4)
    trainer.run(episodes=k)
    buffer = trainer.buffer
    capacity, horizon = buffer.capacity, EnvConfig().horizon
    nxt = buffer._next[: len(buffer)]
    assert len(buffer) == k * horizon and buffer._side == k - 1
    ends = np.arange(horizon - 1, k * horizon, horizon)
    assert np.array_equal(np.flatnonzero(nxt >= capacity), ends)
    assert nxt[ends].tolist() == [capacity + e for e in range(k - 1)] + [2 * capacity]
    rest = np.setdiff1d(np.arange(len(buffer)), ends)
    assert np.array_equal(nxt[rest], rest + 1)


def test_checkpoint_round_trip(tmp_path):
    env = small_env(seed=8)
    cfg = small_cfg(episodes=2)
    trainer = FederatedTrainer(env, cfg, seed=5)
    trainer.run(episodes=2)
    trainer.save(tmp_path / "ckpt")

    env2 = small_env(seed=999)  # state is restored from the checkpoint
    loaded = FederatedTrainer.load(tmp_path / "ckpt", env2)
    assert loaded.episode == trainer.episode
    assert net_fingerprint(loaded.pair.mlp) == net_fingerprint(trainer.pair.mlp)
    more_a = trainer.run(episodes=2)
    more_b = loaded.run(episodes=2)
    assert more_a == more_b


def test_checkpoint_keeps_only_filled_replay_rows(tmp_path):
    cfg = small_cfg(episodes=1, replay_capacity=TrainerConfig().replay_capacity)
    trainer = FederatedTrainer(EdgeAssocEnv(EnvConfig(), seed=3), cfg, seed=4)
    trainer.run()
    trainer.save(tmp_path / "ckpt")
    horizon = EnvConfig().horizon
    path = tmp_path / "ckpt" / "replay.npz"
    with np.load(path) as data:
        rows = {name: len(data[name]) for name in data.files if name != "meta"}
        assert list(data["meta"]) == [horizon, horizon, trainer.cfg.replay_capacity]
    assert set(rows.values()) == {horizon}
    row_bytes = sum(
        array[:1].nbytes for name, array in trainer.buffer.state_arrays().items() if name != "meta"
    )
    assert path.stat().st_size < 2 * horizon * row_bytes


def test_checkpoint_with_all_replay_rows_resumes_identically(tmp_path):
    """Checkpoints of earlier versions hold all `capacity` rows of each column."""
    trainer = FederatedTrainer(small_env(seed=8), small_cfg(episodes=2), seed=5)
    trainer.run()
    trainer.save(tmp_path / "filled")
    trainer.save(tmp_path / "all")
    state = trainer.buffer.state_arrays()
    assert len(trainer.buffer) < trainer.buffer.capacity
    np.savez(tmp_path / "all" / "replay.npz", **all_rows(state))
    resumed = [FederatedTrainer.load(tmp_path / d, small_env(seed=1)) for d in ("filled", "all")]
    for other in resumed:
        assert same_arrays(other.buffer.state_arrays(), state)
    runs = [t.run(episodes=2) for t in (trainer, *resumed)]
    assert runs[0] == runs[1] == runs[2]
    fingerprints = [
        [net_fingerprint(getattr(t.pair, f)) for f in ("lead", "lead_target", "follow", "mlp")]
        for t in (trainer, *resumed)
    ]
    assert fingerprints[0] == fingerprints[1] == fingerprints[2]


def full_trainer_with_breaks(extra_rows=300):
    """A trainer whose 20 000-row replay has wrapped by `extra_rows`, its chain
    of observations broken every 100 rows so that the side ring is used."""
    env = small_env(seed=8)
    trainer = FederatedTrainer(env, small_cfg(replay_capacity=20000), seed=5)
    buffer = trainer.buffer
    rng = np.random.default_rng(6)
    rows = buffer.capacity + extra_rows
    obs = rng.normal(size=(rows + 1, 2, env.obs_dim))
    next_obs = obs[1:].copy()
    next_obs[99::100] += 1.0
    acts = rng.integers(0, env.num_actions, size=(rows, 2))
    for t in range(rows):
        buffer.add(
            obs_lead=obs[t, 0], act_lead=acts[t, 0], reward=obs[t, 0, 0],
            next_obs_lead=next_obs[t, 0], obs_follow=obs[t, 1], act_follow=acts[t, 1],
            next_obs_follow=next_obs[t, 1], done=float(t % 100 == 99),
        )
    assert len(buffer) == buffer.capacity and buffer.cursor == extra_rows
    return trainer


def test_load_holds_one_replay_array_at_a_time(tmp_path):
    """A load reads the replay arrays a block at a time into the buffer it keeps."""
    trainer = full_trainer_with_breaks()
    buffer = trainer.buffer
    trainer.save(tmp_path / "ckpt")
    tracemalloc.start()
    try:
        loaded = FederatedTrainer.load(tmp_path / "ckpt", small_env(seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    net_bytes = sum(getattr(loaded.pair, name).params.nbytes for name in agents_mod._NET_NAMES)
    state = buffer.state_arrays()
    replay_bytes = sum(array.nbytes for name, array in state.items() if name != "meta")
    assert replay_bytes == buffer.capacity * 480
    # No whole column is read at once: 0.45 MB of the 9.6 MB here, 2.86 MB when
    # each array was read whole and its observations kept in their own columns.
    assert peak - net_bytes < replay_bytes / 8
    assert same_arrays(loaded.buffer.state_arrays(), state)


def test_save_writes_the_replay_a_block_at_a_time(tmp_path):
    """A save gathers no whole next-observation array: it writes each array
    a block of rows at a time."""
    trainer = full_trainer_with_breaks()
    tracemalloc.start()
    try:
        trainer.save(tmp_path / "ckpt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    state = trainer.buffer.state_arrays()
    replay_bytes = sum(array.nbytes for name, array in state.items() if name != "meta")
    # 0.15 MB here: 6.73 MB when both next-observation arrays were gathered
    # whole for np.savez, 2.25 MB when each field had its own column.
    assert peak < replay_bytes / 8
    with np.load(tmp_path / "ckpt" / "replay.npz") as data:
        assert same_arrays(dict(data), state)


@pytest.mark.parametrize("episodes, capacity", [(0, 64), (3, 64), (3, 8)])
def test_save_writes_replay_npz_byte_for_byte_as_np_savez(tmp_path, episodes, capacity):
    """Empty, partly filled and wrapped: `replay.npz` is what `np.savez` writes
    of `state_arrays`."""
    trainer = FederatedTrainer(small_env(seed=8), small_cfg(replay_capacity=capacity), seed=5)
    trainer.run(episodes=episodes)
    assert len(trainer.buffer) == min(5 * episodes, capacity)
    trainer.save(tmp_path / "ckpt")
    np.savez(tmp_path / "savez.npz", **trainer.buffer.state_arrays())
    saved = (tmp_path / "ckpt" / "replay.npz").read_bytes()
    assert saved == (tmp_path / "savez.npz").read_bytes()


@pytest.mark.parametrize(
    "name, other_world",
    [("lead.net", {}), ("replay.npz", {}), ("state.json", {"visible_rsus": 3})],
    ids=["lead.net", "replay.npz", "visible-rsus"],
)
def test_failed_load_leaves_env_unchanged(tmp_path, name, other_world):
    trainer = FederatedTrainer(small_env(seed=8), small_cfg(episodes=2), seed=5)
    trainer.run()
    trainer.save(tmp_path / "ckpt")
    path = tmp_path / "ckpt" / name
    if not other_world:
        path.write_bytes(path.read_bytes()[:-3])
    # A checkpoint of another world is named by its differing field, before
    # any net of the wrong dims is read.
    env = small_env(seed=1, **other_world)
    env.reset()
    env.step([0, 0])
    before, episode = env.get_state(), env.episode
    with pytest.raises(ValueError, match=re.escape(str(path))):
        FederatedTrainer.load(tmp_path / "ckpt", env)
    assert env.get_state() == before and env.episode is episode and episode.t == 2


# A `meta` of another shape or of non-integers, each with its shape and dtype.
BAD_REPLAY_META = {
    "2-d": (lambda meta: meta[None], "shape (1, 3) and dtype int64"),
    "float": (lambda meta: meta + 0.7, "shape (3,) and dtype float64"),
    "complex": (lambda meta: meta + 0j, "shape (3,) and dtype complex128"),
}


@pytest.mark.parametrize("edit, message", BAD_REPLAY_META.values(), ids=BAD_REPLAY_META)
def test_load_rejects_malformed_replay_meta(tmp_path, edit, message):
    trainer = FederatedTrainer(small_env(seed=8), small_cfg(episodes=2), seed=5)
    trainer.run()
    trainer.save(tmp_path / "ckpt")
    path = tmp_path / "ckpt" / "replay.npz"
    with np.load(path) as data:
        arrays = dict(data)
    arrays["meta"] = edit(arrays["meta"])
    np.savez(path, **arrays)
    want = f"{path}: replay meta must be 3 integers (size, cursor, capacity), got an array of "
    with pytest.raises(ValueError, match=re.escape(want + message)):
        FederatedTrainer.load(tmp_path / "ckpt", small_env(seed=1))


def _set_row(name, index, value):
    def edit(arrays):
        arrays[name][index] = value
    return edit


# Filled replay rows that no run writes, each named with its array, row and
# value. The small world has 16 actions per agent.
BAD_REPLAY_ROWS = {
    "action-past-range": (_set_row("act_lead", 3, 16),
                          "replay array 'act_lead' row 3 holds 16, not an action in [0, 16)"),
    "negative-action": (_set_row("act_follow", 0, -1),
                        "replay array 'act_follow' row 0 holds -1, not an action in [0, 16)"),
    "float-action": (lambda arrays: arrays.update(act_follow=arrays["act_follow"] + 0.7),
                     "replay array 'act_follow' has dtype float64, which does not cast to "
                     "the buffer's int64"),
    "complex-reward": (lambda arrays: arrays.update(reward=arrays["reward"] + 0j),
                       "replay array 'reward' has dtype complex128"),
    "nan-reward": (_set_row("reward", 2, np.nan),
                   "replay array 'reward' row 2 holds nan, not a finite number"),
    "infinite-observation": (_set_row("next_obs_lead", (1, 4), -np.inf),
                             "replay array 'next_obs_lead' row 1 holds -inf, not a finite number"),
    "done-flag": (_set_row("done", 4, 0.5), "replay array 'done' row 4 holds 0.5, not 0 or 1"),
}


@pytest.mark.parametrize("edit, message", BAD_REPLAY_ROWS.values(), ids=BAD_REPLAY_ROWS)
def test_load_rejects_bad_replay_rows(tmp_path, edit, message):
    trainer = FederatedTrainer(small_env(seed=8), small_cfg(episodes=2), seed=5)
    trainer.run()
    trainer.save(tmp_path / "ckpt")
    path = tmp_path / "ckpt" / "replay.npz"
    with np.load(path) as data:
        arrays = dict(data)
    edit(arrays)
    np.savez(path, **arrays)
    env = small_env(seed=1)
    before = env.get_state()
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        FederatedTrainer.load(tmp_path / "ckpt", env)
    assert env.get_state() == before


def test_load_rejects_a_short_or_fortran_ordered_replay_array(tmp_path):
    """Arrays are read by rows from the archive: one whose data ends before its
    header's rows, or that is stored column by column, fails naming it."""
    trainer = FederatedTrainer(small_env(seed=8), small_cfg(episodes=2), seed=5)
    trainer.run()
    trainer.save(tmp_path / "ckpt")
    path = tmp_path / "ckpt" / "replay.npz"
    with np.load(path) as data:
        arrays = dict(data)
    size, _, capacity = arrays["meta"].tolist()
    assert size < capacity
    np.savez(path, **{**arrays, "obs_lead": np.asfortranarray(arrays["obs_lead"])})
    with pytest.raises(ValueError, match=re.escape(
        f"{path}: replay array 'obs_lead' is stored in Fortran order, not C order"
    )):
        FederatedTrainer.load(tmp_path / "ckpt", small_env(seed=1))
    # The header of `reward` promises all `capacity` rows; its data holds `size`.
    with zipfile.ZipFile(path, "w") as archive:
        for name, array in arrays.items():
            header = np.lib.format.header_data_from_array_1_0(array)
            if name == "reward":
                header["shape"] = (capacity,)
            with archive.open(f"{name}.npy", "w") as fh:
                np.lib.format.write_array_header_1_0(fh, header)
                fh.write(array.tobytes())
    with pytest.raises(ValueError, match=re.escape(
        f"{path}: replay array 'reward' ends inside row {size} of its {capacity}"
    )):
        FederatedTrainer.load(tmp_path / "ckpt", small_env(seed=1))


def test_load_reads_every_replay_row_so_the_archive_checks_it(tmp_path):
    """Rows past the filled ones are read and dropped, so damage there still
    fails the archive's CRC check, naming `replay.npz`."""
    trainer = FederatedTrainer(small_env(seed=8), small_cfg(episodes=2), seed=5)
    trainer.run()
    trainer.save(tmp_path / "ckpt")
    path = tmp_path / "ckpt" / "replay.npz"
    np.savez(path, **all_rows(trainer.buffer.state_arrays()))
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("next_obs_lead.npy")
    data = bytearray(path.read_bytes())
    # The member's data follows its 30-byte local header, name and extra field.
    name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
    end = info.header_offset + 30 + name_len + extra_len + info.file_size
    data[end - 3] ^= 1  # a byte of the last, unfilled row
    path.write_bytes(data)
    with pytest.raises(ValueError, match=re.escape(f"{path}: Bad CRC-32 for file 'next_obs_lead.npy'")):
        FederatedTrainer.load(tmp_path / "ckpt", small_env(seed=1))


def test_load_checks_only_the_filled_replay_rows(tmp_path):
    """Rows past the filled ones are read but not checked, so what they hold is not rejected."""
    trainer = FederatedTrainer(small_env(seed=8), small_cfg(episodes=2), seed=5)
    trainer.run()
    trainer.save(tmp_path / "ckpt")
    arrays = all_rows(trainer.buffer.state_arrays())
    for name, value in (("act_lead", -5), ("reward", np.nan), ("done", 0.5)):
        arrays[name][-1] = value
    np.savez(tmp_path / "ckpt" / "replay.npz", **arrays)
    loaded = FederatedTrainer.load(tmp_path / "ckpt", small_env(seed=1))
    assert len(loaded.buffer) == len(trainer.buffer) < trainer.buffer.capacity


@pytest.mark.parametrize("text, kind", [("[1, 2]", "list"), ("null", "NoneType"), ("3", "int")])
def test_load_rejects_a_state_that_is_not_an_object(tmp_path, text, kind):
    trainer = FederatedTrainer(small_env(seed=8), small_cfg(episodes=1), seed=5)
    trainer.save(tmp_path / "ckpt")
    path = tmp_path / "ckpt" / "state.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: must hold a JSON object, got {kind}")):
        FederatedTrainer.load(tmp_path / "ckpt", small_env(seed=1))


@pytest.mark.parametrize("lr", [1e3, 1e6])
def test_diverging_run_raises_one_error_and_warns_nothing(lr):
    # The first overflow comes in a forward pass (1e3) or in the TD error
    # (1e6); neither warns, and the run ends in the loss check's error.
    cfg = small_cfg(episodes=3, lr_start=lr, lr_end=lr, grad_clip=1e308)
    trainer = FederatedTrainer(small_env(seed=1), cfg, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="non-finite training loss"):
            trainer.run()


# A short default-dims proposed run, in a child process: its BLAS thread
# count, then the fingerprint of each net of the pair.
_THREADS_CHILD = """
from fedassoc.agents import FederatedTrainer, TrainerConfig
from fedassoc.env import EdgeAssocEnv, EnvConfig
from fedassoc.nn import net_fingerprint
from processes import blas_threads
trainer = FederatedTrainer(EdgeAssocEnv(EnvConfig(), 1), TrainerConfig(episodes=5), 2)
trainer.run()
print(blas_threads(), *(net_fingerprint(net) for net in vars(trainer.pair).values()))
"""


def test_training_writes_the_same_nets_at_one_and_two_blas_threads():
    """OpenBLAS splits a dot of more than 10 000 values across its threads.
    The joint head's weight gradient holds 20 480, and most steps clip, so a
    norm taken by BLAS would change the nets with the thread count."""
    if usable_cpus() < 2:
        pytest.skip("OpenBLAS runs one thread on fewer than 2 CPUs")
    if blas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS whose threads can be read")
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    children = {
        threads: subprocess.Popen(
            [sys.executable, "-c", _THREADS_CHILD], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": path},
        )
        for threads in (1, 2)
    }
    lines = {}
    for threads, child in children.items():
        lines[threads] = child.communicate(timeout=120)[0].split()
        assert child.returncode == 0
    assert [lines[threads][0] for threads in (1, 2)] == ["1", "2"]
    assert lines[1][1:] == lines[2][1:]


def test_greedy_evaluation_runs_without_learning(tmp_path):
    trainer = FederatedTrainer(small_env(seed=9), small_cfg(), seed=6)
    trainer.run()
    fp = [net_fingerprint(trainer.pair.lead), net_fingerprint(trainer.pair.follow),
          net_fingerprint(trainer.pair.mlp)]
    records = trainer.evaluate(episodes=3)
    assert len(records) == 3
    assert [net_fingerprint(trainer.pair.lead), net_fingerprint(trainer.pair.follow),
            net_fingerprint(trainer.pair.mlp)] == fp


def test_gradient_buffers_are_made_at_the_first_update(tmp_path):
    trainer = FederatedTrainer(small_env(seed=2), small_cfg(), seed=4)
    trainer.save(tmp_path / "ckpt")
    loaded = FederatedTrainer.load(tmp_path / "ckpt", small_env(seed=2))
    loaded.evaluate(2)
    assert trainer.grads == {} and loaded.grads == {}
    # Horizon 5 and batch 8: the first update comes in the second episode.
    loaded.run(episodes=1)
    assert loaded.train_steps == 0 and loaded.grads == {}
    loaded.run(episodes=1)
    assert loaded.train_steps > 0
    buffers = dict(loaded.grads)
    assert sorted(buffers) == ["follow", "lead", "mlp"]
    for name, grads in buffers.items():
        net = getattr(loaded.pair, name)
        assert [g.shape for g in grads.weights] == [w.shape for w in net.weights]
    loaded.run(episodes=1)
    assert all(loaded.grads[name] is grads for name, grads in buffers.items())


# -- toy convergence ---------------------------------------------------------------------

def test_toy_convergence_vector_mode():
    env = ToyEnv(separable_table(4, seed=21), obs_dim=4, seed=21)
    trainer = FederatedTrainer(env, toy_trainer_cfg(), seed=31)
    trainer.run()
    assert trainer.select_actions(env.reset(), 0.0) == env.best_joint()
