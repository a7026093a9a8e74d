"""Sharing primitives, joint-action math and the federated trainer."""

import gc
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
import weakref
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fedassoc.agents as agents_mod
from fedassoc.agents import (
    FederatedTrainer,
    TrainerConfig,
    bootstrap,
    compose_joint,
    decompose_joint,
    encrypt_q,
    epsilon_greedy,
)
from fedassoc.baselines import ddqn_target
from fedassoc.env import EdgeAssocEnv, EnvConfig
from fedassoc.harness import ALGORITHMS, TRAINERS, blas_threads, usable_cpus
from fedassoc.nn import clone, copy_into_target, forward, init_net, linear_schedule, net_fingerprint
from fedassoc.replay import Batch
from reference_replay import ColumnReplay, all_rows, columns, same_arrays, upgrade_checkpoint
from reference_targets import double_dqn_targets, plain_max_targets
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
    """The joint head scores [own || peer] Q vectors, as `select_actions` joins them."""
    mlp = init_net((32, 8, 256), np.random.default_rng(4))

    def joint_q(own, peer):
        out, _ = forward(mlp, np.concatenate((own, peer), axis=-1), stack=True)
        return out

    assert joint_q(np.ones(16), np.ones(16)).shape == (256,)
    assert joint_q(np.ones((3, 16)), np.ones((3, 16))).shape == (3, 256)
    for w in mlp.weights:
        w[...] = 0.0
    assert np.all(joint_q(np.ones(16), np.ones(16)) == 0.0)
    with pytest.raises(ValueError):
        joint_q(np.ones(16), np.ones(15))


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
        small_cfg(epsilon_decay_episodes=0)
    for name in ("epsilon_decay_episodes", "batch_size", "replay_capacity", "target_sync",
                 "episodes", "lr_decay_episodes"):
        for value in (8.0, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                small_cfg(**{name: value})
    small_cfg(batch_size=np.int64(8))
    for name in ("discount", "epsilon", "epsilon_end", "share_noise_std", "lr_start", "lr_end"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                small_cfg(**{name: value})


@pytest.mark.parametrize("grad_clip", [-1.0, 0.0, float("nan")])
def test_trainer_rejects_bad_grad_clip(grad_clip):
    with pytest.raises(ValueError, match="grad_clip"):
        small_cfg(grad_clip=grad_clip)


def test_infinite_grad_clip_is_accepted():
    # Integers above int64 pass, and one too large for a float counts as infinite.
    for grad_clip in (float("inf"), 2**70, 10**400):
        small_cfg(grad_clip=grad_clip)


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


@st.composite
def target_batches(draw, elements):
    """(reward, done, discount, pick, value) of one batch; `elements` gives
    the Q-values of `pick` and `value`."""
    rows = draw(st.integers(1, 12))
    width = draw(st.integers(1, 9))
    finite = st.floats(-1e6, 1e6)
    return (
        draw(arrays(float, rows, elements=finite)),
        draw(arrays(float, rows, elements=st.sampled_from([0.0, 1.0]))),
        draw(st.floats(0.0, 1.0)),
        draw(arrays(float, (rows, width), elements=elements)),
        draw(arrays(float, (rows, width), elements=elements)),
    )


@given(target_batches(st.floats(-1e6, 1e6)))
@settings(max_examples=200, deadline=None)
def test_bootstrap_is_both_old_target_rules(batch):
    reward, done, discount, pick, value = batch
    assert np.array_equal(
        bootstrap(reward, done, discount, value, value),
        plain_max_targets(reward, done, discount, value),
    )
    assert np.array_equal(
        bootstrap(reward, done, discount, pick, value),
        double_dqn_targets(reward, done, discount, pick, value),
    )
    # A done row keeps the bare reward, whichever rule.
    for y in (bootstrap(reward, done, discount, value, value),
              bootstrap(reward, done, discount, pick, value)):
        assert np.array_equal(y[done == 1.0], reward[done == 1.0])


@given(target_batches(st.integers(0, 2).map(float)))
@settings(max_examples=200, deadline=None)
def test_bootstrap_tie_picks_the_lowest_index(batch):
    # Q-values in {0, 1, 2} tie often.
    reward, done, discount, pick, value = batch
    first_best = [int(np.flatnonzero(row == row.max())[0]) for row in pick]
    best = value[np.arange(len(value)), first_best]
    assert np.array_equal(
        bootstrap(reward, done, discount, pick, value), reward + discount * best * (1.0 - done)
    )


def test_targets_zero_discount():
    trainer = FederatedTrainer(small_env(), small_cfg(discount=0.0), seed=3)
    rng = np.random.default_rng(3)
    batch = make_batch(rng, 6, 14, 16)
    assert np.array_equal(trainer.compute_targets(batch), batch.reward)


# -- composed-loss gradients -----------------------------------------------------------------

def side_step(trainer, batch, targets, lead_side, lr=0.0):
    """One side's step on the current follower net's forward pass; returns its
    loss. At lr 0 it writes only the gradient buffers, which hold that side's
    gradients after it, and leaves every net as it was."""
    follow_fwd = forward(trainer.pair.follow, batch.obs_follow)
    step = trainer.train_step_lead if lead_side else trainer.train_step_follow
    return step(batch, targets, lr, follow_fwd)


def side_grads(trainer, batch, targets, lead_side):
    """(loss, own, joint head) of one side's lr 0 step, both gradients copied
    from `trainer.grads`, since the next backward of a net overwrites them."""
    loss = side_step(trainer, batch, targets, lead_side)
    own = "lead" if lead_side else "follow"
    return loss, clone(trainer.grads[own]), clone(trainer.grads["mlp"])


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
        before = five_fingerprints(trainer)
        loss0, g_own, g_mlp = side_grads(trainer, batch, targets, lead_side)
        assert five_fingerprints(trainer) == before
        for net, grads in ((own, g_own), (trainer.pair.mlp, g_mlp)):
            flat, gflat = net.params, grads.params
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = side_step(trainer, batch, targets, lead_side)
                flat[i] = orig - h
                down = side_step(trainer, batch, targets, lead_side)
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
    loss = side_step(trainer, batch, targets, lead_side=True, lr=0.05)
    assert loss == 0.0
    assert [net_fingerprint(trainer.pair.lead), net_fingerprint(trainer.pair.mlp)] == before


def test_loss_descends_on_frozen_batch():
    env = small_env()
    trainer = FederatedTrainer(env, small_cfg(share_noise_std=0.0), seed=7)
    rng = np.random.default_rng(8)
    batch = make_batch(rng, 8, 14, 16)
    targets = rng.random(8)
    losses = [side_step(trainer, batch, targets, lead_side=True, lr=0.01) for _ in range(50)]
    assert losses[-1] < losses[0]
    losses_f = [side_step(trainer, batch, targets, lead_side=False, lr=0.01) for _ in range(50)]
    assert losses_f[-1] < losses_f[0]


def test_side_symmetry_with_identical_inputs():
    # Same nets, same observations, symmetric joint action: both sides see
    # the identical composed problem, so their gradients must coincide.
    trainer = FederatedTrainer(small_env(), small_cfg(share_noise_std=0.0), seed=9)
    copy_into_target(trainer.pair.lead, trainer.pair.follow)
    rng = np.random.default_rng(10)
    batch = make_batch(rng, 4, 14, 16)
    batch.obs_follow = batch.obs_lead.copy()
    batch.next_obs_follow = batch.next_obs_lead.copy()
    batch.act_follow = batch.act_lead.copy()
    targets = rng.random(4)
    _, g_lead, g_mlp_lead = side_grads(trainer, batch, targets, lead_side=True)
    _, g_follow, g_mlp_follow = side_grads(trainer, batch, targets, lead_side=False)
    assert np.array_equal(g_mlp_lead.params, g_mlp_follow.params)
    assert np.array_equal(g_lead.params, g_follow.params)


def test_update_isolation_across_sides():
    trainer = FederatedTrainer(small_env(), small_cfg(), seed=13)
    rng = np.random.default_rng(14)
    batch = make_batch(rng, 8, 14, 16)
    targets = rng.random(8)
    follow_before = net_fingerprint(trainer.pair.follow)
    side_step(trainer, batch, targets, lead_side=True, lr=0.01)
    assert net_fingerprint(trainer.pair.follow) == follow_before
    lead_after_own_update = net_fingerprint(trainer.pair.lead)
    side_step(trainer, batch, targets, lead_side=False, lr=0.01)
    assert net_fingerprint(trainer.pair.lead) == lead_after_own_update
    assert net_fingerprint(trainer.pair.follow) != follow_before


def five_fingerprints(trainer):
    p = trainer.pair
    return [net_fingerprint(n) for n in (p.lead, p.lead_target, p.follow, p.mlp, p.mlp_target)]


def split_update(trainer, batch, lr):
    """`update` as its parts: the targets, the lead's step, then the
    follower's, which shares one forward pass of the follower net."""
    targets = trainer.compute_targets(batch)
    follow_fwd = forward(trainer.pair.follow, batch.obs_follow)
    return (trainer.train_step_lead(batch, targets, lr, follow_fwd),
            trainer.train_step_follow(batch, targets, lr, follow_fwd))


def test_train_step_equals_lead_then_follow():
    fused = FederatedTrainer(small_env(), small_cfg(), seed=15)
    split = FederatedTrainer(small_env(), small_cfg(), seed=15)
    rng = np.random.default_rng(16)
    for _ in range(3):
        batch = make_batch(rng, 8, 14, 16)
        losses = fused.update(batch, lr=0.05)
        assert [type(loss) for loss in losses] == [float, float]
        assert losses == split_update(split, batch, lr=0.05)
        assert five_fingerprints(fused) == five_fingerprints(split)
        assert fused.rng_noise.bit_generator.state == split.rng_noise.bit_generator.state


@pytest.mark.parametrize("algo", ["cdrl", "imarl", "fmarl-avg"])
def test_every_baseline_update_returns_its_losses(algo):
    """A tuple of one float per side, in `sides` order: one for cdrl, two for
    imarl and fmarl-avg. Each is the MSE recomputed on the batch before the
    step, on the side's vehicles' columns side by side and their joint action.
    (Proposed's `update` is checked against its split steps above.)"""
    trainer = TRAINERS[algo](small_env(), small_cfg(), seed=21)
    batch = make_batch(np.random.default_rng(22), 8, 14, 16)
    expected = []
    for head, vehicles in zip(trainer.heads, trainer.sides.values()):
        obs, next_obs = (np.hstack([getattr(batch, f"{key}_{v}") for v in vehicles])
                         for key in ("obs", "next_obs"))
        actions = [getattr(batch, f"act_{v}") for v in vehicles]
        joint = actions[0] if len(actions) == 1 else compose_joint(*actions, trainer.num_actions)
        targets = ddqn_target(
            batch.reward, next_obs, head.net, head.target, trainer.cfg.discount, batch.done
        )
        q, _ = forward(head.net, obs)
        expected.append(np.mean((q[np.arange(len(q)), joint] - targets) ** 2))
    losses = trainer.update(batch, lr=0.05)
    assert type(losses) is tuple and [type(loss) for loss in losses] == [float] * len(expected)
    assert len(losses) == (1 if algo == "cdrl" else 2)
    if len(expected) == 2:
        assert expected[0] != pytest.approx(expected[1])  # so the order shows
    assert losses == pytest.approx(tuple(expected), rel=1e-12)


def test_non_finite_gradient_leaves_every_net_unchanged(monkeypatch):
    trainer = FederatedTrainer(small_env(), small_cfg(), seed=17)
    rng = np.random.default_rng(18)
    batch = make_batch(rng, 8, 14, 16)
    targets = rng.random(8)
    real_backward = agents_mod.backward

    def poisoned(net, cache, output_gradient, cols=None, *, grads):
        grads, d_in = real_backward(net, cache, output_gradient, cols, grads=grads)
        if net is trainer.pair.mlp:
            grads.biases[-1][0] = np.nan
        return grads, d_in

    monkeypatch.setattr(agents_mod, "backward", poisoned)
    before = five_fingerprints(trainer)
    steps = (
        lambda: trainer.update(batch, lr=0.05),
        lambda: side_step(trainer, batch, targets, lead_side=True, lr=0.05),
        lambda: side_step(trainer, batch, targets, lead_side=False, lr=0.05),
    )
    for step in steps:
        with pytest.raises(ValueError, match="non-finite gradient"):
            step()
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


def fingerprints(trainer) -> dict[str, str]:
    return {name: net_fingerprint(net) for name, net in trainer.nets.items()}


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_sync_targets_copies_each_net_of_the_store_into_its_target(algo):
    """`nets` holds exactly the nets `net_dims` names; a sync overwrites each
    `<name>_target` with `<name>` and leaves every other net as it was."""
    env, cfg = small_env(seed=8), small_cfg(target_sync=10**6)
    trainer = TRAINERS[algo](env, cfg, seed=5)
    dims = TRAINERS[algo].net_dims(env, cfg)
    assert [(name, net.dims) for name, net in trainer.nets.items()] == list(dims.items())
    trainer.run(episodes=3)  # trains, but never syncs
    before = fingerprints(trainer)
    mains = [name for name in dims if not name.endswith("_target")]
    assert all(f"{m}_target" not in dims or before[m] != before[f"{m}_target"] for m in mains)
    trainer.sync_targets()
    assert fingerprints(trainer) == {name: before[name.removesuffix("_target")] for name in dims}


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_a_dropped_trainer_is_freed_at_once(algo):
    """No view holds its trainer, so the last reference frees it and its
    replay without waiting for the cycle collector (a grid trains one
    trainer after another in one process)."""
    trainer = TRAINERS[algo](small_env(seed=8), small_cfg(), seed=5)
    trainer.run(episodes=2)
    ref = weakref.ref(trainer)
    gc.disable()
    try:
        del trainer
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_checkpoint_round_trip(tmp_path, algo):
    """2 episodes, a save and a load, then 2 more: the records and nets of
    4 uninterrupted episodes. fmarl-avg averages at episode 3, after the load."""
    cfg = small_cfg(fedavg_period=3)
    whole = TRAINERS[algo](small_env(seed=8), cfg, seed=5)
    records = whole.run(episodes=4)
    trainer = TRAINERS[algo](small_env(seed=8), cfg, seed=5)
    assert trainer.run(episodes=2) == records[:2]
    trainer.save(tmp_path / "ckpt")

    env2 = small_env(seed=999)  # state is restored from the checkpoint
    loaded = TRAINERS[algo].load(tmp_path / "ckpt", env2)
    assert type(loaded) is TRAINERS[algo] and loaded.episode == 2
    assert fingerprints(loaded) == fingerprints(trainer)
    assert loaded.run(episodes=2) == records[2:]
    assert fingerprints(loaded) == fingerprints(whole)


def read_files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_a_failed_save_leaves_the_previous_checkpoint_intact(tmp_path, monkeypatch):
    trainer = FederatedTrainer(small_env(seed=8), small_cfg(), seed=5)
    trainer.run(episodes=2)
    ckpt = tmp_path / "ckpt"
    trainer.save(ckpt)
    saved = read_files(ckpt)
    trainer.run(episodes=1)
    real_save_net, written = agents_mod.save_net, []

    def failing(path, net):
        written.append(path.name)
        if len(written) == 3:
            raise OSError("no space left on device")
        real_save_net(path, net)

    monkeypatch.setattr(agents_mod, "save_net", failing)
    with pytest.raises(OSError, match="no space left"):
        trainer.save(ckpt)
    assert written == ["lead.net", "lead_target.net", "follow.net"]
    assert read_files(ckpt) == saved
    assert [path.name for path in tmp_path.iterdir()] == ["ckpt"]
    FederatedTrainer.load(ckpt, small_env(seed=8))
    # A save that succeeds replaces the checkpoint whole, a stray file with it,
    # with the files a save into a new directory writes.
    monkeypatch.undo()
    (ckpt / "stray.txt").write_text("not part of a checkpoint")
    trainer.save(ckpt)
    trainer.save(tmp_path / "fresh")
    assert read_files(ckpt) == read_files(tmp_path / "fresh")
    assert read_files(ckpt).keys() == saved.keys()
    assert read_files(ckpt)["lead.net"] != saved["lead.net"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["ckpt", "fresh"]


def test_a_save_leaves_stale_staging_of_its_pid_alone(tmp_path, monkeypatch):
    # PIDs repeat, in containers and CI: a save of this PID that was killed
    # mid-write may have left its directories beside the checkpoint.
    trainer = FederatedTrainer(small_env(seed=8), small_cfg(), seed=5)
    trainer.run(episodes=1)
    ckpt = tmp_path / "ckpt"
    trainer.save(ckpt)
    stale = {}
    for kind in ("tmp", "old"):
        path = tmp_path / f"ckpt.{kind}-{os.getpid()}"
        path.mkdir()
        (path / "lead.net").write_bytes(b"left by a killed save")
        stale[path.name] = read_files(path)

    def others():
        return {path.name: read_files(path) for path in tmp_path.iterdir() if path != ckpt}

    trainer.run(episodes=1)
    trainer.save(ckpt)
    loaded = FederatedTrainer.load(ckpt, small_env(seed=8))
    assert five_fingerprints(loaded) == five_fingerprints(trainer)
    assert others() == stale
    # A swap that fails puts the last checkpoint back and deletes the staged copy.
    saved = read_files(ckpt)
    real_replace = os.replace

    def failing(src, dst):
        if Path(src).name == "new":
            raise OSError("rename failed")
        real_replace(src, dst)

    trainer.run(episodes=1)
    monkeypatch.setattr(agents_mod.os, "replace", failing)
    with pytest.raises(OSError, match="rename failed"):
        trainer.save(ckpt)
    monkeypatch.undo()
    assert read_files(ckpt) == saved
    assert others() == stale


def test_save_refuses_a_non_empty_directory_without_state_json(tmp_path):
    trainer = FederatedTrainer(small_env(), small_cfg(), seed=1)
    results = tmp_path / "results"
    results.mkdir()
    (results / "notes.txt").write_text("keep")
    with pytest.raises(ValueError, match="no state.json") as info:
        trainer.save(results)
    assert "\n" not in str(info.value)
    assert read_files(results) == {"notes.txt": b"keep"}
    assert [path.name for path in tmp_path.iterdir()] == ["results"]
    empty = tmp_path / "empty"
    empty.mkdir()
    trainer.save(empty)
    trainer.save(tmp_path / "new")
    assert read_files(empty) == read_files(tmp_path / "new")


def test_checkpoint_keeps_only_filled_replay_rows(tmp_path):
    """One episode fills 100 of 20 000 rows: the replay holds those rows, no
    side slot (the newest row reads the pending slot) and the pending slot."""
    cfg = small_cfg(episodes=1, replay_capacity=TrainerConfig().replay_capacity)
    trainer = FederatedTrainer(EdgeAssocEnv(EnvConfig(), seed=3), cfg, seed=4)
    trainer.run()
    trainer.save(tmp_path / "ckpt")
    horizon = EnvConfig().horizon
    path = tmp_path / "ckpt" / "replay.npz"
    with np.load(path) as data:
        rows = {name: len(data[name]) for name in data.files if name not in ("pending", "meta")}
        assert list(data["meta"]) == [horizon, horizon, trainer.cfg.replay_capacity, 0]
        assert data["pending"].shape == (2, trainer.env.obs_dim)
    assert rows.pop("side") == 0 and set(rows.values()) == {horizon}
    row_bytes = sum(
        array[:1].nbytes for name, array in trainer.buffer.state_arrays().items()
        if name not in ("side", "pending", "meta")
    )
    assert row_bytes == 264
    assert path.stat().st_size < 2 * horizon * row_bytes


def as_format_1(directory, arrays) -> None:
    """Make the checkpoint in `directory` one of format 1: its replay the
    column-per-field `arrays`, and a `state.json` without `format`."""
    np.savez(directory / "replay.npz", **arrays)
    state = json.loads((directory / "state.json").read_text())
    del state["format"]
    (directory / "state.json").write_text(json.dumps(state))


def test_checkpoint_with_all_replay_rows_resumes_identically(tmp_path):
    """Format-1 checkpoints hold a column per field, of the filled rows or, the
    earliest, of all `capacity` rows. `load` refuses either, naming the
    upgrade tool; upgraded, each resumes as the trainer that wrote it."""
    trainer = FederatedTrainer(small_env(seed=8), small_cfg(episodes=2), seed=5)
    trainer.run()
    trainer.save(tmp_path / "filled")
    trainer.save(tmp_path / "all")
    state = trainer.buffer.state_arrays()
    assert len(trainer.buffer) < trainer.buffer.capacity
    as_format_1(tmp_path / "filled", columns(state))
    as_format_1(tmp_path / "all", all_rows(columns(state)))
    for d in ("filled", "all"):
        with pytest.raises(ValueError, match=re.escape(
            f"{tmp_path / d / 'state.json'}: format 1: upgrade it with tools/upgrade_checkpoint.py"
        )):
            FederatedTrainer.load(tmp_path / d, small_env(seed=1))
        assert upgrade_checkpoint.main([str(tmp_path / d)]) == 0
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


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_an_upgraded_format_1_checkpoint_resumes_as_the_uninterrupted_trainer(tmp_path, algo):
    """A format-1 checkpoint whose replay holds the column-per-field buffer's
    arrays (`ColumnReplay`, fed the same rows), here wrapped, resumes after
    tools/upgrade_checkpoint.py to the records and nets of 4 uninterrupted
    episodes."""
    cfg = small_cfg(replay_capacity=8, fedavg_period=3)
    whole = TRAINERS[algo](small_env(seed=8), cfg, seed=5)
    records = whole.run(episodes=4)
    trainer = TRAINERS[algo](small_env(seed=8), cfg, seed=5)
    reference, add = ColumnReplay(8, trainer.env.obs_dim), trainer.buffer.add

    def add_to_both(**row):
        add(**row)
        reference.add(**row)

    trainer.buffer.add = add_to_both
    assert trainer.run(episodes=2) == records[:2]
    assert len(reference) == reference.capacity < 2 * 5
    trainer.save(tmp_path / "ckpt")
    as_format_1(tmp_path / "ckpt", reference.state_arrays())
    assert upgrade_checkpoint.main([str(tmp_path / "ckpt"), "--out", str(tmp_path / "new")]) == 0
    loaded = TRAINERS[algo].load(tmp_path / "new", small_env(seed=999))
    assert same_arrays(columns(loaded.buffer.state_arrays()), reference.state_arrays())
    assert loaded.run(episodes=2) == records[2:]
    assert fingerprints(loaded) == fingerprints(whole)


def test_the_upgrade_tool_runs_as_a_script(tmp_path):
    trainer = FederatedTrainer(small_env(seed=8), small_cfg(episodes=2), seed=5)
    trainer.run()
    trainer.save(tmp_path / "ckpt")
    as_format_1(tmp_path / "ckpt", columns(trainer.buffer.state_arrays()))
    before = read_files(tmp_path / "ckpt")
    tool = Path(__file__).resolve().parent.parent / "tools" / "upgrade_checkpoint.py"
    out = tmp_path / "upgraded"
    proc = subprocess.run([sys.executable, str(tool), str(tmp_path / "ckpt"), "--out", str(out)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"wrote {out}\n", "")
    assert read_files(tmp_path / "ckpt") == before
    trainer.save(tmp_path / "fresh")
    assert read_files(out) == read_files(tmp_path / "fresh")


def _edit_columns(edit):
    def apply(ckpt):
        with np.load(ckpt / "replay.npz") as data:
            arrays = dict(data)
        edit(arrays)
        np.savez(ckpt / "replay.npz", **arrays)
    return apply


def _edit_state(edit):
    def apply(ckpt):
        state = json.loads((ckpt / "state.json").read_text())
        edit(state)
        (ckpt / "state.json").write_text(json.dumps(state))
    return apply


# Format-1 checkpoints the upgrade refuses, each with the message after
# `error: `, in which DIR stands for the checkpoint.
BAD_FORMAT_1 = {
    "no-state": (lambda ckpt: (ckpt / "state.json").unlink(), "No such file or directory"),
    "format-2": (_edit_state(lambda state: state.update(format=2)),
                 "DIR/state.json: not a format-1 checkpoint"),
    "no-env-state": (_edit_state(lambda state: state.pop("env_state")),
                     "DIR/state.json: 'env_state'"),
    "cut-file": (lambda ckpt: (ckpt / "replay.npz").write_bytes(b"PK\x03\x04" + b"0" * 40),
                 "DIR/replay.npz: "),
    "missing-array": (_edit_columns(lambda arrays: arrays.pop("done")),
                      "DIR/replay.npz: 'done is not a file in the archive'"),
    "bad-meta": (_edit_columns(lambda arrays: arrays.update(meta=np.array([9, 3, 8]))),
                 "DIR/replay.npz: meta [9, 3, 8] is not a replay's (size, cursor, capacity)"),
    "float-action": (_edit_columns(lambda arrays: arrays.update(act_lead=arrays["act_lead"] + 0.5)),
                     "DIR/replay.npz: array 'act_lead' has dtype float64, not a replay column's"),
    "short-column": (_edit_columns(lambda arrays: arrays.update(reward=arrays["reward"][:3])),
                     "DIR/replay.npz: index 3 is out of bounds"),
    "bad-action": (_edit_columns(lambda arrays: arrays["act_follow"].__setitem__(2, 99)),
                   "DIR/replay.npz: replay array 'act_follow' row 2 holds 99, not an action"),
    # Rows no mapping's size can count: the buffer fails as it is built.
    "huge-capacity": (_edit_columns(lambda arrays: arrays.update(meta=np.array([8, 8, 10**18]))),
                      "Unable to allocate"),
}


@pytest.mark.parametrize("edit, message", BAD_FORMAT_1.values(), ids=BAD_FORMAT_1)
def test_the_upgrade_tool_rejects_a_malformed_format_1_checkpoint(tmp_path, capsys, edit, message):
    """One stderr line and exit code 2; the checkpoint is left as it was, and
    nothing else is written."""
    trainer = FederatedTrainer(small_env(seed=8), small_cfg(replay_capacity=8), seed=5)
    trainer.run(episodes=2)
    ckpt = tmp_path / "ckpt"
    trainer.save(ckpt)
    as_format_1(ckpt, columns(trainer.buffer.state_arrays()))
    edit(ckpt)
    before = read_files(ckpt)
    capsys.readouterr()
    assert upgrade_checkpoint.main([str(ckpt)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
    assert message.replace("DIR", str(ckpt)) in err
    assert read_files(ckpt) == before
    assert [path.name for path in tmp_path.iterdir()] == ["ckpt"]


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
    net_bytes = sum(net.params.nbytes for net in loaded.nets.values())
    state = buffer.state_arrays()
    replay_bytes = sum(array.nbytes for name, array in state.items() if name != "meta")
    # 264 B per row, and 224 B for each side slot in use (every 100th row but
    # the newest breaks the chain) and the pending slot.
    assert len(state["side"]) == 199
    assert replay_bytes == buffer.capacity * 264 + 200 * 224
    # No whole array is read at once. The bound is an eighth of the 9.6 MB
    # this replay took when each field had its own column (480 B per row).
    assert peak - net_bytes < buffer.capacity * 480 / 8
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


def test_load_checks_the_env_state_once(tmp_path, monkeypatch):
    """`Trainer.load` checks the env state before it reads a net, and applies
    that check's result last without checking the state again."""
    trainer = FederatedTrainer(small_env(seed=8), small_cfg(episodes=2), seed=5)
    trainer.run()
    trainer.save(tmp_path / "ckpt")
    calls = []
    check_state = EdgeAssocEnv.check_state
    monkeypatch.setattr(EdgeAssocEnv, "check_state",
                        lambda env, state: calls.append(state) or check_state(env, state))
    env = small_env(seed=1)
    loaded = FederatedTrainer.load(tmp_path / "ckpt", env)
    assert len(calls) == 1
    assert env.get_state() == trainer.env.get_state() and env.episode is None
    assert loaded.run(episodes=1) == trainer.run(episodes=1)


# A `meta` of another shape or of non-integers, each with its shape and dtype.
BAD_REPLAY_META = {
    "2-d": (lambda meta: meta[None], "shape (1, 4) and dtype int64"),
    "float": (lambda meta: meta + 0.7, "shape (4,) and dtype float64"),
    "complex": (lambda meta: meta + 0j, "shape (4,) and dtype complex128"),
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
    want = f"{path}: replay meta has {message}, not 4 integers"
    with pytest.raises(ValueError, match=re.escape(want)):
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
                     "replay array 'act_follow' has shape (10,) and dtype float64, not (10,) "
                     "and int64"),
    "complex-reward": (lambda arrays: arrays.update(reward=arrays["reward"] + 0j),
                       "replay array 'reward' has shape (10,) and dtype complex128"),
    "nan-reward": (_set_row("reward", 2, np.nan),
                   "replay array 'reward' row 2 holds nan, not a finite number"),
    "infinite-observation": (_set_row("obs", (1, 0, 4), -np.inf),
                             "replay array 'obs' row 1 holds -inf, not a finite number"),
    "infinite-side-slot": (_set_row("side", (0, 1, 2), np.inf),
                           "replay array 'side' row 0 holds inf, not a finite number"),
    "nan-pending": (_set_row("pending", (1, 0), np.nan),
                    "replay array 'pending' row 1 holds nan, not a finite number"),
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
    """Arrays are read in blocks from the archive: one whose data ends before
    its header's rows, or that is stored column by column, fails naming it."""
    trainer = FederatedTrainer(small_env(seed=8), small_cfg(episodes=2), seed=5)
    trainer.run()
    trainer.save(tmp_path / "ckpt")
    path = tmp_path / "ckpt" / "replay.npz"
    with np.load(path) as data:
        arrays = dict(data)
    size = arrays["meta"][0]
    np.savez(path, **{**arrays, "obs": np.asfortranarray(arrays["obs"])})
    with pytest.raises(ValueError, match=re.escape(
        f"{path}: replay array 'obs' is in Fortran order, not C order"
    )):
        FederatedTrainer.load(tmp_path / "ckpt", small_env(seed=1))
    # The header of `reward` promises its `size` rows; its data holds one fewer.
    with zipfile.ZipFile(path, "w") as archive:
        for name, array in arrays.items():
            with archive.open(f"{name}.npy", "w") as fh:
                np.lib.format.write_array_header_1_0(
                    fh, np.lib.format.header_data_from_array_1_0(array)
                )
                fh.write(array[:-1].tobytes() if name == "reward" else array.tobytes())
    with pytest.raises(ValueError, match=re.escape(
        f"{path}: replay array 'reward' ends before its {size} rows"
    )):
        FederatedTrainer.load(tmp_path / "ckpt", small_env(seed=1))


def test_load_reads_every_replay_row_so_the_archive_checks_it(tmp_path):
    """Every array is read to its end, so damage to its last byte fails the
    archive's CRC check, naming `replay.npz`."""
    trainer = FederatedTrainer(small_env(seed=8), small_cfg(episodes=2), seed=5)
    trainer.run()
    path = tmp_path / "ckpt" / "replay.npz"
    for member in ("obs.npy", "side.npy", "pending.npy", "done.npy", "next.npy", "meta.npy"):
        trainer.save(tmp_path / "ckpt")
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo(member)
        data = bytearray(path.read_bytes())
        # The member's data follows its 30-byte local header, name and extra field.
        name_len, extra_len = struct.unpack_from("<HH", data, info.header_offset + 26)
        end = info.header_offset + 30 + name_len + extra_len + info.file_size
        data[end - 1] ^= 1  # a byte of the array's last row
        path.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(f"{path}: Bad CRC-32 for file '{member}'")):
            FederatedTrainer.load(tmp_path / "ckpt", small_env(seed=1))


def test_load_checks_only_the_filled_replay_rows(tmp_path):
    """What a format-1 column holds past the filled rows is dropped by the
    upgrade, so it is not rejected."""
    trainer = FederatedTrainer(small_env(seed=8), small_cfg(episodes=2), seed=5)
    trainer.run()
    trainer.save(tmp_path / "ckpt")
    arrays = all_rows(columns(trainer.buffer.state_arrays()))
    for name, value in (("act_lead", -5), ("reward", np.nan), ("done", 0.5)):
        arrays[name][-1] = value
    as_format_1(tmp_path / "ckpt", arrays)
    assert upgrade_checkpoint.main([str(tmp_path / "ckpt")]) == 0
    loaded = FederatedTrainer.load(tmp_path / "ckpt", small_env(seed=1))
    assert len(loaded.buffer) == len(trainer.buffer) < trainer.buffer.capacity
    assert same_arrays(loaded.buffer.state_arrays(), trainer.buffer.state_arrays())


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
from fedassoc.harness import blas_threads
from fedassoc.nn import net_fingerprint
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
