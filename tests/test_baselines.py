"""Double-DQN target, weight averaging and the three comparison trainers."""

import numpy as np
import pytest

from fedassoc.baselines import (
    CentralizedTrainer,
    FedAvgTrainer,
    IndependentTrainer,
    ddqn_target,
    fedavg,
)
from fedassoc.agents import TrainerConfig
from fedassoc.replay import Batch
from fedassoc.env import EdgeAssocEnv, EnvConfig
from fedassoc.nn import (
    GATHER_MIN_OUTPUTS,
    backward,
    clip_global_norm,
    clone,
    forward,
    init_net,
    net_fingerprint,
    sgd_apply,
    zero_grads,
)
from toy_env import ToyEnv, separable_table, toy_trainer_cfg


def constant_net(outputs):
    """Zero-weight net whose output equals its final bias vector."""
    n = len(outputs)
    net = init_net((3, n), np.random.default_rng(0))
    net.weights[0][...] = 0.0
    net.biases[0][...] = np.asarray(outputs, dtype=float)
    return net


# -- DDQN target ------------------------------------------------------------

def test_ddqn_target_zero_discount():
    main = constant_net([0.0, 1.0, 0.0])
    target = constant_net([5.0, 5.0, 5.0])
    r = np.array([2.0, -1.0])
    obs = np.zeros((2, 3))
    y = ddqn_target(r, obs, main, target, 0.0, np.zeros(2))
    assert np.array_equal(y, r)


def test_ddqn_target_hand_example():
    # Main argmax lands on index 2; the target net holds 1.5 there.
    main = constant_net([0.0, 0.3, 0.9, 0.1])
    target = constant_net([9.0, 9.0, 1.5, 9.0])
    y = ddqn_target(np.array([1.0]), np.zeros((1, 3)), main, target, 0.9, np.zeros(1))
    assert y[0] == pytest.approx(2.35, abs=1e-12)


def test_ddqn_collapses_to_plain_max_when_nets_equal():
    rng = np.random.default_rng(3)
    net = init_net((3, 6), rng)
    obs = rng.random((5, 3))
    r = rng.random(5)
    y = ddqn_target(r, obs, net, net, 0.9, np.zeros(5))
    q, _ = forward(net, obs)
    assert np.allclose(y, r + 0.9 * q.max(axis=1))


def test_ddqn_terminal_cutoff_and_mismatch():
    main = constant_net([0.0, 1.0])
    y = ddqn_target(np.array([3.0]), np.zeros((1, 3)), main, clone(main), 0.9, np.ones(1))
    assert y[0] == 3.0
    with pytest.raises(ValueError):
        ddqn_target(np.zeros(1), np.zeros((1, 3)), main, init_net((3, 4), np.random.default_rng(0)), 0.9, np.zeros(1))


# -- federated averaging ---------------------------------------------------------

def test_fedavg_identity_on_identical_inputs():
    net = init_net((4, 5, 2), np.random.default_rng(7))
    # Two-net mean is exact (sums and halving round nowhere).
    avg = fedavg([net, clone(net)])
    assert net_fingerprint(avg) == net_fingerprint(net)
    avg3 = fedavg([net, clone(net), clone(net)])
    for got, want in zip(avg3.weights, net.weights):
        assert np.allclose(got, want, rtol=1e-15, atol=0.0)


def test_fedavg_simple_mean():
    a = constant_net([0.0, 0.0])
    b = constant_net([2.0, 2.0])
    avg = fedavg([a, b])
    assert np.array_equal(avg.biases[0], [1.0, 1.0])


def test_fedavg_matches_elementwise_oracle():
    rng = np.random.default_rng(11)
    nets = [init_net((5, 6, 3), rng) for _ in range(3)]
    avg = fedavg(nets)
    for li in range(2):
        manual_w = (nets[0].weights[li] + nets[1].weights[li] + nets[2].weights[li]) / 3.0
        manual_b = (nets[0].biases[li] + nets[1].biases[li] + nets[2].biases[li]) / 3.0
        assert np.allclose(avg.weights[li], manual_w, atol=1e-12)
        assert np.allclose(avg.biases[li], manual_b, atol=1e-12)


def test_fedavg_commutes_with_scaling():
    rng = np.random.default_rng(13)
    nets = [init_net((3, 4), rng) for _ in range(2)]
    scaled = []
    for n in nets:
        s = clone(n)
        for w in s.weights:
            w *= 2.5
        for b in s.biases:
            b *= 2.5
        scaled.append(s)
    avg_then_scale = fedavg(nets)
    for w in avg_then_scale.weights:
        w *= 2.5
    for b in avg_then_scale.biases:
        b *= 2.5
    scale_then_avg = fedavg(scaled)
    assert np.allclose(avg_then_scale.weights[0], scale_then_avg.weights[0], atol=1e-12)


def test_fedavg_rejects_mismatch():
    with pytest.raises(ValueError):
        fedavg([init_net((3, 4), np.random.default_rng(0)), init_net((3, 5), np.random.default_rng(0))])
    with pytest.raises(ValueError):
        fedavg([])


# -- trainers on the real environment ----------------------------------------------------

def small_cfg(**overrides):
    defaults = dict(
        episodes=3, batch_size=8, replay_capacity=64,
        local_hidden=(12,), mlp_hidden=(12,), target_sync=5,
    )
    defaults.update(overrides)
    return TrainerConfig(**defaults)


def small_env(seed=3):
    return EdgeAssocEnv(EnvConfig(horizon=5), seed=seed)


def test_centralized_architecture():
    trainer = CentralizedTrainer(small_env(), small_cfg(), seed=1)
    records = trainer.run()
    assert trainer.head.net.dims == (28, 12, 256)
    assert len(records) == 3


def test_centralized_deterministic():
    a = CentralizedTrainer(small_env(), small_cfg(), seed=2).run()
    b = CentralizedTrainer(small_env(), small_cfg(), seed=2).run()
    assert a == b


def test_centralized_splits_and_composes_joint_actions():
    trainer = CentralizedTrainer(small_env(), small_cfg(), seed=1)
    a = trainer.num_actions
    obs = trainer.env.reset()
    joint = int(np.argmax(trainer.head.values(np.concatenate(obs))))
    assert trainer.select_actions(obs, 0.0) == (joint // a, joint % a)
    # The replay holds each vehicle's own action; the update sees the joint one.
    seen = []
    trainer.head.update = lambda obs, actions, *rest: seen.append(actions)
    zeros = np.zeros((3, trainer.env.obs_dim))
    batch = Batch(
        obs_lead=zeros, act_lead=np.array([0, 3, a - 1]), reward=np.zeros(3),
        next_obs_lead=zeros, obs_follow=zeros, act_follow=np.array([1, 0, a - 1]),
        next_obs_follow=zeros, done=np.zeros(3),
    )
    trainer.update(batch, lr=0.01)
    assert list(seen[0]) == [1, 3 * a, a * a - 1]


def test_independent_architecture_and_determinism():
    trainer = IndependentTrainer(small_env(), small_cfg(), seed=3)
    records = trainer.run()
    assert [h.net.dims for h in trainer.heads] == [(14, 12, 16), (14, 12, 16)]
    assert len(records) == 3
    again = IndependentTrainer(small_env(), small_cfg(), seed=3).run()
    assert records == again


@pytest.mark.parametrize("algo", ["cdrl", "imarl"])
def test_baseline_gradient_buffers_are_made_at_the_first_update(algo):
    cls = CentralizedTrainer if algo == "cdrl" else IndependentTrainer
    trainer = cls(small_env(seed=4), small_cfg(), seed=5)
    trainer.evaluate(episodes=2)
    # Horizon 5 and batch 8: the first update comes in the second episode.
    trainer.run(episodes=1)
    assert trainer.grads == {}
    trainer.run(episodes=1)
    buffers = dict(trainer.grads)
    assert sorted(buffers) == (["head"] if algo == "cdrl" else ["follow", "lead"])
    for name, grads in buffers.items():
        assert grads.dims == trainer.nets[name].dims
    trainer.run(episodes=1)
    assert trainer.grads.keys() == buffers.keys()
    assert all(trainer.grads[name] is grads for name, grads in buffers.items())


@pytest.mark.parametrize("algo", ["cdrl", "imarl"])
def test_baseline_evaluation_is_greedy_and_does_not_learn(algo):
    cls = CentralizedTrainer if algo == "cdrl" else IndependentTrainer
    trainer = cls(small_env(seed=4), small_cfg(), seed=5)
    trainer.run()
    heads = [trainer.head] if algo == "cdrl" else trainer.heads
    before = [net_fingerprint(n) for h in heads for n in (h.net, h.target)]
    explore, steps = trainer.rng_explore.bit_generator.state, trainer.train_steps
    records = trainer.evaluate(episodes=2)
    assert [r.episode for r in records] == [1, 2]
    assert all(r.epsilon == 0.0 and r.lr == 0.0 for r in records)
    assert [net_fingerprint(n) for h in heads for n in (h.net, h.target)] == before
    assert trainer.rng_explore.bit_generator.state == explore
    assert trainer.train_steps == steps


def toy_imarl(width, **overrides) -> IndependentTrainer:
    """An imarl trainer whose two heads are (6, 8, width) nets drawn from its
    seed, each target a copy."""
    env = ToyEnv(np.zeros((width, width)), obs_dim=6)
    return IndependentTrainer(env, small_cfg(local_hidden=(8,), **overrides), seed=5)


def test_head_update_touches_only_its_own_net():
    rng = np.random.default_rng(5)
    trainer = toy_imarl(4)
    h0, h1 = trainer.heads
    fp1_net, fp1_target = net_fingerprint(h1.net), net_fingerprint(h1.target)
    fp0_target = net_fingerprint(h0.target)
    h0.update(rng.random((8, 6)), rng.integers(0, 4, 8), rng.random(8),
              rng.random((8, 6)), np.zeros(8), lr=0.01)
    assert net_fingerprint(h1.net) == fp1_net
    assert net_fingerprint(h1.target) == fp1_target
    assert net_fingerprint(h0.target) == fp0_target  # targets move only on sync_targets()
    assert list(trainer.grads) == ["lead"]


@pytest.mark.parametrize("grad_clip", [0.05, np.inf])
@pytest.mark.parametrize("width", [9, GATHER_MIN_OUTPUTS])
def test_head_update_matches_dense_reference(grad_clip, width):
    rng = np.random.default_rng(6)
    trainer = toy_imarl(width, grad_clip=grad_clip)
    head = trainer.heads[0]
    obs, next_obs = rng.random((8, 6)), rng.random((8, 6))
    actions = np.array([0, 4, 4, 8, 1, 4, 0, 2])  # repeated actions share rows
    rewards, done = rng.random(8), np.zeros(8)
    ref = clone(head.net)
    targets = ddqn_target(rewards, next_obs, ref, head.target, head.cfg.discount, done)
    q, cache = forward(ref, obs)
    rows = np.arange(8)
    d_q = np.zeros_like(q)
    d_q[rows, actions] = 2.0 * (q[rows, actions] - targets) / 8
    grads, _ = backward(ref, cache, d_q, grads=zero_grads(ref))
    clip_global_norm([grads], grad_clip)
    sgd_apply(ref, grads, 0.1)

    loss = head.update(obs, actions, rewards, next_obs, done, lr=0.1)
    assert loss == pytest.approx(np.mean((q[rows, actions] - targets) ** 2), rel=1e-12)
    for got, want in zip(head.net.weights + head.net.biases, ref.weights + ref.biases):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_fedavg_trainer_with_infinite_period_is_independent():
    # A period longer than the run never averages.
    cfg = small_cfg(fedavg_period=4)
    imarl = IndependentTrainer(small_env(seed=7), cfg, seed=4)
    fmarl = FedAvgTrainer(small_env(seed=7), cfg, seed=4)
    assert imarl.run() == fmarl.run()
    assert [net_fingerprint(h.net) for h in imarl.heads] == [
        net_fingerprint(h.net) for h in fmarl.heads
    ]


def test_agents_equal_right_after_averaging():
    trainer = FedAvgTrainer(small_env(seed=9), small_cfg(episodes=2, fedavg_period=1), seed=5)
    trainer.run()
    heads = trainer.heads
    assert net_fingerprint(heads[0].net) == net_fingerprint(heads[1].net)
    assert net_fingerprint(heads[0].target) == net_fingerprint(heads[1].target)
    # The averages are written into the nets in place: each head still holds
    # the store's own nets.
    for head in heads:
        assert head.net is trainer.nets[head.name]
        assert head.target is trainer.nets[f"{head.name}_target"]


def test_fedavg_trainer_deterministic_and_validates_period():
    a = FedAvgTrainer(small_env(seed=11), small_cfg(fedavg_period=2), seed=6).run()
    b = FedAvgTrainer(small_env(seed=11), small_cfg(fedavg_period=2), seed=6).run()
    assert a == b
    for bad in (0, -1):
        with pytest.raises(ValueError, match="fedavg_period must be >= 1"):
            FedAvgTrainer(small_env(), small_cfg(fedavg_period=bad), seed=6)


# -- toy convergence --------------------------------------------------------------------------

def test_toy_convergence_centralized():
    table = separable_table(4, seed=33)
    env = ToyEnv(table, obs_dim=4, seed=33)
    trainer = CentralizedTrainer(env, toy_trainer_cfg(), seed=41)
    trainer.run()
    assert trainer.select_actions(env.reset(), 0.0) == env.best_joint()


def test_toy_convergence_independent():
    table = separable_table(4, seed=35)
    env = ToyEnv(table, obs_dim=4, seed=35)
    trainer = IndependentTrainer(env, toy_trainer_cfg(), seed=43)
    trainer.run()
    assert trainer.select_actions(env.reset(), 0.0) == env.best_joint()
