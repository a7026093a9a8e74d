"""The two target rules `fedassoc.agents.bootstrap` replaced, as they were
written: the federated pair's plain max and the baselines' Double DQN.

Each takes the next-state Q-values already computed, one row per sample.
"""

import numpy as np


def plain_max_targets(reward, done, discount, joint):
    """`FederatedTrainer.compute_targets`' rule: the max of each row of `joint`."""
    best = joint.max(axis=1)
    return reward + discount * best * (1.0 - done)


def double_dqn_targets(reward, done, discount, q_main, q_target):
    """`baselines.ddqn_target`'s rule: `q_target` read at each row's argmax of `q_main`."""
    picks = q_main.argmax(axis=1)
    best = q_target[np.arange(len(picks)), picks]
    return np.asarray(reward, dtype=float) + discount * best * (1.0 - np.asarray(done, dtype=float))
