"""Slow reference implementations used as oracles in tests.

Everything in this module is deliberately recursive and unvectorized so
that it can be checked by eye. Production code must agree with these on
small models; disagreement means the fast path is wrong, not this one.
"""

import itertools
import math

import numpy as np

from mbdp import PolicyTree


def tree_value(model, trees, state):
    """Expected return of per-agent trees executed from a concrete state."""
    ja = model.joint_action_index(tuple(t.action for t in trees))
    total = 0.0
    for nxt in range(model.num_states):
        p = float(model.transition[ja, state, nxt])
        if p == 0.0:
            continue
        total += p * float(model.reward[ja, state, nxt])
        if trees[0].depth == 1:
            continue
        for jo in range(model.num_joint_observations):
            q = float(model.observation[ja, nxt, jo])
            if q == 0.0:
                continue
            obs = model.joint_observation(jo)
            kids = tuple(t.child(o) for t, o in zip(trees, obs))
            total += p * q * tree_value(model, kids, nxt)
    return total


def belief_value(model, trees, belief):
    probs = belief.probs if hasattr(belief, "probs") else np.asarray(belief, dtype=float)
    return float(
        sum(p * tree_value(model, trees, s) for s, p in enumerate(probs) if p > 0.0)
    )


def table_trees(cands, below=()):
    """One PolicyTree per row of each agent's candidate table.

    ``below[i]`` holds the trees of agent i's previous selected list,
    which the children entries index; holes (-1) become None branches.
    """
    return tuple(
        tuple(
            PolicyTree(a, tuple(None if c < 0 else below[i][c] for c in kids))
            for a, kids in zip(actions.tolist(), children.tolist())
        )
        for i, (actions, children) in enumerate(zip(cands.actions, cands.children))
    )


def all_trees(model, agent, depth):
    """Every depth-`depth` policy tree for one agent. Exponential; tiny inputs only."""
    if depth == 1:
        return [PolicyTree(a) for a in range(model.action_counts[agent])]
    subs = all_trees(model, agent, depth - 1)
    out = []
    for a in range(model.action_counts[agent]):
        for kids in itertools.product(subs, repeat=model.observation_counts[agent]):
            out.append(PolicyTree(a, kids))
    return out


def brute_force_value(model, horizon):
    """Optimal joint value by enumerating every joint policy of the horizon."""
    per_agent = [all_trees(model, i, horizon) for i in range(model.num_agents)]
    best = -math.inf
    for combo in itertools.product(*per_agent):
        best = max(best, belief_value(model, combo, model.initial_belief))
    return best


def value_iteration(transition, reward, steps):
    """Tabular finite-horizon MDP value iteration, plain loops.

    `transition` is (A, S, S'), `reward` is (A, S, S'). Returns the list of
    value vectors V[0..steps] where V[k] is the k-steps-to-go value.
    """
    num_a, num_s, _ = transition.shape
    values = [np.zeros(num_s)]
    for _ in range(steps):
        prev = values[-1]
        cur = np.empty(num_s)
        for s in range(num_s):
            best = -math.inf
            for a in range(num_a):
                q = 0.0
                for nxt in range(num_s):
                    q += transition[a, s, nxt] * (reward[a, s, nxt] + prev[nxt])
                best = max(best, q)
            cur[s] = best
        values.append(cur)
    return values
