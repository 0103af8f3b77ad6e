"""Slow reference implementations used as oracles in tests.

Everything in this module is deliberately recursive and unvectorized so
that it can be checked by eye. Production code must agree with these on
small models; disagreement means the fast path is wrong, not this one.
"""

import itertools
import math

import numpy as np

from mbdp import PROB_TOL, CapacityError, EpsilonReport, EpsilonWitness, PolicyTree


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


def epsilon_global_reference(model, max_obs, horizon=None, max_beliefs=500_000):
    """Exact-mode ``epsilon_global``, one child belief at a time.

    Every (belief, joint action, joint observation) child is built on its
    own, kept in one list with a link to its parent, and deduplicated by
    the bytes of its row rounded to 12 decimals. The capture masses are
    the same numpy sums the package makes, so reports agree bit for bit.
    """
    horizon = model.horizon if horizon is None else horizon
    per_agent = [
        list(itertools.combinations(range(c), min(max_obs, c))) for c in model.observation_counts
    ]
    families = [
        (combo, [model.joint_observation_index(jo) for jo in itertools.product(*combo)])
        for combo in itertools.product(*per_agent)
    ]
    # entries: (belief row, parent entry or None, (ja, jo) that led here)
    entries = [(model.initial_belief.probs, None, None)]
    best, best_where = math.inf, None
    checked = 0
    level = [0]
    for depth in range(horizon):
        rows = np.stack([entries[i][0] for i in level])
        checked += len(level)
        if checked > max_beliefs:
            raise CapacityError(f"more than {max_beliefs} beliefs")
        next_level = []
        for ja in range(model.num_joint_actions):
            post = rows @ model.transition[ja]
            q = post @ model.observation[ja]
            captures = np.stack([q[:, flat].sum(axis=1) for _, flat in families])
            fam = captures.argmax(axis=0)
            eps_rows = captures.max(axis=0)
            r = int(eps_rows.argmin())
            if eps_rows[r] < best:
                best = float(eps_rows[r])
                best_where = (level[r], ja, int(fam[r]))
            if depth == horizon - 1:
                continue
            numer = post[:, :, None] * model.observation[ja][None, :, :]
            mass = numer.sum(axis=1)
            for r_i in range(len(level)):
                for jo in range(model.num_joint_observations):
                    m = mass[r_i, jo]
                    if m <= PROB_TOL:
                        continue
                    entries.append((numer[r_i, :, jo] / m, level[r_i], (ja, jo)))
                    next_level.append(len(entries) - 1)
        seen = set()
        level = []
        for idx in next_level:
            key = np.round(entries[idx][0], 12).tobytes()
            if key not in seen:
                seen.add(key)
                level.append(idx)
        if not level:
            break
    entry, ja, fam = best_where
    history = []
    cursor = entry
    while entries[cursor][1] is not None:
        history.append(entries[cursor][2])
        cursor = entries[cursor][1]
    witness = EpsilonWitness(
        history=tuple(reversed(history)),
        action=ja,
        belief=tuple(float(x) for x in entries[entry][0]),
        subsets=families[fam][0],
    )
    return EpsilonReport(best, "exact", max_obs, horizon, checked, witness)
