"""Slow reference implementations used as oracles in tests.

Everything in this module is deliberately recursive and unvectorized so
that it can be checked by eye. Production code must agree with these on
small models; disagreement means the fast path is wrong, not this one.
"""

import itertools
import math

import numpy as np

from mbdp import (
    PROB_TOL,
    BeliefState,
    CandidateSet,
    CapacityError,
    ConfigError,
    EpsilonReport,
    EpsilonWitness,
    PolicyTree,
    exhaustive_backup,
    generate_belief,
    partial_backup,
    rank_observations,
)
from mbdp.backup import weighted_children
from mbdp.solver import _best_tuple, _materialize


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


def backup_values_reference(model, candidates, prev):
    """``backup_values`` one (joint action, joint observation) block at a time.

    Each block starts from the joint action's expected reward and adds,
    per joint observation in order, the weighted children indexed by the
    candidates' child rows with ``np.ix_``; the package must agree bit
    for bit.
    """
    n = model.num_agents
    num_s = model.num_states
    er = model.expected_reward
    children = candidates.children
    if prev is not None and any((kids < 0).any() for kids in children):
        raise ConfigError("candidate table has unassigned branches; fill them first")
    out = np.empty(candidates.sizes + (num_s,))
    prev_flat = None if prev is None else prev.reshape(-1, num_s)
    by_action = candidates.rows_by_action(model)
    for ja, ja_tuple in enumerate(itertools.product(*(range(c) for c in model.action_counts))):
        rows = [by_action[i][a] for i, a in enumerate(ja_tuple)]
        if any(r.size == 0 for r in rows):
            continue
        block = np.broadcast_to(er[ja], tuple(r.size for r in rows) + (num_s,)).copy()
        if prev is not None:
            for jo, local in enumerate(model._joint_obs_tuples):
                block += weighted_children(model, prev_flat, ja, jo).reshape(prev.shape)[
                    np.ix_(*(children[i][rows[i], local[i]] for i in range(n)))
                ]
        out[np.ix_(*rows)] = block
    return out


def fill_missing_reference(model, partials, values, belief):
    """``fill_missing`` scoring one donor row at a time.

    Same sweep order, strict-improvement rule and per-configuration sums
    as the package, which must agree bit for bit.
    """
    n = model.num_agents
    num_donors = values.shape[:-1]
    missing = [[np.flatnonzero(row < 0).tolist() for row in kids] for kids in partials.children]
    if not any(slots for per_agent in missing for slots in per_agent):
        return partials
    rows = [np.maximum(kids, 0) for kids in partials.children]
    b = belief.probs
    er = model.expected_reward
    flat_values = values.reshape(-1, model.num_states)
    num_jo = model.num_joint_observations
    local = np.array(model._joint_obs_tuples, dtype=np.int64).T
    jo_index = np.arange(num_jo)

    def table(ja):
        post = b @ model.transition[ja]
        u = (model.observation[ja] * post[:, None]).T
        return float(b @ er[ja]), (flat_values @ u.T).T.reshape((num_jo,) + num_donors)

    def config_value(base, g, config_rows):
        kids = tuple(r[local[i]] for i, r in enumerate(config_rows))
        return base + float(g[(jo_index,) + kids].sum())

    sizes = partials.sizes
    for c in range(max(sizes)):
        idx = tuple(c % sizes[i] for i in range(n))
        owned = [(i, o) for i in range(n) if c < sizes[i] for o in missing[i][idx[i]]]
        if not owned:
            continue
        base, g = table(
            model.joint_action_index(tuple(int(partials.actions[i][idx[i]]) for i in range(n)))
        )
        config_rows = [rows[i][idx[i]] for i in range(n)]
        current = config_value(base, g, config_rows)
        improved = True
        while improved:
            improved = False
            for i, o in owned:
                slot_rows = config_rows[i]
                incumbent = slot_rows[o]
                best, best_row = current, incumbent
                for r in range(num_donors[i]):
                    if r == incumbent:
                        continue
                    slot_rows[o] = r
                    value = config_value(base, g, config_rows)
                    if value > best:
                        best, best_row = value, r
                slot_rows[o] = best_row
                if best > current:
                    current = best
                    improved = True
    return CandidateSet(partials.actions, tuple(rows))


def solve_round_reference(model, cfg, rng, portfolio, force_full):
    """One planner round with a fresh trajectory per level and pick.

    Every level and pick runs ``generate_belief`` for horizon - t steps,
    rebuilds its full backup, and values and fills candidates with the
    reference kernels above.  Returns (value, policy); the package's
    round must give the same bits.
    """
    n = model.num_agents
    q = exhaustive_backup(model, None)
    tensor = backup_values_reference(model, q, None)
    tables = []
    full_backups = force_full or cfg.max_obs is None or all(
        cfg.max_obs >= count for count in model.observation_counts
    )
    for t in range(1, model.horizon):
        picked = [[] for _ in range(n)]
        for k in range(cfg.max_trees):
            traj = generate_belief(portfolio[k % len(portfolio)], model, model.horizon - t, rng)
            if any(len(rows) >= size for rows, size in zip(picked, q.sizes)):
                idx, _ = _best_tuple(tensor[np.ix_(*picked)], traj.probs[-1])
                for i in range(n):
                    picked[i].append(picked[i][idx[i]])
            else:
                idx, _ = _best_tuple(tensor, traj.probs[-1], exclude=picked)
                for i in range(n):
                    picked[i].append(idx[i])
        tables.append((q, picked))
        prev = tensor[np.ix_(*picked)]
        donors = prev.shape[:-1]
        if full_backups:
            q = exhaustive_backup(model, donors, cfg.backup_cap)
        else:
            b_prev = BeliefState(traj.probs[-2])
            selection = rank_observations(model, b_prev, traj.actions[-1], cfg.max_obs)
            if selection.is_full(model):
                q = exhaustive_backup(model, donors, cfg.backup_cap)
            else:
                sparse = partial_backup(model, donors, selection, cfg.backup_cap)
                q = fill_missing_reference(model, sparse, prev, b_prev)
        tensor = backup_values_reference(model, q, prev)
    idx, value = _best_tuple(tensor, model.initial_belief.probs)
    tables.append((q, [[r] for r in idx]))
    return value, _materialize(tables)
