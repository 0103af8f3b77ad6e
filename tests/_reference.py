"""Slow reference implementations used as oracles in tests.

Everything in this module is deliberately recursive and unvectorized so
that it can be checked by eye, except ``simulate_reference``, which
compares every draw with its whole cumulative row,
``value_vector_reference``, the evaluator's earlier top-down design, and
``best_tuple_frozen`` and ``pick_frozen``, the planner's pick rule as it
was written before its per-call costs were trimmed.
Production code must agree with these on
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
    CompiledPolicy,
    ConfigError,
    EpsilonReport,
    EpsilonWitness,
    EvaluationError,
    JointPolicy,
    PolicyTree,
    exhaustive_backup,
    generate_belief,
    partial_backup,
    rank_observations,
)
from mbdp.policy import SimulationResult
from mbdp.solver import TIE_TOL


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


def materialize_reference(levels):
    """Shared policy trees for the rows selected at the top level.

    ``levels`` lists (candidates, selected) per depth, depth 1 first:
    ``selected[i]`` lists agent i's rows kept at that depth, and the
    children of the next depth's candidates index that list.  The top
    level selects one row per agent, the returned policy.  Only the rows
    the policy reaches become ``PolicyTree`` nodes, one node per table
    row, so a row that several parents reach is a shared node.
    """
    trees = []
    for i in range(len(levels[0][0].actions)):
        # table rows the root reaches at each depth, found top down
        reached = [None] * len(levels)
        reached[-1] = np.asarray(levels[-1][1][i])
        for d in range(len(levels) - 1, 0, -1):
            positions = levels[d][0].children[i][reached[d]]
            reached[d - 1] = np.unique(np.asarray(levels[d - 1][1][i])[positions])
        nodes = {}
        for d, (cands, _) in enumerate(levels):
            # nodes of the selected list the children index
            below = [nodes.get(r) for r in levels[d - 1][1][i]] if d else []
            nodes = {
                r: PolicyTree(
                    cands.actions[i][r], tuple(below[c] for c in cands.children[i][r].tolist())
                )
                for r in reached[d].tolist()
            }
        trees.append(nodes[levels[-1][1][i][0]])
    return JointPolicy(tuple(trees))


def random_tree_reference(model, agent, depth, rng, node_cap, level_width):
    """One agent's uniformly random policy tree, drawing from ``rng`` as the baseline does.

    While the product over all agents of their deepest full level,
    prod_i |O_i|^(depth - 1), is at most ``node_cap``, the whole tree is
    drawn, one action per node in pre-order; beyond that each level
    holds at most ``level_width`` nodes, each drawing its action and then
    one child per observation from the level below.
    """
    num_obs = model.observation_counts[agent]
    num_act = model.action_counts[agent]
    if math.prod(n ** (depth - 1) for n in model.observation_counts) <= node_cap:
        # actions are drawn in pre-order; nodes are built in reverse, each
        # taking its children off the stack
        depths, pending = [], [depth]
        while pending:
            d = pending.pop()
            depths.append(d)
            pending.extend([d - 1] * (num_obs if d > 1 else 0))
        actions = [int(rng.integers(num_act)) for _ in depths]
        built = []
        for d, a in zip(reversed(depths), reversed(actions)):
            built.append(PolicyTree(a, tuple(built.pop() for _ in range(num_obs)) if d > 1 else ()))
        return built[0]
    # wide levels share sampled nodes; any single path is still uniform
    below = [PolicyTree(int(rng.integers(num_act))) for _ in range(min(num_obs ** (depth - 1), level_width))]
    for k in range(depth - 2, -1, -1):
        width = int(min(num_obs**k, level_width))
        below = [
            PolicyTree(
                int(rng.integers(num_act)),
                tuple(below[int(rng.integers(len(below)))] for _ in range(num_obs)),
            )
            for _ in range(width)
        ]
    return below[0]


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


def subset_families_reference(model, max_obs):
    """(per-agent subsets, kept joint observations) of every family, in itertools order."""
    per_agent = [
        list(itertools.combinations(range(c), min(max_obs, c))) for c in model.observation_counts
    ]
    return [
        (combo, [model.joint_observation_index(jo) for jo in itertools.product(*combo)])
        for combo in itertools.product(*per_agent)
    ]


def rank_observations_reference(model, belief, action, max_obs):
    """(subsets, mass) of the family keeping the most mass at (belief, action), the first on ties."""
    q = model.observation_probabilities(belief, action)
    best = None
    for combo, flat in subset_families_reference(model, max_obs):
        mass = float(q[flat].sum())
        if best is None or mass > best[1]:
            best = (combo, mass)
    return best


def epsilon_global_reference(model, max_obs, max_beliefs=500_000):
    """Exact-mode ``epsilon_global``, one child belief at a time.

    Every (belief, joint action, joint observation) child is built on its
    own, kept in one list with a link to its parent, and deduplicated by
    the bytes of its row rounded to 12 decimals against every belief of
    this and all shallower depths, so a belief is scored and expanded
    only where it first appears. The capture masses are the same numpy
    sums the package makes, so reports agree bit for bit.
    """
    horizon = model.horizon
    families = subset_families_reference(model, max_obs)
    # entries: (belief row, parent entry or None, (ja, jo) that led here)
    entries = [(model.initial_belief.probs, None, None)]
    best, best_where = math.inf, None
    checked = 0
    level = [0]
    seen = {np.round(model.initial_belief.probs, 12).tobytes()}
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


def epsilon_global_array_reference(model, max_obs, max_beliefs=500_000):
    """Exact-mode ``epsilon_global`` with each depth built as whole arrays.

    Per depth and joint action it scores every row at every family,
    builds all children of the depth at once, and deduplicates them
    against one set of rounded row bytes that spans all depths; the
    witness history is walked back through per-depth (parent row, ja,
    jo) arrays.  It is fast enough for box pushing h=8, where
    ``epsilon_global_reference`` is not.
    """
    return belief_keys_array_reference(model, max_obs, False, max_beliefs)[0]


def belief_keys_array_reference(model, max_obs, per_depth, max_beliefs=500_000):
    """The array enumeration's report and the rounded row bytes of every row it scored.

    With ``per_depth`` false this is ``epsilon_global_array_reference``.
    With ``per_depth`` true each depth deduplicates its children only
    among themselves, so a belief met again at a deeper depth is scored
    and expanded again there: a second enumeration of the same beliefs.
    """
    horizon = model.horizon
    per_agent = [
        list(itertools.combinations(range(c), min(max_obs, c))) for c in model.observation_counts
    ]
    combos = list(itertools.product(*per_agent))
    flat = [[model.joint_observation_index(jo) for jo in itertools.product(*c)] for c in combos]
    obs_t = np.ascontiguousarray(model.observation.transpose(0, 2, 1))
    rows = model.initial_belief.probs[None, :]
    links = []  # per depth after the first: (parent row, ja, jo) arrays
    checked, best = 0, math.inf
    visited = set()
    seen = {np.round(rows[0], 12).tobytes()}
    for depth in range(horizon):
        checked += len(rows)
        if checked > max_beliefs:
            raise CapacityError(f"more than {max_beliefs} beliefs")
        visited.update(row.tobytes() for row in np.round(rows, 12))
        if per_depth:
            seen = set()
        blocks = []
        for ja in range(model.num_joint_actions):
            post = rows @ model.transition[ja]
            q = post @ model.observation[ja]
            captures = np.stack([q[:, family].sum(axis=1) for family in flat])
            eps_rows = captures.max(axis=0)
            r = int(eps_rows.argmin())
            if eps_rows[r] < best:
                best = float(eps_rows[r])
                best_where = (depth, r, ja, int(captures[:, r].argmax()))
                best_belief = rows[r].copy()
            if depth == horizon - 1:
                continue
            parent, jo = np.nonzero(q > PROB_TOL / 2)
            prods = post[parent] * obs_t[ja][jo]
            mass = prods[:, 0].copy()
            for column in prods.T[1:]:
                mass += column
            live = np.flatnonzero(mass > PROB_TOL)
            children = prods[live] / mass[live, None]
            keys = np.round(children, 12)
            fresh = []
            for i, key in enumerate(keys.view(f"V{keys.shape[1] * 8}").ravel().tolist()):
                if key not in seen:
                    seen.add(key)
                    fresh.append(i)
            kept = live[fresh]
            blocks.append((children[fresh], parent[kept], np.full(len(kept), ja), jo[kept]))
        if not sum(len(block[0]) for block in blocks):  # no new belief
            break
        rows, *link = (np.concatenate(part) for part in zip(*blocks))
        links.append(link)
    depth, r, ja, fam = best_where
    history = []
    for parent, jas, jos in reversed(links[:depth]):
        history.append((int(jas[r]), int(jos[r])))
        r = int(parent[r])
    witness = EpsilonWitness(tuple(history[::-1]), ja, tuple(best_belief.tolist()), combos[fam])
    return EpsilonReport(best, "exact", max_obs, horizon, checked, witness), visited


def value_vector_reference(model, joint):
    """``PolicyEvaluator.value_vector`` over the joint row tuples found top down.

    Top down, the distinct tuples each depth reaches are found by
    ``np.unique`` on one int64 code per tuple, renumbered densely before
    the code would overflow; bottom up, each reached tuple is valued by
    the same per-joint-action formula as the package.  The package must
    agree bit for bit.
    """
    policy = CompiledPolicy(model, joint)
    limit = np.iinfo(np.int64).max
    local = np.array(model._joint_obs_tuples, dtype=np.int64).T
    # rows[d][i]: agent i's row in each tuple depth d reaches;
    # below[d][k, jo]: the depth-d+1 tuple that tuple k moves to on jo
    rows = [[np.zeros(1, dtype=np.int64)] * model.num_agents]
    below = []
    for d in range(policy.depth - 1):
        kids = [table[d][r][:, o].ravel() for table, r, o in zip(policy.children, rows[d], local)]
        code = np.zeros(len(kids[0]), dtype=np.int64)
        for kid, acts in zip(kids, policy.actions):
            size = len(acts[d + 1])
            if code.max() >= limit // size:
                code = np.unique(code, return_inverse=True)[1]
            code = code * size + kid
        _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        rows.append([kid[first] for kid in kids])
        below.append(inverse.reshape(len(rows[d][0]), -1))
    values = None
    for d in range(policy.depth - 1, -1, -1):
        ja = sum(a[d][r] * stride for a, r, stride in zip(policy.actions, rows[d], model._action_strides))
        level = model.expected_reward[ja]
        if values is not None:
            for a in np.unique(ja):
                sel = np.flatnonzero(ja == a)
                weighted = (values[below[d][sel]] * model.observation[a].T).sum(axis=1)
                level[sel] += weighted @ model.transition[a].T
        values = level
    return values[0]


def weighted_children(model, prev_flat, ja, jo):
    """Child tuples' values, one per row of ``prev_flat``, weighted by one step's mass."""
    return (prev_flat * model.observation[ja][:, jo][None, :]) @ model.transition[ja].T


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
    by_action = [
        [np.flatnonzero(acts == a) for a in range(count)]
        for acts, count in zip(candidates.actions, model.action_counts)
    ]
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


def fill_tables(model, values, belief, config_actions):
    """``fill_missing``'s G[jo, c_0, ..., c_{n-1}] for one configuration's joint action.

    Child tuple values weighted by one step's mass at ``belief``.
    """
    b = belief.probs
    ja = model.joint_action_index(tuple(int(a) for a in config_actions))
    u = (model.observation[ja] * (b @ model.transition[ja])[:, None]).T
    flat_values = values.reshape(-1, model.num_states)
    return (flat_values @ u.T).T.reshape((model.num_joint_observations,) + values.shape[:-1])


def hole_shares(model, g, config_rows, agent, obs):
    """Agent ``agent``'s share per donor row after its observation ``obs``, by scalar loops.

    ``config_rows`` holds one child row per (agent, observation) of a
    configuration; the other agents' rows are read from it.  Each share
    adds, in joint-observation order, G at the joint observations whose
    ``agent`` component is ``obs``.
    """
    shares = []
    for r in range(g.shape[1 + agent]):
        share = 0.0
        for jo, local in enumerate(model._joint_obs_tuples):
            if local[agent] != obs:
                continue
            kids = tuple(
                r if j == agent else int(config_rows[j][o]) for j, o in enumerate(local)
            )
            share += float(g[(jo,) + kids])
        shares.append(share)
    return shares


def fill_missing_reference(model, partials, values, belief):
    """``fill_missing`` one configuration, hole and donor row at a time.

    Configuration c is row c of every table, shorter tables wrapping,
    and assigns the holes of the rows it is the first to use.  Holes
    start at donor 0.  In rounds, each agent in turn moves each of its
    holes to the lowest donor row whose share is within the tie floor of
    the best share, unless the incumbent's share is; rounds stop when
    one moves nothing.  The package must agree bit for bit.
    """
    n = model.num_agents
    missing = [[np.flatnonzero(row < 0).tolist() for row in kids] for kids in partials.children]
    if not any(slots for per_agent in missing for slots in per_agent):
        return partials
    rows = [np.maximum(kids, 0) for kids in partials.children]
    sizes = partials.sizes
    for c in range(max(sizes)):
        idx = tuple(c % sizes[i] for i in range(n))
        owned = [missing[i][idx[i]] if c < sizes[i] else [] for i in range(n)]
        if not any(owned):
            continue
        g = fill_tables(model, values, belief, [partials.actions[i][idx[i]] for i in range(n)])
        config_rows = [rows[i][idx[i]] for i in range(n)]
        moved = True
        while moved:
            moved = False
            for d in range(n):
                for o in owned[d]:
                    shares = hole_shares(model, g, config_rows, d, o)
                    best = max(shares)
                    floor = best - TIE_TOL * max(1.0, abs(best))
                    if shares[config_rows[d][o]] >= floor:
                        continue
                    config_rows[d][o] = next(r for r, share in enumerate(shares) if share >= floor)
                    moved = True
    return CandidateSet(partials.actions, tuple(rows))


def best_tuple_frozen(scores, exclude=None):
    """The planner's ``_best_tuple``, frozen: a numpy tie floor, fancy masks and ``np.unravel_index``."""
    if exclude is not None:
        for i, rows in enumerate(exclude):
            scores[(slice(None),) * i + (rows,)] = -np.inf
    flat = scores.reshape(-1)
    best = float(flat.max())
    floor = best - TIE_TOL * np.maximum(1.0, np.abs(best))
    pick = int(np.argmax(flat >= floor))
    return tuple(int(k) for k in np.unravel_index(pick, scores.shape)), float(flat[pick])


def pick_frozen(scores):
    """The planner's ``_pick``, frozen: each column's best tuple of rows no earlier pick uses."""
    picked = [[] for _ in scores.shape[1:]]
    values = []
    for column in scores:
        idx, val = best_tuple_frozen(column, exclude=picked)
        for rows, r in zip(picked, idx):
            rows.append(r)
        values.append(val)
    return picked, values


def best_tuple_reference(tensor, belief, exclude=None):
    """``best_tuple_frozen`` of a whole value tensor's scores, ``tensor @ belief``."""
    scores = tensor.reshape(-1, tensor.shape[-1]) @ belief
    return best_tuple_frozen(scores.reshape(tensor.shape[:-1]), exclude)


def solve_round_reference(model, cfg, rng, portfolio):
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
    full_backups = cfg.max_obs is None or all(
        cfg.max_obs >= count for count in model.observation_counts
    )
    for t in range(1, model.horizon):
        picked = [[] for _ in range(n)]
        for k in range(cfg.max_trees):
            # every pick's walk is drawn, though a table that runs out of
            # rows ends the picks
            traj = generate_belief(portfolio[k % len(portfolio)], model, model.horizon - t, rng)
            if k == 0:
                first = traj
            if any(len(rows) >= size for rows, size in zip(picked, q.sizes)):
                continue
            idx, _ = best_tuple_reference(tensor, traj.probs[-1], exclude=picked)
            for i in range(n):
                picked[i].append(idx[i])
        tables.append((q, picked))
        prev = tensor[np.ix_(*picked)]
        donors = prev.shape[:-1]
        if full_backups:
            q = exhaustive_backup(model, donors, cfg.backup_cap)
        else:
            # observations are ranked at pick 0's trajectory
            b_prev = BeliefState(first.probs[-2])
            selection = rank_observations(model, b_prev, first.actions[-1], cfg.max_obs)
            sparse = partial_backup(model, donors, selection, cfg.backup_cap)
            q = fill_missing_reference(model, sparse, prev, b_prev)
        tensor = backup_values_reference(model, q, prev)
    b0 = model.initial_belief.probs
    idx, _ = best_tuple_reference(tensor, b0)
    tables.append((q, [[r] for r in idx]))
    # the winner's value vector at the initial belief
    return float(tensor[idx] @ b0), materialize_reference(tables)


# floats per block of gathered rows in simulate's sampling (2 MB)
_SIM_BLOCK_ELEMENTS = 1 << 18


def _sample_rows(cumulative: np.ndarray, index: tuple[np.ndarray, ...], draws) -> np.ndarray:
    """Row-wise categorical draws, one per episode.

    ``cumulative`` holds cumulative distributions along its last axis;
    episode e compares ``draws[e]`` against row ``cumulative[index][e]``.
    Rows are gathered and compared a block of episodes at a time, so no
    (episodes, K) array is ever built whole; each row's result does not
    depend on the block it falls in.
    """
    out = np.empty(len(draws), dtype=np.int64)
    last = cumulative.shape[-1] - 1
    block = max(1, _SIM_BLOCK_ELEMENTS // cumulative.shape[-1])
    for lo in range(0, len(draws), block):
        part = slice(lo, lo + block)
        rows = cumulative[tuple(k[part] for k in index)]
        out[part] = np.minimum((draws[part, None] > rows).sum(axis=1), last)
    return out


def simulate_reference(model, joint, episodes: int, seed: int) -> SimulationResult:
    """Monte Carlo estimate of a joint policy's value from the initial belief.

    Vectorized over episodes, with each step's categorical draws made in
    blocks of episodes to bound memory; a fixed seed reproduces results
    bit-for-bit because all draws happen in a fixed order on a single
    generator.
    """
    model.require_valid()
    if episodes < 1:
        raise EvaluationError("episodes must be >= 1")
    compiled = CompiledPolicy(model, joint)
    horizon = compiled.depth
    rng = np.random.default_rng(seed)
    n = int(episodes)

    # cumulative sums along each row, taken once; summing a gathered
    # copy of a row gives the same bits
    start = np.cumsum(model.initial_belief.probs)[None, :]
    transition = np.cumsum(model.transition, axis=2)
    observation = np.cumsum(model.observation, axis=2)

    state = _sample_rows(start, (np.zeros(n, dtype=np.int64),), rng.random(n))
    rows = [np.zeros(n, dtype=np.int64) for _ in range(model.num_agents)]
    total = np.zeros(n)
    action_strides = model._action_strides
    obs_strides = model._obs_strides
    for t in range(horizon):
        ja = np.zeros(n, dtype=np.int64)
        for i in range(model.num_agents):
            ja += compiled.actions[i][t][rows[i]] * action_strides[i]
        nxt = _sample_rows(transition, (ja, state), rng.random(n))
        total += model.reward[ja, state, nxt]
        if t < horizon - 1:
            jo = _sample_rows(observation, (ja, nxt), rng.random(n))
            for i in range(model.num_agents):
                local = (jo // obs_strides[i]) % model.observation_counts[i]
                rows[i] = compiled.children[i][t][rows[i], local]
        state = nxt
    mean = float(total.mean())
    std_error = float(total.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return SimulationResult(mean=mean, std_error=std_error, episodes=n)
