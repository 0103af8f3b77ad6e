"""Planners: memory-bounded joint policy search and an exact oracle.

The memory-bounded planner keeps at most ``max_trees`` policy trees per
agent per depth.  Each level it picks that many joint tree pairs, one
per heuristically sampled belief, backs the picks up by one step (fully,
or only for the likeliest observations with the remaining branches
filled greedily), and hands the result to the next level.  The exact
oracle enumerates all policy trees level by level, pruning dominated
ones, and is feasible only for short horizons.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .backup import (
    CandidateSet,
    backup_values,
    candidate_codes,
    exhaustive_backup,
    fill_missing,
    partial_backup,
    prune_value_tensor,
    rank_observations,
)
from .errors import CapacityError, ConfigError
from .heuristics import PolicyReplayHeuristic, build_portfolio, generate_belief
from .model import BeliefState, DecPomdp
from .policy import JointPolicy, PolicyEvaluator, PolicyTree


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the memory-bounded planner.

    ``max_obs`` = None keeps every observation branch (full backups).
    ``recursion_depth`` adds extra solve rounds that replay the best
    policy found so far as one more trajectory heuristic; the best round
    wins, so extra rounds never hurt.
    """

    max_trees: int = 3
    max_obs: int | None = None
    heuristics: tuple[str, ...] = ("mdp", "random")
    seed: int = 0
    recursion_depth: int = 0
    backup_cap: int = 1_000_000

    def __post_init__(self):
        if self.max_trees < 1:
            raise ConfigError("max_trees must be >= 1")
        if self.max_obs is not None and self.max_obs < 1:
            raise ConfigError("max_obs must be >= 1 or None")
        if self.recursion_depth < 0:
            raise ConfigError("recursion_depth must be >= 0")
        if not self.heuristics:
            raise ConfigError("heuristic portfolio is empty")
        object.__setattr__(self, "heuristics", tuple(self.heuristics))


@dataclass(frozen=True)
class LevelRecord:
    """What one planning level did: selection values and backup sizes."""

    tree_depth: int
    selection_values: tuple[float, ...]
    heuristic_names: tuple[str, ...]
    duplicated: int
    backup_sizes: tuple[int, ...]
    partial: bool
    millis: float


@dataclass(frozen=True)
class SolveReport:
    solver: str
    value: float
    policy: JointPolicy
    levels: tuple[LevelRecord, ...]
    round_values: tuple[float, ...]
    config: SolverConfig
    horizon: int
    millis: float


def _flat_to_tuple(flat: int, sizes) -> tuple[int, ...]:
    out = []
    for size in reversed(sizes):
        out.append(flat % size)
        flat //= size
    return tuple(reversed(out))


# scores this close to the best count as ties: the kernel sums in another
# order than exact evaluation, so mathematically equal tuples can differ
# in the last bits
TIE_TOL = 1e-12


def _best_tuple(tensor: np.ndarray, belief: np.ndarray, exclude=None):
    """Highest-value joint tuple of a value tensor at ``belief``.

    Ties go to the lexicographically first tuple.  ``exclude`` lists, per
    agent, rows that no returned tuple may use.
    """
    scores = (tensor.reshape(-1, tensor.shape[-1]) @ belief).reshape(tensor.shape[:-1])
    if exclude is not None:
        for i, rows in enumerate(exclude):
            scores[(slice(None),) * i + (rows,)] = -np.inf
    flat = scores.reshape(-1)
    best = float(flat.max())
    pick = int(np.argmax(flat >= best - TIE_TOL * max(1.0, abs(best))))
    return _flat_to_tuple(pick, scores.shape), float(flat[pick])


def _initial_candidates(model: DecPomdp) -> CandidateSet:
    return CandidateSet(
        tuple(
            tuple(PolicyTree(a) for a in range(model.action_counts[i]))
            for i in range(model.num_agents)
        )
    )


def _solve_round(model, cfg: SolverConfig, rng, portfolio, force_full):
    n = model.num_agents
    horizon = model.horizon
    q = _initial_candidates(model)
    tensor = backup_values(model, *candidate_codes(q, None), None)
    levels = []

    full_backups = force_full or cfg.max_obs is None or all(
        cfg.max_obs >= count for count in model.observation_counts
    )

    for t in range(1, horizon):
        started = time.perf_counter()
        picked: list[list[int]] = [[] for _ in range(n)]
        traj = None
        sel_values: list[float] = []
        heur_names: list[str] = []
        duplicated = 0
        for k in range(cfg.max_trees):
            heuristic = portfolio[k % len(portfolio)]
            traj = generate_belief(heuristic, model, horizon - t, rng)
            heur_names.append(heuristic.name)
            b_sel = traj.probs[-1]
            # duplicates make a list longer than its candidate set
            if any(len(rows) >= size for rows, size in zip(picked, q.sizes)):
                # candidates ran out: clone the best pair picked so far
                idx, val = _best_tuple(tensor[np.ix_(*picked)], b_sel)
                for i in range(n):
                    picked[i].append(picked[i][idx[i]])
                duplicated += 1
            else:
                idx, val = _best_tuple(tensor, b_sel, exclude=picked)
                for i in range(n):
                    picked[i].append(idx[i])
            sel_values.append(val)
        sel_set = CandidateSet(
            tuple(tuple(q.trees[i][r] for r in picked[i]) for i in range(n))
        )
        prev = tensor[np.ix_(*picked)]

        partial = False
        if full_backups:
            q = exhaustive_backup(model, sel_set, cfg.backup_cap)
        else:
            b_prev = BeliefState(traj.probs[-2])
            a_prev = traj.actions[-1]
            selection = rank_observations(model, b_prev, a_prev, cfg.max_obs)
            if selection.is_full(model):
                q = exhaustive_backup(model, sel_set, cfg.backup_cap)
            else:
                partial = True
                sparse = partial_backup(model, sel_set, selection, cfg.backup_cap)
                q = fill_missing(model, sparse, sel_set, b_prev, values=prev)
        tensor = backup_values(model, *candidate_codes(q, sel_set), prev)

        levels.append(
            LevelRecord(
                tree_depth=t,
                selection_values=tuple(sel_values),
                heuristic_names=tuple(heur_names),
                duplicated=duplicated,
                backup_sizes=q.sizes,
                partial=partial,
                millis=(time.perf_counter() - started) * 1000.0,
            )
        )

    idx, value = _best_tuple(tensor, model.initial_belief.probs)
    policy = JointPolicy(tuple(q.trees[i][idx[i]] for i in range(n)))
    return value, policy, levels


def _solve(model: DecPomdp, cfg: SolverConfig, solver_name: str, force_full: bool):
    started = time.perf_counter()
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.recursion_depth + 1)
    base_portfolio = build_portfolio(model, cfg.heuristics)
    best = None
    rounds = []
    for r in range(cfg.recursion_depth + 1):
        rng = np.random.default_rng(children[r])
        portfolio = list(base_portfolio)
        if best is not None:
            portfolio.append(PolicyReplayHeuristic(model, best[1]))
        value, policy, levels = _solve_round(model, cfg, rng, portfolio, force_full)
        rounds.append(value)
        if best is None or value > best[0]:
            best = (value, policy, levels)
    return SolveReport(
        solver=solver_name,
        value=best[0],
        policy=best[1],
        levels=tuple(best[2]),
        round_values=tuple(rounds),
        config=cfg,
        horizon=model.horizon,
        millis=(time.perf_counter() - started) * 1000.0,
    )


def mbdp(model: DecPomdp, cfg: SolverConfig | None = None) -> SolveReport:
    """Memory-bounded planning with full backups."""
    cfg = cfg if cfg is not None else SolverConfig()
    model.require_valid()
    for i in range(model.num_agents):
        count = model.action_counts[i] * cfg.max_trees ** model.observation_counts[i]
        if count > cfg.backup_cap:
            raise CapacityError(
                f"full backups for agent {i} would build {count} trees per level "
                f"(cap {cfg.backup_cap}); lower max_trees or use partial backups"
            )
    return _solve(model, cfg, "mbdp", force_full=True)


def improved_mbdp(model: DecPomdp, cfg: SolverConfig | None = None) -> SolveReport:
    """Memory-bounded planning with partial backups over the likeliest observations."""
    cfg = cfg if cfg is not None else SolverConfig(max_obs=2)
    model.require_valid()
    return _solve(model, cfg, "improved", force_full=False)


@dataclass(frozen=True)
class ExactResult:
    value: float
    policy: JointPolicy
    state_values: np.ndarray
    candidate_counts: tuple[tuple[int, ...], ...]


def _joint_strides(sizes) -> list[int]:
    strides = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    return strides


def exact_solve(
    model: DecPomdp,
    horizon: int | None = None,
    max_candidates: int = 200_000,
    max_pairs: int = 5_000_000,
    max_stream: int = 2_500_000_000,
    chunk: int = 65_536,
) -> ExactResult:
    """Optimal joint value and policy by exhaustive level-wise enumeration.

    Levels below the horizon are materialized as joint value tensors and
    pruned (duplicates and strictly dominated trees removed, which never
    changes any achievable value).  The top level is streamed: values at
    the initial belief are computed in chunks and only the argmax and
    the per-state maxima are kept.
    """
    model.require_valid()
    horizon = model.horizon if horizon is None else horizon
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    n = model.num_agents
    num_s = model.num_states
    er = model.expected_reward
    obs_counts = model.observation_counts

    # survivors per level: per agent, actions[level][i] is an int array and
    # children[level][i] maps each survivor to previous-level survivor rows
    actions_meta: list[list[np.ndarray]] = []
    children_meta: list[list[np.ndarray | None]] = []

    prev_vals: np.ndarray | None = None
    prev_sizes: list[int] | None = None
    counts_log: list[tuple[int, ...]] = []

    def expand_sizes():
        if prev_sizes is None:
            return list(model.action_counts)
        return [
            model.action_counts[i] * prev_sizes[i] ** obs_counts[i] for i in range(n)
        ]

    def enumerate_level(sizes, stream_belief=None):
        """Builds the joint value tensor for the next level, or streams it.

        With ``stream_belief`` set, returns (value, flat index, per-state
        maxima) of the best joint tuple at that belief instead of the
        tensor.  Index arrays are built chunk by chunk so memory stays
        proportional to the chunk size.
        """
        joint = 1
        for size in sizes:
            joint *= size
        strides = _joint_strides(sizes)
        digit_arrays = []
        if prev_sizes is not None:
            for i in range(n):
                m, k = prev_sizes[i], obs_counts[i]
                codes = np.arange(m**k)
                powers = m ** np.arange(k - 1, -1, -1)
                digit_arrays.append((codes[:, None] // powers[None, :]) % m)
            prev_strides = _joint_strides(prev_sizes)

        out = None if stream_belief is not None else np.empty((joint, num_s))
        best_val, best_flat = -np.inf, -1
        state_max = np.full(num_s, -np.inf)

        for ja_tuple in itertools.product(*(range(c) for c in model.action_counts)):
            ja = model.joint_action_index(ja_tuple)
            if prev_sizes is None:
                flat = sum(ja_tuple[i] * strides[i] for i in range(n))
                vals = er[ja][None, :]
                if stream_belief is None:
                    out[flat] = vals[0]
                else:
                    np.maximum(state_max, vals[0], out=state_max)
                    score = float(vals[0] @ stream_belief)
                    if score > best_val or (score == best_val and flat < best_flat):
                        best_val, best_flat = score, int(flat)
                continue

            # R[jo][c, s] = sum_{s'} Vprev[c, s'] P[ja][s, s'] O[ja][s', jo]
            weighted = [
                prev_vals @ (model.transition[ja] * model.observation[ja][:, jo][None, :]).T
                for jo in range(model.num_joint_observations)
            ]
            group_sizes = [prev_sizes[i] ** obs_counts[i] for i in range(n)]
            group_total = 1
            for size in group_sizes:
                group_total *= size
            group_strides = _joint_strides(group_sizes)
            offset = sum(
                ja_tuple[i] * group_sizes[i] * strides[i] for i in range(n)
            )
            for lo in range(0, group_total, chunk):
                hi = min(lo + chunk, group_total)
                base = np.arange(lo, hi)
                codes = [
                    (base // group_strides[i]) % group_sizes[i] for i in range(n)
                ]
                flats = offset + sum(codes[i] * strides[i] for i in range(n))
                vals = np.broadcast_to(er[ja], (hi - lo, num_s)).copy()
                for jo, local in enumerate(model._joint_obs_tuples):
                    childflat = sum(
                        digit_arrays[i][codes[i], local[i]] * prev_strides[i]
                        for i in range(n)
                    )
                    vals += weighted[jo][childflat]
                if stream_belief is None:
                    out[flats] = vals
                else:
                    np.maximum(state_max, vals.max(axis=0), out=state_max)
                    scores = vals @ stream_belief
                    j = int(np.argmax(scores))
                    if scores[j] > best_val or (
                        scores[j] == best_val and flats[j] < best_flat
                    ):
                        best_val = float(scores[j])
                        best_flat = int(flats[j])
        if stream_belief is None:
            return out
        return best_val, best_flat, state_max

    for level in range(1, horizon):
        sizes = expand_sizes()
        for i, size in enumerate(sizes):
            if size > max_candidates:
                raise CapacityError(
                    f"exact level {level} needs {size} trees for agent {i} "
                    f"(cap {max_candidates}); the horizon is out of exact reach"
                )
        joint = 1
        for size in sizes:
            joint *= size
        if joint > max_pairs:
            raise CapacityError(
                f"exact level {level} needs a {joint}-tuple value tensor "
                f"(cap {max_pairs}); the horizon is out of exact reach"
            )
        tensor = enumerate_level(sizes).reshape(tuple(sizes) + (num_s,))
        keep, tensor = prune_value_tensor(tensor)
        level_actions, level_children = [], []
        for i in range(n):
            kept = np.asarray(keep[i], dtype=np.int64)
            if prev_sizes is None:
                level_actions.append(kept)
                level_children.append(None)
            else:
                block = prev_sizes[i] ** obs_counts[i]
                level_actions.append(kept // block)
                codes = kept % block
                powers = prev_sizes[i] ** np.arange(obs_counts[i] - 1, -1, -1)
                level_children.append((codes[:, None] // powers[None, :]) % prev_sizes[i])
        actions_meta.append(level_actions)
        children_meta.append(level_children)
        prev_sizes = [len(k) for k in keep]
        counts_log.append(tuple(prev_sizes))
        prev_vals = tensor.reshape(-1, num_s)

    sizes = expand_sizes()
    for i, size in enumerate(sizes):
        if size > max_candidates:
            raise CapacityError(
                f"exact level {horizon} needs {size} trees for agent {i} "
                f"(cap {max_candidates}); the horizon is out of exact reach"
            )
    joint = 1
    for size in sizes:
        joint *= size
    if joint > max_stream:
        raise CapacityError(
            f"exact final level streams {joint} joint tuples (cap {max_stream}); "
            "the horizon is out of exact reach"
        )
    counts_log.append(tuple(sizes))
    value, flat, state_max = enumerate_level(sizes, stream_belief=model.initial_belief.probs)

    # decode the winning flat index into one policy tree per agent
    tree_indices = _flat_to_tuple(flat, sizes)

    def materialize(agent, level, row, memo):
        key = (agent, level, row)
        if key in memo:
            return memo[key]
        action = int(actions_meta[level - 1][agent][row])
        kids = children_meta[level - 1][agent]
        if kids is None:
            node = PolicyTree(action)
        else:
            node = PolicyTree(
                action,
                tuple(
                    materialize(agent, level - 1, int(c), memo) for c in kids[row]
                ),
            )
        memo[key] = node
        return node

    trees = []
    memo: dict = {}
    for i in range(n):
        if horizon == 1:
            trees.append(PolicyTree(tree_indices[i]))
            continue
        block = prev_sizes[i] ** obs_counts[i]
        action = tree_indices[i] // block
        code = tree_indices[i] % block
        powers = prev_sizes[i] ** np.arange(obs_counts[i] - 1, -1, -1)
        child_rows = (code // powers) % prev_sizes[i]
        trees.append(
            PolicyTree(
                int(action),
                tuple(materialize(i, horizon - 1, int(r), memo) for r in child_rows),
            )
        )
    return ExactResult(
        value=value,
        policy=JointPolicy(tuple(trees)),
        state_values=state_max,
        candidate_counts=tuple(counts_log),
    )


def uniform_random_value(model: DecPomdp, horizon: int | None = None) -> float:
    """Exact expected value of picking joint actions uniformly at random."""
    horizon = model.horizon if horizon is None else horizon
    p_mean = model.transition.mean(axis=0)
    er_mean = model.expected_reward.mean(axis=0)
    occ = model.initial_belief.probs.copy()
    total = 0.0
    for _ in range(horizon):
        total += float(occ @ er_mean)
        occ = occ @ p_mean
    return total


@dataclass(frozen=True)
class BaselineResult:
    value: float
    std_error: float | None
    policy: JointPolicy | None
    samples: int


def _random_tree(model, agent, depth, rng, node_cap, level_width):
    num_obs = model.observation_counts[agent]
    num_act = model.action_counts[agent]
    full_nodes = sum(num_obs**k for k in range(depth))
    if full_nodes <= node_cap:
        def grow(d):
            if d == 1:
                return PolicyTree(int(rng.integers(num_act)))
            return PolicyTree(
                int(rng.integers(num_act)), tuple(grow(d - 1) for _ in range(num_obs))
            )
        return grow(depth)
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


def random_policy_baseline(
    model: DecPomdp,
    horizon: int | None = None,
    samples: int = 1,
    seed: int = 0,
    node_cap: int = 50_000,
    level_width: int = 32,
) -> BaselineResult:
    """Uniformly random joint policies, evaluated exactly.

    With ``samples`` = 1 the sampled policy is returned along with its
    value; with more samples only the mean and its standard error are,
    since the policies are independent draws.
    """
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    horizon = model.horizon if horizon is None else horizon
    rng = np.random.default_rng(seed)
    values = []
    policy = None
    evaluator = PolicyEvaluator(model)
    for _ in range(samples):
        trees = tuple(
            _random_tree(model, i, horizon, rng, node_cap, level_width)
            for i in range(model.num_agents)
        )
        joint = JointPolicy(trees)
        values.append(evaluator.at_belief(joint, model.initial_belief))
        policy = joint if samples == 1 else None
    mean = float(np.mean(values))
    std_error = (
        float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else None
    )
    return BaselineResult(value=mean, std_error=std_error, policy=policy, samples=samples)
