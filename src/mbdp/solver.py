"""Planners: memory-bounded joint policy search and an exact oracle.

The memory-bounded planner keeps at most ``max_trees`` policy trees per
agent per depth.  Each level it picks that many joint tree pairs, one
per heuristically sampled belief, backs the picks up by one step (fully,
or only for the likeliest observations with the remaining branches
filled greedily), and hands the result to the next level.  The exact
oracle enumerates all policy trees level by level, pruning dominated
ones, and solves the last level by best response: one agent's children
are picked per observation instead of enumerating its trees.  It is
feasible only for short horizons.

Both keep every level as integer candidate tables (``CandidateSet``)
plus the rows they keep: the planner's picks or the exact solver's
prune survivors.  ``PolicyTree`` objects are built once, at the end,
for the returned policy only.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .backup import (
    CandidateSet,
    backup_values,
    exhaustive_backup,
    fill_missing,
    partial_backup,
    prune_value_tensor,
    rank_observations,
    weighted_children,
)
from .errors import CapacityError, ConfigError
# generate_belief stays importable from here: perfbench/bench_trace.py wraps it
from .heuristics import (  # noqa: F401
    PolicyReplayHeuristic,
    build_portfolio,
    generate_belief,
    selection_beliefs,
)
from .model import BeliefState, DecPomdp, _mixed_radix_strides
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
    """What one planning level did: selection values and backup sizes.

    ``millis`` covers the level's selection, backup and fill.  The
    round's selection beliefs are sampled before its first level, so
    only ``SolveReport.millis`` includes sampling them.
    """

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


# scores this close to the best count as ties: the kernel sums in another
# order than exact evaluation, so mathematically equal tuples can differ
# in the last bits
TIE_TOL = 1e-12


def _tie_floor(best):
    """Lowest score that still ties with ``best`` (elementwise for arrays)."""
    return best - TIE_TOL * np.maximum(1.0, np.abs(best))


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
    pick = int(np.argmax(flat >= _tie_floor(best)))
    return tuple(int(k) for k in np.unravel_index(pick, scores.shape)), float(flat[pick])


def _materialize(levels) -> JointPolicy:
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
        nodes: dict[int, PolicyTree] = {}
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


def _solve_round(model, cfg: SolverConfig, rng, portfolio, force_full):
    n = model.num_agents
    horizon = model.horizon
    b_sel, b_prev, a_prev = selection_beliefs(portfolio, model, cfg.max_trees, rng)
    heur_names = tuple(portfolio[k % len(portfolio)].name for k in range(cfg.max_trees))
    q = exhaustive_backup(model, None)
    tensor = backup_values(model, q, None)
    # (candidates, picked rows) per depth below the top
    tables = []
    levels = []
    # the last full backup, reused (with its gather plan) while the
    # donor counts stay the same
    full = None

    full_backups = force_full or cfg.max_obs is None or all(
        cfg.max_obs >= count for count in model.observation_counts
    )

    for t in range(1, horizon):
        started = time.perf_counter()
        picked: list[list[int]] = [[] for _ in range(n)]
        sel_values: list[float] = []
        duplicated = 0
        for k in range(cfg.max_trees):
            belief = b_sel[t - 1, k]
            # duplicates make a list longer than its candidate set
            if any(len(rows) >= size for rows, size in zip(picked, q.sizes)):
                # candidates ran out: clone the best pair picked so far
                idx, val = _best_tuple(tensor[np.ix_(*picked)], belief)
                for i in range(n):
                    picked[i].append(picked[i][idx[i]])
                duplicated += 1
            else:
                idx, val = _best_tuple(tensor, belief, exclude=picked)
                for i in range(n):
                    picked[i].append(idx[i])
            sel_values.append(val)
        # a copy without the gather plan, which only this level's backup read
        tables.append((CandidateSet(q.actions, q.children), picked))
        prev = tensor[np.ix_(*picked)]
        donors = prev.shape[:-1]

        partial = False
        selection = None
        if not full_backups:
            # ranked at the last pick's trajectory, its last step
            ranking_belief = BeliefState(b_prev[t - 1, -1])
            selection = rank_observations(
                model, ranking_belief, int(a_prev[t - 1, -1]), cfg.max_obs
            )
        if selection is None or selection.is_full(model):
            if full is None or full[0] != donors:
                full = (donors, exhaustive_backup(model, donors, cfg.backup_cap))
            q = full[1]
        else:
            partial = True
            sparse = partial_backup(model, donors, selection, cfg.backup_cap)
            q = fill_missing(model, sparse, prev, ranking_belief)
        tensor = backup_values(model, q, prev)

        levels.append(
            LevelRecord(
                tree_depth=t,
                selection_values=tuple(sel_values),
                heuristic_names=heur_names,
                duplicated=duplicated,
                backup_sizes=q.sizes,
                partial=partial,
                millis=(time.perf_counter() - started) * 1000.0,
            )
        )

    idx, value = _best_tuple(tensor, model.initial_belief.probs)
    tables.append((q, [[r] for r in idx]))
    return value, _materialize(tables), levels


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


# floats in one block's per-observation child tensor (8 MB)
_BLOCK_ELEMENTS = 1 << 20


def _best_response(model: DecPomdp, cands: CandidateSet, prev: np.ndarray, belief: np.ndarray):
    """(value, flat index, per-state maxima) of the best joint tuple of a full backup.

    ``cands`` is ``exhaustive_backup`` of ``prev``'s selected lists and
    ``prev`` their (m_0, ..., m_{n-1}, S) joint value tensor.  Agent d,
    the one with the largest table, is never enumerated: once the other
    agents' rows and d's action are fixed, a tuple's value splits into
    one term per observation o of d, F[o, c] summed over the joint
    observations whose d-component is o, where c is the child row d
    continues with after o.  So d's best children are one argmax per
    observation, and d's row follows from its action block and those
    children (action-major, children lexicographic), the smallest row
    on ties.  The per-state maxima take the same maxima per state.  The
    other agents' rows are enumerated in blocks of bounded size.  Ties,
    per observation and across tuples, go to the smallest index within
    ``TIE_TOL``.
    """
    n = model.num_agents
    num_s = model.num_states
    er = model.expected_reward
    sizes = cands.sizes
    strides = _mixed_radix_strides(sizes)
    d = int(np.argmax(sizes))
    others = [i for i in range(n) if i != d]
    m_d = prev.shape[d]
    num_obs = model.observation_counts[d]
    # d's row within its action block, from its child rows
    powers = m_d ** np.arange(num_obs - 1, -1, -1)
    # child tuples as (others' rows flat, d's row) in C order
    prev_flat = np.moveaxis(prev, d, n - 1).reshape(-1, num_s)
    child_strides = _mixed_radix_strides([prev.shape[i] for i in others])
    # the longer of d's child rows and the states goes innermost, where
    # numpy reduces fastest
    rows_inner = m_d >= num_s
    block = max(1, _BLOCK_ELEMENTS // (num_obs * m_d * num_s))
    by_action = cands.rows_by_action(model)
    best_val = -np.inf
    kept_vals, kept_flats = np.empty(0), np.empty(0, dtype=np.int64)
    state_max = np.full(num_s, -np.inf)
    for ja, ja_tuple in enumerate(itertools.product(*(range(c) for c in model.action_counts))):
        groups = [by_action[i][a] for i, a in enumerate(ja_tuple)]
        weighted = []
        for jo in range(model.num_joint_observations):
            w = weighted_children(model, prev_flat, ja, jo).reshape(-1, m_d, num_s)
            weighted.append(np.ascontiguousarray(w.transpose(0, 2, 1)) if rows_inner else w)
        reward_at_belief = float(er[ja] @ belief)
        group_sizes = [len(groups[i]) for i in others]
        group_strides = _mixed_radix_strides(group_sizes)
        group_total = math.prod(group_sizes)
        for lo in range(0, group_total, block):
            hi = min(lo + block, group_total)
            base = np.arange(lo, hi)
            rows = {
                i: groups[i][(base // group_strides[j]) % group_sizes[j]]
                for j, i in enumerate(others)
            }
            # F[k, o, c, s] (or [k, o, s, c]): value share of d continuing
            # with child row c after its observation o
            f = np.zeros((hi - lo, num_obs) + weighted[0].shape[1:])
            for jo, local in enumerate(model._joint_obs_tuples):
                child = sum(
                    cands.children[i][rows[i], local[i]] * child_strides[j]
                    for j, i in enumerate(others)
                )
                f[:, local[d]] += weighted[jo][child]
            per_state = f.max(axis=3 if rows_inner else 2).sum(axis=1)
            np.maximum(state_max, (er[ja] + per_state).max(axis=0), out=state_max)
            # scores[k, o, c] at the belief; per o the smallest tying c
            scores = belief @ f if rows_inner else f @ belief
            picks = np.argmax(scores >= _tie_floor(scores.max(axis=2))[..., None], axis=2)
            chosen = np.take_along_axis(scores, picks[..., None], axis=2)[..., 0]
            vals = reward_at_belief + chosen.sum(axis=1)
            flats = groups[d][picks @ powers] * strides[d]
            flats += sum(rows[i] * strides[i] for i in others)
            best_val = max(best_val, float(vals.max()))
            # tuples below the running floor stay below the final one
            keep = kept_vals >= _tie_floor(best_val)
            fresh = vals >= _tie_floor(best_val)
            kept_vals = np.concatenate([kept_vals[keep], vals[fresh]])
            kept_flats = np.concatenate([kept_flats[keep], flats[fresh]])
    j = int(np.argmin(kept_flats))
    return float(kept_vals[j]), int(kept_flats[j]), state_max


def exact_solve(
    model: DecPomdp,
    horizon: int | None = None,
    max_candidates: int = 200_000,
    max_pairs: int = 5_000_000,
    max_stream: int = 2_500_000_000,
) -> ExactResult:
    """Optimal joint value and policy by exhaustive level-wise enumeration.

    Levels below the horizon are backed up from the previous level's
    survivors, evaluated as joint value tensors by ``backup_values`` and
    pruned (duplicates and strictly dominated trees removed, which never
    changes any achievable value).  The top level is never evaluated
    tuple by tuple: ``_best_response`` fixes every agent's row but the
    largest table's, and picks that agent's children by one argmax per
    observation at the initial belief; the per-state maxima come from
    the same decomposition.  ``max_stream`` caps the top level's joint
    tuple count all the same.
    """
    model.require_valid()
    horizon = model.horizon if horizon is None else horizon
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    # (candidates, survivor rows) per level; survivor lists are what the
    # next level's children index
    levels = []
    donors = None
    prev = None
    counts_log: list[tuple[int, ...]] = []
    for level in range(1, horizon + 1):
        sizes = [
            count * (1 if donors is None else donors[i] ** model.observation_counts[i])
            for i, count in enumerate(model.action_counts)
        ]
        for i, size in enumerate(sizes):
            if size > max_candidates:
                raise CapacityError(
                    f"exact level {level} needs {size} trees for agent {i} "
                    f"(cap {max_candidates}); the horizon is out of exact reach"
                )
        joint = math.prod(sizes)
        if level == horizon:
            if joint > max_stream:
                raise CapacityError(
                    f"exact final level streams {joint} joint tuples (cap {max_stream}); "
                    "the horizon is out of exact reach"
                )
            break
        if joint > max_pairs:
            raise CapacityError(
                f"exact level {level} needs a {joint}-tuple value tensor "
                f"(cap {max_pairs}); the horizon is out of exact reach"
            )
        cands = exhaustive_backup(model, donors, max_candidates)
        keep, prev = prune_value_tensor(backup_values(model, cands, prev))
        levels.append((cands, keep))
        donors = prev.shape[:-1]
        counts_log.append(donors)
    counts_log.append(tuple(sizes))
    cands = exhaustive_backup(model, donors, max_candidates)
    belief = model.initial_belief.probs
    if prev is None:
        tensor = backup_values(model, cands, None)
        idx, value = _best_tuple(tensor, belief)
        state_max = tensor.reshape(-1, model.num_states).max(axis=0)
    else:
        value, flat, state_max = _best_response(model, cands, prev, belief)
        idx = tuple(int(k) for k in np.unravel_index(flat, cands.sizes))
    levels.append((cands, [[r] for r in idx]))
    return ExactResult(
        value=value,
        policy=_materialize(levels),
        state_values=state_max,
        candidate_counts=tuple(counts_log),
    )


def uniform_random_value(model: DecPomdp, horizon: int | None = None) -> float:
    """Exact expected value of picking joint actions uniformly at random."""
    model.require_valid()
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
        # actions are drawn in pre-order; nodes are built in reverse, each
        # taking its children off the stack
        depths, pending = [], [depth]
        while pending:
            d = pending.pop()
            depths.append(d)
            pending.extend([d - 1] * (num_obs if d > 1 else 0))
        actions = [int(rng.integers(num_act)) for _ in depths]
        built: list[PolicyTree] = []
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
    model.require_valid()
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
