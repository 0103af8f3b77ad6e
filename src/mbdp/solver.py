"""Planners: memory-bounded joint policy search and an exact oracle.

The memory-bounded planner keeps at most ``max_trees`` policy trees per
agent per depth.  Each level picks up to that many joint tuples, one
per heuristically sampled belief and each of rows no other pick uses (a
table with fewer rows ends the picks), backs them up by one step (fully,
or only for the observation subsets that keep the most mass, with the
remaining branches filled by best response), and hands the result to
the next level; the top level picks one tuple, at the initial belief.
The exact oracle enumerates all policy trees level by level, pruning
dominated ones, and solves the last level by best response too: one
agent's children are picked per observation instead of enumerating its
trees.  It is feasible only for short horizons.

Both keep every level as integer candidate tables (``CandidateSet``)
plus the rows they keep: the planner's picks or the exact solver's
prune survivors.  The planner never builds a level's joint value
tensor, nor any S-wide row but the picks': ``belief_scores`` scores
every joint tuple at the level's sampled beliefs only, from the
children projected onto those beliefs and contracted with one agent's
one-hot rows at a time, and ``picked_values`` builds value vectors for
the picked tuples alone from their term rows (both rows from
``table_rows``), which the next level's backup reads; a grid past
``MAX_GRID_FLOATS`` raises ``CapacityError`` before it is scored.  The
exact solver prunes whole tensors below its final level.  The returned
policy is the tables of the rows the top level's pick reaches; no
``PolicyTree`` is built.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .backup import (
    TIE_TOL,
    CandidateSet,
    _tie_floor,
    backup_values,
    belief_scores,
    exhaustive_backup,
    fill_missing,
    observation_shares,
    partial_backup,
    pick_children,
    picked_values,
    prune_value_tensor,
    rank_observations,
    table_rows,
    weighted_stack,
)
from .errors import MAX_GRID_FLOATS, CapacityError, ConfigError, require_count, require_seed
# generate_belief stays importable from here: perfbench/bench_trace.py wraps it
from .heuristics import (  # noqa: F401
    PolicyReplayHeuristic,
    build_portfolio,
    generate_belief,
    selection_beliefs,
)
from .model import BeliefState, DecPomdp, _mixed_radix_strides
from .policy import JointPolicy, PolicyEvaluator


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
        counts = {"max_trees": 1, "recursion_depth": 0, "backup_cap": 1}
        if self.max_obs is not None:
            counts["max_obs"] = 1
        for name, least in counts.items():
            object.__setattr__(self, name, require_count(getattr(self, name), name, ConfigError, least))
        if isinstance(self.heuristics, str):  # tuple() would split it into letters
            raise ConfigError(f"heuristics must be a sequence of names, not the string {self.heuristics!r}")
        if not self.heuristics:
            raise ConfigError("heuristic portfolio is empty")
        object.__setattr__(self, "heuristics", tuple(self.heuristics))
        object.__setattr__(self, "seed", require_seed(self.seed, ConfigError))


@dataclass(frozen=True)
class LevelRecord:
    """What one planning level did: selection values and backup sizes.

    ``selection_values`` holds one entry per pick made, min(max_trees, the
    smallest table's length); ``heuristic_names`` one per belief drawn.
    ``tuples_scored`` counts the joint tuples scored at the level's
    selection beliefs: every tuple of its candidate tables.  A selection
    value is the pick's value at its belief, summed by ``belief_scores``
    from children projected onto that belief and contracted one agent
    at a time, so it can differ in the last bits from the picked tuple's
    value vector times the belief.  A ``partial`` level ranked
    observations, and filled its open branches, at pick 0's trajectory:
    the belief before its last step, and the joint action taken there.
    ``captured_mass`` is the joint-observation mass its per-agent subsets
    keep at that belief and action, the ``epsilon_at`` there (a marginal
    walk's belief, so it can be below exact ``epsilon_global``); it is
    None on full levels.
    ``millis`` covers the level's selection, backup and fill.  The round's
    selection beliefs are sampled before its first level, so only
    ``SolveReport.millis`` includes sampling them.
    """

    tree_depth: int
    selection_values: tuple[float, ...]
    heuristic_names: tuple[str, ...]
    tuples_scored: int
    backup_sizes: tuple[int, ...]
    partial: bool
    captured_mass: float | None
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


def _best_tuple(scores: np.ndarray, exclude=None):
    """Highest-scoring joint tuple of ``scores``, shaped (|Q_0|, ..., |Q_{n-1}|).

    Ties go to the lexicographically first tuple.  ``exclude`` lists, per
    agent, rows that no returned tuple may use; they are masked to -inf
    in ``scores`` itself, which the caller must not read again.  The tie
    floor is ``_tie_floor`` in Python floats, the same bits without the
    numpy calls on a scalar.
    """
    if exclude is not None:
        for i, rows in enumerate(exclude):
            # a basic index per row: a fancy index costs more on a few rows
            for r in rows:
                scores[(slice(None),) * i + (r,)] = -np.inf
    flat = scores.reshape(-1)
    # the entry at argmax, a C method, is max without its Python wrapper
    best = float(flat[flat.argmax()])
    pick = int((flat >= best - TIE_TOL * max(1.0, abs(best))).argmax())
    value = float(flat[pick])
    idx = []
    for size in scores.shape[:0:-1]:
        pick, k = divmod(pick, size)
        idx.append(k)
    return (pick, *idx[::-1]), value


def _pick(scores: np.ndarray):
    """One joint tuple per belief: (picked rows per agent, their scores).

    ``scores`` is (K, |Q_0|, ..., |Q_{n-1}|) with K at most the smallest
    table's length.  Pick k is the best tuple of column k whose rows no
    earlier pick uses, so every pick is a new row of every agent's
    table.  The columns are masked in place.
    """
    picked: list[list[int]] = [[] for _ in scores.shape[1:]]
    values: list[float] = []
    for column in scores:
        idx, val = _best_tuple(column, exclude=picked)
        for rows, r in zip(picked, idx):
            rows.append(r)
        values.append(val)
    return picked, values


def _materialize(levels) -> JointPolicy:
    """The policy of the rows selected at the top level, as tables.

    ``levels`` lists (candidates, selected) per depth, depth 1 first:
    ``selected[i]`` lists agent i's rows kept at that depth, and the
    children of the next depth's candidates index that list.  The top
    level selects one row per agent, the returned policy; only the rows
    it reaches are kept.
    """
    top_down = levels[::-1]
    agents = range(len(levels[0][0].actions))
    return JointPolicy._from_tables(
        [[cands.actions[i] for cands, _ in top_down] for i in agents],
        [[cands.children[i] for cands, _ in top_down[:-1]] for i in agents],
        [[rows[i] for _, rows in top_down] for i in agents],
    )


def _solve_round(model, cfg: SolverConfig, rng, portfolio):
    horizon = model.horizon
    b_sel, b_prev, a_prev = selection_beliefs(portfolio, model, cfg.max_trees, rng)
    heur_names = tuple(portfolio[k % len(portfolio)].name for k in range(cfg.max_trees))
    # the level's candidates, their one-hot and term rows and the value
    # vectors of the picks below them; no level's whole value tensor is built
    q = exhaustive_backup(model, None)
    rows, terms = table_rows(model, q, None)
    prev = None
    # (candidates, picked rows) per depth
    tables = []
    levels = []
    # the last full backup and its rows, reused while the donor counts
    # stay the same
    full = None

    # when False, some agent's max_obs is below its observation count, so
    # every ranking keeps fewer than all of that agent's observations
    full_backups = cfg.max_obs is None or all(
        cfg.max_obs >= count for count in model.observation_counts
    )

    # the top level picks one tuple, the winner, at the initial belief
    b0 = model.initial_belief.probs
    for t in range(1, horizon + 1):
        started = time.perf_counter()
        sizes = q.sizes
        # each pick takes a new row of every table
        beliefs = b_sel[t - 1, : min(sizes)] if t < horizon else b0[None, :]
        if len(beliefs) * math.prod(sizes) > MAX_GRID_FLOATS:
            raise CapacityError(
                f"level {t} would score {len(beliefs) * math.prod(sizes)} floats for tables "
                f"{sizes} (cap {MAX_GRID_FLOATS}); lower max_trees or max_obs"
            )
        picked, sel_values = _pick(belief_scores(model, rows, prev, beliefs))
        tables.append((q, picked))
        # the picks' value vectors, the same bits as the whole tensor's rows
        prev = picked_values(model, terms, picked, prev)
        if t == horizon:
            break
        donors = prev.shape[:-1]

        captured = None
        if full_backups:
            if full is None or full[0] != donors:
                table = exhaustive_backup(model, donors, cfg.backup_cap)
                full = (donors, table, table_rows(model, table, donors))
            _, q, (rows, terms) = full
        else:
            # ranked at pick 0's trajectory, its last step, whatever
            # max_trees is
            ranking_belief = BeliefState(b_prev[t - 1, 0])
            selection = rank_observations(
                model, ranking_belief, int(a_prev[t - 1, 0]), cfg.max_obs
            )
            captured = selection.captured_mass
            sparse = partial_backup(model, donors, selection, cfg.backup_cap)
            q = fill_missing(model, sparse, prev, ranking_belief)
            rows, terms = table_rows(model, q, donors)

        levels.append(
            LevelRecord(
                tree_depth=t,
                selection_values=tuple(sel_values),
                heuristic_names=heur_names,
                tuples_scored=math.prod(sizes),
                backup_sizes=q.sizes,
                partial=not full_backups,
                captured_mass=captured,
                millis=(time.perf_counter() - started) * 1000.0,
            )
        )

    # the winner's value is its value vector times the initial belief
    return float(prev.reshape(-1) @ b0), _materialize(tables), levels


def _solve(model: DecPomdp, cfg: SolverConfig, solver_name: str):
    started = time.perf_counter()
    # selection_beliefs allocates b_sel and b_prev, (horizon - 1) x
    # max_trees x S floats each, before any level is scored
    floats = 2 * max(model.horizon - 1, 0) * cfg.max_trees * model.num_states
    if floats > MAX_GRID_FLOATS:
        raise CapacityError(
            f"selection beliefs would take {floats} floats for {cfg.max_trees} picks per level "
            f"(cap {MAX_GRID_FLOATS}); lower max_trees"
        )
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.recursion_depth + 1)
    base_portfolio = build_portfolio(model, cfg.heuristics)
    best = None
    rounds = []
    for r in range(cfg.recursion_depth + 1):
        rng = np.random.default_rng(children[r])
        portfolio = list(base_portfolio)
        if best is not None:
            portfolio.append(PolicyReplayHeuristic(model, best[1]))
        value, policy, levels = _solve_round(model, cfg, rng, portfolio)
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
    """Memory-bounded planning with full backups: it solves ``cfg`` with ``max_obs`` None."""
    cfg = cfg if cfg is not None else SolverConfig()
    model.require_valid()
    # a level keeps min(max_trees, its smallest table) rows, the next backup's
    # donors; every backup is checked before selection_beliefs allocates
    donors = min(cfg.max_trees, *model.action_counts)
    for _ in range(model.horizon - 1):
        counts = [a * donors**o for a, o in zip(model.action_counts, model.observation_counts)]
        for i, count in enumerate(counts):
            if count > cfg.backup_cap:
                raise CapacityError(
                    f"full backups for agent {i} would build {count} trees per level "
                    f"(cap {cfg.backup_cap}); lower max_trees or use partial backups"
                )
        donors = min(cfg.max_trees, *counts)
    return _solve(model, replace(cfg, max_obs=None), "mbdp")


def improved_mbdp(model: DecPomdp, cfg: SolverConfig | None = None) -> SolveReport:
    """Memory-bounded planning with partial backups over the likeliest observations.

    Like ``mbdp``, it raises ``CapacityError`` before drawing any belief
    if the round's selection beliefs would pass ``MAX_GRID_FLOATS``.
    """
    cfg = cfg if cfg is not None else SolverConfig(max_obs=2)
    model.require_valid()
    return _solve(model, cfg, "improved")


@dataclass(frozen=True)
class ExactResult:
    value: float
    policy: JointPolicy
    state_values: np.ndarray
    candidate_counts: tuple[tuple[int, ...], ...]


# floats in one block's per-observation child tensor (1 MB; 8 MB ran slower)
_BLOCK_ELEMENTS = 1 << 17


def _best_response(model: DecPomdp, cands: CandidateSet, prev: np.ndarray, belief: np.ndarray):
    """(value, flat index, per-state maxima) of the best joint tuple of a full backup.

    ``cands`` is ``exhaustive_backup`` of ``prev``'s selected lists and
    ``prev`` their (m_0, ..., m_{n-1}, S) joint value tensor.  Agent d,
    the one with the largest table, is never enumerated: per block of
    the other agents' row tuples and d's actions, d's best children are
    ``pick_children`` of its ``observation_shares`` at the belief, and
    its row follows from its action and those children.  The per-state
    maxima take the same maxima per state.  Ties, per observation and
    across tuples, go to the smallest index within ``TIE_TOL``.
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
    # stack[jo, ja, r..., c, s]: the weighted values of the child tuple of
    # the other agents' rows r and d's row c
    moved = np.moveaxis(prev, d, n - 1)
    stack = weighted_stack(model, moved).reshape((model.num_joint_observations, -1) + moved.shape)
    # the longer of d's child rows and the states goes innermost, where
    # numpy reduces fastest
    rows_inner = m_d >= num_s
    if rows_inner:
        stack = np.ascontiguousarray(np.swapaxes(stack, -1, -2))
    # the other agents' rows, then d's action, in C order
    grid = [sizes[i] for i in others] + [model.action_counts[d]]
    total = math.prod(grid)
    block = max(1, _BLOCK_ELEMENTS // (num_obs * m_d * num_s))
    best_val = -np.inf
    kept_vals, kept_flats = np.empty(0), np.empty(0, dtype=np.int64)
    state_max = np.full(num_s, -np.inf)
    for lo in range(0, total, block):
        *rows, act = np.unravel_index(np.arange(lo, min(lo + block, total)), grid)
        ja = act * model._action_strides[d] + sum(
            cands.actions[i][r] * model._action_strides[i] for i, r in zip(others, rows)
        )
        # F[k, o, c, s] (or [k, o, s, c]): value share of d continuing
        # with child row c after its observation o
        kids = [cands.children[i][r] for i, r in zip(others, rows)]
        f = observation_shares(model, d, kids, stack, ja)
        per_state = f.max(axis=3 if rows_inner else 2).sum(axis=1)
        np.maximum(state_max, (er[ja] + per_state).max(axis=0), out=state_max)
        # scores[k, o, c] at the belief
        scores = belief @ f if rows_inner else f @ belief
        picks = pick_children(scores)
        chosen = np.take_along_axis(scores, picks[..., None], axis=2)[..., 0]
        vals = (er @ belief)[ja] + chosen.sum(axis=1)
        # d's row: its action's block, then its children as digits
        flats = (act * m_d**num_obs + picks @ m_d ** np.arange(num_obs - 1, -1, -1)) * strides[d]
        flats += sum(r * strides[i] for i, r in zip(others, rows))
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
    max_candidates: int = 200_000,
    max_pairs: int = 5_000_000,
) -> ExactResult:
    """Optimal joint value and policy by exhaustive level-wise enumeration.

    Levels below the horizon are backed up from the previous level's
    survivors, evaluated as joint value tensors by ``backup_values`` and
    pruned (duplicates and strictly dominated trees removed, which never
    changes any achievable value).  The top level is never evaluated
    tuple by tuple: ``_best_response`` fixes every agent's row but the
    largest table's, and picks that agent's children by one argmax per
    observation at the initial belief; the per-state maxima come from
    the same decomposition.  ``max_pairs`` caps the joint tuples a level
    evaluates: below the top level, and at horizon 1, all of them; at the
    top level the other agents' row tuples once per action of that agent.
    """
    model.require_valid()
    horizon = model.horizon
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
        if level == horizon and donors is not None:
            d = int(np.argmax(sizes))
            joint = math.prod(sizes) // sizes[d] * model.action_counts[d]
            need = f"enumerates {joint} joint tuples"
        else:
            joint = math.prod(sizes)
            need = f"needs a {joint}-tuple value tensor"
        if joint > max_pairs:
            raise CapacityError(
                f"exact level {level} {need} (cap {max_pairs}); the horizon is out of exact reach"
            )
        if level == horizon:
            break
        cands = exhaustive_backup(model, donors, max_candidates)
        keep, prev = prune_value_tensor(backup_values(model, cands, prev))
        levels.append((cands, keep))
        donors = prev.shape[:-1]
        counts_log.append(donors)
    counts_log.append(tuple(sizes))
    cands = exhaustive_backup(model, donors, max_candidates)
    belief = model.initial_belief.probs
    if prev is None:
        tensor = backup_values(model, cands, None).reshape(-1, model.num_states)
        idx, value = _best_tuple((tensor @ belief).reshape(cands.sizes))
        state_max = tensor.max(axis=0)
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


def uniform_random_value(model: DecPomdp) -> float:
    """Exact expected value of picking joint actions uniformly at random."""
    model.require_valid()
    p_mean = model.transition.mean(axis=0)
    er_mean = model.expected_reward.mean(axis=0)
    occ = model.initial_belief.probs.copy()
    total = 0.0
    for _ in range(model.horizon):
        total += float(occ @ er_mean)
        occ = occ @ p_mean
    return total


@dataclass(frozen=True)
class BaselineResult:
    value: float
    std_error: float | None
    policy: JointPolicy | None
    samples: int


# random_policy_baseline's two sizes (see there); read at each call
RANDOM_NODE_CAP = 50_000
RANDOM_LEVEL_WIDTH = 32


def _random_tables(model, agent, depth, rng, whole):
    """(actions, children) per depth, root first, of one agent's random policy."""
    num_obs = model.observation_counts[agent]
    num_act = model.action_counts[agent]
    if whole:
        full_nodes = sum(num_obs**k for k in range(depth))
        # actions are drawn in pre-order, observation 0's subtree first;
        # row r's child after observation o is row r * num_obs + o
        drawn = rng.integers(num_act, size=full_nodes)
        order = np.zeros(1, dtype=np.int64)
        actions, children = [drawn[order]], []
        for d in range(1, depth):
            subtree = sum(num_obs**k for k in range(depth - d))
            order = (order[:, None] + 1 + subtree * np.arange(num_obs)).ravel()
            actions.append(drawn[order])
            children.append(np.arange(len(order)).reshape(-1, num_obs))
        return actions, children
    # wide levels share sampled nodes; any single path is still uniform
    below = int(min(num_obs ** (depth - 1), RANDOM_LEVEL_WIDTH))
    actions, children = [rng.integers(num_act, size=below)], []
    for k in range(depth - 2, -1, -1):
        # per node its action, then a row below per observation
        width = int(min(num_obs**k, RANDOM_LEVEL_WIDTH))
        drawn = rng.integers(np.tile([num_act] + [below] * num_obs, width)).reshape(width, -1)
        actions.append(drawn[:, 0])
        children.append(drawn[:, 1:])
        below = width
    return actions[::-1], children[::-1]


def random_policy_baseline(model: DecPomdp, samples: int = 1, seed: int = 0) -> BaselineResult:
    """Uniformly random joint policies, evaluated exactly.

    Every agent draws its whole tree, one action per node, while the
    grid of the agents' deepest full levels, prod_i |O_i|^(h - 1) joint
    rows, which exact evaluation visits, holds at most
    ``RANDOM_NODE_CAP`` rows.  Past that, every agent draws levels of at
    most ``RANDOM_LEVEL_WIDTH`` nodes that share the level below.  With
    ``samples`` = 1 the sampled policy is returned along with its value;
    with more samples only the mean and its standard error are, since
    the policies are independent draws.
    """
    model.require_valid()
    samples = require_count(samples, "samples", ConfigError)
    rng = np.random.default_rng(require_seed(seed, ConfigError))
    whole = math.prod(n ** (model.horizon - 1) for n in model.observation_counts) <= RANDOM_NODE_CAP
    values = []
    evaluator = PolicyEvaluator(model)
    for _ in range(samples):
        tables = [_random_tables(model, i, model.horizon, rng, whole) for i in range(model.num_agents)]
        joint = JointPolicy._from_tables(*zip(*tables))
        values.append(evaluator.at_belief(joint, model.initial_belief))
        policy = joint if samples == 1 else None
    mean = float(np.mean(values))
    std_error = (
        float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else None
    )
    return BaselineResult(value=mean, std_error=std_error, policy=policy, samples=samples)
