"""Belief trajectory generators used to pick selection points for planning.

Each heuristic simulates forward from the initial belief and records the
belief after every step.  The MDP heuristic acts greedily against the
value function of the underlying fully-observable problem, the random
heuristic samples joint actions uniformly, and the replay heuristic
walks a previously computed joint policy (sampling observations and
conditioning the belief on them, which the other two do not need).

A planning round needs one trajectory per level and pick, of length
horizon - t at level t, and reads only its last two beliefs and last
action.  ``selection_beliefs`` draws all of them before the first level,
with the generator stream ``generate_belief`` would draw in the same
order.  A run of random picks (up to the next replay pick, or the end of
a block of at most ``_ACTION_CHUNK`` bytes of actions) is drawn in
``Generator.integers`` calls of at most ``_DRAW_CELLS`` actions, which
give the same stream and the same generator state as one call per pick.
Random trajectories then advance together, one batched step per numpy
call, reading each step's actions from a column of the block's
(trajectory, step) table, so a round costs O(horizon) steps rather than
O(horizon^2); the MDP heuristic's trajectories are prefixes of one
cached walk, and the replay heuristic walks its own.  Every step is the
vector-matrix product of ``DecPomdp.propagate``, so the rows match a
chain of ``propagate`` calls bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ModelError
from .model import PROB_TOL, DecPomdp
from .policy import CompiledPolicy, JointPolicy


def _check_rows(rows: np.ndarray) -> None:
    """Raises ModelError unless every row is a belief within ``PROB_TOL``."""
    # a non-finite entry makes its row's sum non-finite, which fails
    # the sum test as well
    sums = rows.sum(axis=1)
    ok = np.abs(sums - 1.0) <= PROB_TOL
    if not ok.all():
        raise ModelError(f"belief sums to {float(sums[np.argmin(ok)])!r}, not 1")
    if float(rows.min()) < -PROB_TOL:
        raise ModelError(f"belief has a negative entry: {float(rows.min())!r}")


# floats of gathered transition matrices per batched product (8 MB)
_STEP_FLOATS = 1 << 20


def _step(transition: np.ndarray, beliefs: np.ndarray, actions) -> np.ndarray:
    """Row r of ``beliefs`` pushed through ``transition[actions[r]]``, shape (R, S).

    A stack of (1, S) @ (S, S) products is one vector-matrix product per
    row, bit for bit ``DecPomdp.propagate``; a 2-D ``beliefs @ T`` or
    ``einsum`` sums in another order.  Rows go in blocks whose gathered
    matrices stay within ``_STEP_FLOATS``.
    """
    out = np.empty(beliefs.shape)
    block = max(1, _STEP_FLOATS // transition[0].size)
    for lo in range(0, len(beliefs), block):
        rows = beliefs[lo : lo + block, None, :]
        np.matmul(rows, transition[actions[lo : lo + block]], out=out[lo : lo + block, None, :])
    return out


@dataclass(frozen=True)
class BeliefTrajectory:
    """A simulated belief sequence: one row of ``probs`` per step plus the start.

    ``probs`` is a read-only (len(actions) + 1, S) array, checked once
    with the tolerances of ``BeliefState`` and clipped the same way.
    """

    probs: np.ndarray
    actions: tuple[int, ...]

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != len(self.actions) + 1 or arr.shape[1] == 0:
            raise ConfigError("trajectory needs one belief per step plus the start")
        _check_rows(arr)
        arr = np.maximum(arr, 0.0)  # remove rounding dust, as np.clip(arr, 0.0, None)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)


def solve_underlying_mdp(model: DecPomdp):
    """Finite-horizon value iteration on states with joint actions.

    Returns (values, greedy) where values[k] is the optimal state value
    with k steps to go and greedy[k] the lexicographically first optimal
    joint action, for k = 0..model.horizon.
    """
    horizon = model.horizon
    num_s = model.num_states
    values = np.zeros((horizon + 1, num_s))
    greedy = np.zeros((horizon + 1, num_s), dtype=np.int64)
    for k in range(1, horizon + 1):
        q = (model.transition * (model.reward + values[k - 1][None, None, :])).sum(axis=2)
        values[k] = q.max(axis=0)
        greedy[k] = q.argmax(axis=0)
    return values, greedy


class MdpHeuristic:
    """Greedy joint action for the most likely state, marginal belief updates.

    It draws nothing from the generator, so every trajectory is a prefix
    of one walk, computed once per model.
    """

    name = "mdp"

    def __init__(self, model: DecPomdp):
        self.model = model
        self.values, self.greedy = solve_underlying_mdp(model)
        self._walk: tuple[DecPomdp, BeliefTrajectory] | None = None

    def walk(self, model: DecPomdp, depth: int) -> BeliefTrajectory:
        """The cached walk, at least ``depth`` steps long; trajectories are its prefixes."""
        if self._walk is None or self._walk[0] is not model or len(self._walk[1].actions) < depth:
            top = self.values.shape[0] - 1

            def choose(step, belief):
                return int(self.greedy[min(max(model.horizon - step, 1), top)][int(np.argmax(belief))])

            self._walk = (model, _marginal_walk(model, max(depth, model.horizon), choose))
        return self._walk[1]

    def trajectory(self, model: DecPomdp, depth: int, rng) -> BeliefTrajectory:
        walk = self.walk(model, depth)
        return BeliefTrajectory(walk.probs[: depth + 1], walk.actions[:depth])


class RandomHeuristic:
    """Uniform joint actions, marginal belief updates."""

    name = "random"

    def __init__(self, model: DecPomdp):
        self.model = model

    @staticmethod
    def draw(model: DecPomdp, count: int, rng) -> np.ndarray:
        """``count`` uniform joint actions, in one generator call.

        ``Generator.integers`` gives the same stream, and leaves the
        generator in the same state, whether the actions come in one call
        or in calls of any sizes that add up to ``count``.  So one call
        draws a trajectory's actions as that many scalar draws would, and
        ``selection_beliefs`` draws a run of random picks in calls of
        bounded size and splits them by trajectory afterwards.
        """
        return rng.integers(model.num_joint_actions, size=count)

    def trajectory(self, model: DecPomdp, depth: int, rng) -> BeliefTrajectory:
        draws = self.draw(model, depth, rng).tolist()
        return _marginal_walk(model, depth, lambda step, belief: draws[step])


def _marginal_walk(model: DecPomdp, depth: int, choose) -> BeliefTrajectory:
    """Pushes the initial belief through ``depth`` joint actions, observations marginalized.

    ``choose(step, belief)`` picks each joint action.  Every step starts
    from the previous belief with its rounding dust clipped, as
    ``BeliefState`` does, so the rows match a chain of
    ``DecPomdp.propagate`` calls bit for bit.  It steps one row at a
    time with the ``_step`` that ``_walk_batch`` uses for many.
    """
    belief = model.initial_belief.probs[None, :]
    rows = [belief]
    actions = []
    for step in range(depth):
        ja = choose(step, belief[0])
        row = _step(model.transition, belief, [ja])
        rows.append(row)
        belief = np.maximum(row, 0.0)  # np.clip(row, 0.0, None)
        actions.append(ja)
    return BeliefTrajectory(np.concatenate(rows), tuple(actions))


class PolicyReplayHeuristic:
    """Replays a joint policy, sampling observations and conditioning on them.

    Past the policy's depth it falls back to uniform random actions, still
    conditioning on sampled observations.
    """

    name = "replay"

    def __init__(self, model: DecPomdp, policy: JointPolicy):
        self.model = model
        self.compiled = CompiledPolicy(model, policy)

    def trajectory(self, model: DecPomdp, depth: int, rng) -> BeliefTrajectory:
        compiled = self.compiled
        nodes = [0] * model.num_agents
        beliefs = [model.initial_belief]
        actions: list[int] = []
        for level in range(depth):
            if level >= compiled.depth:
                ja = int(rng.integers(model.num_joint_actions))
            else:
                ja = model.joint_action_index(
                    tuple(
                        int(compiled.actions[i][level][nodes[i]])
                        for i in range(model.num_agents)
                    )
                )
            probs = model.observation_probabilities(beliefs[-1], ja)
            jo = int(rng.choice(len(probs), p=probs / probs.sum()))
            beliefs.append(model.bayes_update(beliefs[-1], ja, jo))
            if level < compiled.depth - 1:
                local = model.joint_observation(jo)
                for i in range(model.num_agents):
                    nodes[i] = int(compiled.children[i][level][nodes[i], local[i]])
            actions.append(ja)
        return BeliefTrajectory(np.array([b.probs for b in beliefs]), tuple(actions))


def generate_belief(
    heuristic, model: DecPomdp, depth: int, rng: np.random.Generator
) -> BeliefTrajectory:
    """Runs ``heuristic`` for ``depth`` steps from the initial belief.

    Trajectories are prefixes of the full problem, so the heuristic is
    told the steps remaining out of the model horizon, not the depth.
    """
    if depth < 0:
        raise ConfigError("trajectory depth must be >= 0")
    return heuristic.trajectory(model, depth, rng)


# bytes of pre-drawn random actions held at once (8 MiB): a round draws
# about max_trees * horizon^2 / 2 of them, walked in blocks of at most
# this size (or one trajectory, if longer), and every block walks from
# the first step, so fewer, larger blocks walk fewer steps
_ACTION_CHUNK = 8 << 20
# step table cells filled per generator call: 1 MiB of int64 draws and
# 128 KiB of mask (or one trajectory, if longer)
_DRAW_CELLS = 1 << 17


def _walk_batch(model: DecPomdp, picks, lengths, table, b_sel, b_prev, a_prev) -> None:
    """Walks random trajectories together, one ``_step`` per step.

    Row r of ``table`` holds the actions of the trajectory of pick
    ``picks[r]`` at level horizon - ``lengths[r]``, and lengths never
    increase, so the rows still walking at any step are a prefix; one
    ``searchsorted`` counts them for every step.  Step s reads column s.
    The rows whose last step it is are the prefix's tail, all of one
    level t; their last two beliefs and last action go to [t - 1, k] of
    ``b_sel``, ``b_prev`` and ``a_prev``.  Steps are checked and clipped
    as ``_marginal_walk`` does.
    """
    horizon = model.horizon
    steps = table.shape[1]
    # active[s]: the rows longer than s steps
    active = np.searchsorted(-lengths, -np.arange(steps + 1)).tolist()
    belief = np.repeat(model.initial_belief.probs[None, :], len(table), axis=0)
    for step in range(steps):
        acts = table[: active[step], step]
        after = _step(model.transition, belief, acts)
        _check_rows(after)
        np.maximum(after, 0.0, out=after)
        done = active[step + 1]
        if done < len(acts):
            level, ks = horizon - step - 2, picks[done : len(acts)]
            b_sel[level, ks] = after[done:]
            b_prev[level, ks] = belief[done:]
            a_prev[level, ks] = acts[done:]
        belief = after[:done]


class _RandomPicks:
    """A round's random picks, drawn in stream order and walked a block at a time.

    Pick i is the i-th random pick in (level, pick) order.  Blocks are
    runs of picks holding at most ``_ACTION_CHUNK`` bytes of actions, in
    the smallest unsigned type that holds every joint action, or one
    pick.  A block's actions fill a (trajectory, step) table, drawn a
    few rows at a time as the stream reaches them, and the block is
    walked once all of them are drawn.  The table pads each trajectory
    to the block's first, so it holds at most twice the block's actions.
    """

    def __init__(self, model: DecPomdp, levels, picks, b_sel, b_prev, a_prev):
        self.model = model
        self.picks = picks
        self.lengths = model.horizon - levels
        self.out = (b_sel, b_prev, a_prev)
        self.dtype = np.min_scalar_type(model.num_joint_actions - 1)
        capacity = max(1, _ACTION_CHUNK // self.dtype.itemsize)
        held = np.concatenate(([0], np.cumsum(self.lengths)))
        # each block takes picks while they fit, and at least one
        self.ends = [0]
        while self.ends[-1] < len(levels):
            fit = int(np.searchsorted(held, held[self.ends[-1]] + capacity, side="right")) - 1
            self.ends.append(max(fit, self.ends[-1] + 1))
        self.block = 0
        self.drawn = 0
        self.table = None

    def draw_until(self, stop: int, rng) -> None:
        """Draws the actions of the picks before pick ``stop``, walking every block then complete."""
        while self.drawn < stop:
            start, end = self.ends[self.block], self.ends[self.block + 1]
            lengths = self.lengths[start:end]
            if self.table is None:
                self.table = np.empty((end - start, lengths[0]), self.dtype)
            steps = self.table.shape[1]
            rows = max(1, _DRAW_CELLS // steps)
            upto = min(stop, end)
            for lo in range(self.drawn - start, upto - start, rows):
                hi = min(lo + rows, upto - start)
                # the mask numbers the cells trajectory by trajectory, as drawn
                mask = np.arange(steps) < lengths[lo:hi, None]
                self.table[lo:hi][mask] = RandomHeuristic.draw(self.model, int(lengths[lo:hi].sum()), rng)
            self.drawn = upto
            if upto == end:
                _walk_batch(self.model, self.picks[start:end], lengths, self.table, *self.out)
                self.table = None
                self.block += 1


def selection_beliefs(portfolio, model: DecPomdp, max_trees: int, rng: np.random.Generator):
    """Selection points of one planning round, every trajectory drawn up front.

    Level t (1 .. horizon - 1) makes ``max_trees`` picks; pick k runs
    ``portfolio[k % len(portfolio)]`` for horizon - t steps.  Trajectories
    are drawn in (t, k) order with the generator stream ``generate_belief``
    would draw.  The MDP heuristic draws
    nothing, and its trajectories are prefixes of one walk.  A run of
    random picks, up to the next replay pick or the end of a block, is
    drawn in calls of bounded size, which give the stream of one call per
    pick (``RandomHeuristic.draw``).  Returns (b_sel, b_prev, a_prev),
    indexed [t - 1, k]: each trajectory's last belief, the belief before
    it and the joint action between them, equal bit for bit to
    ``probs[-1]``, ``probs[-2]`` and ``actions[-1]`` of ``generate_belief``.
    """
    horizon = model.horizon
    b_sel = np.empty((max(horizon - 1, 0), max_trees, model.num_states))
    b_prev = np.empty_like(b_sel)
    a_prev = np.empty(b_sel.shape[:2], dtype=np.int64)
    if horizon < 2:
        return b_sel, b_prev, a_prev
    heuristics = [portfolio[k % len(portfolio)] for k in range(max_trees)]
    randoms = [k for k, h in enumerate(heuristics) if isinstance(h, RandomHeuristic)]
    # replay picks, each with the number of random picks ahead of it in a level
    replays = []
    for k, heuristic in enumerate(heuristics):
        if isinstance(heuristic, MdpHeuristic):
            # level t reads the walk at depth horizon - t
            walk = heuristic.walk(model, horizon - 1)
            b_sel[:, k] = walk.probs[horizon - 1 : 0 : -1]
            b_prev[:, k] = walk.probs[horizon - 2 :: -1]
            a_prev[:, k] = walk.actions[horizon - 2 :: -1]
        elif not isinstance(heuristic, RandomHeuristic):
            replays.append((k, sum(r < k for r in randoms)))
    levels = np.repeat(np.arange(1, horizon), len(randoms))
    walks = _RandomPicks(model, levels, np.tile(randoms, horizon - 1), b_sel, b_prev, a_prev)
    for t in range(1, horizon):
        depth = horizon - t
        for k, ahead in replays:
            # the random picks before this one come first in the stream
            walks.draw_until((t - 1) * len(randoms) + ahead, rng)
            traj = generate_belief(heuristics[k], model, depth, rng)
            b_sel[t - 1, k] = traj.probs[depth]
            b_prev[t - 1, k] = traj.probs[depth - 1]
            a_prev[t - 1, k] = traj.actions[depth - 1]
    walks.draw_until(len(levels), rng)
    return b_sel, b_prev, a_prev


def build_portfolio(model: DecPomdp, names: tuple[str, ...] | list[str]):
    """Instantiates heuristics from names ("mdp", "random")."""
    out = []
    for name in names:
        if name == "mdp":
            out.append(MdpHeuristic(model))
        elif name == "random":
            out.append(RandomHeuristic(model))
        else:
            raise ConfigError(f"unknown heuristic '{name}' (expected mdp or random)")
    if not out:
        raise ConfigError("heuristic portfolio is empty")
    return out
