"""Finite-horizon decentralized POMDP model and belief arithmetic.

A model is a dense-table tuple: per-agent action and observation sets, a
joint transition table, a joint observation table conditioned on the
post-transition state, a joint reward table, an initial belief and a
horizon.  Joint actions and joint observations are flattened to single
indices in agent-0-major mixed-radix order, which is also the canonical
lexicographic order used for tie-breaking everywhere else in the
package.

Instances are immutable after construction.  Structural problems (bad
shapes, empty sets) raise ``ModelError`` at construction time; soft
numerical problems (rows that do not sum to one, negative probabilities)
are reported by :meth:`DecPomdp.validate` so callers can surface every
violation at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ImpossibleEvidenceError, ModelError, require_count, require_floats

PROB_TOL = 1e-9


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class BeliefState:
    """Probability distribution over model states."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ModelError("belief must be a non-empty 1-d vector")
        if float(arr.min()) < -PROB_TOL:
            raise ModelError(f"belief has a negative entry: {float(arr.min())!r}")
        # a non-finite entry makes the sum non-finite, which fails this test
        if not abs(float(arr.sum()) - 1.0) <= PROB_TOL:
            raise ModelError(f"belief sums to {float(arr.sum())!r}, not 1")
        arr = np.clip(arr, 0.0, None)  # remove rounding dust
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def num_states(self) -> int:
        return self.probs.size


def _mixed_radix_strides(sizes: Sequence[int]) -> tuple[int, ...]:
    strides = []
    acc = 1
    for size in reversed(sizes):
        strides.append(acc)
        acc *= size
    return tuple(reversed(strides))


def require_table_floats(num_states: int, num_joint_actions: int, num_joint_observations: int) -> None:
    """Refuses, with ``CapacityError``, a model whose T, O and R tables would pass the floats cap."""
    require_floats(
        num_joint_actions * num_states * (2 * num_states + num_joint_observations),
        "tables T, O and R would take {floats} floats for {states} states, {ja} joint actions "
        "and {jo} joint observations (cap {cap})",
        states=num_states, ja=num_joint_actions, jo=num_joint_observations,
    )


def _is_index(value) -> bool:
    """True for a Python or numpy integer; bools are not indices."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class DecPomdp:
    """Dense-table finite-horizon DEC-POMDP.

    ``transition[ja, s, s']`` is the probability of moving to ``s'`` from
    ``s`` under flattened joint action ``ja``; ``observation[ja, s', jo]``
    conditions the flattened joint observation on the state *after* the
    transition; ``reward[ja, s, s']`` is the (expected) reward attached
    to that transition.
    """

    states: tuple[str, ...]
    actions: tuple[tuple[str, ...], ...]
    observations: tuple[tuple[str, ...], ...]
    transition: np.ndarray
    observation: np.ndarray
    reward: np.ndarray
    initial_belief: BeliefState
    horizon: int
    name: str = ""

    def __post_init__(self):
        if len(self.states) == 0:
            raise ModelError("model needs at least one state")
        if len(self.actions) < 2 or len(self.actions) != len(self.observations):
            raise ModelError("model needs >= 2 agents with one action and one observation set each")
        for kind, groups in (("action", self.actions), ("observation", self.observations)):
            for i, names in enumerate(groups):
                if len(names) == 0:
                    raise ModelError(f"agent {i} has an empty {kind} set")
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "actions", tuple(tuple(a) for a in self.actions))
        object.__setattr__(self, "observations", tuple(tuple(o) for o in self.observations))

        num_s = len(self.states)
        num_ja = int(np.prod([len(a) for a in self.actions]))
        num_jo = int(np.prod([len(o) for o in self.observations]))
        shapes = {
            "transition": (num_ja, num_s, num_s),
            "observation": (num_ja, num_s, num_jo),
            "reward": (num_ja, num_s, num_s),
        }
        tables = {name: _frozen(getattr(self, name)) for name in shapes}
        for name, shape in shapes.items():
            if tables[name].shape != shape:
                raise ModelError(f"{name} shape {tables[name].shape} != {shape}")
        if not np.all(np.isfinite(tables["reward"])):
            raise ModelError("reward table has non-finite entries")
        for name, table in tables.items():
            object.__setattr__(self, name, table)
        if not isinstance(self.initial_belief, BeliefState):
            object.__setattr__(self, "initial_belief", BeliefState(np.asarray(self.initial_belief)))
        if self.initial_belief.num_states != num_s:
            raise ModelError("initial belief length does not match the state count")
        object.__setattr__(self, "horizon", require_count(self.horizon, "horizon", ModelError))

    # ---- dimensions -------------------------------------------------

    @property
    def num_agents(self) -> int:
        return len(self.actions)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @cached_property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.actions)

    @cached_property
    def observation_counts(self) -> tuple[int, ...]:
        return tuple(len(o) for o in self.observations)

    @cached_property
    def num_joint_actions(self) -> int:
        return int(np.prod(self.action_counts))

    @cached_property
    def num_joint_observations(self) -> int:
        return int(np.prod(self.observation_counts))

    @cached_property
    def _action_strides(self) -> tuple[int, ...]:
        return _mixed_radix_strides(self.action_counts)

    @cached_property
    def _obs_strides(self) -> tuple[int, ...]:
        return _mixed_radix_strides(self.observation_counts)

    @cached_property
    def _joint_obs_tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(itertools.product(*[range(n) for n in self.observation_counts]))

    @cached_property
    def _local_obs(self) -> np.ndarray:
        """(n, JO) read-only: row i holds agent i's component of each joint observation."""
        return _frozen(self._joint_obs_tuples, dtype=np.int64).T

    @cached_property
    def _obs_order(self) -> tuple[np.ndarray, ...]:
        """Per agent i, order[k, o]: the k-th joint observation (jo order) whose i component is o."""
        return tuple(
            _frozen(np.argsort(local, kind="stable").reshape(count, -1).T, dtype=np.int64)
            for local, count in zip(self._local_obs, self.observation_counts)
        )

    @cached_property
    def expected_reward(self) -> np.ndarray:
        """Expected immediate reward, shape (num_joint_actions, num_states)."""
        er = (self.transition * self.reward).sum(axis=2)
        er.setflags(write=False)
        return er

    @cached_property
    def reward_max(self) -> float:
        return float(self.reward.max())

    @cached_property
    def reward_min(self) -> float:
        return float(self.reward.min())

    # ---- joint index arithmetic -------------------------------------

    def _joint_index(self, kind: str, value, counts, strides) -> int:
        """Flat index of a joint ``kind`` given flat or as one component per agent, range-checked.

        Indices are Python or numpy integers; a bool, float or string is
        refused rather than read as a number.
        """
        if _is_index(value):
            flat = int(value)
            if not 0 <= flat < math.prod(counts):
                raise ModelError(f"joint {kind} index {flat} out of range")
            return flat
        try:
            parts = tuple(value)
        except TypeError:
            raise ModelError(
                f"joint {kind} must be an integer or one integer per agent, got {value!r}"
            ) from None
        for v in parts:
            if not _is_index(v):
                raise ModelError(f"{kind} component {v!r} of {value!r} is not an integer")
        parts = tuple(int(v) for v in parts)
        if len(parts) != self.num_agents:
            raise ModelError(f"joint {kind} needs {self.num_agents} components, got {len(parts)}")
        for i, (v, n) in enumerate(zip(parts, counts)):
            if not 0 <= v < n:
                raise ModelError(f"{kind} {v} out of range for agent {i}")
        return sum(v * s for v, s in zip(parts, strides))

    def joint_action_index(self, action) -> int:
        return self._joint_index("action", action, self.action_counts, self._action_strides)

    def joint_action(self, ja: int) -> tuple[int, ...]:
        out = []
        for size, stride in zip(self.action_counts, self._action_strides):
            out.append((ja // stride) % size)
        return tuple(out)

    def action_names(self, action) -> tuple[str, ...]:
        parts = self.joint_action(self.joint_action_index(action))
        return tuple(self.actions[i][a] for i, a in enumerate(parts))

    def joint_observation_index(self, obs) -> int:
        return self._joint_index("observation", obs, self.observation_counts, self._obs_strides)

    def joint_observation(self, jo: int) -> tuple[int, ...]:
        return self._joint_obs_tuples[jo]

    def observation_names(self, obs) -> tuple[str, ...]:
        parts = self.joint_observation(self.joint_observation_index(obs))
        return tuple(self.observations[i][o] for i, o in enumerate(parts))

    # ---- validation --------------------------------------------------

    def validate(self) -> list[str]:
        """Returns a list of human-readable violations, empty when well formed."""
        problems: list[str] = []
        # NaN fails every comparison below, so non-finite entries are
        # looked for first
        for name, table in (
            ("transition", self.transition),
            ("observation", self.observation),
            ("reward", self.reward),
        ):
            bad = np.argwhere(~np.isfinite(table))
            if bad.size:
                problems.append(f"{name} has a non-finite entry at index {tuple(int(k) for k in bad[0])}")
        # (name, table, row axis, column axis) of each probability table
        tables = (("transition", self.transition, "s", "s'"), ("observation", self.observation, "s'", "jo"))
        for name, table, row, col in tables:
            bad = np.argwhere((table < -PROB_TOL) | (table > 1 + PROB_TOL))
            if bad.size:
                ja, r, c = bad[0]
                problems.append(f"{name} probability out of [0,1] at ja={ja}, {row}={r}, {col}={c}")
        for name, table, row, _ in tables:
            sums = table.sum(axis=2)
            for ja, r in np.argwhere(np.abs(sums - 1.0) > PROB_TOL):
                problems.append(
                    f"{name} row ja={ja} ({'/'.join(self.action_names(int(ja)))}), "
                    f"{row}={r} ({self.states[r]}) sums to {float(sums[ja, r])!r}"
                )
        for seq, kind in ((self.states, "state"), *[(a, f"agent-{i} action") for i, a in enumerate(self.actions)],
                          *[(o, f"agent-{i} observation") for i, o in enumerate(self.observations)]):
            if len(set(seq)) != len(seq):
                problems.append(f"duplicate {kind} names: {seq}")
        return problems

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        return tuple(self.validate())

    def require_valid(self) -> None:
        """Raises ``ModelError`` listing every violation; validates once per instance."""
        if self._problems:
            raise ModelError("invalid model: " + "; ".join(self._problems))

    # ---- belief arithmetic -------------------------------------------

    def _belief_probs(self, belief: BeliefState) -> np.ndarray:
        """``belief.probs``, refused with ``ModelError`` unless it has one entry per state."""
        if belief.num_states != self.num_states:
            raise ModelError(f"belief has {belief.num_states} entries, the model {self.num_states} states")
        return belief.probs

    def propagate(self, belief: BeliefState, action) -> BeliefState:
        """Pushes a belief through the transition table (observations marginalized)."""
        ja = self.joint_action_index(action)
        return BeliefState(self._belief_probs(belief) @ self.transition[ja])

    def observation_probabilities(self, belief: BeliefState, action) -> np.ndarray:
        """Distribution over joint observations after acting from ``belief``.

        The belief is propagated through the transition table first, then
        the observation table (which conditions on the post-transition
        state) is applied, so the result sums to one.
        """
        ja = self.joint_action_index(action)
        post = self._belief_probs(belief) @ self.transition[ja]
        return post @ self.observation[ja]

    def bayes_update(self, belief: BeliefState, action, obs) -> BeliefState:
        """Conditions a belief on a joint observation after a joint action."""
        ja = self.joint_action_index(action)
        jo = self.joint_observation_index(obs)
        post = self._belief_probs(belief) @ self.transition[ja]
        numer = post * self.observation[ja][:, jo]
        denom = float(numer.sum())
        if denom <= PROB_TOL:
            raise ImpossibleEvidenceError(
                f"observation {self.observation_names(jo)} has probability {denom!r} "
                f"after action {self.action_names(ja)}"
            )
        return BeliefState(numer / denom)
