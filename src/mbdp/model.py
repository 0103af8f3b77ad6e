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
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ImpossibleEvidenceError, ModelError

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
            raise ModelError(f"belief has a negative entry: {arr.min()!r}")
        if abs(float(arr.sum()) - 1.0) > PROB_TOL:
            raise ModelError(f"belief sums to {arr.sum()!r}, not 1")
        arr = np.clip(arr, 0.0, None)  # remove rounding dust
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @staticmethod
    def point_mass(state: int, num_states: int) -> "BeliefState":
        probs = np.zeros(num_states)
        probs[state] = 1.0
        return BeliefState(probs)

    @staticmethod
    def uniform(num_states: int) -> "BeliefState":
        return BeliefState(np.full(num_states, 1.0 / num_states))

    @property
    def num_states(self) -> int:
        return self.probs.size

    def most_likely_state(self) -> int:
        # argmax takes the lowest index on ties
        return int(np.argmax(self.probs))


def _mixed_radix_strides(sizes: Sequence[int]) -> tuple[int, ...]:
    strides = []
    acc = 1
    for size in reversed(sizes):
        strides.append(acc)
        acc *= size
    return tuple(reversed(strides))


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
        for i, names in enumerate(self.actions):
            if len(names) == 0:
                raise ModelError(f"agent {i} has an empty action set")
        for i, names in enumerate(self.observations):
            if len(names) == 0:
                raise ModelError(f"agent {i} has an empty observation set")
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "actions", tuple(tuple(a) for a in self.actions))
        object.__setattr__(self, "observations", tuple(tuple(o) for o in self.observations))

        num_s = len(self.states)
        num_ja = int(np.prod([len(a) for a in self.actions]))
        num_jo = int(np.prod([len(o) for o in self.observations]))
        transition = _frozen(self.transition)
        observation = _frozen(self.observation)
        reward = _frozen(self.reward)
        if transition.shape != (num_ja, num_s, num_s):
            raise ModelError(f"transition shape {transition.shape} != {(num_ja, num_s, num_s)}")
        if observation.shape != (num_ja, num_s, num_jo):
            raise ModelError(f"observation shape {observation.shape} != {(num_ja, num_s, num_jo)}")
        if reward.shape != (num_ja, num_s, num_s):
            raise ModelError(f"reward shape {reward.shape} != {(num_ja, num_s, num_s)}")
        if not np.all(np.isfinite(reward)):
            raise ModelError("reward table has non-finite entries")
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "observation", observation)
        object.__setattr__(self, "reward", reward)
        if not isinstance(self.initial_belief, BeliefState):
            object.__setattr__(self, "initial_belief", BeliefState(np.asarray(self.initial_belief)))
        if self.initial_belief.num_states != num_s:
            raise ModelError("initial belief length does not match the state count")
        if self.horizon < 1:
            raise ModelError("horizon must be >= 1")

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

    def joint_action_index(self, action) -> int:
        if isinstance(action, (int, np.integer)):
            ja = int(action)
            if not 0 <= ja < self.num_joint_actions:
                raise ModelError(f"joint action index {ja} out of range")
            return ja
        parts = tuple(int(a) for a in action)
        if len(parts) != self.num_agents:
            raise ModelError(f"joint action needs {self.num_agents} components, got {len(parts)}")
        for i, (a, n) in enumerate(zip(parts, self.action_counts)):
            if not 0 <= a < n:
                raise ModelError(f"action {a} out of range for agent {i}")
        return sum(a * s for a, s in zip(parts, self._action_strides))

    def joint_action(self, ja: int) -> tuple[int, ...]:
        out = []
        for size, stride in zip(self.action_counts, self._action_strides):
            out.append((ja // stride) % size)
        return tuple(out)

    def action_names(self, action) -> tuple[str, ...]:
        parts = self.joint_action(self.joint_action_index(action))
        return tuple(self.actions[i][a] for i, a in enumerate(parts))

    def joint_observation_index(self, obs) -> int:
        if isinstance(obs, (int, np.integer)):
            jo = int(obs)
            if not 0 <= jo < self.num_joint_observations:
                raise ModelError(f"joint observation index {jo} out of range")
            return jo
        parts = tuple(int(o) for o in obs)
        if len(parts) != self.num_agents:
            raise ModelError(f"joint observation needs {self.num_agents} components, got {len(parts)}")
        for i, (o, n) in enumerate(zip(parts, self.observation_counts)):
            if not 0 <= o < n:
                raise ModelError(f"observation {o} out of range for agent {i}")
        return sum(o * s for o, s in zip(parts, self._obs_strides))

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
            ("initial belief", self.initial_belief.probs),
        ):
            bad = np.argwhere(~np.isfinite(table))
            if bad.size:
                problems.append(f"{name} has a non-finite entry at index {tuple(int(k) for k in bad[0])}")
        if np.any(self.transition < -PROB_TOL) or np.any(self.transition > 1 + PROB_TOL):
            bad = np.argwhere((self.transition < -PROB_TOL) | (self.transition > 1 + PROB_TOL))[0]
            problems.append(f"transition probability out of [0,1] at ja={bad[0]}, s={bad[1]}, s'={bad[2]}")
        if np.any(self.observation < -PROB_TOL) or np.any(self.observation > 1 + PROB_TOL):
            bad = np.argwhere((self.observation < -PROB_TOL) | (self.observation > 1 + PROB_TOL))[0]
            problems.append(f"observation probability out of [0,1] at ja={bad[0]}, s'={bad[1]}, jo={bad[2]}")
        tsums = self.transition.sum(axis=2)
        for ja, s in np.argwhere(np.abs(tsums - 1.0) > PROB_TOL):
            problems.append(
                f"transition row ja={ja} ({'/'.join(self.action_names(int(ja)))}), "
                f"s={s} ({self.states[s]}) sums to {tsums[ja, s]!r}"
            )
        osums = self.observation.sum(axis=2)
        for ja, s2 in np.argwhere(np.abs(osums - 1.0) > PROB_TOL):
            problems.append(
                f"observation row ja={ja} ({'/'.join(self.action_names(int(ja)))}), "
                f"s'={s2} ({self.states[s2]}) sums to {osums[ja, s2]!r}"
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

    def propagate(self, belief: BeliefState, action) -> BeliefState:
        """Pushes a belief through the transition table (observations marginalized)."""
        ja = self.joint_action_index(action)
        return BeliefState(belief.probs @ self.transition[ja])

    def observation_probabilities(self, belief: BeliefState, action) -> np.ndarray:
        """Distribution over joint observations after acting from ``belief``.

        The belief is propagated through the transition table first, then
        the observation table (which conditions on the post-transition
        state) is applied, so the result sums to one.
        """
        ja = self.joint_action_index(action)
        post = belief.probs @ self.transition[ja]
        return post @ self.observation[ja]

    def bayes_update(self, belief: BeliefState, action, obs) -> BeliefState:
        """Conditions a belief on a joint observation after a joint action."""
        ja = self.joint_action_index(action)
        jo = self.joint_observation_index(obs)
        post = belief.probs @ self.transition[ja]
        numer = post * self.observation[ja][:, jo]
        denom = float(numer.sum())
        if denom <= PROB_TOL:
            raise ImpossibleEvidenceError(
                f"observation {self.observation_names(jo)} has probability {denom!r} "
                f"after action {self.action_names(ja)}"
            )
        return BeliefState(numer / denom)
