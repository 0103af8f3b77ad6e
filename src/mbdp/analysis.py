"""How much observation mass partial backups keep, and what that costs.

A partial backup branches only on a per-agent subset of observations.
``epsilon_at`` measures the joint probability mass the best such subsets
capture at one (belief, action); ``epsilon_global`` takes the minimum
over beliefs reachable within the horizon (exactly, or sampled), and
``error_bound`` turns that into a worst-case value loss for the whole
plan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError
from .model import PROB_TOL, BeliefState, DecPomdp


@dataclass(frozen=True)
class EpsilonWitness:
    """Where the minimum was found: a history, an action, and the subsets."""

    history: tuple[tuple[int, int], ...]
    action: int
    belief: tuple[float, ...]
    subsets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EpsilonReport:
    epsilon: float
    mode: str
    max_obs: int
    horizon: int
    beliefs_checked: int
    witness: EpsilonWitness | None

    @property
    def guaranteed(self) -> bool:
        """Sampled reports only estimate the minimum; they never bound it."""
        return self.mode == "exact"


def _subset_families(model: DecPomdp, max_obs: int):
    """All per-agent observation subsets of the kept size, with flat indices."""
    sizes = [min(max_obs, c) for c in model.observation_counts]
    per_agent = [
        list(itertools.combinations(range(count), size))
        for count, size in zip(model.observation_counts, sizes)
    ]
    families = []
    for combo in itertools.product(*per_agent):
        flat = [
            model.joint_observation_index(jo)
            for jo in itertools.product(*combo)
        ]
        families.append((combo, np.asarray(flat, dtype=np.int64)))
    return families


def _capture_matrix(q: np.ndarray, families) -> np.ndarray:
    """Captured mass per (family, belief row) for joint obs probabilities q."""
    return np.stack([q[:, flat].sum(axis=1) for _, flat in families])


def epsilon_at(
    model: DecPomdp, belief: BeliefState, action, max_obs: int
) -> float:
    """Best joint observation mass captured by per-agent subsets at (belief, action)."""
    model.require_valid()
    if max_obs < 1:
        raise ConfigError("max_obs must be >= 1")
    ja = action if isinstance(action, (int, np.integer)) else model.joint_action_index(action)
    q = model.observation_probabilities(belief, int(ja))[None, :]
    captures = _capture_matrix(q, _subset_families(model, max_obs))
    return float(captures.max())


def epsilon_global(
    model: DecPomdp,
    max_obs: int,
    horizon: int | None = None,
    mode: str = "exact",
    budget: int = 256,
    seed: int = 0,
    max_beliefs: int = 500_000,
) -> EpsilonReport:
    """Minimum captured observation mass over beliefs the planner can meet.

    Exact mode enumerates every belief reachable by some action and
    observation history of length < horizon, paired with every next
    action; it is a guarantee but exponential in the horizon.  Sampled
    mode instead rolls out ``budget`` random conditioned histories and
    reports the minimum seen, an estimate only.
    """
    model.require_valid()
    if mode not in ("exact", "sampled"):
        raise ConfigError("mode must be 'exact' or 'sampled'")
    if max_obs < 1:
        raise ConfigError("max_obs must be >= 1")
    horizon = model.horizon if horizon is None else horizon
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    families = _subset_families(model, max_obs)
    num_ja = model.num_joint_actions
    num_jo = model.num_joint_observations

    best = np.inf
    best_where = None  # (entry, ja, family index)

    if mode == "exact":
        # entries: (belief row, parent entry or None, (ja, jo) that led here)
        entries = [(model.initial_belief.probs, None, None)]
        checked = 0
        level = [0]
        for depth in range(horizon):
            rows = np.stack([entries[i][0] for i in level])
            checked += len(level)
            if checked > max_beliefs:
                raise CapacityError(
                    f"exact reachability needs more than {max_beliefs} beliefs; "
                    "use sampled mode or raise max_beliefs"
                )
            next_level = []
            for ja in range(num_ja):
                post = rows @ model.transition[ja]
                q = post @ model.observation[ja]
                captures = _capture_matrix(q, families)
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
                    for jo in range(num_jo):
                        m = mass[r_i, jo]
                        if m <= PROB_TOL:
                            continue
                        child = numer[r_i, :, jo] / m
                        entries.append((child, level[r_i], (ja, jo)))
                        next_level.append(len(entries) - 1)
            # identical beliefs only repeat work, drop them
            seen: dict[bytes, int] = {}
            deduped = []
            for idx in next_level:
                key = np.round(entries[idx][0], 12).tobytes()
                if key not in seen:
                    seen[key] = idx
                    deduped.append(idx)
            level = deduped
            if not level:
                break
        witness = None
        if best_where is not None:
            entry_idx, ja, fam_idx = best_where
            history = []
            cursor = entry_idx
            while entries[cursor][1] is not None:
                history.append(entries[cursor][2])
                cursor = entries[cursor][1]
            witness = EpsilonWitness(
                history=tuple(reversed(history)),
                action=ja,
                belief=tuple(float(x) for x in entries[entry_idx][0]),
                subsets=families[fam_idx][0],
            )
        return EpsilonReport(
            epsilon=best,
            mode="exact",
            max_obs=max_obs,
            horizon=horizon,
            beliefs_checked=checked,
            witness=witness,
        )

    rng = np.random.default_rng(seed)
    checked = 0
    witness = None
    for rollout in range(budget):
        length = int(rng.integers(horizon)) if rollout else 0
        belief = model.initial_belief
        history = []
        ok = True
        for _ in range(length):
            ja = int(rng.integers(num_ja))
            probs = model.observation_probabilities(belief, ja)
            total = probs.sum()
            if total <= PROB_TOL:
                ok = False
                break
            jo = int(rng.choice(num_jo, p=probs / total))
            belief = model.bayes_update(belief, ja, jo)
            history.append((ja, jo))
        if not ok:
            continue
        checked += 1
        q = np.stack(
            [model.observation_probabilities(belief, ja) for ja in range(num_ja)]
        )
        captures = _capture_matrix(q, families)
        fam = captures.argmax(axis=0)
        eps_rows = captures.max(axis=0)
        ja = int(eps_rows.argmin())
        if eps_rows[ja] < best:
            best = float(eps_rows[ja])
            witness = EpsilonWitness(
                history=tuple(history),
                action=ja,
                belief=tuple(float(x) for x in belief.probs),
                subsets=families[int(fam[ja])][0],
            )
    return EpsilonReport(
        epsilon=best,
        mode="sampled",
        max_obs=max_obs,
        horizon=horizon,
        beliefs_checked=checked,
        witness=witness,
    )


def error_bound(model: DecPomdp, epsilon: float, horizon: int | None = None) -> float:
    """Worst-case total value lost to partial backups capturing mass >= epsilon.

    Every backup level can misplace at most (1 - epsilon) of the
    observation mass, each worth at most the full reward span per
    remaining step.
    """
    model.require_valid()
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError("epsilon must be in [0, 1]")
    horizon = model.horizon if horizon is None else horizon
    span = model.reward_max - model.reward_min
    return horizon * horizon * (1.0 - epsilon) * span
