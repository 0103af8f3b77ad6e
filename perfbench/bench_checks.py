"""Correctness checks computed apart from the mbdp package.

Everything here reads only the model's dense tables (transition,
observation, reward, initial belief) and the returned policy trees; it
calls no solver, evaluator or bound code from the package.  Each
``check_*`` function returns a list of human-readable problems, empty
when the check passes.
"""

from __future__ import annotations

import itertools

import numpy as np

# every reported value must match the independent evaluator this closely
VALUE_TOL = 1e-9
# simulated means must lie within this many standard errors of the exact value
SIM_SIGMAS = 4.0


def _joint_index(counts, parts) -> int:
    """Agent-0-major mixed-radix index of a per-agent component tuple."""
    index = 0
    for count, part in zip(counts, parts):
        index = index * count + part
    return index


def policy_value_vector(model, trees) -> np.ndarray:
    """State-indexed exact value of per-agent policy trees.

    A depth-first walk over the policy DAG, memoized on the identity of
    the joint node tuple, so shared subtrees are evaluated once.
    """
    transition = np.asarray(model.transition)
    reward = np.asarray(model.reward)
    observation = np.asarray(model.observation)
    act_counts = [len(a) for a in model.actions]
    obs_tuples = list(itertools.product(*(range(len(o)) for o in model.observations)))
    memo: dict[tuple[int, ...], np.ndarray] = {}

    def value(nodes) -> np.ndarray:
        key = tuple(id(n) for n in nodes)
        if key in memo:
            return memo[key]
        ja = _joint_index(act_counts, [n.action for n in nodes])
        vec = (transition[ja] * reward[ja]).sum(axis=1)
        if nodes[0].children:
            future = np.zeros(transition.shape[1])
            for jo, local in enumerate(obs_tuples):
                kids = tuple(n.children[o] for n, o in zip(nodes, local))
                future += observation[ja][:, jo] * value(kids)
            vec = vec + transition[ja] @ future
        memo[key] = vec
        return vec

    # the trees themselves keep every memoized node alive, so ids stay unique
    return value(tuple(trees))


def policy_value(model, trees) -> float:
    """Exact value of per-agent policy trees at the model's initial belief."""
    return float(np.asarray(model.initial_belief.probs) @ policy_value_vector(model, trees))


def mdp_value(model, horizon: int) -> float:
    """Optimal value of the underlying fully observable MDP at the initial belief.

    No decentralized policy can do better, so it caps every planner value.
    """
    transition = np.asarray(model.transition)
    reward = np.asarray(model.reward)
    immediate = (transition * reward).sum(axis=2)
    values = np.zeros(transition.shape[1])
    for _ in range(horizon):
        values = (immediate + transition @ values).max(axis=0)
    return float(np.asarray(model.initial_belief.probs) @ values)


def uniform_random_value(model, horizon: int) -> float:
    """Expected return of choosing every joint action uniformly at random."""
    transition = np.asarray(model.transition)
    immediate = (transition * np.asarray(model.reward)).sum(axis=2).mean(axis=0)
    mean_transition = transition.mean(axis=0)
    occupancy = np.asarray(model.initial_belief.probs, dtype=float)
    total = 0.0
    for _ in range(horizon):
        total += float(occupancy @ immediate)
        occupancy = occupancy @ mean_transition
    return total


def replay_belief(model, history) -> np.ndarray:
    """The belief after a sequence of (joint action, joint observation) pairs."""
    belief = np.asarray(model.initial_belief.probs, dtype=float)
    for ja, jo in history:
        numer = (belief @ model.transition[ja]) * model.observation[ja][:, jo]
        belief = numer / numer.sum()
    return belief


def captured_mass(model, belief, ja: int, subsets) -> float:
    """Joint observation mass inside the cross product of per-agent subsets."""
    probs = (np.asarray(belief) @ model.transition[ja]) @ model.observation[ja]
    obs_counts = [len(o) for o in model.observations]
    return float(
        sum(probs[_joint_index(obs_counts, jo)] for jo in itertools.product(*subsets))
    )


def best_captured_mass(model, belief, ja: int, max_obs: int) -> float:
    """Largest mass any choice of per-agent subsets of size max_obs captures."""
    per_agent = [
        list(itertools.combinations(range(len(o)), min(max_obs, len(o))))
        for o in model.observations
    ]
    return max(
        captured_mass(model, belief, ja, combo) for combo in itertools.product(*per_agent)
    )


def loss_bound(model, epsilon: float, horizon: int) -> float:
    """Worst-case loss of partial backups: H^2 (1 - epsilon) (max reward - min reward)."""
    span = float(np.max(model.reward)) - float(np.min(model.reward))
    return horizon * horizon * (1.0 - epsilon) * span


# ---- checks ------------------------------------------------------------


def check_value(label: str, reported: float, independent: float) -> list[str]:
    if abs(reported - independent) <= VALUE_TOL:
        return []
    return [f"{label}: reported value {reported!r} != independent {independent!r}"]


def check_sandwich(label: str, lower: float, value: float, upper: float) -> list[str]:
    """uniform-random value <= value <= underlying-MDP value."""
    problems = []
    if value < lower - VALUE_TOL:
        problems.append(f"{label}: value {value!r} below the uniform-random value {lower!r}")
    if value > upper + VALUE_TOL:
        problems.append(f"{label}: value {value!r} above the underlying-MDP value {upper!r}")
    return problems


def check_not_above(label: str, value: float, optimum: float) -> list[str]:
    if value <= optimum + VALUE_TOL:
        return []
    return [f"{label}: planner value {value!r} exceeds the exact optimum {optimum!r}"]


def check_simulation(label: str, mean: float, std_error: float, exact: float) -> list[str]:
    if abs(mean - exact) <= SIM_SIGMAS * std_error:
        return []
    return [
        f"{label}: simulated mean {mean!r} is more than {SIM_SIGMAS} standard errors "
        f"({std_error!r}) from the exact value {exact!r}"
    ]


def check_published(label: str, value: float, published: float, tol: float) -> list[str]:
    if abs(value - published) <= tol + VALUE_TOL:
        return []
    return [f"{label}: value {value!r} is not within {tol} of the published {published}"]


def check_witness(
    label: str,
    model,
    horizon: int,
    max_obs: int,
    epsilon: float,
    witness,
    bound: float,
) -> list[str]:
    """Replays the witness history, recomputes its captured mass and the bound.

    ``witness`` has the fields of ``mbdp.EpsilonWitness``: history,
    action, belief and subsets.
    """
    problems = []
    if witness is None:
        return [f"{label}: no witness returned"]
    if len(witness.history) >= horizon:
        problems.append(f"{label}: witness history of {len(witness.history)} steps exceeds the horizon")
    belief = replay_belief(model, witness.history)
    if np.max(np.abs(belief - np.asarray(witness.belief))) > VALUE_TOL:
        problems.append(f"{label}: witness belief does not follow from its history")
    sizes = [len(s) for s in witness.subsets]
    wanted = [min(max_obs, len(o)) for o in model.observations]
    if sizes != wanted:
        problems.append(f"{label}: witness subset sizes {sizes} != {wanted}")
    mass = captured_mass(model, belief, witness.action, witness.subsets)
    if abs(mass - epsilon) > VALUE_TOL:
        problems.append(f"{label}: witness captures {mass!r}, epsilon is {epsilon!r}")
    best = best_captured_mass(model, belief, witness.action, max_obs)
    if abs(best - epsilon) > VALUE_TOL:
        problems.append(f"{label}: best subsets at the witness capture {best!r}, epsilon is {epsilon!r}")
    want = loss_bound(model, epsilon, horizon)
    if abs(want - bound) > VALUE_TOL * max(1.0, abs(want)):
        problems.append(f"{label}: error bound {bound!r} != formula {want!r}")
    return problems
