"""How much observation mass partial backups keep, and what that costs.

A partial backup branches only on a per-agent subset of observations.
``epsilon_at`` measures the joint probability mass the best such subsets
capture at one (belief, action), the subsets ``rank_observations``
keeps there; ``epsilon_global`` takes the minimum
over beliefs reachable within the horizon, and ``error_bound`` turns
that into a worst-case value loss for the whole plan.

Exact mode enumerates reachable beliefs depth by depth.  Per depth and
joint action it makes the belief products of, scores, expands and
deduplicates one row block of at most ``_BLOCK_FLOATS`` child floats at
a time, so the working set stays near one block's.  Beliefs are sparse:
in a depth of at least one full block, a block whose rows hold mass on
at most half the states multiplies only those states and the states
they reach under the joint action, and widens its children to every
state only for their keys.  One set of rounded rows (12 decimals) spans
all depths, so each distinct belief is kept, scored and expanded once,
at the shallowest depth that reaches it; it is linked to its parent by
integer arrays, from which the witness history is read back.  A block
is first scored at the few families that were earlier rows' best: a row
that already captures the running minimum or more at one of them cannot
set it, and is not scored at every family.  Sampled mode rolls out
random histories and only estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backup import _capture_matrix, _subset_families, rank_observations
from .errors import CapacityError, ConfigError, require_count, require_seed
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


def epsilon_at(model: DecPomdp, belief: BeliefState, action, max_obs: int) -> float:
    """Best joint observation mass captured by per-agent subsets at (belief, action).

    It is the mass of the selection that ``rank_observations`` makes.
    """
    model.require_valid()
    return rank_observations(model, belief, action, max_obs).captured_mass


def epsilon_global(
    model: DecPomdp,
    max_obs: int,
    mode: str = "exact",
    budget: int = 256,
    seed: int = 0,
    max_beliefs: int = 500_000,
) -> EpsilonReport:
    """Minimum captured observation mass over beliefs that observation histories reach.

    Exact mode enumerates every belief reachable by some action and
    observation history of length < horizon, paired with every next
    action; it is a guarantee but exponential in the horizon.  Each
    distinct belief is scored once, at the shallowest depth that reaches
    it, and ``beliefs_checked`` counts them.  ``max_beliefs`` caps that
    count; it raises ``CapacityError`` as soon as the beliefs kept pass
    the cap, so the cap bounds memory as well as time.  Sampled mode
    instead rolls out ``budget`` random conditioned histories and
    reports the minimum seen, an estimate only.
    """
    model.require_valid()
    if mode not in ("exact", "sampled"):
        raise ConfigError("mode must be 'exact' or 'sampled'")
    max_obs = require_count(max_obs, "max_obs", ConfigError)
    budget = require_count(budget, "budget", ConfigError)
    max_beliefs = require_count(max_beliefs, "max_beliefs", ConfigError)
    if mode == "sampled":
        seed = require_seed(seed, ConfigError)
    horizon = model.horizon
    combos, flat = _subset_families(model.observation_counts, max_obs)
    if mode == "exact":
        best, checked, where = _exact_minimum(model, flat, horizon, max_beliefs)
    else:
        best, checked, where = _sampled_minimum(model, flat, horizon, budget, seed)
    history, ja, belief, fam = where
    return EpsilonReport(
        epsilon=best,
        mode=mode,
        max_obs=max_obs,
        horizon=horizon,
        beliefs_checked=checked,
        witness=EpsilonWitness(tuple(history), ja, tuple(belief.tolist()), combos[fam]),
    )


# floats of (row, joint observation, state) products per row block of
# the exact enumeration (4 MiB), which also sizes the block's belief
# products; box pushing h=8 ran fastest at 2^19, against 2^18 and 2^20
_BLOCK_FLOATS = 1 << 19
# at most this many hint families: each was some scored row's best
_HINT_FAMILIES = 16


def _row_blocks(n: int, size: int) -> list[tuple[int, int]]:
    """Bounds of an n-row depth's blocks; a one-row tail joins the block before it."""
    bounds = [*range(0, max(n - 1, 1), size), n]
    return list(zip(bounds, bounds[1:]))


def _block_products(rows, transition, observation, lo, hi, size, support=None):
    """``rows[lo:hi] @ transition`` and its product with ``observation``, as over all rows.

    BLAS may give a few rows other bits (gemv, small-matrix kernels), so
    a block shorter than ``size`` is cut from the last ``size`` rows'.
    Given the ``support`` of the rows multiplied, only those columns of
    the rows and rows of ``transition`` are multiplied, and only the
    ``reach`` columns of ``transition`` they reach, with those rows of
    ``observation``; every term dropped is an exact zero.  Returns
    (post, q, reach): post has the reach columns only, or every column
    where reach is None, as it is where the support reaches one column,
    since BLAS takes gemv for a one-column product.
    """
    start = min(lo, max(len(rows) - size, 0))
    block, reach = rows[start:hi], None
    if support is not None:
        narrow = transition[support]
        reach = np.flatnonzero(narrow.any(axis=0))
        if len(reach) > 1:
            block, transition, observation = block[:, support], narrow[:, reach], observation[reach]
        else:
            reach = None
    post = block @ transition
    q = post @ observation
    return post[lo - start :], q[lo - start :], reach


def _block_support(block):
    """The states ``block``'s rows hold mass on, or None if that is more than half of them."""
    # a column's sum of absolute values is zero only if every entry is; BLAS
    # adds a tall block's columns several times faster than any(axis=0)
    support = np.flatnonzero(np.abs(block).T @ np.ones(len(block)))
    return support if 2 * len(support) <= block.shape[1] else None


def _state_sums(prods: np.ndarray) -> np.ndarray:
    """Row sums of prods, each added state by state in order.

    numpy adds the rows of the transposed copy term by term but a single
    row pairwise, so a lone row is summed as two copies of itself.
    """
    n = len(prods)
    cols = np.ascontiguousarray((np.repeat(prods, 2, axis=0) if n == 1 else prods).T)
    return cols.sum(axis=0)[:n]


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """Each row's bytes after rounding to 12 decimals; equal keys are one belief."""
    keys = np.round(rows, 12)
    return keys.view(f"V{keys.shape[1] * 8}").ravel().tolist()


def _block_minimum(q, flat, best, hints):
    """The first row of a block whose best capture is below ``best``.

    Returns (capture, row, family), or None if no row is below.  Given a
    ``hints`` list, rows are first scored at those families only: a row
    that captures ``best`` or more at one of them cannot be the first
    minimum, so only the others are scored at every family, and the
    families that were their best join ``hints``.  ``hints=None`` scores
    every row in full, as for a depth that fits in one block.
    """
    pick = None
    if hints:
        pick = np.flatnonzero(_capture_matrix(q, flat[hints]).max(axis=0) < best)
        if not len(pick):
            return None
        if len(pick) == 1:  # numpy sums a one-row capture in another order
            pick = np.append(pick, pick[0] + 1 if pick[0] + 1 < len(q) else pick[0] - 1)
        q = q[pick]
    captures = _capture_matrix(q, flat)
    eps_rows = captures.max(axis=0)
    if hints is not None and len(hints) < _HINT_FAMILIES:
        hints.extend(f for f in np.unique(captures.argmax(axis=0)).tolist() if f not in hints)
        del hints[_HINT_FAMILIES:]
    r = int(eps_rows.argmin())
    if eps_rows[r] >= best:
        return None
    return float(eps_rows[r]), r if pick is None else int(pick[r]), int(captures[:, r].argmax())


def _exact_minimum(model, flat, horizon, max_beliefs):
    """Enumerate reachable beliefs one depth at a time, in row blocks.

    Per depth, joint action and row block, in (parent row, observation)
    order, ``rows[lo:hi] @ T[ja]`` and its product with ``O[ja]`` give
    the block's captures, children and their deduplication; the
    products have the whole depth's bits (``_block_products``).  One
    set of rounded rows (12 decimals) spans all depths, so a depth keeps
    only beliefs no shallower depth reached, at their first occurrence in
    (action, parent row, observation) order, and per row the parent row,
    action and observation that reached it; the witness history is
    walked back through those.  A belief's captures do not depend on its
    depth and its first copy has the most steps left, so no belief is
    lost.  The set is freed once the last depth's rows are built, and the
    enumeration stops at a depth that keeps no new belief.  The cap is
    checked after every block, counting the next depth's rows kept so
    far.

    A depth of at least ``size`` rows first finds each block's support,
    the states its rows hold mass on, once for all joint actions.  A
    block whose support is at most half the states multiplies only the
    support's columns of its rows and rows of ``T[ja]``, and keeps the
    columns of ``T[ja]`` they reach and those rows of ``O[ja]``; its
    children are weighted, summed and normalised on the reached columns
    and widened to every state for their keys.  The terms dropped are
    exact zeros, and on box pushing BLAS adds the others in the same
    order, so the report is the dense products' bit for bit (README,
    exact mode, names the product columns where OpenBLAS's small-matrix
    kernels add them in another order).  Shorter depths and wider blocks
    multiply the dense matrices.
    """
    obs_t = np.ascontiguousarray(model.observation.transpose(0, 2, 1))
    num_states, num_obs = len(model.states), model.num_joint_observations
    size = max(2, _BLOCK_FLOATS // (num_obs * num_states))
    rows = model.initial_belief.probs[None, :]
    seen = set(_row_keys(rows))
    links = []  # per depth after the first: (parent row, ja, jo) arrays
    hints: list[int] = []
    checked, best = 0, np.inf
    for depth in range(horizon):
        checked += len(rows)
        spans = _row_blocks(len(rows), size)
        supports = [None] * len(spans)
        if len(rows) >= size:  # shorter depths keep the dense products
            supports = [_block_support(rows[min(lo, len(rows) - size) : hi]) for lo, hi in spans]
        kept, blocks = 0, []
        for ja in range(model.num_joint_actions):
            for (lo, hi), support in zip(spans, supports):
                post, q, reach = _block_products(
                    rows, model.transition[ja], model.observation[ja], lo, hi, size, support
                )
                found = _block_minimum(q, flat, best, hints if len(spans) > 1 else None)
                if found is not None:
                    best, r, fam = found
                    best_where = (depth, lo + r, ja, fam)
                    best_belief = rows[lo + r].copy()
                if depth == horizon - 1:
                    continue
                # q adds the same terms as the mass in another order, so the
                # two agree to rounding and q > tol / 2 keeps every pair whose
                # mass is > tol.
                parent, jo = np.nonzero(q > PROB_TOL / 2)
                prods = post[parent]
                prods *= obs_t[ja][jo] if reach is None else obs_t[ja][:, reach][jo]
                parent += lo
                mass = _state_sums(prods)
                live = np.flatnonzero(mass > PROB_TOL)
                children = prods[live]
                children /= mass[live, None]
                if reach is not None:
                    wide = np.zeros((len(live), num_states))
                    wide[:, reach] = children
                    children = wide
                fresh = []
                for i, key in enumerate(_row_keys(children)):
                    if key not in seen:
                        seen.add(key)
                        fresh.append(i)
                kept += len(fresh)
                if checked + kept > max_beliefs:
                    raise CapacityError(
                        f"exact reachability needs more than {max_beliefs} beliefs; "
                        "use sampled mode or raise max_beliefs"
                    )
                fresh = np.array(fresh, dtype=np.intp)
                chosen = live[fresh]
                blocks.append((children[fresh], parent[chosen], np.full(len(chosen), ja), jo[chosen]))
        if depth == horizon - 2:
            seen.clear()  # the last depth builds no children
        if not kept:
            break
        rows, *link = (np.concatenate(part) for part in zip(*blocks))
        links.append(link)
    depth, r, ja, fam = best_where
    history = []
    for parent, jas, jos in reversed(links[:depth]):
        history.append((int(jas[r]), int(jos[r])))
        r = int(parent[r])
    return best, checked, (history[::-1], ja, best_belief, fam)


def _sampled_minimum(model, flat, horizon, budget, seed):
    """Roll out ``budget`` random conditioned histories; the first is empty."""
    num_ja = model.num_joint_actions
    rng = np.random.default_rng(seed)
    best, checked = np.inf, 0
    for rollout in range(budget):
        length = int(rng.integers(horizon)) if rollout else 0
        belief = model.initial_belief
        history = []
        for _ in range(length):
            ja = int(rng.integers(num_ja))
            probs = model.observation_probabilities(belief, ja)
            total = probs.sum()
            if total <= PROB_TOL:
                break
            jo = int(rng.choice(model.num_joint_observations, p=probs / total))
            belief = model.bayes_update(belief, ja, jo)
            history.append((ja, jo))
        else:
            checked += 1
            q = np.stack([model.observation_probabilities(belief, ja) for ja in range(num_ja)])
            captures = _capture_matrix(q, flat)
            eps_rows = captures.max(axis=0)
            ja = int(eps_rows.argmin())
            if eps_rows[ja] < best:
                best = float(eps_rows[ja])
                where = (history, ja, belief.probs, int(captures[:, ja].argmax()))
    return best, checked, where


def error_bound(model: DecPomdp, epsilon: float) -> float:
    """Worst-case total value lost to partial backups capturing mass >= epsilon.

    Every backup level can misplace at most (1 - epsilon) of the
    observation mass, each worth at most the full reward span per
    remaining step.  ``improved_mbdp`` keeps the family ``epsilon_at``
    measures, but at heuristic beliefs with observations marginalized,
    which ``epsilon_global`` does not enumerate; there the bound is not
    yet a guarantee for its plans.
    """
    model.require_valid()
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError("epsilon must be in [0, 1]")
    span = model.reward_max - model.reward_min
    return model.horizon * model.horizon * (1.0 - epsilon) * span
