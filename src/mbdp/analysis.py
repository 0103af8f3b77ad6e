"""How much observation mass partial backups keep, and what that costs.

A partial backup branches only on a per-agent subset of observations.
``epsilon_at`` measures the joint probability mass the best such subsets
capture at one (belief, action), the subsets ``rank_observations``
keeps there; ``epsilon_global`` takes the minimum
over beliefs reachable within the horizon, and ``error_bound`` turns
that into a worst-case value loss for the whole plan.

Exact mode enumerates reachable beliefs depth by depth, one block at a
time.  A block is a range of joint actions over a span of the depth's
rows; it makes its belief products, scores them, and builds and
deduplicates its children within ``_BLOCK_FLOATS`` child floats, so the
working set stays near one block's.  A depth of at least one block's
rows goes one joint action per row block.  A shorter depth is one span
whose joint actions go in groups, each scored and expanded in one pass,
which saves most of the numpy calls on short depths.  Beliefs are
sparse: in a depth of at least one full block, a block whose rows hold
mass on at most half the states multiplies only those states and the
states they reach under the joint action, and widens its children to
every state only for their keys.  One set of rounded rows (12
decimals) spans all depths, so each distinct belief is kept, scored and
expanded once, at the shallowest depth that reaches it; it is linked to
its parent by integer arrays, from which the witness history is read
back.  A row block of a long depth is first scored at the few families
that were earlier rows' best: a row that already captures the running
minimum or more at one of them cannot set it, and is not scored at
every family.  Sampled mode rolls out random histories and only
estimates.
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
    count; it raises ``CapacityError`` as soon as a block of the
    enumeration takes the beliefs kept past the cap, so the cap bounds
    memory as well as time.  Sampled mode
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
# at most this many (row, joint observation) pairs, the candidate
# children, in a group of joint actions.  On the broadcast channel (4
# states) a group's children then take at most 128 KiB, glibc's default
# mmap threshold; past it each large array is mapped afresh, with its
# page faults, and raises the threshold, which fragments the heap.  At
# 2^13 pairs perfbench's mabc-full bound stage took 1.5 MB more RSS, and
# with no limit its 4,960-row h=6 depth as one 79,360-pair group ran
# 7-20% slower, with twice the page faults in that depth.
_GROUP_PAIRS = 1 << 12


def _row_blocks(n: int, size: int) -> list[tuple[int, int]]:
    """Bounds of an n-row depth's blocks; a one-row tail joins the block before it."""
    bounds = [*range(0, max(n - 1, 1), size), n]
    return list(zip(bounds, bounds[1:]))


def _block_products(block, transition, observation, support=None):
    """``block @ T`` and its product with ``O`` for a joint-action range's stacked T and O.

    Returns (post, q, reach), post and q with one slice per joint action.
    Each slice is the same 2-D BLAS call as ``block @ T[ja]``, so it has
    that product's bits.  Given the ``support`` of a one-joint-action
    block, only those columns of the rows and rows of ``T[ja]`` are
    multiplied, and only the ``reach`` columns of ``T[ja]`` they reach,
    with those rows of ``O[ja]``; every term dropped is an exact zero.
    post has the reach columns only, or every column where reach is
    None, as it is where the support reaches one column, since BLAS
    takes gemv for a one-column product.
    """
    reach = None
    if support is not None:
        narrow = transition[0][support]
        reach = np.flatnonzero(narrow.any(axis=0))
        if len(reach) > 1:
            block, transition = block[:, support], narrow[:, reach][None]
            observation = observation[0][reach][None]
        else:
            reach = None
    post = np.matmul(block, transition)
    return post, np.matmul(post, observation), reach


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


def _block_minimum(q, flat, best, hints=None, lone=False):
    """The first row of a block whose best capture is below ``best``.

    Returns (capture, row, family), or None if no row is below.  Given a
    ``hints`` list, rows are first scored at those families only: a row
    that captures ``best`` or more at one of them cannot be the first
    minimum, so only the others are scored at every family, and the
    families that were their best join ``hints``.  ``hints=None`` scores
    every row in full, as for a depth shorter than one block; ``lone``
    scores each row as a lone row, as for a one-row depth.
    """
    pick = None
    if hints:
        pick = np.flatnonzero(_capture_matrix(q, flat[hints]).max(axis=0) < best)
        if not len(pick):
            return None
        if len(pick) == 1:  # numpy sums a one-row capture in another order
            pick = np.append(pick, pick[0] + 1 if pick[0] + 1 < len(q) else pick[0] - 1)
        q = q[pick]
    captures = (_lone_captures if lone else _capture_matrix)(q, flat)
    eps_rows = captures.max(axis=0)
    if hints is not None and len(hints) < _HINT_FAMILIES:
        hints.extend(f for f in np.unique(captures.argmax(axis=0)).tolist() if f not in hints)
        del hints[_HINT_FAMILIES:]
    r = int(eps_rows.argmin())
    if eps_rows[r] >= best:
        return None
    return float(eps_rows[r]), r if pick is None else int(pick[r]), int(captures[:, r].argmax())


def _depth_units(rows, size, group, num_ja):
    """One depth's blocks, ((ja_lo, ja_hi), (lo, hi), block, support), in order.

    Blocks run in (joint action, row) order.  A depth of fewer than
    ``size`` rows is one span, and its joint actions go ``group // n``
    (at least one) to a block.  A longer depth goes one joint action at
    a time over the row blocks of ``_row_blocks``, each with its
    support, or None, found once for all joint actions.  ``block`` holds
    the rows multiplied, of which the last ``hi - lo`` are the span's: a
    block shorter than ``size`` is cut from the last ``size`` rows',
    since BLAS may give a short block's rows other bits.
    """
    n = len(rows)
    if n < size:
        step = max(1, group // n)
        return [((a, min(a + step, num_ja)), (0, n), rows, None) for a in range(0, num_ja, step)]
    spans = []
    for lo, hi in _row_blocks(n, size):
        block = rows[min(lo, n - size) : hi]
        spans.append(((lo, hi), block, _block_support(block)))
    return [((ja, ja + 1), *span) for ja in range(num_ja) for span in spans]


def _lone_captures(q, flat):
    """``_capture_matrix`` of each row of q as if it were scored on its own.

    numpy adds a lone row's kept observations along one contiguous run,
    in another order than a row's among others; a (row, family, kept
    observation) gather summed along its last axis adds every row so.
    """
    captures = np.empty((len(flat), len(q)))
    step = max(1, (1 << 17) // (flat.shape[1] * len(q)))
    for f in range(0, len(flat), step):
        captures[f : f + step] = q.take(flat[f : f + step], axis=1).sum(axis=2).T
    return captures


def _exact_minimum(model, flat, horizon, max_beliefs):
    """Enumerate reachable beliefs one depth at a time, in blocks.

    A depth's unit of work is a block, a (joint-action range, row span)
    pair (``_depth_units``).  Per block, in (joint action, parent row,
    observation) order, ``rows @ T[ja]`` and its product with ``O[ja]``
    give the block's captures, children and their deduplication; the
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

    A depth of fewer than ``size`` rows is one span whose joint actions
    go in groups of at most ``size`` rows and ``_GROUP_PAIRS`` (row,
    joint observation) pairs.  A group is scored in full: its first
    minimum in (joint action, row) order is the first of a flat argmin,
    and a one-row depth's rows are scored as lone rows, whose captures
    numpy sums in another order (``_lone_captures``).  Then one pass
    builds its children, each linked to its joint action.  A longer
    depth goes one joint action per row block, first scored at the hint
    families.  Its blocks' supports are found once; a block whose
    support is at most half the states multiplies only the support's
    columns of its rows and rows of ``T[ja]``, and keeps the columns of
    ``T[ja]`` they reach and those rows of ``O[ja]``; its children are
    weighted, summed and normalised on the reached columns and widened
    to every state for their keys.  The terms dropped are exact zeros,
    and on box pushing BLAS adds the others in the same order, so the
    report is the dense products' bit for bit (README, exact mode, names
    the product columns where OpenBLAS's small-matrix kernels add them
    in another order).
    """
    obs_t = np.ascontiguousarray(model.observation.transpose(0, 2, 1))
    num_states, num_obs = len(model.states), model.num_joint_observations
    size = max(2, _BLOCK_FLOATS // (num_obs * num_states))
    group = min(size, _GROUP_PAIRS // num_obs)
    rows = model.initial_belief.probs[None, :]
    seen = set(_row_keys(rows))
    links = []  # per depth after the first: (parent row, ja, jo) arrays
    hints: list[int] = []
    checked, best = 0, np.inf
    for depth in range(horizon):
        n = len(rows)
        checked += n
        units = _depth_units(rows, size, group, model.num_joint_actions)
        # hints pay off only over a depth's several row blocks
        block_hints = hints if len(units) > model.num_joint_actions else None
        kept, blocks = 0, []
        for (a, b), (lo, hi), block, support in units:
            post, q, reach = _block_products(
                block, model.transition[a:b], model.observation[a:b], support
            )
            cut = len(block) - (hi - lo)
            post, q = post[:, cut:], q[:, cut:]
            found = _block_minimum(q.reshape(-1, num_obs), flat, best, block_hints, lone=n == 1)
            if found is not None:
                best, i, fam = found
                j, r = divmod(i, hi - lo)
                best_where = (depth, lo + r, a + j, fam)
                best_belief = rows[lo + r].copy()
            if depth == horizon - 1:
                continue
            # q adds the same terms as the mass in another order, so the
            # two agree to rounding and q > tol / 2 keeps every pair whose
            # mass is > tol.
            ja, parent, jo = np.nonzero(q > PROB_TOL / 2)
            prods = post[ja, parent]
            prods *= (obs_t[a:b] if reach is None else obs_t[a:b, :, reach])[ja, jo]
            mass = _state_sums(prods)
            live = np.flatnonzero(mass > PROB_TOL)
            children = prods if len(live) == len(prods) else prods[live]
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
            blocks.append((children[fresh], parent[chosen] + lo, ja[chosen] + a, jo[chosen]))
        if depth == horizon - 2:
            seen.clear()  # the last depth builds no children
        if not kept:
            break
        del units, block  # the last views of this depth's rows, which go with them below
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
