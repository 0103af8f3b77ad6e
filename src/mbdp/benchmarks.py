"""Benchmark problem builders.

Three standard two-agent planning problems:

* ``mabc``: a broadcast channel shared by two senders with asymmetric
  packet arrival rates and noisy acknowledgment of their own buffer.
* ``tiger``: two agents listening for a tiger behind one of two doors.
* ``boxpush``: a grid with two small boxes, one large box that needs a
  coordinated push, and a goal row.  Deliveries collapse the state into
  a goal marker that resets to the start, which keeps the reachable
  state space small while preserving exact values.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError, require_count
from .model import DecPomdp

FACINGS = ("N", "E", "S", "W")
_DIR = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}
_LEFT = {"N": "W", "W": "S", "S": "E", "E": "N"}
_RIGHT = {"N": "E", "E": "S", "S": "W", "W": "N"}


def build_mabc(
    horizon: int = 3,
    refill_probs: tuple[float, float] = (0.9, 0.1),
    obs_accuracy: float = 0.9,
) -> DecPomdp:
    """Two senders on a collision channel.

    State is the pair of buffer flags (e = empty, f = full), both full at
    the start.  A send succeeds when the sender's buffer is full and the
    other agent is not also sending a full buffer; success pays 1 and
    empties the buffer.  Empty buffers (including just-emptied ones)
    refill within the same transition with the agent's arrival rate.
    Each agent then senses its own next buffer flag with the given
    accuracy.
    """
    if not 0.0 <= obs_accuracy <= 1.0:
        raise ConfigError("obs_accuracy must be a probability")
    if any(not 0.0 <= p <= 1.0 for p in refill_probs):
        raise ConfigError("refill probabilities must be in [0, 1]")
    states = tuple(f"{a}{b}" for a in "ef" for b in "ef")
    actions = (("send", "wait"), ("send", "wait"))
    observations = (("full", "empty"), ("full", "empty"))

    num_ja = 4
    transition = np.zeros((num_ja, 4, 4))
    reward = np.zeros((num_ja, 4, 4))
    observation = np.zeros((num_ja, 4, 4))
    for ja, (a0, a1) in enumerate(itertools.product((0, 1), repeat=2)):
        for s, (f0, f1) in enumerate(itertools.product((0, 1), repeat=2)):
            sends = (a0 == 0 and f0 == 1, a1 == 0 and f1 == 1)
            success = (sends[0] and not sends[1], sends[1] and not sends[0])
            r = float(success[0] or success[1])
            # a buffer stays full unless its message just went out
            full_probs = [
                1.0 if f and not ok else p
                for f, ok, p in zip((f0, f1), success, refill_probs)
            ]
            for g0, g1 in itertools.product((0, 1), repeat=2):
                p = (full_probs[0] if g0 else 1 - full_probs[0]) * (
                    full_probs[1] if g1 else 1 - full_probs[1]
                )
                nxt = 2 * g0 + g1
                transition[ja, s, nxt] += p
                reward[ja, s, nxt] = r
    acc = obs_accuracy
    for nxt, (g0, g1) in enumerate(itertools.product((0, 1), repeat=2)):
        for jo, (o0, o1) in enumerate(itertools.product((0, 1), repeat=2)):
            # observation 0 reads "full"
            p0 = acc if (o0 == 0) == bool(g0) else 1 - acc
            p1 = acc if (o1 == 0) == bool(g1) else 1 - acc
            observation[:, nxt, jo] = p0 * p1
    start = np.zeros(4)
    start[3] = 1.0
    return DecPomdp(
        states=states,
        actions=actions,
        observations=observations,
        transition=transition,
        observation=observation,
        reward=reward,
        initial_belief=start,
        horizon=horizon,
        name="mabc",
    )


def build_tiger(horizon: int = 2, listen_accuracy: float = 0.85) -> DecPomdp:
    """Two-agent tiger: listen or open one of two doors.

    While both agents listen the tiger stays put and each hears it
    behind the correct door with the given accuracy.  As soon as any
    door opens the problem resets to a uniform tiger position and the
    observations carry no information.
    """
    if not 0.0 <= listen_accuracy <= 1.0:
        raise ConfigError("listen_accuracy must be a probability")
    states = ("tiger-left", "tiger-right")
    agent_actions = ("listen", "open-left", "open-right")
    agent_obs = ("hear-left", "hear-right")

    # payoff per action pair under tiger-left; tiger-right mirrors
    left_payoff = {
        (0, 0): -2.0,
        (1, 1): -50.0,
        (2, 2): 20.0,
        (1, 2): -100.0,
        (2, 1): -100.0,
        (0, 1): -101.0,
        (1, 0): -101.0,
        (0, 2): 9.0,
        (2, 0): 9.0,
    }
    mirror = {0: 0, 1: 2, 2: 1}

    num_ja = 9
    transition = np.zeros((num_ja, 2, 2))
    reward = np.zeros((num_ja, 2, 2))
    observation = np.zeros((num_ja, 2, 4))
    acc = listen_accuracy
    for ja, (a0, a1) in enumerate(itertools.product(range(3), repeat=2)):
        if a0 == 0 and a1 == 0:
            transition[ja] = np.eye(2)
            for sp in (0, 1):
                for jo, (o0, o1) in enumerate(itertools.product((0, 1), repeat=2)):
                    p0 = acc if o0 == sp else 1 - acc
                    p1 = acc if o1 == sp else 1 - acc
                    observation[ja, sp, jo] = p0 * p1
        else:
            transition[ja] = 0.5
            observation[ja] = 0.25
        reward[ja, 0, :] = left_payoff[(a0, a1)]
        reward[ja, 1, :] = left_payoff[(mirror[a0], mirror[a1])]
    return DecPomdp(
        states=states,
        actions=(agent_actions, agent_actions),
        observations=(agent_obs, agent_obs),
        transition=transition,
        observation=observation,
        reward=reward,
        initial_belief=np.array([0.5, 0.5]),
        horizon=horizon,
        name="tiger",
    )


@dataclass(frozen=True)
class BoxPushConfig:
    """Geometry and payoffs for the box-pushing grid.

    The grid uses (x, y) cells with y = 0 at the bottom; the default
    goal area is the whole top row.  ``large_box`` is a pair of
    edge-adjacent cells that only moves when both agents push distinct
    cells of it in the same direction within one step.
    """

    width: int = 4
    height: int = 3
    starts: tuple[tuple[tuple[int, int], str], ...] = (((1, 0), "W"), ((2, 0), "E"))
    small_boxes: tuple[tuple[int, int], ...] = ((0, 1), (3, 1))
    large_box: tuple[tuple[int, int], ...] = ((1, 1), (2, 1))
    goal_cells: tuple[tuple[int, int], ...] | None = None
    success_prob: float = 0.9
    step_reward: float = -0.1
    bump_penalty: float = -5.0
    small_goal_reward: float = 10.0
    large_goal_reward: float = 100.0

    def goals(self) -> frozenset:
        if self.goal_cells is not None:
            return frozenset(tuple(c) for c in self.goal_cells)
        return frozenset((x, self.height - 1) for x in range(self.width))

    def validate(self) -> None:
        """Raises ``ConfigError`` for a field of the wrong type or a layout
        that does not fit the grid."""
        require_count(self.width, "width", ConfigError)
        require_count(self.height, "height", ConfigError)
        for name in ("success_prob", "step_reward", "bump_penalty", "small_goal_reward", "large_goal_reward"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if not 0.0 < self.success_prob <= 1.0:
            raise ConfigError("success_prob must be in (0, 1]")
        if len(_listed(self.starts, "starts")) != 2:
            raise ConfigError("exactly two agents are supported")
        for start in self.starts:
            if not isinstance(start, (tuple, list)) or len(start) != 2:
                raise ConfigError(f"a start must be [[x, y], facing], got {start!r}")
            if start[1] not in FACINGS:
                raise ConfigError(f"facing must be one of {FACINGS}, got {start[1]!r}")
        starts = [_cell(pos, "start") for pos, _ in self.starts]
        smalls = [_cell(c, "small box") for c in _listed(self.small_boxes, "small_boxes")]
        large = [_cell(c, "large box") for c in _listed(self.large_box, "large_box")]
        if self.goal_cells is not None:
            for c in _listed(self.goal_cells, "goal_cells"):
                _cell(c, "goal")
        goals = self.goals()
        if len(large) != 2:
            raise ConfigError("large box must occupy exactly two cells")
        (x0, y0), (x1, y1) = large
        if abs(x0 - x1) + abs(y0 - y1) != 1:
            raise ConfigError("large box cells must be edge-adjacent")
        occupied = set()
        for c in smalls + large:
            if not _inside(self, c):
                raise ConfigError(f"box cell {c} is outside the grid")
            if c in occupied:
                raise ConfigError(f"box cell {c} is used twice")
            if c in goals:
                raise ConfigError(f"box cell {c} sits on a goal cell")
            occupied.add(c)
        for cell in goals:
            if not _inside(self, cell):
                raise ConfigError(f"goal cell {cell} is outside the grid")
        seen = set()
        for pos in starts:
            if not _inside(self, pos):
                raise ConfigError(f"start {pos} is outside the grid")
            if pos in occupied or pos in goals:
                raise ConfigError(f"start {pos} overlaps a box or goal")
            if pos in seen:
                raise ConfigError("agents cannot share a start cell")
            seen.add(pos)

    @staticmethod
    def from_dict(data: dict) -> "BoxPushConfig":
        """A checked config from JSON data; lists become tuples, as in the defaults."""
        fields = set(BoxPushConfig.__dataclass_fields__)
        for key in data:
            if key not in fields:
                raise ConfigError(f"unknown box-pushing option '{key}'")
        config = BoxPushConfig(**{key: _tuples(value) for key, value in data.items()})
        config.validate()
        return config


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def _listed(value, name: str):
    if not isinstance(value, (tuple, list)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return value


def _cell(value, what: str) -> tuple[int, int]:
    if not isinstance(value, (tuple, list)) or len(value) != 2 or any(
        isinstance(v, bool) or not isinstance(v, Integral) for v in value
    ):
        raise ConfigError(f"a {what} cell must be two integers [x, y], got {value!r}")
    return tuple(value)


def load_boxpush_config(path: str) -> BoxPushConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid box-pushing config: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("box-pushing config must be a JSON object")
    return BoxPushConfig.from_dict(data)


_TL, _TR, _FWD, _STAY = 0, 1, 2, 3
_BOX_ACTIONS = ("turn-left", "turn-right", "forward", "stay")
_BOX_OBS = ("empty", "wall", "agent", "small-box", "large-box")

# configuration states carry agent poses and box layout:
# ("cfg", pos0, facing0, pos1, facing1, smalls, large)
# marker states carry the deliveries that just happened: ("goal", events)


def _inside(cfg: BoxPushConfig, cell) -> bool:
    return 0 <= cell[0] < cfg.width and 0 <= cell[1] < cfg.height


def _ahead(cfg: BoxPushConfig, goals: frozenset, state, agent: int, facing: str):
    """The cell ``agent`` faces in a configuration state and what it meets
    there, as a ``_BOX_OBS`` entry; goal cells read as walls."""
    (x, y), (dx, dy) = state[1 + 2 * agent], _DIR[facing]
    cell = (x + dx, y + dy)
    if not _inside(cfg, cell) or cell in goals:
        return cell, "wall"
    if cell == state[3 - 2 * agent]:
        return cell, "agent"
    if cell in state[5]:
        return cell, "small-box"
    return cell, "large-box" if cell in state[6] else "empty"


def _resolve_boxpush(cfg: BoxPushConfig, goals: frozenset, state, effs):
    """Applies effective per-agent actions to a configuration state.

    ``goals`` is ``cfg.goals()``.  Returns (next state key, reward
    excluding step cost).
    """
    positions = [state[1], state[3]]
    facings = [state[2], state[4]]
    smalls = set(state[5])
    large = state[6]
    for i, eff in enumerate(effs):
        if eff == _TL:
            facings[i] = _LEFT[facings[i]]
        elif eff == _TR:
            facings[i] = _RIGHT[facings[i]]

    targets: list = [None, None]
    kinds: list[str | None] = [None, None]
    for i, eff in enumerate(effs):
        if eff == _FWD:
            targets[i], kinds[i] = _ahead(cfg, goals, state, i, facings[i])
    if targets[0] is not None and targets[0] == targets[1]:
        # same-target conflict overrides everything: both stay, no penalty
        kinds = [None, None]
    dests = [t if k in ("empty", "agent") else None for t, k in zip(targets, kinds)]
    small_moves: dict[tuple[int, int], tuple[int, int]] = {}

    # a box can go only to an inside, non-goal cell that no box or agent
    # holds or steps into
    def takes_box(c) -> bool:
        return (
            _inside(cfg, c)
            and c not in goals
            and c not in smalls
            and c not in large
            and c not in positions
            and c not in dests
            and c not in small_moves.values()
        )

    reward = 0.0
    events: list[tuple] = []
    if kinds == ["large-box", "large-box"] and facings[0] == facings[1]:
        d = _DIR[facings[0]]
        box_dests = [(c[0] + d[0], c[1] + d[1]) for c in large]
        if all(b in goals for b in box_dests):
            events.append(("large",))
            reward += cfg.large_goal_reward
            dests = list(targets)
        elif all(takes_box(b) for b in box_dests):
            dests = list(targets)
            large = tuple(sorted(box_dests))
    for i in (0, 1):
        if kinds[i] == "small-box":
            d = _DIR[facings[i]]
            b = targets[i]
            dest = (b[0] + d[0], b[1] + d[1])
            if dest in goals:
                events.append(("small", b))
                reward += cfg.small_goal_reward
                dests[i] = b
                smalls.discard(b)
            elif takes_box(dest):
                small_moves[b] = dest
                dests[i] = b
        if kinds[i] is not None and dests[i] is None:
            # a forward move that neither steps nor pushes bumps
            reward += cfg.bump_penalty
    for b, dest in small_moves.items():
        smalls.discard(b)
        smalls.add(dest)

    # a move into the other agent's cell goes through only if that agent
    # ends up elsewhere; swaps cancel both moves
    changed = True
    while changed:
        changed = False
        for i in (0, 1):
            if dests[i] is None or dests[i] != positions[1 - i]:
                continue
            other = dests[1 - i]
            if other is None or other == positions[i]:
                dests[i] = None
                changed = True

    new_positions = [dests[i] if dests[i] is not None else positions[i] for i in (0, 1)]
    if events:
        return ("goal", tuple(sorted(events))), reward
    return (
        (
            "cfg",
            new_positions[0],
            facings[0],
            new_positions[1],
            facings[1],
            tuple(sorted(smalls)),
            large,
        ),
        reward,
    )


def _boxpush_observation_row(cfg: BoxPushConfig, goals: frozenset, state) -> tuple[int, int]:
    """What each agent sees one cell ahead, as local observation indices."""
    if state[0] == "goal":
        return (0, 0)
    return tuple(_BOX_OBS.index(_ahead(cfg, goals, state, i, state[2 + 2 * i])[1]) for i in (0, 1))


def _state_name(key, start_key) -> str:
    if key[0] == "goal":
        parts = []
        for event in key[1]:
            if event[0] == "large":
                parts.append("large")
            else:
                parts.append(f"small@({event[1][0]},{event[1][1]})")
        return "goal:" + "+".join(parts)
    name = f"({key[1][0]},{key[1][1]}){key[2]}|({key[3][0]},{key[3][1]}){key[4]}"
    if key[5] != start_key[5] or key[6] != start_key[6]:
        smalls = ",".join(f"({x},{y})" for x, y in key[5])
        large = ",".join(f"({x},{y})" for x, y in key[6])
        name += f"|S[{smalls}]L[{large}]"
    return name


def build_boxpush(config: BoxPushConfig | None = None, horizon: int = 3) -> DecPomdp:
    """Cooperative box pushing on a grid.

    Agents turn, move forward, or stay; every action succeeds with
    ``success_prob`` and otherwise leaves the agent unchanged.  Each
    agent deterministically senses the cell it faces afterwards (goal
    cells and the outside read as walls).  Deliveries jump to a goal
    marker state that pays the reward and then resets to the start;
    marker states observe empty on both sides.
    """
    cfg = config if config is not None else BoxPushConfig()
    cfg.validate()
    goals = cfg.goals()
    (p0, f0), (p1, f1) = cfg.starts
    start_key = (
        "cfg",
        tuple(p0),
        f0,
        tuple(p1),
        f1,
        tuple(sorted(tuple(c) for c in cfg.small_boxes)),
        tuple(sorted(tuple(c) for c in cfg.large_box)),
    )

    num_local = len(_BOX_ACTIONS)
    combos = [
        ((m0, m1), (cfg.success_prob if m0 else 1 - cfg.success_prob)
         * (cfg.success_prob if m1 else 1 - cfg.success_prob))
        for m0, m1 in itertools.product((True, False), repeat=2)
    ]
    combos = [(m, p) for m, p in combos if p > 0.0]

    pairs = list(itertools.product(range(num_local), repeat=2))
    transitions: dict[tuple, dict[tuple, list]] = {}
    frontier = [start_key]
    seen = {start_key}
    while frontier:
        key = frontier.pop()
        table: dict[tuple, list] = {}
        transitions[key] = table
        # a joint action and a mover combo act on the state only through
        # their effective action pair, so each pair is resolved once
        if key[0] == "goal":
            resolved = dict.fromkeys(pairs, (start_key, 0.0))
        else:
            resolved = {effs: _resolve_boxpush(cfg, goals, key, effs) for effs in pairs}
        for ja, (a0, a1) in enumerate(pairs):
            for (m0, m1), p in combos:
                nxt, r = resolved[a0 if m0 else _STAY, a1 if m1 else _STAY]
                cell = table.setdefault((ja, nxt), [0.0, 0.0])
                cell[0] += p
                cell[1] += p * r
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)

    cfg_keys = sorted((k for k in seen if k[0] == "cfg"), key=lambda k: k[1:])
    goal_keys = sorted((k for k in seen if k[0] == "goal"), key=lambda k: k[1])
    ordered = cfg_keys + goal_keys
    index = {k: i for i, k in enumerate(ordered)}
    num_s = len(ordered)
    num_ja = num_local * num_local

    transition = np.zeros((num_ja, num_s, num_s))
    reward_num = np.zeros((num_ja, num_s, num_s))
    for key, table in transitions.items():
        s = index[key]
        for (ja, nxt), (p, pr) in table.items():
            transition[ja, s, index[nxt]] = p
            reward_num[ja, s, index[nxt]] = pr
    # per-transition expected delivery/bump reward, plus the step cost
    mask = transition > 0
    reward = np.where(mask, reward_num / np.where(mask, transition, 1.0), 0.0)
    reward += np.where(mask, 2 * cfg.step_reward, 0.0)

    observation = np.zeros((num_ja, num_s, len(_BOX_OBS) ** 2))
    for key, sp in index.items():
        o0, o1 = _boxpush_observation_row(cfg, goals, key)
        observation[:, sp, o0 * len(_BOX_OBS) + o1] = 1.0

    names = tuple(_state_name(k, start_key) for k in ordered)
    start = np.zeros(num_s)
    start[index[start_key]] = 1.0
    return DecPomdp(
        states=names,
        actions=(_BOX_ACTIONS, _BOX_ACTIONS),
        observations=(_BOX_OBS, _BOX_OBS),
        transition=transition,
        observation=observation,
        reward=reward,
        initial_belief=start,
        horizon=horizon,
        name="boxpush",
    )


def build_builtin(name: str, horizon: int | None = None) -> DecPomdp:
    """Builds a benchmark by name: mabc, tiger, or boxpush."""
    builders = {"mabc": build_mabc, "tiger": build_tiger, "boxpush": build_boxpush}
    if name not in builders:
        raise ConfigError(f"unknown builtin problem '{name}' (have {sorted(builders)})")
    model = builders[name]()
    if horizon is not None:
        model = replace(model, horizon=horizon)
    return model


BUILTIN_PROBLEMS = ("mabc", "tiger", "boxpush")
