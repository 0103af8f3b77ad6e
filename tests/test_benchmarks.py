import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest

from mbdp import (
    BoxPushConfig,
    ConfigError,
    build_boxpush,
    build_builtin,
    build_mabc,
    build_tiger,
    exact_solve,
    load_boxpush_config,
)

from conftest import BOXPUSH_LAYOUTS, table_digest


def start_state(model):
    return int(np.argmax(model.initial_belief.probs))


FORWARD, STAY = 2, 3


def one_step(cfg, joint):
    """Next state name and reward of ``joint`` from the start when every
    action succeeds and steps cost nothing."""
    model = build_boxpush(replace(cfg, success_prob=1.0, step_reward=0.0), horizon=1)
    ja, s = model.joint_action_index(joint), start_state(model)
    nxt = int(np.argmax(model.transition[ja, s]))
    assert model.transition[ja, s, nxt] == 1.0
    return model.states[nxt], float(model.reward[ja, s, nxt])


def occupied_cells(cfg, name):
    """Agent cells and box cells of a configuration state, read from its name."""
    cells = [(int(x), int(y)) for x, y in re.findall(r"\((\d+),(\d+)\)", name)]
    if name.count("|") == 1:  # boxes where they started
        return cells, [*cfg.small_boxes, *cfg.large_box]
    return cells[:2], cells[2:]


def generated_layouts(count, seed=0):
    """Valid 2x2 and 3x2 layouts with random boxes, goals, poses and bump penalties."""
    rng = random.Random(seed)
    layouts = []
    while len(layouts) < count:
        cells = [(x, y) for x in range(rng.choice((2, 3))) for y in range(2)]
        rng.shuffle(cells)
        large, starts, rest = cells[:2], cells[2:4], cells[4:]
        kinds = [rng.choice(("small", "goal", "free")) for _ in rest]
        cfg = BoxPushConfig(
            width=max(x for x, _ in cells) + 1,
            height=2,
            starts=tuple((c, rng.choice("NESW")) for c in starts),
            small_boxes=tuple(c for c, k in zip(rest, kinds) if k == "small"),
            large_box=tuple(large),
            goal_cells=tuple(c for c, k in zip(rest, kinds) if k == "goal"),
            bump_penalty=rng.choice((-5.0, -1.3)),
        )
        try:
            cfg.validate()
        except ConfigError:
            continue
        layouts.append(cfg)
    return layouts


class TestMabc:
    def test_shape_and_names(self, mabc):
        assert mabc.states == ("ee", "ef", "fe", "ff")
        assert mabc.actions == (("send", "wait"),) * 2
        assert mabc.observation_counts == (2, 2)
        assert start_state(mabc) == 3

    def test_collision_keeps_buffers(self, mabc):
        both_send = mabc.joint_action_index((0, 0))
        np.testing.assert_allclose(mabc.transition[both_send, 3], [0, 0, 0, 1])
        assert mabc.reward[both_send, 3].max() == 0.0

    def test_single_send_scores_and_refills(self, mabc):
        send0 = mabc.joint_action_index((0, 1))
        row = mabc.transition[send0, 3]
        np.testing.assert_allclose(row, [0, 0.1, 0, 0.9])
        assert mabc.reward[send0, 3, 3] == 1.0
        assert mabc.reward[send0, 3, 1] == 1.0

    def test_empty_send_is_wasted(self, mabc):
        send0 = mabc.joint_action_index((0, 1))
        # from 'ef' agent 0 has nothing to send; buffer refills anyway
        np.testing.assert_allclose(mabc.transition[send0, 1], [0, 0.1, 0, 0.9])
        assert mabc.reward[send0, 1].max() == 0.0

    def test_observation_reports_own_next_buffer(self, mabc):
        wait = mabc.joint_action_index((1, 1))
        jo_full_full = mabc.joint_observation_index((0, 0))
        assert mabc.observation[wait, 3, jo_full_full] == pytest.approx(0.81)

    def test_asymmetric_refill_rates(self):
        model = build_mabc(refill_probs=(0.4, 0.7))
        send1 = model.joint_action_index((1, 0))
        # agent 1 success: buffer 1 empties then refills at 0.7
        np.testing.assert_allclose(model.transition[send1, 3], [0, 0, 0.3, 0.7])

    def test_one_step_optimum(self, mabc):
        from dataclasses import replace

        assert exact_solve(replace(mabc, horizon=1)).value == pytest.approx(1.0)


class TestTiger:
    def test_shape_and_names(self, tiger):
        assert tiger.states == ("tiger-left", "tiger-right")
        assert tiger.actions[0][0] == "listen"
        assert tiger.observation_counts == (2, 2)

    def test_listen_preserves_state_and_costs_two(self, tiger):
        listen = tiger.joint_action_index((0, 0))
        np.testing.assert_allclose(tiger.transition[listen], np.eye(2))
        assert tiger.reward[listen, 0, 0] == -2.0

    def test_listen_observation_accuracy(self, tiger):
        listen = tiger.joint_action_index((0, 0))
        both_left = tiger.joint_observation_index((0, 0))
        assert tiger.observation[listen, 0, both_left] == pytest.approx(0.7225)

    def test_payoff_matrix_entries(self, tiger):
        left = 0
        cases = {
            (1, 1): -50.0,
            (2, 2): 20.0,
            (1, 2): -100.0,
            (0, 1): -101.0,
            (0, 2): 9.0,
        }
        for pair, want in cases.items():
            ja = tiger.joint_action_index(pair)
            assert tiger.reward[ja, left, 0] == want

    def test_mirror_symmetry(self, tiger):
        # swapping doors everywhere leaves the payoff table invariant
        mirror = {0: 0, 1: 2, 2: 1}
        for a0 in range(3):
            for a1 in range(3):
                ja = tiger.joint_action_index((a0, a1))
                jm = tiger.joint_action_index((mirror[a0], mirror[a1]))
                assert tiger.reward[ja, 0, 0] == tiger.reward[jm, 1, 0]

    def test_open_resets_uniformly(self, tiger):
        open_both = tiger.joint_action_index((1, 1))
        np.testing.assert_allclose(tiger.transition[open_both], 0.5)
        np.testing.assert_allclose(tiger.observation[open_both], 0.25)

    def test_one_step_optimum(self, tiger):
        from dataclasses import replace

        assert exact_solve(replace(tiger, horizon=1)).value == pytest.approx(-2.0)

    def test_accuracy_knob(self):
        model = build_tiger(listen_accuracy=0.6)
        listen = model.joint_action_index((0, 0))
        both_left = model.joint_observation_index((0, 0))
        assert model.observation[listen, 0, both_left] == pytest.approx(0.36)


class TestBoxPush:
    def test_default_dimensions(self):
        model = build_boxpush()
        assert model.num_states == 100
        assert model.action_counts == (4, 4)
        assert model.observation_counts == (5, 5)
        assert model.validate() == []

    def test_observations_are_deterministic(self):
        model = build_boxpush()
        peaks = model.observation.max(axis=2)
        np.testing.assert_allclose(peaks, 1.0)

    def test_goal_markers_reset_to_start(self):
        model = build_boxpush()
        s0 = start_state(model)
        for idx, name in enumerate(model.states):
            if not name.startswith("goal"):
                continue
            for ja in range(model.num_joint_actions):
                assert model.transition[ja, idx, s0] == 1.0
                assert model.reward[ja, idx, s0] == pytest.approx(-0.2)

    def test_joint_large_push_probability(self):
        cfg = BoxPushConfig(
            starts=(((1, 0), "N"), ((2, 0), "N")),
            small_boxes=(),
            large_box=((1, 1), (2, 1)),
        )
        model = build_boxpush(cfg, horizon=2)
        s0 = start_state(model)
        forward = model.joint_action_index((2, 2))
        scored = [i for i, n in enumerate(model.states) if n == "goal:large"]
        assert len(scored) == 1
        assert model.transition[forward, s0, scored[0]] == pytest.approx(0.81)
        assert model.reward[forward, s0, scored[0]] == pytest.approx(100.0 - 0.2)
        # a one-sided or double failure leaves everything in place, and
        # each agent that did step forward bumps into the unmoved box
        stay = model.transition[forward, s0, s0]
        assert stay == pytest.approx(0.19)
        assert model.reward[forward, s0, s0] == pytest.approx(
            (2 * 0.09 * -5.0) / 0.19 - 0.2
        )

    def test_all_states_reachable_from_start(self):
        model = build_boxpush()
        reach = {start_state(model)}
        frontier = [start_state(model)]
        arcs = (model.transition.max(axis=0) > 0)
        while frontier:
            s = frontier.pop()
            for nxt in np.flatnonzero(arcs[s]):
                if int(nxt) not in reach:
                    reach.add(int(nxt))
                    frontier.append(int(nxt))
        assert reach == set(range(model.num_states))

    def test_mirrored_layout_same_value(self):
        cfg = BoxPushConfig(
            starts=(((0, 0), "N"), ((3, 0), "N")),
            small_boxes=((0, 1),),
            large_box=((1, 1), (2, 1)),
        )
        mirrored = BoxPushConfig(
            starts=(((3, 0), "N"), ((0, 0), "N")),
            small_boxes=((3, 1),),
            large_box=((1, 1), (2, 1)),
        )
        a = exact_solve(build_boxpush(cfg, horizon=1)).value
        b = exact_solve(build_boxpush(mirrored, horizon=1)).value
        assert a == pytest.approx(b, abs=1e-10)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"width": True}, "width must be an integer >= 1, got True"),
            ({"height": 0}, "height must be an integer >= 1, got 0"),
            ({"step_reward": float("nan")}, "step_reward must be a finite number, got nan"),
            ({"success_prob": 0.0}, "success_prob must be in (0, 1]"),
            ({"starts": 5}, "starts must be a list, got 5"),
            ({"starts": (((1, 0), "W"),)}, "exactly two agents are supported"),
            ({"starts": (((1, 0), "W"), 3)}, "a start must be [[x, y], facing], got 3"),
            ({"starts": (((1, 0), "W"), ((2, 0), "up"))}, "facing must be one of ('N', 'E', 'S', 'W'), got 'up'"),
            ({"starts": (((1, 0), "W"), ((2.0, 0), "E"))}, "a start cell must be two integers [x, y], got (2.0, 0)"),
            ({"small_boxes": ((0,),)}, "a small box cell must be two integers [x, y], got (0,)"),
            ({"large_box": ((1, 1), (2, True))}, "a large box cell must be two integers [x, y], got (2, True)"),
            ({"goal_cells": ((0, 2), "x")}, "a goal cell must be two integers [x, y], got 'x'"),
            ({"large_box": ((1, 1), (2, 1), (3, 1))}, "large box must occupy exactly two cells"),
            ({"large_box": ((1, 1), (3, 1))}, "large box cells must be edge-adjacent"),
            ({"small_boxes": ((4, 1),)}, "box cell (4, 1) is outside the grid"),
            ({"small_boxes": ((1, 1),)}, "box cell (1, 1) is used twice"),
            ({"small_boxes": ((0, 2),)}, "box cell (0, 2) sits on a goal cell"),
            ({"goal_cells": ((0, 3),)}, "goal cell (0, 3) is outside the grid"),
            ({"starts": (((9, 9), "N"), ((2, 0), "E"))}, "start (9, 9) is outside the grid"),
            ({"starts": (((0, 1), "N"), ((2, 0), "E"))}, "start (0, 1) overlaps a box or goal"),
            ({"starts": (((2, 0), "N"), ((2, 0), "E"))}, "agents cannot share a start cell"),
        ],
    )
    def test_config_validation(self, fields, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            BoxPushConfig(**fields).validate()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"starts": 5}', "starts must be a list, got 5"),
            ('{"width": "4"}', "width must be an integer >= 1, got '4'"),
            ('{"width": 2.5}', "width must be an integer >= 1, got 2.5"),
            ('{"width": true}', "width must be an integer >= 1, got True"),
            ('{"small_boxes": [[0]]}', "a small box cell must be two integers [x, y], got (0,)"),
            ('{"starts": [[[1, 0], "W"], [[2, 0], 3]]}', "facing must be one of ('N', 'E', 'S', 'W'), got 3"),
            ('{"bump_penalty": NaN}', "bump_penalty must be a finite number, got nan"),
            ('{"large_goal_reward": "100"}', "large_goal_reward must be a finite number, got '100'"),
            ('{"goal_cells": 3}', "goal_cells must be a list, got 3"),
            ('{"walls": []}', "unknown box-pushing option 'walls'"),
            ("[1, 2]", "box-pushing config must be a JSON object"),
        ],
    )
    def test_bad_config_files_are_refused(self, tmp_path, text, message):
        path = tmp_path / "box.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_boxpush_config(str(path))

    def test_small_push_moves_the_box_and_names_it(self):
        cfg = BoxPushConfig(
            width=4,
            height=2,
            starts=(((0, 0), "E"), ((0, 1), "N")),
            small_boxes=((1, 0),),
            large_box=((2, 1), (3, 1)),
            goal_cells=(),
        )
        assert one_step(cfg, (FORWARD, STAY)) == ("(1,0)E|(0,1)N|S[(2,0)]L[(2,1),(3,1)]", 0.0)

    def test_blocked_small_push_bumps(self):
        cfg = BoxPushConfig(
            width=4,
            height=2,
            starts=(((2, 0), "E"), ((0, 1), "N")),
            small_boxes=((3, 0),),
            large_box=((2, 1), (3, 1)),
            goal_cells=(),
        )
        assert one_step(cfg, (FORWARD, STAY)) == ("(2,0)E|(0,1)N", -5.0)

    def test_large_push_short_of_the_goal_moves_the_box(self):
        cfg = BoxPushConfig(
            width=2,
            height=3,
            starts=(((0, 0), "N"), ((1, 0), "N")),
            small_boxes=(),
            large_box=((0, 1), (1, 1)),
            goal_cells=(),
        )
        assert one_step(cfg, (FORWARD, FORWARD)) == ("(0,1)N|(1,1)N|S[]L[(0,2),(1,2)]", 0.0)

    def test_push_into_a_cell_the_other_agent_enters_bumps(self):
        # agent 0's box would land on (2, 0) as agent 1 steps there
        assert one_step(BOXPUSH_LAYOUTS["overlap"], (FORWARD, FORWARD)) == ("(0,0)E|(2,0)S", -5.0)
        assert build_boxpush(BOXPUSH_LAYOUTS["overlap"]).num_states == 64

    @pytest.mark.parametrize("first", [0, 1])
    def test_delivery_and_push_into_its_cell_do_not_depend_on_agent_order(self, first):
        # one agent delivers the box at (0, 1) and moves onto that cell
        # while the other pushes a second box there; that push bumps
        # whichever agent comes first
        poses = [((0, 0), "N"), ((2, 1), "W")]
        cfg = BoxPushConfig(
            width=3,
            height=3,
            starts=(poses[first], poses[1 - first]),
            small_boxes=((0, 1), (1, 1)),
            large_box=((1, 2), (2, 2)),
            goal_cells=((0, 2),),
        )
        assert one_step(cfg, (FORWARD, FORWARD)) == ("goal:small@(0,1)", 10.0 - 5.0)

    @pytest.mark.parametrize(
        "cfg", [BOXPUSH_LAYOUTS["overlap"], *generated_layouts(60)], ids=["overlap", *(f"gen{i}" for i in range(60))]
    )
    def test_reachable_states_keep_agents_and_boxes_apart(self, cfg):
        model = build_boxpush(cfg)
        for name in model.states:
            if name.startswith("goal:"):
                continue
            agents, boxes = occupied_cells(cfg, name)
            assert agents[0] != agents[1], name
            assert not set(agents) & set(boxes), name

    @pytest.mark.parametrize(
        "cfg, digest",
        [
            (None, "be221c901ea35f2f506794c3e90bec48812058258059560f000b77fcc2183e99"),
            (
                BOXPUSH_LAYOUTS["pinned"],
                "d294ed1954f52f51a57e74f583e13ad872979ee9ddb50abcda575f275426b77c",
            ),
            (
                BOXPUSH_LAYOUTS["stepped"],
                "c17a946651fcb549ff9497a4e2f22732440f990b15beec1325dd9f7afe792ccf",
            ),
        ],
    )
    def test_tables_keep_their_bytes(self, cfg, digest):
        # pins T, O, R, b0 and the state names byte for byte
        assert table_digest(build_boxpush(cfg, horizon=2)) == digest

    def test_stepped_layout_moves_both_boxes_short_of_a_goal(self):
        # the large box moves first, which lets agent 1 reach the small box
        moved = {name.split("|", 2)[2] for name in build_boxpush(BOXPUSH_LAYOUTS["stepped"]).states
                 if name.count("|") == 2}
        assert moved == {"S[(2,1)]L[(0,2),(1,2)]", "S[(3,1)]L[(0,2),(1,2)]"}

    def test_json_config_round_trip(self, tmp_path):
        cfg = BoxPushConfig(success_prob=0.8, step_reward=-0.25)
        path = tmp_path / "box.json"
        path.write_text(
            json.dumps({"success_prob": 0.8, "step_reward": -0.25})
        )
        loaded = load_boxpush_config(str(path))
        assert loaded == cfg


class TestBuiltins:
    def test_horizon_override(self):
        assert build_builtin("mabc", horizon=7).horizon == 7
        assert build_builtin("tiger").horizon == build_tiger().horizon

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            build_builtin("chess")
