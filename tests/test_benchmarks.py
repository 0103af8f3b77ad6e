import hashlib
import json

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


def start_state(model):
    return int(np.argmax(model.initial_belief.probs))


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

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            BoxPushConfig(starts=(((9, 9), "N"), ((2, 0), "E"))).validate()
        with pytest.raises(ConfigError):
            BoxPushConfig(small_boxes=((1, 1), (1, 1))).validate()
        with pytest.raises(ConfigError):
            BoxPushConfig(large_box=((1, 1), (3, 1))).validate()

    @pytest.mark.parametrize(
        "cfg, digest",
        [
            (None, "be221c901ea35f2f506794c3e90bec48812058258059560f000b77fcc2183e99"),
            (
                BoxPushConfig(
                    starts=(((0, 0), "E"), ((3, 0), "N")),
                    small_boxes=((3, 1),),
                    goal_cells=((1, 2), (2, 2), (3, 2)),
                    success_prob=0.75,
                    step_reward=-0.2,
                    bump_penalty=-1.0,
                    small_goal_reward=5.0,
                    large_goal_reward=50.0,
                ),
                "d294ed1954f52f51a57e74f583e13ad872979ee9ddb50abcda575f275426b77c",
            ),
        ],
    )
    def test_tables_keep_their_bytes(self, cfg, digest):
        # pins T, O, R, b0 and the state names byte for byte
        model = build_boxpush(cfg, horizon=2)
        h = hashlib.sha256()
        for table in (model.transition, model.observation, model.reward, model.initial_belief.probs):
            h.update(repr((table.dtype.str, table.shape)).encode())
            h.update(table.tobytes())
        h.update("\n".join(model.states).encode())
        assert h.hexdigest() == digest

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
