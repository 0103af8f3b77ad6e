import inspect
import json
from dataclasses import replace

import numpy as np
import pytest

from mbdp import (
    ConfigError,
    DecPomdp,
    ParseError,
    SolverConfig,
    build_boxpush,
    build_mabc,
    build_tiger,
    epsilon_global,
    error_bound,
    evaluate_at_belief,
    exact_solve,
    improved_mbdp,
    mbdp,
    parse_policy,
    random_policy_baseline,
    serialize_policy,
    simulate,
    uniform_random_value,
)
from mbdp.cli import build_parser, load_problem, main, parse_problem_text, problem_to_text

from conftest import random_model, three_agent_model, traced_peak_mb


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


class TestProblemFormat:
    def round_trip(self, model):
        back = parse_problem_text(problem_to_text(model), name=model.name)
        np.testing.assert_array_equal(back.transition, model.transition)
        np.testing.assert_array_equal(back.observation, model.observation)
        np.testing.assert_array_equal(back.reward, model.reward)
        np.testing.assert_array_equal(
            back.initial_belief.probs, model.initial_belief.probs
        )
        assert back.states == model.states
        assert back.actions == model.actions
        assert back.observations == model.observations
        assert back.horizon == model.horizon
        assert back.name == model.name

    def test_builtin_round_trips(self):
        self.round_trip(build_tiger())
        self.round_trip(build_mabc())
        self.round_trip(build_boxpush(horizon=4))

    def test_random_model_round_trips(self):
        self.round_trip(random_model(33, num_states=4, obs_counts=(3, 2)))

    def test_three_agent_model_round_trips(self):
        self.round_trip(three_agent_model(3))

    def test_name_with_inner_spaces_round_trips(self):
        self.round_trip(replace(build_tiger(), name="two tigers: v2"))

    @pytest.mark.parametrize("name", ["a#b", "two\nlines", "cr\rlf", " lead", "trail ", "\t"])
    def test_name_that_cannot_be_written_is_refused(self, name):
        with pytest.raises(ConfigError, match="cannot be written to a problem file"):
            problem_to_text(replace(build_tiger(), name=name))

    @pytest.mark.parametrize(
        "field, names",
        [("states", ("7",)), ("actions", (("",), ("b",))), ("observations", (("o",), ("p q",)))],
        ids=["lone-count-state", "empty-action", "spaced-observation"],
    )
    def test_names_that_cannot_be_read_back_are_refused(self, field, names):
        model = DecPomdp(
            states=("s",),
            actions=(("a",), ("b",)),
            observations=(("o",), ("p",)),
            transition=np.ones((1, 1, 1)),
            observation=np.ones((1, 1, 1)),
            reward=np.ones((1, 1, 1)),
            initial_belief=np.array([1.0]),
            horizon=2,
        )
        self.round_trip(model)
        with pytest.raises(ConfigError):
            problem_to_text(replace(model, **{field: names}))

    @pytest.mark.parametrize("header", ["agents: 2", "horizon: 2", "states: tiger-left tiger-right"])
    def test_non_ascii_digits_are_a_parse_error(self, header):
        # "²".isdigit() holds but int("²") fails; both must give a ParseError
        text = problem_to_text(build_tiger()).replace(header, header.split(":")[0] + ": ²")
        with pytest.raises(ParseError):
            parse_problem_text(text)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("T: listen listen tiger-left", "T: listen listen nowhere", "unknown state 'nowhere'"),
            ("R: listen open-left tiger-left", "R: listen shout tiger-left",
             "unknown action of agent 1 'shout'"),
            ("O: open-left listen tiger-right hear-left", "O: open-left listen tiger-right hum",
             "unknown observation of agent 0 'hum'"),
        ],
        ids=["state", "action", "observation"],
    )
    def test_unknown_name_reported_with_its_line(self, old, new, message):
        lines = problem_to_text(build_tiger()).splitlines()
        lineno = next(k for k, line in enumerate(lines, start=1) if line.startswith(old))
        lines[lineno - 1] = lines[lineno - 1].replace(old, new)
        with pytest.raises(ParseError) as exc:
            parse_problem_text("\n".join(lines))
        assert str(exc.value) == f"line {lineno}: {message}"

    def test_entries_before_headers_rejected(self):
        lines = problem_to_text(build_tiger()).splitlines()
        entry = next(line for line in lines if line.startswith("T:"))
        lines.remove(entry)
        lines.insert(3, entry)
        with pytest.raises(ParseError) as exc:
            parse_problem_text("\n".join(lines))
        assert str(exc.value).startswith("line 4: table entries before headers (horizon, start, ")

    def test_header_after_entries_rejected(self):
        text = problem_to_text(build_tiger())
        lineno = len(text.splitlines()) + 1
        with pytest.raises(ParseError) as exc:
            parse_problem_text(text + "horizon: 3\n")
        assert str(exc.value) == f"line {lineno}: header 'horizon' after table entries"

    def test_first_bad_line_in_file_order_is_reported(self):
        # a bad O line above a bad T line: the O line is the one reported
        lines = problem_to_text(build_tiger()).splitlines()
        first_o = next(k for k, line in enumerate(lines) if line.startswith("O:"))
        last_t = max(k for k, line in enumerate(lines) if line.startswith("T:"))
        assert first_o < last_t
        lines[first_o] = lines[first_o].replace(" tiger-", " lair-", 1)
        lines[last_t] = lines[last_t].replace(" tiger-", " den-", 1)
        with pytest.raises(ParseError) as exc:
            parse_problem_text("\n".join(lines))
        assert str(exc.value).startswith(f"line {first_o + 1}: unknown state 'lair-")

    def test_missing_header_reported(self):
        with pytest.raises(ParseError) as exc:
            parse_problem_text("agents: 2\n")
        assert "missing" in str(exc.value)

    def test_duplicate_entry_carries_line_number(self):
        text = problem_to_text(build_tiger())
        dup = next(l for l in text.splitlines() if l.startswith("T:"))
        with pytest.raises(ParseError) as exc:
            parse_problem_text(text + "\n" + dup + "\n")
        assert "line" in str(exc.value)

    def test_non_stochastic_rejected(self):
        text = problem_to_text(build_tiger())
        broken = text.replace("R:", "Q:", 1)
        with pytest.raises(ParseError):
            parse_problem_text(broken)

    def test_bad_arity_rejected(self):
        text = problem_to_text(build_tiger()) + "\nT: listen listen tiger-left 0.5\n"
        with pytest.raises(ParseError):
            parse_problem_text(text)


class TestLoadProblem:
    def test_builtin_spellings(self):
        assert load_problem("builtin:tiger").name == load_problem("tiger").name

    def test_horizon_override(self):
        assert load_problem("mabc", horizon=9).horizon == 9

    def test_file_path(self, tmp_path):
        path = tmp_path / "custom.problem"
        path.write_text(problem_to_text(build_tiger()))
        model = load_problem(str(path))
        assert model.num_states == 2

    def test_boxpush_config_path(self, tmp_path):
        path = tmp_path / "box.json"
        path.write_text(json.dumps({"success_prob": 0.8}))
        model = load_problem(f"boxpush:{path}")
        assert model.action_counts == (4, 4)


class TestSolveCommand:
    def test_records_stream_shape(self, capsys):
        code, out, _ = run(
            capsys,
            ["solve", "--problem", "tiger", "--horizon", "2", "--format", "records", "--seed", "1"],
        )
        assert code == 0
        recs = records(out)
        assert [r["schema"] for r in recs] == [1] * len(recs)
        kinds = [r["type"] for r in recs]
        assert kinds[0] == "meta"
        assert "result" in kinds
        assert kinds[-1] == "timing"
        result = next(r for r in recs if r["type"] == "result")
        model = build_tiger(horizon=2)
        policy = parse_policy(model, result["policy"])
        again = evaluate_at_belief(model, policy, model.initial_belief)
        assert again == pytest.approx(result["value"], abs=1e-9)

    def test_level_records_count_scored_tuples(self, capsys):
        code, out, _ = run(
            capsys,
            ["solve", "--problem", "tiger", "--horizon", "4", "--max-obs", "1",
             "--format", "records"],
        )
        assert code == 0
        levels = [r for r in records(out) if r["type"] == "level"]
        # level 1 scores every pair of depth-1 trees, then every pair of
        # the tables the level below backed up
        sizes = [[3, 3]] + [r["backup_sizes"] for r in levels[:-1]]
        assert [r["tuples_scored"] for r in levels] == [int(np.prod(s)) for s in sizes]
        # budgeted levels report the observation mass their selection kept
        assert all(r["partial"] and 0.0 < r["captured_mass"] <= 1.0 for r in levels)

    def test_output_file_round_trips(self, capsys, tmp_path):
        target = tmp_path / "tiger.policy"
        code, out, _ = run(
            capsys,
            [
                "solve", "--problem", "tiger", "--horizon", "2",
                "--format", "records", "--output", str(target),
            ],
        )
        assert code == 0
        value = next(r for r in records(out) if r["type"] == "result")["value"]
        model = build_tiger(horizon=2)
        policy = parse_policy(model, target.read_text())
        assert evaluate_at_belief(model, policy, model.initial_belief) == pytest.approx(
            value, abs=1e-9
        )

    def test_random_solver_multi_sample(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "solve", "--problem", "tiger", "--horizon", "2",
                "--solver", "random", "--samples", "5", "--format", "records",
            ],
        )
        assert code == 0
        result = next(r for r in records(out) if r["type"] == "result")
        assert result["samples"] == 5

    def test_human_format_mentions_value(self, capsys):
        code, out, _ = run(capsys, ["solve", "--problem", "tiger", "--horizon", "2"])
        assert code == 0
        assert "value" in out.lower()

    def test_deep_horizon_policy_round_trips(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "solve", "--problem", "mabc", "--horizon", "500", "--solver", "mbdp",
                "--heuristics", "random", "--format", "records",
            ],
        )
        assert code == 0
        result = next(r for r in records(out) if r["type"] == "result")
        model = build_mabc(horizon=500)
        policy = parse_policy(model, result["policy"])
        assert policy.depth == 500
        assert evaluate_at_belief(model, policy, model.initial_belief) == pytest.approx(
            result["value"], abs=1e-9
        )

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["solve"], 0),
            (["solve", "--format", "records"], 1),
            (["solve", "--output", "OUT"], 1),
            (["solve", "--solver", "random", "--format", "records", "--output", "OUT"], 1),
            (["exact", "--format", "records", "--output", "OUT"], 1),
        ],
    )
    def test_policy_serialized_only_when_needed(self, capsys, monkeypatch, tmp_path, argv, calls):
        seen = []
        monkeypatch.setattr(
            "mbdp.cli.serialize_policy", lambda model, policy: seen.append(policy) or "{}\n"
        )
        target = tmp_path / "p.policy"
        argv = [str(target) if a == "OUT" else a for a in argv]
        code, _, _ = run(capsys, argv + ["--problem", "tiger", "--horizon", "2"])
        assert code == 0
        assert len(seen) == calls
        assert target.exists() == (str(target) in argv)


class TestOtherCommands:
    @pytest.mark.parametrize(
        "argv,error",
        [
            (["solve", "--problem", "tiger", "--horizon", "2"], "ConfigError"),
            (["solve", "--problem", "tiger", "--horizon", "2", "--solver", "random"], "ConfigError"),
            (["bound", "--problem", "mabc", "--horizon", "3", "--max-obs", "1", "--mode", "sampled"],
             "ConfigError"),
            (["simulate", "--problem", "tiger", "--horizon", "2", "--policy", "{policy}"], "EvaluationError"),
        ],
        ids=["solve", "solve-random", "bound-sampled", "simulate"],
    )
    def test_negative_seed_exits_four(self, capsys, tmp_path, argv, error):
        policy = tmp_path / "tiger.policy"
        run(capsys, ["solve", "--problem", "tiger", "--horizon", "2", "--output", str(policy)])
        argv = [arg.format(policy=policy) for arg in argv]
        code, out, err = run(capsys, argv + ["--seed", "-1", "--format", "records"])
        assert code == 4
        record = json.loads(err.splitlines()[-1])
        assert (record["error"], record["message"]) == (error, "seed must be an integer >= 0, got -1")
        assert not any(r["type"] == "result" for r in records(out))

    def test_simulate_rejects_zero_episodes(self, capsys, tmp_path):
        policy = tmp_path / "tiger.policy"
        run(capsys, ["solve", "--problem", "tiger", "--horizon", "2", "--output", str(policy)])
        code, _, err = run(
            capsys,
            ["simulate", "--problem", "tiger", "--horizon", "2", "--policy", str(policy), "--episodes", "0"],
        )
        assert code == 4
        assert "episodes must be an integer >= 1" in err

    def test_evaluate_and_simulate_agree(self, capsys, tmp_path):
        target = tmp_path / "p.policy"
        run(
            capsys,
            [
                "solve", "--problem", "mabc", "--horizon", "3",
                "--format", "records", "--output", str(target),
            ],
        )
        code, out, _ = run(
            capsys,
            [
                "evaluate", "--problem", "mabc", "--horizon", "3",
                "--policy", str(target), "--format", "records",
            ],
        )
        assert code == 0
        exact = next(r for r in records(out) if r["type"] == "result")["value"]
        code, out, _ = run(
            capsys,
            [
                "simulate", "--problem", "mabc", "--horizon", "3",
                "--policy", str(target), "--episodes", "20000",
                "--format", "records", "--seed", "5",
            ],
        )
        assert code == 0
        sim = next(r for r in records(out) if r["type"] == "result")
        assert sim["episodes"] == 20000
        assert abs(sim["value"] - exact) <= 4 * sim["std_error"] + 1e-9

    def test_bound_record(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "bound", "--problem", "mabc", "--horizon", "3",
                "--max-obs", "1", "--format", "records",
            ],
        )
        assert code == 0
        rec = next(r for r in records(out) if r["type"] == "bound")
        assert 0.0 <= rec["epsilon"] <= 1.0
        assert rec["bound"] >= 0.0
        assert rec["mode"] == "exact"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--mode", "sampled", "--budget", "0"], "budget must be an integer >= 1, got 0"),
            (["--max-beliefs", "0"], "max_beliefs must be an integer >= 1, got 0"),
        ],
        ids=["budget", "max-beliefs"],
    )
    def test_bound_rejects_non_positive_knobs(self, capsys, flags, message):
        code, out, err = run(
            capsys,
            ["bound", "--problem", "mabc", "--horizon", "3", "--max-obs", "1", "--format", "records"]
            + flags,
        )
        assert code == 4
        error = json.loads(err.splitlines()[-1])
        assert (error["error"], error["message"]) == ("ConfigError", message)
        assert not any(r["type"] == "bound" for r in records(out))

    def test_bench_rows(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "bench", "--problem", "tiger", "--horizons", "1,2",
                "--oracle-limit", "2", "--format", "records",
            ],
        )
        assert code == 0
        rows = [r for r in records(out) if r["type"] == "bench-row"]
        assert [r["horizon"] for r in rows] == [1, 2]
        for row in rows:
            assert row["optimal"] is not None
            assert row["mbdp"] <= row["optimal"] + 1e-9
            assert row["improved"] <= row["optimal"] + 1e-9
            assert row["random"] <= row["optimal"] + 1e-9

    def test_bench_seeds_report_best_over_seeds(self, capsys):
        base = ["bench", "--problem", "mabc", "--horizons", "3,5", "--oracle-limit", "0",
                "--heuristics", "random", "--seed", "2", "--format", "records"]
        code, out, _ = run(capsys, base + ["--seeds", "3"])
        assert code == 0
        rows = [r for r in records(out) if r["type"] == "bench-row"]
        for row in rows:
            model = build_mabc(horizon=row["horizon"])
            cfg = SolverConfig(max_trees=3, heuristics=("random",))
            for name, solve in (("mbdp", mbdp), ("improved", improved_mbdp)):
                assert row[name] == max(solve(model, replace(cfg, seed=s)).value for s in (2, 3, 4))
        code, out, _ = run(capsys, base)
        one = [r for r in records(out) if r["type"] == "bench-row"]
        cfg = SolverConfig(heuristics=("random",), seed=2)
        assert [r["mbdp"] for r in one] == [
            mbdp(build_mabc(horizon=h), cfg).value for h in (3, 5)
        ]
        code, _, _ = run(capsys, base + ["--seeds", "0"])
        assert code == 4

    def test_horizon_range_syntax(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "bench", "--problem", "tiger", "--horizons", "1..3",
                "--oracle-limit", "0", "--format", "records",
            ],
        )
        assert code == 0
        rows = [r for r in records(out) if r["type"] == "bench-row"]
        assert [r["horizon"] for r in rows] == [1, 2, 3]
        assert all(r["optimal"] is None for r in rows)


    def test_exact_cap_defaults_match_api(self):
        args = build_parser().parse_args(["exact", "--problem", "tiger"])
        caps = inspect.signature(exact_solve).parameters
        for cap in ("max_candidates", "max_pairs"):
            assert getattr(args, cap) == caps[cap].default


class TestExitCodes:
    def test_missing_problem_file(self, capsys):
        code, _, err = run(capsys, ["solve", "--problem", "nope.problem", "--format", "records"])
        assert code == 4
        assert json.loads(err.splitlines()[-1])["type"] == "error"

    def test_capacity_exhaustion(self, capsys):
        code, _, err = run(
            capsys,
            [
                "exact", "--problem", "mabc", "--horizon", "9",
                "--max-candidates", "10", "--format", "records",
            ],
        )
        assert code == 3
        assert json.loads(err.splitlines()[-1])["error"] == "CapacityError"

    def test_backup_cap_message_names_the_options(self, capsys):
        code, out, err = run(
            capsys,
            ["solve", "--problem", "mabc", "--horizon", "4", "--max-trees", "9", "--max-obs", "1",
             "--backup-cap", "10", "--format", "records"],
        )
        assert code == 3
        assert not any(r["type"] == "result" for r in records(out))
        error = json.loads(err.splitlines()[-1])
        assert (error["error"], error["message"]) == (
            "CapacityError",
            "backup for agent 0 would create 16 trees (cap 10); "
            "lower max_trees or max_obs, or raise backup_cap",
        )

    def test_selection_grid_cap_exits_three(self, capsys, tmp_path):
        # full backups of 13,122 trees per agent fit backup_cap; level 3's
        # selection grid does not fit its cap
        problem = tmp_path / "wide.problem"
        problem.write_text(
            problem_to_text(random_model(0, num_states=2, obs_counts=(8, 8), horizon=4))
        )
        code, _, err = run(
            capsys,
            ["solve", "--problem", str(problem), "--solver", "mbdp", "--format", "records"],
        )
        assert code == 3
        error = json.loads(err.splitlines()[-1])
        assert error["error"] == "CapacityError"
        assert error["message"].startswith("level 3 would score 516560652 floats")

    def test_selection_array_cap_exits_three_at_once(self, capsys):
        argv = ["solve", "--problem", "boxpush", "--horizon", "10", "--max-trees", "1000000",
                "--max-obs", "3", "--format", "records"]
        result = []
        peak = traced_peak_mb(lambda: result.append(run(capsys, argv)))
        code, out, err = result[0]
        assert code == 3
        assert not any(r["type"] == "result" for r in records(out))
        error = json.loads(err.splitlines()[-1])
        assert error["error"] == "CapacityError"
        assert error["message"].startswith("selection beliefs would take 1800000000 floats")
        # building the 100-state model takes about 8.4 MB; the arrays would take 14.4 GB
        assert peak < 16

    def test_simulation_array_cap_exits_three_at_once(self, capsys, tmp_path):
        policy = tmp_path / "tiger.policy"
        run(capsys, ["solve", "--problem", "tiger", "--horizon", "2", "--output", str(policy)])
        argv = ["simulate", "--problem", "tiger", "--horizon", "2", "--policy", str(policy),
                "--episodes", "1000000000", "--format", "records"]
        result = []
        peak = traced_peak_mb(lambda: result.append(run(capsys, argv)))
        code, out, err = result[0]
        assert code == 3
        assert not any(r["type"] == "result" for r in records(out))
        assert json.loads(err.splitlines()[-1]) == {
            "schema": 1, "type": "error", "error": "CapacityError",
            "message": "1000000000 episodes would take 5000000000 floats (cap 268435456); lower episodes",
        }
        # five arrays of 10^9 entries would take 40 GB
        assert peak < 1

    def test_problem_table_cap_exits_three_at_once(self, capsys, tmp_path):
        problem = tmp_path / "huge.problem"
        problem.write_text(
            "agents: 2\nstates: 200000\nactions: 0 a b\nactions: 1 a b\nobservations: 0 x y\n"
            "observations: 1 x y\nhorizon: 2\nstart: uniform\nT: a a s0 s1 1.0\n"
        )
        # the problem is refused before the policy file is opened
        argv = ["evaluate", "--problem", str(problem), "--policy", "missing.policy", "--format", "records"]
        result = []
        peak = traced_peak_mb(lambda: result.append(run(capsys, argv)))
        code, out, err = result[0]
        assert code == 3
        assert json.loads(err.splitlines()[-1]) == {
            "schema": 1, "type": "error", "error": "CapacityError",
            "message": "tables T, O and R would take 320003200000 floats for 200000 states, "
                       "4 joint actions and 4 joint observations (cap 268435456)",
        }
        # T, O and R would take 2.6 TB, and the state names alone about 13 MB
        assert peak < 1

    def test_bad_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--no-such-flag"])
        assert exc.value.code == 2

    def test_deeply_nested_policy_file_exits_four(self, capsys, tmp_path):
        model = random_model(2, obs_counts=(1, 1), horizon=600)
        problem = tmp_path / "single.problem"
        problem.write_text(problem_to_text(model))
        trees = []
        for i in range(2):
            action, obs = model.actions[i][0], model.observations[i][0]
            opening = f'{{"action": "{action}", "children": {{"{obs}": ' * 599
            trees.append(f'{{"agent": {i}, "tree": {opening}{{"action": "{action}"}}{"}}" * 599}}}')
        policy = tmp_path / "deep.policy"
        policy.write_text(
            '{"format": "mbdp-joint-policy", "version": 1, "representation": "nested", '
            f'"agents": [{", ".join(trees)}]}}'
        )
        code, _, err = run(
            capsys,
            ["evaluate", "--problem", str(problem), "--policy", str(policy), "--format", "records"],
        )
        assert code == 4
        assert json.loads(err.splitlines()[-1]) == {
            "schema": 1, "type": "error", "error": "ParseError", "message": "policy nests too deeply",
        }

    @pytest.mark.parametrize("form", ["nested", "shared"])
    def test_policy_file_with_uneven_child_depths_exits_four(self, capsys, tmp_path, form):
        leaf = {"action": "listen"}
        inner = {"action": "listen", "children": {"hear-left": leaf, "hear-right": leaf}}
        entries = [{"agent": i, "tree": {**inner, "children": {"hear-left": leaf, "hear-right": inner}}}
                   for i in range(2)]
        if form == "shared":
            nodes = [leaf, {**inner, "children": {"hear-left": 0, "hear-right": 0}},
                     {**inner, "children": {"hear-left": 0, "hear-right": 1}}]
            entries = [{"agent": i, "root": 2, "nodes": nodes} for i in range(2)]
        policy = tmp_path / "uneven.policy"
        policy.write_text(json.dumps(
            {"format": "mbdp-joint-policy", "version": 1, "representation": form, "agents": entries}
        ))
        code, _, err = run(
            capsys,
            ["evaluate", "--problem", "tiger", "--horizon", "3", "--policy", str(policy), "--format", "records"],
        )
        assert code == 4
        record = json.loads(err.splitlines()[-1])
        assert record["error"] == "ParseError" and "child depths" in record["message"]

    @pytest.mark.parametrize("command", ["solve", "exact", "bound"])
    def test_horizon_below_one_exits_four(self, capsys, command):
        argv = [command, "--problem", "tiger", "--horizon", "0", "--format", "records"]
        if command == "bound":
            argv += ["--max-obs", "1"]
        code, out, err = run(capsys, argv)
        assert code == 4
        assert out == ""
        assert json.loads(err.splitlines()[-1])["message"] == "horizon must be an integer >= 1, got 0"

    def test_malformed_problem_file(self, capsys, tmp_path):
        path = tmp_path / "broken.problem"
        path.write_text("agents: 2\nstates: a b\n")
        code, _, err = run(capsys, ["solve", "--problem", str(path), "--format", "records"])
        assert code == 4

    def test_malformed_boxpush_config_exits_four(self, capsys, tmp_path):
        path = tmp_path / "box.json"
        path.write_text('{"small_boxes": [[0]]}')
        code, out, err = run(capsys, ["solve", "--problem", f"boxpush:{path}", "--format", "records"])
        assert (code, out) == (4, "")
        assert records(err) == [
            {
                "schema": 1,
                "type": "error",
                "error": "ConfigError",
                "message": "a small box cell must be two integers [x, y], got (0,)",
            }
        ]

    def test_start_belief_off_the_simplex_prints_a_plain_float(self, capsys, tmp_path):
        text = problem_to_text(build_tiger())
        assert "start: 0.5 0.5\n" in text
        path = tmp_path / "tiger.problem"
        path.write_text(text.replace("start: 0.5 0.5\n", "start: 0.5 0.6\n"))
        code, out, err = run(capsys, ["exact", "--problem", str(path), "--format", "records"])
        assert (code, out) == (4, "")
        assert json.loads(err.splitlines()[-1])["message"] == "belief sums to 1.1, not 1"


class TestNonFiniteModel:
    def problem_file(self, tmp_path):
        model = DecPomdp(
            states=("left", "right"),
            actions=(("go", "stay"), ("go", "stay")),
            observations=(("hot", "cold"), ("hot", "cold")),
            transition=np.full((4, 2, 2), 0.5),
            observation=np.full((4, 2, 4), 0.25),
            reward=np.ones((4, 2, 2)),
            initial_belief=np.array([0.5, 0.5]),
            horizon=3,
            name="two-state-demo",
        )
        text = problem_to_text(model)
        assert "T: go go left left 0.5\n" in text
        path = tmp_path / "nan.problem"
        path.write_text(text.replace("T: go go left left 0.5\n", "T: go go left left nan\n"))
        return str(path)

    @pytest.mark.parametrize(
        "argv", [["exact"], ["solve", "--max-obs", "1"]], ids=["exact", "solve"]
    )
    def test_nan_probability_exits_four(self, capsys, tmp_path, argv):
        path = self.problem_file(tmp_path)
        code, out, err = run(capsys, argv + ["--problem", path, "--format", "records"])
        assert code == 4
        assert out == ""
        assert "non-finite" in json.loads(err.splitlines()[-1])["message"]


class TestRunIdentity:
    def drop_timing(self, out):
        return "\n".join(
            line for line in out.splitlines() if '"type": "timing"' not in line and '"type":"timing"' not in line
        )

    def test_reports_identical_across_runs(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(
                capsys,
                ["solve", "--problem", "mabc", "--horizon", "6", "--format", "records", "--seed", "4"],
            )
            assert code == 0
            outputs.append(self.drop_timing(out))
        assert outputs[0] == outputs[1]


class TestThreeAgents:
    """Every subcommand on a problem file with three agents, against the API."""

    @pytest.fixture
    def problem(self, tmp_path):
        path = tmp_path / "three.problem"
        path.write_text(problem_to_text(three_agent_model(4)))
        return str(path)

    def result(self, capsys, argv, kind="result"):
        code, out, err = run(capsys, argv + ["--format", "records"])
        assert (code, err) == (0, "")
        return next(r for r in records(out) if r["type"] == kind)

    def test_every_subcommand_matches_the_api(self, capsys, problem, tmp_path):
        model = load_problem(problem)
        assert model.num_agents == 3
        policy_file = tmp_path / "three.policy"
        for solver, solve in (("improved", improved_mbdp), ("mbdp", mbdp)):
            rec = self.result(
                capsys, ["solve", "--problem", problem, "--solver", solver, "--output", str(policy_file)]
            )
            report = solve(model, SolverConfig())
            assert (rec["solver"], rec["value"]) == (report.solver, report.value)
            assert rec["policy"] == serialize_policy(model, report.policy)
        rec = self.result(capsys, ["solve", "--problem", problem, "--solver", "random"])
        assert rec["value"] == random_policy_baseline(model, seed=0).value

        # the policy file holds the last solve's policy, mbdp's
        policy = parse_policy(model, policy_file.read_text())
        rec = self.result(capsys, ["evaluate", "--problem", problem, "--policy", str(policy_file)])
        assert rec["value"] == evaluate_at_belief(model, policy, model.initial_belief)
        rec = self.result(
            capsys,
            ["simulate", "--problem", problem, "--policy", str(policy_file), "--episodes", "2000"],
        )
        sim = simulate(model, policy, episodes=2000, seed=0)
        assert (rec["value"], rec["std_error"]) == (sim.mean, sim.std_error)

        # exact enumeration and exact reachability are in reach below h=4
        rec = self.result(capsys, ["exact", "--problem", problem, "--horizon", "2"])
        assert rec["value"] == exact_solve(replace(model, horizon=2)).value
        rec = self.result(
            capsys, ["bound", "--problem", problem, "--horizon", "3", "--max-obs", "1"], "bound"
        )
        report = epsilon_global(replace(model, horizon=3), max_obs=1)
        assert (rec["epsilon"], rec["beliefs_checked"]) == (report.epsilon, report.beliefs_checked)
        assert rec["bound"] == error_bound(replace(model, horizon=3), report.epsilon)

        code, out, err = run(
            capsys, ["bench", "--problem", problem, "--horizons", "1..2", "--format", "records"]
        )
        assert (code, err) == (0, "")
        rows = [r for r in records(out) if r["type"] == "bench-row"]
        assert [r["horizon"] for r in rows] == [1, 2]
        for row in rows:
            at_h = replace(model, horizon=row["horizon"])
            assert row["optimal"] == exact_solve(at_h).value
            assert row["random"] == uniform_random_value(at_h)
            assert row["mbdp"] == mbdp(at_h, SolverConfig()).value
            assert row["improved"] == improved_mbdp(at_h, SolverConfig()).value
