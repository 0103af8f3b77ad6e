import inspect
import json
from dataclasses import replace

import numpy as np
import pytest

from mbdp import (
    DecPomdp,
    ParseError,
    SolverConfig,
    build_mabc,
    build_tiger,
    evaluate_at_belief,
    exact_solve,
    improved_mbdp,
    mbdp,
    parse_policy,
)
from mbdp.cli import build_parser, load_problem, main, parse_problem_text, problem_to_text

from conftest import random_model


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
        assert back.horizon == model.horizon

    def test_builtin_round_trips(self):
        self.round_trip(build_tiger())
        self.round_trip(build_mabc())

    def test_random_model_round_trips(self):
        self.round_trip(random_model(33, num_states=4, obs_counts=(3, 2)))

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
            (["--mode", "sampled", "--budget", "0"], "budget must be >= 1"),
            (["--max-beliefs", "0"], "max_beliefs must be >= 1"),
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
        for cap in ("max_candidates", "max_pairs", "max_stream"):
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

    def test_malformed_problem_file(self, capsys, tmp_path):
        path = tmp_path / "broken.problem"
        path.write_text("agents: 2\nstates: a b\n")
        code, _, err = run(capsys, ["solve", "--problem", str(path), "--format", "records"])
        assert code == 4


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
