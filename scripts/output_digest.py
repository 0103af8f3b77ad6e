#!/usr/bin/env python3
"""SHA-256 digests of every deterministic output, to compare two source trees.

Each run below is solved, bounded, simulated or driven through the CLI
in this process, and its outputs are written as canonical JSON (floats
by ``repr``, so every bit counts) and hashed.  The script prints one
``<sha256>  <run>`` line per run, then one line for all of them
together.  The ``boxpush-tables-*`` runs hash the T, O, R, start belief
and state names of box pushing's default layout and of each layout the
tests pin.  Planner reports keep every level record field except
``millis``, and the policy file of the returned policy.  CLI runs keep
the exit code, stdout and stderr of every subcommand in both formats,
and the policy file it writes; ``timing`` records are dropped, because
they are the only output that depends on the machine's speed.  BLAS is
pinned to one thread.  To digest another source tree, point PYTHONPATH
at its ``src``; two trees with the same output print the same lines.

Example:
    PYTHONPATH=src python3 scripts/output_digest.py > digests.txt
    PYTHONPATH=../parent/src python3 scripts/output_digest.py | diff digests.txt -
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[key] = "1"

import numpy as np  # noqa: E402

import mbdp  # noqa: E402
from mbdp.cli import main as cli_main  # noqa: E402
from mbdp.cli import problem_to_text  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import BOXPUSH_LAYOUTS, table_digest, three_agent_model  # noqa: E402


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


def planner(model, solve, **config):
    report = solve(model, mbdp.SolverConfig(**config))
    levels = [
        {f.name: getattr(level, f.name) for f in dataclasses.fields(level) if f.name != "millis"}
        for level in report.levels
    ]
    return {
        "solver": report.solver,
        "value": report.value,
        "round_values": report.round_values,
        "levels": levels,
        "policy": mbdp.serialize_policy(model, report.policy),
    }


def exact(model):
    result = mbdp.exact_solve(model)
    return {
        "value": result.value,
        "state_values": result.state_values,
        "candidate_counts": result.candidate_counts,
        "policy": mbdp.serialize_policy(model, result.policy),
    }


def epsilon(model, max_obs):
    report = mbdp.epsilon_global(model, max_obs=max_obs)
    fields = dataclasses.asdict(report)
    fields["bound"] = mbdp.error_bound(model, report.epsilon)
    return fields


def random_baseline(model):
    result = mbdp.random_policy_baseline(model, seed=0)
    return {
        "value": result.value,
        "std_error": result.std_error,
        "samples": result.samples,
        "policy": mbdp.serialize_policy(model, result.policy),
    }


def cli(argv, written=()):
    """Exit code, stdout with timing records dropped, stderr, and the files ``written``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    lines = [
        line for line in out.getvalue().splitlines()
        if not (line.startswith("{") and json.loads(line).get("type") == "timing")
    ]
    files = {name: Path(name).read_text(encoding="utf-8") for name in written}
    return {"code": code, "stdout": lines, "stderr": err.getvalue(), "files": files}


def cli_runs():
    """Every subcommand in both formats, run in a scratch directory with relative paths."""
    runs = {}
    three = three_agent_model(4)
    with tempfile.TemporaryDirectory() as scratch, contextlib.chdir(scratch):
        Path("three.txt").write_text(problem_to_text(three), encoding="utf-8")
        for fmt in ("human", "records"):
            tiger = ["--problem", "tiger", "--horizon", "3", "--format", fmt]
            policy = f"tiger-{fmt}.policy"
            commands = {
                "solve-improved": ["solve", *tiger, "--max-obs", "1", "--output", policy],
                "solve-mbdp": ["solve", *tiger, "--solver", "mbdp", "--recursion-depth", "1"],
                "solve-random": ["solve", *tiger, "--solver", "random", "--samples", "4"],
                "exact": ["exact", *tiger],
                "evaluate": ["evaluate", *tiger, "--policy", policy],
                "simulate": ["simulate", *tiger, "--policy", policy, "--episodes", "1000"],
                "bound": ["bound", *tiger, "--max-obs", "1"],
                "bench": ["bench", "--problem", "mabc", "--horizons", "1..3", "--format", fmt],
                "solve-three": ["solve", "--problem", "three.txt", "--format", fmt],
                "error": ["evaluate", *tiger, "--policy", "missing.policy"],
            }
            for name, argv in commands.items():
                written = (policy,) if name == "solve-improved" else ()
                runs[f"cli-{name}-{fmt}"] = cli(argv, written)
    return runs


def all_runs():
    boxpush = mbdp.build_boxpush(horizon=10)
    runs = {}
    for seed in range(3):
        runs[f"boxpush-h10-3x3-seed{seed}"] = planner(
            boxpush, mbdp.improved_mbdp, max_trees=3, max_obs=3, seed=seed
        )
    runs["boxpush-h10-5x2-seed0"] = planner(boxpush, mbdp.improved_mbdp, max_trees=5, max_obs=2)
    mabc = mbdp.build_mabc(horizon=100)
    for seed in range(3):
        runs[f"mabc-h100-mbdp-seed{seed}"] = planner(
            mabc, mbdp.mbdp, heuristics=("random",), seed=seed
        )
    runs["tiger-h8-2x1-replay2"] = planner(
        mbdp.build_tiger(horizon=8), mbdp.improved_mbdp, max_trees=2, max_obs=1, recursion_depth=2
    )
    # a narrow level: max_trees is above tiger's three actions
    runs["tiger-h4-mbdp-4-mdp"] = planner(
        mbdp.build_tiger(horizon=4), mbdp.mbdp, max_trees=4, heuristics=("mdp",)
    )
    runs["three-agent-h6"] = planner(three_agent_model(6), mbdp.improved_mbdp, max_obs=1)
    runs["exact-tiger-h3"] = exact(mbdp.build_tiger(horizon=3))
    runs["exact-mabc-h3"] = exact(mbdp.build_mabc(horizon=3))
    runs["exact-boxpush-h2"] = exact(mbdp.build_boxpush(horizon=2))
    runs["epsilon-boxpush-h6-obs2"] = epsilon(mbdp.build_boxpush(horizon=6), 2)
    runs["epsilon-mabc-h6-obs1"] = epsilon(mbdp.build_mabc(horizon=6), 1)
    # the bound of the benchmark's boxpush-budgeted workload, whose deeper
    # depths multiply only the states each block of beliefs reaches
    runs["epsilon-boxpush-h8-obs3"] = epsilon(mbdp.build_boxpush(horizon=8), 3)
    runs["epsilon-tiger-h5-obs1"] = epsilon(mbdp.build_tiger(horizon=5), 1)
    # the exact-oracle workload's bounds, whose depths are each shorter
    # than one block, so their joint actions go in groups; box pushing
    # h=3 at max_obs 3 also sums b0's captures as lone rows
    runs["epsilon-tiger-h3-obs1"] = epsilon(mbdp.build_tiger(horizon=3), 1)
    runs["epsilon-mabc-h3-obs1"] = epsilon(mbdp.build_mabc(horizon=3), 1)
    runs["epsilon-boxpush-h2-obs1"] = epsilon(mbdp.build_boxpush(horizon=2), 1)
    runs["epsilon-boxpush-h3-obs3"] = epsilon(mbdp.build_boxpush(horizon=3), 3)
    policy = mbdp.improved_mbdp(boxpush, mbdp.SolverConfig(max_obs=3)).policy
    runs["simulate-boxpush-h10"] = dataclasses.asdict(mbdp.simulate(boxpush, policy, 20_000, seed=0))
    # the benchmark's mabc-full policy, whose children never depend on the
    # joint observation, and a three-agent policy that mixes depths whose
    # children do with depths whose children do not, on one and two tuples
    best = max(
        (mbdp.mbdp(mabc, mbdp.SolverConfig(heuristics=("random",), seed=seed)) for seed in range(10)),
        key=lambda report: report.value,
    )
    runs["simulate-mabc-h100"] = dataclasses.asdict(mbdp.simulate(mabc, best.policy, 20_000, seed=0))
    three = three_agent_model(6)
    policy = mbdp.improved_mbdp(three, mbdp.SolverConfig(max_trees=2, max_obs=1)).policy
    runs["simulate-three-agent-h6"] = dataclasses.asdict(mbdp.simulate(three, policy, 20_000, seed=0))
    # box pushing h=10 passes RANDOM_NODE_CAP and draws shared levels;
    # tiger h=3 stays within it and draws whole trees
    runs["random-baseline-boxpush-h10"] = random_baseline(boxpush)
    runs["random-baseline-tiger-h3"] = random_baseline(mbdp.build_tiger(horizon=3))
    for name, layout in {"default": None, **BOXPUSH_LAYOUTS}.items():
        runs[f"boxpush-tables-{name}"] = table_digest(mbdp.build_boxpush(layout, horizon=2))
    runs.update(cli_runs())
    return runs


def main():
    digests = {name: digest(payload) for name, payload in all_runs().items()}
    for name, value in digests.items():
        print(f"{value}  {name}")
    print(f"{digest(digests)}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
