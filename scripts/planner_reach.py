#!/usr/bin/env python3
"""Time and peak memory of the planner on wide levels and long horizons.

Each run solves its model at its horizon with seed 0 in a fresh Python
process, so its peak resident set is its own, after one solve at h=2
that pays the process's first-call costs, and prints one JSON line:
the run's name, its settings, the solve's wall time and milliseconds
per level (wall time over the horizon), the process's maximum RSS and
the returned value.  The box-pushing runs (h=10) load wide levels; the
broadcast-channel runs keep narrow levels over long horizons, where the
cost of one level sets the cost of the solve.  ``mabc-mbdp-3-h100`` is
one seed of the benchmark's mabc-full solve.  The ``epsilon-`` runs
instead compute the exact ``epsilon_global`` in a fresh process, after
one at h=2, and print its wall time, the maximum RSS, epsilon and the
beliefs checked.  The ``exact-`` runs time ``exact_solve``, whose top
level is a best response, the same way, and print the optimal value and
the candidate counts per level.  BLAS is pinned to one thread, as in
the benchmark.  To measure another source tree, point PYTHONPATH at its
``src``.

Example:
    PYTHONPATH=src python3 scripts/planner_reach.py
    PYTHONPATH=src python3 scripts/planner_reach.py --runs improved-8x3 --repeat 3
    PYTHONPATH=src python3 scripts/planner_reach.py --runs epsilon-boxpush-h10
    PYTHONPATH=src python3 scripts/planner_reach.py --runs exact-mabc-h4 --repeat 3
"""

import argparse
import json
import os
import subprocess
import sys

# name -> (model, horizon, solver, max_trees, max_obs, heuristics)
DEFAULT_PORTFOLIO = ("mdp", "random")
RUNS = {
    "improved-5x3": ("boxpush", 10, "improved_mbdp", 5, 3, DEFAULT_PORTFOLIO),
    "improved-8x3": ("boxpush", 10, "improved_mbdp", 8, 3, DEFAULT_PORTFOLIO),
    "mbdp-3": ("boxpush", 10, "mbdp", 3, None, DEFAULT_PORTFOLIO),
    # full backups of 4,096 trees per agent: several GB before the
    # factored scoring kernel, so it is not in the default set
    "mbdp-4": ("boxpush", 10, "mbdp", 4, None, DEFAULT_PORTFOLIO),
    "mabc-improved-3x2-h100": ("mabc", 100, "improved_mbdp", 3, 2, DEFAULT_PORTFOLIO),
    "mabc-improved-3x2-h1000": ("mabc", 1000, "improved_mbdp", 3, 2, DEFAULT_PORTFOLIO),
    "mabc-improved-3x2-h4000": ("mabc", 4000, "improved_mbdp", 3, 2, DEFAULT_PORTFOLIO),
    "mabc-mbdp-3-h100": ("mabc", 100, "mbdp", 3, None, ("random",)),
}
# name -> (model, horizon, max_obs) of an exact epsilon_global run
EPSILON_RUNS = {"epsilon-boxpush-h10": ("boxpush", 10, 3)}
# name -> (model, horizon) of an exact_solve run
EXACT_RUNS = {
    "exact-tiger-h3": ("tiger", 3),
    "exact-mabc-h4": ("mabc", 4),
    "exact-boxpush-h2": ("boxpush", 2),
}
ALL_RUNS = (*RUNS, *EPSILON_RUNS, *EXACT_RUNS)
DEFAULT_RUNS = tuple(name for name in ALL_RUNS if name != "mbdp-4")
SEED = 0

CHILD = """
import json, resource, sys, time
import mbdp
problem, horizon, solver, max_trees, max_obs, heuristics, seed = json.loads(sys.argv[1])
build = getattr(mbdp, "build_" + problem)
cfg = mbdp.SolverConfig(max_trees=max_trees, max_obs=max_obs, heuristics=heuristics, seed=seed)
# a solve at h=2 first pays the process's first-call costs, which are
# about as large as a whole mabc h=100 solve
getattr(mbdp, solver)(build(horizon=2), cfg)
model = build(horizon=horizon)
started = time.perf_counter()
report = getattr(mbdp, solver)(model, cfg)
wall = time.perf_counter() - started
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"wall_s": wall, "ms_per_level": wall * 1000.0 / horizon, "max_rss_mb": rss,
                  "value": report.value}))
"""

EPSILON_CHILD = """
import json, resource, sys, time
import mbdp
problem, horizon, max_obs = json.loads(sys.argv[1])
build = getattr(mbdp, "build_" + problem)
mbdp.epsilon_global(build(horizon=2), max_obs=max_obs)
model = build(horizon=horizon)
started = time.perf_counter()
report = mbdp.epsilon_global(model, max_obs=max_obs)
wall = time.perf_counter() - started
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"wall_s": wall, "max_rss_mb": rss, "epsilon": report.epsilon,
                  "beliefs_checked": report.beliefs_checked}))
"""

EXACT_CHILD = """
import json, resource, sys, time
import mbdp
problem, horizon = json.loads(sys.argv[1])
build = getattr(mbdp, "build_" + problem)
mbdp.exact_solve(build(horizon=2))
model = build(horizon=horizon)
started = time.perf_counter()
result = mbdp.exact_solve(model)
wall = time.perf_counter() - started
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"wall_s": wall, "max_rss_mb": rss, "value": result.value,
                  "candidate_counts": result.candidate_counts}))
"""

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_one(name):
    if name in EPSILON_RUNS:
        problem, horizon, max_obs = EPSILON_RUNS[name]
        child, args = EPSILON_CHILD, [problem, horizon, max_obs]
        settings = {"model": problem, "horizon": horizon, "max_obs": max_obs}
    elif name in EXACT_RUNS:
        problem, horizon = EXACT_RUNS[name]
        child, args = EXACT_CHILD, [problem, horizon]
        settings = {"model": problem, "horizon": horizon, "solver": "exact_solve"}
    else:
        problem, horizon, solver, max_trees, max_obs, heuristics = RUNS[name]
        child, args = CHILD, [problem, horizon, solver, max_trees, max_obs, heuristics, SEED]
        settings = {
            "model": problem,
            "horizon": horizon,
            "solver": solver,
            "max_trees": max_trees,
            "max_obs": max_obs,
            "heuristics": list(heuristics),
            "seed": SEED,
        }
    env = dict(os.environ, **{key: "1" for key in PINNED_THREADS})
    out = subprocess.run(
        [sys.executable, "-c", child, json.dumps(args)],
        env=env, capture_output=True, text=True, check=True,
    )
    return {"run": name, **settings, **json.loads(out.stdout)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--runs",
        default=",".join(DEFAULT_RUNS),
        help=f"comma-separated names out of {', '.join(ALL_RUNS)}",
    )
    ap.add_argument("--repeat", type=int, default=1, help="fresh processes per run")
    args = ap.parse_args(argv)
    names = args.runs.split(",")
    unknown = [name for name in names if name not in ALL_RUNS]
    if unknown:
        ap.error(f"unknown runs {unknown}; choose from {list(ALL_RUNS)}")
    for _ in range(args.repeat):
        for name in names:
            print(json.dumps(run_one(name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
