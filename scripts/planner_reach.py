#!/usr/bin/env python3
"""Time and peak memory of the planner on wide box-pushing levels.

Each run solves box pushing h=10 with seed 0 in a fresh Python process,
so its peak resident set is its own, and prints one JSON line: the
run's name, its settings, the solve's wall time, the process's maximum
RSS and the returned value.  BLAS is pinned to one thread, as in the benchmark.  To
measure another source tree, point PYTHONPATH at its ``src``.

Example:
    PYTHONPATH=src python3 scripts/planner_reach.py
    PYTHONPATH=src python3 scripts/planner_reach.py --runs improved-8x3 --repeat 3
"""

import argparse
import json
import os
import subprocess
import sys

# name -> (solver, max_trees, max_obs)
RUNS = {
    "improved-5x3": ("improved_mbdp", 5, 3),
    "improved-8x3": ("improved_mbdp", 8, 3),
    "mbdp-3": ("mbdp", 3, None),
    # full backups of 4,096 trees per agent: several GB before the
    # factored scoring kernel, so it is not in the default set
    "mbdp-4": ("mbdp", 4, None),
}
DEFAULT_RUNS = ("improved-5x3", "improved-8x3", "mbdp-3")
HORIZON = 10
SEED = 0

CHILD = """
import json, resource, sys, time
import mbdp
solver, max_trees, max_obs, horizon, seed = json.loads(sys.argv[1])
model = mbdp.build_boxpush(horizon=horizon)
cfg = mbdp.SolverConfig(max_trees=max_trees, max_obs=max_obs, seed=seed)
started = time.perf_counter()
report = getattr(mbdp, solver)(model, cfg)
wall = time.perf_counter() - started
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"wall_s": wall, "max_rss_mb": rss, "value": report.value}))
"""

PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_one(name):
    solver, max_trees, max_obs = RUNS[name]
    env = dict(os.environ, **{key: "1" for key in PINNED_THREADS})
    args = json.dumps([solver, max_trees, max_obs, HORIZON, SEED])
    out = subprocess.run(
        [sys.executable, "-c", CHILD, args], env=env, capture_output=True, text=True, check=True
    )
    measured = json.loads(out.stdout)
    return {
        "run": name,
        "solver": solver,
        "max_trees": max_trees,
        "max_obs": max_obs,
        "horizon": HORIZON,
        "seed": SEED,
        **measured,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--runs",
        default=",".join(DEFAULT_RUNS),
        help=f"comma-separated names out of {', '.join(RUNS)}",
    )
    ap.add_argument("--repeat", type=int, default=1, help="fresh processes per run")
    args = ap.parse_args(argv)
    names = args.runs.split(",")
    unknown = [name for name in names if name not in RUNS]
    if unknown:
        ap.error(f"unknown runs {unknown}; choose from {list(RUNS)}")
    for _ in range(args.repeat):
        for name in names:
            print(json.dumps(run_one(name)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
