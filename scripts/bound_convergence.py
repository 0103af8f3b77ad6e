#!/usr/bin/env python3
"""Show how the partial-backup loss bound tightens with the budget.

Sweeps the per-agent observation budget from 1 to the full alphabet and
reports the guaranteed capture mass, the resulting a-priori loss bound,
and the best partial-backup value found.  Column ``full-part`` is the
best full-backup value minus it.  Both planners are heuristic, so that
is a difference of two heuristic values, not the loss the bound covers,
and it can be negative.  Each row also shows how many beliefs the
capture-mass search checked and its wall seconds.  Column ``kept`` is
the smallest mass the best partial run's levels kept at their ranking
beliefs, ``-`` where that run made full backups.  It can fall below
``epsilon``: the planner ranks at heuristic beliefs with observations
marginalized, which the capture-mass search does not enumerate.

Example:
    python3 scripts/bound_convergence.py --problem mabc --horizon 6
"""

import argparse
import sys
import time
from dataclasses import replace

from mbdp import (
    CapacityError,
    SolverConfig,
    build_builtin,
    epsilon_global,
    error_bound,
    improved_mbdp,
    mbdp,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--problem", default="mabc")
    ap.add_argument("--horizon", type=int, default=6)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--max-trees", type=int, default=3)
    ap.add_argument("--heuristics", default="random")
    ap.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    ap.add_argument("--budget", type=int, default=512, help="rollouts in sampled mode")
    args = ap.parse_args(argv)

    model = build_builtin(args.problem, horizon=args.horizon)
    heuristics = tuple(args.heuristics.split(","))
    cfg = SolverConfig(max_trees=args.max_trees, heuristics=heuristics)
    alphabet = max(len(o) for o in model.observations)

    full = max(
        mbdp(model, replace(cfg, seed=s)).value for s in range(args.seeds)
    )
    print(f"# problem={args.problem} horizon={args.horizon} "
          f"full-backup value={full:.4f} ({args.mode} capture mass)")
    header = (f"{'max_obs':>8}  {'epsilon':>8}  {'bound':>10}  "
              f"{'partial':>10}  {'full-part':>9}  {'beliefs':>8}  {'eps_s':>7}  {'kept':>8}")
    print(header)
    print("-" * len(header))

    for budget in range(1, alphabet + 1):
        start = time.perf_counter()
        try:
            report = epsilon_global(
                model, max_obs=budget, mode=args.mode, budget=args.budget
            )
            seconds = time.perf_counter() - start
        except CapacityError as exc:
            print(f"{budget:>8}  belief enumeration overflowed: {exc}")
            continue
        mu = error_bound(model, report.epsilon)
        best = max(
            (improved_mbdp(model, replace(cfg, seed=s, max_obs=budget)) for s in range(args.seeds)),
            key=lambda run: run.value,
        )
        partial = best.value
        masses = [level.captured_mass for level in best.levels if level.partial]
        kept = f"{min(masses):8.4f}" if masses else f"{'-':>8}"
        print(f"{budget:>8}  {report.epsilon:8.4f}  {mu:10.4f}  "
              f"{partial:10.4f}  {full - partial:9.4f}  {report.beliefs_checked:>8}  {seconds:7.3f}  {kept}")
    print("# full-part: full-backup minus partial-backup value, both heuristic; "
          "not the loss the bound covers, and it can be negative")
    if args.mode == "sampled":
        print("# sampled capture mass is an estimate, not a guarantee")
    return 0


if __name__ == "__main__":
    sys.exit(main())
