"""One benchmark workload, run in its own single-threaded process.

    python3 perfbench/bench_workloads.py WORKLOAD --seed N --seconds S --trace 0|1

``run.py`` starts this script with the package's ``src`` directory on
``PYTHONPATH`` and BLAS/OpenMP pinned to one thread.  The last line of
standard output is one JSON object with the operation counts, the
metrics and any check failures.

A round runs a workload's solve stage ``solve_repeats`` times, then its
simulate and bound stages; each stage samples its metric one or more
times and the round keeps the median.  Untraced runs repeat whole rounds
until ``--seconds`` have passed (at least one round) and report the
median over the rounds; their times are scaled to a reference machine
speed by ``bench_clock``.  Traced runs time one untraced solve stage in
wall seconds, then trace one whole round with a single solve and report
per-layer metrics.

Every program call is one operation.  It fails when it raises or when a
check on its output (``bench_checks``) fails.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import mbdp

import bench_checks
import bench_clock
import bench_trace
from bench_setup import build_models

SIM_EPISODES = 200_000
# default seeds; --seed N shifts every one of them by N
SIM_SEED = 100
MABC_SEEDS = 10
SIM_CALLS = 3
# exact-oracle's passes over its three small policies take about 0.7 s each
EXACT_SIM_PASSES = 6
# exact-oracle's bound stage repeats its ~10 ms pass; the planner workloads'
# calls take ~0.75 s (mabc-full) and ~3.3 s (boxpush-budgeted)
BOUND_REPEATS = 50
BOUND_CALLS = 3
# published MBDP value of the broadcast channel at h=100 (best of seeds
# 0-9, three trees, random heuristic) and the exact optima at h=3
MABC_PUBLISHED = (90.29, 0.10)
EXACT_PUBLISHED = {"tiger": (5.19, 0.005), "mabc": (2.99, 0.005)}
# models with at least this many states time their array-heavy calls
# against an array kernel instead of "interp"
WIDE_STATES = 50


def array_kernel(call: str, model) -> str:
    """Reference kernel for a `simulate` or `exact_solve` call on ``model``.

    On narrow models their time goes to the interpreter driving small
    arrays.  On wide ones `simulate` gathers rows of cache-sized tables
    and `exact_solve` streams 50 MB chunks through memory; of the
    kernels tried, these follow the calls' own changes in speed most
    closely (README.md).
    """
    if model.num_states < WIDE_STATES:
        return "interp"
    return {"simulate": "gather", "exact_solve": "stream"}[call]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Operation tally, check results, and the clock or tracer of one run."""

    def __init__(self, models, seed: int, clock=None):
        self.models = models
        self.seed = seed
        self.clock = clock
        self.tracer = None
        self.timings: list[tuple[str, float, float]] = []  # (label, wall s, scaled s)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: list[str] = []
        self._limits: dict[str, tuple[float, float]] = {}

    def op(self, label: str, call, check=None, span: str | None = None, kernel: str = "interp"):
        """Times one program call, then checks its output; returns (result, seconds).

        With a clock the seconds are scaled to the reference speed of
        ``kernel`` (``bench_clock``); without one (traced runs) they are
        wall seconds.
        """
        gc.collect()
        started = time.perf_counter()
        try:
            if self.clock is not None:
                result, wall, seconds = self.clock.time(call, kernel)
            else:
                with self.tracer.span(span) if self.tracer and span else contextlib.nullcontext():
                    result = call()
                wall = seconds = time.perf_counter() - started
        except Exception as exc:  # a failing call is a failed operation, not a crash
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - started
        self.attempted += 1
        self.timings.append((label, wall, seconds))
        try:
            problems = check(result) if check is not None else []
        except Exception as exc:  # a check that cannot run is a failed check
            problems = [f"{label}: check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return result, seconds

    def limits(self, key: str) -> tuple[float, float]:
        """(uniform-random value, underlying-MDP value) of a model, computed once."""
        if key not in self._limits:
            model = self.models[key]
            self._limits[key] = (
                bench_checks.uniform_random_value(model, model.horizon),
                bench_checks.mdp_value(model, model.horizon),
            )
        return self._limits[key]

    def planner_checks(self, label: str, key: str, report) -> list[str]:
        model = self.models[key]
        lower, upper = self.limits(key)
        value = bench_checks.policy_value(model, report.policy.trees)
        return bench_checks.check_value(label, report.value, value) + bench_checks.check_sandwich(
            label, lower, report.value, upper
        )

    def simulate(self, label: str, key: str, policy, seed: int) -> float:
        """One simulate call, checked against the independent exact value."""
        model = self.models[key]

        def check(sim):
            exact = bench_checks.policy_value(model, policy.trees)
            return bench_checks.check_simulation(label, sim.mean, sim.std_error, exact)

        _, seconds = self.op(
            label,
            lambda: mbdp.simulate(model, policy, SIM_EPISODES, seed),
            check,
            kernel=array_kernel("simulate", model),
        )
        return seconds

    def simulate_calls(self, label: str, policy) -> list[float]:
        """Episodes per second of SIM_CALLS simulate calls on the planned model.

        One call varies by about 10% from the next on a shared machine,
        so the stage makes several and the round reports their median.
        """
        return [
            SIM_EPISODES
            / self.simulate(f"{label} simulate call {k}", "plan", policy, SIM_SEED + self.seed + k)
            for k in range(SIM_CALLS)
        ]

    def bound(self, label: str, key: str, max_obs: int) -> float:
        """Exact capture-mass enumeration plus the loss bound, checked at the witness."""
        model = self.models[key]

        def call():
            report = mbdp.epsilon_global(model, max_obs=max_obs)
            return report, mbdp.error_bound(model, report.epsilon)

        def check(result):
            report, bound = result
            return bench_checks.check_witness(
                label, model, model.horizon, max_obs, report.epsilon, report.witness, bound
            )

        _, seconds = self.op(label, call, check)
        return seconds


@dataclass
class Stage:
    """What one solve stage returned: its policies, value and wall time."""

    policies: dict
    value: float
    seconds: float


class BoxpushBudgeted:
    """improved_mbdp on 100-state box pushing h=10 with budgeted backups."""

    solve_repeats = 1

    def solve(self, run: Run) -> Stage:
        cfg = mbdp.SolverConfig(
            max_trees=3, max_obs=3, heuristics=("mdp", "random"), seed=run.seed
        )
        label = f"boxpush h=10 improved_mbdp seed {run.seed}"
        report, seconds = run.op(
            label,
            lambda: mbdp.improved_mbdp(run.models["plan"], cfg),
            lambda r: run.planner_checks(label, "plan", r),
            span="solver.solve",
        )
        value = report.value if report is not None else float("nan")
        return Stage({"plan": report.policy if report else None}, value, seconds)

    def simulate(self, run: Run, stage: Stage) -> list[float]:
        return run.simulate_calls("boxpush h=10", stage.policies["plan"])

    def bound(self, run: Run) -> list[float]:
        return [
            run.bound("boxpush h=8 epsilon_global max_obs=3", "bound", 3)
            for _ in range(BOUND_CALLS)
        ]


class MabcFull:
    """mbdp with full backups on the broadcast channel h=100, best of ten seeds."""

    solve_repeats = 1

    def solve(self, run: Run) -> Stage:
        reports, total = [], 0.0
        for k in range(MABC_SEEDS):
            seed = run.seed + k
            cfg = mbdp.SolverConfig(max_trees=3, heuristics=("random",), seed=seed)
            label = f"mabc h=100 mbdp seed {seed}"

            def check(report, label=label, last=(k == MABC_SEEDS - 1)):
                problems = run.planner_checks(label, "plan", report)
                if last and run.seed == 0:
                    best = max([r.value for r in reports if r is not None] + [report.value])
                    problems += bench_checks.check_published(
                        "mabc h=100 best of seeds 0-9", best, *MABC_PUBLISHED
                    )
                return problems

            report, seconds = run.op(
                label, lambda: mbdp.mbdp(run.models["plan"], cfg), check, span="solver.solve"
            )
            reports.append(report)
            total += seconds
        done = [r for r in reports if r is not None]
        best = max(done, key=lambda r: r.value) if done else None
        value = best.value if best is not None else float("nan")
        return Stage({"plan": best.policy if best else None}, value, total)

    def simulate(self, run: Run, stage: Stage) -> list[float]:
        return run.simulate_calls("mabc h=100", stage.policies["plan"])

    def bound(self, run: Run) -> list[float]:
        return [
            run.bound("mabc h=6 epsilon_global max_obs=1", "bound", 1)
            for _ in range(BOUND_CALLS)
        ]


class ExactOracle:
    """exact_solve on Dec-Tiger h=3, broadcast h=3 and box pushing h=2."""

    KEYS = ("tiger", "mabc", "boxpush")
    # one pass takes about 3 s and varies by up to 30% from the next (it
    # streams 50 MB chunks), so a round takes the median of several
    solve_repeats = 4

    def __init__(self):
        self._quick: dict[str, float] = {}
        self.tuples_streamed = 0

    def quick_value(self, run: Run, key: str) -> float:
        """A budgeted planner run on the same instance, made outside any timed stage."""
        if key not in self._quick:
            cfg = mbdp.SolverConfig(max_trees=3, max_obs=1, seed=run.seed)
            self._quick[key] = mbdp.improved_mbdp(run.models[key], cfg).value
        return self._quick[key]

    def solve(self, run: Run) -> Stage:
        policies, value, total = {}, 0.0, 0.0
        self.tuples_streamed = 0
        for key in self.KEYS:
            model = run.models[key]
            label = f"{key} h={model.horizon} exact_solve"

            def check(result, key=key, label=label):
                problems = run.planner_checks(label, key, result)
                if key in EXACT_PUBLISHED:
                    problems += bench_checks.check_published(label, result.value, *EXACT_PUBLISHED[key])
                return problems + bench_checks.check_not_above(
                    f"{key} improved_mbdp max_obs=1", self.quick_value(run, key), result.value
                )

            result, seconds = run.op(
                label,
                lambda: mbdp.exact_solve(model),
                check,
                span="solver.exact_solve",
                kernel=array_kernel("exact_solve", model),
            )
            total += seconds
            if result is None:
                policies[key] = None
                value = float("nan")
                continue
            policies[key] = result.policy
            value += result.value
            streamed = 1
            for size in result.candidate_counts[-1]:
                streamed *= size
            self.tuples_streamed += streamed
        return Stage(policies, value, total)

    def simulate(self, run: Run, stage: Stage) -> list[float]:
        rates = []
        for k in range(EXACT_SIM_PASSES):
            total = sum(
                run.simulate(
                    f"{key} exact policy simulate call {k}", key, stage.policies[key], SIM_SEED + run.seed + k
                )
                for key in self.KEYS
            )
            rates.append(SIM_EPISODES * len(self.KEYS) / total)
        return rates

    def bound(self, run: Run) -> list[float]:
        # one pass over the three small instances is too short to time once
        return [
            sum(run.bound(f"{key} epsilon_global max_obs=1", key, 1) for key in self.KEYS)
            for _ in range(BOUND_REPEATS)
        ]


WORKLOADS = {
    "boxpush-budgeted": BoxpushBudgeted,
    "mabc-full": MabcFull,
    "exact-oracle": ExactOracle,
}


def run_round(workload, run: Run, rss: dict | None = None, solve_repeats: int = 1) -> dict:
    stages = [workload.solve(run) for _ in range(solve_repeats)]
    stage = stages[-1]
    if rss is not None:
        rss["rss.after_solve_mb"] = peak_rss_mb()
    rates = workload.simulate(run, stage)
    if rss is not None:
        rss["rss.after_simulate_mb"] = peak_rss_mb()
    bound_seconds = workload.bound(run)
    if rss is not None:
        rss["rss.after_bound_mb"] = peak_rss_mb()
    return {
        "solve_s": statistics.median(s.seconds for s in stages),
        "value": stage.value,
        "simulate_eps": statistics.median(rates),
        "bound_s": statistics.median(bound_seconds),
    }


UNITS = {"solve_s": "s", "value": "reward", "simulate_eps": "episodes/s", "bound_s": "s"}


def measure(name: str, seed: int, seconds: float) -> dict:
    workload = WORKLOADS[name]()
    run = Run(build_models(mbdp, name), seed, bench_clock.Clock())
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        rounds.append(run_round(workload, run, solve_repeats=workload.solve_repeats))
        if time.perf_counter() >= deadline:
            break
    metrics = {
        key: {"value": statistics.median(r[key] for r in rounds), "unit": unit}
        for key, unit in UNITS.items()
    }
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    return result(run, metrics, rounds=rounds, timings=run.timings, kernel_median_s=run.clock.medians())


def measure_traced(name: str, seed: int, out_dir: str | None) -> dict:
    tracer = bench_trace.Tracer()
    with tracer.span("benchmarks.build"):
        models = build_models(mbdp, name)
    rss = {"rss.after_setup_mb": peak_rss_mb()}
    workload = WORKLOADS[name]()
    run = Run(models, seed)
    untraced_solve = workload.solve(run).seconds

    run.tracer = tracer
    tracer.install()
    try:
        round_metrics = run_round(workload, run, rss)
    finally:
        tracer.uninstall()

    layers, split = bench_trace.layer_metrics(tracer)
    layers["solver.tuples_streamed"] = getattr(workload, "tuples_streamed", 0)
    layers.update(rss)
    layers["trace.overhead_s"] = round_metrics["solve_s"] - untraced_solve
    metrics = {key: {"value": value, "unit": bench_trace.LAYER_UNITS[key]} for key, value in layers.items()}
    if out_dir is not None:
        tracer.save(f"{out_dir}/{name}.spans.npz")
    split["solve_untraced_s"] = untraced_solve
    return result(run, metrics, rounds=[round_metrics], split=split)


def result(run: Run, metrics: dict, **extra) -> dict:
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "problems": run.problems,
        "errors": run.errors,
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args(argv)

    if args.trace:
        out = measure_traced(args.workload, args.seed, args.out_dir)
    else:
        out = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
