"""Benchmark command: runs one workload (or all) and prints its metrics.

    python3 perfbench/run.py --workload boxpush-budgeted --seed 0 --seconds 10 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Each workload runs in its own process with
BLAS/OpenMP pinned to one thread.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result
(check failures, traced split) is also written to ``perfbench/out``.
The exit code is 0 when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("boxpush-budgeted", "mabc-full", "exact-oracle")
# fresh interpreters timed per run for setup_s; the median is reported
SETUP_PROBES = 5
# a run must end within this many seconds, probes included
RUN_LIMIT_S = 175.0
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def last_json_line(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("child printed no result")
    return json.loads(lines[-1])


def run_child(args: list[str], timeout: float) -> dict:
    """Runs a benchmark script in a fresh interpreter; kills it on timeout."""
    proc = subprocess.run(
        [sys.executable, *args],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=timeout,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with code {proc.returncode}")
    return last_json_line(proc.stdout)


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    setup, setup_wall = [], []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = run_child([str(HERE / "bench_setup.py"), workload], timeout=60)
            setup.append(probe["setup_s"])
            setup_wall.append(probe["setup_wall_s"])
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    remaining = RUN_LIMIT_S - (time.perf_counter() - started)
    result = run_child(
        [
            str(HERE / "bench_workloads.py"),
            workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--out-dir", str(out_dir),
        ],
        timeout=remaining,
    )
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        result["setup_samples_s"] = setup
        result["setup_wall_samples_s"] = setup_wall
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        raise RuntimeError(f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(wanted.items())}")
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    (out_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_report(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['attempted']} operations attempted, {result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    split = result.get("split")
    if split:
        span = split["solve_span_s"]
        if span > 0:
            print(f"  traced solve span {span:.3f} s; self times add up to {split['solve_parts_sum_s']:.3f} s")
            for part, seconds in split["solve_parts_s"].items():
                print(f"    {part:<24} {seconds:9.3f} s {100 * seconds / span:6.1f}%")
        if split["exact_span_s"] > 0:
            print(f"  traced exact_solve span {split['exact_span_s']:.3f} s")
    for line in result["problems"] + result["errors"]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mbdp" / "__init__.py").is_file():
        print(f"no mbdp package under {ROOT / 'src'}; run inside a checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"{name}: benchmark run failed: {exc}", file=sys.stderr)
            return 3
        print_report(name, results[name])
    correct = all(r["correct"] for r in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
    }
    if len(names) == 1:
        summary["metrics"] = results[names[0]]["metrics"]
    else:
        summary["workloads"] = {name: r["metrics"] for name, r in results.items()}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
