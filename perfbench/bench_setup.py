"""Set-up of each workload: import the package and build the workload's models.

Run as a script, it times one set-up in the fresh interpreter it runs in,
then the ``interp`` reference kernel right after it, and prints the
set-up time in wall seconds and scaled to the reference speed
(``bench_clock``) as ``{"setup_s": scaled, "setup_wall_s": wall}``:

    python3 perfbench/bench_setup.py WORKLOAD
"""

from __future__ import annotations

import json
import sys
import time

KERNEL_REPEATS = 9


def build_models(mbdp, workload: str) -> dict:
    """The models each workload plans, simulates and bounds on."""
    if workload == "boxpush-budgeted":
        return {"plan": mbdp.build_boxpush(horizon=10), "bound": mbdp.build_boxpush(horizon=8)}
    if workload == "mabc-full":
        return {"plan": mbdp.build_mabc(horizon=100), "bound": mbdp.build_mabc(horizon=6)}
    if workload == "exact-oracle":
        return {
            "tiger": mbdp.build_tiger(horizon=3),
            "mabc": mbdp.build_mabc(horizon=3),
            "boxpush": mbdp.build_boxpush(horizon=2),
        }
    raise ValueError(f"unknown workload {workload!r}")


def main(argv) -> int:
    (workload,) = argv
    started = time.perf_counter()
    import mbdp  # imported here so that the package import is part of the timed set-up

    build_models(mbdp, workload)
    wall = time.perf_counter() - started
    import bench_clock

    bench_clock.interp_kernel()  # warm-up
    kernel = bench_clock.kernel_median("interp", KERNEL_REPEATS)
    scaled = wall * bench_clock.REFERENCE_S["interp"] / kernel
    print(json.dumps({"setup_s": scaled, "setup_wall_s": wall}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
