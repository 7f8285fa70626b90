"""One benchmark interpreter: import sagnacsim, set up a workload, run it.

Started by ``run.py``; not meant to be run by hand.  It prints ``READY``
once set-up and warm-up are done, then (unless ``--mode probe``) runs whole
rounds of operations until ``--seconds`` have passed and prints one JSON
line with the raw latencies, counts and, under ``--mode trace``, the
per-layer figures.  Only the operation itself is timed; each result is
checked right after, outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import sagnacsim

    if args.workload == "cli_session":
        import sagnacsim.cli  # noqa: F401  (binds sagnacsim.cli)

    if not Path(sagnacsim.__file__).resolve().is_relative_to(SRC):
        print(f"worker: imported {sagnacsim.__file__}, not the program under {SRC}", file=sys.stderr)
        return 2

    import numpy as np

    import checks
    import tracer as tracing
    from workloads import WORKLOADS, OpFailed

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.instrument(tracer)

    names = sorted(WORKLOADS)
    rng = np.random.default_rng([args.seed, names.index(args.workload)])
    workload = WORKLOADS[args.workload](rng, sagnacsim, in_process=args.mode == "trace")
    try:
        workload.setup()
        print("READY", flush=True)
        if args.mode == "probe":
            return 0

        if tracer is not None:
            setup_builds = tracer.layers["interferometer.cascade_build"].calls
            setup_theta_ns = tracer.layers["geometry.theta_for_psi"].total_ns
            tracer.reset()

        latencies: list[int] = []
        attempted = failed = 0
        errors: list[str] = []
        wrong: list[str] = []
        clock = time.perf_counter_ns
        start = time.perf_counter()
        while True:
            for x in workload.round():
                attempted += 1
                t0 = clock()
                try:
                    out = workload.op(x)
                except (OpFailed, ValueError, ArithmeticError) as exc:
                    failed += 1
                    errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                latencies.append(clock() - t0)
                try:
                    workload.check(x, out)
                except checks.CheckFailed as exc:
                    wrong.append(str(exc))
            if time.perf_counter() - start >= args.seconds:
                break

        result = {
            "latencies_ns": latencies,
            "attempted": attempted,
            "failed": failed,
            "errors": errors[:5],
            "wrong": len(wrong),
            "wrong_examples": wrong[:5],
            "maxrss_kb": resource.getrusage(
                resource.RUSAGE_CHILDREN if args.workload == "cli_session" and args.mode == "run"
                else resource.RUSAGE_SELF
            ).ru_maxrss,
        }
        if tracer is not None:
            layers = tracer.layers
            result["layers"] = tracing.per_op_metrics(
                tracer,
                len(latencies),
                setup_builds + layers["interferometer.cascade_build"].calls,
                setup_theta_ns + layers["geometry.theta_for_psi"].total_ns,
            )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()


if __name__ == "__main__":
    sys.exit(main())
