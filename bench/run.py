#!/usr/bin/env python3
"""Benchmark of sagnacsim: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cli_session, stage_transfer, oam_cascade, biphoton_sort (see
bench/README.md).  Each is a closed loop: one caller in one process sends
the next operation when the previous one has finished.  Every operation is
checked against the independent OAM reference or a stated property.

``--trace 0`` prints the end-to-end metrics: set-up time (median over
fresh interpreters), operations per second, p50/p90 latency and peak RSS.
``--trace 1`` prints the per-layer metrics from a separate traced run.
The last line of standard output is the JSON result.  Needs only the
standard library here and numpy in the worker; BLAS is held to one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("cli_session", "stage_transfer", "oam_cascade", "biphoton_sort")

# Fresh interpreters per run whose set-up times give setup_s (the last one
# goes on to the timed loop), and fresh imports behind cli.import_ms.
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 5
TIME_LIMIT_S = 170


class BenchError(Exception):
    pass


# Every interpreter this run started; all are ended before it exits.
RUNNING: list[subprocess.Popen] = []


def child_env() -> dict[str, str]:
    """Environment of every interpreter the benchmark starts: the program
    under test first on the path, one BLAS thread."""
    env = dict(os.environ)
    paths = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p and p != str(SRC)]
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *paths])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail_rank(sorted_values: list[float]) -> float:
    """The p90, or with fewer than 100 samples the highest percentile that
    still has ten samples beyond it, but never below the median."""
    n = len(sorted_values)
    rank = max(math.ceil(0.5 * n), min(math.ceil(0.9 * n), n - 10))
    return sorted_values[rank - 1]


def start_worker(args, mode: str) -> tuple[subprocess.Popen, float]:
    """Start a fresh worker; return it and its time from spawn to READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--mode", mode,
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    RUNNING.append(proc)
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.wait()
        raise BenchError(f"worker ({mode}) exited {proc.returncode} before set-up ended")
    return proc, ready_s


def finish_worker(proc: subprocess.Popen) -> dict:
    lines = proc.stdout.read().splitlines()
    if proc.wait() != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}")
    result = json.loads(lines[-1])
    for msg in result["errors"] + result["wrong_examples"]:
        print(f"bench: {msg}", file=sys.stderr)
    if not result["latencies_ns"]:
        raise BenchError("no operation completed")
    return result


def scipy_import_us(importtime_log: str) -> float:
    """Cumulative -X importtime microseconds of top-level scipy imports."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    # -X importtime lists a module after the modules it imported, so walking
    # backwards meets each parent before its children.
    total = 0
    parents: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while parents and parents[-1][0] >= depth:
            parents.pop()
        parent = parents[-1][1] if parents else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total += cumulative
        parents.append((depth, name))
    return float(total)


def import_metrics() -> dict[str, float]:
    code = "import time; t = time.perf_counter(); import sagnacsim.cli; print(time.perf_counter() - t)"
    totals, scipy_parts = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"import sagnacsim.cli failed: {proc.stderr.strip()[-500:]}")
        totals.append(float(proc.stdout.split()[-1]) * 1e3)
        scipy_parts.append(scipy_import_us(proc.stderr) / 1e3)
    return {
        "cli.import_ms": statistics.median(totals),
        "cli.import_scipy_ms": statistics.median(scipy_parts),
    }


def measure(args) -> tuple[dict, dict[str, float]]:
    if args.trace:
        metrics = import_metrics()
        proc, _ = start_worker(args, "trace")
        result = finish_worker(proc)
        metrics.update(result["layers"])
        metrics["traced.op_p50_ms"] = nearest_rank(sorted(result["latencies_ns"]), 0.5) / 1e6
        return result, metrics

    setup_times = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, ready_s = start_worker(args, "probe")
        if proc.wait() != 0:
            raise BenchError(f"set-up probe exited {proc.returncode}")
        setup_times.append(ready_s)
    proc, ready_s = start_worker(args, "run")
    setup_times.append(ready_s)
    result = finish_worker(proc)
    lat = sorted(result["latencies_ns"])
    return result, {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(lat) / (sum(lat) / 1e9),
        "op_p50_ms": nearest_rank(lat, 0.50) / 1e6,
        "op_p90_ms": tail_rank(lat) / 1e6,
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
    }


def _interrupt(signum, frame):
    raise BenchError(f"stopped by {signal.Signals(signum).name}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "sagnacsim" / "__init__.py").is_file():
        print(f"bench: no program at {SRC / 'sagnacsim'}", file=sys.stderr)
        return 2
    # Workers run in sessions of their own so that the cleanup below can end
    # a worker together with its CLI child; these signals reach that cleanup.
    for signum in (signal.SIGALRM, signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _interrupt)
    signal.alarm(TIME_LIMIT_S)
    try:
        result, metrics = measure(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for proc in RUNNING:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI child
            proc.wait()
            proc.stdout.close()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
