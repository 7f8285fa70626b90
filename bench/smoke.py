#!/usr/bin/env python3
"""Smoke run of the benchmark: one round of every workload, every check on.

    python3 bench/smoke.py

Runs each workload's worker for a single round, untraced and traced, and
one full ``run.py`` invocation of each mode on a short workload, whose JSON
it checks against BENCHMARK.json.  Takes about 40 s; exits 0 when
every operation completed and passed its checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS, child_env

HERE = Path(__file__).resolve().parent


def last_json(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=child_env(), cwd=ROOT
    )
    if proc.returncode != 0:
        raise SystemExit(f"{args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        for mode in ("run", "trace"):
            result = last_json([
                str(HERE / "worker.py"), "--workload", workload, "--seed", "1",
                "--seconds", "0", "--mode", mode,
            ])
            status = f"{result['attempted']} ops, {result['failed']} failed, {result['wrong']} wrong"
            print(f"{workload:15s} {mode:5s} {status}")
            if result["failed"] or result["wrong"] or not result["attempted"]:
                problems.append(f"{workload} {mode}: {status} {result['errors']} {result['wrong_examples']}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = last_json([
            str(HERE / "run.py"), "--workload", "biphoton_sort", "--seed", "1",
            "--seconds", "1", "--trace", str(trace),
        ])
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        print(f"run.py --trace {trace}: correct={result['correct']} {len(got)} metrics")
        if got != want or not result["correct"] or result["failed"]:
            problems.append(f"run.py --trace {trace}: {result}")

    for msg in problems:
        print(f"FAIL {msg}")
    print("smoke:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
