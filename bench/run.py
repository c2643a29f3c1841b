"""Benchmark entry point.

    python3 bench/run.py --workload op_mix --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout of `bilop`.  Each workload runs in
its own worker process with the BLAS thread count pinned.  With --trace 0
the last line of stdout is a JSON object carrying the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a traced run.  Lines
before it record the environment and run details.  Per-request timings,
errors and spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("op_mix", "tf_lattice", "tf_sparse")
BLAS_THREADS = 1  # at or below nproc on any machine
SETUP_REPEATS = 7  # processes whose set-up time is measured; the median is reported
TIMEOUT_S = 170.0
MMAP_THRESHOLD = 1 << 25  # bytes; the cap glibc would raise it to


def worker(args, extra=(), timeout=TIMEOUT_S):
    """Start one worker process and return its parsed JSON summary."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    # a fixed mmap threshold stops glibc from moving it with the allocation
    # history, so peak RSS does not depend on which arrays were freed first
    env["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(time.monotonic()), *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def setup_sample(args) -> float:
    return worker(args, ("--setup-only",), timeout=60.0)["setup_s"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "bilop" / "__init__.py").is_file():
        print(f"error: no bilop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    try:
        setups = []
        if not args.trace:  # set-up samples on both sides of the run
            setups += [setup_sample(args) for _ in range(SETUP_REPEATS // 2)]
        result = worker(args, timeout=TIMEOUT_S - (time.monotonic() - started))
        if not args.trace:
            setups += [setup_sample(args) for _ in range(SETUP_REPEATS // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        declared = per_layer_metrics()
    else:
        setups.append(result["setup_s"])
        setups.sort()
        result["metrics"]["setup_s"] = setups[len(setups) // 2]
        result["setup_samples_s"] = setups
        declared = END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit, _ in declared}

    info = {k: v for k, v in result.items() if k != "metrics"}
    info.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print("run " + json.dumps(info))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
