#!/usr/bin/env python3
"""deltasa benchmark: one run of one workload, every metric by name and unit.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-certified --seed 1 --seconds 57 --trace 0

Workloads: analyze-certified, analyze-oracle (the two in BENCHMARK.json)
and sweep (see perfbench/README.md).  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 the per-layer metrics of a traced run.
Every request is checked against the reference decisions recorded in
perfbench/reference/, and the last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

This launcher uses the standard library only.  It pins the BLAS and
OpenMP thread counts to 1, starts the worker on the checkout's src/
(nothing is installed), measures set-up time from process start in
several fresh processes, and stops every process it starts.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from placement import move_to_quiet_cpu, quiet_cpu_candidates

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
# Set-up-only processes per run, half started before the measured worker
# and half after it, so that the median of their set-up times (and the
# worker's own) spans two moments of the machine a run apart.
SETUP_SAMPLES = 6
GRACE_S = 90  # a worker may overrun --seconds by its warm-up batch and its checks

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def start_worker(args, cpus: list[int], extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker on the quietest CPU; return it and its set-up time (start until "ready")."""
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cpus", ",".join(map(str, cpus)),
        *extra,
    ]
    move_to_quiet_cpu(cpus)  # the worker inherits this process's CPU
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env())
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def machine_facts(numpy_version: str, scipy_imported: bool, cpus: list[int]) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")  # does not import scipy
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    rev = None
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        rev = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_placed_on": len(cpus),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scipy_installed": scipy_version,
        "scipy_imported_by_program": scipy_imported,
        "git_revision": rev,
        "threads": PINNED_ENV["OMP_NUM_THREADS"],
    }


def main() -> int:
    args = parse_args()
    if not os.path.isfile(os.path.join("src", "deltasa", "__init__.py")):
        print("error: run from the repository root; src/deltasa not found", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    cpus = quiet_cpu_candidates()
    setups = []

    def sample_setups(n: int) -> bool:
        for _ in range(n):
            proc, setup = start_worker(args, cpus, ["--setup-only"])
            if proc.wait() != 0:
                print("error: set-up process failed", file=sys.stderr)
                return False
            setups.append(setup)
        return True

    if not sample_setups(SETUP_SAMPLES // 2):
        return 1
    proc, setup = start_worker(args, cpus, [])
    setups.append(setup)
    try:
        out, _ = proc.communicate(timeout=args.seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("error: worker timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])
    if not sample_setups(SETUP_SAMPLES - SETUP_SAMPLES // 2):
        return 1

    metrics = res["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    facts = machine_facts(res["numpy"], res["scipy_imported"], cpus)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{res['batches']} batches, {res['attempted']} requests, {res['verdict_samples']} verdicts")
    print("facts " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"setup samples (s): {' '.join(f'{s:.4f}' for s in setups)}")
    print(f"failed_frac {res['failed'] / res['attempted']:.6g} ({res['failed']} of {res['attempted']})")
    for f in res["failures"]:
        print(f"FAILED {f['id']}: {'; '.join(f['problems'])}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
