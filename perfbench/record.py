"""Record the reference decisions of every workload's input pool.

Run from the repository root with the package on the path:

    PYTHONPATH=src python3 perfbench/record.py [WORKLOAD ...]

For each workload it generates the pool (fixed seed), runs every request
once, and writes reference/<workload>.json with the inputs, the known
answer where the generator has one, and the decisions, row verdicts,
check outcomes and output hashes the program produced.  It refuses to
write a pool in which a request raised or contradicted a known answer.
Re-record only when a change intends to alter decisions, and say so.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def git_revision() -> str | None:
    if not os.path.isdir(".git"):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or None


def record(workload: str, wl, instrument) -> int:
    import numpy

    pool = wl.generate_pool(workload)
    inst = instrument.Instrument()
    runner = wl.Runner(workload, os.path.join(".perfbench_out"))
    inst.install_timer()
    bad = 0
    t0 = time.perf_counter()
    try:
        for item in pool:
            inst.begin_op(traced=False)
            _, outcome = runner.run(item)
            item["ref"] = wl.summarize(workload, outcome, inst.end_op(-1))
            problems, _ = wl.check(item, item["ref"])
            if problems:
                bad += 1
                print(f"{workload} {item['id']}: {problems} input={item['input']}", file=sys.stderr)
    finally:
        inst.uninstall()
    print(f"{workload}: {len(pool)} requests in {time.perf_counter() - t0:.1f}s, {bad} contradictions")
    if bad:
        return 1
    payload = {
        "workload": workload,
        "recorded_with": {
            "git_revision": git_revision(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "items": pool,
    }
    with open(os.path.join(wl.REF_DIR, f"{workload}.json"), "w") as f:
        json.dump(payload, f, indent=0, sort_keys=True)
        f.write("\n")
    return 0


def main(argv: list[str]) -> int:
    sys.path.insert(0, HERE)
    import instrument
    import workloads as wl

    os.makedirs(wl.REF_DIR, exist_ok=True)
    os.makedirs(".perfbench_out", exist_ok=True)
    names = argv or list(wl.WORKLOADS)
    return max(record(name, wl, instrument) for name in names)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
