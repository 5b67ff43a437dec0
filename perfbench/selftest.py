#!/usr/bin/env python3
"""Show that the benchmark's correctness check fires.

Run from the repository root:

    python3 perfbench/selftest.py

It makes two short runs of each named workload (default: analyze-certified
and analyze-oracle).  The first uses the recorded references and must report
no failed request; the second plants a wrong reference (every recorded
verdict flipped) and must report failed_frac > 0.  Exits 0 when both hold
for every workload.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import WORKER, worker_env


def short_run(workload: str, planted: bool) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0"]
    if planted:
        cmd.append("--plant-wrong-reference")
    out = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(), timeout=300)
    if out.returncode != 0:
        raise SystemExit(f"worker failed: {out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    ok = True
    for workload in argv or ["analyze-certified", "analyze-oracle"]:
        clean = short_run(workload, planted=False)
        planted = short_run(workload, planted=True)
        clean_frac = clean["failed"] / clean["attempted"]
        planted_frac = planted["failed"] / planted["attempted"]
        fired = clean_frac == 0 and planted_frac > 0
        ok &= fired
        print(
            f"{workload}: failed_frac {clean_frac:g} with the recorded reference, "
            f"{planted_frac:g} with a planted wrong one -> {'check fires' if fired else 'CHECK DID NOT FIRE'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
