#!/usr/bin/env python3
"""Benchmark a base revision against HEAD, alternating, and write BENCH_<label>.json.

Run from the repository root:

    python3 tools/bench_pair.py --base c1e97a7 --label condition-b-in-place

Each revision is exported with `git archive` into its own fresh
directory under one temporary directory, which is removed on exit; both
directories have paths of the same length, since the heap layout, and
so the page faults of a request, can depend on the checkout path
(CHANGES.md).  For every run index i = 1..10 and every workload of
BENCHMARK.json, the script runs

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

with S the run_seconds of BENCHMARK.json, once in each directory, the
base first on odd i and HEAD first on even i, so that a slow stretch of
the machine falls on both revisions.  Ten pairs are the fewest that can
back a claimed gain.  The
JSON file holds, per workload and revision, every run's end-to-end
metrics with their median and interquartile range, the change of the
medians, and in how many run pairs HEAD was the better one; and the
revisions, the Python and numpy versions, the CPU count and numpy's
active dispatch targets.  A run that reports a failed request
(`correct` false) fails the script.

A second witness follows the process pairs: both exported trees are
imported into this one process, as the packages deltasa_base and
deltasa_head, and the pool (perfbench/reference/) of each analyze
workload and of the sweep workload, which BENCHMARK.json does not run,
is run once through both CLIs, item by item, base first on even items
and head first on odd ones.  A request is timed from the call of
cli.main to its return, with its JSON or CSV written to a temporary
--output file.  The file records, per pool, the median over the pool of
head time / base time, the two median request times, in how many items
HEAD was the faster, and whether every output is byte-identical between
the trees.  Being one process, this witness sees neither process
start-up nor a difference in heap layout or CPU placement between the
two sides.  The witness also reads each output's decision (an analyze
verdict's six fields verdict, certificate, advisory, n_plus, n_minus and
flags; each sweep CSV row's verdict and certifying_test) and records,
per pool, decisions_moved, the number of items whose decision differs
between the trees, moved, each such item's id, input and both
decisions, and head_contradicts_known, the number of items whose HEAD
decision contradicts the item's known answer.  Last, the witness runs
`verify-paper --json` at --horizon 20000 and at its default horizon
through both CLIs and records battery_identical, whether both reports
are byte-identical between the trees.

Each revision's entry also holds the two sizes that ROADMAP aim 2
tracks: source_lines, the line count of its src/deltasa/*.py (what
`cat src/deltasa/*.py | wc -l` prints), and public_names, the length
of its imported package's __all__.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

RUNS = 10  # alternating pairs per workload
DECISION = ("verdict", "certificate", "advisory", "n_plus", "n_minus", "flags")  # of an analyze output's verdict


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: str) -> None:
    """The committed files of rev, as the benchmark sees a checkout."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def active_dispatch() -> list[str]:
    """numpy's dispatch targets that this CPU runs (after NPY_DISABLE_CPU_FEATURES)."""
    try:
        from numpy._core import _multiarray_umath as m
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as m
    return [t for t in m.__cpu_dispatch__ if m.__cpu_features__.get(t)]


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} reported a failed request")
    return {k: v["value"] for k, v in res["metrics"].items()}


def import_tree(checkout: str, name: str):
    """The deltasa package of checkout, imported as the package name."""
    pkg = os.path.join(checkout, "src", "deltasa")
    spec = importlib.util.spec_from_file_location(name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")  # the package does not import its CLI
    return module


def tree_size(checkout: str, package) -> dict:
    """The source lines of checkout's src/deltasa/*.py and the public names of its imported package."""
    src = os.path.join(checkout, "src", "deltasa")
    lines = 0
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                lines += f.read().count(b"\n")
    return {"source_lines": lines, "public_names": len(package.__all__)}


def decision(workload: str, output: bytes):
    """The decision an output states: DECISION of an analyze verdict, or each sweep row's (verdict, certifying_test)."""
    text = output.decode()
    if workload == "sweep":
        return [[row["verdict"], row["certifying_test"]] for row in csv.DictReader(io.StringIO(text))]
    verdict = json.loads(text)["verdict"]
    return {k: verdict[k] for k in DECISION}


def contradicts(known, got) -> bool:
    """Whether a decision contradicts a pool item's known answer: a verdict, or one per sweep cell (None: unknown)."""
    if isinstance(known, str):
        return got["verdict"] != known
    if isinstance(known, list):
        return len(got) != len(known) or any(k is not None and k != row[0] for k, row in zip(known, got))
    return False


def in_process(dirs: dict, packages: dict, workloads: list[str], tmp: str) -> dict:
    """Per analyze workload and the sweep pool: both trees in this process, alternated item by item over its pool; then the battery."""
    clis = {side: package.cli for side, package in packages.items()}
    out_path = os.path.join(tmp, "output")

    def timed(side: str, argv: list[str]) -> tuple[float, bytes]:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            clis[side].main([*argv, "--output", out_path])
        dt = time.perf_counter() - t0
        with open(out_path, "rb") as f:
            return dt, f.read()

    result = {}
    for w in [w for w in workloads if w.startswith("analyze-")] + ["sweep"]:
        with open(os.path.join(dirs["head"], "perfbench", "reference", f"{w}.json")) as f:
            items = json.load(f)["items"]
        times: dict = {"base": [], "head": []}
        identical = True
        moved, contradicting = [], 0
        for i, item in enumerate(items):
            argv = ["sweep" if w == "sweep" else "analyze", *item["input"]]
            outputs = {}
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                dt, outputs[side] = timed(side, argv)
                times[side].append(dt)
            identical &= outputs["base"] == outputs["head"]
            decisions = {side: decision(w, out) for side, out in outputs.items()}
            if decisions["base"] != decisions["head"]:
                moved.append({"id": item["id"], "input": item["input"], "base": decisions["base"], "head": decisions["head"]})
            contradicting += contradicts(item.get("known"), decisions["head"])
        ratios = [h / b for b, h in zip(times["base"], times["head"])]
        result[w] = {
            "items": len(items),
            "median_ratio": statistics.median(ratios),
            "base_median_s": statistics.median(times["base"]),
            "head_median_s": statistics.median(times["head"]),
            "items_head_faster": sum(r < 1.0 for r in ratios),
            "outputs_identical": identical,
            "decisions_moved": len(moved),
            "moved": moved,
            "head_contradicts_known": contradicting,
        }
        print(f"in process {w}: median head/base {result[w]['median_ratio']:.4f} over {len(items)} items, identical: {identical}, "
              f"moved: {len(moved)}, head contradicts known: {contradicting}", flush=True)
    battery = [["verify-paper", "--json", "--horizon", "20000"], ["verify-paper", "--json"]]
    result["battery_identical"] = all(timed("base", argv)[1] == timed("head", argv)[1] for argv in battery)
    print(f"in process verify-paper: identical: {result['battery_identical']}", flush=True)
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1, "runs": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="base revision")
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    revs = {"base": git("rev-parse", args.base), "head": git("rev-parse", "HEAD")}

    runs: dict = {w: {"base": [], "head": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        dirs = {side: os.path.join(tmp, side) for side in revs}  # "base" and "head": equal lengths
        for side, rev in revs.items():
            export(rev, dirs[side])
        for i in range(1, RUNS + 1):
            for w in workloads:
                for side in ("base", "head") if i % 2 else ("head", "base"):
                    m = run_once(dirs[side], w, i, seconds)
                    runs[w][side].append(m)
                    print(f"run {i} {w} {side}: " + " ".join(f"{k}={v:.4g}" for k, v in m.items()), flush=True)
        packages = {side: import_tree(d, f"deltasa_{side}") for side, d in dirs.items()}
        sizes = {side: tree_size(dirs[side], packages[side]) for side in revs}
        witness = in_process(dirs, packages, workloads, tmp)

    result = {w: {} for w in workloads}
    for w in workloads:
        for name, direction in better.items():
            vals = {side: [m[name] for m in runs[w][side]] for side in revs}
            base, head = summary(vals["base"]), summary(vals["head"])
            wins = sum((h < b) if direction == "lower" else (h > b) for b, h in zip(vals["base"], vals["head"]))
            result[w][name] = {
                "better": direction,
                "base": base,
                "head": head,
                "change": head["median"] / base["median"] - 1.0 if base["median"] else None,
                "pairs_head_better": wins,
            }
    doc = {
        "label": args.label,
        "command": f"python3 perfbench/run.py --workload W --seed i --seconds {seconds:g} --trace 0",
        "runs_per_workload": RUNS,
        "revisions": {
            side: {"rev": rev, "subject": git("log", "-1", "--format=%s", rev), **sizes[side]} for side, rev in revs.items()
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "numpy_active_dispatch": active_dispatch(),
        "workloads": result,
        "in_process": witness,
    }
    path = f"BENCH_{args.label}.json"
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
