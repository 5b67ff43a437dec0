"""One benchmark process: set up, warm up, run batches for --seconds, report.

Started by run.py with the thread counts pinned and PYTHONPATH set to the
checkout's src/.  Prints "ready" when its inputs are ready (the end of
set-up) and, as its last line, one JSON object with the run's counts and
metrics.  With --setup-only it exits right after "ready".

Before each request the worker moves itself to the CPU that is quietest
at that moment (see placement.py); the probe is not part of any timing.
End-to-end runs (--trace 0) install only the verdict timer.  Traced runs
(--trace 1) make every batch twice, untraced and traced, so that the
tracing overhead is measured on the same requests, and report per-layer
metrics from the traced passes only.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import statistics
import sys
import time

from placement import move_to_quiet_cpu, quiet_cpu_candidates

perf = time.perf_counter

OUT_DIR = ".perfbench_out"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument(
        "--cpus",
        type=lambda v: [int(c) for c in v.split(",")],
        default=quiet_cpu_candidates(),
        help="CPUs to choose from before each request (default: this process's affinity)",
    )
    p.add_argument(
        "--plant-wrong-reference",
        action="store_true",
        help="self-test: corrupt every reference decision so the check must fire",
    )
    return p.parse_args(argv)


def import_package() -> float:
    t0 = perf()
    import deltasa
    import deltasa.cli  # noqa: F401

    import_s = perf() - t0
    src = os.path.abspath("src")
    if not os.path.abspath(deltasa.__file__).startswith(src + os.sep):
        raise SystemExit(f"deltasa imported from {deltasa.__file__}, not from {src}")
    return import_s


def plant_wrong_reference(pool: list[dict]) -> None:
    for item in pool:
        for d in item["ref"]["decisions"]:
            d["verdict"] = "Inconclusive" if d["verdict"] != "Inconclusive" else "Deficient"


class Client:
    """Closed-loop client: one request at a time, each checked after it ends."""

    def __init__(self, workload, runner, inst, wl) -> None:
        self.workload = workload
        self.runner = runner
        self.inst = inst
        self.wl = wl
        self.attempted = 0
        self.failures: list[dict] = []
        self.outputs = 0
        self.outputs_changed = 0
        self.op_s: list[tuple[str, float, bool]] = []  # (input, seconds, traced)

    def request(self, item: dict, traced: bool) -> float:
        inst = self.inst
        sid = inst.begin_op(traced)
        t0 = perf()
        try:
            dt, outcome = self.runner.run(item)
        except Exception as e:  # a request that raises is a failed request
            inst.end_op(sid)
            self.attempted += 1
            self.failures.append({"id": item["id"], "problems": [f"raised {e!r}"]})
            return perf() - t0
        decisions = inst.end_op(sid)
        got = self.wl.summarize(self.workload, outcome, decisions)
        problems, changed = self.wl.check(item, got)
        self.attempted += 1
        if problems:
            self.failures.append({"id": item["id"], "problems": problems})
        if "output_sha256" in got:
            self.outputs += 1
            self.outputs_changed += changed
        self.op_s.append((str(item["input"]), dt, traced))
        return dt


def percentile(xs, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    if not xs:
        return 0.0
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run_batch(client, inst, batch, traced: bool, cpus: list[int]) -> dict:
    inst.install_tracer() if traced else inst.install_timer()
    first = len(inst.verdict_s)
    wall = 0.0
    probes = []  # the chosen CPU's probe time before each request, a record of the machine's state
    try:
        for item in batch:
            probes.append(move_to_quiet_cpu(cpus))  # between requests, outside their timing
            wall += client.request(item, traced)
    finally:
        inst.uninstall()
    return {"traced": traced, "wall": wall, "probe_s": probes, "verdicts": inst.verdict_s[first:]}


def run_batches(client, stream, inst, seconds: float, trace: bool, cpus: list[int]) -> list[dict]:
    """Run batches until the next one would end past the deadline.

    A batch's wall is the sum of its request times.  A traced run makes
    each batch twice, untraced and traced, alternating which goes first,
    so that the tracing overhead is measured on the same requests.
    """
    done: list[dict] = []
    deadline = perf() + seconds
    last = 0.0
    for k, batch in enumerate(stream):
        if done and perf() + last > deadline:
            break
        t0 = perf()
        modes = ((False, True) if k % 2 == 0 else (True, False)) if trace else (False,)
        done.extend(run_batch(client, inst, batch, traced, cpus) for traced in modes)
        last = perf() - t0
    return done


def end_to_end(client, batches) -> dict:
    """End-to-end metrics of an untraced run.

    wall_s is the run's request time divided by its batches, a mean: each
    CPU alternates between a fast and a slowed state, and the median of
    the batch walls jumps between the two while the mean moves in
    proportion to the share of time spent in each.
    """
    v = [x for b in batches for x in b["verdicts"]]
    return {
        "wall_s": (statistics.fmean([b["wall"] for b in batches]), "s"),
        "verdict_p50_s": (percentile(v, 50), "s"),
        "verdict_p90_s": (percentile(v, 90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - len(client.failures) / client.attempted, "frac"),
    }


def per_layer(client, inst, batches, import_s) -> dict:
    from instrument import PROBES

    plain = [b["wall"] for b in batches if not b["traced"]]
    traced = [b["wall"] for b in batches if b["traced"]]
    n = len(traced)
    own = inst.self_times()
    c = inst.c
    m: dict[str, tuple[float, str]] = {"import_s": (import_s, "s")}

    def per_batch(x):
        return x / n

    for layer in ("grid", "jacobi.tilde", "jacobi.alphas", "jacobi.operator"):
        m[f"{layer}.self_s"] = (per_batch(own[layer]), "s")
    m["grid.rows"] = (per_batch(c["grid.rows"]), "count")
    m["grid.reeval_ratio"] = (c["grid.rows"] / c["grid.distinct"] if c["grid.distinct"] else 0.0, "ratio")
    m["jacobi.tilde.rows"] = (per_batch(c["jacobi.tilde.rows"]), "count")
    m["jacobi.tilde.scalar_calls"] = (per_batch(c["jacobi.tilde.scalar_calls"]), "count")
    for layer in PROBES.values():
        m[f"{layer}.self_s"] = (per_batch(own[layer]), "s")
    m["criteria.probe_calls"] = (per_batch(c["criteria.probe_calls"]), "count")
    solves = c["deficiency.oracle.solves"]
    m["deficiency.oracle.self_s"] = (per_batch(own["deficiency.oracle"]), "s")
    m["deficiency.oracle.solves"] = (per_batch(solves), "count")
    m["deficiency.oracle.rows"] = (per_batch(c["deficiency.oracle.rows"]), "count")
    m["deficiency.oracle.rows_per_s"] = (
        c["deficiency.oracle.rows"] / inst.oracle_solve_s if inst.oracle_solve_s else 0.0,
        "1/s",
    )
    probes = c["deficiency.oracle.l2_probes"]
    m["deficiency.oracle.decisive_frac"] = (c["deficiency.oracle.decisive"] / probes if probes else 0.0, "frac")
    m["deficiency.oracle_share"] = (
        c["deficiency.oracle.verdicts"] / c["verdicts"] if c["verdicts"] else 0.0,
        "frac",
    )
    m["deficiency.pipeline.self_s"] = (per_batch(own["deficiency.pipeline"]), "s")
    m["cli.self_s"] = (per_batch(own["cli"]), "s")
    m["cli.output_changed"] = (
        client.outputs_changed / client.outputs if client.outputs else 0.0,
        "frac",
    )
    m["unattributed_s"] = (per_batch(own["op"]), "s")
    overhead = (sum(traced) - sum(plain)) / n
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_frac"] = (overhead * n / sum(plain), "frac")
    m["trace.spans"] = (per_batch(len(inst.sp_t0)), "count")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_package()
    import instrument
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    pool = wl.load_pool(args.workload)
    if args.plant_wrong_reference:
        plant_wrong_reference(pool)
    stream = wl.batches(args.workload, pool, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = wl.Runner(args.workload, OUT_DIR)
    inst = instrument.Instrument()
    client = Client(args.workload, runner, inst, wl)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # the first batch warms up code paths and allocations; it is checked, not timed
    run_batch(client, inst, next(stream), False, args.cpus)
    inst.verdict_s.clear()
    client.op_s.clear()
    batches = run_batches(client, stream, inst, args.seconds, bool(args.trace), args.cpus)
    if args.trace:
        metrics = per_layer(client, inst, batches, import_s)
    else:
        metrics = end_to_end(client, batches)
    n_verdicts = sum(len(b["verdicts"]) for b in batches if not b["traced"])

    import numpy

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "batches": batches,
        "verdict_samples": n_verdicts,
        "requests": [{"input": i, "seconds": s, "traced": t} for i, s, t in client.op_s],
        "failures": client.failures,
        "numpy": numpy.__version__,
        "scipy_imported": "scipy" in sys.modules,
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as f:
        json.dump(details, f, indent=1)
    if args.trace:
        with gzip.open(os.path.join(OUT_DIR, f"{tag}.spans.json.gz"), "wt") as f:
            json.dump(inst.spans_json(), f)
    result = {
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "batches": len(batches),
        "verdict_samples": n_verdicts,
        "failures": client.failures[:5],
        "numpy": numpy.__version__,
        "scipy_imported": "scipy" in sys.modules,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
