"""The workloads: input pools, one request per op, correctness checks.

Each workload draws its requests from a fixed pool of inputs whose
reference decisions were recorded by ``record.py`` and are stored in
``reference/<workload>.json``.  The run seed only chooses the order in
which the pool is walked, so every request a run makes has a reference.
An end-to-end run never repeats a pool item, so nothing the program
might cache across requests can help it.

Requests are grouped into batches with a fixed mix of categories.  Every
batch of a workload therefore does the same kind of work, which keeps the
median batch time steady across seeds; the mix is chosen so that the
median and the 90th percentile of verdict latency fall inside a cluster
of similar verdicts rather than in the gap between two clusters.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "reference")

CRITICAL = "*(1/d_n+1/d_{n+1})"

# categories of one batch, in request order
BATCH = {
    "analyze-certified": (
        "critical-interior",
        "critical-outside",
        "critical-interior",
        "critical-perturbed",
        "critical-interior",
        "carleman",
        "critical-interior",
        "critical-outside",
    ),
    "analyze-oracle": ("band-edge", "not-O(d)-perturbation", "band-edge", "power-sum"),
    "sweep": ("sweep",),
}

WORKLOADS = tuple(BATCH)


# ---------------------------------------------------------------------------
# pools (used by record.py; the worker reads the recorded pool)

POOL_SEED = 1204_0728
POOL_SIZE = {  # items per category
    "analyze-certified": {"critical-interior": 400, "critical-outside": 200, "critical-perturbed": 100, "carleman": 100},
    "analyze-oracle": {"band-edge": 160, "not-O(d)-perturbation": 80, "power-sum": 80},
    "sweep": {"sweep": 40},
}


def _num(x: float) -> str:
    return repr(round(x, 4))


def _interior_a(rng: random.Random) -> float:
    return round(rng.uniform(-1.95, -1.05) if rng.random() < 0.5 else rng.uniform(-0.95, -0.05), 4)


def _outside_a(rng: random.Random) -> float:
    return round(rng.uniform(-4.0, -2.1) if rng.random() < 0.5 else rng.uniform(0.1, 3.0), 4)


def _od_perturbation(rng: random.Random, gamma: float) -> str:
    """c/n^p with p >= gamma, so the perturbation is O(d_n)."""
    c = rng.uniform(0.5, 2.0)
    sign = "-" if rng.random() < 0.5 else "+"
    return f"{sign}{_num(c)}/n^{_num(gamma + rng.uniform(0.0, 1.0))}"


def _grid_args(rng: random.Random) -> tuple[float, list[str]]:
    gamma = round(rng.uniform(0.55, 1.0), 4)
    return gamma, ["--gamma", _num(gamma), "--d1", _num(rng.uniform(0.5, 2.0))]


def _critical(a: float, pert: str = "") -> str:
    return f"--alpha={_num(a)}{CRITICAL}{pert}"


def known_critical(a: float):
    """Known answer for a critical coupling on a power grid, gamma in (1/2, 1].

    The comparison discriminant is Delta = 2(a+1)^2 - 1: a in (-2,-1) or
    (-1, 0) puts 0 inside a band (deficiency indices (1, 1)); a outside
    [-2, 0] puts it outside (self-adjoint).  a = -2, -1, 0 are band edges.
    """
    if -2.0 < a < 0.0 and a != -1.0:
        return "Deficient"
    if a < -2.0 or a > 0.0:
        return "SelfAdjoint"
    return None


def _pool_item(workload: str, category: str, rng: random.Random) -> dict:
    if workload == "analyze-certified":
        gamma, args = _grid_args(rng)
        if category == "carleman":
            c = rng.uniform(0.5, 3.0) * (1 if rng.random() < 0.5 else -1)
            return {"input": args + [f"--alpha={_num(c)}*n^{_num(rng.uniform(2.0, 3.0))}"], "known": None}
        a = _outside_a(rng) if category == "critical-outside" else _interior_a(rng)
        pert = _od_perturbation(rng, gamma) if category == "critical-perturbed" else ""
        return {"input": args + [_critical(a, pert)], "known": known_critical(a)}
    if workload == "analyze-oracle":
        gamma, args = _grid_args(rng)
        if category == "band-edge":
            a = rng.choice((-2.0, -1.0))
            return {"input": args + [_critical(a)], "known": None}
        if category == "not-O(d)-perturbation":
            c = _num(rng.uniform(0.5, 2.0))
            q = _num(rng.uniform(0.05, 0.5))
            pert = rng.choice((f"+{c}*n^{q}", f"-{c}*n^{q}", f"+{c}/n^{q}"))
            return {"input": args + [_critical(_interior_a(rng), pert)], "known": None}
        c = _num(rng.uniform(0.5, 2.0))
        return {"input": args + [f"--alpha=-{c}*n^{_num(rng.uniform(0.3, 0.6))}"], "known": None}
    if workload == "sweep":
        gammas = sorted(round(rng.uniform(0.55, 1.0), 4) for _ in range(2))
        a_values = [
            round(rng.uniform(-1.95, -1.05), 4),
            round(rng.uniform(-0.95, -0.05), 4),
            _outside_a(rng),
            rng.choice((-2.0, -1.0)),
        ]
        args = [
            "--gammas", ",".join(_num(g) for g in gammas),
            "--a-values=" + ",".join(_num(a) for a in a_values),
            "--d1", _num(rng.uniform(0.5, 2.0)),
        ]
        return {"input": args, "known": [known_critical(a) for _ in gammas for a in a_values]}
    raise ValueError(workload)


def generate_pool(workload: str) -> list[dict]:
    rng = random.Random(f"{POOL_SEED}-{workload}")
    items = []
    for category, count in POOL_SIZE[workload].items():
        for i in range(count):
            item = _pool_item(workload, category, rng)
            items.append({"id": f"{category}-{i}", "category": category, **item})
    return items


# ---------------------------------------------------------------------------
# running one request


class Runner:
    """Executes requests of one workload against the imported package."""

    def __init__(self, workload: str, work_dir: str) -> None:
        import deltasa
        import deltasa.cli  # noqa: F401  (the CLI is not imported by the package)

        self.deltasa = deltasa
        self.workload = workload
        self.work_dir = work_dir

    def run(self, item: dict) -> tuple[float, dict]:
        """Run one request; returns (seconds, raw outcome)."""
        fn = getattr(self, "_" + self.workload.replace("-", "_"))
        return fn(item["input"])

    def _cli(self, argv: list[str]) -> tuple[float, dict]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = self.deltasa.cli.main(argv)
        return time.perf_counter() - t0, {"rc": rc, "output": buf.getvalue()}

    def _analyze_certified(self, args):
        return self._cli(["analyze", *args])

    _analyze_oracle = _analyze_certified

    def _sweep(self, args):
        fd, path = tempfile.mkstemp(suffix=".csv", dir=self.work_dir)
        os.close(fd)
        try:
            dt, out = self._cli(["sweep", *args, "--output", path])
            with open(path) as f:
                out["output"] = f.read()
        finally:
            os.remove(path)
        return dt, out


# ---------------------------------------------------------------------------
# correctness


def summarize(workload: str, outcome: dict, decisions: list[dict]) -> dict:
    """The reference-comparable part of one request's outcome."""
    ref: dict = {"decisions": decisions}
    if "output" in outcome:
        ref["rc"] = outcome["rc"]
        ref["output_sha256"] = hashlib.sha256(outcome["output"].encode()).hexdigest()
        if workload == "sweep":
            rows = list(csv.DictReader(io.StringIO(outcome["output"])))
            ref["rows"] = [[r["verdict"], r["certifying_test"]] for r in rows]
        else:
            v = json.loads(outcome["output"])["verdict"]
            ref["output_decision"] = {k: v[k] for k in decisions[0]} if decisions else None
    return ref


def check(item: dict, got: dict) -> tuple[list[str], bool]:
    """Compare a request's summarized outcome with its reference and known answer.

    Returns (failure reasons, output bytes changed).  Output bytes that
    differ from the reference are reported but are not a failure.
    """
    ref = item["ref"]
    problems = []
    for key in ("rc", "decisions", "rows", "output_decision"):
        if key in ref and got.get(key) != ref[key]:
            problems.append(f"{key} differs from the reference")
    known = item.get("known")
    if isinstance(known, str):
        if [d["verdict"] for d in got["decisions"]] != [known]:
            problems.append(f"contradicts the known answer {known}")
    elif isinstance(known, list):
        verdicts = [row[0] for row in got.get("rows", [])]
        if len(verdicts) != len(known) or any(k is not None and k != v for k, v in zip(known, verdicts)):
            problems.append("a cell contradicts its known answer")
    changed = "output_sha256" in ref and got.get("output_sha256") != ref["output_sha256"]
    return problems, changed


# ---------------------------------------------------------------------------
# request order


def load_pool(workload: str) -> list[dict]:
    with open(os.path.join(REF_DIR, f"{workload}.json")) as f:
        return json.load(f)["items"]


def batches(workload: str, pool: list[dict], seed: int):
    """Iterator over the batches of one seed.

    Each category's items are shuffled by the seed and consumed in order;
    the iterator ends when a category runs out.
    """
    rng = random.Random(seed)
    by_cat: dict[str, list[dict]] = {}
    for item in pool:
        by_cat.setdefault(item["category"], []).append(item)
    for items in by_cat.values():
        rng.shuffle(items)
    queues = {c: iter(items) for c, items in by_cat.items()}
    while True:
        try:
            yield [next(queues[c]) for c in BATCH[workload]]
        except StopIteration:
            return
