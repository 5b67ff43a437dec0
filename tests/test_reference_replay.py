"""Replay recorded `deltasa analyze` outputs against the benchmark reference.

perfbench/reference/ holds, for every benchmark input, the decision of
its verdict and the sha256 of its full default output as schema v1
wrote it.  A handful of them, across every category and including the
band-edge inputs whose oracle head carries signed zeros, are checked in
two steps:

* the exit code and the six decision fields must equal the recorded
  ones;
* the v1 bytes must reconstruct exactly from the v8 report.  v1
  recorded carleman-i's partial sums over every rung of the ladder, a
  condition-I record wherever carleman-i does not diverge, condition
  A's partial sums, a scan of each envelope bound it reached, each
  with its own copy of the G record, and a lambda = -i oracle record
  beside the +i one, each marched to the oracle horizon.  v8 stops
  carleman-i at the first rung, drops condition I, reads condition A
  from the gaps' l2 class, refutes a bound from the orders of its
  sequence and the gaps instead of scanning it, keeps G only in the
  verdict's record, and marches only +i, and only to the edge after
  its last complete dyadic block; its G = 0 record names
  semiboundedness where v1 named the smooth power family.  Where the
  gaps' order puts the discriminant 2(a+1)^2 - 1 at a band edge or
  outside a band, v8 records it in closed form and writes no
  condition A or B.  Marching +i to the oracle horizon again (its head
  and block masses must equal the v8 record's), putting the
  full-ladder probes, condition B with its Floquet record and the
  bound scans back, rebuilding the -i record from the +i one (B is
  real; only the head is marched again, for its signed zeros), and
  restoring v1's probe list, G copies, provenances and schema must give
  the recorded sha256.

A few `deltasa sweep` runs are replayed too: the CSV that --output
writes must have the recorded sha256 and the recorded (verdict,
certifying_test) rows, and each cell's verdict the recorded decision,
flags included, which the CSV does not carry.

Float bits depend on the interpreter and numpy, so the replay runs only
under the versions the pools were recorded with.
"""

import contextlib
import csv
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from deltasa import (
    JacobiOperator,
    check_condition_B,
    deficiency_verdict,
    floquet_discriminant,
    solve_recurrence,
    test_bound_II,
    test_bound_III,
    test_carleman_i,
)
from deltasa import cli
from deltasa.cli import _build_parser, _emit, _strict, _verdict_config, build_grid, main, parse_alpha
from deltasa.criteria import check_condition_A, test_condition_I

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

REPLAYED = {
    "analyze-oracle": (
        "band-edge-0",
        "band-edge-6",  # --gamma 0.8396 --d1 1.6128: signed zeros in the -i head
        "not-O(d)-perturbation-0",
        "power-sum-0",
    ),
    "analyze-certified": (
        "critical-interior-0",
        "critical-perturbed-0",  # conditions A and B under a PowerSumAlpha perturbation
        "critical-outside-0",
        "carleman-0",
    ),
}

# an inconclusive cell at the first gamma, upper-envelope cells, an
# inconclusive cell at the second gamma, and advisory interior cells
SWEEPS = ("sweep-0", "sweep-1", "sweep-22", "sweep-33")

DECISION = ("verdict", "n_plus", "n_minus", "certificate", "advisory", "flags")


def load_items(workload, ids):
    pool = json.loads((REFERENCE / f"{workload}.json").read_text())
    rec = pool["recorded_with"]
    if (rec["python"], rec["numpy"]) != (platform.python_version(), np.__version__):
        pytest.skip(f"{workload} recorded with Python {rec['python']}, numpy {rec['numpy']}")
    by_id = {item["id"]: item for item in pool["items"]}
    return [by_id[i] for i in ids]


def analyze(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["analyze", *argv])
    return rc, buf.getvalue()


# the oracle provenance prefixes v5 writes, and the ones v1 wrote
V1_PROVENANCE = {
    "numerical-advisory: the forward solution at lambda = +i ": (
        "numerical-advisory: the forward solution at each nonreal probe point "
    ),
    "inconclusive: the oracle block trend is ambiguous": (
        "inconclusive: oracle block trends disagree or are ambiguous"
    ),
}


# every pool grid is a power grid with 1/2 < gamma < 1, whose G = 0 v1 named by that family
V1_G_PROVENANCE = "smooth-family-bounded-F"


# the one G record of v6, which v1 also wrote into each bound's params
ZERO_G = {"kind": "zero", "provenance": "semibounded-coupling-or-reflection"}


def v1_bytes(argv, report):
    """The v1 output of an analyze run, rebuilt from its v8 report."""
    args = _build_parser().parse_args(["analyze", *argv])
    grid = build_grid(args)
    alpha = parse_alpha(args.alpha, grid)
    cfg = _verdict_config(args)
    hs = cfg.horizons
    verdict = report["verdict"]
    diagnostics = verdict["diagnostics"]
    if "product" in diagnostics.get("floquet", {}):  # v8 reads Delta from the order, v1 scanned condition B
        cond_b = check_condition_B(grid, hs[-1])
        diagnostics["condition_B"] = cond_b.to_json()
        diagnostics["condition_A"] = None  # v1's partial sums go in below
        diagnostics["floquet"] = floquet_discriminant(cond_b.u, diagnostics["floquet"]["a"]).to_json()
    if "carleman_i" in diagnostics:
        diagnostics["carleman_i"] = test_carleman_i(grid, alpha, hs).to_json()
        if diagnostics["carleman_i"]["verdict"] != "diverges":
            diagnostics["condition_I"] = test_condition_I(grid, alpha, hs).to_json()
    if "condition_A" in diagnostics:
        diagnostics["condition_A"] = check_condition_A(grid, hs).to_json()
    if "oracle_lambda_+1i" in diagnostics:
        op = JacobiOperator(grid, alpha)
        plus = diagnostics["oracle_lambda_+1i"]
        full = solve_recurrence(op, 1j, diagnostics["config"]["oracle_horizon"]).to_json()
        full = json.loads(json.dumps(_strict(full)))  # as the report was read back
        for key in ("block_log_masses", "head"):
            assert full[key] == plus["solution"][key], key
        plus["solution"] = full
        minus = json.loads(json.dumps(plus))
        solution = minus["solution"]
        front = solve_recurrence(op, -1j, solution["meta"]["keep"]).to_json()
        solution["lambda"], solution["head"] = front["lambda"], front["head"]
        diagnostics["oracle_lambda_-1i"] = minus
    diagnostics["config"]["lambda_probes"] = [[0.0, 1.0], [-0.0, -1.0]]
    for v5, v1 in V1_PROVENANCE.items():
        if verdict["provenance"].startswith(v5):
            verdict["provenance"] = v1 + verdict["provenance"][len(v5):]
    for key, probe in (("bound_II", test_bound_II), ("bound_III", test_bound_III)):
        if key not in diagnostics:
            continue
        if diagnostics[key].get("refuted_by") == "order":  # v1 scanned it, G copy included
            diagnostics[key] = json.loads(json.dumps(_strict(probe(grid, alpha, cfg.bound_horizon).to_json())))
        else:
            diagnostics[key]["params"]["G"] = dict(ZERO_G)
    if "G" in diagnostics:  # the verdict record and each bound's own copy
        bounds = [diagnostics[b]["params"] for b in ("bound_II", "bound_III") if b in diagnostics]
        for record in [diagnostics["G"], *(params["G"] for params in bounds)]:
            assert record == ZERO_G
            record["provenance"] = V1_G_PROVENANCE
    report["schema"] = "deltasa-analyze-v1"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit(report, None)
    return buf.getvalue()


@pytest.mark.parametrize("workload", sorted(REPLAYED))
def test_analyze_output_matches_recorded_sha256(workload):
    for item in load_items(workload, REPLAYED[workload]):
        rc, out = analyze(item["input"])
        assert rc == item["ref"]["rc"], item["id"]
        report = json.loads(out)
        assert report["schema"] == "deltasa-analyze-v8"
        verdict = report["verdict"]
        assert {k: verdict[k] for k in DECISION} == item["ref"]["output_decision"], item["id"]
        digest = hashlib.sha256(v1_bytes(item["input"], report).encode()).hexdigest()
        assert digest == item["ref"]["output_sha256"], item["id"]


def test_sweep_csv_matches_recorded_sha256(tmp_path, monkeypatch):
    decisions = []

    def recording(*args, **kwargs):
        v = deficiency_verdict(*args, **kwargs)
        decisions.append(
            {
                "verdict": v.verdict.value,
                "n_plus": v.n_plus,
                "n_minus": v.n_minus,
                "certificate": v.certificate,
                "advisory": v.advisory,
                "flags": list(v.flags),
            }
        )
        return v

    monkeypatch.setattr(cli, "deficiency_verdict", recording)
    target = tmp_path / "sweep.csv"
    for item in load_items("sweep", SWEEPS):
        decisions.clear()
        assert main(["sweep", *item["input"], "--output", str(target)]) == item["ref"]["rc"], item["id"]
        text = target.read_bytes().decode()
        assert hashlib.sha256(text.encode()).hexdigest() == item["ref"]["output_sha256"], item["id"]
        rows = [[r["verdict"], r["certifying_test"]] for r in csv.DictReader(io.StringIO(text))]
        assert rows == item["ref"]["rows"], item["id"]
        assert decisions == item["ref"]["decisions"], item["id"]
