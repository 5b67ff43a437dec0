"""Replay recorded `deltasa analyze` outputs against the benchmark reference.

perfbench/reference/ holds, for every benchmark input, the decision of
its verdict and the sha256 of its full default output as schema v1
wrote it.  A handful of them, across every category and including the
band-edge inputs whose oracle head carries signed zeros, are checked in
two steps:

* the exit code and the six decision fields must equal the recorded
  ones;
* the v1 bytes must reconstruct exactly from the v3 report.  v1
  recorded carleman-i's partial sums over every rung of the ladder, a
  condition-I record wherever carleman-i does not diverge, condition
  A's partial sums, and a lambda = -i oracle record beside the +i one.
  v3 stops carleman-i at the first rung, drops condition I, reads
  condition A from the gaps' l2 class and marches only +i.  Putting the
  full-ladder probes back, rebuilding the -i record from the +i one
  (B is real; only the head is marched again, for its signed zeros),
  and restoring v1's probe list, provenance and schema must give the
  recorded sha256.

Float bits depend on the interpreter and numpy, so the replay runs only
under the versions the pools were recorded with.
"""

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from deltasa import JacobiOperator, check_condition_A, solve_recurrence, test_carleman_i, test_condition_I
from deltasa.cli import _build_parser, _emit, _verdict_config, build_grid, main, parse_alpha

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

DECISION = ("verdict", "n_plus", "n_minus", "certificate", "advisory", "flags")


def load_items(workload):
    pool = json.loads((REFERENCE / f"{workload}.json").read_text())
    rec = pool["recorded_with"]
    if (rec["python"], rec["numpy"]) != (platform.python_version(), np.__version__):
        pytest.skip(f"{workload} recorded with Python {rec['python']}, numpy {rec['numpy']}")
    by_id = {item["id"]: item for item in pool["items"]}
    return [by_id[i] for i in REPLAYED[workload]]


def analyze(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["analyze", *argv])
    return rc, buf.getvalue()


# the oracle provenance prefixes v3 writes, and the ones v1 wrote
V1_PROVENANCE = {
    "numerical-advisory: the forward solution at lambda = +i ": (
        "numerical-advisory: the forward solution at each nonreal probe point "
    ),
    "inconclusive: the oracle block trend is ambiguous": (
        "inconclusive: oracle block trends disagree or are ambiguous"
    ),
}


def v1_bytes(argv, report):
    """The v1 output of an analyze run, rebuilt from its v3 report."""
    args = _build_parser().parse_args(["analyze", *argv])
    grid = build_grid(args)
    alpha = parse_alpha(args.alpha, grid)
    hs = _verdict_config(args).horizons
    verdict = report["verdict"]
    diagnostics = verdict["diagnostics"]
    if "carleman_i" in diagnostics:
        diagnostics["carleman_i"] = test_carleman_i(grid, alpha, hs).to_json()
        if diagnostics["carleman_i"]["verdict"] != "diverges":
            diagnostics["condition_I"] = test_condition_I(grid, alpha, hs).to_json()
    if "condition_A" in diagnostics:
        diagnostics["condition_A"] = check_condition_A(grid, hs).to_json()
    if "oracle_lambda_+1i" in diagnostics:
        minus = json.loads(json.dumps(diagnostics["oracle_lambda_+1i"]))
        solution = minus["solution"]
        front = solve_recurrence(JacobiOperator(grid, alpha), -1j, solution["meta"]["keep"]).to_json()
        solution["lambda"], solution["head"] = front["lambda"], front["head"]
        diagnostics["oracle_lambda_-1i"] = minus
    diagnostics["config"]["lambda_probes"] = [[0.0, 1.0], [-0.0, -1.0]]
    for v3, v1 in V1_PROVENANCE.items():
        if verdict["provenance"].startswith(v3):
            verdict["provenance"] = v1 + verdict["provenance"][len(v3):]
    report["schema"] = "deltasa-analyze-v1"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _emit(report, None)
    return buf.getvalue()


@pytest.mark.parametrize("workload", sorted(REPLAYED))
def test_analyze_output_matches_recorded_sha256(workload):
    for item in load_items(workload):
        rc, out = analyze(item["input"])
        assert rc == item["ref"]["rc"], item["id"]
        report = json.loads(out)
        assert report["schema"] == "deltasa-analyze-v3"
        verdict = report["verdict"]
        assert {k: verdict[k] for k in DECISION} == item["ref"]["output_decision"], item["id"]
        digest = hashlib.sha256(v1_bytes(item["input"], report).encode()).hexdigest()
        assert digest == item["ref"]["output_sha256"], item["id"]
