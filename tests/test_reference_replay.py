"""Replay recorded `deltasa analyze` outputs against the benchmark reference.

perfbench/reference/ holds, for every benchmark input, the decision of
its verdict and the sha256 of its full default output as schema v1
wrote it.  A handful of them, across every category and including the
band-edge inputs whose oracle head carries signed zeros, are checked in
two steps:

* the exit code and the six decision fields must equal the recorded
  ones;
* the v1 bytes must reconstruct exactly.  Schema v2 stops the phase-1
  series (carleman-i, condition I) and condition A's partial sums at
  the first rung of the ladder; v1 recorded them over every rung.
  Putting the probes run on the full ladder back in their place and the
  schema back to v1 must give the recorded sha256.

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

from deltasa import check_condition_A, test_carleman_i, test_condition_I
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


def v1_bytes(argv, report):
    """The v1 output of an analyze run: the full-ladder series records and the v1 schema."""
    args = _build_parser().parse_args(["analyze", *argv])
    grid = build_grid(args)
    alpha = parse_alpha(args.alpha, grid)
    hs = _verdict_config(args).horizons
    diagnostics = report["verdict"]["diagnostics"]
    full = {
        "carleman_i": lambda: test_carleman_i(grid, alpha, hs),
        "condition_I": lambda: test_condition_I(grid, alpha, hs),
        "condition_A": lambda: check_condition_A(grid, hs),
    }
    for key, probe in full.items():
        if key in diagnostics:
            diagnostics[key] = probe().to_json()
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
        assert report["schema"] == "deltasa-analyze-v2"
        verdict = report["verdict"]
        assert {k: verdict[k] for k in DECISION} == item["ref"]["output_decision"], item["id"]
        digest = hashlib.sha256(v1_bytes(item["input"], report).encode()).hexdigest()
        assert digest == item["ref"]["output_sha256"], item["id"]
