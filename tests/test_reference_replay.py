"""Replay recorded `deltasa analyze` outputs byte for byte.

perfbench/reference/ holds the sha256 of the full default output for
every benchmark input.  A handful of them, across every category and
including the band-edge inputs whose oracle head carries signed zeros,
must reproduce exactly.  Float bits depend on the interpreter and
numpy, so the replay runs only under the versions the pools were
recorded with.
"""

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from deltasa.cli import main

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


def load_items(workload):
    pool = json.loads((REFERENCE / f"{workload}.json").read_text())
    rec = pool["recorded_with"]
    if (rec["python"], rec["numpy"]) != (platform.python_version(), np.__version__):
        pytest.skip(f"{workload} recorded with Python {rec['python']}, numpy {rec['numpy']}")
    by_id = {item["id"]: item for item in pool["items"]}
    return [by_id[i] for i in REPLAYED[workload]]


@pytest.mark.parametrize("workload", sorted(REPLAYED))
def test_analyze_output_matches_recorded_sha256(workload):
    for item in load_items(workload):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(["analyze", *item["input"]])
        assert rc == item["ref"]["rc"], item["id"]
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digest == item["ref"]["output_sha256"], item["id"]
