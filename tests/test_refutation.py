"""Phase 2's closed-form refutation of the envelope bounds.

A bound s_n >= -C d_n (s = alpha for bound III, its reflection
alpha' = -alpha - 2(1/d_n + 1/d_{n+1}) for bound II) is refuted without
a scan when s has a known leading term c n^p (ln n)^q with c < 0 and
(p, q) strictly above the gaps' order: then -s_n/d_n grows without
bound.  The witnesses here are the bound probes themselves, which scan
the rows: wherever the closed form refutes a bound, the probe's sup
grows from the first window to the second.  Ties with the gaps' order,
non-negative leads and an exact cancellation are scanned as before, and
the verdict records the probe's own record, less the G record that
diagnostics["G"] holds once.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltasa import (
    ConstantGrid,
    ExplicitAlpha,
    PowerLogGrid,
    PowerSumAlpha,
    ScaledInverseGapsAlpha,
    VerdictConfig,
    deficiency_verdict,
    test_bound_II,
    test_bound_III,
)
from deltasa.cli import main, parse_alpha
from deltasa import deficiency
from deltasa.deficiency import _refuted
from deltasa.jacobi import _reflection_lead
from deltasa.numerics import TriState

PROBES = {"bound_II": test_bound_II, "bound_III": test_bound_III}


def refutations(grid, alpha):
    """{key: record} of the bounds the closed form refutes, as phase 2 decides them."""
    order, lead = grid.order(), alpha.leading_term()
    records = {
        "bound_II": _refuted("bound-II", _reflection_lead(grid, lead), order),
        "bound_III": _refuted("bound-III", lead, order),
    }
    return {key: r for key, r in records.items() if r is not None}


# a's refuting lead is 2a n^gamma (bound III, a < 0) or -2(a + 2) n^gamma
# (bound II, a > -2): a stays 1/2 away from 0 and -2, or sits on them,
# and a perturbation c n^q stays n^0.3 below the gaps' inverse order, so
# the lead outgrows the rest of s by 10^4 rows.  With a = 0 a negative
# perturbation is the lead itself, n^0.3 or more above the gaps' order
A_VALUES = st.one_of(
    st.sampled_from([0.0, -2.0]),
    st.floats(-4.0, 2.0).filter(lambda a: abs(a) >= 0.5 and abs(a + 2.0) >= 0.5),
)
PERTURBATIONS = st.one_of(st.none(), st.tuples(st.sampled_from([0.5, -0.5]), st.floats(-1.0, 0.25)))


@settings(max_examples=150, deadline=None)
@given(gamma=st.floats(0.55, 1.0, exclude_min=True), eta=st.floats(-1.0, 1.0), a=A_VALUES, pert=PERTURBATIONS)
@example(gamma=0.8, eta=0.0, a=-0.5, pert=None)
@example(gamma=1.0, eta=-1.0, a=0.0, pert=(-0.5, -0.7))
@example(gamma=0.56, eta=1.0, a=-2.0, pert=(0.5, 0.25))
def test_a_refuted_bound_scans_a_growing_sup(gamma, eta, a, pert):
    grid = PowerLogGrid(gamma=gamma, eta=eta)
    if pert is not None and a == 0.0 and pert[1] + gamma < 0.3:
        pert = (pert[0], 0.3 - gamma)
    alpha = ScaledInverseGapsAlpha(grid, a, perturbation=None if pert is None else PowerSumAlpha((pert + (0.0,),)))
    for key, record in refutations(grid, alpha).items():
        assert record["refuted_by"] == "order" and record["holds"] == "false"
        probe = PROBES[key](grid, alpha, N=10**4)
        assert probe.window_sups[1] > probe.window_sups[0], (key, probe.window_sups)


def verdict_bounds(argv):
    """The verdict and its bound records from `deltasa analyze`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["analyze", *argv]) == 0
    report = json.loads(buf.getvalue())
    assert report["schema"] == "deltasa-analyze-v8"
    return report["verdict"]


def scanned_record(grid, alpha, key):
    """The probe's own record at the default bound horizon, less its G copy, as JSON text."""
    record = PROBES[key](grid, alpha, N=VerdictConfig().bound_horizon).to_json()
    del record["params"]["G"]
    return json.dumps(record, sort_keys=True)


# (gamma, alpha): the bound that ties or cancels, and the one the order refutes
SCANNED = {
    "cancellation a = -2": (0.8, "-2*(1/d_n+1/d_{n+1})", "bound_II", "bound_III"),
    "zero coupling": (0.8, "zero", "bound_III", "bound_II"),
    "power sum with p = gamma": (0.8, "-1/n^0.8", "bound_III", "bound_II"),
}


@pytest.mark.parametrize("case", sorted(SCANNED))
def test_ties_and_cancellations_keep_the_scan(case):
    gamma, text, scanned, refuted = SCANNED[case]
    verdict = verdict_bounds(["--gamma", str(gamma), f"--alpha={text}"])
    diagnostics = verdict["diagnostics"]
    grid = PowerLogGrid(gamma=gamma)
    alpha = parse_alpha(text, grid)
    assert json.dumps(diagnostics[scanned], sort_keys=True) == scanned_record(grid, alpha, scanned)
    assert diagnostics[refuted]["refuted_by"] == "order" and "window_sups" not in diagnostics[refuted]
    assert diagnostics["G"] == {"kind": "zero", "provenance": "semibounded-coupling-or-reflection"}


@pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
def test_a_constant_grid_ties_every_constant_coupling(c):
    # phase 0 settles a constant grid, so this is the rule alone: alpha and
    # its reflection are constants, of the gaps' own order n^0
    grid = ConstantGrid(0.5)
    assert refutations(grid, ExplicitAlpha((c,))) == {}


def test_both_bounds_refuted_without_a_scan():
    verdict = verdict_bounds(["--gamma", "1", "--alpha=-0.5*(1/d_n+1/d_{n+1})"])
    assert (verdict["verdict"], verdict["certificate"], verdict["advisory"]) == ("Deficient", "periodic-comparison", False)
    for key, test, c in (("bound_II", "bound-II", -3.0), ("bound_III", "bound-III", -1.0)):
        assert verdict["diagnostics"][key] == {
            "test": test,
            "holds": "false",
            "refuted_by": "order",
            "leading": {"c": c, "p": 1.0, "q": 0.0},
            "gaps": {"c": 1.0, "p": -1.0, "q": -0.0},
        }


def test_a_slowly_growing_ratio_is_no_longer_certified():
    # -alpha_n/d_n = n^0.01 grows without bound, but its window drift at
    # 10^5 rows (0.7%) stays under the 5% rule, so the scan alone read
    # bound III as holding: the order refutes it, and the oracle decides
    verdict = verdict_bounds(["--gamma", "0.8", "--alpha=-1*n^-0.79"])
    assert (verdict["verdict"], verdict["certificate"], verdict["advisory"]) == ("SelfAdjoint", "oracle-growth", True)
    assert verdict["diagnostics"]["bound_III"]["refuted_by"] == "order"
    grid = PowerLogGrid(gamma=0.8)
    probe = test_bound_III(grid, PowerSumAlpha(((-1.0, -0.79, 0.0),)), N=VerdictConfig().bound_horizon)
    assert probe.holds is TriState.TRUE and probe.window_sups[1] > probe.window_sups[0]


def test_verdict_scans_only_what_the_order_cannot_refute(monkeypatch):
    # a = -0.5 on gamma = 0.8: both leads are negative and of order n^0.8
    def scan(*args, **kwargs):
        raise AssertionError("phase 2 scanned a bound the order refutes")

    monkeypatch.setattr(deficiency, "test_bound_II", scan)
    monkeypatch.setattr(deficiency, "test_bound_III", scan)
    grid = PowerLogGrid(gamma=0.8)
    v = deficiency_verdict(grid, ScaledInverseGapsAlpha(grid, -0.5), VerdictConfig((10**4,)))
    assert (v.verdict.value, v.certificate) == ("Deficient", "periodic-comparison")
