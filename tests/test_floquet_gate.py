"""Phase 3 reads the Floquet discriminant from the gaps' order first.

On gaps whose order states its constant c, d_n ~ c n^p (ln n)^q, so
d_{n+1}/d_n -> 1 and the parity limits of condition B multiply to
u_odd u_even = 4: the half-trace at lambda = 0 is 2(a+1)^2 - 1 with no
scan.  From the Jordan edge Delta = +1 up, no periodic comparison can
certify, so the verdict records it, runs no condition-B scan and falls
through to the oracle with today's decision.  Delta = -1 (a = -1) is an
edge only by the margin, so condition B still runs there and its flag
still says whether B held.  The independent witness is condition B
itself: where it holds, its period pair puts the discriminant in the
same band class, and its product reads 4.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltasa import (
    CustomAlpha,
    CustomGrid,
    PowerLogGrid,
    PowerSumAlpha,
    ScaledInverseGapsAlpha,
    VerdictConfig,
    check_condition_B,
    deficiency_verdict,
    floquet_discriminant,
)
from deltasa import deficiency
from deltasa.cli import main
from deltasa.deficiency import _FLOQUET_MARGIN, _band_class
from deltasa.numerics import TriState

# the band-class boundaries |Delta| = 1 -+ margin, each sign
BOUNDARIES = [s * (1.0 + m) for s in (1.0, -1.0) for m in (-_FLOQUET_MARGIN, _FLOQUET_MARGIN)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    gamma=st.floats(0.55, 1.0, exclude_min=True),
    eta=st.floats(-1.0, 1.0),
    d1=st.floats(0.5, 2.0),
    a=st.one_of(st.sampled_from([-2.0, -1.0, 0.0]), st.floats(-4.0, 2.0)),
)
@example(gamma=1.0, eta=0.0, d1=1.0, a=-2.0)
@example(gamma=0.6, eta=0.0, d1=1.0, a=-1.0)
def test_order_class_matches_condition_B(gamma, eta, d1, a):
    delta0 = 2.0 * (a + 1.0) * (a + 1.0) - 1.0
    if any(abs(delta0 - b) <= 1e-9 for b in BOUNDARIES):
        return
    b = check_condition_B(PowerLogGrid(gamma=gamma, eta=eta, d1=d1), 10**4)
    assert b.u.product == pytest.approx(4.0, abs=1e-6)
    if b.holds is TriState.TRUE:
        assert _band_class(delta0) is floquet_discriminant(b.u, a).inside_band


def raise_if_called(*args, **kwargs):
    raise AssertionError("condition B was scanned")


def counting(calls):
    def spy(*args, **kwargs):
        calls.append(args)
        return check_condition_B(*args, **kwargs)

    return spy


# the decision of each Jordan edge, the same as when condition B ran before the discriminant
EDGES = [
    (0.6, -2.0, None, ("SelfAdjoint", "oracle-growth", True)),
    (0.6, 0.0, 1.0, ("SelfAdjoint", "lower-envelope-bound", False)),  # phase 2 settles alpha = 1/n >= 0
    (0.8, -2.0, None, ("SelfAdjoint", "oracle-growth", True)),
    (0.8, 0.0, 1.0, ("SelfAdjoint", "lower-envelope-bound", False)),
    (1.0, -2.0, None, ("SelfAdjoint", "oracle-growth", True)),
    (1.0, 0.0, 1.0, ("SelfAdjoint", "lower-envelope-bound", False)),
]


@pytest.mark.parametrize("gamma,a,c_over_n,decision", EDGES)
def test_power_grid_jordan_edge_needs_no_scan(monkeypatch, gamma, a, c_over_n, decision):
    monkeypatch.setattr(deficiency, "check_condition_B", raise_if_called)
    grid = PowerLogGrid(gamma=gamma)
    pert = PowerSumAlpha(terms=((c_over_n, -1.0, 0.0),)) if c_over_n else None
    v = deficiency_verdict(grid, ScaledInverseGapsAlpha(grid, a, perturbation=pert))
    assert (v.verdict.value, v.certificate, v.advisory) == decision
    assert "condition_B" not in v.diagnostics and "condition_A" not in v.diagnostics
    if v.advisory:
        assert v.diagnostics["floquet"] == {
            "a": a,
            "lambda": 0.0,
            "discriminant": 1.0,
            "inside_band": "unknown",
            "product": 4.0,
        }
        assert v.flags == ("discriminant-at-band-edge",)


# a = -1 with the decision it got before the gate; (0.9414, 1.7635) is the
# sweep-pool grid whose float scan of condition B reads unknown
CLOSED_GAPS = [
    (0.6, 1.0, ("Inconclusive", None, True)),
    (0.8, 1.0, ("Deficient", "oracle-ell2", True)),
    (1.0, 1.0, ("Deficient", "oracle-ell2", True)),
    (0.9414, 1.7635, ("Deficient", "oracle-ell2", True)),
]


@pytest.mark.parametrize("gamma,d1,decision", CLOSED_GAPS)
def test_a_minus_one_still_scans_condition_B(monkeypatch, gamma, d1, decision):
    # Delta = -1 is an edge only by the margin: B runs once, and the flag
    # says whether it held
    calls = []
    monkeypatch.setattr(deficiency, "check_condition_B", counting(calls))
    grid = PowerLogGrid(gamma=gamma, d1=d1)
    v = deficiency_verdict(grid, ScaledInverseGapsAlpha(grid, -1.0))
    assert len(calls) == 1
    assert (v.verdict.value, v.certificate, v.advisory) == decision
    if v.diagnostics["condition_B"]["holds"] == "true":
        assert v.diagnostics["floquet"]["u"] == v.diagnostics["condition_B"]["u"]
        assert v.flags == ("discriminant-at-band-edge",)
    else:
        assert "floquet" not in v.diagnostics
        assert v.flags == ("period-two-structure-not-established",)


@pytest.mark.parametrize("a,delta", [(0.5, 3.5), (1e200, float("inf"))])
def test_exterior_is_flagged_without_a_scan(monkeypatch, a, delta):
    # a coupling that states the form a but takes the a = -1 values fails
    # both envelope bounds, so phase 3 reads Delta from the stated a:
    # strictly outside every band, and a Delta beyond the float range is inf
    monkeypatch.setattr(deficiency, "check_condition_B", raise_if_called)
    grid = PowerLogGrid(gamma=0.8)
    alpha = CustomAlpha(lambda n: -(1.0 / grid.gap(n) + 1.0 / grid.gap(n + 1)), scaled_form=(a, True))
    v = deficiency_verdict(grid, alpha, VerdictConfig((10**4, 10**5)))
    assert v.advisory
    assert v.diagnostics["floquet"]["discriminant"] == delta
    assert v.diagnostics["floquet"]["inside_band"] == "false"
    assert v.flags == ("discriminant-outside-band",)


def test_custom_grid_band_edge_still_scans(monkeypatch):
    # a custom grid states no order, so phase 3 scans B as before the gate
    calls = []
    monkeypatch.setattr(deficiency, "check_condition_B", counting(calls))
    grid = CustomGrid(lambda n: n**-0.8)
    v = deficiency_verdict(grid, ScaledInverseGapsAlpha(grid, -1.0), VerdictConfig((1000, 10**4)))
    assert len(calls) == 1
    assert v.diagnostics["condition_B"]["holds"] == "true"
    assert "product" not in v.diagnostics.get("floquet", {})


def test_interior_scans_condition_B_once(monkeypatch):
    calls = []
    monkeypatch.setattr(deficiency, "check_condition_B", counting(calls))
    grid = PowerLogGrid(gamma=0.8)
    v = deficiency_verdict(grid, ScaledInverseGapsAlpha(grid, -0.5), VerdictConfig((10**4, 10**5)))
    assert len(calls) == 1
    assert v.certificate == "periodic-comparison"
    assert v.diagnostics["floquet"]["u"] == v.diagnostics["condition_B"]["u"]


def test_edge_whose_scan_failed_is_flagged_as_an_edge():
    # gamma = 1, eta = 0.5: condition B is false there, so the Jordan edge
    # was flagged period-two-structure-not-established before the gate; the
    # closed-form record comes from the product identity alone and says
    # nothing of B
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["analyze", "--gamma", "1", "--eta", "0.5", "--alpha=-2*(1/d_n+1/d_{n+1})"])
    v = json.loads(buf.getvalue())["verdict"]
    assert rc == 0
    assert (v["verdict"], v["certificate"], v["advisory"]) == ("SelfAdjoint", "oracle-growth", True)
    assert v["flags"] == ["discriminant-at-band-edge"]
