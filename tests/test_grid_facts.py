"""One record of a grid's facts: every verdict on a grid shares its scans.

deficiency._GridFacts holds what a verdict reads of the grid alone, each
scan computed on first read, and the tilde ladder condition B scans.  The
sweep builds one record per grid, so condition B runs once per grid however
many couplings it holds; the battery reads each d = n^-gamma grid through
one record per top horizon; and a verdict prints the same bytes with a
shared record as with its own.
"""

import hashlib
import json
from pathlib import Path

import pytest

from deltasa import PowerLogGrid, PowerSumAlpha, ScaledInverseGapsAlpha, cli, deficiency, verify
from deltasa.deficiency import VerdictConfig, _GridFacts, deficiency_verdict

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def spy_on_B(monkeypatch):
    """A list that gets, per condition-B scan, whether a verdict of the sweep was running."""
    calls, in_verdict = [], []
    scan, verdict = deficiency.check_condition_B, cli.deficiency_verdict

    def counted(*args, **kwargs):
        calls.append(bool(in_verdict))
        return scan(*args, **kwargs)

    def traced(*args, **kwargs):
        in_verdict.append(True)
        try:
            return verdict(*args, **kwargs)
        finally:
            in_verdict.pop()

    monkeypatch.setattr(deficiency, "check_condition_B", counted)
    monkeypatch.setattr(cli, "deficiency_verdict", traced)
    return calls


def test_sweep_scans_B_once_per_grid(capsys, monkeypatch):
    # the parent design scanned B six times here: once per grid for the
    # CSV columns and once per interior cell's verdict
    item = json.loads((REFERENCE / "sweep.json").read_text())["items"][0]
    assert item["id"] == "sweep-0"
    calls = spy_on_B(monkeypatch)
    assert cli.main(["sweep", *item["input"]]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert len(calls) == 2
    assert hashlib.sha256(out.encode()).hexdigest() == item["ref"]["output_sha256"]


def test_columns_read_B_when_no_verdict_does(capsys, monkeypatch):
    # a = -2 is stopped by the Floquet gate and a = 0.5 is certified by the
    # lower envelope bound: neither verdict reaches B, and the grid's
    # u_odd / u_even / delta0 columns read it once
    calls = spy_on_B(monkeypatch)
    assert cli.main(["sweep", "--gammas", "0.8", "--a-values=-2,0.5"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert calls == [False]
    header, *rows = out.splitlines()
    cells = [dict(zip(header.split(","), row.split(","))) for row in rows]
    assert [c["certifying_test"] for c in cells] == ["numerical-advisory", "lower-envelope-bound"]
    for c in cells:
        assert all(c[k] for k in ("u_odd", "u_even", "delta0"))
    assert cells[0]["u_odd"] == cells[1]["u_odd"] and cells[0]["u_even"] == cells[1]["u_even"]


def test_record_of_another_grid_or_ladder_is_refused():
    grid, cfg = PowerLogGrid(0.8), VerdictConfig((10**4, 10**5))
    alpha = ScaledInverseGapsAlpha(grid, 0.5)
    with pytest.raises(ValueError, match="another grid"):
        deficiency_verdict(grid, alpha, cfg, facts=_GridFacts(PowerLogGrid(0.8), cfg))
    with pytest.raises(ValueError, match="another horizon ladder"):
        deficiency_verdict(grid, alpha, cfg, facts=_GridFacts(grid, VerdictConfig((10**4, 2 * 10**5))))


def test_shared_record_prints_what_an_own_record_prints():
    cfg = VerdictConfig((10**4, 10**5))
    phase0 = PowerLogGrid(0.3)  # gaps not square-summable
    grid = PowerLogGrid(0.8)
    cells = {
        "phase-0": (phase0, ScaledInverseGapsAlpha(phase0, -0.5)),
        "carleman": (grid, PowerSumAlpha(terms=((2.0, 2.5, 0.0),))),
        "envelope": (grid, ScaledInverseGapsAlpha(grid, 0.5)),
        "gated": (grid, ScaledInverseGapsAlpha(grid, -2.0)),
        "interior": (grid, ScaledInverseGapsAlpha(grid, -0.5)),
        "oracle": (grid, ScaledInverseGapsAlpha(grid, -1.0)),
    }
    shared = {g: _GridFacts(g, cfg) for g in (phase0, grid)}
    certificates = {}
    for label, (g, alpha) in cells.items():
        own = deficiency_verdict(g, alpha, cfg)
        with_shared = deficiency_verdict(g, alpha, cfg, facts=shared[g])
        assert json.dumps(with_shared.to_json(), sort_keys=True) == json.dumps(own.to_json(), sort_keys=True), label
        certificates[label] = (own.certificate, own.advisory, own.flags, "condition_B" in own.diagnostics)
    # a record whose ladder another reader built first, past B's first probed rows
    ladder_first = _GridFacts(grid, cfg)
    ladder_first.tilde.log_abs(10**4 + 1)
    interior = cells["interior"][1]
    own = deficiency_verdict(grid, interior, cfg)
    with_read_ladder = deficiency_verdict(grid, interior, cfg, facts=ladder_first)
    assert json.dumps(with_read_ladder.to_json(), sort_keys=True) == json.dumps(own.to_json(), sort_keys=True)
    assert certificates == {
        "phase-0": ("non-square-summable-gaps", False, (), False),
        "carleman": ("carleman-series", False, (), False),
        "envelope": ("lower-envelope-bound", False, (), False),
        "gated": ("oracle-growth", True, ("discriminant-at-band-edge",), False),
        "interior": ("periodic-comparison", False, (), True),
        "oracle": ("oracle-ell2", True, ("discriminant-at-band-edge",), True),
    }


def test_battery_interior_verdicts_share_one_B_scan(monkeypatch):
    # checks 8 and 10 read four verdicts on d = 1/n; the two interior
    # couplings, a = -1.5 + 1/n and a = -0.5 + 1/n, each reach B
    calls = []
    scan = deficiency.check_condition_B

    def counted(grid, horizon, **kwargs):
        calls.append(horizon)
        return scan(grid, horizon, **kwargs)

    monkeypatch.setattr(deficiency, "check_condition_B", counted)
    verify._facts.cache_clear()
    verify._inverse_gap_verdicts.cache_clear()
    try:
        cases = verify._inverse_gap_verdicts(10**5)
    finally:
        verify._facts.cache_clear()
        verify._inverse_gap_verdicts.cache_clear()
    assert calls == [10**5]
    assert [v.certificate for *_, v in cases[:2]] == ["periodic-comparison"] * 2


def test_cond_b_scans_the_records_ladder(monkeypatch):
    ladders = []
    scan = deficiency.check_condition_B

    def counted(grid, horizon, **kwargs):
        ladders.append(kwargs.get("tilde"))
        return scan(grid, horizon, **kwargs)

    monkeypatch.setattr(deficiency, "check_condition_B", counted)
    facts = _GridFacts(PowerLogGrid(0.8), VerdictConfig((10**4,)))
    facts.cond_b
    assert len(ladders) == 1 and ladders[0] is facts.tilde


def test_battery_scans_each_grid_once_per_horizon(monkeypatch):
    # the parent design scanned d = 1/n at 10^6 rows three times: checks 2,
    # 8 and 9 each built their own grid and scan
    scans = {}

    def counting(scan):
        def counted(grid, horizon, **kwargs):
            key = (grid.gamma, horizon)
            scans[key] = scans.get(key, 0) + 1
            return scan(grid, horizon, **kwargs)

        return counted

    for module in (deficiency, verify):
        if hasattr(module, "check_condition_B"):
            monkeypatch.setattr(module, "check_condition_B", counting(module.check_condition_B))
    report = verify.run_battery()
    assert report.passed
    assert scans == {(0.6, 10**6): 1, (0.75, 10**6): 1, (1.0, 10**6): 1, (1.0, 10**5): 1, (0.75, 10**5): 1}
    assert verify._facts.cache_info().currsize == 0
