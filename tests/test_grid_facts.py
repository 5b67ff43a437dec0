"""One record of a grid's facts: every verdict on a grid object shares its scans.

deficiency._GridFacts holds what a verdict reads of the grid alone, each
scan computed on first read, and _GridFacts.of(grid, cfg) is the grid
object's one record per horizon ladder, kept beside its tilde ladder,
grid.tilde, which condition B scans.  Verdicts on one grid object read one
condition-B scan, and equal but distinct objects scan again; the sweep's
columns and verdicts read one record per grid however many couplings it
holds; the battery reads each d = n^-gamma grid through one grid object
per top horizon; and a verdict prints the same bytes on a grid object
that earlier verdicts or readers scanned as on a fresh one.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from deltasa import (
    AlphaZeroAlpha,
    ConstantGrid,
    ExplicitGrid,
    PowerLogGrid,
    PowerSumAlpha,
    ScaledInverseGapsAlpha,
    TildeSequence,
    check_condition_B,
    cli,
    deficiency,
    rho,
    verify,
)
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


def test_verdicts_on_one_grid_object_read_one_B_scan(monkeypatch):
    # the parent design scanned B in each of these verdicts
    calls = []
    scan = deficiency.check_condition_B

    def counted(grid, horizon, **kwargs):
        calls.append(grid)
        return scan(grid, horizon, **kwargs)

    monkeypatch.setattr(deficiency, "check_condition_B", counted)
    grid = PowerLogGrid(0.8)
    verdicts = [deficiency_verdict(grid, ScaledInverseGapsAlpha(grid, a)) for a in (-0.5, -1.5, -0.3)]
    assert [v.certificate for v in verdicts] == ["periodic-comparison"] * 3
    assert calls == [grid] and calls[0] is grid
    # equal but distinct grid objects each scan their own
    for a in (-0.5, -1.5, -0.3):
        fresh = PowerLogGrid(0.8)
        deficiency_verdict(fresh, ScaledInverseGapsAlpha(fresh, a))
        assert calls[-1] is fresh
    assert len(calls) == 4


def test_each_ladder_reads_its_own_record():
    # a grid object keeps one record per horizon ladder, keyed by the ladder
    grid, cfg = PowerLogGrid(0.8), VerdictConfig((10**4, 10**5))
    facts = _GridFacts.of(grid, cfg)
    assert facts.grid is grid and facts.cfg is cfg
    assert _GridFacts.of(grid, VerdictConfig((10**4, 10**5))) is facts
    other = _GridFacts.of(grid, VerdictConfig((10**4, 2 * 10**5)))
    assert other is not facts and other.cfg.horizons == (10**4, 2 * 10**5)
    assert _GridFacts.of(PowerLogGrid(0.8), cfg) is not facts


def test_shared_record_prints_what_an_own_record_prints():
    cfg = VerdictConfig((10**4, 10**5))
    cells = {
        "phase-0": (0.3, lambda g: ScaledInverseGapsAlpha(g, -0.5)),  # gaps not square-summable
        "carleman": (0.8, lambda g: PowerSumAlpha(terms=((2.0, 2.5, 0.0),))),
        "envelope": (0.8, lambda g: ScaledInverseGapsAlpha(g, 0.5)),
        "gated": (0.8, lambda g: ScaledInverseGapsAlpha(g, -2.0)),
        "interior": (0.8, lambda g: ScaledInverseGapsAlpha(g, -0.5)),
        "oracle": (0.8, lambda g: ScaledInverseGapsAlpha(g, -1.0)),
    }
    shared = {gamma: PowerLogGrid(gamma) for gamma in (0.3, 0.8)}
    certificates = {}
    for label, (gamma, make) in cells.items():
        # the shared grid object's record holds every scan the cells before this one ran
        with_shared = deficiency_verdict(shared[gamma], make(shared[gamma]), cfg)
        fresh = PowerLogGrid(gamma)
        own = deficiency_verdict(fresh, make(fresh), cfg)
        assert json.dumps(with_shared.to_json(), sort_keys=True) == json.dumps(own.to_json(), sort_keys=True), label
        certificates[label] = (own.certificate, own.advisory, own.flags, "condition_B" in own.diagnostics)
    # a grid whose ladder another reader built first, past B's first probed
    # rows, against an equal grid whose ladder the verdict builds
    ladder_first, cold = PowerLogGrid(0.8), PowerLogGrid(0.8)
    ladder_first.tilde.log_abs(10**4 + 1)
    own = deficiency_verdict(cold, ScaledInverseGapsAlpha(cold, -0.5), cfg)
    with_read_ladder = deficiency_verdict(ladder_first, ScaledInverseGapsAlpha(ladder_first, -0.5), cfg)
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
    # the record's ladder is its grid's own: the record holds none
    ladders = []
    block = TildeSequence.log_abs_block

    def counted(self, *args, **kwargs):
        ladders.append(self)
        return block(self, *args, **kwargs)

    monkeypatch.setattr(TildeSequence, "log_abs_block", counted)
    facts = _GridFacts.of(PowerLogGrid(0.8), VerdictConfig((10**4,)))
    facts.cond_b
    assert ladders and all(t is facts.grid.tilde for t in ladders)


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


def test_one_ladder_per_grid_object(monkeypatch):
    # the parent design built a ladder in every call that was not handed one
    built = []
    init = TildeSequence.__init__

    def counted(self, grid):
        built.append(grid)
        init(self, grid)

    monkeypatch.setattr(TildeSequence, "__init__", counted)
    grid = PowerLogGrid(0.8)
    for n in (5, 5, 4097, 10**4 + 1):
        rho(grid, n)
    verdict = deficiency_verdict(grid, ScaledInverseGapsAlpha(grid, -0.5), VerdictConfig((10**4,)))
    assert "condition_B" in verdict.diagnostics
    u = check_condition_B(grid, 10**4).u
    alpha0 = AlphaZeroAlpha(grid, -0.5, u)
    alpha0.alpha(7)
    alpha0.alphas(1, 100)
    assert built == [grid]
    # an equal grid object holds a ladder of its own
    PowerLogGrid(0.8).tilde
    assert len(built) == 2


@pytest.mark.parametrize(
    "make",
    [lambda: PowerLogGrid(0.8, 0.3, 1.3), lambda: ConstantGrid(0.7), lambda: ExplicitGrid((0.5, 1.25, 0.8))],
    ids=["power-log", "constant", "explicit"],
)
def test_a_read_ladder_leaves_value_semantics_alone(make):
    grid, fresh = make(), make()
    before = (hash(grid), repr(grid), grid.describe(), dataclasses.fields(grid))
    grid.tilde.log_abs(10**4)
    _GridFacts.of(grid, VerdictConfig((10**4,))).cond_b  # the grid's record, kept beside its ladder
    assert (hash(grid), repr(grid), grid.describe(), dataclasses.fields(grid)) == before
    assert grid == fresh and hash(grid) == hash(fresh) and repr(grid) == repr(fresh)
    copy = dataclasses.replace(grid)
    assert copy == grid and "tilde" not in vars(copy) and "_grid_facts" not in vars(copy)
