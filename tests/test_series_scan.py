"""The coupling series probes, and the series work a verdict does.

carleman-i and condition I each make their own scan.  The references
below are the two probes' scans kept verbatim; both probes must
serialise to the same bytes as their reference.  A verdict reads only
carleman-i, to the first rung of its ladder: it keeps no condition-I
record and takes condition A from the gaps' l2 class.  A grid that
counts the gap rows it serves, and counters on the gap statistics and
the oracle march, pin how much work a verdict does.
"""

import itertools
import json
import math

import numpy as np
import pytest

from deltasa import (
    ConstantGrid,
    CustomAlpha,
    CustomGrid,
    ExplicitAlpha,
    ExplicitGrid,
    PowerLogGrid,
    PowerSumAlpha,
    ScaledInverseGapsAlpha,
    VerdictConfig,
    check_condition_A,
    deficiency_verdict,
    test_carleman_i,
    test_condition_I,
)
from deltasa import criteria, deficiency
from deltasa.criteria import SeriesProbe, _cubed_gap_verdict, _growth_description
from deltasa.grid import classify_summability, ratio_stats
from deltasa.numerics import HORIZONS, WINDOW_CAP, ChunkedSum, TriState, blocks


def _reference_stream(term_block, horizons):
    acc = ChunkedSum()
    checkpoints = []
    prev = 1
    for h in horizons:
        for a, b in blocks(prev, h + 1):
            acc.add_array(term_block(a, b))
        checkpoints.append((h, acc.total()))
        prev = h + 1
    return checkpoints


def reference_carleman_i(grid, alpha, hs):
    def term_block(a, b):
        lo = max(a - 1, 1)
        d = grid.gaps(lo, b + 2)
        idx = a - lo
        dn = d[idx : idx + (b - a)]
        dn1 = d[idx + 1 : idx + 1 + (b - a)]
        dn2 = d[idx + 2 : idx + 2 + (b - a)]
        if a >= 2:
            r_prev = np.sqrt(d[idx - 1 : idx - 1 + (b - a)] + dn)
        else:
            r_prev = np.empty(b - a)
            r_prev[0] = 1.0
            if b > 2:
                r_prev[1:] = np.sqrt(d[0 : b - 2] + d[1 : b - 1])
        return np.abs(alpha.alphas(a, b)) * dn * dn1 * r_prev * np.sqrt(dn1 + dn2)

    checkpoints = _reference_stream(term_block, hs)
    verdict, analytic = _cubed_gap_verdict(grid, alpha)
    witnesses = {"fitted_growth": _growth_description(checkpoints), "gate_failed": False}
    if analytic is not None:
        witnesses["analytic"] = analytic
    return SeriesProbe(
        test="carleman-i",
        params={"grid": grid.describe(), "alpha": alpha.describe()},
        checkpoints=tuple(checkpoints),
        verdict=verdict,
        witnesses=witnesses,
    )


def reference_condition_I(grid, alpha, hs):
    def term_block(a, b):
        d = grid.gaps(a, b)
        return np.abs(alpha.alphas(a, b)) * d**3

    checkpoints = _reference_stream(term_block, hs)
    stats = ratio_stats(grid, min(hs[-1], WINDOW_CAP))
    summ = classify_summability(grid)
    gate_failed = not (
        stats.min_ratio > 1e-6
        and summ.in_ell2 is TriState.TRUE
        and summ.in_ell1 is TriState.FALSE
    )
    verdict, analytic = _cubed_gap_verdict(grid, alpha)
    witnesses = {
        "fitted_growth": _growth_description(checkpoints),
        "gate_failed": gate_failed,
        "ratio_stats": stats.to_json(),
        "summability": summ.to_json(),
    }
    if isinstance(analytic, dict):
        witnesses["analytic"] = analytic
    return SeriesProbe(
        test="condition-I",
        params={"grid": grid.describe(), "alpha": alpha.describe()},
        checkpoints=tuple(checkpoints),
        verdict=verdict,
        witnesses=witnesses,
    )


GRIDS = {
    "power-0.6": lambda: PowerLogGrid(0.6),
    "power-1": lambda: PowerLogGrid(1.0),
    "power-eta": lambda: PowerLogGrid(0.75, 0.3),
    "constant": lambda: ConstantGrid(0.5),
    "explicit": lambda: ExplicitGrid(values=(0.5, 0.25, 1.0), tail="cycle"),
    "custom": lambda: CustomGrid(lambda n: (1.0 if n % 2 else 2.0) / n),
}

COUPLINGS = {
    "critical": lambda g: ScaledInverseGapsAlpha(g, -0.5),
    "perturbed": lambda g: ScaledInverseGapsAlpha(g, -1.5, perturbation=PowerSumAlpha(((1.0, -1.0, 0.0),))),
    "power-sum": lambda g: PowerSumAlpha(((1.0, 2.0, 0.0), (-0.5, 0.5, 1.0))),
    "zero": lambda g: PowerSumAlpha(((0.0, 0.0, 0.0),)),
    "explicit": lambda g: ExplicitAlpha(values=(-1.0, 2.0, 0.5), tail="cycle"),
    "custom": lambda g: CustomAlpha(fn=lambda n: math.sin(n) * n, name="opaque"),
}

LADDERS = [(256,), (10**4,), (10**3, 40000)]


def _bytes(probe):
    return json.dumps(probe.to_json())


@pytest.mark.parametrize("ladder", LADDERS, ids=str)
@pytest.mark.parametrize("coupling", list(COUPLINGS))
@pytest.mark.parametrize("grid", list(GRIDS))
def test_probes_match_their_own_scans(grid, coupling, ladder):
    g = GRIDS[grid]()
    alpha = COUPLINGS[coupling](g)
    assert _bytes(test_carleman_i(g, alpha, ladder)) == _bytes(reference_carleman_i(g, alpha, ladder))
    assert _bytes(test_condition_I(g, alpha, ladder)) == _bytes(reference_condition_I(g, alpha, ladder))


class _CountingGrid(PowerLogGrid):
    """PowerLogGrid that counts the rows its gaps() and log_gaps() serve.

    gaps() and gaps_and_logs() evaluate their rows through log_gaps(), so
    rows[1] counts every row the grid evaluates.
    """

    def gaps(self, lo, hi):
        self.rows[0] += hi - lo
        return super().gaps(lo, hi)

    def log_gaps(self, lo, hi):
        self.rows[1] += hi - lo
        return super().log_gaps(lo, hi)


def _verdict_rows(alpha_for, cfg):
    """The verdict, its gaps() rows and its log_gaps() rows on a counting PowerLogGrid(0.8)."""
    grid = _CountingGrid(0.8)
    object.__setattr__(grid, "rows", [0, 0])
    v = deficiency_verdict(grid, alpha_for(grid), cfg)
    return v, *grid.rows


def _verdict_gap_rows(alpha_for):
    v, rows, _ = _verdict_rows(alpha_for, VerdictConfig((10**4, 10**5)))
    return v, rows


def test_outside_verdict_reads_the_coupling_series_once():
    # carleman-i's first rung reads 10,002 gap rows here and the bounds
    # 50,004; condition I's gate read 50,003 more for its gap ratios
    v, rows = _verdict_gap_rows(lambda g: ScaledInverseGapsAlpha(g, 0.5))
    assert v.certificate == "lower-envelope-bound"
    assert "condition_I" not in v.diagnostics
    assert rows <= 60_006


def test_carleman_verdict_reads_only_carleman_rows():
    v, rows = _verdict_gap_rows(lambda g: PowerSumAlpha(((1.0, 2.0, 0.0),)))
    assert v.certificate == "carleman-series"
    assert "condition_I" not in v.diagnostics
    assert rows <= 100_011


# Rows a verdict evaluates at the default ladder (10^4, 10^5, 10^6).  The
# phase-1 series and condition A's partial sums stop at 10^4, so
# condition B is the only scan that reaches 10^6.  With full-ladder
# series these verdicts evaluated 4,308,124, 2,450,142 and 1,000,095 rows.
@pytest.mark.parametrize(
    "alpha_for,certificate,limit",
    [
        (lambda g: ScaledInverseGapsAlpha(g, -0.5), "periodic-comparison", 2_500_000),
        (lambda g: ScaledInverseGapsAlpha(g, 0.5), "lower-envelope-bound", 500_000),
        (lambda g: PowerSumAlpha(((1.0, 2.0, 0.0),)), "carleman-series", 20_000),
    ],
    ids=["interior", "outside", "carleman"],
)
def test_default_ladder_verdict_rows(alpha_for, certificate, limit):
    v, _, rows = _verdict_rows(alpha_for, VerdictConfig())
    assert v.certificate == certificate
    assert rows < limit


def _without_growth(record):
    """A series record less what depends on how many checkpoints it holds."""
    w = {k: v for k, v in record["witnesses"].items() if k != "fitted_growth"}
    return {k: v for k, v in record.items() if k != "checkpoints"} | {"witnesses": w}


# flat and cyclic gaps are not square-summable, so those verdicts stop in phase 0
PHASE_1_GRIDS = [g for g in GRIDS if g not in ("constant", "explicit")]


@pytest.mark.parametrize(
    "grid,coupling,ladder",
    [(g, c, (10**3, 40000)) for g in PHASE_1_GRIDS for c in COUPLINGS]
    + [("power-1", c, HORIZONS) for c in ("critical", "perturbed", "zero")],
    ids=str,
)
def test_verdict_series_stop_at_the_first_rung(grid, coupling, ladder):
    g = GRIDS[grid]()
    alpha = COUPLINGS[coupling](g)
    diagnostics = deficiency_verdict(g, alpha, VerdictConfig(ladder)).diagnostics
    assert "condition_I" not in diagnostics
    record, full = diagnostics["carleman_i"], test_carleman_i(g, alpha, ladder).to_json()
    assert len(record["checkpoints"]) == 1
    (n, s), (n_full, s_full) = record["checkpoints"][0], full["checkpoints"][0]
    assert n == n_full == ladder[0]
    assert np.float64(s).tobytes() == np.float64(s_full).tobytes()
    assert record["verdict"] == full["verdict"]
    assert record["witnesses"]["fitted_growth"] == "single checkpoint"
    assert _without_growth(record) == _without_growth(full)


def test_condition_A_verdict_matches_its_scan():
    # the verdict reads condition A from the gaps' l2 class; the
    # standalone probe takes it from a closed form or leaves it unknown,
    # as on a custom grid whose gap ratios are flat enough for phase 3
    grids = {g: GRIDS[g] for g in PHASE_1_GRIDS} | {"custom-flat": lambda: CustomGrid(lambda n: n**-0.8)}
    ladder = (10**3, 40000)
    reached = {}
    for grid, coupling in itertools.product(grids, COUPLINGS):
        g = grids[grid]()
        diagnostics = deficiency_verdict(g, COUPLINGS[coupling](g), VerdictConfig(ladder)).diagnostics
        if "condition_A" in diagnostics:
            record = diagnostics["condition_A"]
            assert "checkpoints" not in record
            reached[grid, coupling] = record["verdict"]
            assert record["verdict"] == check_condition_A(g, ladder).verdict.value, (grid, coupling)
    # the scaled-gap couplings on every grid with flat gap ratios
    assert set(reached) == {(g, c) for g in grids if g != "custom" for c in ("critical", "perturbed")}
    assert set(reached.values()) == {"converges", "unknown"}


def _counted(monkeypatch, calls, module, name):
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def _verdict_calls(monkeypatch, names, g, alpha):
    calls = dict.fromkeys(names, 0)
    for module in (criteria, deficiency):
        for name in calls:
            if hasattr(module, name):
                _counted(monkeypatch, calls, module, name)
    return deficiency_verdict(g, alpha, VerdictConfig((10**3, 40000))), calls


@pytest.mark.parametrize("grid", ["power-0.6", "custom"])
def test_verdict_reads_the_gap_statistics_once(monkeypatch, grid):
    # phase 3 reads the summability class of phase 0 and one gap-ratio window
    g = GRIDS[grid]()
    names = ("classify_summability", "ratio_stats")
    v, calls = _verdict_calls(monkeypatch, names, g, ScaledInverseGapsAlpha(g, -0.5))
    assert "condition_I" not in v.diagnostics and "ratio_stats" in v.diagnostics
    assert calls == {"classify_summability": 1, "ratio_stats": 1}


def test_envelope_verdict_reads_no_gap_ratios(monkeypatch):
    g = PowerLogGrid(0.8)
    v, calls = _verdict_calls(monkeypatch, ("ratio_stats",), g, ScaledInverseGapsAlpha(g, 0.5))
    assert v.certificate == "lower-envelope-bound"
    assert calls == {"ratio_stats": 0}


def test_oracle_verdict_marches_once(monkeypatch):
    g = PowerLogGrid(0.8)
    v, calls = _verdict_calls(monkeypatch, ("solve_recurrence",), g, COUPLINGS["explicit"](g))
    assert v.advisory
    assert [k for k in v.diagnostics if k.startswith("oracle_lambda")] == ["oracle_lambda_+1i"]
    assert calls == {"solve_recurrence": 1}
