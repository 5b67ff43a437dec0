"""Phase 1 scans the coupling series once.

carleman-i and condition I read each block's gaps and couplings from one
scan.  The references below are the two probes as they were when each
made its own scan, kept verbatim; both probes must serialise to the same
bytes as their reference.  A grid that counts the gap rows it serves
pins how many rows a verdict reads.
"""

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
    witnesses = {} if analytic is None else {"analytic": analytic}
    return SeriesProbe(
        test="carleman-i",
        params={"grid": grid.describe(), "alpha": alpha.describe()},
        checkpoints=tuple(checkpoints),
        fitted_growth=_growth_description(checkpoints),
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
    witnesses = {"ratio_stats": stats.to_json(), "summability": summ.to_json()}
    if isinstance(analytic, dict):
        witnesses["analytic"] = analytic
    return SeriesProbe(
        test="condition-I",
        params={"grid": grid.describe(), "alpha": alpha.describe()},
        checkpoints=tuple(checkpoints),
        fitted_growth=_growth_description(checkpoints),
        verdict=verdict,
        gate_failed=gate_failed,
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
    # carleman-i's scan alone reads 100,011 gap rows here and condition
    # I's own scan read 200,004 more (its gaps and the coupling's)
    v, rows = _verdict_gap_rows(lambda g: ScaledInverseGapsAlpha(g, 0.5))
    assert "condition_I" in v.diagnostics
    assert rows < 300_000


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


# the verdict's records of the full-ladder probes, and the probe that wrote each
_SERIES_RECORDS = {
    "carleman_i": test_carleman_i,
    "condition_I": test_condition_I,
    "condition_A": lambda g, alpha, hs: check_condition_A(g, hs),
}


def _without_growth(record):
    """A series record less what depends on how many checkpoints it holds."""
    w = {k: v for k, v in record["witnesses"].items() if k not in ("fitted_growth", "tail_mass")}
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
    assert "carleman_i" in diagnostics
    for key, probe in _SERIES_RECORDS.items():
        if key not in diagnostics:
            continue
        record, full = diagnostics[key], probe(g, alpha, ladder).to_json()
        assert len(record["checkpoints"]) == 1
        (n, s), (n_full, s_full) = record["checkpoints"][0], full["checkpoints"][0]
        assert n == n_full == ladder[0]
        assert np.float64(s).tobytes() == np.float64(s_full).tobytes()
        assert record["verdict"] == full["verdict"]
        assert record["witnesses"]["fitted_growth"] == "single checkpoint"
        assert _without_growth(record) == _without_growth(full)


def _counted(monkeypatch, calls, module, name):
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


@pytest.mark.parametrize("grid", ["power-0.6", "custom"])
def test_verdict_reads_the_gap_statistics_once(monkeypatch, grid):
    # condition I's gate and phase 3 read the verdict's one summability
    # class and one gap-ratio window
    calls = {"classify_summability": 0, "ratio_stats": 0}
    for module in (criteria, deficiency):
        for name in calls:
            _counted(monkeypatch, calls, module, name)
    g = GRIDS[grid]()
    v = deficiency_verdict(g, ScaledInverseGapsAlpha(g, -0.5), VerdictConfig((10**3, 40000)))
    assert "condition_I" in v.diagnostics and "ratio_stats" in v.diagnostics
    assert calls == {"classify_summability": 1, "ratio_stats": 1}
