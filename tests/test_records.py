"""Records whose JSON is their fields serialise through numerics.Record.

Each record's to_json() must give the dict that a hand-written field
dump gives (the to_json bodies these classes used to carry), repr for
repr: the same keys in the same order, nan as nan, lists for tuples,
[re, im] for a complex number, "lambda" for a lam field.  SeriesProbe's
body wrote fitted_growth and gate_failed, once fields of their own, as
the first two witnesses; its dump below rebuilds them.
CriterionVerdict and BatteryReport add their properties, so only their
sorted items are compared (the CLI emits JSON with sorted keys).
"""

import math

import pytest

from deltasa import (
    CustomGrid,
    JacobiOperator,
    PeriodPair,
    PowerLogGrid,
    PowerSumAlpha,
    ScaledInverseGapsAlpha,
    check_condition_B,
    classify_summability,
    deficiency_verdict,
    floquet_discriminant,
    l2_probe,
    run_battery,
    solve_recurrence,
    test_bound_III,
    test_carleman_i,
)
from deltasa.criteria import _growth_description, check_condition_A, test_condition_I
from deltasa.deficiency import VerdictConfig


def bound_dump(p):
    return {
        "test": p.test,
        "params": p.params,
        "horizon": p.horizon,
        "minimal_constant": p.minimal_constant,
        "window_sups": list(p.window_sups),
        "drift": p.drift,
        "holds": p.holds.value,
        "witnesses": p.witnesses,
    }


def condition_B_dump(c):
    return {
        "u": c.u.to_json(),
        "residual_order": c.residual_order,
        "holds": c.holds.value,
        "window_sups": list(c.window_sups),
        "horizon": c.horizon,
        "witnesses": c.witnesses,
    }


def summability_dump(s):
    return {
        "in_ell1": s.in_ell1.value,
        "in_ell2": s.in_ell2.value,
        "method": s.method,
        "diagnostics": s.diagnostics,
    }


def l2_dump(v):
    return {
        "classification": v.classification,
        "decay_ratio": v.decay_ratio,
        "block_norms": [[k, m] for k, m in v.block_norms],
        "margin": v.margin,
        "window": v.window,
        "notes": v.notes,
    }


def series_dump(p, gate_failed):
    rest = {k: v for k, v in p.witnesses.items() if k not in ("fitted_growth", "gate_failed")}
    return {
        "test": p.test,
        "params": p.params,
        "checkpoints": [[n, s] for n, s in p.checkpoints],
        "verdict": p.verdict.value,
        "witnesses": {
            "fitted_growth": _growth_description(list(p.checkpoints)),
            "gate_failed": gate_failed,
        }
        | rest,
    }


def period_pair_dump(u):
    return {"odd": u.odd, "even": u.even, "product": u.product}


def floquet_dump(f):
    return {
        "u": period_pair_dump(f.u),
        "a": f.a,
        "lambda": f.lam,
        "discriminant": f.discriminant,
        "inside_band": f.inside_band.value,
    }


def solution_dump(s):
    lam = s.lam
    return {
        "lambda": [lam.real, lam.imag] if isinstance(lam, complex) else lam,
        "horizon": s.horizon,
        "head": [
            [v.real, v.imag] if isinstance(v, complex) else float(v)
            for v in s.head[: min(len(s.head), 16)].tolist()
        ],
        "block_log_masses": [[k, m] for k, m in s.block_log_masses],
        "scale_events": s.scale_events,
        "residual_max": s.residual_max,
        "meta": s.meta,
    }


def verdict_dump(v):
    return {
        "verdict": v.verdict.value,
        "n_plus": v.n_plus,
        "n_minus": v.n_minus,
        "certificate": v.certificate,
        "advisory": v.advisory,
        "provenance": v.provenance,
        "flags": list(v.flags),
        "diagnostics": v.diagnostics,
    }


def test_bound_probe_below_the_windows():
    alpha = PowerSumAlpha(terms=((1.0, 1.0, 0.0),))
    p = test_bound_III(PowerLogGrid(1.0), alpha, 40)
    assert math.isnan(p.drift)
    assert repr(p.to_json()) == repr(bound_dump(p))


def test_condition_B():
    c = check_condition_B(PowerLogGrid(0.75), 1024)
    assert repr(c.to_json()) == repr(condition_B_dump(c))


def test_partial_sums_summability():
    s = classify_summability(CustomGrid(lambda n: 1.0 / n))
    assert s.method == "partial-sums"
    assert repr(s.to_json()) == repr(summability_dump(s))


def test_l2_verdicts():
    grid = PowerLogGrid(1.0)
    op = JacobiOperator(grid, ScaledInverseGapsAlpha(grid, -0.5))
    for rows in (64, 1 << 12):
        v = l2_probe(solve_recurrence(op, 1j, rows))
        assert repr(v.to_json()) == repr(l2_dump(v))


def test_records_with_properties():
    grid = PowerLogGrid(1.0)
    v = deficiency_verdict(grid, ScaledInverseGapsAlpha(grid, -0.5), VerdictConfig((10**4,)))
    assert repr(sorted(v.to_json().items())) == repr(sorted(verdict_dump(v).items()))
    report = run_battery("ratio-scaling", 10**4)
    want = {
        "horizon": report.horizon,
        "passed": report.passed,
        "results": [
            {"criterion": r.criterion, "name": r.name, "passed": r.passed, "details": r.details}
            for r in report.results
        ],
    }
    assert repr(sorted(report.to_json().items())) == repr(sorted(want.items()))


def test_series_probes():
    grid = PowerLogGrid(0.75)
    probes = [
        (test_carleman_i(grid, ScaledInverseGapsAlpha(grid, -0.5), (10**3, 10**4)), False),
        (test_condition_I(grid, PowerSumAlpha(((1.0, 2.0, 0.0),)), (10**4,)), False),
        (test_condition_I(PowerLogGrid(1.2), PowerSumAlpha(((1.0, 2.0, 0.0),)), (10**3, 10**4)), True),
        (check_condition_A(grid, (10**3, 10**4)), False),
    ]
    for p, gate_failed in probes:
        assert repr(p.to_json()) == repr(series_dump(p, gate_failed))


def test_period_pair_and_floquet_result():
    u = PeriodPair(odd=1.5, even=0.25)
    assert repr(u.to_json()) == repr(period_pair_dump(u))
    f = floquet_discriminant(u, -0.5)
    assert repr(f.to_json()) == repr(floquet_dump(f))


@pytest.mark.parametrize("a,lam", [(0.75, 1j), (4.25, 0.0)], ids=["complex", "real"])
def test_recurrence_solutions_with_a_rescale(a, lam):
    grid = PowerLogGrid(1.0)
    sol = solve_recurrence(JacobiOperator(grid, ScaledInverseGapsAlpha(grid, a)), lam, 2000)
    assert sol.scale_events > 0
    assert repr(sol.to_json()) == repr(solution_dump(sol))
