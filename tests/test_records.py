"""Records whose JSON is their fields serialise through numerics.Record.

Each record's to_json() must give the dict that a hand-written field
dump gives (the to_json bodies these classes used to carry), repr for
repr: the same keys in the same order, nan as nan, lists for tuples.
CriterionVerdict and BatteryReport add their properties, so only their
sorted items are compared (the CLI emits JSON with sorted keys).
"""

import math

from deltasa import (
    CustomGrid,
    GFunction,
    GKind,
    JacobiOperator,
    PowerLogGrid,
    PowerSumAlpha,
    ScaledInverseGapsAlpha,
    check_condition_B,
    classify_summability,
    deficiency_verdict,
    l2_probe,
    run_battery,
    solve_recurrence,
    test_bound_III,
)
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
    p = test_bound_III(PowerLogGrid(1.0), alpha, GFunction(GKind.ZERO), 40)
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
            {"criterion": r.criterion, "name": r.name, "passed": r.passed, "details": r.details, "runtime": r.runtime}
            for r in report.results
        ],
    }
    assert repr(sorted(report.to_json().items())) == repr(sorted(want.items()))
