"""Acceptance battery: the ten reproduction checks, one test per
criterion, each printing its pass/fail line.

The battery runs once per session at the horizon from
DELTA_SPEC_HORIZON (default 10^6) and the individual tests assert both
the outcome and, where the contract pins one, the runtime budget.  The
whole suite must stay under a minute single-threaded.
"""

import os

import pytest

from deltasa import run_battery

# the battery's contract: ten checks, in this order
CHECK_NAMES = (
    "wallis-parity",
    "period-product",
    "ratio-scaling",
    "f-limits",
    "f-over-gap",
    "expansion-remainder",
    "zero-energy-decay",
    "verdict-phases",
    "scaling-identity",
    "oracle-agreement",
)

HORIZON = int(os.environ.get("DELTA_SPEC_HORIZON", str(10**6)))


@pytest.fixture(scope="module")
def battery():
    return run_battery(horizon=HORIZON)


def check(battery, criterion):
    result = battery.results[criterion - 1]
    print(result.line())
    assert result.criterion == criterion
    assert result.name == CHECK_NAMES[criterion - 1]
    assert result.passed, result.line()
    return result


def test_criterion_01_wallis_parity(battery):
    r = check(battery, 1)
    assert r.runtime < 1.0


def test_criterion_02_period_product(battery):
    r = check(battery, 2)
    # budget: five seconds per gap exponent, three exponents
    assert r.runtime < 15.0


def test_criterion_03_ratio_scaling(battery):
    check(battery, 3)


def test_criterion_04_f_limits(battery):
    check(battery, 4)


def test_criterion_05_f_over_gap(battery):
    check(battery, 5)


def test_criterion_06_expansion_remainder(battery):
    check(battery, 6)


def test_criterion_07_zero_energy_decay(battery):
    r = check(battery, 7)
    assert r.runtime < 2.0


def test_criterion_08_verdict_phases(battery):
    check(battery, 8)


def test_criterion_09_scaling_identity(battery):
    check(battery, 9)


def test_criterion_10_oracle_agreement(battery):
    check(battery, 10)


def test_battery_summary(battery):
    assert battery.passed
    assert len(battery.results) == 10
    summary = battery.lines()[-1]
    print(summary)
    assert summary.startswith("10/10 checks passed")
    total = sum(r.runtime for r in battery.results)
    assert total < 60.0, f"battery took {total:.1f}s"
