"""Reproduction battery: ten numbered checks with explicit tolerances.

Each check re-derives one quantitative claim about the gap families and
couplings this package handles, compares against an independently
computed expectation, and returns (passed, detail lines).  run_battery
numbers, names, times and budgets every check from the one table
_CHECKS; it is what the CLI's verify subcommand and the acceptance
tests call.

Tolerances are stated at the default horizon 10^6.  A smaller horizon
loosens them by the documented schedule below (each check names its
scale factor); the checks themselves are horizon-independent claims.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .criteria import (
    _bound_probe,
    expansion_remainder_block,
    f_over_d_probe,
    verify_G_limits,
)
from .deficiency import (
    VerdictConfig,
    VerdictKind,
    _GridFacts,
    _oracle_rows,
    deficiency_verdict,
    floquet_discriminant,
    l2_probe,
    solve_recurrence,
)
from .grid import PowerLogGrid
from .jacobi import (
    AlphaZeroAlpha,
    JacobiOperator,
    PowerSumAlpha,
    ScaledInverseGapsAlpha,
    rho,
    scaled_operator,
)
from .numerics import DRIFT_TOL, WINDOW_CAP, Record, TriState, tail_windows

__all__ = ["CheckResult", "BatteryReport", "run_battery"]

@dataclass
class CheckResult(Record):
    criterion: int
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)
    runtime: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        summary = self.details[0] if self.details else ""
        return f"[{status}] {self.criterion:2d} {self.name}: {summary}"

    def to_json(self) -> dict:
        # the wall time changes run to run: a report states it only in details, when over budget
        return {k: v for k, v in super().to_json().items() if k != "runtime"}


@dataclass
class BatteryReport(Record):
    results: list[CheckResult]
    horizon: int

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = [r.line() for r in self.results]
        n_pass = sum(r.passed for r in self.results)
        out.append(f"{n_pass}/{len(self.results)} checks passed at horizon {self.horizon}")
        return out

    def to_json(self) -> dict:
        return super().to_json() | {"passed": self.passed}


def _assert_close(details: list, label: str, measured: float, expected: float, tol: float) -> bool:
    err = abs(measured - expected)
    ok = err <= tol
    details.append(
        f"{label}: measured={measured:.10g} expected={expected:.10g} "
        f"err={err:.3g} tol={tol:.3g} {'ok' if ok else 'VIOLATED'}"
    )
    return ok


@functools.lru_cache(maxsize=None)
def _facts(gamma: float, top: int) -> _GridFacts:
    """The record of the battery's d = n^-gamma grid object at VerdictConfig.up_to(top); run_battery clears them."""
    return _GridFacts.of(PowerLogGrid(gamma, 0.0, 1.0), VerdictConfig.up_to(top))


def _check_1_wallis(H: int) -> tuple[bool, list[str]]:
    """Parity limits of rho_n for d = 1/n: odd -> pi, even -> 4/pi."""
    f = _facts(1.0, H)
    n = 10**4
    details: list[str] = []
    ok = _assert_close(details, "rho(10001) vs pi", rho(f.grid, n + 1), math.pi, 1e-3)
    ok &= _assert_close(details, "rho(10000) vs 4/pi", rho(f.grid, n), 4.0 / math.pi, 1e-3)
    return ok, details


def _check_2_product(H: int) -> tuple[bool, list[str]]:
    """u_odd * u_even = 4 for d = n^-gamma, gamma in {0.6, 0.75, 1.0}."""
    tol = 1e-4 * max(1.0, (10**6 / H)) ** 1.2
    details: list[str] = []
    ok = True
    for gamma in (0.6, 0.75, 1.0):
        ok &= _assert_close(details, f"gamma={gamma} product", _facts(gamma, H).cond_b.u.product, 4.0, tol)
    return ok, details


def _check_3_ratio_scaling(H: int) -> tuple[bool, list[str]]:
    """(n^g + (n+1)^g)/(2n+1)^g approaches 2^{1-g} at rate n^-2, g = 0.75."""
    g = 0.75
    lo, hi = 10**3, min(WINDOW_CAP, H)
    ns = np.arange(lo, hi + 1, dtype=float)
    vals = np.abs((ns**g + (ns + 1.0) ** g) / (2.0 * ns + 1.0) ** g - 2.0 ** (1.0 - g)) * ns**2
    worst = float(np.max(vals))
    details: list[str] = []
    ok = worst <= 2.0
    details.append(
        f"sup |ratio - 2^(1-g)| n^2 over [{lo},{hi}]: measured={worst:.6g} bound=2 "
        f"{'ok' if ok else 'VIOLATED'}"
    )
    return ok, details


def _check_4_f_limits(H: int) -> tuple[bool, list[str]]:
    """Extrapolated limits of F for gaps 1/(n ln^eta n)."""
    scale = (math.log(10**6) / math.log(max(H, 100))) ** 2
    details: list[str] = []
    ok = True
    for eta in (0.6, 0.8, 1.0):
        gl = verify_G_limits(PowerLogGrid(1.0, eta, 1.0), H)
        ok &= _assert_close(details, f"eta={eta} L1", gl.L1, 0.25, 0.01 * scale)
        ok &= _assert_close(details, f"eta={eta} L2", gl.L2, eta, 0.02 * scale)
    gl = verify_G_limits(PowerLogGrid(1.0, 0.4, 1.0), H)
    ok &= _assert_close(details, "eta=0.4 L3", gl.L3, 0.0, 0.02 * scale)
    gl = verify_G_limits(PowerLogGrid(1.0, 1.0, 1.0), H)
    ok &= _assert_close(details, "eta=1.0 L3", gl.L3, 0.25, 0.02 * scale)
    return ok, details


def _check_5_f_over_gap(H: int) -> tuple[bool, list[str]]:
    """sup F/d window-stable on three bounded families, growing on (1, 0.5)."""
    hi = min(WINDOW_CAP, H)
    details: list[str] = []
    ok = True
    for gamma, eta in ((0.6, 0.0), (0.75, 3.0), (1.0, -1.0)):
        p = f_over_d_probe(PowerLogGrid(gamma, eta, 1.0), 10**3, hi)
        good = p.holds is TriState.TRUE and math.isfinite(p.minimal_constant)
        ok &= good
        details.append(
            f"({gamma},{eta}): sup={p.minimal_constant:.6g} drift={p.drift:+.4f} "
            f"stable={p.holds.value} {'ok' if good else 'VIOLATED'}"
        )
    p = f_over_d_probe(PowerLogGrid(1.0, 0.5, 1.0), 10**3, hi)
    good = p.holds is TriState.FALSE
    ok &= good
    details.append(f"(1.0,0.5): drift={p.drift:+.4f} growth detected={good} {'ok' if good else 'VIOLATED'}")
    return ok, details


def _check_6_remainder(H: int) -> tuple[bool, list[str]]:
    """|F minus its 3-term expansion| n^2 ln^2 n window-stable for gaps 1/(n ln n)."""
    grid = PowerLogGrid(1.0, 1.0, 1.0)
    hi = min(WINDOW_CAP, H)
    (w1a, _), _ = tail_windows(hi)

    def scaled_remainder(lo: int, h: int) -> np.ndarray:
        ns = np.arange(lo, h, dtype=float)
        rem = np.abs(expansion_remainder_block(grid, lo, h, 3))
        return rem * ns**2 * np.log(ns) ** 2

    p = _bound_probe("expansion-remainder", {}, max(w1a, 10**3), hi, scaled_remainder)
    s1, s2 = p.window_sups
    ok = p.holds is TriState.TRUE
    return ok, [
        f"window sups {s1:.6g} -> {s2:.6g} drift={p.drift:+.4f} tol {DRIFT_TOL:+.2f} "
        f"{'ok' if ok else 'VIOLATED'}"
    ]


def _check_7_zero_energy(H: int) -> tuple[bool, list[str]]:
    """d = 1/n, alpha = -2n - 1: the zero-energy solution is square-summable."""
    grid = PowerLogGrid(1.0, 0.0, 1.0)
    alpha = PowerSumAlpha(terms=((-2.0, 1.0, 0.0), (-1.0, 0.0, 0.0)))
    N = min(10**6, max(H, 10**4))
    sol = solve_recurrence(JacobiOperator(grid, alpha), 0.0, N)
    probe = l2_probe(sol)
    ok = probe.classification == "in_ell2" and probe.decay_ratio < 0.9
    details = [
        f"classification={probe.classification} decay_ratio={probe.decay_ratio:.4f} "
        f"(< 0.9 over last {probe.window} blocks) {'ok' if ok else 'VIOLATED'}",
        f"blocks={len(sol.block_log_masses)} residual_max={sol.residual_max:.3g}",
    ]
    return ok, details


@functools.lru_cache(maxsize=1)
def _inverse_gap_verdicts(H: int) -> tuple:
    """(label, alpha, expected kind, verdict) of the four d = 1/n cases checks 8 and 10 read.

    They share _facts(1.0, min(H, WINDOW_CAP)); run_battery clears this cache as a run starts and ends.
    """
    facts = _facts(1.0, min(H, WINDOW_CAP))
    grid = facts.grid
    pert = PowerSumAlpha(terms=((1.0, -1.0, 0.0),))
    cases = (
        ("a=-1.5+1/n", ScaledInverseGapsAlpha(grid, -1.5, perturbation=pert), VerdictKind.DEFICIENT),
        ("a=-0.5+1/n", ScaledInverseGapsAlpha(grid, -0.5, perturbation=pert), VerdictKind.DEFICIENT),
        ("alpha=-1/n", PowerSumAlpha(terms=((-1.0, -1.0, 0.0),)), VerdictKind.SELF_ADJOINT),
        ("alpha=-2(2n+1)+1/n", ScaledInverseGapsAlpha(grid, -2.0, perturbation=pert), VerdictKind.SELF_ADJOINT),
    )
    return tuple((*case, deficiency_verdict(grid, case[1], facts.cfg)) for case in cases)


def _check_8_verdicts(H: int) -> tuple[bool, list[str]]:
    """Verdict phases on d = 1/n and the discriminant identity."""
    details: list[str] = []
    ok = True
    cases = _inverse_gap_verdicts(H)
    for label, _, _, v in cases[:2]:
        good = (
            v.verdict is VerdictKind.DEFICIENT
            and not v.advisory
            and (v.n_plus, v.n_minus) == (1, 1)
        )
        ok &= good
        details.append(
            f"{label}: {v.verdict.value} cert={v.certificate} "
            f"n=({v.n_plus},{v.n_minus}) {'ok' if good else 'VIOLATED'}"
        )
    for (label, _, _, v), cert in zip(cases[2:], ("lower-envelope-bound", "upper-envelope-bound")):
        good = v.verdict is VerdictKind.SELF_ADJOINT and v.certificate == cert
        ok &= good
        details.append(f"{label}: {v.verdict.value} cert={v.certificate} {'ok' if good else 'VIOLATED'}")
    # measured-u discriminant vs the closed form 2(a+1)^2 - 1
    tol = 1e-6 * max(1.0, (10**6 / H)) ** 1.2
    for a in (-1.9, -1.5, -1.0, -0.5, -0.1):
        fl = floquet_discriminant(_facts(1.0, H).cond_b.u, a)
        ok &= _assert_close(details, f"Delta_{a}(0)", fl.discriminant, 2.0 * (a + 1.0) ** 2 - 1.0, tol)
    return ok, details


def _check_9_scaling_identity(H: int) -> tuple[bool, list[str]]:
    """Gauge-aligned coupling: scaled off-diagonal is 1 to 1e-10 for n <= 10^3."""
    f = _facts(1.0, min(H, 10**6))
    alpha0 = AlphaZeroAlpha(f.grid, -0.5, f.cond_b.u)
    worst_off = 0.0
    worst_diag = 0.0
    for n in range(1, 10**3 + 1):
        diag_s, off_s = scaled_operator(f.grid, alpha0, n)
        worst_off = max(worst_off, abs(off_s - 1.0))
        worst_diag = max(worst_diag, abs(diag_s - 0.5 * f.cond_b.u.at(n)))
    ok = worst_off <= 1e-10
    details = [
        f"max |off_s - 1| over n<=1000: {worst_off:.3g} tol 1e-10 {'ok' if ok else 'VIOLATED'}",
        f"max |diag_s - (a+1) u_n|: {worst_diag:.3g}",
    ]
    return ok, details


def _check_10_oracle_agreement(H: int) -> tuple[bool, list[str]]:
    """Nonreal-energy oracle agrees with every analytic certificate.

    The oracle's one witness is the lambda = +i march: B is real, so the
    -i solution is its conjugate and would add nothing independent.
    """
    inv, g75 = _facts(1.0, min(H, WINDOW_CAP)), _facts(0.75, min(H, WINDOW_CAP))
    g75_alpha = ScaledInverseGapsAlpha(g75.grid, -0.5)
    cases = [(label, inv.grid, *rest) for label, *rest in _inverse_gap_verdicts(H)]
    g75_verdict = deficiency_verdict(g75.grid, g75_alpha, g75.cfg)
    cases.append(("gamma=0.75 a=-0.5", g75.grid, g75_alpha, VerdictKind.DEFICIENT, g75_verdict))
    rows = _oracle_rows(g75.cfg.oracle_horizon)
    details: list[str] = []
    ok = True
    for label, grid, alpha, expected, v in cases:
        analytic_ok = v.verdict is expected and not v.advisory
        cls = l2_probe(solve_recurrence(JacobiOperator(grid, alpha), 1j, rows)).classification
        want = "in_ell2" if expected is VerdictKind.DEFICIENT else "not_in_ell2"
        good = analytic_ok and cls == want
        ok &= good
        details.append(
            f"{label}: analytic={v.verdict.value}({v.certificate}) "
            f"oracle={cls} {'ok' if good else 'VIOLATED'}"
        )
    return ok, details


# the battery, in order: name -> (check, runtime budget in seconds or None).
# A check's number is its position here
_CHECKS = {
    "wallis-parity": (_check_1_wallis, 1.0),
    "period-product": (_check_2_product, 15.0),
    "ratio-scaling": (_check_3_ratio_scaling, None),
    "f-limits": (_check_4_f_limits, None),
    "f-over-gap": (_check_5_f_over_gap, None),
    "expansion-remainder": (_check_6_remainder, None),
    "zero-energy-decay": (_check_7_zero_energy, 2.0),
    "verdict-phases": (_check_8_verdicts, None),
    "scaling-identity": (_check_9_scaling_identity, None),
    "oracle-agreement": (_check_10_oracle_agreement, None),
}


def run_battery(only: Optional[str] = None, horizon: int = 10**6) -> BatteryReport:
    """Run the checks (all, or those whose name contains `only`), which share one _facts record per
    d = n^-gamma grid and top horizon; the records and shared verdicts are cleared as the run starts and ends."""
    H = int(horizon)
    if H < 10**4:
        raise ValueError("battery horizon must be at least 10^4")
    _facts.cache_clear()
    _inverse_gap_verdicts.cache_clear()
    results = []
    try:
        for criterion, (name, (check, budget)) in enumerate(_CHECKS.items(), 1):
            if only and only not in name:
                continue
            t0 = time.perf_counter()
            ok, details = check(H)
            rt = time.perf_counter() - t0
            if budget is not None and rt >= budget:
                ok = False
                details.append(f"runtime {rt:.2f}s exceeds {budget:g}s budget")
            results.append(CheckResult(criterion, name, ok, details, rt))
    finally:
        _facts.cache_clear()
        _inverse_gap_verdicts.cache_clear()
    if not results:
        raise ValueError(f"no battery check matches {only!r}")
    return BatteryReport(results=results, horizon=H)
