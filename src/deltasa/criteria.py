"""Self-adjointness tests and the curvature of the gap profile.

Four families of machinery live here:

* divergence probes for the weighted coupling series (test_carleman_i,
  which phase 1 of a verdict reads, and test_condition_I) and for the
  tail series of condition A (check_condition_A);
* envelope bound probes (test_bound_II / test_bound_III) asking whether
  alpha stays below / above an envelope built from the gap profile, with
  the comparison function G = 0: each scans a semiboundedness hypothesis
  (see select_G, which states G's record);
* the curvature functional F and its Taylor expansion, which battery
  checks 4-6 read (F_block, f_over_d_probe, verify_G_limits).  F has one
  evaluator, F_block, for every row n >= 1; a point is a one-row block;
* the period-two tail structure: parity limits of rho_n
  (check_condition_B) and the l2 test on r_n*rtilde_n
  (check_condition_A).

test_condition_I and check_condition_A are standalone probes: no verdict
reads them.  Condition I's verdict is carleman-i's exponent comparison,
and a verdict takes condition A from the gaps' l2 class, given
condition B (see deficiency_verdict).

Numerical honesty rule: a series is declared divergent only by exponent
comparison on recognized families.  Partial sums alone never upgrade a
trend to a verdict.  Boundedness-style conclusions ("holds with some
constant") are reported as window-stabilization facts at a stated
horizon: a BoundProbe, whose drift and holds come from the one two-window
drift rule, numerics.window_drift.  The envelope bounds and the F/d
probe (f_over_d_probe, test "F-over-d") all return that bound record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .grid import (
    GridError,
    GridSequence,
    Order,
    PowerLogGrid,
    classify_summability,
    ratio_stats,
)
from .jacobi import AlphaSequence, ExplicitAlpha, PeriodPair, rho
from .numerics import (
    MIN_HORIZON,
    WINDOW_CAP,
    ChunkedSum,
    Record,
    TriState,
    aitken,
    blocks,
    richardson_pair,
    sqrt1p_minus_1,
    sqrt1p_tail,
    tail_windows,
    window_drift,
    window_sups,
)

__all__ = [
    "SeriesVerdict",
    "SeriesProbe",
    "BoundProbe",
    "select_G",
    "F_block",
    "f_over_d_probe",
    "test_carleman_i",
    "test_bound_II",
    "test_bound_III",
    "GLimits",
    "verify_G_limits",
    "ConditionB",
    "check_condition_B",
]
# test_condition_I and check_condition_A are not public: no verdict calls
# them, and they stay defined only because perfbench/instrument.py wraps
# them by name.  expansion_remainder_block serves battery check 6 alone

# condition B: the Richardson error order for gaps that do not decay
# like a power, the order-unity ceiling on the late-window residual
# sup, and how far that sup may exceed the early one
_B_ERROR_ORDER = 1.0
_B_CEILING = 10.0
_B_GROWTH_ALLOWANCE = 4.0

# the record of the envelope bounds' comparison function G = 0 (see
# select_G), which a verdict's diagnostics hold once; no bound record carries it
_ZERO_G = {"kind": "zero", "provenance": "semibounded-coupling-or-reflection"}


# ---------------------------------------------------------------------------
# probe result types


class SeriesVerdict(str, Enum):
    DIVERGES = "diverges"
    CONVERGES = "converges"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SeriesProbe(Record):
    """Partial sums at each horizon and the verdict.

    witnesses opens with fitted_growth, a description of the last two
    checkpoints' growth, and gate_failed, whether a gate of the probe failed.
    """

    test: str
    params: dict
    checkpoints: tuple[tuple[int, float], ...]
    verdict: SeriesVerdict
    witnesses: dict


@dataclass(frozen=True)
class BoundProbe(Record):
    """minimal_constant, the sup of a statistic up to horizon, and its numerics.window_drift."""

    test: str
    params: dict
    horizon: int
    minimal_constant: float
    window_sups: tuple[float, float]
    drift: float
    holds: TriState
    witnesses: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the curvature functional F and its expansion


def _uv_block(grid: GridSequence, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """u(n) = (d_{n+1}-d_{n-1})/(d_n+d_{n-1}), v(n) = (d_n-d_{n+2})/(d_{n+1}+d_{n+2}).

    Uses the grid's cancellation-free log-ratios when available (the
    difference d_{n+1}-d_{n-1} loses all precision evaluated directly
    once the gaps vary slowly); plain gap arithmetic otherwise.
    """
    g1 = grid.gap_log_ratio_block(lo, hi, 1)
    gm1 = grid.gap_log_ratio_block(lo, hi, -1)
    g2 = grid.gap_log_ratio_block(lo, hi, 2)
    if g1 is not None and gm1 is not None and g2 is not None:
        em1 = np.exp(gm1)
        u = em1 * np.expm1(g1 - gm1) / (1.0 + em1)
        v = -np.expm1(g2) / (np.exp(g1) + np.exp(g2))
        return u, v
    d = grid.gaps(lo - 1, hi + 2)
    dm1, d0, d1, d2 = d[:-3], d[1:-2], d[2:-1], d[3:]
    u = (d1 - dm1) / (d0 + dm1)
    v = (d0 - d2) / (d1 + d2)
    return u, v


def _uv_tail(grid: GridSequence, lo: int, hi: int, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """f(u)/d_n + f(v)/d_{n+1} for lo <= n < hi, with u, v from _uv_block."""
    u, v = _uv_block(grid, lo, hi)
    d = grid.gaps(lo, hi + 1)
    return f(u) / d[:-1] + f(v) / d[1:]


def F_block(grid: GridSequence, lo: int, hi: int) -> np.ndarray:
    """F(n) = (1/d_n)(r_n/r_{n-1} - 1) + (1/d_{n+1})(r_n/r_{n+1} - 1) for lo <= n < hi, r_0 = 1.

    Row 1 carries the r_0 convention and row 2 reads plain gaps (the
    stable log-ratio route needs d_{n-1} on the profile, i.e. n >= 3);
    each is one scalar head row.  Rows from 3 on are one block.
    """
    if lo < 1:
        raise GridError(f"F index must be >= 1, got {lo}")
    head = []
    if lo == 1 and hi > 1:
        r1, d2 = grid.r(1), grid.gap(2)  # a d_2 that underflows to 0 gives nan, as in the block rows
        head.append((r1 - 1.0) / grid.gap(1) + (r1 / grid.r(2) - 1.0) / d2 if d2 > 0.0 else math.nan)
        lo = 2
    if lo == 2 and hi > 2:
        u2, v2 = _uv_block(grid, 2, 3)
        head.append(float(sqrt1p_minus_1(u2[0]) / grid.gap(2) + sqrt1p_minus_1(v2[0]) / grid.gap(3)))
        lo = 3
    if hi <= lo:
        return np.array(head, dtype=float)
    vals = _uv_tail(grid, lo, hi, sqrt1p_minus_1)
    return np.concatenate((head, vals)) if head else vals


def expansion_remainder_block(grid: GridSequence, lo: int, hi: int, k: int) -> np.ndarray:
    """F(n) minus its k-term expansion, evaluated in fused form.

    The expansion is (1/d_n) sum_{i<k} C_i u^i + (1/d_{n+1}) sum_{i<k} C_i v^i,
    with C_i the Taylor coefficients of sqrt(1+x) and u, v from _uv_block.

    The direct difference is hopeless: at n ~ 1e5 on slowly varying
    grids the remainder sits fifteen orders below the leading term.
    Fusing the subtraction into the sqrt Taylor tail keeps full
    relative precision.
    """
    if lo < 2:
        raise GridError("expansion_remainder_block needs lo >= 2")
    if k < 2:
        raise GridError("need k >= 2")
    return _uv_tail(grid, lo, hi, lambda x: sqrt1p_tail(x, k))


def f_over_d_probe(grid: GridSequence, lo: int, hi: int) -> BoundProbe:
    """Bound probe "F-over-d" of |F(n)| <= C d_n over [lo, hi]: horizon hi, params["lo"] = lo."""
    if hi < 64 or lo < 2:
        raise GridError("f_over_d_probe needs lo >= 2 and hi >= 64")
    return _bound_probe(
        "F-over-d",
        {"grid": grid.describe(), "lo": lo},
        lo,
        hi,
        lambda a, b: np.abs(F_block(grid, a, b)) / grid.gaps(a, b),
    )


def select_G(grid: GridSequence) -> dict:
    """The record of the envelope bounds' comparison function G = 0, the same on every grid.

    With G = 0, bound III scans alpha_n >= -C d_n, the lower
    semiboundedness of alpha, and bound II scans alpha'_n >= -C d_n for
    the reflection alpha' = -alpha - 2(1/d_n + 1/d_{n+1}), which gives
    B' = -U B U with U = diag((-1)^n) and so the same deficiency indices
    (Kostenko-Malamud, J. Differential Equations 249 (2010) 253-304).
    Either one, on gaps in l2 but not l1 (which phase 0 checks first),
    makes H_{X,alpha} self-adjoint (Albeverio-Kostenko-Malamud,
    J. Math. Phys. 51 (2010) 102102).  Each call returns a new dict.
    """
    return dict(_ZERO_G)


# ---------------------------------------------------------------------------
# series probes


def _leading_exponents(alpha: AlphaSequence) -> Optional[Order]:
    lead = alpha.leading_term()
    if lead is not None:
        return lead
    if isinstance(alpha, ExplicitAlpha) and alpha.tail in ("cycle", "hold"):
        floor = min(abs(v) for v in alpha.values)
        if floor > 0.0:
            # bounded above and below: any positive constant represents
            # the order; use the floor so divergence claims stay sound
            return Order(floor, 0.0, 0.0)
    return None


def _cubed_gap_verdict(grid: GridSequence, alpha: AlphaSequence) -> tuple[SeriesVerdict, object]:
    """Exponent comparison for sum |alpha_n| d_n^3 (carleman-i's series up to a constant).

    The terms have the order lead * order**3 of the coupling's leading
    term and the gaps' order(); a zero coupling converges.  Returns the
    verdict and its analytic witness ({"P", "Q"} or "zero coupling"), or
    (UNKNOWN, None) when a leading order is unknown.
    """
    lead = _leading_exponents(alpha)
    order = grid.order()
    if lead is None or order is None:
        return SeriesVerdict.UNKNOWN, None
    if lead.c == 0.0:
        return SeriesVerdict.CONVERGES, "zero coupling"
    return _bertrand_verdict(lead * order**3.0)


def _bertrand_verdict(terms: Order) -> tuple[SeriesVerdict, dict]:
    """Convergence class of a series whose terms have the order terms, and its {"P", "Q"} witness."""
    verdict = SeriesVerdict.CONVERGES if terms.summable() else SeriesVerdict.DIVERGES
    return verdict, {"P": terms.p, "Q": terms.q}


def _growth_description(checkpoints: list[tuple[int, float]]) -> str:
    if len(checkpoints) < 2:
        return "single checkpoint"
    (n0, s0), (n1, s1) = checkpoints[-2], checkpoints[-1]
    if s1 <= 0.0 or s0 <= 0.0:
        return "degenerate partial sums"
    if s0 == s1:
        return "partial sums flat (converged to working precision)"
    rel = (s1 - s0) / s1
    if rel < 1e-6:
        return f"partial sums nearly flat (relative step {rel:.2e})"
    p_hat = math.log(s1 / s0) / math.log(n1 / n0)
    if p_hat > 0.1:
        return f"power-like growth, exponent ~ {p_hat:.2f}"
    return f"slow growth (log-like; relative step {rel:.2e} per decade)"


def _stream_series(
    term_block: Callable[[int, int], np.ndarray], horizons: tuple[int, ...]
) -> list[tuple[int, float]]:
    """The partial sums of term_block(a, b) over the blocks of each horizon."""
    acc = ChunkedSum()
    checkpoints = []
    prev = 1
    for h in horizons:
        for a, b in blocks(prev, h + 1):
            acc.add_array(term_block(a, b))
        checkpoints.append((h, acc.total()))
        prev = h + 1
    return checkpoints


def _normalize_horizons(horizons) -> tuple[int, ...]:
    raw = tuple(horizons)
    hs = tuple(int(h) for h in raw)
    if hs != raw:
        raise ValueError("every horizon must be an integer")
    if not hs or any(b <= a for a, b in zip(hs, hs[1:])):
        raise ValueError("horizons must be nonempty and strictly increasing")
    return hs


def test_carleman_i(grid: GridSequence, alpha: AlphaSequence, horizons) -> SeriesProbe:
    """Probe of sum |alpha_n| d_n d_{n+1} r_{n-1} r_{n+1}.

    Divergence of this series certifies self-adjointness on its own.
    The verdict comes from exponent comparison when both the coupling
    and the gap family expose their leading orders; otherwise the probe
    reports partial sums and a trend only.
    """
    hs = _normalize_horizons(horizons)
    verdict, analytic = _cubed_gap_verdict(grid, alpha)

    def term_block(a: int, b: int) -> np.ndarray:
        m, lo = b - a, max(a - 1, 1)
        d = grid.gaps(lo, b + 2)  # gaps d_lo .. d_{b+1}
        r = np.sqrt(d[:-1] + d[1:])  # r_lo .. r_b
        if a == 1:
            r = np.concatenate(([1.0], r))  # the r_0 = 1 convention
        dn, dn1 = d[a - lo : a - lo + m], d[a - lo + 1 : a - lo + 1 + m]
        return np.abs(alpha.alphas(a, b)) * dn * dn1 * r[:m] * r[2 : m + 2]

    checkpoints = _stream_series(term_block, hs)
    params = {"grid": grid.describe(), "alpha": alpha.describe()}
    witnesses = {"fitted_growth": _growth_description(checkpoints), "gate_failed": False}
    if analytic is not None:
        witnesses["analytic"] = analytic
    return SeriesProbe("carleman-i", params, tuple(checkpoints), verdict, witnesses)


def test_condition_I(grid: GridSequence, alpha: AlphaSequence, horizons) -> SeriesProbe:
    """Probe of sum |alpha_n| d_n^3 behind condition I's gate.

    witnesses["gate_failed"] reports the gate: lim inf d_{n+1}/d_n > 0
    (ratios up to min(top horizon, WINDOW_CAP)) and gaps in l2 but not
    l1.  The verdict is carleman-i's exponent comparison, so no verdict
    reads this probe.
    """
    hs = _normalize_horizons(horizons)
    verdict, analytic = _cubed_gap_verdict(grid, alpha)
    checkpoints = _stream_series(lambda a, b: np.abs(alpha.alphas(a, b)) * grid.gaps(a, b) ** 3, hs)
    stats, summ = ratio_stats(grid, min(hs[-1], WINDOW_CAP)), classify_summability(grid)
    witnesses = {
        "fitted_growth": _growth_description(checkpoints),
        "gate_failed": not (
            stats.min_ratio > 1e-6 and summ.in_ell2 is TriState.TRUE and summ.in_ell1 is TriState.FALSE
        ),
        "ratio_stats": stats.to_json(),
        "summability": summ.to_json(),
    }
    if isinstance(analytic, dict):  # no witness for a zero coupling here
        witnesses["analytic"] = analytic
    params = {"grid": grid.describe(), "alpha": alpha.describe()}
    return SeriesProbe("condition-I", params, tuple(checkpoints), verdict, witnesses)


# ---------------------------------------------------------------------------
# envelope bound probes


def _bound_probe(
    test: str,
    params: dict,
    lo: int,
    N: int,
    residual_block: Callable[[int, int], np.ndarray],
) -> BoundProbe:
    """The sup of residual_block over [lo, N] and its two-window drift.

    Window 1 starts no earlier than lo.  Below N = 64 there are no
    windows, and the drift rule reads (nan, UNKNOWN).
    """
    if N < 4:
        raise ValueError("bound probes need N >= 4")
    windows = ()
    if N >= 64:
        (w1a, w1b), w2 = tail_windows(N)
        windows = ((max(w1a, lo), w1b), w2)
    sup, arg, sups = window_sups(residual_block, lo, N + 1, windows)
    sup1, sup2 = sups or (-math.inf, -math.inf)
    drift, holds = window_drift(sup1, sup2)
    return BoundProbe(
        test=test,
        params=params,
        horizon=N,
        minimal_constant=sup,
        window_sups=(sup1, sup2),
        drift=drift,
        holds=holds,
        witnesses={"argmax": arg, "minimal_constant_nonneg": max(sup, 0.0)},
    )


def test_bound_II(grid: GridSequence, alpha: AlphaSequence, N: int) -> BoundProbe:
    """Minimal C1 with alpha_n <= -(2/d_n + 2/d_{n+1}) + C1 d_n.

    This is alpha'_n >= -C1 d_n for the reflection alpha', the envelope
    bound with G = 0 (see select_G).  The probe reports the per-n
    minimal constant's global sup and whether it has stabilized between
    the last two dyadic windows.
    """

    def residual_block(a: int, b: int) -> np.ndarray:
        al = alpha.alphas(a, b)  # first: its temporaries are gone before the gaps exist
        d = grid.gaps(a, b + 1)
        r = 2.0 / d
        out = al + r[:-1]
        del al
        out += r[1:]
        with np.errstate(over="ignore"):
            return np.divide(out, d[:-1], out=out)

    params = {"grid": grid.describe(), "alpha": alpha.describe()}
    return _bound_probe("bound-II", params, 1, N, residual_block)


def test_bound_III(grid: GridSequence, alpha: AlphaSequence, N: int) -> BoundProbe:
    """Minimal C2 with alpha_n >= -C2 d_n: alpha's semiboundedness, G = 0 (mirror of test_bound_II)."""

    def residual_block(a: int, b: int) -> np.ndarray:
        # 0 - alpha_n, not -alpha_n, which would turn a zero coupling's
        # residual into -0.0; and a new array, since alphas may hand out
        # one that it keeps
        out = np.subtract(0.0, alpha.alphas(a, b))
        with np.errstate(over="ignore"):
            return np.divide(out, grid.gaps(a, b), out=out)

    params = {"grid": grid.describe(), "alpha": alpha.describe()}
    return _bound_probe("bound-III", params, 1, N, residual_block)


# ---------------------------------------------------------------------------
# limits of F for the gamma = 1 family


@dataclass(frozen=True)
class GLimits:
    eta: float
    L1: float
    L2: float
    L3: float
    samples: dict


def verify_G_limits(grid: PowerLogGrid, horizon: int) -> GLimits:
    """Extrapolated limits of the F(n) asymptotics for gaps 1/(n ln^eta n).

    L1 = lim (n/ln^eta n) F(n)                      (expected 1/4)
    L2 = lim n ln^{1-eta}(n) (F - (1/4)ln^eta(n)/n) (expected eta)
    L3 = lim n ln^eta(n) (F - ... - eta/(n ln^{1-eta}n))
         (expected 0 for eta < 1, 1/4 at eta = 1)

    Estimators are calibrated to the corrections' decay: L1 sees a
    1/ln n error, removed by a ratio-2 Richardson step in 1/ln n; L2's
    correction decays like ln^{-(2 eta - 1)}, extrapolated only when
    that exponent is >= 1/2 (below that the raw tail value is already
    the better estimate); L3 uses Aitken acceleration on a three-point
    geometric ladder.
    """
    if not isinstance(grid, PowerLogGrid) or grid.gamma != 1.0:
        raise ValueError("verify_G_limits expects the gamma = 1 profile")
    eta = grid.eta
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    H = int(horizon)
    if H < 10**3:
        raise ValueError("horizon too small for limit extrapolation")

    def stats(n: int) -> tuple[float, float, float]:
        t = math.log(n)
        f = float(F_block(grid, n, n + 1)[0])
        a = (n / t**eta) * f
        b = n * t ** (1.0 - eta) * (f - 0.25 * t**eta / n)
        c = n * t**eta * (f - 0.25 * t**eta / n - eta / (n * t ** (1.0 - eta)))
        return a, b, c

    n_half = int(round(math.sqrt(H)))
    n_34 = int(round(H ** 0.75))
    a_h, b_h, c_h = stats(H)
    a_s, b_s, c_s = stats(n_half)
    _, _, c_m = stats(n_34)
    L1 = richardson_pair(a_s, a_h, 2.0, 1.0)
    p = 2.0 * eta - 1.0
    L2 = richardson_pair(b_s, b_h, 2.0, p) if p >= 0.5 else b_h
    L3 = aitken(c_s, c_m, c_h)
    return GLimits(
        eta=eta,
        L1=L1,
        L2=L2,
        L3=L3,
        samples={
            "points": [n_half, n_34, H],
            "A": [a_s, a_h],
            "B": [b_s, b_h],
            "C": [c_s, c_m, c_h],
        },
    )


# ---------------------------------------------------------------------------
# tail structure: conditions A and B


def check_condition_A(grid: GridSequence, horizons) -> SeriesProbe:
    """l2 test for the sequence r_n rtilde_n: partial sums of (r_n rtilde_n)^2.

    Convergence here is what lets the periodic comparison argument map
    bounded solutions to l2 ones.  A grid whose order() is known gets an
    analytic verdict: the terms behave like d_n^2 up to a parity
    constant, or have a positive floor along one parity on flat and
    cyclic grids, so the class is (order**2).summable().  A verdict reads
    condition A from the gaps' l2 class instead (see deficiency_verdict),
    so this probe stands alone.
    """
    hs = _normalize_horizons(horizons)

    def term_block(a: int, b: int) -> np.ndarray:
        d, ld = grid.gaps_and_logs(a, b + 1)
        L = grid.tilde.log_abs_block(a, b, ld)
        # parity-unbalanced grids push 2L past the float range; saturate
        # the terms instead of overflowing (the verdict there is analytic
        # anyway, and saturated partial sums still read as divergence)
        return (d[:-1] + d[1:]) * np.exp(np.minimum(2.0 * L, 500.0))

    checkpoints = _stream_series(term_block, hs)
    verdict = SeriesVerdict.UNKNOWN
    witnesses = {"fitted_growth": _growth_description(checkpoints), "gate_failed": False}
    order = grid.order()
    if order is not None:
        verdict, witnesses["analytic"] = _bertrand_verdict(order**2.0)
    if len(checkpoints) >= 2 and checkpoints[-1][1] > checkpoints[-2][1] > 0:
        witnesses["tail_mass"] = checkpoints[-1][1] - checkpoints[-2][1]
    return SeriesProbe("condition-A", {"grid": grid.describe()}, tuple(checkpoints), verdict, witnesses)


@dataclass(frozen=True)
class ConditionB(Record):
    u: PeriodPair
    residual_order: float
    holds: TriState
    window_sups: tuple[float, float]
    horizon: int
    witnesses: dict = field(default_factory=dict)


def check_condition_B(grid: GridSequence, horizon: int) -> ConditionB:
    """Period-two structure of rho_n = (1/d_n + 1/d_{n+1}) rtilde_n^2.

    Estimates the parity limits u_odd, u_even by Richardson
    extrapolation along each parity (error order -2p for gaps
    d_n ~ c n^p (ln n)^q with p < 0, 1 otherwise), then checks the
    defining remainder bound: |rho_n - u_parity| / (r_n rtilde_n)^2
    bounded over the tail.

    The remainder statistic is noise-floored: at gamma = 1 the float
    error of the log accumulation is amplified by n^2 to order 0.1-0.5,
    so "bounded" is operationalized as staying under the order-unity
    ceiling _B_CEILING (10) without growing more than _B_GROWTH_ALLOWANCE
    (4) times between the windows, rather than as a vanishing drift.
    Genuine violations overshoot the ceiling quickly.  A parity whose
    rho_n overflows the float range (a parity-unbalanced grid) reads
    inf, and the check reports unknown.
    """
    H = int(horizon)
    if H < MIN_HORIZON:
        raise ValueError(f"check_condition_B needs horizon >= {MIN_HORIZON}")
    order = grid.order()
    error_order = -2.0 * order.p if order is not None and order.p < 0.0 else _B_ERROR_ORDER

    # two largest probed indices of each parity: H-ish and H/2-ish
    def parity_estimate(parity: int) -> tuple[float, list]:
        n1 = H if H % 2 == parity else H - 1
        n0 = H // 2 if (H // 2) % 2 == parity else H // 2 - 1
        r0, r1 = rho(grid, n0), rho(grid, n1)
        try:
            est = richardson_pair(r0, r1, n1 / n0, error_order)
        except OverflowError:  # (n1/n0)^order past the float range: the limit is unknown
            est = math.nan
        return est, [[n0, r0], [n1, r1]]

    u_odd, pts_odd = parity_estimate(1)
    u_even, pts_even = parity_estimate(0)
    u = PeriodPair(odd=u_odd, even=u_even)

    # the scan starts at H // 4: the bits of log_abs_block depend on
    # where each block starts
    windows = tail_windows(H)
    lo = windows[0][0]

    def resid_block(a: int, b: int) -> np.ndarray:
        # |rho - u|/(r rtilde)^2 computed in the well-scaled frame, in place:
        # |(1/d_n + 1/d_{n+1}) - u e^{-2L}| / (d_n + d_{n+1})
        d, ld = grid.gaps_and_logs(a, b + 1)
        L = grid.tilde.log_abs_block(a, b, ld)
        r = np.divide(1.0, d, out=ld)  # the log gaps are consumed: 1/d takes their array
        inv = np.add(r[:-1], r[1:], out=r[:-1])  # row i reads r_i, r_i+1 before it writes r_i
        L *= -2.0
        np.exp(L, out=L)
        L[0::2] *= u.at(a)
        L[1::2] *= u.at(a + 1)
        np.abs(np.subtract(inv, L, out=L), out=L)
        return np.divide(L, np.add(d[:-1], d[1:], out=inv), out=L)

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite sups read as unknown
        _, _, (sup1, sup2) = window_sups(resid_block, lo, H + 1, windows)
    finite = all(
        math.isfinite(x) and x > 0.0 for x in (u_odd, u_even)
    ) and math.isfinite(sup1) and math.isfinite(sup2)
    if not finite:
        holds = TriState.UNKNOWN
    elif sup2 > _B_CEILING:
        holds = TriState.FALSE
    elif sup2 <= _B_GROWTH_ALLOWANCE * max(sup1, 1e-6):
        holds = TriState.TRUE
    else:
        holds = TriState.UNKNOWN
    return ConditionB(
        u=u,
        residual_order=error_order,
        holds=holds,
        window_sups=(sup1, sup2),
        horizon=H,
        witnesses={
            "parity_points": {"odd": pts_odd, "even": pts_even},
            "ceiling": _B_CEILING,
            "growth_allowance": _B_GROWTH_ALLOWANCE,
            "product": u.product,
        },
    )


# the probe functions follow the test-(i)/(I)/(II)/(III) naming of the
# criteria they implement; keep pytest from collecting them as tests
# when a test module imports them by name
for _probe in (test_carleman_i, test_condition_I, test_bound_II, test_bound_III):
    _probe.__test__ = False
del _probe
