"""Every two-window probe scans through numerics.window_sups, bit for bit.

f_over_d_probe, the envelope bound probes, condition B and battery
check 6 used to carry their own copies of the window-sup loop.  The
references below are those copies, kept verbatim as far as they scan;
each probe must agree with its reference repr for repr.  The three
drift probes also share one drift rule (numerics.window_drift), which
reference_drift writes out: nan and unknown unless both sups are finite.  Condition B is
the delicate one: TildeSequence.log_abs_block gives bits that depend on
where a block starts, so its scan must keep starting at H // 4.
"""

import dataclasses
import math

import numpy as np
import pytest

from deltasa import (
    CustomAlpha,
    ExplicitGrid,
    PeriodPair,
    PowerLogGrid,
    PowerSumAlpha,
    ScaledInverseGapsAlpha,
    TildeSequence,
    check_condition_B,
    f_over_d_probe,
    test_bound_II,
    test_bound_III,
)
from deltasa import criteria, verify
from deltasa.criteria import BoundProbe, ConditionB, F_block, expansion_remainder_block
from deltasa.numerics import DRIFT_TOL, TriState, richardson_pair, tail_windows, window_drift, window_sups

CHUNK = 1 << 15
ZERO_G = {"kind": "zero", "provenance": "semibounded-coupling-or-reflection"}  # the bounds' G record


# ---------------------------------------------------------------------------
# the earlier loops


def reference_drift(sup1, sup2):
    if not (math.isfinite(sup1) and math.isfinite(sup2)):
        return math.nan, TriState.UNKNOWN
    drift = (sup2 - sup1) / (abs(sup1) or max(abs(sup2), 1e-300))
    return drift, TriState.of(drift < DRIFT_TOL or sup2 <= 0.0)


def reference_f_over_d_probe(grid, lo, hi):
    (w1a, w1b), (w2a, w2b) = tail_windows(hi)
    w1a = max(w1a, lo)
    sup = -math.inf
    argmax = lo
    sup1 = -math.inf
    sup2 = -math.inf
    for a in range(lo, hi + 1, CHUNK):
        b = min(a + CHUNK, hi + 1)
        vals = np.abs(F_block(grid, a, b)) / grid.gaps(a, b)
        m = int(np.argmax(vals))
        if vals[m] > sup:
            sup, argmax = float(vals[m]), a + m
        for (wa, wb), which in (((w1a, w1b), 1), ((w2a, w2b), 2)):
            la, lb = max(a, wa), min(b, wb)
            if la < lb:
                wmax = float(np.max(vals[la - a : lb - a]))
                if which == 1:
                    sup1 = max(sup1, wmax)
                else:
                    sup2 = max(sup2, wmax)
    drift, stable = reference_drift(sup1, sup2)
    witnesses = {"argmax": argmax, "minimal_constant_nonneg": max(sup, 0.0)}
    params = {"grid": grid.describe(), "lo": lo}
    return BoundProbe("F-over-d", params, hi, sup, (sup1, sup2), drift, stable, witnesses)


def reference_bound_probe(test, grid, alpha, N, residual_block):
    sup = -math.inf
    arg = 1
    sup1 = sup2 = -math.inf
    have_windows = N >= 64
    if have_windows:
        (w1a, w1b), (w2a, w2b) = tail_windows(N)
    for a in range(1, N + 1, CHUNK):
        b = min(a + CHUNK, N + 1)
        vals = residual_block(a, b)
        m = int(np.argmax(vals))
        if vals[m] > sup:
            sup, arg = float(vals[m]), a + m
        if have_windows:
            for lo_w, hi_w, which in ((w1a, w1b, 1), (w2a, w2b, 2)):
                la, lb = max(a, lo_w), min(b, hi_w)
                if la < lb:
                    wmax = float(np.max(vals[la - a : lb - a]))
                    if which == 1:
                        sup1 = max(sup1, wmax)
                    else:
                        sup2 = max(sup2, wmax)
    drift, holds = reference_drift(sup1, sup2)
    return BoundProbe(
        test=test,
        params={"grid": grid.describe(), "alpha": alpha.describe(), "G": ZERO_G},
        horizon=N,
        minimal_constant=sup,
        window_sups=(sup1, sup2),
        drift=drift,
        holds=holds,
        witnesses={"argmax": arg, "minimal_constant_nonneg": max(sup, 0.0)},
    )


def residual_II(grid, alpha):
    def block(a, b):
        d = grid.gaps(a, b + 1)
        dn, dn1 = d[:-1], d[1:]
        g = np.zeros(b - a)
        return (alpha.alphas(a, b) + 2.0 / dn + 2.0 / dn1 + g) / dn

    return block


def residual_III(grid, alpha):
    def block(a, b):
        d = grid.gaps(a, b)
        g = np.zeros(b - a)
        return (g - alpha.alphas(a, b)) / d

    return block


def reference_condition_B(grid, horizon, ceiling=10.0, growth_allowance=4.0):
    H = int(horizon)
    t = TildeSequence(grid)
    error_order = 2.0 * grid.gamma if isinstance(grid, PowerLogGrid) else 1.0

    def rho_at(n):
        inv = np.logaddexp(-grid.log_gap(n), -grid.log_gap(n + 1))
        return math.exp(float(inv) + 2.0 * t.log_abs(n))

    def parity_estimate(parity):
        n1 = H if H % 2 == parity else H - 1
        n0 = H // 2 if (H // 2) % 2 == parity else H // 2 - 1
        r0, r1 = rho_at(n0), rho_at(n1)
        est = richardson_pair(r0, r1, n1 / n0, error_order)
        return est, [[n0, r0], [n1, r1]]

    u_odd, pts_odd = parity_estimate(1)
    u_even, pts_even = parity_estimate(0)
    u = PeriodPair(odd=u_odd, even=u_even)

    (w1a, w1b), (w2a, w2b) = tail_windows(H)
    sup1 = sup2 = -math.inf
    for a in range(w1a, H + 1, CHUNK):
        b = min(a + CHUNK, H + 1)
        d = grid.gaps(a, b + 1)
        inv = 1.0 / d[:-1] + 1.0 / d[1:]
        L = t.log_abs_block(a, b)
        upar = u.block(a, b)
        resid = np.abs(inv - upar * np.exp(-2.0 * L)) / (d[:-1] + d[1:])
        for lo_w, hi_w, which in ((w1a, w1b, 1), (w2a, w2b, 2)):
            la, lb = max(a, lo_w), min(b, hi_w)
            if la < lb:
                wmax = float(np.max(resid[la - a : lb - a]))
                if which == 1:
                    sup1 = max(sup1, wmax)
                else:
                    sup2 = max(sup2, wmax)
    finite = all(
        math.isfinite(x) and x > 0.0 for x in (u_odd, u_even)
    ) and math.isfinite(sup1) and math.isfinite(sup2)
    if not finite:
        holds = TriState.UNKNOWN
    elif sup2 > ceiling:
        holds = TriState.FALSE
    elif sup2 <= growth_allowance * max(sup1, 1e-6):
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
            "ceiling": ceiling,
            "growth_allowance": growth_allowance,
            "product": u.product,
        },
    )


CHECK_6_GRID = PowerLogGrid(1.0, 1.0, 1.0)


def scaled_remainder(lo, h):
    ns = np.arange(lo, h, dtype=float)
    rem = np.abs(expansion_remainder_block(CHECK_6_GRID, lo, h, 3))
    return rem * ns**2 * np.log(ns) ** 2


def reference_check_6_sups(H):
    hi = min(10**5, H)
    (w1a, w1b), (w2a, w2b) = tail_windows(hi)
    w1a = max(w1a, 10**3)

    def window_sup(a, b):
        sup = -math.inf
        for lo in range(a, b, 1 << 15):
            h = min(lo + (1 << 15), b)
            sup = max(sup, float(np.max(scaled_remainder(lo, h))))
        return sup

    return window_sup(w1a, w1b), window_sup(w2a, w2b)


def reference_check_6_details(H):
    s1, s2 = reference_check_6_sups(H)
    drift = (s2 - s1) / abs(s1)
    ok = math.isfinite(s2) and drift < 0.05
    return [
        f"window sups {s1:.6g} -> {s2:.6g} drift={drift:+.4f} tol +0.05 "
        f"{'ok' if ok else 'VIOLATED'}"
    ]


# ---------------------------------------------------------------------------
# the probes against them


def same(got, want):
    assert repr(got.to_json()) == repr(want.to_json())


def same_fields(got, want):
    assert type(got) is type(want)
    for f in dataclasses.fields(got):
        assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name


@pytest.mark.parametrize(
    "gamma,eta,lo,hi",
    [
        (1.0, 0.5, 2, 10**5),
        (0.75, 3.0, 10**3, 10**5),
        (1.0, 0.5, 30_000, 10**5),  # lo above hi // 4: window 1 starts at lo
        (0.6, 0.0, 60_000, 10**5),  # lo above hi // 2: window 1 is empty
        (1.0, -1.0, 2, 2 * CHUNK - 1),
    ],
)
def test_f_over_d_probe(gamma, eta, lo, hi):
    grid = PowerLogGrid(gamma, eta, 1.0)
    same_fields(f_over_d_probe(grid, lo, hi), reference_f_over_d_probe(grid, lo, hi))


BOUND_N = (40, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1)


@pytest.mark.parametrize("N", BOUND_N)
def test_bound_probes(N):
    grid = PowerLogGrid(1.0, 0.5, 0.8)
    pert = PowerSumAlpha(terms=((0.3, -1.0, 0.0),))
    alpha = ScaledInverseGapsAlpha(grid, -2.0, perturbation=pert)
    same(
        test_bound_II(grid, alpha, N),
        reference_bound_probe("bound-II", grid, alpha, N, residual_II(grid, alpha)),
    )
    same(
        test_bound_III(grid, alpha, N),
        reference_bound_probe("bound-III", grid, alpha, N, residual_III(grid, alpha)),
    )


def planted(N, marks):
    """A residual sequence on [1, N] with chosen values at chosen rows."""
    rng = np.random.default_rng(7)
    vals = rng.uniform(0.0, 1.0, N + 1)
    for n, v in marks.items():
        vals[n] = v

    def block(a, b):
        return vals[a:b].copy()

    return block


# N = 10^5: window 1 is [25000, 50000), window 2 is [50000, 100001); the
# blocks start at 1, 32769, 65537 and 98305
PLANTED = {
    # window 1's largest value shares a block with a NaN, so the NaN hides it
    "nan-hides-window-1-peak": {26_000: 5.0, 30_000: math.nan, 40_000: 3.0},
    "nan-and-inf": {
        30_000: math.nan,
        70_000: math.inf,
        80_000: -math.inf,
        99_000: math.nan,
    },
    "negative-inf-peak": {10: -math.inf, 60_000: 2.0},
    "all-nan-first-block": {n: math.nan for n in range(1, CHUNK + 1)},
}


@pytest.mark.parametrize("case", sorted(PLANTED))
@pytest.mark.parametrize("N", (40, 10**5))
def test_bound_probe_nan_and_inf(case, N):
    grid = PowerLogGrid(1.0, 0.0, 1.0)
    alpha = PowerSumAlpha(terms=((1.0, 1.0, 0.0),))
    marks = {n: v for n, v in PLANTED[case].items() if n <= N}
    block = planted(N, marks)
    params = {"grid": grid.describe(), "alpha": alpha.describe(), "G": ZERO_G}
    got = criteria._bound_probe("planted", params, 1, N, block)
    same(got, reference_bound_probe("planted", grid, alpha, N, block))


def test_nan_block_drops_its_whole_window_slice():
    N = 10**5
    block = planted(N, PLANTED["nan-hides-window-1-peak"])
    sup, arg, (sup1, sup2) = window_sups(block, 1, N + 1, tail_windows(N))
    # the global sup skips that block too
    assert (sup, arg, sup1) == (3.0, 40_000, 3.0)
    assert 0.0 < sup2 < 1.0


@pytest.mark.parametrize(
    "grid,H",
    [
        (PowerLogGrid(1.0, 0.0, 1.0), 10**5),
        (PowerLogGrid(0.75, 0.3, 1.3), 4 * CHUNK + 3),
        (PowerLogGrid(1.0, 0.5, 1.0), 3 * CHUNK - 1),
        # here a scan from row 1 moves window 1's sup in its sixth digit
        (PowerLogGrid(0.6, 0.0, 0.7), 10**5),
        (ExplicitGrid(values=(0.5, 0.25, 0.3), tail="cycle"), 10**5),
    ],
    ids=["power-1", "power-log", "power-eta-0.5", "power-0.6", "explicit-cycle"],
)
def test_condition_B(grid, H):
    same(check_condition_B(grid, horizon=H), reference_condition_B(grid, H))


def check_6(H):
    (result,) = verify.run_battery(only="expansion-remainder", horizon=H).results
    assert result.criterion == 6
    return result


@pytest.mark.parametrize("H", (10**4, 10**5))
def test_check_6(H):
    # check 6 scans both windows through criteria._bound_probe, in one
    # pass from window 1's start; the remainder is elementwise, so its
    # bits do not depend on where a block starts
    hi = min(10**5, H)
    (w1a, w1b), w2 = tail_windows(hi)
    lo = max(w1a, 10**3)
    _, _, got = window_sups(scaled_remainder, lo, hi + 1, ((lo, w1b), w2))
    assert repr(got) == repr(reference_check_6_sups(H))
    assert check_6(H).details == reference_check_6_details(H)


# ---------------------------------------------------------------------------
# one drift rule: a non-finite sup in either window reads (nan, unknown)

# N = 10^4: window 1 is [2500, 5000), window 2 is [5000, 10001)
SPIKE_ROWS = {"window-1": 3000, "window-2": 8000}


def spiked(block, n0):
    """block(grid, a, b, ...) with +inf at row n0."""

    def wrapped(grid, a, b, *rest):
        out = np.array(block(grid, a, b, *rest), dtype=float)
        if a <= n0 < b:
            out[n0 - a] = math.inf
        return out

    return wrapped


@pytest.mark.parametrize("window", sorted(SPIKE_ROWS))
def test_bound_probes_read_a_non_finite_window_as_unknown(window):
    n0 = SPIKE_ROWS[window]
    grid = PowerLogGrid(1.0)
    for probe, sign in ((test_bound_II, 1.0), (test_bound_III, -1.0)):
        # a coupling rejects a non-finite value as it reads it, so the
        # spike goes in past its check
        alpha = CustomAlpha(lambda n: 0.0)
        alpha.alphas = lambda a, b: np.where(np.arange(a, b) == n0, sign * math.inf, 0.0)
        p = probe(grid, alpha, 10**4)
        assert math.isinf(max(p.window_sups))
        assert math.isnan(p.drift) and p.holds is TriState.UNKNOWN


@pytest.mark.parametrize("window", sorted(SPIKE_ROWS))
def test_f_over_d_probe_reads_a_non_finite_window_as_unknown(window, monkeypatch):
    # the F/d record used to carry a drift computed from the infinite sup
    monkeypatch.setattr(criteria, "F_block", spiked(F_block, SPIKE_ROWS[window]))
    p = f_over_d_probe(PowerLogGrid(0.6), 2, 10**4)
    assert math.isinf(max(p.window_sups))
    assert math.isnan(p.drift) and p.holds is TriState.UNKNOWN


@pytest.mark.parametrize("window", sorted(SPIKE_ROWS))
def test_check_6_reads_a_non_finite_window_as_unknown(window, monkeypatch):
    # check 6 used to pass an infinite window-1 sup: it tested only the late one
    block = spiked(expansion_remainder_block, SPIKE_ROWS[window])
    monkeypatch.setattr(verify, "expansion_remainder_block", block)
    result = check_6(10**4)
    assert not result.passed
    assert " -> " in result.details[0] and "drift=+nan" in result.details[0]
    assert result.details[0].endswith("VIOLATED")


# the minimal constant max(sup, 0) of a late sup at or below 0 is 0: it
# cannot grow, so only a positive late sup can fail the rule
@pytest.mark.parametrize(
    "early,late,drift,holds",
    [
        (-4.0, -2.0, 0.5, TriState.TRUE),  # negative and rising
        (-2.0, -4.0, -1.0, TriState.TRUE),  # negative and falling
        (2.0, 4.0, 1.0, TriState.FALSE),  # positive and growing
        (-1.0, 1.0, 2.0, TriState.FALSE),  # crosses 0
    ],
)
def test_window_drift(early, late, drift, holds):
    assert window_drift(early, late) == (drift, holds)
