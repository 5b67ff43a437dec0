"""Computable self-adjointness tests: series probes, envelope bounds,
curvature function F, and the structural checks behind the periodic
comparison.

Reference values for F, G, and the period constants come from mpmath at
40 digits; verdict expectations come from exact series thresholds.
"""

import math

import mpmath
import numpy as np
import pytest

from deltasa import (
    ConstantGrid,
    CustomAlpha,
    CustomGrid,
    ExplicitGrid,
    F_block,
    PowerLogGrid,
    PowerSumAlpha,
    ScaledInverseGapsAlpha,
    SeriesVerdict,
    check_condition_B,
    f_over_d_probe,
    select_G,
    test_bound_II,
    test_bound_III,
    test_carleman_i,
    verify_G_limits,
)
from deltasa import criteria
from deltasa.criteria import _uv_block, check_condition_A, expansion_remainder_block, test_condition_I
from deltasa.numerics import TriState, sqrt_series_coeffs


def F(grid, n):
    """F(n) at one site, read through the block evaluator."""
    return float(F_block(grid, n, n + 1)[0])


def F_expansion(grid, n, k):
    """Truncated expansion (1/d_n) sum_{i<k} C_i u^i + (1/d_{n+1}) sum_{i<k} C_i v^i.

    The direct reference for expansion_remainder_block: F(n) minus this
    is the remainder the fused form computes.
    """
    u, v = _uv_block(grid, n, n + 1)
    coeffs = sqrt_series_coeffs(k)
    su = sum(coeffs[i] * u[0] ** i for i in range(1, k))
    sv = sum(coeffs[i] * v[0] ** i for i in range(1, k))
    return float(su / grid.gap(n) + sv / grid.gap(n + 1))


def mp_F(grid, n):
    """40-digit evaluation of the curvature difference at one site."""
    with mpmath.workdps(40):
        d = lambda k: mpmath.mpf(repr(grid.gap(k)))
        r = lambda k: mpmath.sqrt(d(k) + d(k + 1)) if k >= 1 else mpmath.mpf(1)
        val = (r(n) / r(n - 1) - 1) / d(n) + (r(n) / r(n + 1) - 1) / d(n + 1)
        return float(val)


class TestF:
    def test_blocks_match_single_rows(self):
        # d_n = (1 if n odd else 2)/n has no log-ratio route: every block
        # row reads plain gaps, with the two scalar head rows below row 3
        g = CustomGrid(lambda n: (1.0 if n % 2 else 2.0) / n)
        for lo in (1, 2, 32767, 32768, 32769):
            want = np.array([F(g, n) for n in range(lo, lo + 300)])
            assert F_block(g, lo, lo + 300).tobytes() == want.tobytes(), lo

    def test_flat_grid_values(self):
        g = ConstantGrid(1.0)
        assert F(g, 1) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)
        for n in range(2, 12):
            assert F(g, n) == 0.0
        # with d = 1/2 the boundary convention r_0 = 1 matches r_1 exactly
        assert F(ConstantGrid(0.5), 1) == 0.0

    def test_matches_high_precision(self):
        # F is a difference of two near-equal curvature terms, so the
        # achievable relative accuracy shrinks with the cancellation; at
        # these sites eight digits is what float arithmetic leaves
        g = PowerLogGrid(gamma=0.6, eta=0.3)
        for n in (2, 5, 50, 400):
            assert F(g, n) == pytest.approx(mp_F(g, n), rel=1e-8, abs=1e-16)

    def test_block_matches_high_precision(self):
        # one block through both scalar head rows (r_0 = 1 at n = 1, plain
        # gaps at n = 2) and into the log-ratio rows
        g = PowerLogGrid(gamma=0.75, eta=-0.2)
        want = [mp_F(g, n) for n in range(1, 40)]
        np.testing.assert_allclose(F_block(g, 1, 40), want, rtol=1e-8, atol=1e-16)

    def test_underflowing_gaps_give_nan_on_every_row(self):
        # d_n = n^-1100 is 0 from n = 2 on: the scalar head rows give nan,
        # as the numpy rows do, rather than dividing by zero
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            assert np.isnan(F_block(PowerLogGrid(gamma=1100.0), 1, 10)).all()

    def test_power_grid_asymptote(self):
        # n^{2-gamma} F(n) -> gamma (3 gamma - 2) / 4
        gamma = 0.75
        g = PowerLogGrid(gamma=gamma)
        n = 10**4
        limit = gamma * (3 * gamma - 2) / 4
        assert F(g, n) * n ** (2 - gamma) == pytest.approx(limit, abs=1e-4)

    def test_expansion_and_remainder(self):
        g = PowerLogGrid(gamma=0.75)
        # the fused remainder equals F minus its k-term truncation, signs
        # included
        for n in (3, 7, 20):
            for k in (2, 3, 5):
                direct = F(g, n) - F_expansion(g, n, k)
                fused = expansion_remainder_block(g, n, n + 1, k)[0]
                assert fused == pytest.approx(direct, rel=1e-6, abs=1e-15)

    def test_expansion_first_order_structure(self):
        # k = 2 keeps only the C_1 = 1/2 terms
        g = PowerLogGrid(gamma=0.6)
        n = 9
        d = [g.gap(k) for k in range(1, 14)]
        u = (d[n] - d[n - 2]) / (d[n - 1] + d[n - 2])
        v = (d[n - 1] - d[n + 1]) / (d[n] + d[n + 1])
        want = 0.5 * u / d[n - 1] + 0.5 * v / d[n]
        assert F_expansion(g, n, 2) == pytest.approx(want, rel=1e-12)


class TestFOverDProbe:
    def test_decaying_family_is_stable(self):
        p = f_over_d_probe(PowerLogGrid(gamma=0.6), 2, 10**4)
        assert p.holds is TriState.TRUE
        assert p.drift == pytest.approx(-0.4256, abs=5e-3)

    def test_log_corrected_family_drifts(self):
        p = f_over_d_probe(PowerLogGrid(gamma=1.0, eta=0.5), 2, 10**4)
        assert p.holds is TriState.FALSE
        assert p.drift > 0.05


class TestSelectG:
    GRIDS = (
        ConstantGrid(1.0),
        PowerLogGrid(gamma=0.75),
        PowerLogGrid(gamma=1.0),
        PowerLogGrid(gamma=1.0, eta=0.5),
        PowerLogGrid(gamma=1.0, eta=1.5),
        ExplicitGrid(values=(0.5, 0.25), tail="cycle"),
        CustomGrid(lambda n: (1.0 if n % 2 else 2.0) / n),
    )

    def test_every_family_gets_the_zero_G(self):
        for grid in self.GRIDS:
            G = select_G(grid)
            assert G == {"kind": "zero", "provenance": "semibounded-coupling-or-reflection"}
            assert G is not select_G(grid)  # a record's owner may rewrite it

    def test_no_grid_calls_F_block(self, monkeypatch):
        calls = []
        monkeypatch.setattr(criteria, "F_block", lambda *a: calls.append(a))
        for grid in self.GRIDS:
            select_G(grid)
        assert calls == []


class TestSeriesProbes:
    def test_carleman_diverges_for_strong_coupling(self):
        g = PowerLogGrid(gamma=1.0)
        p = test_carleman_i(g, PowerSumAlpha(terms=((1.0, 2.0, 0.0),)), horizons=(10**4,))
        assert p.verdict is SeriesVerdict.DIVERGES
        assert p.witnesses["analytic"] == {"P": -1.0, "Q": 0.0}

    def test_carleman_converges_for_bounded_coupling(self):
        g = PowerLogGrid(gamma=1.0)
        p = test_carleman_i(g, PowerSumAlpha(terms=((1.0, 0.0, 0.0),)), horizons=(10**4,))
        assert p.verdict is SeriesVerdict.CONVERGES

    def test_carleman_borderline_power(self):
        # p - 3 gamma = 1 - 1.8 > -1: diverges
        g = PowerLogGrid(gamma=0.6)
        p = test_carleman_i(g, PowerSumAlpha(terms=((1.0, 1.0, 0.0),)), horizons=(10**4,))
        assert p.verdict is SeriesVerdict.DIVERGES

    def test_carleman_zero_coupling(self):
        g = PowerLogGrid(gamma=1.0)
        p = test_carleman_i(g, PowerSumAlpha(terms=((0.0, 0.0, 0.0),)), horizons=(10**4,))
        assert p.verdict is SeriesVerdict.CONVERGES
        assert p.witnesses["analytic"] == "zero coupling"

    def test_carleman_numeric_only_stays_unknown(self):
        g = PowerLogGrid(gamma=1.0)
        alpha = CustomAlpha(fn=lambda n: float(n), name="opaque")
        p = test_carleman_i(g, alpha, horizons=(10**3, 10**4))
        assert p.verdict is SeriesVerdict.UNKNOWN
        sums = [s for _, s in p.checkpoints]
        assert sums == sorted(sums)

    def test_condition_I_divergence(self):
        g = PowerLogGrid(gamma=0.75)
        p = test_condition_I(g, PowerSumAlpha(terms=((1.0, 2.0, 0.0),)), horizons=(10**4,))
        assert p.verdict is SeriesVerdict.DIVERGES
        assert p.witnesses["gate_failed"] is False

    def test_condition_I_gate_requires_regime(self):
        # summable gaps: outside the regime this test is allowed to use
        p = test_condition_I(
            PowerLogGrid(gamma=1.2), PowerSumAlpha(terms=((1.0, 2.0, 0.0),)),
            horizons=(10**4,),
        )
        assert p.witnesses["gate_failed"] is True
        # gaps not square-summable: same
        p = test_condition_I(
            PowerLogGrid(gamma=0.3), PowerSumAlpha(terms=((1.0, 2.0, 0.0),)),
            horizons=(10**4,),
        )
        assert p.witnesses["gate_failed"] is True

    @pytest.mark.parametrize(
        "grid",
        [
            PowerLogGrid(gamma=0.75),
            ConstantGrid(1.0),
            ExplicitGrid(values=(0.5, 0.25), tail="cycle"),
            CustomGrid(lambda n: 1.0 / n),
        ],
        ids=["power", "constant", "explicit", "custom"],
    )
    @pytest.mark.parametrize("coupling", ["critical", "power-sum", "zero"])
    def test_condition_I_verdict_is_carleman_verdict(self, grid, coupling):
        # the verdict never certifies from condition I: it can only
        # diverge where carleman-i already has
        alpha = {
            "critical": lambda: ScaledInverseGapsAlpha(grid, -0.5),
            "power-sum": lambda: PowerSumAlpha(terms=((1.0, 2.0, 0.0),)),
            "zero": lambda: PowerSumAlpha(terms=((0.0, 0.0, 0.0),)),
        }[coupling]()
        hs = (10**3,)
        assert test_condition_I(grid, alpha, hs).verdict is test_carleman_i(grid, alpha, hs).verdict


class TestEnvelopeBounds:
    def test_upper_bound_minimal_constant_exact(self):
        # alpha = -(2/d_n + 2/d_{n+1}) + 0.5 d_n sits exactly on C_1 = 0.5
        g = PowerLogGrid(gamma=0.75)
        alpha = CustomAlpha(
            fn=lambda n: -(2.0 / g.gap(n) + 2.0 / g.gap(n + 1)) + 0.5 * g.gap(n),
            name="critical-upper",
        )
        p = test_bound_II(g, alpha, N=10**4)
        assert p.holds is TriState.TRUE
        # the 2/d terms cancel in float, leaving ~1e-9 of rounding noise
        assert p.minimal_constant == pytest.approx(0.5, abs=1e-7)

    def test_upper_bound_violation_detected(self):
        g = PowerLogGrid(gamma=0.75)
        alpha = CustomAlpha(
            fn=lambda n: -(2.0 / g.gap(n) + 2.0 / g.gap(n + 1)) + math.sqrt(n),
            name="violating-upper",
        )
        p = test_bound_II(g, alpha, N=10**4)
        assert p.holds is TriState.FALSE
        assert p.drift > 0.05

    def test_lower_bound_minimal_constant_exact(self):
        g = PowerLogGrid(gamma=1.0)
        alpha = CustomAlpha(fn=lambda n: -0.25 * g.gap(n), name="critical-lower")
        p = test_bound_III(g, alpha, N=10**4)
        assert p.holds is TriState.TRUE
        assert p.minimal_constant == pytest.approx(0.25, abs=1e-12)

    def test_lower_bound_violation(self):
        g = PowerLogGrid(gamma=1.0)
        alpha = CustomAlpha(fn=lambda n: -math.sqrt(n), name="violating-lower")
        p = test_bound_III(g, alpha, N=10**4)
        assert p.holds is TriState.FALSE

    def test_bound_probe_reports_argmax(self):
        g = PowerLogGrid(gamma=0.75)
        alpha = CustomAlpha(
            fn=lambda n: -(2.0 / g.gap(n) + 2.0 / g.gap(n + 1)) + 0.5 * g.gap(n),
            name="critical-upper",
        )
        p = test_bound_II(g, alpha, N=10**4)
        assert "argmax" in p.witnesses
        assert p.witnesses["minimal_constant_nonneg"] >= 0.0


class TestConditionA:
    @pytest.mark.parametrize(
        "gamma,eta,want",
        [
            (1.0, 0.0, SeriesVerdict.CONVERGES),
            (0.4, 0.0, SeriesVerdict.DIVERGES),
            (0.5, 0.6, SeriesVerdict.CONVERGES),
            (0.5, 0.5, SeriesVerdict.DIVERGES),
        ],
    )
    def test_power_log_thresholds(self, gamma, eta, want):
        p = check_condition_A(PowerLogGrid(gamma=gamma, eta=eta), horizons=(10**4,))
        assert p.verdict is want

    def test_parity_floor_grids_diverge(self):
        p = check_condition_A(ConstantGrid(1.0), horizons=(10**4,))
        assert p.verdict is SeriesVerdict.DIVERGES
        p = check_condition_A(
            ExplicitGrid(values=(0.5, 0.25), tail="cycle"), horizons=(10**4,)
        )
        assert p.verdict is SeriesVerdict.DIVERGES
        # the saturation guard keeps checkpoints finite even when the
        # scaling sequence explodes along one parity
        assert all(math.isfinite(s) for _, s in p.checkpoints)


class TestConditionB:
    def test_harmonic_family_period_constants(self):
        b = check_condition_B(PowerLogGrid(gamma=1.0), horizon=10**5)
        assert b.holds is TriState.TRUE
        assert b.u.odd == pytest.approx(math.pi, abs=1e-8)
        assert b.u.even == pytest.approx(4.0 / math.pi, abs=1e-8)
        assert b.u.product == pytest.approx(4.0, abs=1e-9)

    def test_power_family_period_constants(self):
        gamma = 0.75
        b = check_condition_B(PowerLogGrid(gamma=gamma), horizon=10**5)
        assert b.holds is TriState.TRUE
        with mpmath.workdps(40):
            scale = 2 ** (1 - mpmath.mpf(repr(gamma)))
            want_odd = float(scale * mpmath.pi ** mpmath.mpf(repr(gamma)))
            want_even = float(scale * (4 / mpmath.pi) ** mpmath.mpf(repr(gamma)))
        assert b.u.odd == pytest.approx(want_odd, abs=1e-6)
        assert b.u.even == pytest.approx(want_even, abs=1e-6)

    def test_log_corrected_family_fails(self):
        b = check_condition_B(PowerLogGrid(gamma=1.0, eta=0.5), horizon=10**6)
        assert b.holds is TriState.FALSE
        assert b.window_sups[-1] > b.witnesses["ceiling"]

    def test_weak_log_correction_below_noise_floor(self):
        # eta = 0.25 deviates too slowly (like ln^{2 eta} n) to clear the
        # residual ceiling within float range; the probe reports true and
        # the deviation it misses is summable, so downstream verdicts are
        # unaffected
        b = check_condition_B(PowerLogGrid(gamma=1.0, eta=0.25), horizon=10**6)
        assert b.holds is TriState.TRUE

    def test_small_horizon_rejected(self):
        with pytest.raises(ValueError):
            check_condition_B(PowerLogGrid(gamma=1.0), horizon=100)

    def test_parity_unbalanced_rho_overflow_is_unknown(self):
        # the max/min gap ratio is 1.083, inside the phase-3 gate, but
        # rho_n leaves the float range along the odd parity
        g = CustomGrid(lambda n: (1.02 if n % 2 else 0.98) / n)
        b = check_condition_B(g, horizon=10**5)
        assert b.holds is TriState.UNKNOWN
        assert math.isinf(b.witnesses["parity_points"]["odd"][1][1])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_richardson_overflow_is_unknown(self):
        # at gamma = 600 the Richardson weight (n1/n0)^order leaves the
        # float range: the limit, and so condition B, is unknown
        b = check_condition_B(PowerLogGrid(gamma=600.0), horizon=300)
        assert b.holds is TriState.UNKNOWN
        assert math.isnan(b.u.odd) and math.isnan(b.u.even)


class TestGLimits:
    def test_nlog_eta_one(self):
        gl = verify_G_limits(PowerLogGrid(gamma=1.0, eta=1.0), horizon=10**5)
        assert gl.L1 == pytest.approx(0.25, abs=0.01)
        assert gl.L2 == pytest.approx(1.0, abs=0.02)
        assert gl.L3 == pytest.approx(0.25, abs=0.01)

    def test_nlog_fractional_eta(self):
        gl = verify_G_limits(PowerLogGrid(gamma=1.0, eta=0.6), horizon=10**5)
        assert gl.L1 == pytest.approx(0.25, abs=0.01)
        assert gl.L2 == pytest.approx(0.6, abs=0.02)
        # the third statistic is specific to eta = 1 and collapses otherwise
        assert abs(gl.L3) < 0.02

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_G_limits(PowerLogGrid(gamma=0.75), horizon=10**4)
        with pytest.raises(ValueError):
            verify_G_limits(PowerLogGrid(gamma=1.0, eta=0.0), horizon=10**4)
