"""Jacobi matrix construction, the alternating scaling sequence, and
coupling families.

Matrix entries are cross-checked against a 40-digit mpmath evaluation
of the defining formulas.
"""

import math

import mpmath
import numpy as np
import pytest

from deltasa import (
    AlphaZeroAlpha,
    ConstantGrid,
    CustomAlpha,
    CustomGrid,
    ExplicitAlpha,
    GridError,
    JacobiOperator,
    Order,
    PeriodPair,
    PowerLogGrid,
    PowerSumAlpha,
    ScaledInverseGapsAlpha,
    TildeSequence,
    rho,
    rho_block,
    scaled_operator,
)
from deltasa.jacobi import alpha_zero, tilde_r
from deltasa.numerics import TriState


class TestTildeSequence:
    def test_exact_rationals_for_harmonic_gaps(self):
        # d_n = 1/n: the recursion r~_{n+1} = -d_{n+1}/r~_n gives
        # 1, -1/2, 2/3, -3/8 at the start
        t = TildeSequence(PowerLogGrid(gamma=1.0))
        want = [1.0, -0.5, 2.0 / 3.0, -0.375]
        for n, w in enumerate(want, start=1):
            assert t.value(n) == pytest.approx(w, rel=1e-14)
        assert [math.copysign(1.0, t.value(n)) for n in (1, 2, 3, 4)] == [1.0, -1.0, 1.0, -1.0]

    def test_fifth_value_power_grid(self):
        # telescoped product (d_3 d_5)/(d_2 d_4) = (8/15)^gamma
        t = TildeSequence(PowerLogGrid(gamma=0.6))
        assert t.value(5) == pytest.approx(0.6858027729006722, rel=1e-13)
        with mpmath.workdps(40):
            want = float((mpmath.mpf(8) / 15) ** mpmath.mpf("0.6"))
        assert t.value(5) == pytest.approx(want, rel=1e-13)

    def test_closed_form_matches_direct_recursion(self):
        g = PowerLogGrid(gamma=0.75)
        t = TildeSequence(g)
        r = 1.0
        for k in range(2, 5001):
            r = -g.gap(k) / r
        assert t.value(5000) == pytest.approx(r, rel=1e-10)

    def test_blocks_match_scalars(self):
        t = TildeSequence(PowerLogGrid(gamma=0.6, eta=0.3))
        for lo, hi in [(1, 40), (1000, 1080)]:
            la = t.log_abs_block(lo, hi)
            for i, n in enumerate(range(lo, hi)):
                assert la[i] == pytest.approx(t.log_abs(n), abs=1e-12)

    def test_module_helper(self):
        g = PowerLogGrid(gamma=1.0)
        t = TildeSequence(g)
        assert tilde_r(g, 4) == pytest.approx(-0.375, rel=1e-14)
        assert tilde_r(g, 4, tilde=t) == t.value(4)


class TestRho:
    def test_first_value_harmonic_gaps(self):
        # (1/d_1 + 1/d_2) r~_1^2 = (1 + 2) * 1
        assert rho(PowerLogGrid(gamma=1.0), 1) == pytest.approx(3.0, rel=1e-14)

    def test_flat_grid_period_two(self):
        g = ConstantGrid(0.5)
        vals = rho_block(g, 1, 9)
        np.testing.assert_allclose(vals[0::2], 4.0, rtol=1e-12)
        np.testing.assert_allclose(vals[1::2], 1.0, rtol=1e-12)

    def test_block_matches_scalar(self):
        g = PowerLogGrid(gamma=0.75, eta=0.2)
        t = TildeSequence(g)
        blk = rho_block(g, 3, 20, t)
        for i, n in enumerate(range(3, 20)):
            assert blk[i] == pytest.approx(rho(g, n, t), rel=1e-12)

    def test_overflow_reads_inf(self):
        # parity-unbalanced gaps: 2 log|rtilde_n| ~ 0.04 n along the odd
        # parity, so exp overflows near n = 18000
        g = CustomGrid(lambda n: (1.02 if n % 2 else 0.98) / n)
        t = TildeSequence(g)
        assert math.isfinite(rho(g, 1001, t))
        assert rho(g, 20001, t) == math.inf


class TestPeriodPair:
    def test_parity_addressing(self):
        u = PeriodPair(odd=3.0, even=1.5)
        assert u.at(1) == 3.0 and u.at(2) == 1.5 and u.at(7) == 3.0
        np.testing.assert_allclose(u.block(1, 5), [3.0, 1.5, 3.0, 1.5])
        assert u.product == 4.5
        assert u.to_json() == {"odd": 3.0, "even": 1.5, "product": 4.5}


class TestAlphaFamilies:
    def test_power_sum_values(self):
        a = PowerSumAlpha(terms=((2.0, 1.0, 0.0), (-1.0, 0.0, 0.0)))
        assert a.alpha(7) == pytest.approx(13.0, rel=1e-15)
        np.testing.assert_allclose(a.alphas(1, 6), [1, 3, 5, 7, 9], rtol=1e-15)

    def test_power_sum_log_term(self):
        a = PowerSumAlpha(terms=((3.0, 0.5, 2.0),))
        with mpmath.workdps(40):
            want = float(3 * mpmath.sqrt(7) * mpmath.log(7) ** 2)
        assert a.alpha(7) == pytest.approx(want, rel=1e-14)

    def test_power_sum_leading_term(self):
        a = PowerSumAlpha(terms=((5.0, 0.0, 0.0), (1.0, 1.0, 0.0)))
        assert a.leading_term() == Order(1.0, 1.0, 0.0)
        merged = PowerSumAlpha(terms=((1.0, 1.0, 0.0), (2.0, 1.0, 0.0)))
        assert merged.leading_term() == Order(3.0, 1.0, 0.0)

    def test_scaled_inverse_gaps_values(self):
        g = PowerLogGrid(gamma=1.0)
        a = ScaledInverseGapsAlpha(g, -0.5)
        # 1/d_1 + 1/d_2 = 1 + 2
        assert a.alpha(1) == pytest.approx(-1.5, rel=1e-14)
        pert = PowerSumAlpha(terms=((1.0, -1.0, 0.0),))
        ap = ScaledInverseGapsAlpha(g, -0.5, perturbation=pert)
        assert ap.alpha(1) == pytest.approx(-0.5, rel=1e-14)
        np.testing.assert_allclose(
            ap.alphas(2, 10),
            [a.alpha(n) + 1.0 / n for n in range(2, 10)],
            rtol=1e-13,
        )

    def test_scaled_form_perturbation_order(self):
        g = PowerLogGrid(gamma=1.0)
        small = ScaledInverseGapsAlpha(
            g, -0.5, perturbation=PowerSumAlpha(terms=((1.0, -1.0, 0.0),))
        )
        a, order = small.scaled_gap_form()
        assert a == -0.5 and order is TriState.TRUE
        big = ScaledInverseGapsAlpha(
            g, -0.5, perturbation=PowerSumAlpha(terms=((1.0, 0.5, 0.0),))
        )
        assert big.scaled_gap_form()[1] is TriState.FALSE

    def test_scaled_leading_term(self):
        g = PowerLogGrid(gamma=1.0)
        a = ScaledInverseGapsAlpha(g, -0.5)
        assert a.leading_term() == Order(-1.0, 1.0, 0.0)

    def test_alpha_zero_first_value(self):
        g = PowerLogGrid(gamma=1.0)
        u = PeriodPair(odd=math.pi, even=4.0 / math.pi)
        az = AlphaZeroAlpha(g, a=-0.5, u=u)
        with mpmath.workdps(40):
            want = float(-3 + mpmath.pi / 2)
        assert az.alpha(1) == pytest.approx(want, rel=1e-13)
        assert alpha_zero(g, -0.5, u, 1) == pytest.approx(az.alpha(1), rel=1e-15)

    def test_explicit_alpha_tails(self):
        a = ExplicitAlpha(values=(1.0, 2.0), tail="cycle")
        assert a.alpha(3) == 1.0 and a.alpha(4) == 2.0
        assert a.leading_term() is None  # oscillating tail has no single order
        hold = ExplicitAlpha(values=(1.0, 2.0), tail="hold")
        assert hold.alpha(9) == 2.0
        assert hold.leading_term() == Order(2.0, 0.0, 0.0)
        zero = ExplicitAlpha(values=(0.0, 0.0), tail="cycle")
        assert zero.leading_term() == Order(0.0, 0.0, 0.0)
        err = ExplicitAlpha(values=(1.0,), tail="error")
        with pytest.raises(GridError):
            err.alpha(2)

    def test_custom_alpha(self):
        a = CustomAlpha(fn=lambda n: 1.0 / n, name="reciprocal")
        assert a.alpha(4) == 0.25
        assert a.leading_term() is None

    @pytest.mark.parametrize("tail", ["cycle", "hold", "error"])
    def test_explicit_alpha_block_matches_points(self, tail):
        a = ExplicitAlpha(values=(1.0, -2.0, 0.5), tail=tail)
        top = 4 if tail == "error" else 11
        assert a.alphas(1, top).tolist() == [a.alpha(n) for n in range(1, top)]
        if tail == "error":
            with pytest.raises(GridError):
                a.alphas(2, 5)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_couplings_reject_non_finite_numbers(self, bad):
        g = PowerLogGrid(gamma=1.0)
        for build in (
            lambda: PowerSumAlpha(terms=((1.0, bad, 0.0),)),
            lambda: ScaledInverseGapsAlpha(g, bad),
            lambda: ExplicitAlpha(values=(1.0, bad)),
        ):
            with pytest.raises(GridError, match="finite"):
                build()
        a = CustomAlpha(fn=lambda n: bad if n == 3 else 0.0)
        assert a.alpha(2) == 0.0
        with pytest.raises(GridError, match="non-finite"):
            a.alphas(1, 5)


class TestJacobiOperator:
    def test_frozen_first_entries(self):
        g = PowerLogGrid(gamma=1.0)
        op = JacobiOperator(g, PowerSumAlpha(terms=((0.0, 0.0, 0.0),)))
        # (0 + 1 + 2) / (1 + 1/2)
        assert op.entry(1, 1) == pytest.approx(2.0, rel=1e-14)
        assert op.entry(1, 3) == 0.0

    def test_flat_grid_entries(self):
        op = JacobiOperator(ConstantGrid(1.0), PowerSumAlpha(terms=((0.0, 0.0, 0.0),)))
        for n in (1, 2, 9):
            assert op.diag(n) == pytest.approx(1.0, rel=1e-14)
            assert op.off(n) == pytest.approx(-0.5, rel=1e-14)
            assert op.entry(n, n + 1) == op.off(n)
            assert op.entry(n + 1, n) == op.off(n)

    def test_entries_match_high_precision(self):
        gamma = 0.75
        g = PowerLogGrid(gamma=gamma)
        a = -0.5
        op = JacobiOperator(g, ScaledInverseGapsAlpha(g, a))
        with mpmath.workdps(40):
            def d(k):
                return mpmath.mpf(1) if k == 1 else mpmath.mpf(k) ** (-gamma)

            for n in (1, 5, 40):
                inv = 1 / d(n) + 1 / d(n + 1)
                want_diag = float((a * inv + inv) / (d(n) + d(n + 1)))
                r_n = mpmath.sqrt(d(n) + d(n + 1))
                r_n1 = mpmath.sqrt(d(n + 1) + d(n + 2))
                want_off = float(-1 / (r_n * r_n1 * d(n + 1)))
                assert op.diag(n) == pytest.approx(want_diag, rel=1e-12)
                assert op.off(n) == pytest.approx(want_off, rel=1e-12)

    def test_blocks_match_scalars(self):
        g = PowerLogGrid(gamma=0.6, eta=0.4)
        op = JacobiOperator(g, PowerSumAlpha(terms=((1.0, 0.5, 0.0),)))
        np.testing.assert_allclose(
            op.diag_block(2, 30), [op.diag(n) for n in range(2, 30)], rtol=1e-13
        )
        np.testing.assert_allclose(
            op.off_block(2, 30), [op.off(n) for n in range(2, 30)], rtol=1e-13
        )

    def test_truncate(self):
        g = PowerLogGrid(gamma=0.75)
        op = JacobiOperator(g, ScaledInverseGapsAlpha(g, -0.5))
        M = op.truncate(12)
        assert M.shape == (12, 12)
        np.testing.assert_array_equal(M, M.T)
        # tridiagonal: nothing beyond the first off-diagonal
        assert np.all(np.triu(M, 2) == 0.0)
        ev = np.linalg.eigvalsh(M)
        assert np.all(np.isfinite(ev))
        assert M[0, 0] == op.diag(1) and M[3, 4] == op.off(4)


class TestScaledOperator:
    def test_off_diagonal_becomes_unit(self):
        g = PowerLogGrid(gamma=0.75)
        alpha = ScaledInverseGapsAlpha(g, -0.5)
        t = TildeSequence(g)
        for n in (1, 2, 17, 200):
            _, off_s = scaled_operator(g, alpha, n, tilde=t)
            assert off_s == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_matches_direct_formula(self):
        g = PowerLogGrid(gamma=1.0)
        alpha = ScaledInverseGapsAlpha(g, -0.5)
        t = TildeSequence(g)
        for n in (1, 2, 10, 49):
            diag_s, _ = scaled_operator(g, alpha, n, tilde=t)
            inv = 1.0 / g.gap(n) + 1.0 / g.gap(n + 1)
            want = (alpha.alpha(n) + inv) * t.value(n) ** 2
            assert diag_s == pytest.approx(want, rel=1e-10)

    def test_diagonal_hits_period_two_limit_for_aligned_coupling(self):
        # with the gauge-aligned coupling the scaled diagonal is exactly
        # (a+1) u_n
        g = PowerLogGrid(gamma=1.0)
        u = PeriodPair(odd=math.pi, even=4.0 / math.pi)
        alpha = AlphaZeroAlpha(g, a=-0.5, u=u)
        t = TildeSequence(g)
        for n in (1, 2, 55, 400):
            diag_s, _ = scaled_operator(g, alpha, n, tilde=t)
            assert diag_s == pytest.approx(0.5 * u.at(n), rel=1e-10)
