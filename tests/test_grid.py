"""Grid families: gap values, positions, summability, ratio diagnostics.

High-precision expectations are computed with mpmath at 40 digits inside
the test, then compared against the float path.
"""

import math

import mpmath
import numpy as np
import pytest

from deltasa import (
    ConstantGrid,
    CustomGrid,
    ExplicitGrid,
    GridError,
    PowerLogGrid,
    classify_summability,
    ratio_stats,
)
from deltasa.numerics import TriState


def mp_gap(gamma, eta, n):
    with mpmath.workdps(40):
        t = mpmath.log(n)
        return float(mpmath.exp(-gamma * t - eta * mpmath.log(t)))


class TestPowerLogGrid:
    def test_gap_matches_high_precision(self):
        g = PowerLogGrid(gamma=0.6, eta=0.3)
        for n in (2, 17, 1000, 999983):
            assert g.gap(n) == pytest.approx(mp_gap(0.6, 0.3, n), rel=5e-15)

    def test_first_gap_is_free_parameter(self):
        g = PowerLogGrid(gamma=1.0, eta=1.0, d1=2.5)
        assert g.gap(1) == 2.5
        assert g.log_gap(1) == math.log(2.5)

    def test_second_gap_of_nlog_profile(self):
        # 2^{-1} (ln 2)^{-1}
        g = PowerLogGrid(gamma=1.0, eta=1.0)
        assert g.gap(2) == pytest.approx(0.7213475204444817, rel=1e-14)
        assert g.gap(2) == pytest.approx(1.0 / (2.0 * math.log(2.0)), rel=1e-14)

    def test_block_fetch_matches_scalar(self):
        g = PowerLogGrid(gamma=0.75, eta=-0.4, d1=3.0)
        got = g.gaps(1, 30)
        want = np.array([g.gap(n) for n in range(1, 30)])
        np.testing.assert_allclose(got, want, rtol=1e-15)
        np.testing.assert_allclose(
            g.log_gaps(5, 25), [g.log_gap(n) for n in range(5, 25)], rtol=1e-14
        )

    def test_gap_log_ratio_consistency(self):
        g = PowerLogGrid(gamma=0.6, eta=0.3)
        for n, k in [(3, 1), (3, -1), (10, 2), (1000, 1)]:
            lr = g.gap_log_ratio_block(n, n + 1, k)
            assert lr is not None
            assert math.exp(lr[0]) == pytest.approx(g.gap(n + k) / g.gap(n), rel=1e-13)
        blk = g.gap_log_ratio_block(5, 15, 1)
        want = [g.gap(n + 1) / g.gap(n) for n in range(5, 15)]
        np.testing.assert_allclose(np.exp(blk), want, rtol=1e-13)

    def test_ratio_involving_first_gap_declines(self):
        g = PowerLogGrid(gamma=0.6)
        assert g.gap_log_ratio_block(1, 5, 1) is None
        assert g.gap_log_ratio_block(2, 5, -1) is None

    def test_r_convention(self):
        g = PowerLogGrid(gamma=0.75)
        assert g.r(0) == 1.0
        assert g.r(3) ** 2 == pytest.approx(g.gap(3) + g.gap(4), rel=1e-15)

    def test_bad_parameters_raise(self):
        with pytest.raises(GridError):
            PowerLogGrid(gamma=1.0, d1=0.0)
        with pytest.raises(GridError):
            PowerLogGrid(gamma=float("nan"))
        g = PowerLogGrid(gamma=1.0)
        with pytest.raises(GridError):
            g.gap(0)
        with pytest.raises(GridError):
            g.gaps(0, 5)


class TestOtherGrids:
    def test_constant(self):
        g = ConstantGrid(d=0.5)
        assert g.gap(1) == 0.5
        assert g.gap(10**6) == 0.5
        with pytest.raises(GridError):
            ConstantGrid(d=-1.0)

    def test_explicit_cycle(self):
        g = ExplicitGrid(values=(0.5, 0.25), tail="cycle")
        assert [g.gap(n) for n in range(1, 6)] == [0.5, 0.25, 0.5, 0.25, 0.5]
        np.testing.assert_allclose(g.gaps(1, 6), [0.5, 0.25, 0.5, 0.25, 0.5])

    def test_explicit_hold(self):
        g = ExplicitGrid(values=(0.5, 0.25), tail="hold")
        assert g.gap(9) == 0.25

    def test_explicit_error_tail(self):
        g = ExplicitGrid(values=(0.5, 0.25), tail="error")
        assert g.gap(2) == 0.25
        with pytest.raises(GridError):
            g.gap(3)

    def test_explicit_validation(self):
        with pytest.raises(GridError):
            ExplicitGrid(values=())
        with pytest.raises(GridError):
            ExplicitGrid(values=(0.5,), tail="wrap")
        with pytest.raises(GridError):
            ExplicitGrid(values=(0.5, -0.1))

    def test_custom_wraps_function(self):
        g = CustomGrid(fn=lambda n: 1.0 / (n + 1), name="shifted")
        assert g.gap(3) == 0.25
        assert g.describe()["family"] == "shifted"


class TestSummability:
    # exact threshold table for d_n = n^{-gamma} (ln n)^{-eta}
    TABLE = [
        # gamma, eta, in l1, in l2
        (1.2, 0.0, TriState.TRUE, TriState.TRUE),
        (1.0, 1.5, TriState.TRUE, TriState.TRUE),
        (1.0, 1.0, TriState.FALSE, TriState.TRUE),
        (1.0, 0.0, TriState.FALSE, TriState.TRUE),
        (0.75, 0.0, TriState.FALSE, TriState.TRUE),
        (0.5, 0.6, TriState.FALSE, TriState.TRUE),
        (0.5, 0.5, TriState.FALSE, TriState.FALSE),
        (0.5, 0.0, TriState.FALSE, TriState.FALSE),
        (0.3, 2.0, TriState.FALSE, TriState.FALSE),
    ]

    @pytest.mark.parametrize("gamma,eta,l1,l2", TABLE)
    def test_power_log_thresholds(self, gamma, eta, l1, l2):
        s = classify_summability(PowerLogGrid(gamma=gamma, eta=eta))
        assert s.in_ell1 is l1
        assert s.in_ell2 is l2

    def test_flat_and_cyclic_never_summable(self):
        s = classify_summability(ConstantGrid(1.0))
        assert s.in_ell1 is TriState.FALSE and s.in_ell2 is TriState.FALSE
        s = classify_summability(ExplicitGrid(values=(0.5, 0.25), tail="cycle"))
        assert s.in_ell1 is TriState.FALSE and s.in_ell2 is TriState.FALSE

    def test_partial_sum_witness_consistent(self):
        # square-summable family: partial sums of d^2 must stay under the
        # high-precision value of the full series
        g = PowerLogGrid(gamma=0.75)
        with mpmath.workdps(40):
            total = float(1.0 + mpmath.nsum(lambda n: n ** (-1.5), [2, mpmath.inf]))
        partial = float(np.sum(g.gaps(1, 10**4) ** 2))
        assert partial < total < partial + 0.03


class TestRatioStats:
    def test_power_log_ratio_tends_to_one(self):
        st = ratio_stats(PowerLogGrid(gamma=0.6), horizon=10**4)
        assert st.limit_estimate == pytest.approx(1.0, abs=1e-3)
        assert st.min_ratio <= st.limit_estimate <= st.max_ratio

    def test_constant_ratio_is_exactly_one(self):
        st = ratio_stats(ConstantGrid(2.0), horizon=10**3)
        assert st.limit_estimate == 1.0
        assert st.max_ratio == 1.0 and st.min_ratio == 1.0

    def test_cyclic_ratio_oscillates(self):
        st = ratio_stats(ExplicitGrid(values=(0.5, 0.25), tail="cycle"), horizon=10**3)
        assert st.max_ratio == pytest.approx(2.0)
        assert st.min_ratio == pytest.approx(0.5)
