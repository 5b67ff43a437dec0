"""Structural invariants checked over randomized inputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltasa import (
    JacobiOperator,
    PowerLogGrid,
    PowerSumAlpha,
    ScaledInverseGapsAlpha,
    TildeSequence,
    VerdictConfig,
    deficiency_verdict,
    solve_recurrence,
)
from deltasa.numerics import HORIZONS, TriState

gammas = st.floats(min_value=0.3, max_value=1.6, allow_nan=False)
etas = st.floats(min_value=-1.0, max_value=1.5, allow_nan=False)
sites = st.integers(min_value=1, max_value=400)


@settings(max_examples=60, deadline=None)
@given(gamma=gammas, eta=etas, n=sites)
def test_r_squared_is_gap_sum(gamma, eta, n):
    g = PowerLogGrid(gamma=gamma, eta=eta)
    assert g.r(n) ** 2 == pytest.approx(g.gap(n) + g.gap(n + 1), rel=1e-12)
    assert g.r(0) == 1.0


@settings(max_examples=40, deadline=None)
@given(gamma=gammas, n=st.integers(min_value=1, max_value=300))
def test_tilde_sign_follows_parity(gamma, n):
    t = TildeSequence(PowerLogGrid(gamma=gamma))
    assert math.copysign(1.0, t.value(n)) == (1.0 if n % 2 == 1 else -1.0)


@settings(max_examples=25, deadline=None)
@given(gamma=gammas, eta=st.floats(min_value=-0.5, max_value=0.5, allow_nan=False))
def test_tilde_closed_form_tracks_recursion(gamma, eta):
    g = PowerLogGrid(gamma=gamma, eta=eta)
    t = TildeSequence(g)
    r = 1.0
    for k in range(2, 601):
        r = -g.gap(k) / r
    assert t.value(600) == pytest.approx(r, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    gamma=gammas,
    n=st.integers(min_value=2, max_value=1000),
    k=st.integers(min_value=-1, max_value=3),
)
def test_gap_log_ratio_is_a_log_ratio(gamma, n, k):
    g = PowerLogGrid(gamma=gamma, eta=0.2)
    if n + k < 2:
        return
    lr = g.gap_log_ratio_block(n, n + 1, k)[0]
    assert math.exp(lr) == pytest.approx(g.gap(n + k) / g.gap(n), rel=1e-11)


@settings(max_examples=20, deadline=None)
@given(
    gamma=st.sampled_from([0.6, 0.75, 1.0]),
    a=st.floats(min_value=-2.2, max_value=0.8, allow_nan=False),
    size=st.integers(min_value=4, max_value=32),
)
def test_truncation_is_symmetric_tridiagonal(gamma, a, size):
    g = PowerLogGrid(gamma=gamma)
    op = JacobiOperator(g, ScaledInverseGapsAlpha(g, a))
    M = op.truncate(size)
    assert M.shape == (size, size)
    np.testing.assert_array_equal(M, M.T)
    assert np.all(np.triu(M, 2) == 0.0)


@settings(max_examples=15, deadline=None)
@given(
    terms=st.lists(
        st.tuples(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            st.floats(min_value=-2, max_value=2, allow_nan=False),
            st.floats(min_value=-1, max_value=1, allow_nan=False),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_power_sum_block_matches_scalar(terms):
    a = PowerSumAlpha(terms=tuple(terms))
    blk = a.alphas(2, 40)
    for i, n in enumerate(range(2, 40)):
        assert blk[i] == pytest.approx(a.alpha(n), rel=1e-10, abs=1e-12)


@settings(max_examples=8, deadline=None)
@given(
    gamma=st.sampled_from([0.75, 1.0]),
    a=st.floats(min_value=-2.2, max_value=0.8, allow_nan=False),
)
def test_recurrence_rows_are_satisfied(gamma, a):
    g = PowerLogGrid(gamma=gamma)
    op = JacobiOperator(g, ScaledInverseGapsAlpha(g, a))
    sol = solve_recurrence(op, 1j, 4096)
    assert sol.residual_max < 1e-8


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    gamma=st.floats(min_value=0.55, max_value=1.0, exclude_min=True),
    # [-4, 2] at least 1e-3 away from the band edges a = -2 and a = 0
    a=st.floats(-4.0, -2.001) | st.floats(-1.999, -0.001) | st.floats(0.001, 2.0),
    d1=st.floats(min_value=0.5, max_value=2.0),
    pert=st.none() | st.tuples(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=0.0, max_value=1.0)),
)
def test_verdict_is_stable_along_the_ladder(gamma, a, d1, pert):
    # a critical coupling, optionally perturbed by c/n^p with p >= gamma
    # (an O(d_n) term): the short ladder and the default one must give
    # the same decision
    g = PowerLogGrid(gamma=gamma, d1=d1)
    p = None if pert is None else PowerSumAlpha(((pert[0], -(gamma + pert[1]), 0.0),))
    alpha = ScaledInverseGapsAlpha(g, a, perturbation=p)
    short, full = (deficiency_verdict(g, alpha, VerdictConfig(hs)) for hs in ((10**4, 10**5), HORIZONS))
    decision = lambda v: (v.verdict, v.certificate, v.advisory, v.flags)  # noqa: E731
    assert decision(short) == decision(full)


def test_tristate_has_no_truth_value():
    with pytest.raises(TypeError):
        bool(TriState.TRUE)
    with pytest.raises(TypeError):
        if TriState.UNKNOWN:  # pragma: no cover
            pass
    assert TriState.of(True) is TriState.TRUE
    assert TriState.of(False) is TriState.FALSE
