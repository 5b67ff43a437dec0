"""One order rule: each gap family states d_n ~ c n^p (ln n)^q once, as
the Order that GridSequence.order() returns, and every closed-form
decision is one expression on Orders read through Order.summable(), the
Bertrand rule (sum n^P (ln n)^Q converges iff P < -1, or P = -1 and
Q < -1).

RECORDED holds the decisions the per-class isinstance ladders made
before order() replaced them: the summability classes, carleman-i's
verdict and exponent witness for two couplings, condition A's verdict
and witness, whether a 1/n perturbation of the scaled coupling is
O(d_n), and that coupling's leading term.  MOVED lists the only entries
that changed, each one an answer that used to be unknown or a string.
"""

import math

import numpy as np
import pytest

from deltasa import (
    AlphaZeroAlpha,
    ConstantGrid,
    CustomAlpha,
    CustomGrid,
    ExplicitGrid,
    GridError,
    Order,
    PeriodPair,
    PowerLogGrid,
    PowerSumAlpha,
    ScaledInverseGapsAlpha,
    VerdictConfig,
    check_condition_B,
    classify_summability,
    deficiency_verdict,
    test_carleman_i,
)
from deltasa.criteria import check_condition_A

VALUES = tuple(1.0 + 0.5 * (n % 3) for n in range(300))
GRIDS = {
    **{
        f"power-log({g}, {e})": PowerLogGrid(g, e)
        for g in (-0.5, 0.0, 0.5, 0.75, 1.0, 1.5)
        for e in (0.0, 0.5, 1.0, 1.2)
    },
    "constant(0.5)": ConstantGrid(0.5),
    "explicit-cycle": ExplicitGrid(VALUES, "cycle"),
    "explicit-hold": ExplicitGrid(VALUES, "hold"),
    "explicit-error": ExplicitGrid(VALUES, "error"),
    "custom": CustomGrid(lambda n: 1.0 / n),
}
LINEAR = PowerSumAlpha(((1.0, 1.0, 0.0),))  # alpha_n = n
PERT = PowerSumAlpha(((1.0, -1.0, 0.0),))  # 1/n


def _witness(w):
    return (w["P"], w["Q"]) if isinstance(w, dict) else w


def _bits(decision):
    """A (verdict, (P, Q)) decision with P and Q as float.hex, so that -0.0 and 0.0 differ."""
    if isinstance(decision, tuple) and len(decision) == 2 and isinstance(decision[1], tuple):
        return decision[0], tuple(x.hex() for x in decision[1])
    return decision


def decisions(grid):
    """(l1 class, l2 class, carleman-i on alpha_n = n, carleman-i on the scaled
    coupling a = -0.5, condition A, O(d) class of PERT, leading term)."""
    s = classify_summability(grid)
    carleman = [test_carleman_i(grid, alpha, (256,)) for alpha in (LINEAR, ScaledInverseGapsAlpha(grid, -0.5))]
    cond_a = check_condition_A(grid, (256,))
    scaled = ScaledInverseGapsAlpha(grid, -0.5, PERT)
    return (
        s.in_ell1.value,
        s.in_ell2.value,
        *((c.verdict.value, _witness(c.witnesses.get("analytic"))) for c in carleman),
        (cond_a.verdict.value, _witness(cond_a.witnesses.get("analytic"))),
        scaled.scaled_gap_form()[1].value,
        scaled.leading_term(),
    )


D, C, U = "diverges", "converges", "unknown"
FLOOR = "terms bounded below along a parity"
RECORDED = {
    "power-log(-0.5, 0.0)": ("false", "false", (D, (2.5, 0.0)), (D, (1.0, 0.0)), (D, (1.0, -0.0)), "true", Order(-1.0, -0.5, 0.0)),
    "power-log(-0.5, 0.5)": ("false", "false", (D, (2.5, -1.5)), (D, (1.0, -1.0)), (D, (1.0, -1.0)), "true", Order(-1.0, -0.5, 0.5)),
    "power-log(-0.5, 1.0)": ("false", "false", (D, (2.5, -3.0)), (D, (1.0, -2.0)), (D, (1.0, -2.0)), "true", Order(-1.0, -0.5, 1.0)),
    "power-log(-0.5, 1.2)": (
        "false", "false", (D, (2.5, -3.5999999999999996)), (D, (1.0, -2.3999999999999995)), (D, (1.0, -2.4)), "true",
        Order(-1.0, -0.5, 1.2),
    ),
    "power-log(0.0, 0.0)": ("false", "false", (D, (1.0, 0.0)), (D, (0.0, 0.0)), (D, (-0.0, -0.0)), "true", Order(-1.0, 0.0, 0.0)),
    "power-log(0.0, 0.5)": ("false", "false", (D, (1.0, -1.5)), (D, (0.0, -1.0)), (D, (-0.0, -1.0)), "true", Order(-1.0, 0.0, 0.5)),
    "power-log(0.0, 1.0)": ("false", "false", (D, (1.0, -3.0)), (D, (0.0, -2.0)), (D, (-0.0, -2.0)), "true", Order(-1.0, 0.0, 1.0)),
    "power-log(0.0, 1.2)": (
        "false", "false", (D, (1.0, -3.5999999999999996)), (D, (0.0, -2.3999999999999995)), (D, (-0.0, -2.4)), "true",
        Order(-1.0, 0.0, 1.2),
    ),
    "power-log(0.5, 0.0)": ("false", "false", (D, (-0.5, 0.0)), (D, (-1.0, 0.0)), (D, (-1.0, -0.0)), "true", Order(-1.0, 0.5, 0.0)),
    "power-log(0.5, 0.5)": ("false", "false", (D, (-0.5, -1.5)), (D, (-1.0, -1.0)), (D, (-1.0, -1.0)), "true", Order(-1.0, 0.5, 0.5)),
    "power-log(0.5, 1.0)": ("false", "true", (D, (-0.5, -3.0)), (C, (-1.0, -2.0)), (C, (-1.0, -2.0)), "true", Order(-1.0, 0.5, 1.0)),
    "power-log(0.5, 1.2)": (
        "false", "true", (D, (-0.5, -3.5999999999999996)), (C, (-1.0, -2.3999999999999995)), (C, (-1.0, -2.4)), "true",
        Order(-1.0, 0.5, 1.2),
    ),
    "power-log(0.75, 0.0)": ("false", "true", (C, (-1.25, 0.0)), (C, (-1.5, 0.0)), (C, (-1.5, -0.0)), "true", Order(-1.0, 0.75, 0.0)),
    "power-log(0.75, 0.5)": ("false", "true", (C, (-1.25, -1.5)), (C, (-1.5, -1.0)), (C, (-1.5, -1.0)), "true", Order(-1.0, 0.75, 0.5)),
    "power-log(0.75, 1.0)": ("false", "true", (C, (-1.25, -3.0)), (C, (-1.5, -2.0)), (C, (-1.5, -2.0)), "true", Order(-1.0, 0.75, 1.0)),
    "power-log(0.75, 1.2)": (
        "false", "true", (C, (-1.25, -3.5999999999999996)), (C, (-1.5, -2.3999999999999995)), (C, (-1.5, -2.4)), "true",
        Order(-1.0, 0.75, 1.2),
    ),
    "power-log(1.0, 0.0)": ("false", "true", (C, (-2.0, 0.0)), (C, (-2.0, 0.0)), (C, (-2.0, -0.0)), "true", Order(-1.0, 1.0, 0.0)),
    "power-log(1.0, 0.5)": ("false", "true", (C, (-2.0, -1.5)), (C, (-2.0, -1.0)), (C, (-2.0, -1.0)), "false", Order(-1.0, 1.0, 0.5)),
    "power-log(1.0, 1.0)": ("false", "true", (C, (-2.0, -3.0)), (C, (-2.0, -2.0)), (C, (-2.0, -2.0)), "false", Order(-1.0, 1.0, 1.0)),
    "power-log(1.0, 1.2)": (
        "true", "true", (C, (-2.0, -3.5999999999999996)), (C, (-2.0, -2.3999999999999995)), (C, (-2.0, -2.4)), "false",
        Order(-1.0, 1.0, 1.2),
    ),
    "power-log(1.5, 0.0)": ("true", "true", (C, (-3.5, 0.0)), (C, (-3.0, 0.0)), (C, (-3.0, -0.0)), "false", Order(-1.0, 1.5, 0.0)),
    "power-log(1.5, 0.5)": ("true", "true", (C, (-3.5, -1.5)), (C, (-3.0, -1.0)), (C, (-3.0, -1.0)), "false", Order(-1.0, 1.5, 0.5)),
    "power-log(1.5, 1.0)": ("true", "true", (C, (-3.5, -3.0)), (C, (-3.0, -2.0)), (C, (-3.0, -2.0)), "false", Order(-1.0, 1.5, 1.0)),
    "power-log(1.5, 1.2)": (
        "true", "true", (C, (-3.5, -3.5999999999999996)), (C, (-3.0, -2.3999999999999995)), (C, (-3.0, -2.4)), "false",
        Order(-1.0, 1.5, 1.2),
    ),
    "constant(0.5)": ("false", "false", (D, (1.0, 0.0)), (D, (0.0, 0.0)), (D, FLOOR), "true", Order(-2.0, 0.0, 0.0)),
    "explicit-cycle": ("false", "false", (D, (1.0, 0.0)), (U, None), (D, FLOOR), "unknown", None),
    "explicit-hold": ("false", "false", (D, (1.0, 0.0)), (U, None), (D, FLOOR), "unknown", None),
    "explicit-error": ("unknown", "unknown", (U, None), (U, None), (U, None), "unknown", None),
    "custom": ("unknown", "unknown", (U, None), (U, None), (U, None), "unknown", None),
}
# (grid, field index) -> the new answer: flat and cyclic grids get condition
# A's exponent witness, and a cycle or hold tail has a known order, so a
# perturbation of order 1/n is O(d_n) there
MOVED = {
    ("constant(0.5)", 4): (D, (0.0, 0.0)),
    ("explicit-cycle", 4): (D, (0.0, 0.0)),
    ("explicit-hold", 4): (D, (0.0, 0.0)),
    ("explicit-cycle", 5): "true",
    ("explicit-hold", 5): "true",
}


@pytest.mark.parametrize("label", sorted(GRIDS))
def test_decisions_match_the_recorded_ladders(label):
    want = list(RECORDED[label])
    for (name, i), new in MOVED.items():
        if name == label:
            want[i] = new
    # the JSON prints each witness's sign of zero, so compare the bits, not ==
    assert [_bits(d) for d in decisions(GRIDS[label])] == [_bits(d) for d in want]


def test_order_table():
    assert PowerLogGrid(0.75, 1.2).order() == Order(1.0, -0.75, -1.2)
    assert ConstantGrid(0.5).order() == Order(0.5, 0.0, 0.0)
    for tail in ("cycle", "hold"):
        assert ExplicitGrid(VALUES, tail).order() == Order(None, 0.0, 0.0)
    assert ExplicitGrid(VALUES, "error").order() is None
    assert CustomGrid(lambda n: 1.0 / n).order() is None


@pytest.mark.parametrize(
    "P,Q,converges",
    [(-1.5, 5.0, True), (-0.5, -5.0, False), (-1.0, -1.2, True), (-1.0, -1.0, False), (-1.0, 0.0, False)],
)
def test_bertrand_rule(P, Q, converges):
    assert Order(None, P, Q).summable() is converges


EXPONENTS = (0.0, -0.0, 1.2, -1.2, 0.5, -0.75, 1.0 / 3.0, -2.0, 7.3e-12)


@pytest.mark.parametrize("g", EXPONENTS)
def test_order_arithmetic_keeps_the_bits(g):
    # the witnesses carleman-i and condition A printed before Order:
    # P = p + 3.0 * g for the cubed gaps, and 2.0 * p for the squared ones
    order = Order(1.0, g, -g)
    for p in EXPONENTS:
        cubed = Order(-1.0, p, g) * order**3.0
        assert (cubed.p.hex(), cubed.q.hex()) == ((p + 3.0 * g).hex(), (g + 3.0 * -g).hex())
        assert cubed.c is None
    squared = order**2.0
    assert (squared.p.hex(), squared.q.hex(), squared.c) == ((2.0 * g).hex(), (2.0 * -g).hex(), None)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", range(3))
def test_non_finite_orders_raise(bad, slot):
    entries = [1.0, -0.5, 0.0]
    entries[slot] = bad
    with pytest.raises(GridError):
        Order(*entries)
    # CustomAlpha builds its Order when it is built, so no certificate reads a NaN or inf exponent
    with pytest.raises(GridError):
        CustomAlpha(lambda n: 0.0, leading=tuple(entries))
    if slot == 0:
        with pytest.raises(GridError):
            CustomAlpha(lambda n: 0.0, scaled_form=(bad, True))


# the Bertrand ties P = -1, end to end on alpha = 0: the squared gaps of
# n^-1/2 (ln n)^-1/2 diverge and those of n^-1/2 (ln n)^-0.6 converge, and
# the gaps of 1/(n (ln n)^1.2) converge and those of 1/(n ln n) diverge
TIES = {
    (0.5, 0.5): ("SelfAdjoint", "non-square-summable-gaps", False, ()),
    (0.5, 0.6): ("SelfAdjoint", "lower-envelope-bound", False, ()),
    (1.0, 1.2): ("Inconclusive", None, False, ("gaps-summable-outside-model",)),
    (1.0, 1.0): ("SelfAdjoint", "lower-envelope-bound", False, ()),  # alpha = 0 >= -C d_n
}


@pytest.mark.parametrize("gamma,eta", sorted(TIES))
def test_bertrand_ties_decide_the_verdict(gamma, eta):
    v = deficiency_verdict(PowerLogGrid(gamma, eta), PowerSumAlpha(((0.0, 0.0, 0.0),)), VerdictConfig((10**4, 10**5)))
    assert (v.verdict.value, v.certificate, v.advisory, v.flags) == TIES[gamma, eta]


@pytest.mark.parametrize("a", [-0.5, 1.5])
def test_alpha_zero_on_a_flat_grid_has_a_leading_term(a):
    grid = ConstantGrid(0.5)
    # on flat gaps rtilde_n^2 alternates 1, d^2 and u = (2/d, 2d): alpha0_n = 2a/d exactly
    alpha = AlphaZeroAlpha(grid, a, PeriodPair(odd=2.0 / grid.d, even=2.0 * grid.d))
    assert alpha.leading_term() == Order(2.0 * a / grid.d, 0.0, 0.0)
    assert np.allclose(alpha.alphas(1, 200), 2.0 * a / grid.d, rtol=1e-12)
    assert AlphaZeroAlpha(PowerLogGrid(0.8, 0.5), a, PeriodPair(1.0, 1.0)).leading_term() == Order(2.0 * a, 0.8, 0.5)
    assert AlphaZeroAlpha(ExplicitGrid(VALUES), a, PeriodPair(1.0, 1.0)).leading_term() is None
    assert AlphaZeroAlpha(grid, 0.0, PeriodPair(1.0, 1.0)).leading_term() is None


@pytest.mark.parametrize(
    "grid,order",
    [(PowerLogGrid(0.0), 1.0), (PowerLogGrid(-0.5), 1.0), (ConstantGrid(0.5), 1.0), (PowerLogGrid(0.75, 0.5), 1.5)],
)
def test_condition_B_richardson_order(grid, order):
    # -2p where the gaps decay (p < 0), else 1: gaps with gamma <= 0 no longer raise
    b = check_condition_B(grid, 4096)
    assert b.residual_order == order
    assert all(math.isfinite(x) and x > 0.0 for x in (b.u.odd, b.u.even))
