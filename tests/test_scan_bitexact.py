"""The verdict's scans are bit-exact against their earlier bodies.

Condition B's residual scan, the envelope bound residuals,
ScaledInverseGapsAlpha.alphas, PowerSumAlpha.alphas and the Jacobi entry
blocks used to build every per-row quantity in a fresh temporary.  They now compute each one
once, in place, in arrays they allocated themselves, with every float
operation in its old operand order (an operand may be commuted, never
reassociated).  The references below are the earlier bodies, kept
verbatim; every array and every probe record must agree with them byte
for byte.  They read the log gaps and tilde blocks they share with the
scans, which tests/test_tilde_bitexact.py checks against their own
references.  A grid and a coupling that hand out read-only cached
arrays check that no scan writes into an array it borrowed.
"""

import math

import numpy as np
import pytest

from deltasa import (
    ConstantGrid,
    CustomGrid,
    ExplicitGrid,
    JacobiOperator,
    PowerLogGrid,
    PowerSumAlpha,
    ScaledInverseGapsAlpha,
    TildeSequence,
    TriState,
    VerdictConfig,
    check_condition_B,
    deficiency_verdict,
    test_bound_II,
    test_bound_III,
)
from deltasa import criteria
from deltasa.grid import GridError, GridSequence, rows
from deltasa.jacobi import AlphaSequence
from deltasa.numerics import tail_windows, window_sups

BLOCK = 1 << 15  # the probes' block length
LENGTHS = (1, 2, 4097, BLOCK)


# ---------------------------------------------------------------------------
# the earlier bodies


class ReferenceScaledAlpha(ScaledInverseGapsAlpha):
    def alphas(self, lo, hi):
        d = self.grid.gaps(lo, hi + 1)
        out = self.a * (1.0 / d[:-1] + 1.0 / d[1:])
        if self.perturbation is not None:
            out = out + self.perturbation.alphas(lo, hi)
        return out


class ReferencePowerSum(PowerSumAlpha):
    def alphas(self, lo, hi):
        if lo < 1 or hi < lo:
            raise GridError(f"bad alpha range [{lo}, {hi})")
        ns = rows(lo, hi)
        ln_n = np.log(ns)
        t = np.log(np.maximum(ns, 2.0))
        out = np.zeros_like(ns)
        with np.errstate(over="ignore"):  # a finite coupling may overflow the float range
            for c, p, q in self.terms:
                out += c * np.exp(p * ln_n + q * np.log(t))
        return out


class ReferenceOperator(JacobiOperator):
    def diag_block(self, lo, hi):
        d = self.grid.gaps(lo, hi + 1)
        alphas = self.coupling.alphas(lo, hi)
        return (alphas + 1.0 / d[:-1] + 1.0 / d[1:]) / (d[:-1] + d[1:])

    def off_block(self, lo, hi):
        d = self.grid.gaps(lo, hi + 2)
        r2 = d[:-1] + d[1:]  # r_n^2 for n = lo .. hi
        return -1.0 / (np.sqrt(r2[:-1] * r2[1:]) * d[1:-1])


def reference_bound_II_block(grid, alpha):
    def residual_block(a, b):
        d = grid.gaps(a, b + 1)
        dn, dn1 = d[:-1], d[1:]
        g = np.zeros(b - a)
        return (alpha.alphas(a, b) + 2.0 / dn + 2.0 / dn1 + g) / dn

    return residual_block


def reference_bound_III_block(grid, alpha):
    def residual_block(a, b):
        d = grid.gaps(a, b)
        g = np.zeros(b - a)
        return (g - alpha.alphas(a, b)) / d

    return residual_block


def reference_rho(grid, t, n):
    """rho(grid, n) read off the ladder t, which the scan under test never warmed."""
    inv_log = np.logaddexp(-grid.log_gap(n), -grid.log_gap(n + 1))
    try:
        return math.exp(float(inv_log) + 2.0 * t.log_abs(n))
    except OverflowError:
        return math.inf


def reference_condition_B_block(grid, t, u):
    def resid_block(a, b):
        d, ld = grid.gaps_and_logs(a, b + 1)
        inv = 1.0 / d[:-1] + 1.0 / d[1:]
        L = t.log_abs_block(a, b, ld)
        upar = u.block(a, b)
        # |rho - u|/(r rtilde)^2 computed in the well-scaled frame:
        # |(1/d_n + 1/d_{n+1}) - u e^{-2L}| / (d_n + d_{n+1})
        return np.abs(inv - upar * np.exp(-2.0 * L)) / (d[:-1] + d[1:])

    return resid_block


# ---------------------------------------------------------------------------
# inputs: each case is (grid, horizon)


def _custom_gap(n):
    return (1.0 + 0.25 * (n % 3)) * n**-0.8


POWER = [(g, e) for g in (0.55, 0.8, 1.0) for e in (0.0, 0.5, -0.5)] + [(0.0, 0.0), (-0.0, 0.0)]
OTHER = {
    "constant": ConstantGrid(0.7),
    "explicit-cycle": ExplicitGrid((0.5, 1.25, 0.8), tail="cycle"),
    "custom": CustomGrid(_custom_gap),
}
CASES = [pytest.param(PowerLogGrid(g, e, 0.75), 123457, id=f"power-{g!r}-{e!r}") for g, e in POWER] + [
    pytest.param(grid, 10**4, id=name) for name, grid in OTHER.items()
]
PERTURBATIONS = [None, PowerSumAlpha(((0.3, 0.2, 0.0), (-1.5, -0.4, 1.0)))]


def same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def direct_reads(grid):
    """Blocks from rows 1, 2 and 3; a CustomGrid, evaluated row by row in Python, skips the longest."""
    lengths = LENGTHS[:-1] if isinstance(grid, CustomGrid) else LENGTHS
    return [(lo, lo + m) for lo in (1, 2, 3) for m in lengths]


def scan(monkeypatch, probe, *args, **kwargs):
    """probe(...)'s result, the block function its window_sups scanned, and each (a, b, block) it saw."""
    seen, blocks = [], []

    def recording(block, lo, hi, windows):
        seen.append(block)

        def kept(a, b):
            vals = block(a, b)
            blocks.append((a, b, vals.copy()))
            return vals

        return window_sups(kept, lo, hi, windows)

    monkeypatch.setattr(criteria, "window_sups", recording)
    result = probe(*args, **kwargs)
    monkeypatch.undo()
    (block,) = seen
    return result, block, blocks


# ---------------------------------------------------------------------------
# the entry blocks


@pytest.mark.parametrize("pert", PERTURBATIONS, ids=["plain", "perturbed"])
@pytest.mark.parametrize("grid,H", CASES)
def test_alphas_and_entry_blocks_match_reference(grid, H, pert):
    for a in (-0.5, -3.0):
        alpha, ref_alpha = ScaledInverseGapsAlpha(grid, a, pert), ReferenceScaledAlpha(grid, a, pert)
        op, ref_op = JacobiOperator(grid, alpha), ReferenceOperator(grid, ref_alpha)
        for lo, hi in direct_reads(grid) + [(7, 7)]:
            same(alpha.alphas(lo, hi), ref_alpha.alphas(lo, hi))
            same(op.diag_block(lo, hi), ref_op.diag_block(lo, hi))
            same(op.off_block(lo, hi), ref_op.off_block(lo, hi))


POWER_SUMS = {
    "q-zero": ((0.3, 0.2, 0.0), (-1.5, -0.4, 0.0)),
    "q-nonzero": ((0.3, 0.2, 0.0), (-1.5, -0.4, 1.0)),
    "p-zero": ((2.5, 0.0, 0.0), (-0.75, 0.0, 2.0)),
    "q-negative": ((1.25, -0.5, -1.0), (0.5, 1.5, -2.5)),
    "minus-zero": ((-0.0, -1.0, -0.0), (3.0, -0.0, 0.5)),
    "c-overflows": ((1e300, 3.0, 0.0), (-2.0, 0.5, 0.0)),
    "exp-overflows": ((-1e-300, 400.0, 0.0), (1.0, 0.5, 1.0)),
}


@pytest.mark.parametrize("terms", POWER_SUMS.values(), ids=list(POWER_SUMS))
def test_power_sum_alphas_match_reference(terms):
    alpha, ref = PowerSumAlpha(terms), ReferencePowerSum(terms)
    for lo, hi in [(lo, lo + m) for lo in (1, 2, 3) for m in LENGTHS] + [(7, 7), (10**6 - 5, 10**6 + BLOCK)]:
        same(alpha.alphas(lo, hi), ref.alphas(lo, hi))


# ---------------------------------------------------------------------------
# the probes


@pytest.mark.parametrize("pert", PERTURBATIONS, ids=["plain", "perturbed"])
@pytest.mark.parametrize("grid,H", CASES)
def test_bound_residuals_match_reference(monkeypatch, grid, H, pert):
    N = 10**5 if isinstance(grid, PowerLogGrid) else 5000
    for a in (-0.5, -3.0):
        alpha, ref_alpha = ScaledInverseGapsAlpha(grid, a, pert), ReferenceScaledAlpha(grid, a, pert)
        params = {"grid": grid.describe(), "alpha": alpha.describe()}
        for test, probe, reference in (
            ("bound-II", test_bound_II, reference_bound_II_block),
            ("bound-III", test_bound_III, reference_bound_III_block),
        ):
            got, block, seen = scan(monkeypatch, probe, grid, alpha, N)
            ref_block = reference(grid, ref_alpha)
            want = criteria._bound_probe(test, params, 1, N, ref_block)
            assert repr(got.to_json()) == repr(want.to_json())
            assert [b - a for a, b, _ in seen][-1] < BLOCK  # a short last block
            for a0, b0, vals in seen:
                same(vals, ref_block(a0, b0))
            for lo, hi in direct_reads(grid):
                same(block(lo, hi), ref_block(lo, hi))


def check_condition_B_matches_reference(monkeypatch, grid, H):
    got, block, seen = scan(monkeypatch, check_condition_B, grid, H)
    t = TildeSequence(grid)
    for parity in ("odd", "even"):
        for n, r in got.witnesses["parity_points"][parity]:
            assert repr(reference_rho(grid, t, n)) == repr(r)
    ref_block = reference_condition_B_block(grid, t, got.u)
    windows = tail_windows(H)
    lo = windows[0][0]
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, want = window_sups(ref_block, lo, H + 1, windows)
        assert repr(got.window_sups) == repr(want)
        assert [a for a, _, _ in seen] == list(range(lo, H + 1, BLOCK))
        for a, b, vals in seen:
            same(vals, ref_block(a, b))
        # a block of the scan starts on the parity of its first row and
        # holds at most BLOCK rows, none past H
        for a, b in [(lo, lo + m) for m in LENGTHS] + [(lo + 2, lo + 4099)]:
            if b - a <= min(BLOCK, H + 1 - lo):
                same(block(a, b), ref_block(a, b))
    return got


@pytest.mark.parametrize("grid,H", CASES)
def test_condition_B_matches_reference(monkeypatch, grid, H):
    for h in sorted({300, 10**4, H}):
        check_condition_B_matches_reference(monkeypatch, grid, h)


def test_condition_B_overflow_matches_reference(monkeypatch):
    # parity-unbalanced: rho_n overflows, so the sups read inf and B unknown
    grid = ExplicitGrid((1.0, 1.01), tail="cycle")
    got = check_condition_B_matches_reference(monkeypatch, grid, 10**5)
    assert got.window_sups == (math.inf, math.inf)
    assert got.holds is TriState.UNKNOWN


# ---------------------------------------------------------------------------
# borrowed arrays


class CachedGrid(GridSequence):
    """A power grid whose gaps come from a cache, read-only."""

    def __init__(self, inner):
        self.inner, self._cache = inner, {}

    def gap(self, n):
        return self.inner.gap(n)

    def gaps(self, lo, hi):
        if (lo, hi) not in self._cache:
            arr = self.inner.gaps(lo, hi)
            arr.flags.writeable = False
            self._cache[(lo, hi)] = arr
        return self._cache[(lo, hi)]

    def order(self):
        return self.inner.order()


class CachedAlpha(AlphaSequence):
    """A coupling whose blocks come from a cache, read-only."""

    def __init__(self, inner):
        self.inner, self._cache = inner, {}

    def alpha(self, n):
        return self.inner.alpha(n)

    def alphas(self, lo, hi):
        if (lo, hi) not in self._cache:
            arr = self.inner.alphas(lo, hi)
            arr.flags.writeable = False
            self._cache[(lo, hi)] = arr
        return self._cache[(lo, hi)]

    def leading_term(self):
        return self.inner.leading_term()

    def scaled_gap_form(self):
        return self.inner.scaled_gap_form()


@pytest.mark.parametrize("a", [-0.5, 0.5, -3.0, -1.0])
def test_scans_never_write_into_borrowed_arrays(a):
    plain = PowerLogGrid(0.8, 0.0, 0.75)
    pert = PERTURBATIONS[1] if a == -3.0 else None
    grid = CachedGrid(plain)
    alpha = CachedAlpha(ScaledInverseGapsAlpha(grid, a, pert))
    cfg = VerdictConfig(horizons=(10**4, 10**5))
    got = deficiency_verdict(grid, alpha, cfg)
    want = deficiency_verdict(plain, ScaledInverseGapsAlpha(plain, a, pert), cfg)
    assert (got.verdict, got.certificate) == (want.verdict, want.certificate)
    op, ref_op = JacobiOperator(grid, alpha), JacobiOperator(plain, ScaledInverseGapsAlpha(plain, a, pert))
    same(op.diag_block(1, 5000), ref_op.diag_block(1, 5000))
    same(op.off_block(1, 5000), ref_op.off_block(1, 5000))
