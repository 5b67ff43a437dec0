"""The recurrence oracle is bit-exact against its numpy-scalar reference.

solve_recurrence marches rows as Python floats, a (re, im) pair per row
for nonreal lambda, and reads the block masses, residuals and head off
each chunk with numpy.  The reference below is the earlier loop that
marched the same rows on numpy scalars, one row and all its bookkeeping
per iteration, kept here verbatim but for the cap on a rescale's shift,
which both loops share; every float of the serialised
solution must agree byte for byte.  The cases include rescale-heavy
marches and rescales on a block edge and on a residual row.  The
float-pair step is also checked against the complex-scalar step on
signed zeros, infinities, nans and subnormals, bit for bit but for the
sign of a nan, which no output shows; and np.hypot against Python's
abs() of a complex.
"""

import dataclasses
import inspect
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltasa import (
    ConstantGrid,
    CustomGrid,
    JacobiOperator,
    PowerLogGrid,
    PowerSumAlpha,
    ScaledInverseGapsAlpha,
)
from deltasa import deficiency
from deltasa.deficiency import _CHUNK, RecurrenceSolution, solve_recurrence

_SCALE_UP = 2.0**100
_SCALE_DOWN = 2.0**-100
_SHIFT_MAX_BITS = 511


def reference_solve(op, lam, N, keep=4096, residual_stride=997):
    """The numpy-scalar march, one row per iteration."""
    complex_lam = isinstance(lam, complex) and lam.imag != 0.0
    lam_c = complex(lam) if complex_lam else float(lam)
    dtype = np.complex128 if complex_lam else np.float64
    keep = min(keep, N)

    head = np.empty(keep, dtype=dtype)
    h_prev = 1.0 + 0.0j if complex_lam else 1.0
    head[0] = h_prev
    diag1 = op.diag(1)
    off1 = op.off(1)
    h_cur = -(diag1 - lam_c) * h_prev / off1
    if keep > 1:
        head[1] = h_cur

    sigma = 0.0
    scale_events = 0
    residual_max = 0.0
    last_rescale = 1
    first_rescale = N + 1

    block_logs = []
    acc = abs(h_prev) ** 2
    cur_block = 0

    chunk = 1 << 14
    n = 1
    while n < N - 1:
        hi = min(n + chunk, N - 1)
        diags = op.diag_block(n + 1, hi + 1)
        offs_prev = op.off_block(n, hi)
        offs_cur = op.off_block(n + 1, hi + 1)
        for j in range(hi - n):
            m = n + 1 + j
            b = m.bit_length() - 1
            if b != cur_block:
                block_logs.append((cur_block, math.log(acc) + 2.0 * sigma if acc > 0.0 else -math.inf))
                acc = 0.0
                cur_block = b
            a = abs(h_cur)
            acc += a * a
            h_next = ((lam_c - diags[j]) * h_cur - offs_prev[j] * h_prev) / offs_cur[j]
            if residual_stride and m % residual_stride == 0 and m - last_rescale > 1:
                row = offs_prev[j] * h_prev + (diags[j] - lam_c) * h_cur + offs_cur[j] * h_next
                scale = abs(offs_prev[j] * h_prev) + abs((diags[j] - lam_c) * h_cur) + abs(
                    offs_cur[j] * h_next
                )
                if scale > 0.0:
                    residual_max = max(residual_max, abs(row) / scale)
            h_prev, h_cur = h_cur, h_next
            if m + 1 < keep + 1:
                head[m] = h_cur
            peak = max(abs(h_cur), abs(h_prev))
            if peak > _SCALE_UP or (0.0 < peak < _SCALE_DOWN):
                shift = math.ldexp(1.0, min(-int(math.frexp(peak)[1]), _SHIFT_MAX_BITS))
                h_prev *= shift
                h_cur *= shift
                acc *= shift * shift
                sigma -= math.log(shift)
                scale_events += 1
                last_rescale = m
                first_rescale = min(first_rescale, m)
        n = hi
    b = N.bit_length() - 1
    if b != cur_block:
        block_logs.append((cur_block, math.log(acc) + 2.0 * sigma if acc > 0.0 else -math.inf))
    else:
        acc += abs(h_cur) ** 2
        if N == (1 << (cur_block + 1)) - 1:
            block_logs.append((cur_block, math.log(acc) + 2.0 * sigma if acc > 0.0 else -math.inf))
    return RecurrenceSolution(
        lam=lam_c if complex_lam else complex(lam_c, 0.0),
        horizon=N,
        head=head,
        block_log_masses=tuple(block_logs),
        scale_events=scale_events,
        residual_max=residual_max,
        meta={"keep": keep, "residual_stride": residual_stride, "head_pure_until": min(first_rescale, keep)},
    )


def dump(sol):
    return json.dumps(sol.to_json(), sort_keys=True)


def solve(op, lam, N, keep=4096, residual_stride=997):
    """solve_recurrence with its head length and residual stride set to these for the call."""
    with mock.patch.multiple(deficiency, _HEAD_KEEP=keep, _RESIDUAL_STRIDE=residual_stride):
        return solve_recurrence(op, lam, N)


def scaled(gamma, a, d1=1.0, pert=None):
    g = PowerLogGrid(gamma=gamma, d1=d1)
    return JacobiOperator(g, ScaledInverseGapsAlpha(g, a, perturbation=pert))


class ArrayOperator:
    """diag(n) and off(n) read from two arrays, n = 1, 2, ..."""

    def __init__(self, diag, off):
        self.d, self.o = np.array(diag), np.array(off)

    def diag(self, n):
        return float(self.d[n - 1])

    def off(self, n):
        return float(self.o[n - 1])

    def diag_block(self, lo, hi):
        return self.d[lo - 1 : hi - 1].copy()

    def off_block(self, lo, hi):
        return self.o[lo - 1 : hi - 1].copy()

    def _march_blocks(self, lo, hi):
        return self.diag_block(lo + 1, hi), self.off_block(lo, hi)


# --gamma 0.8396 --d1 1.6128 --alpha=-1.0*(1/d_n+1/d_{n+1}): diag(1) == 0
# and off < 0, so conj(h(+i)) carries 0.0 where the -i march gives -0.0
SIGNED_ZERO = scaled(0.8396, -1.0, d1=1.6128)
CHECK_7 = JacobiOperator(
    PowerLogGrid(1.0, 0.0, 1.0), PowerSumAlpha(terms=((-2.0, 1.0, 0.0), (-1.0, 0.0, 0.0)))
)
GROWING = scaled(1.0, 0.5)
# d = 2, alpha = -1: diag(n) == 0 exactly, so numerators carry -0.0 and
# only the signed-zero ratio of numpy's complex / real division gets
# their signs right
ZERO_DIAG = JacobiOperator(ConstantGrid(d=2.0), PowerSumAlpha(terms=((-1.0, 0.0, 0.0),)))
# 2941 rescales in 10^5 rows at lambda = +i, 293 in 10^4 rows at lambda = 0
HEAVY = scaled(1.0, 3.0)
# gaps 0.9^n make |off(n)| grow geometrically, so the forward solution
# decays through 2^-100: its four rescales come from below
GEOMETRIC = CustomGrid(lambda n: 0.9**n)
DECAYING = JacobiOperator(GEOMETRIC, ScaledInverseGapsAlpha(GEOMETRIC, -0.5))
# alpha = 2e-4 on ZERO_DIAG's grid puts lambda = 0 just outside the band:
# h grows by about 2% a row, so a rescale row is barely past 2^100
SLOW_GROWTH = JacobiOperator(ConstantGrid(d=2.0), PowerSumAlpha(terms=((2e-4, 0.0, 0.0),)))
# alpha(1) = 1e40 on ZERO_DIAG's grid: h_2 = 2e40 but h_3 = -1 at lambda = 0,
# so only the first row's exact test, which reads |h_2|, rescales
HUGE_H2 = JacobiOperator(ConstantGrid(d=2.0), PowerSumAlpha(terms=((-1.0, 0.0, 0.0), (1e40, -400.0, 0.0))))

def spiked(m, n=6000):
    """diag 0.25 and off -64 keep |h| at lambda = +i within 2^100 for 6000 rows;
    off(m) = -1e-40 multiplies h_{m+1} by about 1e40, a rescale on row m.
    Row 2050 is the first row of the march's second chunk, row 4097 its last."""
    off = [-64.0] * (n + 2)
    off[m - 1] = -1e-40
    return ArrayOperator([0.25] * (n + 2), off)


# on the same entries, diag(3000) makes row 3000's x = (c*hr - ci*hi) - o*pr
# cancel exactly at lambda = +i: h_3001 has a zero real part, the march's first
# zero component, in its second chunk
ZERO_LATE = ArrayOperator(
    [0.25] * 2999 + [-float.fromhex("0x1.1d8cefda85ed0p+7")] + [0.25] * 3002, [-64.0] * 6002
)
# lambda = 0: h_n = 1, 1, -1, -1, ... until diag(3000) = 1 gives h_3001 = h_3000 - h_2999 = 0
ZERO_LATE_REAL = ArrayOperator([1.0] + [0.0] * 2998 + [1.0] + [0.0] * 3002, [-1.0] * 6002)

CASES = [
    pytest.param(SIGNED_ZERO, 1j, 6000, {}, id="signed-zero-band-edge+i"),
    pytest.param(SIGNED_ZERO, -1j, 6000, {}, id="signed-zero-band-edge-i"),
    pytest.param(ZERO_DIAG, 1j, 600, {}, id="zero-diagonal+i"),
    pytest.param(ZERO_DIAG, -0.5j, 600, {}, id="zero-diagonal-i/2"),
    pytest.param(CHECK_7, 0.0, 20000, {}, id="check-7-real-zero"),
    pytest.param(GROWING, 1j, 10**4, {}, id="rescaled-complex"),
    pytest.param(GROWING, 0.0, 10**4, {}, id="rescaled-real"),
    pytest.param(GROWING, 1j, 3000, {"keep": 40, "residual_stride": 1}, id="every-row-residual"),
    pytest.param(scaled(0.75, -0.5), 1j, 2**14 - 1, {}, id="last-block-closes"),
    pytest.param(scaled(0.75, -0.5), 0.3, 2**15 - 1, {}, id="last-block-closes-real"),
    pytest.param(scaled(0.75, -0.5), 1j, 100, {}, id="N-below-keep"),
    pytest.param(scaled(0.75, -0.5), -1j, 8, {}, id="N-minimal"),
    pytest.param(HEAVY, 1j, 10**5, {}, id="rescale-heavy-complex"),
    pytest.param(HEAVY, 0.0, 10**4, {}, id="rescale-heavy-real"),
    # the first rescale falls on row 64, the first row of block 6, and on
    # row 31, the last row of block 4
    pytest.param(scaled(1.0, 0.75), 1j, 2000, {}, id="rescale-on-block-edge"),
    pytest.param(scaled(1.0, 4.25), 0.0, 2000, {}, id="rescale-before-block-edge-real"),
    # GROWING first rescales at row 77, a spot-checked row at this stride
    pytest.param(GROWING, 1j, 3000, {"residual_stride": 77}, id="rescale-on-residual-row"),
    pytest.param(DECAYING, 1j, 3000, {}, id="rescale-from-below"),
    pytest.param(DECAYING, 0.0, 3000, {}, id="rescale-from-below-real"),
    pytest.param(SLOW_GROWTH, 0.0, 30000, {}, id="slow-growth-real"),
    pytest.param(HUGE_H2, 0.0, 600, {}, id="rescale-on-the-first-row-real"),
    pytest.param(HUGE_H2, 1j, 600, {}, id="rescale-on-the-first-row"),
    pytest.param(spiked(2050), 1j, 6000, {}, id="rescale-on-a-chunks-first-row"),
    pytest.param(spiked(4097), 1j, 6000, {}, id="rescale-on-a-chunks-last-row"),
    pytest.param(ZERO_LATE, 1j, 6000, {}, id="zero-component-after-the-first-chunk"),
    pytest.param(ZERO_LATE_REAL, 0.0, 6000, {}, id="zero-after-the-first-chunk-real"),
    pytest.param(GROWING, -0.5j, 10**4, {}, id="rescaled-complex-i/2"),
]


@pytest.mark.parametrize("op,lam,N,kw", CASES)
def test_matches_reference_byte_for_byte(op, lam, N, kw):
    sol = solve(op, lam, N, **kw)
    ref = reference_solve(op, lam, N, **kw)
    assert dump(sol) == dump(ref)
    assert sol.head.dtype == ref.head.dtype
    assert sol.head.tobytes() == ref.head.tobytes()


def test_cases_cover_rescaling_and_closing_blocks():
    assert solve_recurrence(GROWING, 1j, 10**4).scale_events > 0
    assert solve_recurrence(GROWING, 0.0, 10**4).scale_events > 0
    sol = solve_recurrence(scaled(0.75, -0.5), 1j, 2**14 - 1)
    assert sol.block_log_masses[-1][0] == 13


def test_reference_defaults_are_the_march_constants():
    defaults = inspect.signature(reference_solve).parameters
    assert defaults["keep"].default == deficiency._HEAD_KEEP
    assert defaults["residual_stride"].default == deficiency._RESIDUAL_STRIDE


def test_cases_cover_heavy_rescaling_and_rescales_on_edges():
    assert solve_recurrence(HEAVY, 1j, 10**5).scale_events > 1000
    assert solve_recurrence(HEAVY, 0.0, 10**4).scale_events > 100
    # with keep = N, head_pure_until is the row of the first rescale
    assert solve(scaled(1.0, 0.75), 1j, 2000, keep=2000).meta["head_pure_until"] == 64
    assert solve(scaled(1.0, 4.25), 0.0, 2000, keep=2000).meta["head_pure_until"] == 31
    assert solve(GROWING, 1j, 3000, keep=3000).meta["head_pure_until"] == 77
    assert solve_recurrence(HUGE_H2, 0.0, 600).meta["head_pure_until"] == 2
    sol = solve_recurrence(DECAYING, 1j, 3000)
    assert sol.scale_events == 4 and sol.block_log_masses[-1][1] < -200.0
    assert solve_recurrence(SLOW_GROWTH, 0.0, 30000).scale_events == 8
    for m in (2050, 4097):
        sol = solve(spiked(m), 1j, 6000, keep=6000)
        assert (sol.meta["head_pure_until"], sol.scale_events) == (m, 1)
    for op, lam in ((ZERO_LATE, 1j), (ZERO_LATE_REAL, 0.0)):
        floats = solve(op, lam, 6000, keep=6000).head.view(np.float64)
        w = floats.size // 6000
        # h_1 = 1 + 0j aside, h_3001 holds the first zero
        assert np.flatnonzero(floats[w:] == 0.0)[0] // w + 2 == 3001


class CountingOperator:
    """Forwards to a JacobiOperator and counts the rows its block reads return."""

    def __init__(self, op):
        self.op = op
        self.rows = {"diag": 0, "off": 0}

    def diag(self, n):
        return self.op.diag(n)

    def off(self, n):
        return self.op.off(n)

    def _march_blocks(self, lo, hi):
        self.rows["diag"] += hi - lo - 1
        self.rows["off"] += hi - lo
        return self.op._march_blocks(lo, hi)


@pytest.mark.parametrize(
    "op,lam,N",
    [(HEAVY, 1j, 10**5), (HEAVY, 0.0, 10**5), (SIGNED_ZERO, 1j, 6000), (GROWING, 1j, 10**4)],
)
def test_march_reads_each_operator_row_once(op, lam, N):
    counting = CountingOperator(op)
    sol = solve_recurrence(counting, lam, N)
    assert dump(sol) == dump(solve_recurrence(op, lam, N))
    for name, rows in counting.rows.items():
        assert N - 2 <= rows <= N + _CHUNK, name


# operands of one march row: signed zeros, infinities, nan, subnormals,
# powers of two around the rescale thresholds, and any float
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, -2.5e-320,
           2.0**-100, -(2.0**100), 1.5 * 2.0**-100, 1.0, -1.0, 1e308, -1e-308]
OPERAND = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


# one row of the nonreal march, line for line as solve_recurrence's loop has it
STEP = (
    "x = (c * hr - ci * hi) - (o * pr - 0.0 * pi)",
    "y = (c * hi + ci * hr) - (o * pi + 0.0 * pr)",
    "pr = hr",
    "pi = hi",
    "hr = (x + y * r) * s",
    "hi = (y - x * r) * s",
)
STEP_CODE = compile("\n".join(STEP), "<march step>", "exec")
# the same row without the four signed-zero terms: solve_recurrence's lean chunk loop
LEAN = (
    "x = (c * hr - ci * hi) - o * pr",
    "y = (c * hi + ci * hr) - o * pi",
    "pr = hr",
    "pi = hi",
    "hr = x * s",
    "hi = y * s",
)
LEAN_CODE = compile("\n".join(LEAN), "<lean march step>", "exec")


def test_the_march_loop_runs_the_tested_step():
    exact = inspect.getsource(deficiency._march_exact)
    assert "\n".join(" " * 16 + line for line in STEP) in exact
    lean = inspect.getsource(solve_recurrence)
    assert "\n".join(" " * 16 + line for line in LEAN) in lean


def float_pair_step(c, ci, o, s, r, pr, pi, hr, hi):
    ns = {"c": c, "ci": ci, "o": o, "s": s, "r": r, "pr": pr, "pi": pi, "hr": hr, "hi": hi}
    exec(STEP_CODE, {}, ns)
    return ns["hr"], ns["hi"]


def lean_step(c, ci, o, s, pr, pi, hr, hi):
    ns = {"c": c, "ci": ci, "o": o, "s": s, "pr": pr, "pi": pi, "hr": hr, "hi": hi}
    exec(LEAN_CODE, {}, ns)
    return ns["hr"], ns["hi"]


def complex_step(c, ci, o, s, r, h_prev, h_cur):
    """The same row on Python complex scalars, as the march computed it before."""
    h = complex(c, ci) * h_cur - complex(o, 0.0) * h_prev
    return complex((h.real + h.imag * r) * s, (h.imag - h.real * r) * s)


@settings(max_examples=500, deadline=None)
@given(
    c=OPERAND, ci=st.sampled_from([1.0, -0.5, -1.0]), off=OPERAND, o=OPERAND,
    pr=OPERAND, pi=OPERAND, hr=OPERAND, hi=OPERAND,
)
# a nan computed from two nans takes the sign of one of them, and Python's
# float add and complex product order their operands differently: here
# the imaginary part is nan with the sign bit set on one side only
@example(c=0.0, ci=1.0, off=0.0, o=0.0, pr=0.0, pi=0.0, hr=math.nan, hi=math.inf)
def test_float_pair_step_matches_complex_step_bytewise(c, ci, off, o, pr, pi, hr, hi):
    with np.errstate(all="ignore"):  # s and r as the march computes them, in numpy
        s, r = float(1.0 / np.float64(off)), float(0.0 / np.float64(off))
    z = complex_step(c, ci, o, s, r, complex(pr, pi), complex(hr, hi))
    got = float_pair_step(c, ci, o, s, r, pr, pi, hr, hi)
    assert nan_blind_bytes(np.array(got)) == nan_blind_bytes(np.array([z.real, z.imag]))


@settings(max_examples=100, deadline=None)
@given(
    N=st.integers(8, 40),
    lam=st.sampled_from([1j, -0.5j, 0.0, 0.3]),
    kw=st.sampled_from([{}, {"residual_stride": 1}, {"keep": 5, "residual_stride": 3}]),
    entries=st.data(),
)
def test_march_matches_reference_on_special_entries(N, lam, kw, entries):
    # off(n) == 0 is left out: numpy divides by a zero in its own branch
    diag = entries.draw(st.lists(OPERAND, min_size=N + 1, max_size=N + 1))
    off = entries.draw(st.lists(OPERAND.filter(lambda x: x != 0.0), min_size=N + 1, max_size=N + 1))
    op = ArrayOperator(diag, off)
    with np.errstate(all="ignore"):
        sol, ref = solve(op, lam, N, **kw), reference_solve(op, lam, N, **kw)
    assert dump(sol) == dump(ref)
    assert nan_blind_bytes(sol.head) == nan_blind_bytes(ref.head)


@pytest.mark.parametrize(
    ("lam", "diag", "off", "events"),
    [
        # h_2 = -5e-309 and h_3 = -5e-309: two shifts of 2^511 lift the frame
        (0.0, [2.5e-309] + [0.0] * 8, [0.5] + [1e308] * 8, 2),
        # h_2 = 5e-309 i, then off(2) = inf: h_3 is zero and the rows after it nan
        (-0.5j, [0.0] * 9, [1e308] + [math.inf] * 6 + [1.0, 1.0], 1),
    ],
)
def test_subnormal_peak_rescales_in_capped_steps(lam, diag, off, events):
    # the peak 5e-309 < 2^-1024, so an uncapped shift 2^-frexp(peak)[1] overflows
    op = ArrayOperator(diag, off)
    with np.errstate(all="ignore"):
        sol, ref = solve_recurrence(op, lam, 8), reference_solve(op, lam, 8)
    assert dump(sol) == dump(ref)
    assert nan_blind_bytes(sol.head) == nan_blind_bytes(ref.head)
    assert sol.scale_events == events


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [0.0, 1j])
@pytest.mark.parametrize("zero", [(1, 0.0), (6, 0.0), (6, -0.0), (_CHUNK + 5, 0.0)])
def test_zero_off_diagonal_raises_naming_its_row(lam, zero):
    # off(1) is checked before the first row, each chunk's divisors before its march
    n, value = zero
    off = [-1.0] * (2 * _CHUNK)
    off[n - 1] = value
    with pytest.raises(ValueError, match=rf"^off\({n}\) = 0: the recurrence does not determine h_{n + 1}$"):
        solve_recurrence(ArrayOperator([0.5] * (2 * _CHUNK), off), lam, 2 * _CHUNK - 8)


# rows on which the lean step differs from the exact one, each through one
# signed-zero, infinite, nan or subnormal operand: -0.0 - (-0.0) is +0.0
# where the exact x is -0.0; 0.0 * pi is nan for an infinite or nan pi; and
# a subnormal hi leaves x = (c*hr - ci*hi) - o*pr a zero of the other sign
DIFFERING = {
    "signed-zero": dict(c=1.0, ci=1.0, off=1.0, o=-1.0, pr=0.0, pi=-1.0, hr=-0.0, hi=0.0),
    "inf": dict(c=0.5, ci=-0.5, off=3.0, o=-1.5, pr=2.0, pi=-math.inf, hr=-0.75, hi=2.0),
    "nan": dict(c=-1.5, ci=-1.0, off=0.5, o=2.0, pr=3.0, pi=math.nan, hr=2.0, hi=3.0),
    "subnormal": dict(c=-1e-170, ci=-0.5, off=-1.5, o=1e-160, pr=1e-200, pi=3.0, hr=1e-200, hi=-5e-324),
}


def both_steps(c, ci, off, o, pr, pi, hr, hi):
    """(lean, exact) results of one row, s and r as the march computes them, in numpy."""
    with np.errstate(all="ignore"):
        s, r = float(1.0 / np.float64(off)), float(0.0 / np.float64(off))
    return np.array(lean_step(c, ci, o, s, pr, pi, hr, hi)), np.array(float_pair_step(c, ci, o, s, r, pr, pi, hr, hi))


def chunk_check(row):
    return deficiency._in_band(row, deficiency._GUARD_LO, True)


@settings(max_examples=1000, deadline=None)
@given(
    c=OPERAND, ci=st.sampled_from([1.0, -0.5, -1.0]), off=OPERAND, o=OPERAND,
    pr=OPERAND, pi=OPERAND, hr=OPERAND, hi=OPERAND,
)
@example(**DIFFERING["signed-zero"])
@example(**DIFFERING["inf"])
@example(**DIFFERING["nan"])
@example(**DIFFERING["subnormal"])
def test_lean_step_is_the_exact_step_where_the_chunk_check_accepts(c, ci, off, o, pr, pi, hr, hi):
    lean, exact = both_steps(c, ci, off, o, pr, pi, hr, hi)
    if chunk_check(lean):
        assert lean.tobytes() == exact.tobytes()


@pytest.mark.parametrize("row", list(DIFFERING.values()), ids=list(DIFFERING))
def test_chunk_check_rejects_each_row_where_the_lean_step_differs(row):
    lean, exact = both_steps(**row)
    assert nan_blind_bytes(lean) != nan_blind_bytes(exact)
    assert not chunk_check(lean)


def replays(op, lam, N):
    """solve_recurrence's solution and the start rows of the chunks it marched again by _march_exact."""
    with mock.patch.object(deficiency, "_march_exact", wraps=deficiency._march_exact) as spy:
        sol = solve_recurrence(op, lam, N)
    return sol, [call.args[3] for call in spy.call_args_list]


# the first analyze-oracle pool input: a band-edge coupling, no rescale in 2^16 rows at +i
BAND_EDGE = scaled(0.809, -1.0, d1=0.6376)


def test_a_rescale_free_march_replays_no_chunk():
    sol, starts = replays(BAND_EDGE, 1j, 2**16)
    assert sol.scale_events == 0
    assert starts == []


@pytest.mark.parametrize("op,lam", [(HEAVY, 1j), (SIGNED_ZERO, 1j), (ZERO_DIAG, 1j), (HEAVY, 0.0)])
def test_chunks_that_rescale_or_meet_a_zero_are_replayed(op, lam):
    assert replays(op, lam, 6000)[1]


@pytest.mark.parametrize(
    "op,lam,N,first",
    [(spiked(2050), 1j, 6000, 2049), (spiked(4097), 1j, 6000, 2049), (ZERO_LATE, 1j, 6000, 2049),
     (HUGE_H2, 1j, 600, 1)],
)
def test_only_the_chunk_that_rescales_or_meets_a_zero_is_replayed(op, lam, N, first):
    assert replays(op, lam, N)[1] == [first]


@pytest.mark.parametrize(
    "op,lam,N",
    [(BAND_EDGE, 1j, 2**16), (BAND_EDGE, -1j, 2**14), (CHECK_7, 0.0, 20000), (GROWING, 1j, 10**4)],
)
def test_lean_chunks_equal_the_guarded_march(op, lam, N):
    with mock.patch.object(deficiency, "_in_band", return_value=False):
        guarded = solve_recurrence(op, lam, N)
    sol = solve_recurrence(op, lam, N)
    assert dump(sol) == dump(guarded)
    assert sol.head.tobytes() == guarded.head.tobytes()


def test_march_reads_each_gap_once_for_its_entries():
    # the entries read each chunk's rows and three more, ScaledInverseGapsAlpha
    # its rows and one more: 131,196 gap rows, where separate diag and off
    # blocks read 196,762
    rows = []
    gaps = PowerLogGrid.gaps

    def counting(self, lo, hi):
        rows.append(hi - lo)
        return gaps(self, lo, hi)

    with mock.patch.object(PowerLogGrid, "gaps", counting):
        solve_recurrence(BAND_EDGE, 1j, 2**16)
    chunks = -(-(2**16 - 2) // _CHUNK)
    assert sum(rows) == 2 * (2**16 - 2) + 4 * chunks


def nan_blind_bytes(head):
    """head's bytes with one nan for every nan: a nan's sign bit depends on
    whether numpy or Python scalars produced it, and the JSON output does
    not show it."""
    f = head.view(np.float64).copy()
    f[np.isnan(f)] = np.nan
    return f.tobytes()


def test_hypot_equals_python_abs_of_complex():
    # every pair of SPECIAL values, then random values over 600 decades
    rng = np.random.default_rng(20240)
    edge = np.array(SPECIAL)
    spread = rng.standard_normal((2, 20000)) * 10.0 ** rng.integers(-300, 300, (2, 20000))
    re = np.concatenate([np.repeat(edge, len(edge)), spread[0]])
    im = np.concatenate([np.tile(edge, len(edge)), spread[1]])
    want = np.array([abs(complex(a, b)) for a, b in zip(re.tolist(), im.tolist())])
    assert np.hypot(re, im).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "op,N",
    [
        (SIGNED_ZERO, 6000),
        (ZERO_DIAG, 6000),
        (GROWING, 10**4),
        (scaled(0.75, -0.5), 2**14 - 1),
        (scaled(0.75, -0.5), 100),
    ],
)
def test_conjugate_twin_matches_direct_solve(op, N):
    # B is real, so the -i solution is the +i one with its lambda and
    # head replaced; the head is marched again to keep its signed zeros
    plus = solve_recurrence(op, 1j, N)
    minus = solve_recurrence(op, -1j, N)
    front = solve_recurrence(op, -1j, plus.meta["keep"])
    assert dump(dataclasses.replace(plus, lam=front.lam, head=front.head)) == dump(minus)


def test_plain_conjugation_would_flip_a_signed_zero():
    plus = solve_recurrence(SIGNED_ZERO, 1j, 6000)
    direct = solve_recurrence(SIGNED_ZERO, -1j, 6000)
    naive = dataclasses.replace(plus, lam=direct.lam, head=np.conj(plus.head))
    assert dump(naive) != dump(direct)
    assert naive.block_log_masses == direct.block_log_masses
