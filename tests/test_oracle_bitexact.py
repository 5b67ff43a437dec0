"""The recurrence oracle is bit-exact against its numpy-scalar reference.

solve_recurrence marches rows as Python floats, a (re, im) pair per row
for nonreal lambda, and reads the block masses, residuals and head off
each chunk with numpy.  The reference below is the earlier loop that
marched the same rows on numpy scalars, one row and all its bookkeeping
per iteration, kept here verbatim; every float of the serialised
solution must agree byte for byte.  The cases include rescale-heavy
marches and rescales on a block edge and on a residual row.  The
float-pair step is also checked against the complex-scalar step on
signed zeros, infinities, nans and subnormals, and np.hypot against
Python's abs() of a complex.
"""

import dataclasses
import inspect
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltasa import (
    ConstantGrid,
    CustomGrid,
    JacobiOperator,
    PowerLogGrid,
    PowerSumAlpha,
    ScaledInverseGapsAlpha,
)
from deltasa.deficiency import _CHUNK, RecurrenceSolution, solve_recurrence

_SCALE_UP = 2.0**100
_SCALE_DOWN = 2.0**-100


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
                shift = math.ldexp(1.0, -int(math.frexp(peak)[1]))
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


def scaled(gamma, a, d1=1.0, pert=None):
    g = PowerLogGrid(gamma=gamma, d1=d1)
    return JacobiOperator(g, ScaledInverseGapsAlpha(g, a, perturbation=pert))


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
]


@pytest.mark.parametrize("op,lam,N,kw", CASES)
def test_matches_reference_byte_for_byte(op, lam, N, kw):
    sol = solve_recurrence(op, lam, N, **kw)
    ref = reference_solve(op, lam, N, **kw)
    assert dump(sol) == dump(ref)
    assert sol.head.dtype == ref.head.dtype
    assert sol.head.tobytes() == ref.head.tobytes()


def test_cases_cover_rescaling_and_closing_blocks():
    assert solve_recurrence(GROWING, 1j, 10**4).scale_events > 0
    assert solve_recurrence(GROWING, 0.0, 10**4).scale_events > 0
    sol = solve_recurrence(scaled(0.75, -0.5), 1j, 2**14 - 1)
    assert sol.block_log_masses[-1][0] == 13


def test_cases_cover_heavy_rescaling_and_rescales_on_edges():
    assert solve_recurrence(HEAVY, 1j, 10**5).scale_events > 1000
    assert solve_recurrence(HEAVY, 0.0, 10**4).scale_events > 100
    # with keep = N, head_pure_until is the row of the first rescale
    assert solve_recurrence(scaled(1.0, 0.75), 1j, 2000, keep=2000).meta["head_pure_until"] == 64
    assert solve_recurrence(scaled(1.0, 4.25), 0.0, 2000, keep=2000).meta["head_pure_until"] == 31
    assert solve_recurrence(GROWING, 1j, 3000, keep=3000).meta["head_pure_until"] == 77
    assert solve_recurrence(HUGE_H2, 0.0, 600).meta["head_pure_until"] == 2
    sol = solve_recurrence(DECAYING, 1j, 3000)
    assert sol.scale_events == 4 and sol.block_log_masses[-1][1] < -200.0
    assert solve_recurrence(SLOW_GROWTH, 0.0, 30000).scale_events == 8


class CountingOperator:
    """Forwards to a JacobiOperator and counts the rows its block reads return."""

    def __init__(self, op):
        self.op = op
        self.rows = {"diag_block": 0, "off_block": 0}

    def diag(self, n):
        return self.op.diag(n)

    def off(self, n):
        return self.op.off(n)

    def diag_block(self, lo, hi):
        self.rows["diag_block"] += hi - lo
        return self.op.diag_block(lo, hi)

    def off_block(self, lo, hi):
        self.rows["off_block"] += hi - lo
        return self.op.off_block(lo, hi)


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


def test_the_march_loop_runs_the_tested_step():
    src = inspect.getsource(solve_recurrence)
    assert "\n".join(" " * 20 + line for line in STEP) in src


def float_pair_step(c, ci, o, s, r, pr, pi, hr, hi):
    ns = {"c": c, "ci": ci, "o": o, "s": s, "r": r, "pr": pr, "pi": pi, "hr": hr, "hi": hi}
    exec(STEP_CODE, {}, ns)
    return ns["hr"], ns["hi"]


def complex_step(c, ci, o, s, r, h_prev, h_cur):
    """The same row on Python complex scalars, as the march computed it before."""
    h = complex(c, ci) * h_cur - complex(o, 0.0) * h_prev
    return complex((h.real + h.imag * r) * s, (h.imag - h.real * r) * s)


def pair_bytes(re, im):
    return struct.pack("<2d", re, im)


@settings(max_examples=500, deadline=None)
@given(
    c=OPERAND, ci=st.sampled_from([1.0, -0.5, -1.0]), off=OPERAND, o=OPERAND,
    pr=OPERAND, pi=OPERAND, hr=OPERAND, hi=OPERAND,
)
def test_float_pair_step_matches_complex_step_bytewise(c, ci, off, o, pr, pi, hr, hi):
    with np.errstate(all="ignore"):  # s and r as the march computes them, in numpy
        s, r = float(1.0 / np.float64(off)), float(0.0 / np.float64(off))
    z = complex_step(c, ci, o, s, r, complex(pr, pi), complex(hr, hi))
    assert pair_bytes(*float_pair_step(c, ci, o, s, r, pr, pi, hr, hi)) == pair_bytes(z.real, z.imag)


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
        sol, ref = solve_recurrence(op, lam, N, **kw), reference_solve(op, lam, N, **kw)
    assert dump(sol) == dump(ref)
    assert nan_blind_bytes(sol.head) == nan_blind_bytes(ref.head)


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
