"""The recurrence oracle is bit-exact against its numpy-scalar reference.

solve_recurrence marches rows on Python scalars.  The reference below is
the earlier loop that marched the same rows on numpy scalars, kept here
verbatim; every float of the serialised solution must agree byte for
byte.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from deltasa import ConstantGrid, JacobiOperator, PowerLogGrid, PowerSumAlpha, ScaledInverseGapsAlpha
from deltasa.deficiency import RecurrenceSolution, solve_recurrence

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
