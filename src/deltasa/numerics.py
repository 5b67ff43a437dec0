"""Shared numerical machinery.

Everything here is deliberately boring: tri-state evidence values,
records that serialise from their fields, compensated and correctly
rounded summation, a couple of sequence-extrapolation helpers, the
two-window statistics and the one drift rule of the boundedness probes,
and the block walk every probe scan takes.  The criteria modules lean on these
instead of rolling their own loops so that every probe in the package
reports growth and stability the same way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import fields
from enum import Enum
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "TriState",
    "Record",
    "ChunkedSum",
    "exact_alternating_sums",
    "blocks",
    "richardson_pair",
    "aitken",
    "tail_windows",
    "window_sups",
    "window_drift",
    "sqrt_series_coeffs",
    "sqrt1p_minus_1",
    "sqrt1p_tail",
    "DRIFT_TOL",
    "HORIZONS",
    "WINDOW_CAP",
    "MIN_HORIZON",
]

# Stability threshold of the two-window drift rule (window_drift): a
# statistic is window-stable when its later-window sup grows by less
# than 5% of the earlier-window sup.  Shrinking is always stable.
DRIFT_TOL = 0.05

# The default horizon ladder; where scans of a tail window stop (the gap
# ratios, the oracle); the shortest scan condition B takes.
HORIZONS = (10**4, 10**5, 10**6)
WINDOW_CAP = 10**5
MIN_HORIZON = 256

# rows per probe block: one float64 array of a block is 256 KiB
_CHUNK = 1 << 15

# sqrt1p_tail: |x| below the cut sums the tail series, over this many terms
_SERIES_CUT = 0.25
_SERIES_TERMS = 64

# exact_alternating_sums: the pair rule needs every |x| >= 2^E with E >= -1000
_PAIR_MIN = 2.0**-1000


class TriState(str, Enum):
    """Three-valued evidence: numerics may honestly fail to decide."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    @staticmethod
    def of(flag: bool) -> "TriState":
        return TriState.TRUE if flag else TriState.FALSE

    def __bool__(self) -> bool:
        # Guard against `if probe.holds:` silently treating UNKNOWN as
        # truthy.  Compare against the members explicitly.
        raise TypeError("TriState has no truth value; compare with TriState.TRUE etc.")


class Record:
    """A dataclass whose JSON is its fields, one key per field, in field order.

    A field's key is its name, or its metadata["json"] when it has one
    (field(metadata={"json": "lambda"})).  Enum values become their
    .value, complex numbers [re, im], tuples and lists become lists
    (nested ones too), and a value with its own to_json() (a PeriodPair,
    a GFunction, a nested record) is replaced by it.  Anything else,
    dicts included, is passed through as it is, without a copy.
    """

    def to_json(self) -> dict:
        return {f.metadata.get("json", f.name): _json_value(getattr(self, f.name)) for f in fields(self)}


def _json_value(v):
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (tuple, list)):
        return [_json_value(x) for x in v]
    if hasattr(v, "to_json"):
        return v.to_json()
    return v


class ChunkedSum:
    """Accumulates array chunks; the grand total is an fsum of chunk sums.

    One np.sum per chunk keeps the cost linear while fsum over the
    (few) chunk totals removes the usual cancellation drift of a long
    running float sum.
    """

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: list[float] = []

    def add_array(self, arr: np.ndarray) -> None:
        if len(arr):
            self._parts.append(float(np.sum(arr)))

    def total(self) -> float:
        return math.fsum(self._parts)


def exact_alternating_sums(x2d) -> list[float]:
    """The correctly rounded x0 - x1 + x2 - ... of each row of a 2-d array: math.fsum's value on the signed row.

    The pair rule: when a row's entries share one sign and every |x| >= 2^E,
    E = frexp(min|x|)[1] - 1 >= -1000, every entry is a multiple of
    2^(E-52).  If the pairs q_j = x_2j - x_2j+1 pass the gate
    fl(sum |q_j|) <= 2^E, every pair and every partial sum of pairs, in
    any order, is such a multiple of modulus at most 2^E, hence a float:
    the float sum of the pairs is exact under any SIMD kernel (Sterbenz's
    lemma; Rump, Ogita and Oishi, "Accurate floating-point summation",
    SIAM J. Sci. Comput. 31 (2008)).  An odd last entry is added once at
    the end, one correctly rounded addition.  An exact zero total is the
    +0.0 of a round-to-nearest sum of nonzero floats, as fsum's is.  Every
    other row (mixed signs, zero, tiny or non-finite entries, a failed
    gate or a non-finite result) goes to math.fsum on its signed row,
    with its errors.
    """
    x = np.asarray(x2d, dtype=float)
    if x.ndim != 2:
        raise ValueError("exact_alternating_sums needs a 2-d array")
    rows, cols = x.shape
    if rows == 0 or cols == 0:
        return [0.0] * rows
    even = cols - cols % 2
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.subtract(x[:, 0:even:2], x[:, 1:even:2])
        total = q.sum(axis=1)
        gate = np.abs(q, out=q).sum(axis=1)
        if cols % 2:
            total += x[:, -1]
    out = total.tolist()
    slow = []
    for i, (lo, hi, t, g) in enumerate(zip(x.min(axis=1).tolist(), x.max(axis=1).tolist(), out, gate.tolist())):
        least = lo if lo > 0.0 else -hi  # min|x| when the row has one sign
        if (lo > 0.0 or hi < 0.0) and least >= _PAIR_MIN and math.isfinite(t):
            # 2^E is the largest power of two <= least; a nan gate fails the comparison
            if g <= math.ldexp(1.0, math.frexp(least)[1] - 1):
                continue
        slow.append(i)
    if slow:
        signed = x[slow]
        signed[:, 1::2] *= -1.0
        for i, row in zip(slow, signed.tolist()):
            out[i] = math.fsum(row)
    return out


def blocks(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """The 32768-row blocks [a, b) that cover [lo, hi), starting at lo; every probe scan walks these.

    The first block of a process primes the heap (_prime_heap) before any block array is allocated.
    """
    _prime_heap()
    for a in range(lo, hi, _CHUNK):
        yield a, min(a + _CHUNK, hi)


@functools.cache
def _prime_heap() -> None:
    """Free one untouched 4 MiB array, once per process, so that glibc keeps the probe heap.

    Under glibc's starting thresholds the 256 KiB block arrays the probes
    free hand the heap top back to the system, and the next block
    page-faults it in again: 10^3 to 10^4 minor faults per verdict.
    Freeing a mapped chunk above the mmap threshold makes glibc raise that
    threshold to the chunk's size and the trim threshold to twice it
    (mallopt(3)), here about 4 and 8 MiB, so the heap top stays mapped.
    The array is never written, so it costs no fault.  glibc skips the
    rule where the process has stated either threshold (in the
    environment, in GLIBC_TUNABLES or by its own mallopt call).
    """
    np.empty(1 << 19)


def richardson_pair(coarse: float, fine: float, ratio: float, order: float) -> float:
    """One Richardson step: eliminate the c*h^order error term.

    ``coarse`` and ``fine`` are the statistic at step sizes h and
    h/ratio.  Requires ratio > 1 and order > 0.
    """
    if not (ratio > 1.0 and order > 0.0):
        raise ValueError("richardson_pair needs ratio > 1 and order > 0")
    w = ratio**order
    return (w * fine - coarse) / (w - 1.0)


def aitken(s0: float, s1: float, s2: float) -> float:
    """Aitken delta-squared acceleration of three consecutive estimates.

    Falls back to the last value when the second difference underflows.
    """
    d1 = s1 - s0
    d2 = s2 - s1
    denom = d2 - d1
    if denom == 0.0 or not math.isfinite(denom):
        return s2
    return s2 - d2 * d2 / denom


def tail_windows(n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two comparison windows [n/4, n/2) and [n/2, n] used by drift probes."""
    if n < 64:
        raise ValueError("tail windows need n >= 64")
    q = n // 4
    h = n // 2
    return (q, h), (h, n + 1)


def window_sups(
    block: Callable[[int, int], np.ndarray],
    lo: int,
    hi: int,
    windows: tuple[tuple[int, int], ...],
) -> tuple[float, int, tuple[float, ...]]:
    """Scan block(a, b) over the blocks(lo, hi) of [lo, hi).

    Returns the global sup, its index (lo when no value beats -inf), and
    one sup per half-open window (wa, wb); an empty window reads -inf.
    Each window sup is the max of its per-block maxima, so a block
    slice holding a NaN contributes nothing to it.
    """
    sup = -math.inf
    arg = lo
    sups = [-math.inf] * len(windows)
    for a, b in blocks(lo, hi):
        vals = block(a, b)
        m = int(np.argmax(vals))
        if vals[m] > sup:
            sup, arg = float(vals[m]), a + m
        for i, (wa, wb) in enumerate(windows):
            la, lb = max(a, wa), min(b, wb)
            if la < lb:
                sups[i] = max(sups[i], float(np.max(vals[la - a : lb - a])))
    return sup, arg, tuple(sups)


def window_drift(sup_early: float, sup_late: float) -> tuple[float, TriState]:
    """The two-window drift rule: (drift, whether the statistic is window-stable).

    drift = (late - early) / |early| is the relative growth of the
    window sup (|late|, at least 1e-300, when early is 0); negative
    drift means it shrank.  The statistic is stable when drift <
    DRIFT_TOL.  Unless both sups are finite the rule reads (nan, UNKNOWN).
    """
    if not (math.isfinite(sup_early) and math.isfinite(sup_late)):
        return math.nan, TriState.UNKNOWN
    scale = abs(sup_early) or max(abs(sup_late), 1e-300)
    drift = (sup_late - sup_early) / scale
    return drift, TriState.of(drift < DRIFT_TOL)


def sqrt_series_coeffs(k: int) -> list[float]:
    """Taylor coefficients C_0..C_{k-1} of sqrt(1+x) about x=0.

    C_0 = 1, C_1 = 1/2, and C_i = C_{i-1} * (3/(2i) - 1) afterwards.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    coeffs = [1.0]
    c = 1.0
    for i in range(1, k):
        c *= 1.5 / i - 1.0
        coeffs.append(c)
    return coeffs


def sqrt1p_minus_1(x):
    """sqrt(1+x) - 1 without cancellation; works on scalars and arrays."""
    return x / (1.0 + np.sqrt(1.0 + x))


def sqrt1p_tail(x: np.ndarray, k: int) -> np.ndarray:
    """Remainder sqrt(1+x) - sum_{i<k} C_i x^i, evaluated without cancellation.

    For |x| < _SERIES_CUT (1/4) the remainder is summed as the tail
    series sum_{k<=i<k+64} C_i x^i (the direct difference loses every
    significant digit once the remainder is orders below the partial
    sum).  Larger |x| falls back to the direct difference, where
    cancellation is mild.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    coeffs = sqrt_series_coeffs(k + _SERIES_TERMS)
    small = np.abs(x) < _SERIES_CUT
    if np.any(small):
        xs = x[small]
        acc = np.zeros_like(xs)
        power = xs**k
        for i in range(k, k + _SERIES_TERMS):
            acc += coeffs[i] * power
            power = power * xs
        out[small] = acc
    if np.any(~small):
        xl = x[~small]
        head = np.zeros_like(xl)
        power = np.ones_like(xl)
        for i in range(k):
            head += coeffs[i] * power
            power = power * xl
        out[~small] = np.sqrt(1.0 + xl) - head
    return out

