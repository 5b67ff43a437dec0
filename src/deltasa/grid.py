"""Gap families for delta-interaction grids on the half line.

A grid is the increasing point sequence x_0 = 0 < x_1 < x_2 < ... with
gaps d_n = x_n - x_{n-1} > 0.  The operators downstream only ever see
the gaps, so the grid API is gap-centric: d_n, log d_n, the effective
radii r_n = sqrt(d_n + d_{n+1}) (with the r_0 = 1 convention), and the
log-gap ratios log(d_{n+k}/d_n) that the stabilized difference
quotients are built from.

The workhorse family is PowerLogGrid with d_n = d_1 at n = 1 and
d_n = n^{-gamma} * (ln n)^{-eta} for n >= 2.  Each family states the
Order of its gaps, d_n ~ c n^p (ln n)^q, once in order(), and every
closed-form decision is one expression on Orders, read through one
Bertrand rule (Order.summable).

Facts of the gaps alone live here too: the tail ratio statistics, the
summability class, and the alternating ladder rtilde that controls the
critical-coupling regime,

    rtilde_1 = 1,   rtilde_{n+1} = -d_{n+1} / rtilde_n.

rtilde swings over many orders of magnitude (for d_n = n^-gamma it
decays like n^{-gamma/2} only on average, through huge parity swings on
short grids), so TildeSequence stores it in log-magnitude/sign form.
Each grid object holds one ladder, grid.tilde, built on first read and
shared by every reader of that object.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from .numerics import _CHUNK, ChunkedSum, Record, TriState, blocks, exact_alternating_sums

__all__ = [
    "GridError",
    "Order",
    "GridSequence",
    "PowerLogGrid",
    "ConstantGrid",
    "ExplicitGrid",
    "CustomGrid",
    "TildeSequence",
    "RatioStats",
    "Summability",
    "ratio_stats",
    "classify_summability",
]

# classify_summability: the last partial-sum checkpoint for grids
# without a closed-form summability class
_SUMMABILITY_HORIZON = 1 << 16

# rows(): a read-only ramp 0, 1, 2, ... as long as a probe block and its
# look-ahead rows (256 KiB); longer row ranges fall back to np.arange
_RAMP = np.arange(float(_CHUNK + 4))
_RAMP.flags.writeable = False

_TILDE_CHUNK = 4096  # rows per tilde chunk: the chunk bases fix the bits of every rtilde read
_BATCH = _CHUNK // _TILDE_CHUNK  # chunks a cold read evaluates and sums at once: one probe block


class GridError(ValueError):
    """Raised for invalid gap data: non-positive gaps, bad indices."""


@dataclass(frozen=True)
class Order:
    """The order c n^p (ln n)^q of a sequence; c is None if only p and q are known, 0 for a zero sequence.

    a * b adds the exponents and o ** k multiplies them by k; both keep only the exponents.
    """

    c: Optional[float]
    p: float
    q: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) for x in (self.p, self.q, 0.0 if self.c is None else self.c)):
            raise GridError(f"order entries must be finite, got {self}")

    def __mul__(self, other: Order) -> Order:
        return Order(None, self.p + other.p, self.q + other.q)

    def __pow__(self, k: float) -> Order:
        return Order(None, k * self.p, k * self.q)

    def summable(self) -> bool:
        """Bertrand's rule: sum n^p (ln n)^q converges iff p < -1, or p = -1 and q < -1."""
        return self.p < -1.0 or (self.p == -1.0 and self.q < -1.0)


def rows(lo: int, hi: int) -> np.ndarray:
    """The rows lo, lo + 1, ..., hi - 1 as floats, in a new array: np.arange(lo, hi, dtype=float), bit for bit."""
    m = hi - lo
    if 0 <= m <= len(_RAMP):
        return np.add(_RAMP[:m], lo)
    return np.arange(lo, hi, dtype=float)


def _explicit_positions(m: int, tail: str, lo: int, hi: int) -> np.ndarray:
    """Positions in an explicit list of m entries of the rows lo <= n < hi.

    The one tail rule of explicit data: "cycle" repeats the list, "hold"
    repeats its last entry, and "error" raises past the data.
    """
    if lo < 1 or hi < lo:
        raise GridError(f"bad explicit range [{lo}, {hi})")
    if tail == "error" and hi - 1 > m:
        raise GridError(f"index {hi - 1} beyond explicit data ({m} entries, tail='error')")
    k = np.arange(lo - 1, hi - 1)
    return k % m if tail == "cycle" else np.minimum(k, m - 1)


class GridSequence:
    """Base class: a positive gap sequence indexed from 1."""

    name: str = "grid"
    #: Largest index with data, or None for genuinely infinite families.
    max_index: Optional[int] = None
    #: The grid's tilde ladder, built on first read; not a dataclass field,
    #: so equality, hashing and repr never see it
    tilde = functools.cached_property(lambda self: TildeSequence(self))

    def gap(self, n: int) -> float:
        raise NotImplementedError

    def gaps(self, lo: int, hi: int) -> np.ndarray:
        """Vector of d_n for lo <= n < hi."""
        self._check_range(lo, hi)
        return np.array([self.gap(n) for n in range(lo, hi)], dtype=float)

    def log_gap(self, n: int) -> float:
        return math.log(self.gap(n))

    def log_gaps(self, lo: int, hi: int) -> np.ndarray:
        """Vector of log d_n for lo <= n < hi: a new array the caller may modify."""
        return np.log(self.gaps(lo, hi))

    def gaps_and_logs(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """(gaps(lo, hi), log_gaps(lo, hi)) from one evaluation of the rows.

        Bit-identical to the two separate calls; a subclass that
        overrides log_gaps overrides this too.
        """
        d = self.gaps(lo, hi)
        return d, np.log(d)

    def gap_log_ratio_block(self, lo: int, hi: int, k: int) -> Optional[np.ndarray]:
        """log(d_{n+k}/d_n) for lo <= n < hi in a cancellation-free form, when available.

        Families that cannot do better than log(gap) arithmetic return
        None and callers fall back to direct differences.
        """
        return None

    def r(self, n: int) -> float:
        """Effective radius: r_0 = 1, r_n = sqrt(d_n + d_{n+1})."""
        if n == 0:
            return 1.0
        if n < 0:
            raise GridError(f"r index must be >= 0, got {n}")
        return math.sqrt(self.gap(n) + self.gap(n + 1))

    def order(self) -> Optional[Order]:
        """The order of the gaps, d_n ~ c n^p (ln n)^q, or None if it is unknown."""
        return None

    def describe(self) -> dict:
        return {"family": self.name}

    def _check_range(self, lo: int, hi: int) -> None:
        if lo < 1 or hi < lo:
            raise GridError(f"bad gap range [{lo}, {hi})")
        if self.max_index is not None and hi - 1 > self.max_index:
            raise GridError(f"index {hi - 1} beyond available data ({self.max_index})")


@dataclass(frozen=True)
class PowerLogGrid(GridSequence):
    """Gaps d_n = n^{-gamma} (ln n)^{-eta} for n >= 2; d_1 is free.

    The first gap is a separate parameter because the profile's value
    at n = 1 would hit ln 1 = 0.  Every asymptotic question downstream
    is insensitive to it.
    """

    gamma: float
    eta: float = 0.0
    d1: float = 1.0
    name: ClassVar[str] = "power-log"

    def __post_init__(self) -> None:
        if not (self.d1 > 0.0 and math.isfinite(self.d1)):
            raise GridError("d1 must be positive and finite")
        if not (math.isfinite(self.gamma) and math.isfinite(self.eta)):
            raise GridError("gamma and eta must be finite")

    def gap(self, n: int) -> float:
        if n == 1:
            return self.d1
        if n < 1:
            raise GridError(f"gap index must be >= 1, got {n}")
        return math.exp(self.log_gap(n))

    def log_gap(self, n: int) -> float:
        if n == 1:
            return math.log(self.d1)
        if n < 1:
            raise GridError(f"gap index must be >= 1, got {n}")
        t = math.log(n)
        return -self.gamma * t - self.eta * math.log(t)

    def gaps(self, lo: int, hi: int) -> np.ndarray:
        self._check_range(lo, hi)
        return np.exp(self.log_gaps(lo, hi))

    def log_gaps(self, lo: int, hi: int) -> np.ndarray:
        self._check_range(lo, hi)
        out = rows(lo, hi)
        if lo == 1:
            out[0] = 2.0  # placeholder, overwritten below
        np.log(out, out=out)  # t = ln n, in place
        if self.eta == 0.0 and self.gamma != 0.0:
            # x - (+-0.0) == x for every nonzero x; at gamma = 0 the full
            # expression (-gamma t) - (eta ln t) keeps its +0.0 at n = 2
            out *= -self.gamma
        else:
            w = np.log(out)
            out *= -self.gamma
            out -= np.multiply(w, self.eta, out=w)
        if lo == 1:
            out[0] = math.log(self.d1)
        return out

    def gaps_and_logs(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        ld = self.log_gaps(lo, hi)
        return np.exp(ld), ld

    def gap_log_ratio_block(self, lo: int, hi: int, k: int) -> Optional[np.ndarray]:
        if lo < 2 or lo + k < 2:
            return None
        ns = rows(lo, hi)
        t = np.log1p(k / ns)
        w = np.log1p(t / np.log(ns))
        return -self.gamma * t - self.eta * w

    def order(self) -> Order:
        return Order(1.0, -self.gamma, -self.eta)

    def describe(self) -> dict:
        return {"family": self.name, "gamma": self.gamma, "eta": self.eta, "d1": self.d1}


@dataclass(frozen=True)
class ConstantGrid(GridSequence):
    """Equally spaced points: d_n = d for all n."""

    d: float = 1.0
    name: ClassVar[str] = "constant"

    def __post_init__(self) -> None:
        if not (self.d > 0.0 and math.isfinite(self.d)):
            raise GridError("constant gap must be positive and finite")

    def gap(self, n: int) -> float:
        if n < 1:
            raise GridError(f"gap index must be >= 1, got {n}")
        return self.d

    def gaps(self, lo: int, hi: int) -> np.ndarray:
        self._check_range(lo, hi)
        return np.full(hi - lo, self.d)

    def gap_log_ratio_block(self, lo: int, hi: int, k: int) -> np.ndarray:
        return np.zeros(hi - lo)

    def order(self) -> Order:
        return Order(self.d, 0.0, 0.0)

    def describe(self) -> dict:
        return {"family": self.name, "d": self.d}


@dataclass(frozen=True)
class ExplicitGrid(GridSequence):
    """Finite list of gaps with a tail policy.

    tail="cycle" repeats the list periodically (the default; it keeps
    every finite list inside the infinite-grid model), "hold" repeats
    the last gap, "error" raises beyond the data.
    """

    values: tuple[float, ...]
    tail: str = "cycle"
    name: ClassVar[str] = "explicit"

    def __post_init__(self) -> None:
        if not self.values:
            raise GridError("explicit grid needs at least one gap")
        if any(not (v > 0.0 and math.isfinite(v)) for v in self.values):
            raise GridError("explicit gaps must be positive and finite")
        if self.tail not in ("cycle", "hold", "error"):
            raise GridError(f"unknown tail policy {self.tail!r}")
        if self.tail == "error":
            object.__setattr__(self, "max_index", len(self.values))

    def gap(self, n: int) -> float:
        return self.values[_explicit_positions(len(self.values), self.tail, n, n + 1)[0]]

    def gaps(self, lo: int, hi: int) -> np.ndarray:
        return np.asarray(self.values, dtype=float)[_explicit_positions(len(self.values), self.tail, lo, hi)]

    def order(self) -> Optional[Order]:
        # cycle and hold tails keep the gaps between two positive
        # constants, order n^0; a finite list decides nothing
        return Order(None, 0.0, 0.0) if self.tail in ("cycle", "hold") else None

    def describe(self) -> dict:
        return {
            "family": self.name,
            "count": len(self.values),
            "tail": self.tail,
            "head": list(self.values[:8]),
        }


class CustomGrid(GridSequence):
    """Wraps an arbitrary gap callable; values are validated on the way out."""

    def __init__(
        self,
        fn: Callable[[int], float],
        name: str = "custom",
        max_index: Optional[int] = None,
    ) -> None:
        self._fn = fn
        self.name = name
        self.max_index = max_index

    def gap(self, n: int) -> float:
        if n < 1:
            raise GridError(f"gap index must be >= 1, got {n}")
        if self.max_index is not None and n > self.max_index:
            raise GridError(f"index {n} beyond available data ({self.max_index})")
        v = float(self._fn(n))
        if not (v > 0.0 and math.isfinite(v)):
            raise GridError(f"gap callable returned non-positive value {v!r} at n={n}")
        return v

    def describe(self) -> dict:
        return {"family": self.name}


class TildeSequence:
    """log|rtilde_n| and sign(rtilde_n), computed stably to large n.

    Unrolling the recursion gives log|rtilde_n| = (-1)^n S_n with
    S_n = sum_{k=2}^n (-1)^k log d_k, and sign(rtilde_n) = (-1)^(n-1).
    S is accumulated in 4096-row chunks whose boundary values (the
    bases) add each chunk's correctly rounded sum, the value math.fsum
    returns, so a block read anchors an ordinary cumsum at an accurate
    S_lo and the float drift stays below ~1e-10 over million-term spans.
    Only a read past the known bases builds them, from the grid's log
    gaps, _BATCH chunks per call.  A chunk starts on an even row, so its
    sum is the alternating sum of its log gaps, and exact_alternating_sums
    adds the adjacent pairs log d_2j - log d_2j+1 exactly in one float
    pass; a chunk whose pairs it cannot sum exactly (on a power grid the
    first, rows 2..4097) goes to math.fsum.
    """

    def __init__(self, grid: GridSequence) -> None:
        self.grid = grid
        self._bases: list[float] = [0.0]  # _bases[j] = S at n = 1 + j*_TILDE_CHUNK

    @staticmethod
    def _alternate(a: np.ndarray, lo: int) -> np.ndarray:
        """Multiply a[i], the value at row lo + i, by (-1)^(lo + i) in place."""
        a[(lo + 1) % 2 :: 2] *= -1.0
        return a

    def _terms(self, lo: int, hi: int) -> np.ndarray:
        """(-1)^k log d_k for lo <= k < hi, for a block read without the caller's log gaps."""
        return self._alternate(self.grid.log_gaps(lo, hi), lo)

    def _S(self, n: int) -> float:
        """S_n: the base of n's chunk, built first if missing (_BATCH chunks a read), plus its rows to n."""
        if n < 1:
            raise GridError(f"tilde index must be >= 1, got {n}")
        j = (n - 1) // _TILDE_CHUNK
        while len(self._bases) <= j:
            m = min(_BATCH, j + 1 - len(self._bases))
            b0 = 1 + (len(self._bases) - 1) * _TILDE_CHUNK
            # rows b0 + 1 and n0 + 1 are even, so a chunk's terms are +log d, -log d, ...
            ld = self.grid.log_gaps(b0 + 1, b0 + m * _TILDE_CHUNK + 1)
            for s in exact_alternating_sums(ld.reshape(m, _TILDE_CHUNK)):
                self._bases.append(self._bases[-1] + s)
        n0 = 1 + j * _TILDE_CHUNK
        if n == n0:
            return self._bases[j]
        return self._bases[j] + exact_alternating_sums(self.grid.log_gaps(n0 + 1, n + 1)[None, :])[0]

    def log_abs(self, n: int) -> float:
        s = self._S(n)
        return s if n % 2 == 0 else -s

    def value(self, n: int) -> float:
        """rtilde_n, of sign (-1)^(n-1), as a plain float; overflows to +-inf for extreme indices."""
        mag = math.exp(min(self.log_abs(n), 709.0))
        return (1.0 if n % 2 == 1 else -1.0) * mag

    def log_abs_block(self, lo: int, hi: int, log_gaps: Optional[np.ndarray] = None) -> np.ndarray:
        """log|rtilde_n| for lo <= n < hi: S_lo, then the cumsum of rows lo + 1 .. hi - 1.

        A caller that already holds log_gaps = grid.log_gaps(lo, hi + 1),
        as conditions A and B and rho_block do for d_{n+1}, passes it, and
        the block takes rows lo + 1 .. hi - 1 from it instead of evaluating
        them again, overwriting them with the parity-signed terms.
        """
        if lo < 1 or hi < lo:
            raise GridError(f"bad tilde range [{lo}, {hi})")
        if hi == lo:
            return np.empty(0)
        if log_gaps is None:
            terms = self._terms(lo + 1, hi)
        elif len(log_gaps) != hi - lo + 1:
            raise GridError(f"log_gaps for the tilde block [{lo}, {hi}) needs {hi - lo + 1} rows")
        else:
            terms = self._alternate(log_gaps[1:-1], lo + 1)
        out = np.empty(hi - lo)
        out[0] = base = self._S(lo)
        np.cumsum(terms, out=out[1:])
        out[1:] += base
        return self._alternate(out, lo)


@dataclass(frozen=True)
class RatioStats(Record):
    """Tail behaviour of the consecutive-gap ratio d_{n+1}/d_n."""

    window: tuple[int, int]
    min_ratio: float
    max_ratio: float
    limit_estimate: float


def ratio_stats(grid: GridSequence, horizon: int) -> RatioStats:
    """Min, max, and a limit estimate of d_{n+1}/d_n over [horizon/2, horizon].

    The limit estimate is the geometric mean of the window ratios
    (partial products telescope, so it is robust); for genuinely
    oscillating families it is a cycle average, not a limit, and the
    min/max spread says so.
    """
    if horizon < 4:
        raise GridError("ratio_stats needs horizon >= 4")
    lo = max(2, horizon // 2)
    mn, mx = math.inf, -math.inf
    logsum = ChunkedSum()
    count = 0
    for a, b in blocks(lo, horizon + 1):
        d = grid.gaps(a, b + 1)
        ratios = d[1:] / d[:-1]
        mn = min(mn, float(ratios.min()))
        mx = max(mx, float(ratios.max()))
        logsum.add_array(np.log(ratios))
        count += len(ratios)
    est = math.exp(logsum.total() / count)
    return RatioStats(window=(lo, horizon), min_ratio=mn, max_ratio=mx, limit_estimate=est)


@dataclass(frozen=True)
class Summability(Record):
    """Membership of the gap sequence in l^1 and l^2."""

    in_ell1: TriState
    in_ell2: TriState
    method: str
    diagnostics: dict


def classify_summability(grid: GridSequence) -> Summability:
    """Decide whether sum d_n and sum d_n^2 converge.

    A grid whose order() is known answers exactly: the l1 class is
    order.summable(), the l2 class (order**2).summable().  For the
    others the partial sums at dyadic checkpoints up to
    _SUMMABILITY_HORIZON (2^16) are reported as diagnostics but never
    promoted to a divergence verdict on their own.
    """
    order = grid.order()
    if order is not None:
        e1, e2 = TriState.of(order.summable()), TriState.of((order**2.0).summable())
        return Summability(e1, e2, method="closed-form", diagnostics={})
    horizon = _SUMMABILITY_HORIZON
    if grid.max_index is not None:
        horizon = min(horizon, grid.max_index)
    checkpoints = []
    total1, total2 = ChunkedSum(), ChunkedSum()
    prev = 1
    mark = 16
    while mark <= horizon:
        d = grid.gaps(prev, mark + 1)
        total1.add_array(d)
        total2.add_array(d * d)
        checkpoints.append({"n": mark, "sum_d": total1.total(), "sum_d2": total2.total()})
        prev = mark + 1
        mark *= 2
    return Summability(
        TriState.UNKNOWN,
        TriState.UNKNOWN,
        method="partial-sums",
        diagnostics={"checkpoints": checkpoints, "horizon": horizon},
    )
