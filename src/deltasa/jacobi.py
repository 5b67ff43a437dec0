"""Jacobi-matrix side of the model.

The boundary-triple reduction of the delta-interaction operator is the
semi-infinite Jacobi matrix with entries

    diag(n) = (alpha_n + 1/d_n + 1/d_{n+1}) / r_n^2
    off(n)  = -1 / (r_n * r_{n+1} * d_{n+1})

acting on weighted l^2 sequences, with r_0 = 1.  This module builds
those entries, the coupling sequences alpha, and the alternating
auxiliary sequence rtilde that controls the critical-coupling regime:

    rtilde_1 = 1,   rtilde_{n+1} = -d_{n+1} / rtilde_n.

rtilde swings over many orders of magnitude (for d_n = n^-gamma it
decays like n^{-gamma/2} only on average, through huge parity swings on
short grids), so it is stored in log-magnitude/sign form throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from .grid import GridError, GridSequence, Order, _explicit_positions, rows
from .numerics import _CHUNK as _BLOCK, Record, TriState, exact_alternating_sums

__all__ = [
    "PeriodPair",
    "TildeSequence",
    "AlphaSequence",
    "PowerSumAlpha",
    "ScaledInverseGapsAlpha",
    "AlphaZeroAlpha",
    "ExplicitAlpha",
    "CustomAlpha",
    "JacobiOperator",
    "rho",
    "rho_block",
    "scaled_operator",
]
# tilde_r and alpha_zero are not public: no verdict calls them, and they
# stay defined only because perfbench/instrument.py wraps them by name

_CHUNK = 4096  # rows per tilde chunk: the chunk bases fix the bits of every rtilde read
_BATCH = _BLOCK // _CHUNK  # chunks a cold read evaluates and sums at once: one probe block
_ZERO = Order(0.0, 0.0, 0.0)  # the leading term of an identically zero coupling


@dataclass(frozen=True)
class PeriodPair(Record):
    """A period-two positive sequence, stored as its odd/even values."""

    odd: float
    even: float

    def at(self, n: int) -> float:
        return self.odd if n % 2 == 1 else self.even

    def block(self, lo: int, hi: int) -> np.ndarray:
        out = np.empty(max(hi - lo, 0))
        out[0::2], out[1::2] = (self.odd, self.even) if lo % 2 == 1 else (self.even, self.odd)
        return out

    @property
    def product(self) -> float:
        return self.odd * self.even

    def to_json(self) -> dict:
        return super().to_json() | {"product": self.product}


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
        self._bases: list[float] = [0.0]  # _bases[j] = S at n = 1 + j*_CHUNK

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
        j = (n - 1) // _CHUNK
        while len(self._bases) <= j:
            m = min(_BATCH, j + 1 - len(self._bases))
            b0 = 1 + (len(self._bases) - 1) * _CHUNK
            # rows b0 + 1 and n0 + 1 are even, so a chunk's terms are +log d, -log d, ...
            for s in exact_alternating_sums(self.grid.log_gaps(b0 + 1, b0 + m * _CHUNK + 1).reshape(m, _CHUNK)):
                self._bases.append(self._bases[-1] + s)
        n0 = 1 + j * _CHUNK
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


class AlphaSequence:
    """Base class for coupling sequences alpha_n, indexed from 1."""

    name: str = "alpha"

    def alpha(self, n: int) -> float:
        raise NotImplementedError

    def alphas(self, lo: int, hi: int) -> np.ndarray:
        if lo < 1 or hi < lo:
            raise GridError(f"bad alpha range [{lo}, {hi})")
        return np.array([self.alpha(n) for n in range(lo, hi)], dtype=float)

    def leading_term(self) -> Optional[Order]:
        """Signed leading term alpha_n ~ c n^p (ln n)^q, c = 0 if alpha is zero; None if none is certified."""
        return None

    def scaled_gap_form(self) -> Optional[tuple[float, TriState]]:
        """(a, perturbation-is-O(d)) when alpha = a(1/d_n + 1/d_{n+1}) + pert."""
        return None

    def describe(self) -> dict:
        return {"family": self.name}


def _inverse_gaps_lead(grid: GridSequence, a: float) -> Optional[Order]:
    """The leading term 2a/c n^-p (ln n)^-q of a (1/d_n + 1/d_{n+1}); None if the gaps' c is unknown."""
    o = grid.order()
    if o is None or o.c is None:
        return None
    return Order(2.0 * a / o.c, -o.p, -o.q)


def _slowest(terms) -> Optional[Order]:
    """The slowest-decaying term of a sum, equal (p, q) merged; None if every merged coefficient is zero."""
    acc: dict[tuple[float, float], float] = {}
    for o in terms:
        key = (float(o.p), float(o.q))
        acc[key] = acc.get(key, 0.0) + float(o.c)
    live = [key for key, c in acc.items() if c != 0.0]
    return Order(acc[max(live)], *max(live)) if live else None


def _reflection_lead(grid: GridSequence, lead: Optional[Order]) -> Optional[Order]:
    """The leading term of alpha' = -alpha - 2(1/d_n + 1/d_{n+1}) from alpha's lead; None if unknown or cancelling."""
    envelope = _inverse_gaps_lead(grid, -2.0)
    if lead is None or lead.c is None or envelope is None:
        return None
    return _slowest((Order(-lead.c, lead.p, lead.q), envelope))


@dataclass(frozen=True)
class PowerSumAlpha(AlphaSequence):
    """alpha_n = sum of c * n^p * (ln n)^q terms.

    The log factor is clamped at ln 2 for n = 1 so negative q powers
    stay finite; asymptotics are unaffected.
    """

    terms: tuple[tuple[float, float, float], ...]
    name: ClassVar[str] = "power-sum"

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) for term in self.terms for x in term):
            raise GridError("power-sum terms (c, p, q) must be finite")

    def alpha(self, n: int) -> float:
        if n < 1:
            raise GridError(f"alpha index must be >= 1, got {n}")
        t = math.log(max(n, 2))
        ln_n = math.log(n) if n > 1 else 0.0
        total = 0.0
        for c, p, q in self.terms:
            total += c * math.exp(p * ln_n + q * math.log(t))
        return total

    def alphas(self, lo: int, hi: int) -> np.ndarray:
        if lo < 1 or hi < lo:
            raise GridError(f"bad alpha range [{lo}, {hi})")
        ns = rows(lo, hi)
        ln_n = np.log(ns)
        if any(q != 0.0 for _, _, q in self.terms):
            # ln ln max(n, 2), in ns's array; a term with q = 0 skips its
            # +-0 * ln ln n, which only flips the sign of a zero exponent
            lnln = np.log(np.log(np.maximum(ns, 2.0, out=ns), out=ns), out=ns)
        del ns
        out = np.zeros_like(ln_n)
        w = np.empty_like(ln_n)  # one term at a time: p ln n (+ q ln ln n), exp, times c
        with np.errstate(over="ignore"):  # a finite coupling may overflow the float range
            for c, p, q in self.terms:
                np.multiply(p, ln_n, out=w)
                if q != 0.0:
                    w += q * lnln
                np.exp(w, out=w)
                w *= c
                out += w
        return out

    def leading_term(self) -> Order:
        return _slowest(Order(*t) for t in self.terms) or _ZERO

    def describe(self) -> dict:
        return {"family": self.name, "terms": [list(t) for t in self.terms]}


class ScaledInverseGapsAlpha(AlphaSequence):
    """alpha_n = a * (1/d_n + 1/d_{n+1}) + perturbation_n.

    The critical-coupling candidates all live here.  When the
    perturbation's leading term and the grid's order() are both known,
    whether the perturbation is O(d_n) is decided by exponent
    comparison; otherwise it is unknown, and no certificate that needs
    it fires.  A caller who knows the form of a coupling the code cannot
    analyse states it with ``CustomAlpha(scaled_form=...)``.
    """

    name = "scaled-inverse-gaps"

    def __init__(
        self,
        grid: GridSequence,
        a: float,
        perturbation: Optional[AlphaSequence] = None,
    ) -> None:
        self.grid = grid
        self.a = float(a)
        if not math.isfinite(self.a):
            raise GridError(f"coupling strength a must be finite, got {self.a!r}")
        self.perturbation = perturbation

    def alpha(self, n: int) -> float:
        base = self.a * (1.0 / self.grid.gap(n) + 1.0 / self.grid.gap(n + 1))
        if self.perturbation is not None:
            base += self.perturbation.alpha(n)
        return base

    def alphas(self, lo: int, hi: int) -> np.ndarray:
        r = 1.0 / self.grid.gaps(lo, hi + 1)
        out = r[:-1] + r[1:]
        del r  # freed before the perturbation's own block arrays
        out *= self.a
        if self.perturbation is not None:
            out += self.perturbation.alphas(lo, hi)
        return out

    def _pert_O_d(self) -> TriState:
        lead = _ZERO if self.perturbation is None else self.perturbation.leading_term()
        order = self.grid.order()
        if lead is None or (lead.c != 0.0 and order is None):
            return TriState.UNKNOWN
        return TriState.of(lead.c == 0.0 or (lead.p, lead.q) <= (order.p, order.q))

    def leading_term(self) -> Optional[Order]:
        pert = _ZERO if self.perturbation is None else self.perturbation.leading_term()
        if self.a == 0.0:
            return pert
        lead = _inverse_gaps_lead(self.grid, self.a)
        if lead is None or pert is None:
            return None
        # None when the leading orders cancel exactly: refuse to guess deeper
        return _slowest((lead, pert))

    def scaled_gap_form(self) -> tuple[float, TriState]:
        return (self.a, self._pert_O_d())

    def describe(self) -> dict:
        d = {"family": self.name, "a": self.a}
        if self.perturbation is not None:
            d["perturbation"] = self.perturbation.describe()
        return d


class AlphaZeroAlpha(AlphaSequence):
    """The gauge-aligned coupling built from a period pair u:

        alpha0_n = -(1/d_n + 1/d_{n+1}) + (a + 1) * u_n / rtilde_n^2.

    With this coupling the gauge-scaled operator has off-diagonal
    exactly 1 and diagonal (a + 1) u_n, the periodic comparison
    operator itself.
    """

    name = "gauge-aligned"

    def __init__(
        self,
        grid: GridSequence,
        a: float,
        u: PeriodPair,
        tilde: Optional[TildeSequence] = None,
    ) -> None:
        self.grid = grid
        self.a = float(a)
        self.u = u
        self.tilde = tilde if tilde is not None else TildeSequence(grid)

    def alpha(self, n: int) -> float:
        inv = 1.0 / self.grid.gap(n) + 1.0 / self.grid.gap(n + 1)
        return -inv + (self.a + 1.0) * self.u.at(n) * math.exp(-2.0 * self.tilde.log_abs(n))

    def alphas(self, lo: int, hi: int) -> np.ndarray:
        d = self.grid.gaps(lo, hi + 1)
        inv = 1.0 / d[:-1] + 1.0 / d[1:]
        L = self.tilde.log_abs_block(lo, hi)
        u = self.u.block(lo, hi)
        return -inv + (self.a + 1.0) * u * np.exp(-2.0 * L)

    def leading_term(self) -> Optional[Order]:
        # alpha0_n ~ a (1/d_n + 1/d_{n+1}); the gauge term replaces the
        # -(...) part up to O(d)-level corrections.
        return _inverse_gaps_lead(self.grid, self.a) if self.a != 0.0 else None

    def scaled_gap_form(self) -> tuple[float, TriState]:
        return (self.a, TriState.TRUE)

    def describe(self) -> dict:
        return {"family": self.name, "a": self.a, "u": self.u.to_json()}


@dataclass(frozen=True)
class ExplicitAlpha(AlphaSequence):
    """Finite coupling list; the tail cycles (or holds / errors)."""

    values: tuple[float, ...]
    tail: str = "cycle"
    name: ClassVar[str] = "explicit"

    def __post_init__(self) -> None:
        if not self.values:
            raise GridError("explicit alpha needs at least one value")
        if not all(math.isfinite(v) for v in self.values):
            raise GridError("explicit alpha values must be finite")
        if self.tail not in ("cycle", "hold", "error"):
            raise GridError(f"unknown tail policy {self.tail!r}")

    def alpha(self, n: int) -> float:
        return self.values[_explicit_positions(len(self.values), self.tail, n, n + 1)[0]]

    def alphas(self, lo: int, hi: int) -> np.ndarray:
        return np.asarray(self.values, dtype=float)[_explicit_positions(len(self.values), self.tail, lo, hi)]

    def leading_term(self) -> Optional[Order]:
        # a cycle of one value or a held tail is constant; -0.0 == 0.0 in the set
        if self.tail == "error" or (self.tail == "cycle" and len(set(self.values)) > 1):
            return None
        return Order(self.values[-1], 0.0, 0.0)

    def describe(self) -> dict:
        return {"family": self.name, "count": len(self.values), "tail": self.tail}


class CustomAlpha(AlphaSequence):
    """Wraps an arbitrary coupling callable; leading=(c, p, q) and scaled_form's a must be finite."""

    def __init__(
        self,
        fn: Callable[[int], float],
        name: str = "custom",
        leading: Optional[tuple[float, float, float]] = None,
        scaled_form: Optional[tuple[float, bool]] = None,
    ) -> None:
        self._fn = fn
        self.name = name
        self._leading = None if leading is None else Order(*leading)
        if scaled_form is not None and not math.isfinite(scaled_form[0]):
            raise GridError(f"coupling strength a must be finite, got {scaled_form[0]!r}")
        self._scaled_form = scaled_form

    def alpha(self, n: int) -> float:
        if n < 1:
            raise GridError(f"alpha index must be >= 1, got {n}")
        v = float(self._fn(n))
        if not math.isfinite(v):
            raise GridError(f"alpha callable returned non-finite value {v!r} at n={n}")
        return v

    def leading_term(self) -> Optional[Order]:
        return self._leading

    def scaled_gap_form(self) -> Optional[tuple[float, TriState]]:
        if self._scaled_form is None:
            return None
        a, flag = self._scaled_form
        return (float(a), TriState.of(bool(flag)))

    def describe(self) -> dict:
        return {"family": self.name}


@dataclass(frozen=True)
class JacobiOperator:
    """The reduced operator: tridiagonal entries over the weighted basis."""

    grid: GridSequence
    coupling: AlphaSequence

    def diag(self, n: int) -> float:
        if n < 1:
            raise GridError(f"diag index must be >= 1, got {n}")
        dn = self.grid.gap(n)
        dn1 = self.grid.gap(n + 1)
        r2 = dn + dn1
        return _div(self.coupling.alpha(n) + _div(1.0, dn) + _div(1.0, dn1), r2)

    def off(self, n: int) -> float:
        """Entry coupling sites n and n+1."""
        if n < 1:
            raise GridError(f"off index must be >= 1, got {n}")
        return _div(-1.0, self.grid.r(n) * self.grid.r(n + 1) * self.grid.gap(n + 1))

    def entry(self, i: int, j: int) -> float:
        if abs(i - j) > 1:
            return 0.0
        if i == j:
            return self.diag(i)
        return self.off(min(i, j))

    def diag_block(self, lo: int, hi: int) -> np.ndarray:
        return self._diags(lo, self.grid.gaps(lo, hi + 1))

    def off_block(self, lo: int, hi: int) -> np.ndarray:
        """off(n) for lo <= n < hi."""
        return _offs(self.grid.gaps(lo, hi + 2))

    def _march_blocks(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """(diag_block(lo + 1, hi), off_block(lo, hi)) from one read of the gaps.

        The gaps are elementwise in n, so slices of one read keep every bit.
        """
        d = self.grid.gaps(lo, hi + 2)
        return self._diags(lo + 1, d[1:-1]), _offs(d)

    def _diags(self, lo: int, d: np.ndarray) -> np.ndarray:
        """diag(n) for lo <= n < lo + len(d) - 1, from d holding d_lo onwards; d is not written."""
        alphas = self.coupling.alphas(lo, lo + len(d) - 1)
        r = 1.0 / d
        out = alphas + r[:-1]
        out += r[1:]
        with np.errstate(over="ignore"):
            return np.divide(out, np.add(d[:-1], d[1:], out=r[:-1]), out=out)

    def truncate(self, size: int) -> np.ndarray:
        """Dense leading principal block, mostly for eyeballing and tests."""
        if size < 1:
            raise GridError("truncate needs size >= 1")
        m = np.zeros((size, size))
        dg = self.diag_block(1, size + 1)
        np.fill_diagonal(m, dg)
        if size > 1:
            od = self.off_block(1, size)
            idx = np.arange(size - 1)
            m[idx, idx + 1] = od
            m[idx + 1, idx] = od
        return m


def _div(a: float, b: float) -> float:
    """a / b as the block forms divide: a zero b gives inf or nan where Python raises."""
    try:
        return a / b
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.divide(a, b))


def _offs(d: np.ndarray) -> np.ndarray:
    """off(n) for lo <= n < lo + len(d) - 2, from d holding d_lo onwards; d is not written."""
    r2 = d[:-1] + d[1:]  # r_n^2 for n = lo .. lo + len(d) - 2
    out = np.sqrt(r2[:-1] * r2[1:])
    out *= d[1:-1]
    return np.divide(-1.0, out, out=out)


def tilde_r(grid: GridSequence, n: int, tilde: Optional[TildeSequence] = None) -> float:
    """rtilde_n: the sign-alternating gauge with rtilde_1 = 1,
    rtilde_{n+1} = -d_{n+1}/rtilde_n.  Convenience scalar entry point;
    pass a shared TildeSequence when evaluating many indices."""
    if tilde is None:
        tilde = TildeSequence(grid)
    return tilde.value(n)


def alpha_zero(
    grid: GridSequence,
    a: float,
    u: PeriodPair,
    n: int,
    tilde: Optional[TildeSequence] = None,
) -> float:
    """The gauge-aligned coupling alpha0_n = -(1/d_n + 1/d_{n+1}) + (a+1) u_n / rtilde_n^2.

    With this coupling the scaled operator is exactly the period-two
    comparison matrix with diagonal (a+1) u_n and unit off-diagonal.
    """
    if tilde is None:
        tilde = TildeSequence(grid)
    return AlphaZeroAlpha(grid=grid, a=a, u=u, tilde=tilde).alpha(n)


def rho(grid: GridSequence, n: int, tilde: Optional[TildeSequence] = None) -> float:
    """rho_n = (1/d_n + 1/d_{n+1}) * rtilde_n^2 in log space; inf beyond the float range."""
    if tilde is None:
        tilde = TildeSequence(grid)
    ldn = grid.log_gap(n)
    ldn1 = grid.log_gap(n + 1)
    inv_log = np.logaddexp(-ldn, -ldn1)
    try:
        return math.exp(float(inv_log) + 2.0 * tilde.log_abs(n))
    except OverflowError:
        return math.inf


def rho_block(
    grid: GridSequence, lo: int, hi: int, tilde: Optional[TildeSequence] = None
) -> np.ndarray:
    """rho_n for lo <= n < hi, as rho computes it: inf beyond the float range, silently."""
    if tilde is None:
        tilde = TildeSequence(grid)
    ld = grid.log_gaps(lo, hi + 1)
    inv_log = np.logaddexp(-ld[:-1], -ld[1:])
    L = tilde.log_abs_block(lo, hi, ld)  # overwrites ld's terms
    with np.errstate(over="ignore"):
        return np.exp(inv_log + 2.0 * L)


def scaled_operator(
    grid: GridSequence,
    coupling: AlphaSequence,
    n: int,
    tilde: Optional[TildeSequence] = None,
) -> tuple[float, float]:
    """Entries of the two-sided scaling D B D with D = diag(r_n rtilde_n).

    diag_s(n) = (alpha_n + 1/d_n + 1/d_{n+1}) * rtilde_n^2 and
    off_s(n) = -rtilde_n rtilde_{n+1} / d_{n+1}, which the tilde
    recursion makes identically +1.  For the gauge-aligned coupling the
    scaled matrix is the period-two comparison operator with diagonal
    (a+1) u_n.
    """
    if tilde is None:
        tilde = TildeSequence(grid)
    dn = grid.gap(n)
    dn1 = grid.gap(n + 1)
    Ln = tilde.log_abs(n)
    alpha_n = coupling.alpha(n)
    diag_s = (alpha_n + 1.0 / dn + 1.0 / dn1) * math.exp(2.0 * Ln)
    # consecutive tilde signs are opposite, so the sign is exactly +1
    off_s = math.exp(Ln + tilde.log_abs(n + 1) - grid.log_gap(n + 1))
    return diag_s, off_s
