"""Deficiency analysis: recurrence oracle, Floquet discriminant, verdict.

The oracle solves (B - lambda) h = 0 forward from h_1 = 1 with dynamic
rescaling, classifies square-summability from dyadic block masses, and
never claims more than the block trend supports.  The verdict pipeline
runs the analytic certificates in order of strength and falls back to
the oracle, whose conclusions are always labeled advisory.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Optional, Union

import numpy as np

from .criteria import (
    _B_CEILING,
    SeriesVerdict,
    _normalize_horizons,
    check_condition_B,
    select_G,
    test_bound_II,
    test_bound_III,
    test_carleman_i,
)
from .grid import GridSequence, Order, classify_summability, ratio_stats
from .jacobi import AlphaSequence, JacobiOperator, PeriodPair, TildeSequence, _reflection_lead
from .numerics import HORIZONS, MIN_HORIZON, WINDOW_CAP, Record, TriState, _json_value

__all__ = [
    "RecurrenceSolution",
    "solve_recurrence",
    "L2Verdict",
    "l2_probe",
    "FloquetResult",
    "floquet_discriminant",
    "VerdictKind",
    "VerdictConfig",
    "CriterionVerdict",
    "deficiency_verdict",
]

_SCALE_BITS = 100  # rescale when |h| leaves [2^-100, 2^100]
_SCALE_UP = 2.0**_SCALE_BITS
_SCALE_DOWN = 2.0**-_SCALE_BITS
# |re| + |im| <= sqrt(2) |h|, so a row the march does not stop at needs no rescale
_GUARD_LO = 1.5 * _SCALE_DOWN
# a rescale multiplies h by at most 2^_SHIFT_MAX_BITS, so the shift and its
# square, which carries the block mass into the new frame, stay finite; a
# subnormal peak takes further rescales on the rows after it
_SHIFT_MAX_BITS = 511
_CHUNK = 2048  # rows per march block: its operator entries, marched values and bookkeeping arrays
_HEAD_KEEP = 4096  # head entries a solution keeps
_RESIDUAL_STRIDE = 997  # rows between residual spot checks

# l2_probe: the last _L2_WINDOW block-mass ratios must all stay below
# 1 - _L2_MARGIN or all above 1 + _L2_MARGIN, over _L2_MIN_BLOCKS blocks or more
_L2_MARGIN = 0.1
_L2_WINDOW = 6
_L2_MIN_BLOCKS = 8
# floquet_discriminant: |Delta| within this distance of 1 is a band edge
_FLOQUET_MARGIN = 1e-6
# phase 3 gap-ratio gate: d_{n+1}/d_n must tend to 1 within the tolerance
# and its max/min spread over the tail window must stay under the bound
_RATIO_LIMIT_TOL = 0.02
_RATIO_SPREAD_MAX = 1.1


@dataclass(frozen=True)
class RecurrenceSolution(Record):
    """Forward solution of (B - lambda) h = 0, stored in scaled form.

    head holds the first entries in plain float precision (complex when
    lambda is complex); block_log_masses[k] is ln of the true l2 mass
    of indices [2^k, 2^{k+1}), complete blocks only.  scale_events
    counts dynamic rescalings; residual_max is the largest row residual
    |off(n-1)h(n-1) + (diag(n)-lambda)h(n) + off(n)h(n+1)| relative to
    the row's magnitude, sampled on rescale-free segments.  The JSON
    holds the first 16 head entries.
    """

    lam: complex = field(metadata={"json": "lambda"})
    horizon: int
    head: np.ndarray
    block_log_masses: tuple[tuple[int, float], ...]
    scale_events: int
    residual_max: float
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return super().to_json() | {"head": _json_value(self.head[:16].tolist())}


def _check_offs(offs: np.ndarray, first: int) -> None:
    """Raise ValueError naming the first n with off(n) = 0; offs[i] holds off(first + i)."""
    if not offs.all():
        n = first + int(np.flatnonzero(offs == 0.0)[0])
        raise ValueError(f"off({n}) = 0: the recurrence does not determine h_{n + 1}")


def _row_residual(o_prev, c, o_cur, h_prev, h_cur, h_next) -> float:
    """|o_prev h_prev + c h_cur + o_cur h_next| over the sum of the three terms' moduli.

    0.0 when that sum is 0, nan when a term is nan.  The march's spot
    checks (whose running max skips a nan) and plot-data's residuals
    both call it, each with its own entries.
    """
    a, b, d = o_prev * h_prev, c * h_cur, o_cur * h_next
    scale = abs(a) + abs(b) + abs(d)
    return abs(a + b + d) / scale if scale != 0.0 else 0.0


def _log_mass(acc: float, sigma: float) -> float:
    """ln of a block mass held as acc in the scale frame sigma."""
    return math.log(acc) + 2.0 * sigma if acc > 0.0 else -math.inf


def _march_exact(
    cols: tuple[np.ndarray, ...], start: tuple[float, float, float, float], lo: float, n: int, ci: float
) -> tuple[np.ndarray, dict[int, tuple[float, Union[float, complex]]], tuple[float, float, float, float]]:
    """March rows n+1 .. n+len(cols[0]) with the per-row guard and rescale test.

    cols holds the loop's columns: (lambda.real - diag(m), off(m-1),
    1/off(m), 0/off(m)) for nonreal lambda, whose imaginary part is ci,
    and (lambda - diag(m), off(m-1), off(m)) for real lambda.  start is
    (re, im) of h_n, then of h_{n+1}.  The loop stops at a row where
    |re| + |im| leaves (lo, 2^100); there the exact test runs, lo
    becomes 1.5 * 2^-100 and the march goes on from the same row.
    Returns the marched floats from h_n on, packed, as marched before
    rescales; the rescales, row -> (shift, rescaled h_{row+1}); and the
    final state.
    """
    complex_lam = len(cols) == 4
    pr, pi, hr, hi = start
    out = [pr, pi, hr, hi] if complex_lam else [pr, hr]
    put = out.append
    w = 2 if complex_lam else 1
    events: dict[int, tuple[float, Union[float, complex]]] = {}
    up = _SCALE_UP
    rows = zip(*map(memoryview, cols))
    while True:
        if complex_lam:
            for c, o, s, r in rows:
                x = (c * hr - ci * hi) - (o * pr - 0.0 * pi)
                y = (c * hi + ci * hr) - (o * pi + 0.0 * pr)
                pr = hr
                pi = hi
                hr = (x + y * r) * s
                hi = (y - x * r) * s
                put(hr)
                put(hi)
                if not lo < abs(hr) + abs(hi) < up:
                    break
            else:
                break
        else:
            for c, o, s in rows:
                pr, hr = hr, (c * hr - o * pr) / s
                put(hr)
                if not lo < abs(hr) < up:
                    break
            else:
                break
        lo = _GUARD_LO
        p, h = (complex(pr, pi), complex(hr, hi)) if complex_lam else (pr, hr)
        a_prev, a_cur = abs(p), abs(h)
        peak = a_prev if a_prev > a_cur else a_cur
        if peak > _SCALE_UP or (0.0 < peak < _SCALE_DOWN):
            shift = math.ldexp(1.0, min(-int(math.frexp(peak)[1]), _SHIFT_MAX_BITS))
            # numpy scales a complex h by the full product with complex(shift, 0)
            factor = complex(shift, 0.0) if complex_lam else shift
            p, h = p * factor, h * factor
            pr, pi, hr, hi = p.real, p.imag, h.real, h.imag
            events[n + len(out) // w - 2] = (shift, h)
    return _packed(out), events, (pr, pi, hr, hi)


def _packed(vals: list[float]) -> np.ndarray:
    """vals as a read-only float64 array: struct packs a list of floats faster than np.fromiter reads it."""
    return np.frombuffer(struct.pack(f"{len(vals)}d", *vals))


def _in_band(marched: np.ndarray, lo: float, complex_lam: bool) -> bool:
    """True if every float of marched is nonzero and every row's |re| + |im|
    (|h| for real lambda) lies strictly inside (lo, 2^100): the rows on
    which the guarded march neither stops nor differs from the lean one."""
    band = np.abs(marched[0::2]) if complex_lam else np.abs(marched)
    if complex_lam:
        with np.errstate(over="ignore"):  # an inf sum is out of band, as the guard's is
            band += np.abs(marched[1::2])
    return bool(marched.all() and lo < band.min() and band.max() < _SCALE_UP)


def solve_recurrence(
    op: JacobiOperator,
    lam: Union[float, complex],
    N: int,
) -> RecurrenceSolution:
    """March h_{n+1} = ((lambda - diag(n)) h_n - off(n-1) h_{n-1}) / off(n).

    The first row fixes h_2: (diag(1) - lambda) h_1 + off(1) h_2 = 0
    with h_1 = 1.  Growth beyond 2^100 (or decay below) triggers a
    power-of-two rescale of the running pair, tracked in a log ledger
    so block masses stay exact.  Row residuals are spot-checked every
    _RESIDUAL_STRIDE (997) rows, skipping rows adjacent to a rescale (the
    identity only holds within one scale frame).

    head keeps the first _HEAD_KEEP (4096) entries, each in whatever
    scale frame was current when it streamed past; meta["head_pure_until"]
    marks the last index before the first rescale, up to which head
    carries true values.

    The march takes _CHUNK rows at a time, their entries from one read
    of the gaps, and its Python loop does only the recurrence: on the
    float pair (re, im) for nonreal lambda, on one float for real
    lambda.  Every float is the one numpy scalar arithmetic gives: the
    pair is CPython's complex product written out, then numpy's complex
    / real division (Smith's: multiply by 1/off(n) with the signed-zero
    ratio 0/off(n)).  That exact step needs a guard, which _march_exact
    runs: it stops at a row where |re| + |im| leaves
    (1.5 * 2^-100, 2^100), which every rescale needs, runs the exact
    test there and resumes.

    A chunk is first marched by a lean loop with no per-row test.  For
    nonreal lambda it drops the four signed-zero terms, 0.0 * im,
    0.0 * re and the two products with 0/off(n); for real lambda it is
    the exact step.  Its values are packed into one array, and the
    chunk is kept if every marched component is nonzero and every row's
    |re| + |im| lies strictly inside the guard's band.  Then it equals
    the exact march bit for bit: for finite operands a dropped term is a
    signed zero, adding or subtracting a signed zero returns the other
    operand unless that operand is itself zero, and a nonzero, finite
    component x * (1/off(n)) has a nonzero, finite x; and the guard
    would neither have stopped nor rescaled.  Any other chunk (85 of
    the 10,240 over the analyze-oracle pool) is dropped and marched
    again from its start by _march_exact.  The first row's exact test also reads
    |h_2|; when that would rescale, the first chunk goes to _march_exact
    directly.  The block masses (a sequential cumsum, cut at block edges
    and rescales), the residual spot checks and the head are then read
    off the packed values with numpy.  A zero off(n) that the march
    would divide by raises ValueError naming n, at either kind of lambda.
    """
    if N < 8:
        raise ValueError("solve_recurrence needs N >= 8")
    if not np.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    if isinstance(lam, complex) and lam.imag == 0.0:
        lam = lam.real  # a lambda on the real axis is marched as a real one
    complex_lam = isinstance(lam, complex)
    lam_c = complex(lam) if complex_lam else float(lam)
    scalar = complex if complex_lam else lambda x, _: x  # h from its (re, im)
    keep = min(_HEAD_KEEP, N)

    off1 = op.off(1)
    _check_offs(np.array([off1]), 1)
    h = -(op.diag(1) - lam_c) * scalar(1.0, 0.0) / off1
    pr, pi, hr, hi = 1.0, 0.0, h.real, h.imag  # h_n and h_{n+1} in the current scale frame
    w = 2 if complex_lam else 1  # floats per h in the arrays below: re, or re and im
    head = np.empty(w * keep)
    head[: 2 * w] = [pr, pi, hr, hi] if complex_lam else [pr, hr]
    filled = 2 * w  # floats of head written

    sigma = 0.0  # true h = stored h * exp(sigma)
    scale_events = 0
    residual_max = 0.0
    last_rescale = 1
    first_rescale = N + 1

    block_logs: list[tuple[int, float]] = []
    acc = 1.0  # running block mass |h_1|^2, current scale frame
    cur_block = 0  # block [1, 2) holds n = 1
    next_edge = 2  # first index of block cur_block + 1
    next_check = max(_RESIDUAL_STRIDE, 2)  # next spot-checked row
    ci = lam_c.imag
    # the first row's exact test reads |h_2| as well as |h_3|: when |h_2| alone
    # would rescale, the band (inf, 2^100) sends the first chunk to _march_exact
    a2 = abs(h)
    lo = math.inf if a2 > _SCALE_UP or 0.0 < a2 < _SCALE_DOWN else _GUARD_LO

    n = 1  # the march is at row n: (pr, pi) holds h_n, (hr, hi) holds h_{n+1}
    while n < N - 1:
        top = min(n + _CHUNK, N - 1)
        diags, offs = op._march_blocks(n, top + 1)  # diag(n+1) .. diag(top), off(n) .. off(top)
        offs_prev, offs_cur = offs[:-1], offs[1:]
        _check_offs(offs_cur, n + 1)
        # the loop reads Python floats; a memoryview yields them without building lists
        if complex_lam:
            cols = (lam_c.real - diags, offs_prev, 1.0 / offs_cur)
        else:
            cols = (lam_c - diags, offs_prev, offs_cur)
        start = (pr, pi, hr, hi)
        out = [pr, pi, hr, hi] if complex_lam else [pr, hr]  # h_n .. h_{top+1} as marched
        put = out.append
        if complex_lam:
            for c, o, s in zip(*map(memoryview, cols)):
                x = (c * hr - ci * hi) - o * pr
                y = (c * hi + ci * hr) - o * pi
                pr = hr
                pi = hi
                hr = x * s
                hi = y * s
                put(hr)
                put(hi)
        else:
            for c, o, s in zip(*map(memoryview, cols)):
                pr, hr = hr, (c * hr - o * pr) / s
                put(hr)
        v = _packed(out)
        del out  # a list of floats takes four times its packed size
        events: dict[int, tuple[float, Union[float, complex]]] = {}  # row -> shift, rescaled h_{row+1}
        if not _in_band(v[2 * w :], lo, complex_lam):
            del v
            if complex_lam:
                cols += (0.0 / offs_cur,)
            v, events, (pr, pi, hr, hi) = _march_exact(cols, start, lo, n, ci)
            lo = _GUARD_LO
        del cols

        # |h| of rows n .. top+1, in the frame each row's mass was added in
        mags = np.hypot(v[0::2], v[1::2]) if complex_lam else np.abs(v)
        for m, (_, h) in events.items():
            mags[m + 1 - n] = abs(h)
        # sq[m - n] = |h_m|^2; the slot before a run's first row holds acc, so a
        # cumsum over the slice adds the run to acc left to right
        with np.errstate(over="ignore"):
            sq = mags[:-1] * mags[:-1]
        pos = n + 1  # first row not yet in acc
        for m, (shift, _) in [*events.items(), (top, (1.0, 0.0))]:
            while next_edge <= m:
                sq[pos - n - 1] = acc
                acc = float(sq[pos - n - 1 : next_edge - n].cumsum()[-1])
                block_logs.append((cur_block, _log_mass(acc, sigma)))
                acc, cur_block, pos, next_edge = 0.0, cur_block + 1, next_edge, next_edge << 1
            sq[pos - n - 1] = acc
            acc = float(sq[pos - n - 1 : m - n + 1].cumsum()[-1]) * (shift * shift)
            sigma -= math.log(shift)
            pos = m + 1

        at = (lambda t: complex(v[2 * t], v[2 * t + 1])) if complex_lam else v.item
        while next_check <= top:
            m, next_check = next_check, next_check + _RESIDUAL_STRIDE
            if m - 1 in events or m - last_rescale <= 1:
                continue
            j = m - n - 1
            h_prev = events[m - 2][1] if m - 2 in events else at(j)
            h_cur, h_next = at(j + 1), at(j + 2)
            residual = _row_residual(offs_prev[j], diags[j] - lam_c, offs_cur[j], h_prev, h_cur, h_next)
            residual_max = max(residual_max, residual)

        if events:
            scale_events += len(events)
            first_rescale = min(first_rescale, *events)
            last_rescale = max(events)
        take = min(len(v), w * (2 + keep) - filled) - 2 * w
        head[filled : filled + take] = v[2 * w : 2 * w + take]
        filled += take
        n = top
    # (hr, hi) is h_N; close its block, keeping it only if complete
    if N == next_edge:
        block_logs.append((cur_block, _log_mass(acc, sigma)))
    else:
        acc += abs(scalar(hr, hi)) ** 2
        if N == next_edge - 1:
            block_logs.append((cur_block, _log_mass(acc, sigma)))
    return RecurrenceSolution(
        lam=lam_c if complex_lam else complex(lam_c, 0.0),
        horizon=N,
        head=head.view(np.complex128) if complex_lam else head,
        block_log_masses=tuple(block_logs),
        scale_events=scale_events,
        residual_max=residual_max,
        meta={
            "keep": keep,
            "residual_stride": _RESIDUAL_STRIDE,
            "head_pure_until": min(first_rescale, keep),
        },
    )


@dataclass(frozen=True)
class L2Verdict(Record):
    classification: str  # "in_ell2" | "not_in_ell2" | "unknown"
    decay_ratio: float
    block_norms: tuple[tuple[int, float], ...]
    margin: float
    window: int
    notes: str = ""


def l2_probe(sol: RecurrenceSolution) -> L2Verdict:
    """Classify square-summability from dyadic block masses.

    in_ell2 requires every consecutive block-mass ratio over the last
    _L2_WINDOW (6) blocks to stay below 1 - _L2_MARGIN (0.9);
    not_in_ell2 requires every ratio above 1 + _L2_MARGIN.  Fewer than
    _L2_MIN_BLOCKS (8) complete blocks, or mixed behavior, yields
    unknown.  decay_ratio is the geometric mean ratio over the window.
    The verdict reports the margin and window it used.
    """
    margin, window, min_blocks = _L2_MARGIN, _L2_WINDOW, _L2_MIN_BLOCKS
    blocks = sol.block_log_masses
    if len(blocks) < min_blocks:
        notes = f"only {len(blocks)} complete blocks, need {min_blocks}"
        return L2Verdict("unknown", math.nan, blocks, margin, window, notes=notes)
    tail = blocks[-(window + 1):]
    log_ratios = [b[1] - a[1] for a, b in zip(tail, tail[1:])]
    if any(not math.isfinite(r) for r in log_ratios):
        return L2Verdict("unknown", math.nan, blocks, margin, window, notes="empty block in window")
    # compare in log space: exploding solutions overflow exp()
    mean_log = sum(log_ratios) / len(log_ratios)
    decay_ratio = math.exp(mean_log) if mean_log < 700.0 else math.inf
    if max(log_ratios) < math.log(1.0 - margin):
        cls = "in_ell2"
    elif min(log_ratios) > math.log1p(margin):
        cls = "not_in_ell2"
    else:
        cls = "unknown"
    return L2Verdict(cls, decay_ratio, blocks, margin, window)


@dataclass(frozen=True)
class FloquetResult(Record):
    u: PeriodPair
    a: float
    lam: float = field(metadata={"json": "lambda"})
    discriminant: float
    inside_band: TriState


def floquet_discriminant(u: PeriodPair, a: float) -> FloquetResult:
    """Half-trace of the period-two transfer matrix of the comparison
    operator (diagonal (a+1) u_n, off-diagonal 1) at lambda = 0, the
    only spectral point the certificate uses.

    Delta = ((0 - (a+1) u_odd)(0 - (a+1) u_even) - 2) / 2.
    |Delta| < 1 puts 0 inside a spectral band: every solution is
    bounded and non-decaying, which upgrades to the deficiency verdict
    whenever the scaling sequence r rtilde is square-summable.  Values
    within _FLOQUET_MARGIN (1e-6) of 1 are band edges, flagged unknown
    rather than called.
    """
    ap1 = a + 1.0
    delta = ((0.0 - ap1 * u.odd) * (0.0 - ap1 * u.even) - 2.0) / 2.0
    return FloquetResult(u=u, a=a, lam=0.0, discriminant=delta, inside_band=_band_class(delta))


def _band_class(delta: float) -> TriState:
    """Where the half-trace delta puts lambda = 0: TRUE strictly inside a band
    (|delta| <= 1 - _FLOQUET_MARGIN), FALSE strictly outside (|delta| >=
    1 + _FLOQUET_MARGIN), UNKNOWN at a band edge in between."""
    if abs(delta) <= 1.0 - _FLOQUET_MARGIN:
        return TriState.TRUE
    if abs(delta) >= 1.0 + _FLOQUET_MARGIN:
        return TriState.FALSE
    return TriState.UNKNOWN


# ---------------------------------------------------------------------------
# verdict pipeline


class VerdictKind(str, Enum):
    SELF_ADJOINT = "SelfAdjoint"
    DEFICIENT = "Deficient"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class VerdictConfig:
    """The horizon ladder a verdict scans; every other scan length derives from it.

    A ladder that is empty, not strictly increasing, not integral or
    below MIN_HORIZON raises ValueError; horizons holds the ladder as a
    tuple of ints.  Every threshold is a fixed constant.
    """

    horizons: tuple[int, ...] = HORIZONS

    def __post_init__(self) -> None:
        hs = _normalize_horizons(self.horizons)
        if hs[0] < MIN_HORIZON:
            raise ValueError(f"every horizon must be at least {MIN_HORIZON}, the shortest condition-B scan")
        object.__setattr__(self, "horizons", hs)

    @classmethod
    def up_to(cls, top: int) -> "VerdictConfig":
        """The default ladder below top, then top."""
        return cls(tuple(h for h in HORIZONS if h < top) + (top,))

    @property
    def bound_horizon(self) -> int:
        """The envelope bounds' scan length: the second-to-last horizon, or the only one."""
        return self.horizons[-2] if len(self.horizons) > 1 else self.horizons[0]

    @property
    def oracle_horizon(self) -> int:
        """The gap-ratio window and, cut by _oracle_rows, the oracle's march: the top horizon, at most WINDOW_CAP."""
        return min(WINDOW_CAP, self.horizons[-1])

    def to_json(self) -> dict:
        """The horizons and every fixed threshold the verdict ran with."""
        return {
            "horizons": list(self.horizons),
            "oracle_horizon": self.oracle_horizon,
            "lambda_probes": [[0.0, 1.0]],
            "floquet_margin": _FLOQUET_MARGIN,
            "condition_b_ceiling": _B_CEILING,
            "ratio_limit_tol": _RATIO_LIMIT_TOL,
            "ratio_spread_max": _RATIO_SPREAD_MAX,
            "l2_margin": _L2_MARGIN,
        }


# deficiency indices (n_plus, n_minus) of each verdict
_INDICES = {
    VerdictKind.SELF_ADJOINT: (0, 0),
    VerdictKind.DEFICIENT: (1, 1),
    VerdictKind.INCONCLUSIVE: (None, None),
}


@dataclass(frozen=True)
class CriterionVerdict(Record):
    verdict: VerdictKind
    certificate: Optional[str]
    advisory: bool
    provenance: str
    flags: tuple[str, ...] = ()
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_plus(self) -> Optional[int]:
        return _INDICES[self.verdict][0]

    @property
    def n_minus(self) -> Optional[int]:
        return _INDICES[self.verdict][1]

    def to_json(self) -> dict:
        return super().to_json() | {"n_plus": self.n_plus, "n_minus": self.n_minus}


def _certified(
    kind: VerdictKind, certificate: str, reason: str, flags: list, diagnostics: dict
) -> CriterionVerdict:
    """A non-advisory verdict, its provenance naming the certificate."""
    return CriterionVerdict(
        kind, certificate, False, f"certified by {certificate}: {reason}", tuple(flags), diagnostics
    )


# the oracle's verdict for each decisive class
_ORACLE_OUTCOMES = {
    "in_ell2": (VerdictKind.DEFICIENT, "oracle-ell2", "is square-summable by dyadic block decay"),
    "not_in_ell2": (
        VerdictKind.SELF_ADJOINT,
        "oracle-growth",
        "grows block-to-block, so no square-summable solution was found",
    ),
}


# the flag of a discriminant that certifies nothing, by its band class
_BAND_FLAGS = {
    TriState.UNKNOWN: "discriminant-at-band-edge",
    TriState.TRUE: "perturbation-order-not-certified",
    TriState.FALSE: "discriminant-outside-band",
}


def _oracle_rows(horizon: int) -> int:
    """The edge after the last dyadic block complete at horizon: l2_probe reads no later row."""
    return min(horizon, 1 << ((horizon + 1).bit_length() - 1))


def _oracle_advisory(
    op: JacobiOperator, cfg: VerdictConfig, diagnostics: dict, flags: list
) -> CriterionVerdict:
    """Numerical fallback: classify the solution at lambda = +i, always advisory.

    B is real, so the -i solution is the conjugate of the +i one, with the same
    block masses and l2_probe class.  One march decides, recorded under oracle_lambda_+1i;
    it stops at _oracle_rows(cfg.oracle_horizon) (10^5 -> 2^16), and a block's mass is
    the same sequential sum either way: later rows would move only residual_max and scale_events.
    """
    sol = solve_recurrence(op, 1j, _oracle_rows(cfg.oracle_horizon))
    probe = l2_probe(sol)
    diagnostics["oracle_lambda_+1i"] = {"solution": sol.to_json(), "l2": probe.to_json()}
    if probe.classification in _ORACLE_OUTCOMES:
        kind, certificate, found = _ORACLE_OUTCOMES[probe.classification]
        provenance = f"numerical-advisory: the forward solution at lambda = +i {found}"
    else:
        kind, certificate = VerdictKind.INCONCLUSIVE, None
        provenance = "inconclusive: the oracle block trend is ambiguous"
    return CriterionVerdict(kind, certificate, True, provenance, tuple(flags), diagnostics)


def _refuted(test: str, lead: Optional[Order], order: Optional[Order]) -> Optional[dict]:
    """The record of envelope bound test, s_n >= -C d_n, refuted in closed form; None if s's lead refutes nothing.

    With lead = c n^p (ln n)^q, s's signed leading term, c < 0 and (p, q)
    strictly above the gaps' order, -s_n/d_n grows without bound, so no C
    exists.  A positive, zero, tied, unknown or cancelled (None) lead
    refutes nothing, and the bound is scanned.
    """
    if lead is None or not (lead.c or 0.0) < 0.0 or order is None or (lead.p, lead.q) <= (order.p, order.q):
        return None
    return {"test": test, "holds": "false", "refuted_by": "order", "leading": asdict(lead), "gaps": asdict(order)}


class _GridFacts:
    """The scans a verdict reads of grid alone at cfg's ladder, each run on first read.

    No coupling changes them, so verdicts on one grid and ladder can share
    one record.  cond_b scans tilde, the grid's TildeSequence, which other
    readers may share: its chunk bases do not depend on which read built
    them.  Each scan looks its function up in this module's globals.
    """

    def __init__(self, grid: GridSequence, cfg: VerdictConfig) -> None:
        self.grid, self.cfg = grid, cfg

    summ = functools.cached_property(lambda self: classify_summability(self.grid))
    ratios = functools.cached_property(lambda self: ratio_stats(self.grid, self.cfg.oracle_horizon))
    tilde = functools.cached_property(lambda self: TildeSequence(self.grid))
    cond_b = functools.cached_property(lambda self: check_condition_B(self.grid, self.cfg.horizons[-1], tilde=self.tilde))


def deficiency_verdict(
    grid: GridSequence,
    alpha: AlphaSequence,
    cfg: Optional[VerdictConfig] = None,
    *,
    facts: Optional[_GridFacts] = None,
) -> CriterionVerdict:
    """Decide SelfAdjoint / Deficient(1,1) / Inconclusive for B built on
    (grid, alpha).

    Certificate order (strongest first; partial sums decide nothing and stop at the first rung):
      0. gaps summable -> outside the model, Inconclusive;
         gaps not square-summable -> SelfAdjoint for every coupling.
      1. divergent coupling series (carleman-i), by exponent comparison.
      2. envelope bounds II / III with G = 0: alpha's reflection or alpha
         itself is semibounded; a bound whose sequence's leading term is
         negative and strictly above the gaps' order is refuted unscanned.
      3. scaled-gap couplings near the critical line.  On gaps whose order
         states its constant c, d_{n+1}/d_n -> 1 gives u_odd u_even = 4, so
         Delta = 2(a+1)^2 - 1; a Delta at the Jordan edge +1 or above it
         cannot certify, so it is recorded with no condition-B scan and
         flagged.  That record comes from the product identity alone and
         does not establish the period-two structure.  Otherwise condition
         B, then condition A read from the gaps' l2 class, plus the Floquet
         discriminant of B's period pair strictly inside a band.
      4. the lambda = +i oracle to _oracle_rows(cfg.oracle_horizon), always advisory.

    Summability, the gap ratios and condition B come from facts, a _GridFacts
    record that verdicts on one grid and ladder may share (else the verdict
    builds its own); it moves no output byte.  A record of another grid
    object or another ladder raises ValueError.
    """
    cfg = cfg or VerdictConfig()
    facts = facts or _GridFacts(grid, cfg)
    if facts.grid is not grid or facts.cfg.horizons != cfg.horizons:
        raise ValueError("facts is a record of another grid or another horizon ladder")
    diagnostics: dict = {"config": cfg.to_json()}
    flags: list[str] = []

    summ = facts.summ
    diagnostics["summability"] = summ.to_json()
    if summ.in_ell1 is TriState.TRUE:
        return CriterionVerdict(
            VerdictKind.INCONCLUSIVE,
            None,
            False,
            "inconclusive: the gaps are summable, so the points accumulate "
            "and the half-line model these tests address does not apply",
            ("gaps-summable-outside-model",),
            diagnostics,
        )
    if summ.in_ell2 is TriState.FALSE:
        return _certified(
            VerdictKind.SELF_ADJOINT,
            "non-square-summable-gaps",
            "the squared gaps diverge, which forces self-adjointness for every coupling",
            flags,
            diagnostics,
        )

    carleman = test_carleman_i(grid, alpha, cfg.horizons[:1])
    diagnostics["carleman_i"] = carleman.to_json()
    if carleman.verdict is SeriesVerdict.DIVERGES:
        return _certified(
            VerdictKind.SELF_ADJOINT,
            "carleman-series",
            "the weighted coupling series diverges by exponent comparison",
            flags,
            diagnostics,
        )

    diagnostics["G"] = select_G(grid)
    order, lead = grid.order(), alpha.leading_term()
    envelopes = (
        ("bound-II", test_bound_II, _reflection_lead(grid, lead), "upper", "below the negative"),
        ("bound-III", test_bound_III, lead, "lower", "above the comparison"),
    )
    for test, probe, s_lead, side, where in envelopes:
        key = test.replace("-", "_")
        refuted = _refuted(test, s_lead, order)
        if refuted is not None:  # no scan: the orders rule out every constant
            diagnostics[key] = refuted
            continue
        bound = probe(grid, alpha, N=cfg.bound_horizon)
        diagnostics[key] = bound.to_json()
        del diagnostics[key]["params"]["G"]  # diagnostics["G"] holds it once
        if bound.holds is TriState.TRUE:
            return _certified(
                VerdictKind.SELF_ADJOINT,
                f"{side}-envelope-bound",
                f"alpha stays {where} envelope with stabilized constant {bound.minimal_constant:.6g}",
                flags,
                diagnostics,
            )

    op = JacobiOperator(grid, alpha)

    scaled = alpha.scaled_gap_form()
    if scaled is not None:
        a, pert_ok = scaled
        stats = facts.ratios
        diagnostics["ratio_stats"] = stats.to_json()
        ratio_ok = (
            abs(stats.limit_estimate - 1.0) <= _RATIO_LIMIT_TOL
            and stats.max_ratio / stats.min_ratio <= _RATIO_SPREAD_MAX
        )
        if not ratio_ok:
            flags.append("gap-ratio-not-flat")
        if pert_ok is TriState.UNKNOWN:
            flags.append("perturbation-order-unknown")
        periodic = ratio_ok and pert_ok is not TriState.FALSE
        # stated gaps c n^p (ln n)^q have d_{n+1}/d_n -> 1, so u_odd u_even = 4 and
        # Delta = 2(a+1)^2 - 1 >= -1 with no scan.  From the Jordan edge Delta = +1
        # up no period-two comparison certifies, whatever B says; Delta = -1 is an
        # edge only by the margin, so B still runs there (ROADMAP item 1)
        delta0 = 2.0 * (a + 1.0) * (a + 1.0) - 1.0  # a product overflows to inf where ** would raise
        gated = periodic and order is not None and order.c is not None and delta0 >= 1.0 - _FLOQUET_MARGIN
        if gated:
            band0 = _band_class(delta0)
            diagnostics["floquet"] = {
                "a": a, "lambda": 0.0, "discriminant": delta0, "inside_band": band0.value, "product": 4.0
            }
            flags.append(_BAND_FLAGS[band0])
        elif periodic:
            cond_b = facts.cond_b
            diagnostics["condition_B"] = cond_b.to_json()
            # condition A, r rtilde in l2: (r_n rtilde_n)^2 = rho_n d_n d_{n+1}, rho is
            # bounded on the tail given B, and d_n d_{n+1} <= (d_n^2 + d_{n+1}^2)/2
            cond_a = SeriesVerdict.CONVERGES if summ.in_ell2 is TriState.TRUE else SeriesVerdict.UNKNOWN
            diagnostics["condition_A"] = {
                "test": "condition-A",
                "verdict": cond_a.value,
                "witnesses": {
                    "identity": "(r_n rtilde_n)^2 = rho_n d_n d_{n+1}, rho bounded given condition B",
                    "summability_in_ell2": summ.in_ell2.value,
                },
            }
            if cond_a is SeriesVerdict.CONVERGES and cond_b.holds is TriState.TRUE:
                fl = floquet_discriminant(cond_b.u, a)
                diagnostics["floquet"] = fl.to_json()
                if fl.inside_band is TriState.TRUE and pert_ok is TriState.TRUE:
                    return _certified(
                        VerdictKind.DEFICIENT,
                        "periodic-comparison",
                        "the scaled operator is a summable perturbation of a period-two "
                        f"matrix whose discriminant {fl.discriminant:.6g} lies strictly "
                        "inside a band",
                        flags,
                        diagnostics,
                    )
                flags.append(_BAND_FLAGS[fl.inside_band])
            else:
                if cond_a is not SeriesVerdict.CONVERGES:
                    flags.append("scaling-sequence-not-square-summable")
                if cond_b.holds is not TriState.TRUE:
                    flags.append("period-two-structure-not-established")

    return _oracle_advisory(op, cfg, diagnostics, flags)
