"""The tilde pass is bit-exact against its earlier form.

TildeSequence builds the chunk bases of its fsum ladder only when a
read reaches past them, from the grid's log gaps, and sums them with
exact_alternating_sums, which hands the chunks its pair rule cannot
sum exactly to exact_row_sums; a block read anchors its cumsum on them
and takes its terms from its own or the caller's log gaps, flipping the
signs of odd rows in place.  PeriodPair.block builds parity sequences by strided
assignment, and PowerLogGrid.log_gaps skips the ln ln n term at
eta = 0.  The references below are the earlier implementations (a
separate pass per chunk base, sign vectors from np.where on index
parities, the full log expression), kept here verbatim except for the
unused lock; every array must agree with them byte for byte, over the
block patterns the verdict probes use.
"""

import json
import math

import numpy as np
import pytest

from deltasa import (
    ConstantGrid,
    CustomGrid,
    ExplicitGrid,
    PeriodPair,
    PowerLogGrid,
    TildeSequence,
    check_condition_B,
)
from deltasa import numerics
from deltasa.grid import GridError, GridSequence
from deltasa.numerics import exact_row_sums

H = 10**5
BLOCK = 1 << 15  # the series probes' block length


def reference_period_block(pair, lo, hi):
    ns = np.arange(lo, hi)
    return np.where(ns % 2 == 1, pair.odd, pair.even)


def reference_log_gaps(grid, lo, hi):
    if not isinstance(grid, PowerLogGrid):
        return grid.log_gaps(lo, hi)
    grid._check_range(lo, hi)
    ns = np.arange(lo, hi, dtype=float)
    if lo == 1:
        ns[0] = 2.0
    t = np.log(ns)
    out = -grid.gamma * t - grid.eta * np.log(t)
    if lo == 1:
        out[0] = math.log(grid.d1)
    return out


class ReferenceTilde:
    CHUNK = 4096

    def __init__(self, grid):
        self.grid = grid
        self._bases = [0.0]

    @staticmethod
    def _signs(lo, hi):
        ks = np.arange(lo, hi)
        return np.where(ks % 2 == 0, 1.0, -1.0)

    def _ensure(self, j):
        while len(self._bases) <= j:
            jj = len(self._bases) - 1
            n0 = 1 + jj * self.CHUNK
            terms = self._signs(n0 + 1, n0 + self.CHUNK + 1) * reference_log_gaps(
                self.grid, n0 + 1, n0 + self.CHUNK + 1
            )
            self._bases.append(self._bases[jj] + math.fsum(terms.tolist()))

    def _S(self, n):
        j = (n - 1) // self.CHUNK
        self._ensure(j)
        n0 = 1 + j * self.CHUNK
        if n == n0:
            return self._bases[j]
        terms = self._signs(n0 + 1, n + 1) * reference_log_gaps(self.grid, n0 + 1, n + 1)
        return self._bases[j] + math.fsum(terms.tolist())

    def log_abs(self, n):
        s = self._S(n)
        return s if n % 2 == 0 else -s

    def log_abs_block(self, lo, hi):
        if hi == lo:
            return np.empty(0)
        base = self._S(lo)
        if hi == lo + 1:
            s = np.array([base])
        else:
            terms = self._signs(lo + 1, hi) * reference_log_gaps(self.grid, lo + 1, hi)
            s = np.concatenate(([base], base + np.cumsum(terms)))
        signs = np.where(np.arange(lo, hi) % 2 == 0, 1.0, -1.0)
        return signs * s


def condition_a_reads(horizons):
    """Blocks of the series probes: BLOCK rows, restarting after each horizon."""
    prev = 1
    for h in horizons:
        for a in range(prev, h + 1, BLOCK):
            yield ("block", a, min(a + BLOCK, h + 1))
        prev = h + 1


def condition_b_reads(h):
    """Parity points, then unaligned blocks from h // 4 through h."""
    for n in (h // 2 - 1, h // 2, h - 1, h):
        yield ("point", n)
    for a in range(h // 4, h + 1, BLOCK):
        yield ("block", a, min(a + BLOCK, h + 1))


def random_reads(h):
    for n in (1, 2, 4097, 12345, 4096 * 9 + 1, h // 3, h - 7):
        yield ("point", n)


def replay(tilde, reads, caller_logs=False):
    """Every read's bytes; caller_logs hands each block the caller's log gaps, as conditions A and B do."""
    out = []
    for read in reads:
        if read[0] == "point":
            out.append(np.float64(tilde.log_abs(read[1])).tobytes())
        elif caller_logs:
            _, lo, hi = read
            _, ld = tilde.grid.gaps_and_logs(lo, hi + 1)
            out.append(tilde.log_abs_block(lo, hi, ld).tobytes())
        else:
            out.append(tilde.log_abs_block(read[1], read[2]).tobytes())
    return out


def assert_same(grid, reads, caller_logs=False):
    reads = list(reads)
    got, want = TildeSequence(grid), ReferenceTilde(grid)
    assert replay(got, reads, caller_logs) == replay(want, reads)
    assert np.array(got._bases).tobytes() == np.array(want._bases).tobytes()


GRIDS = {
    "power-eta0": PowerLogGrid(0.8, 0.0, d1=1.3),
    "power-eta0.3": PowerLogGrid(0.9, 0.3, d1=0.7),
    "power-flat": PowerLogGrid(0.0, 0.0, d1=2.0),  # log d_2 is +0.0, later rows -0.0
    "constant": ConstantGrid(0.7),
    "explicit-cycle": ExplicitGrid((0.5, 1.25, 0.8, 2.0, 0.3, 1.1, 0.9)),
}

def long_reads():
    """Blocks of up to a probe block and its look-ahead rows, near row 1 and far out."""
    for lo in (1, 2, 3, BLOCK * 30 + 5):
        for m in (1, 2, 4097, BLOCK, BLOCK + 2, BLOCK + 3):
            yield ("block", lo, lo + m)
    yield ("block", BLOCK * 30 + 5, BLOCK * 30 + 5)


SCANS = {
    "condition-A": lambda h: condition_a_reads((10**4, h // 2, h)),
    "A-then-B": lambda h: [*condition_a_reads((10**4, h // 2, h)), *condition_b_reads(h)],
    "points-around-scan": lambda h: [
        *random_reads(h),
        *condition_a_reads((10**4, h)),
        *random_reads(h),
    ],
    "B-on-fresh-sequence": lambda h: condition_b_reads(h),
    "long-blocks": lambda h: long_reads(),
}


@pytest.mark.parametrize("scan", sorted(SCANS))
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_tilde_scans_match_reference(name, scan):
    assert_same(GRIDS[name], SCANS[scan](H))


@pytest.mark.parametrize("scan", ["condition-A", "A-then-B", "B-on-fresh-sequence", "long-blocks"])
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_caller_log_gaps_match_reference(name, scan):
    assert_same(GRIDS[name], SCANS[scan](H), caller_logs=True)


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("lo", [1, 2, 3, 4097])
def test_gaps_and_logs_match_separate_calls(name, lo):
    grid = GRIDS[name]
    d, ld = grid.gaps_and_logs(lo, lo + 5000)
    assert d.tobytes() == grid.gaps(lo, lo + 5000).tobytes()
    assert ld.tobytes() == grid.log_gaps(lo, lo + 5000).tobytes()


def test_caller_log_gaps_need_one_row_past_the_block():
    grid = GRIDS["power-eta0.3"]
    with pytest.raises(GridError):
        TildeSequence(grid).log_abs_block(5, 20, grid.log_gaps(5, 20))


def test_explicit_error_tail_block_ends_at_max_index():
    rng = np.random.default_rng(5)
    m = 3 * 4096 + 17
    grid = ExplicitGrid(tuple(rng.uniform(0.2, 2.0, m).tolist()), tail="error")
    assert_same(grid, [*condition_a_reads((4096, 2 * 4096, m)), ("point", m)])
    # the block ending at max_index reads no row beyond it
    assert_same(grid, [("block", m - 10, m + 1)])
    with pytest.raises(GridError):
        TildeSequence(grid).log_abs_block(m - 10, m + 2)


def test_custom_grid():
    grid = CustomGrid(lambda n: (1.0 + 0.3 * (-1) ** n) * n**-0.9)
    h = 3 * 10**4
    assert_same(grid, [*condition_a_reads((10**4, h)), *condition_b_reads(h)])


class CountingGrid(GridSequence):
    """Delegates log_gaps and counts the calls and the rows it evaluates."""

    def __init__(self, grid):
        self.grid, self.rows, self.calls = grid, 0, 0

    def log_gaps(self, lo, hi):
        self.rows += hi - lo
        self.calls += 1
        return self.grid.log_gaps(lo, hi)


# Only a read past the known bases builds the missing ones, from the grid:
# eight 4096-row chunks (one 32768-row probe block) per log_gaps call, each
# chunk's correctly rounded sum added to the base before it.  Condition B
# meets this cold ladder on a fresh sequence.
FAR = 10**6


@pytest.mark.parametrize("n", [FAR - 4097, FAR - 1, FAR])
@pytest.mark.parametrize("name", ["power-eta0", "power-eta0.3", "explicit-cycle"])
def test_cold_point_read_far_out(name, n):
    assert_same(GRIDS[name], [("point", n)])


def test_cold_point_read_batches_the_chunks():
    grid = CountingGrid(GRIDS["power-eta0"])
    t = TildeSequence(grid)
    t.log_abs(FAR)
    # 244 chunk bases, eight per call (245 calls one chunk at a time),
    # then the head of the last chunk; rows 2 .. FAR once each
    assert grid.calls <= 32
    assert grid.rows == FAR - 1
    assert len(t._bases) == (FAR - 1) // 4096 + 1


class ReferenceBlocks(ReferenceTilde):
    """ReferenceTilde read the way check_condition_B reads a tilde sequence."""

    def log_abs_block(self, lo, hi, log_gaps=None):
        return super().log_abs_block(lo, hi)


@pytest.mark.parametrize("name", ["power-eta0", "power-eta0.3"])
def test_cold_condition_B_matches_reference(name):
    grid = GRIDS[name]
    got = check_condition_B(grid, FAR)
    want = check_condition_B(grid, FAR, tilde=ReferenceBlocks(grid))
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


# Condition B reads its parity points first, so the cold ladder reaches H
# before the first block and its block reads add no base: the verdict path
# reads as many rows as when block reads also built bases.  The window's
# rows H/4..H are read twice, by the ladder and by the scan, and must be:
# the residual needs u, u needs S at H, and keeping the window's 750k log
# gaps between the two passes would hold 6 MB at H = 10^6.
@pytest.mark.parametrize("h,rows", [(10**5, 179_659), (FAR, 1_754_459)])
def test_cold_condition_B_reads_the_same_rows(monkeypatch, h, rows):
    read = []
    log_gaps = PowerLogGrid.log_gaps

    def counting(self, lo, hi):
        read.append(hi - lo)
        return log_gaps(self, lo, hi)

    monkeypatch.setattr(PowerLogGrid, "log_gaps", counting)
    check_condition_B(PowerLogGrid(0.8), h)
    assert sum(read) == rows


@pytest.mark.parametrize("chunks,extra", [(3, 0), (3, 16), (9, 0), (9, 100)])
def test_cold_point_read_stops_at_max_index(chunks, extra):
    m = 1 + chunks * 4096 + extra
    rng = np.random.default_rng(chunks + extra)
    grid = ExplicitGrid(tuple(rng.uniform(0.2, 2.0, m).tolist()), tail="error")
    # the last base the read needs ends at row 1 + chunks * 4096 <= m:
    # a batch of eight chunks from row 2 would run past max_index
    assert_same(grid, [("point", m)])
    assert_same(grid, [("point", m), ("block", m - 3, m + 1)])


def test_short_blocks():
    grid = GRIDS["power-eta0.3"]
    reads = [("block", lo, lo + w) for lo in (1, 2, 4096, 4097, 4098, 9000) for w in (0, 1, 2, 4096)]
    assert_same(grid, reads)


@pytest.mark.parametrize("lo,hi", [(1, 1), (2, 2), (5, 4), (1, 2), (2, 3), (1, 9), (2, 9), (3, 10), (4, 10)])
def test_period_block_matches_reference(lo, hi):
    pair = PeriodPair(odd=math.pi, even=-0.0)
    got, want = pair.block(lo, hi), reference_period_block(pair, lo, hi)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "gamma,eta",
    [(0.8, 0.0), (1.0, -0.0), (-0.5, 0.0), (0.9, 0.3), (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (0.0, 0.5)],
)
@pytest.mark.parametrize("lo", [1, 2, 3, BLOCK * 30 + 5])
def test_power_log_gaps_match_reference(gamma, eta, lo):
    grid = PowerLogGrid(gamma, eta)
    for m in (1, 2, 4097, 5000, BLOCK, BLOCK + 2, BLOCK + 3):
        assert grid.log_gaps(lo, lo + m).tobytes() == reference_log_gaps(grid, lo, lo + m).tobytes()


class ReferenceLadder(TildeSequence):
    """The ladder before the pair sums: exact_row_sums of the sign-alternated terms, eight chunks a batch."""

    def _S(self, n):
        j = (n - 1) // 4096
        while len(self._bases) <= j:
            m = min(8, j + 1 - len(self._bases))
            b0 = 1 + (len(self._bases) - 1) * 4096
            for s in exact_row_sums(self._terms(b0 + 1, b0 + m * 4096 + 1).reshape(m, 4096)):
                self._bases.append(self._bases[-1] + s)
        n0 = 1 + j * 4096
        if n == n0:
            return self._bases[j]
        return self._bases[j] + exact_row_sums(self._terms(n0 + 1, n + 1)[None, :])[0]


def _near_constant_cycle():
    gaps = 0.3 + np.random.default_rng(7).uniform(0.0, 1e-6, 3 * 4096 + 17)
    gaps[9000] = 1.0  # log d = 0: the chunk that holds it is not of one sign
    return ExplicitGrid(tuple(gaps.tolist()))


# A grid and how many chunks of each eight-chunk batch of the first 30
# fail the pair rule and go to exact_row_sums: on a power grid chunk 0
# alone (its pair sum exceeds 2^E); on a constant grid every chunk (an
# exact zero total); at eta < 0 the log gaps cross zero near n = 2e4, so
# chunks 3..5 fail between chunks that pass; and in the cycle every
# chunk that holds the gap 1.0.
LADDERS = {
    "chunk-0": (PowerLogGrid(0.8, 0.0, d1=1.3), [1]),
    "constant": (ConstantGrid(0.7), [8, 8, 8, 6]),
    "eta-negative": (PowerLogGrid(0.2316, -1.0), [4]),
    "explicit-cycle": (_near_constant_cycle(), [2, 3, 3, 2]),
}


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_ladder_matches_exact_row_sums_where_the_gate_fails(monkeypatch, name):
    grid, fallback_per_batch = LADDERS[name]
    fallback = []

    def counting(x):
        fallback.append(len(x))
        return exact_row_sums(x)

    got = TildeSequence(grid)
    monkeypatch.setattr(numerics, "exact_row_sums", counting)
    got.log_abs(1 + 30 * 4096)
    monkeypatch.undo()
    assert fallback == fallback_per_batch
    want = ReferenceLadder(grid)
    want.log_abs(1 + 30 * 4096)
    assert np.array(got._bases).tobytes() == np.array(want._bases).tobytes()
    reads = [("point", n) for n in (2, 3, 4097, 4098, 3 * 4096 + 5, 9000, 20001, 30 * 4096 + 1234)]
    assert replay(got, reads) == replay(want, reads)
