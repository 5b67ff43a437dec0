"""exact_alternating_sums returns math.fsum's value on each signed row, bit for bit.

The pair rule covers rows whose entries share one sign, with every
|x| >= 2^E (E = frexp(min|x|)[1] - 1 >= -1000) and fl(sum |x_2j - x_2j+1|)
<= 2^E; everything else goes to math.fsum on the signed row.  The
draws aim at both sides of each part of that gate: log-gap rows of power
grids (the tilde ladder's chunks), rows that straddle a binade, pair
sums exactly 2^E and one ulp above it, an odd last entry that overflows,
exact zero totals, and mixed-sign, tiny and non-finite rows.  Every
comparison is on float.hex, so signed zeros and the last bit count.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from deltasa import PowerLogGrid, TildeSequence
from deltasa import grid as grid_module
from deltasa.numerics import exact_alternating_sums


def signed(row):
    return [v if i % 2 == 0 else -v for i, v in enumerate(row)]


def assert_matches_fsum(x):
    """Both sides return the same floats, or raise the same error."""
    x = np.asarray(x, dtype=float)
    try:
        want = [math.fsum(signed(row)).hex() for row in x.tolist()]
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            exact_alternating_sums(x)
    else:
        assert [v.hex() for v in exact_alternating_sums(x)] == want


def counting_fallback():
    """exact_alternating_sums, wrapped to append to a list how many rows each call hands to math.fsum.

    Returns the list and the wrapper; a call that hands none appends nothing.
    """
    fallback = []
    fsum = math.fsum

    def counting(x):
        rows = []
        with mock.patch.object(math, "fsum", lambda row: rows.append(row) or fsum(row)):
            out = exact_alternating_sums(x)
        if rows:
            fallback.append(len(rows))
        return out

    return fallback, counting


@settings(max_examples=80, deadline=None)
@given(
    gamma=st.floats(-2.0, 2.0),
    eta=st.floats(-2.0, 2.0),
    lo=st.integers(1, 10**7),
    rows=st.integers(1, 4),
    cols=st.integers(1, 4097),
    d1=st.floats(0.01, 100.0),
)
def test_log_gap_rows(gamma, eta, lo, rows, cols, d1):
    grid = PowerLogGrid(gamma, eta, d1)
    assert_matches_fsum(grid.log_gaps(lo, lo + rows * cols).reshape(rows, cols))


@settings(max_examples=80, deadline=None)
@given(
    E=st.integers(-1000, 1022),
    sign=st.sampled_from([1.0, -1.0]),
    steps=hnp.arrays(np.int64, st.integers(1, 300), elements=st.integers(-(2**12), 2**12)),
)
def test_rows_that_straddle_a_binade(E, sign, steps):
    # entries 2^E (1 + k 2^-52) with k < 0 fall below the binade, whose ulp is half as large
    x = sign * np.ldexp(1.0 + steps * 2.0**-52, E)
    assert_matches_fsum(x[None, :])


@settings(max_examples=120, deadline=None)
@given(
    E=st.integers(-1000, 1020),
    pairs=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    above=st.booleans(),
    odd=st.booleans(),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_pair_sums_at_the_gate(E, pairs, seed, above, odd, sign):
    """sum |q_j| is exactly 2^E, or one ulp of 2^E above it."""
    assume(pairs > 1 or not above)  # one pair one ulp above 2^E would leave the binade
    rng = np.random.default_rng(seed)
    unit = 2**52  # 2^E in units of 2^(E - 52)
    cuts = np.sort(rng.integers(0, unit, pairs - 1)).tolist()
    gaps = [b - a for a, b in zip([0, *cuts], [*cuts, unit])]  # sum |q_j| = 2^E
    if above:
        gaps[int(np.argmin(gaps))] += 1
    row = []
    for g in gaps:
        base = unit + int(rng.integers(0, unit - g + 1))  # both entries of the pair lie in [2^E, 2^(E+1)]
        pair = [base + g, base] if rng.random() < 0.5 else [base, base + g]
        row += [math.ldexp(sign * k, E - 52) for k in pair]
    if odd:
        row.append(math.ldexp(sign * (unit + int(rng.integers(0, unit))), E - 52))
    assert_matches_fsum([row])
    fallback, counting = counting_fallback()
    counting(np.array([row]))
    if math.fsum(signed(row)) != 0.0:
        assert sum(fallback) == above  # the gate admits 2^E and rejects one ulp more


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_gate_edge_rows(sign):
    cases = [
        [8.0, 4.0],  # sum |q| = 2^E exactly, E = 2
        [8.0, 4.0, 4.0 + 2.0**-50, 4.0],  # one ulp of 2^E above it
        [4.0, 8.0, 4.0],
        [3.0],
        [3.0, 3.0],  # an exact zero total
        [1.0, 2.0] * 2048 + [1.0],  # 4097 columns, sum |q| = 2048 > 2^0
        [-0.0],  # signed zeros: the sign of fsum's zero
        [-0.0, -0.0],
        [-0.0, 0.0, -0.0] * 1366,
        [5e-324, 1e-310, 5e-324],  # subnormals
        [math.inf, math.inf],  # inf - inf: fsum raises
        [math.inf, 1.0],
        [math.nan, 2.0],
        [1.0, math.inf, math.nan],
    ]
    for row in cases:
        assert_matches_fsum([[sign * v for v in row]])


def test_odd_last_entry_that_overflows():
    big = math.ldexp(1.0, 1023)
    top = np.finfo(float).max
    assert_matches_fsum([[1.5 * big, big, top]])  # 2^1022 + max overflows: fsum raises
    assert_matches_fsum([[-1.5 * big, -big, -top]])
    assert_matches_fsum([[big, 1.5 * big, top]])  # -2^1022 + max is finite
    assert_matches_fsum([[top, top, top]])


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 200), elements=st.floats(1e-3, 1e3)), st.sampled_from([1.0, -1.0]))
def test_exact_zero_totals(half, sign):
    # an even-length palindrome alternates to exactly zero
    assert_matches_fsum(sign * np.concatenate((half, half[::-1]))[None, :])
    assert_matches_fsum(sign * np.repeat(half, 2)[None, :])
    # every pair of a repeated row is exactly 0, so the pair rule decides
    # it: its +0.0 is fsum's, and fsum is never called
    fallback, counting = counting_fallback()
    assert [v.hex() for v in counting(sign * np.repeat(half, 2)[None, :])] == [(0.0).hex()]
    assert fallback == []


MIXED = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(-1e-300, 1e-300),  # tiny entries
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.ldexp(1.0, -1000), math.ldexp(1.0, -1001), 1e308, -1e308]),
)


@settings(max_examples=150, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 64)), elements=MIXED))
def test_mixed_sign_and_tiny_rows(x):
    assert_matches_fsum(x)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 16)), elements=st.floats(0.5, 4.0)),
    st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_non_finite_rows(x, specials, seed):
    rng = np.random.default_rng(seed)
    for v in specials:
        x[rng.integers(x.shape[0]), rng.integers(x.shape[1])] = v
    assert_matches_fsum(x)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 16)), elements=st.floats()))
def test_any_floats(x):
    assert_matches_fsum(x)


def test_shapes():
    assert exact_alternating_sums(np.empty((0, 5))) == []
    assert [v.hex() for v in exact_alternating_sums(np.empty((2, 0)))] == [(0.0).hex()] * 2
    with pytest.raises(ValueError):
        exact_alternating_sums(np.ones(3))


@pytest.mark.parametrize("gamma,d1", [(0.8, 1.3), (0.6054, 0.6446), (0.98, 1.0)])
def test_power_grid_ladder_falls_back_on_chunk_0_only(gamma, d1):
    """On the benchmark's power grids only the ladder's first chunk, rows 2..4097, fails the gate."""
    fallback, counting = counting_fallback()
    with mock.patch.object(grid_module, "exact_alternating_sums", counting):
        TildeSequence(PowerLogGrid(gamma, 0.0, d1)).log_abs(10**6)
    assert fallback == [1]
