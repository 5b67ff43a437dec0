"""exact_row_sums returns math.fsum's value for every row, bit for bit.

The vectorised path covers rows of up to 4096 terms with
2^-28 <= |x| < 2^11; everything else (tiny terms, huge or non-finite
ones, exact zero sums, longer rows) goes to math.fsum itself.  Every
comparison is on float.hex, so signed zeros and the last bit count.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from deltasa.numerics import exact_row_sums


def fsum_rows(x):
    return [math.fsum(row) for row in np.asarray(x, dtype=float).tolist()]


def assert_matches_fsum(x):
    want = [v.hex() for v in fsum_rows(x)]
    got = [v.hex() for v in exact_row_sums(x)]
    assert got == want


EDGE_TERMS = st.one_of(
    st.floats(-2048.0, 2048.0),
    st.floats(2040.0, 2048.0),  # near and at the 2^11 cut
    st.floats(-2048.0, -2040.0),
    st.floats(-1e-8, 1e-8),  # tiny terms force the fallback
    st.sampled_from([0.0, -0.0, 2.0**-28, -(2.0**-28), 2.0**-29, 5e-324, 2047.9999999999998, 1e300]),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 4),
    cols=st.integers(1, 4096),
    scale=st.sampled_from([1e-9, 1e-3, 1.0, 30.0, 700.0, 2047.0]),
)
def test_random_rows(seed, rows, cols, scale):
    rng = np.random.default_rng(seed)
    x = np.clip(rng.normal(0.0, scale, (rows, cols)), -2047.5, 2047.5)
    x[:, ::2] *= -1.0
    assert_matches_fsum(x)


@settings(max_examples=150, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 64)), elements=EDGE_TERMS))
def test_edge_terms(x):
    assert_matches_fsum(x)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 16)), elements=st.floats()))
def test_non_finite_terms_behave_like_fsum(x):
    try:
        want = [v.hex() for v in fsum_rows(x)]
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            exact_row_sums(x)
    else:
        assert [v.hex() for v in exact_row_sums(x)] == want


def test_inf_minus_inf_raises():
    with pytest.raises(ValueError):
        exact_row_sums(np.array([[1.0, 2.0], [math.inf, -math.inf]]))
    assert [v.hex() for v in exact_row_sums(np.array([[math.inf, 1.0], [math.nan, 2.0]]))] == [
        "inf",
        "nan",
    ]


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 200)), elements=st.floats(-2047.0, 2047.0)),
    st.integers(0, 2**32 - 1),
)
def test_rows_summing_to_exactly_zero(half, seed):
    x = np.concatenate((half, -half), axis=1)
    np.random.default_rng(seed).permuted(x, axis=1, out=x)
    assert_matches_fsum(x)


@pytest.mark.parametrize("cols", [1, 2, 4096])
def test_rows_of_negative_zero(cols):
    assert_matches_fsum(np.full((2, cols), -0.0))
    assert_matches_fsum(np.array([[-0.0] * cols, [0.0] * cols]))


def test_longer_rows_and_shapes():
    rng = np.random.default_rng(3)
    assert_matches_fsum(rng.normal(0.0, 5.0, (2, 4097)))
    assert exact_row_sums(np.empty((0, 5))) == []
    assert [v.hex() for v in exact_row_sums(np.empty((2, 0)))] == [(0.0).hex()] * 2
    with pytest.raises(ValueError):
        exact_row_sums(np.ones(3))
