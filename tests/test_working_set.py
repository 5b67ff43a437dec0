"""A verdict's traced memory peak stays near five 256 KiB probe block arrays.

Each probe block computes in the arrays it owns: the couplings reuse one
working array per term, the comparison function G = 0 takes no array,
and the envelope bounds and condition B evaluate the coupling
before their own arrays exist.  One input per pool category of the
benchmark (perfbench/workloads.py) runs through deficiency_verdict on
the default ladder under tracemalloc, after one untraced warm-up verdict
that leaves the one-time heap primer (numerics._prime_heap) and the
module-level caches outside the trace.  No row range a verdict builds is
longer than grid.rows' read-only ramp, a probe block and its look-ahead
rows, so none falls back to np.arange.
"""

import tracemalloc

import pytest

from deltasa import PowerLogGrid, PowerSumAlpha, ScaledInverseGapsAlpha, deficiency_verdict, jacobi
from deltasa import grid as grid_module
from deltasa.grid import _RAMP, rows

PEAK_BUDGET = 1.4 * 2**20  # bytes; about five 256 KiB block arrays and the records


def _critical(gamma, d1, a, pert=None):
    grid = PowerLogGrid(gamma, 0.0, d1)
    return grid, ScaledInverseGapsAlpha(grid, a, None if pert is None else PowerSumAlpha((pert,)))


def _power_sum(gamma, d1, term):
    return PowerLogGrid(gamma, 0.0, d1), PowerSumAlpha((term,))


# (gamma, d1, coupling) of the first pool item of each category
INPUTS = {
    "critical-interior": lambda: _critical(0.6054, 0.6446, -1.2004),
    "critical-outside": lambda: _critical(0.5993, 1.9338, -2.4308),
    "critical-perturbed": lambda: _critical(0.6323, 1.5194, -0.6347, (-0.6459, -1.4749, 0.0)),
    "carleman": lambda: _power_sum(0.838, 1.413, (1.1423, 2.2717, 0.0)),
    "band-edge": lambda: _critical(0.809, 0.6376, -1.0),
    "not-O(d)-perturbation": lambda: _critical(0.8542, 0.8757, -1.4491, (0.8881, -0.2826, 0.0)),
    "power-sum": lambda: _power_sum(0.7589, 1.8594, (-0.694, 0.4605, 0.0)),
}


def traced_peak(category: str) -> int:
    """The traced peak, in bytes, of one deficiency_verdict on the category's input, after a warm-up."""
    deficiency_verdict(*INPUTS["critical-interior"]())
    grid, alpha = INPUTS[category]()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        deficiency_verdict(grid, alpha)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("category", list(INPUTS))
def test_verdict_peak_is_a_few_block_arrays(category):
    peak = traced_peak(category)
    assert peak <= PEAK_BUDGET, f"{category}: traced peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("category", list(INPUTS))
def test_every_row_range_fits_the_ramp(monkeypatch, category):
    lengths = []

    def counting(lo, hi):
        lengths.append(hi - lo)
        return rows(lo, hi)

    for module in (grid_module, jacobi):  # the modules that call rows
        monkeypatch.setattr(module, "rows", counting)
    deficiency_verdict(*INPUTS[category]())
    assert lengths and max(lengths) <= len(_RAMP), f"{category}: {max(lengths)} rows"
