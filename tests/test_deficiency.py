"""Recurrence solver, square-summability probe, band discriminant, and
the combined verdict pipeline.

The solver is validated against a 40-digit mpmath run of the same
three-term recurrence.
"""

import json
import math

import mpmath
import numpy as np
import pytest

from deltasa import (
    CriterionVerdict,
    CustomGrid,
    JacobiOperator,
    PeriodPair,
    PowerLogGrid,
    PowerSumAlpha,
    ScaledInverseGapsAlpha,
    VerdictConfig,
    VerdictKind,
    deficiency_verdict,
    floquet_discriminant,
    l2_probe,
    solve_recurrence,
)
from deltasa.numerics import TriState


def mp_solution(op, lam, N):
    """Solve off(n-1) h_{n-2} + (diag(n) - lam) h_{n-1} + off(n) h_n = 0
    at 40 digits, pushing the float matrix entries in exactly."""
    with mpmath.workdps(40):
        lam = mpmath.mpc(lam)
        h = [mpmath.mpf(1)]
        h.append(-(mpmath.mpf(op.diag(1)) - lam) / mpmath.mpf(op.off(1)))
        for n in range(2, N):
            nxt = -(
                mpmath.mpf(op.off(n - 1)) * h[n - 2]
                + (mpmath.mpf(op.diag(n)) - lam) * h[n - 1]
            ) / mpmath.mpf(op.off(n))
            h.append(nxt)
        return [complex(z) for z in h]


def harmonic_operator(a, pert=None):
    g = PowerLogGrid(gamma=1.0)
    return JacobiOperator(g, ScaledInverseGapsAlpha(g, a, perturbation=pert))


class TestSolveRecurrence:
    def test_matches_high_precision(self):
        g = PowerLogGrid(gamma=0.75)
        op = JacobiOperator(g, ScaledInverseGapsAlpha(g, -0.5))
        sol = solve_recurrence(op, 1j, 64)
        want = mp_solution(op, 1j, 64)
        got = sol.head
        assert len(got) >= 64
        for n in range(64):
            assert got[n] == pytest.approx(want[n], rel=1e-10)

    def test_second_entry_convention(self):
        op = harmonic_operator(-0.5)
        sol = solve_recurrence(op, 1j, 16)
        h = sol.head
        assert h[0] == 1.0
        assert h[1] == pytest.approx(-(op.diag(1) - 1j) / op.off(1), rel=1e-14)

    def test_row_residuals_stay_small(self):
        op = harmonic_operator(-0.5, pert=PowerSumAlpha(terms=((1.0, -1.0, 0.0),)))
        sol = solve_recurrence(op, 1j, 10**4)
        assert sol.residual_max < 1e-10

    def test_growth_triggers_rescaling(self):
        op = harmonic_operator(0.5)
        sol = solve_recurrence(op, 1j, 10**4)
        assert sol.scale_events > 0
        masses = [m for _, m in sol.block_log_masses]
        # exponential growth: the last blocks keep climbing
        assert masses[-1] > masses[-2] > masses[-3]
        assert all(math.isfinite(m) for m in masses)

    def test_real_spectral_point_accepted(self):
        op = harmonic_operator(-0.5)
        sol = solve_recurrence(op, 0.0, 512)
        assert sol.lam == 0.0 + 0.0j
        assert sol.residual_max < 1e-10

    def test_complex_lambda_on_real_axis_is_real(self):
        op = harmonic_operator(-0.5)
        got = json.dumps(solve_recurrence(op, 0j, 64).to_json())
        assert got == json.dumps(solve_recurrence(op, 0.0, 64).to_json())

    def test_short_run_rejected(self):
        op = harmonic_operator(-0.5)
        with pytest.raises(ValueError):
            solve_recurrence(op, 1j, 4)

    def test_json_head_is_truncated(self):
        op = harmonic_operator(-0.5)
        sol = solve_recurrence(op, 1j, 2048)
        j = sol.to_json()
        assert len(j["head"]) <= 16


class TestL2Probe:
    def test_decaying_solution_classified(self):
        op = harmonic_operator(-0.5)
        sol = solve_recurrence(op, 1j, 10**4)
        v = l2_probe(sol)
        assert v.classification == "in_ell2"
        # block masses halve: d = 1/n gives decay ratio 2^{1-2 gamma} = 1/2
        assert v.decay_ratio == pytest.approx(0.5, abs=0.1)

    def test_growing_solution_classified(self):
        op = harmonic_operator(0.5)
        sol = solve_recurrence(op, 1j, 10**4)
        v = l2_probe(sol)
        assert v.classification == "not_in_ell2"
        assert v.decay_ratio > 1.0

    def test_too_few_blocks_is_unknown(self):
        op = harmonic_operator(-0.5)
        sol = solve_recurrence(op, 1j, 100)
        v = l2_probe(sol)
        assert v.classification == "unknown"
        assert "blocks" in v.notes


class TestFloquet:
    def test_discriminant_closed_form(self):
        # for u with u_odd u_even = 4 the value at 0 is 2 (a+1)^2 - 1
        u = PeriodPair(odd=math.pi, even=4.0 / math.pi)
        for a in (-1.9, -1.5, -1.0, -0.5, -0.1, 0.5):
            r = floquet_discriminant(u, a)
            assert r.discriminant == pytest.approx(2 * (a + 1) ** 2 - 1, rel=1e-12)

    def test_band_interior_and_exterior(self):
        u = PeriodPair(odd=2.0, even=2.0)
        assert floquet_discriminant(u, -0.5).inside_band is TriState.TRUE
        assert floquet_discriminant(u, 0.5).inside_band is TriState.FALSE
        # a = -1 sits exactly on the band edge: undecidable at tolerance
        assert floquet_discriminant(u, -1.0).inside_band is TriState.UNKNOWN
        assert floquet_discriminant(u, -2.0).inside_band is TriState.UNKNOWN


class TestVerdictConfig:
    @pytest.mark.parametrize(
        "horizons,rule",
        [
            ((), "strictly increasing"),
            ((10**5, 10**4), "strictly increasing"),
            ((10**4, 10**4), "strictly increasing"),
            ((255, 10**4), "at least 256"),
            ((-5, 3), "at least 256"),
        ],
    )
    def test_bad_ladder_raises_when_built(self, horizons, rule):
        with pytest.raises(ValueError, match=rule):
            VerdictConfig(horizons)

    @pytest.mark.parametrize("horizons", [(10000.5,), (10**4, 2.5e4 + 0.25)], ids=str)
    def test_non_integral_horizon_raises_when_built(self, horizons):
        with pytest.raises(ValueError, match="integer"):
            VerdictConfig(horizons)

    @pytest.mark.parametrize(
        "ladder", [(1e4, 1e5), [10**4, 10**5], [1e4, 10**5]], ids=["float", "list", "mixed"]
    )
    def test_ladder_is_kept_as_a_tuple_of_ints(self, ladder):
        cfg = VerdictConfig(ladder)
        assert cfg.horizons == (10**4, 10**5)
        assert all(type(h) is int for h in cfg.horizons)
        assert hash(cfg) == hash(VerdictConfig((10**4, 10**5)))
        g = PowerLogGrid(0.8)
        alpha = ScaledInverseGapsAlpha(g, 0.5)
        want = deficiency_verdict(g, alpha, VerdictConfig((10**4, 10**5)))
        assert json.dumps(deficiency_verdict(g, alpha, cfg).to_json()) == json.dumps(want.to_json())

    @pytest.mark.parametrize(
        "cfg,ladder,bound,oracle",
        [
            (VerdictConfig(), (10**4, 10**5, 10**6), 10**5, 10**5),
            (VerdictConfig((256,)), (256,), 256, 256),
            (VerdictConfig((10**4, 10**5)), (10**4, 10**5), 10**4, 10**5),
            (VerdictConfig.up_to(20000), (10**4, 20000), 10**4, 20000),
            (VerdictConfig.up_to(10**4), (10**4,), 10**4, 10**4),
            (VerdictConfig.up_to(3 * 10**6), (10**4, 10**5, 10**6, 3 * 10**6), 10**6, 10**5),
        ],
    )
    def test_scan_lengths_derive_from_the_ladder(self, cfg, ladder, bound, oracle):
        assert (cfg.horizons, cfg.bound_horizon, cfg.oracle_horizon) == (ladder, bound, oracle)


class TestVerdictPipeline:
    CFG = VerdictConfig(horizons=(10**4,))

    def grid(self):
        return PowerLogGrid(gamma=1.0)

    def test_deficient_critical_coupling(self):
        g = self.grid()
        alpha = ScaledInverseGapsAlpha(
            g, -0.5, perturbation=PowerSumAlpha(terms=((1.0, -1.0, 0.0),))
        )
        v = deficiency_verdict(g, alpha, self.CFG)
        assert v.verdict is VerdictKind.DEFICIENT
        assert (v.n_plus, v.n_minus) == (1, 1)
        assert v.certificate == "periodic-comparison"
        assert v.advisory is False
        # the analytic route must not have needed the oracle
        assert not any(k.startswith("oracle_lambda") for k in v.diagnostics)

    def test_deficient_across_band(self):
        g = self.grid()
        for a in (-1.9, -0.1):
            v = deficiency_verdict(g, ScaledInverseGapsAlpha(g, a), self.CFG)
            assert v.verdict is VerdictKind.DEFICIENT
            assert v.advisory is False

    def test_band_edge_falls_back_to_oracle(self):
        g = self.grid()
        v = deficiency_verdict(g, ScaledInverseGapsAlpha(g, -1.0), self.CFG)
        assert v.advisory is True
        assert "discriminant-at-band-edge" in v.flags
        assert v.verdict is VerdictKind.DEFICIENT
        assert v.certificate == "oracle-ell2"
        assert v.provenance.startswith("numerical-advisory")

    def test_parity_unbalanced_grid_falls_back_to_oracle(self):
        # condition B cannot estimate the period pair when rho_n
        # overflows along one parity; the verdict moves on, advisory
        g = CustomGrid(lambda n: (1.02 if n % 2 else 0.98) / n)
        cfg = VerdictConfig(horizons=(10**4, 10**5))
        v = deficiency_verdict(g, ScaledInverseGapsAlpha(g, -0.5), cfg)
        assert v.advisory
        assert v.diagnostics["condition_B"]["holds"] == "unknown"
        assert "period-two-structure-not-established" in v.flags

    def test_self_adjoint_outside_band(self):
        g = self.grid()
        v = deficiency_verdict(g, ScaledInverseGapsAlpha(g, 0.5), self.CFG)
        assert v.verdict is VerdictKind.SELF_ADJOINT
        assert v.certificate == "lower-envelope-bound"
        assert v.advisory is False
        v = deficiency_verdict(g, ScaledInverseGapsAlpha(g, -2.5), self.CFG)
        assert v.verdict is VerdictKind.SELF_ADJOINT
        assert v.certificate == "upper-envelope-bound"

    def test_strong_coupling_series(self):
        g = self.grid()
        v = deficiency_verdict(g, PowerSumAlpha(terms=((1.0, 2.0, 0.0),)), self.CFG)
        assert v.verdict is VerdictKind.SELF_ADJOINT
        assert v.certificate == "carleman-series"

    def test_zero_coupling(self):
        g = self.grid()
        v = deficiency_verdict(g, PowerSumAlpha(terms=((0.0, 0.0, 0.0),)), self.CFG)
        assert v.verdict is VerdictKind.SELF_ADJOINT
        assert v.advisory is False

    def test_wide_gaps_short_circuit(self):
        g = PowerLogGrid(gamma=0.3)
        v = deficiency_verdict(g, PowerSumAlpha(terms=((0.0, 0.0, 0.0),)), self.CFG)
        assert v.verdict is VerdictKind.SELF_ADJOINT
        assert v.certificate == "non-square-summable-gaps"

    def test_summable_gaps_outside_model(self):
        g = PowerLogGrid(gamma=2.0)
        v = deficiency_verdict(g, PowerSumAlpha(terms=((0.0, 0.0, 0.0),)), self.CFG)
        assert v.verdict is VerdictKind.INCONCLUSIVE
        assert "gaps-summable-outside-model" in v.flags

    def test_verdict_json_shape(self):
        g = self.grid()
        v = deficiency_verdict(g, ScaledInverseGapsAlpha(g, -0.5), self.CFG)
        j = v.to_json()
        for key in (
            "verdict", "n_plus", "n_minus", "certificate",
            "advisory", "provenance", "flags", "diagnostics",
        ):
            assert key in j
        assert j["verdict"] == "Deficient"
        cfg_json = self.CFG.to_json()
        assert cfg_json["horizons"] == [10**4]
