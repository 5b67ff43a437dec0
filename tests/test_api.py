"""The public names: every exported name resolves, removed ones stay gone."""

import dataclasses
import importlib
import json

import numpy as np
import pytest

import deltasa
from deltasa import criteria, grid, jacobi
from deltasa.deficiency import CriterionVerdict, VerdictKind
from deltasa.numerics import sqrt1p_tail

MODULES = ("cli", "criteria", "deficiency", "grid", "jacobi", "numerics", "verify")

# names that no verdict, battery check or CLI path used: the
# gap-regularity layer, the scalar twins of the block forms, the shared
# phase-1 scan and the -i oracle twin; the per-class order ladders
# that GridSequence.order() replaced, and the tuple helpers that Order
# replaced (its summable() rule and jacobi._slowest); the F/d record and drift
# helper that BoundProbe and numerics.window_drift replaced; the
# scalar F that F_block replaced; the comparison-function kinds and
# the comparison-function class that the constant G = 0 replaced;
# TildeSequence's sign and CHUNK
# aliases, which value and grid._TILDE_CHUNK replaced; the battery's
# name list, which verify._CHECKS states; and the grid-facts record's
# ladder, which grid.tilde replaced.  A "module.Class" key lists
# removed attributes of that class
REMOVED = {
    "criteria": (
        "check_asymptotic_eq10",
        "Eq10Result",
        "check_d_conditions",
        "DConditions",
        "check_d4",
        "D4Result",
        "G_nlog",
        "F_expansion",
        "_coupling_series",
        "_gap_exponents",
        "FOverDProbe",
        "F",
        "GKind",
        "GFunction",
    ),
    "deficiency": ("solve_probes",),
    "grid": ("SmoothFamilyDerivatives", "_bertrand"),
    "jacobi": ("_merge_terms",),
    "numerics": ("Trend", "TrendReport", "tail_trend", "geometric_ladder", "signed_drift", "exact_row_sums", "keep_heap"),
    "verify": ("CHECK_NAMES",),
    "grid.GridSequence": ("gap_log_ratio", "x", "_in_ell1", "_in_ell2"),
    "grid.PowerLogGrid": ("gap_log_ratio", "x", "_in_ell1", "_in_ell2"),
    "grid.ConstantGrid": ("gap_log_ratio", "x", "_in_ell1", "_in_ell2"),
    "grid.ExplicitGrid": ("_in_ell1", "_in_ell2"),
    "criteria.GLimits": ("to_json",),
    "numerics.ChunkedSum": ("add",),
    "jacobi.TildeSequence": ("sign_block", "sign", "CHUNK"),
    "deficiency._GridFacts": ("tilde",),
}

# perfbench/instrument.py wraps these by name for its --trace spans
TRACED = {
    "jacobi": ("tilde_r", "rho", "rho_block", "alpha_zero", "scaled_operator"),
    "criteria": (
        "test_carleman_i",
        "test_condition_I",
        "select_G",
        "test_bound_II",
        "test_bound_III",
        "check_condition_A",
        "check_condition_B",
    ),
}
# ... and these methods through cls.__dict__, so each class defines them itself
TRACED_METHODS = {
    "TildeSequence": ("log_abs_block", "log_abs", "value"),
    "JacobiOperator": ("diag", "off", "entry", "diag_block", "off_block", "truncate"),
}
# traced names that no verdict calls: module attributes, not public names
TRACER_ONLY = {"jacobi": ("tilde_r", "alpha_zero"), "criteria": ("test_condition_I", "check_condition_A")}


@pytest.mark.parametrize("name", [None, *MODULES])
def test_all_names_resolve(name):
    mod = deltasa if name is None else importlib.import_module(f"deltasa.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    for attr in exported:
        assert hasattr(mod, attr), f"{mod.__name__}.{attr}"


def test_removed_names_are_gone():
    for name, attrs in REMOVED.items():
        module, _, cls = name.partition(".")
        mod = importlib.import_module(f"deltasa.{module}")
        for attr in attrs:
            if cls:
                assert not hasattr(getattr(mod, cls), attr), f"deltasa.{name}.{attr}"
                continue
            assert not hasattr(mod, attr), f"deltasa.{name}.{attr}"
            assert attr not in mod.__all__
            assert not hasattr(deltasa, attr)
    for cls in (deltasa.GridSequence, deltasa.PowerLogGrid, deltasa.ConstantGrid, deltasa.CustomGrid):
        assert not hasattr(cls, "derivatives")
    with pytest.raises(TypeError):
        deltasa.CustomGrid(lambda n: 1.0 / n, derivatives=None)
    for knob in ("error_order", "growth_allowance"):
        with pytest.raises(TypeError):
            deltasa.check_condition_B(deltasa.PowerLogGrid(1.0), 256, **{knob: 1.0})


def test_package_reexports_each_module_list():
    modules = ("grid", "jacobi", "criteria", "deficiency", "verify")
    lists = [importlib.import_module(f"deltasa.{m}").__all__ for m in modules]
    expected = ["__version__", *(name for names in lists for name in names), "TriState"]
    assert deltasa.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module, names in TRACER_ONLY.items():
        mod = importlib.import_module(f"deltasa.{module}")
        for name in names:
            assert name not in deltasa.__all__ and not hasattr(deltasa, name), name
            assert name not in mod.__all__, name
            # test_traced_names_exist checks that each is still callable on its module
            assert name in TRACED[module], name


def test_traced_names_exist():
    for name, attrs in TRACED.items():
        mod = importlib.import_module(f"deltasa.{name}")
        for attr in attrs:
            assert callable(getattr(mod, attr)), f"deltasa.{name}.{attr}"
    for name, attrs in TRACED_METHODS.items():
        for attr in attrs:
            assert callable(vars(getattr(deltasa, name)).get(attr)), f"deltasa.{name}.{attr}"


GRID = deltasa.PowerLogGrid(1.0)
ALPHA = deltasa.ScaledInverseGapsAlpha(GRID, -0.5)
U = deltasa.PeriodPair(odd=2.0, even=2.0)


def _solution_op():
    return deltasa.JacobiOperator(GRID, ALPHA)


def _solution():
    return deltasa.solve_recurrence(_solution_op(), 1j, 64)


# thresholds and oracle knobs that became fixed constants, the forced
# perturbation order, the family names that were dataclass fields, the
# envelope bounds' comparison function, the default scan lengths (every
# caller states its horizon), and the tilde ladders that grid.tilde
# replaced
REMOVED_PARAMETERS = {
    **{
        f"VerdictConfig.{knob}": (lambda knob=knob: deltasa.VerdictConfig(**{knob: None}))
        for knob in (
            "lambda_probes",
            "floquet_margin",
            "condition_b_ceiling",
            "ratio_limit_tol",
            "ratio_spread_max",
            "l2_margin",
            "oracle_horizon",
        )
    },
    "check_condition_B.ceiling": lambda: deltasa.check_condition_B(GRID, 256, ceiling=10.0),
    **{
        f"{probe.__name__}.G": (lambda probe=probe: probe(GRID, ALPHA, deltasa.select_G(GRID), 64))
        for probe in (deltasa.test_bound_II, deltasa.test_bound_III)
    },
    "check_condition_B.no_horizon": lambda: deltasa.check_condition_B(GRID),
    "verify_G_limits.no_horizon": lambda: deltasa.verify_G_limits(deltasa.PowerLogGrid(1.0, 0.5)),
    "test_carleman_i.no_horizons": lambda: deltasa.test_carleman_i(GRID, ALPHA),
    "test_condition_I.no_horizons": lambda: criteria.test_condition_I(GRID, ALPHA),
    "check_condition_A.no_horizons": lambda: criteria.check_condition_A(GRID),
    "ScaledInverseGapsAlpha.perturbation_O_d": lambda: deltasa.ScaledInverseGapsAlpha(
        GRID, -0.5, perturbation_O_d=True
    ),
    "classify_summability.probe_horizon": lambda: deltasa.classify_summability(GRID, probe_horizon=16),
    **{
        f"solve_recurrence.{knob}": (
            lambda knob=knob: deltasa.solve_recurrence(_solution_op(), 1j, 64, **{knob: 1})
        )
        for knob in ("keep", "residual_stride")
    },
    "floquet_discriminant.lam": lambda: deltasa.floquet_discriminant(U, -0.5, lam=0.0),
    "floquet_discriminant.margin": lambda: deltasa.floquet_discriminant(U, -0.5, margin=0.0),
    **{
        f"l2_probe.{knob}": (lambda knob=knob: deltasa.l2_probe(_solution(), **{knob: 1}))
        for knob in ("margin", "window", "min_blocks")
    },
    **{
        f"sqrt1p_tail.{knob}": (lambda knob=knob: sqrt1p_tail(np.zeros(3), 2, **{knob: 1}))
        for knob in ("series_cut", "terms")
    },
    "PowerLogGrid.name": lambda: deltasa.PowerLogGrid(1.0, 0.0, 1.0, "x"),
    "ConstantGrid.name": lambda: deltasa.ConstantGrid(1.0, name="x"),
    "ExplicitGrid.name": lambda: deltasa.ExplicitGrid((1.0,), name="x"),
    "PowerSumAlpha.name": lambda: deltasa.PowerSumAlpha(((1.0, 0.0, 0.0),), name="x"),
    "ExplicitAlpha.name": lambda: deltasa.ExplicitAlpha((1.0,), name="x"),
    "rho.tilde": lambda: deltasa.rho(GRID, 5, tilde=deltasa.TildeSequence(GRID)),
    "rho_block.tilde": lambda: deltasa.rho_block(GRID, 5, 9, tilde=deltasa.TildeSequence(GRID)),
    "check_condition_B.tilde": lambda: deltasa.check_condition_B(GRID, 256, tilde=deltasa.TildeSequence(GRID)),
    "scaled_operator.tilde": lambda: deltasa.scaled_operator(GRID, ALPHA, 5, tilde=deltasa.TildeSequence(GRID)),
    "AlphaZeroAlpha.tilde": lambda: deltasa.AlphaZeroAlpha(GRID, -0.5, U, tilde=deltasa.TildeSequence(GRID)),
    "tilde_r.tilde": lambda: jacobi.tilde_r(GRID, 5, tilde=deltasa.TildeSequence(GRID)),
    "alpha_zero.tilde": lambda: jacobi.alpha_zero(GRID, -0.5, U, 5, tilde=deltasa.TildeSequence(GRID)),
    # the grid object keeps its record: deficiency._GridFacts.of
    "deficiency_verdict.facts": lambda: deltasa.deficiency_verdict(GRID, ALPHA, facts=None),
}


@pytest.mark.parametrize("label", sorted(REMOVED_PARAMETERS))
def test_removed_parameter_raises(label):
    with pytest.raises(TypeError):
        REMOVED_PARAMETERS[label]()


def test_the_tracer_reads_the_grids_ladder_class():
    # perfbench/instrument.py wraps the methods of jacobi.TildeSequence
    assert jacobi.TildeSequence is grid.TildeSequence is deltasa.TildeSequence
    assert "TildeSequence" in grid.__all__ and "TildeSequence" not in jacobi.__all__


def test_verdict_config_has_one_field_and_reports_every_threshold():
    cfg = deltasa.VerdictConfig()
    assert [f for f in cfg.__dataclass_fields__] == ["horizons"]
    assert json.dumps(cfg.to_json()) == json.dumps(
        {
            "horizons": [10000, 100000, 1000000],
            "oracle_horizon": 100000,
            "lambda_probes": [[0.0, 1.0]],
            "floquet_margin": 1e-06,
            "condition_b_ceiling": 10.0,
            "ratio_limit_tol": 0.02,
            "ratio_spread_max": 1.1,
            "l2_margin": 0.1,
        }
    )


@pytest.mark.parametrize(
    "kind,indices",
    [
        (VerdictKind.SELF_ADJOINT, (0, 0)),
        (VerdictKind.DEFICIENT, (1, 1)),
        (VerdictKind.INCONCLUSIVE, (None, None)),
    ],
)
def test_deficiency_indices_follow_the_verdict(kind, indices):
    v = CriterionVerdict(kind, None, True, "")
    assert (v.n_plus, v.n_minus) == indices
    j = v.to_json()
    assert (j["n_plus"], j["n_minus"]) == indices


def test_family_names_are_fixed_but_custom_ones_are_chosen():
    fixed = {
        deltasa.PowerLogGrid(1.0): "power-log",
        deltasa.ConstantGrid(1.0): "constant",
        deltasa.ExplicitGrid((1.0,)): "explicit",
        deltasa.PowerSumAlpha(((1.0, 0.0, 0.0),)): "power-sum",
        deltasa.ExplicitAlpha((1.0,)): "explicit",
    }
    for seq, family in fixed.items():
        assert "name" not in [f.name for f in dataclasses.fields(seq)]
        assert seq.describe()["family"] == family
    assert deltasa.CustomGrid(lambda n: 1.0, name="x").describe() == {"family": "x"}
    assert deltasa.CustomAlpha(lambda n: 1.0, name="y").describe() == {"family": "y"}
