"""The public names: every exported name resolves, removed ones stay gone."""

import importlib

import pytest

import deltasa

MODULES = ("cli", "criteria", "deficiency", "grid", "jacobi", "numerics", "verify")

# the gap-regularity layer, which no verdict, battery check or CLI path ran
REMOVED = {
    "criteria": (
        "check_asymptotic_eq10",
        "Eq10Result",
        "check_d_conditions",
        "DConditions",
        "check_d4",
        "D4Result",
    ),
    "grid": ("SmoothFamilyDerivatives",),
    "numerics": ("Trend", "TrendReport", "tail_trend", "geometric_ladder"),
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


@pytest.mark.parametrize("name", [None, *MODULES])
def test_all_names_resolve(name):
    mod = deltasa if name is None else importlib.import_module(f"deltasa.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    for attr in exported:
        assert hasattr(mod, attr), f"{mod.__name__}.{attr}"


def test_removed_names_are_gone():
    for name, attrs in REMOVED.items():
        mod = importlib.import_module(f"deltasa.{name}")
        for attr in attrs:
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


def test_traced_names_exist():
    for name, attrs in TRACED.items():
        mod = importlib.import_module(f"deltasa.{name}")
        for attr in attrs:
            assert callable(getattr(mod, attr)), f"deltasa.{name}.{attr}"
    assert callable(deltasa.JacobiOperator.entry)
