"""Command-line surface: coupling grammar, grid specs, subcommands,
deterministic output, and exit codes."""

import csv
import io
import json
import math
import warnings

import pytest

from deltasa import PowerLogGrid, PowerSumAlpha, ScaledInverseGapsAlpha, cli
from deltasa.cli import CliError, build_grid, main, parse_alpha


GRID = PowerLogGrid(gamma=1.0)


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestAlphaGrammar:
    def test_zero(self):
        a = parse_alpha("zero", GRID)
        assert a.alpha(5) == 0.0

    def test_scaled_form(self):
        a = parse_alpha("-0.5*(1/d_n+1/d_{n+1})", GRID)
        assert isinstance(a, ScaledInverseGapsAlpha)
        assert a.a == -0.5
        assert a.perturbation is None

    def test_scaled_form_with_perturbation(self):
        a = parse_alpha("-2*(1/d_n+1/d_{n+1})+1/n", GRID)
        assert a.a == -2.0
        assert a.perturbation is not None
        assert a.alpha(3) == pytest.approx(-2.0 * (3 + 4) + 1.0 / 3.0, rel=1e-13)

    def test_scaled_form_unit_coefficients(self):
        assert parse_alpha("(1/d_n+1/d_{n+1})", GRID).a == 1.0
        assert parse_alpha("-(1/d_n+1/d_{n+1})", GRID).a == -1.0

    @pytest.mark.parametrize(
        "text,n,value",
        [
            ("3", 9, 3.0),
            ("n", 9, 9.0),
            ("1/n", 4, 0.25),
            ("3*n^2-1/n^0.5+2", 4, 3 * 16 - 0.5 + 2),
            ("ln(n)^2", 5, math.log(5) ** 2),
            ("2*ln(n)", 5, 2 * math.log(5)),
            ("2/ln(n)", 5, 2 / math.log(5)),
            ("5/(n^2*ln(n)^3)", 4, 5 / (16 * math.log(4) ** 3)),
            ("2*n^0.5*ln(n)^2", 9, 2 * 3 * math.log(9) ** 2),
            ("-n+4", 6, -2.0),
        ],
    )
    def test_power_sum_values(self, text, n, value):
        a = parse_alpha(text, GRID)
        assert isinstance(a, PowerSumAlpha)
        assert a.alpha(n) == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize(
        "bad", ["", "n**2", "sin(n)", "2^n", "1/d_n", "n^", "3..5", "import os"]
    )
    def test_rejected_forms(self, bad):
        with pytest.raises(CliError):
            parse_alpha(bad, GRID)

    def test_whitespace_ignored(self):
        a = parse_alpha(" -0.5 * (1/d_n + 1/d_{n+1}) + 1/n ".replace("  ", " "), GRID)
        assert a.a == -0.5


class TestGridSpecs:
    def test_constant(self):
        ns = type("NS", (), {"grid": "constant:1.5"})()
        g = build_grid(ns)
        assert g.gap(3) == 1.5

    def test_explicit_with_tail(self):
        ns = type("NS", (), {"grid": "explicit:0.5,0.25:hold"})()
        g = build_grid(ns)
        assert g.gap(9) == 0.25

    def test_powerlog_from_flags(self):
        ns = type("NS", (), {"grid": None, "gamma": 0.75, "eta": 0.25, "d1": 2.0})()
        g = build_grid(ns)
        assert isinstance(g, PowerLogGrid)
        assert g.gamma == 0.75 and g.eta == 0.25 and g.d1 == 2.0

    def test_unknown_kind(self):
        ns = type("NS", (), {"grid": "fractal:3"})()
        with pytest.raises(CliError):
            build_grid(ns)

    def test_missing_grid(self):
        ns = type("NS", (), {"grid": None, "gamma": None})()
        with pytest.raises(CliError):
            build_grid(ns)


class TestAnalyze:
    ARGS = [
        "analyze", "--gamma", "1.0",
        "--alpha=-0.5*(1/d_n+1/d_{n+1})+1/n",
        "--horizons", "10000",
    ]

    def test_reports_deficient(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "deltasa-analyze-v6"
        assert report["verdict"]["verdict"] == "Deficient"
        assert report["verdict"]["certificate"] == "periodic-comparison"
        assert report["horizons"] == [10000]

    def test_output_is_deterministic(self, capsys):
        _, first, _ = run(self.ARGS, capsys)
        _, second, _ = run(self.ARGS, capsys)
        assert first == second
        assert "timings" not in json.loads(first)

    def test_parser_is_built_once(self, capsys):
        cli._build_parser.cache_clear()
        _, first, _ = run(self.ARGS, capsys)
        _, second, _ = run(self.ARGS, capsys)
        assert first == second
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_timings_opt_in(self, capsys):
        code, out, _ = run(self.ARGS + ["--timings"], capsys)
        assert code == 0
        assert "timings" in json.loads(out)

    def test_env_horizon(self, capsys, monkeypatch):
        monkeypatch.setenv("DELTA_SPEC_HORIZON", "20000")
        code, out, _ = run(
            ["analyze", "--gamma", "1.0", "--alpha", "zero"], capsys
        )
        assert code == 0
        assert json.loads(out)["horizons"] == [10000, 20000]

    def test_env_horizon_has_the_ladder_floor(self, capsys, monkeypatch):
        # the environment and --horizons share VerdictConfig's one floor
        monkeypatch.setenv("DELTA_SPEC_HORIZON", "500")
        code, out, _ = run(["analyze", "--gamma", "1", "--alpha", "zero"], capsys)
        assert code == 0
        assert json.loads(out)["horizons"] == [500]
        monkeypatch.setenv("DELTA_SPEC_HORIZON", "100")
        code, out, err = run(["analyze", "--gamma", "1", "--alpha", "zero"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: bad DELTA_SPEC_HORIZON '100': every horizon must be at least 256")
        assert err.count("\n") == 1

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DELTA_SPEC_HORIZON", "20000")
        code, out, _ = run(
            ["analyze", "--gamma", "1.0", "--alpha", "zero", "--horizons", "10000"],
            capsys,
        )
        assert json.loads(out)["horizons"] == [10000]

    def test_oracle_horizon_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--oracle-horizon", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --oracle-horizon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ladder,alpha,rule",
        [
            ("-5,3", "-0.5*(1/d_n+1/d_{n+1})", "at least 256"),
            ("0", "-0.5*(1/d_n+1/d_{n+1})", "at least 256"),
            ("100", "-0.5*(1/d_n+1/d_{n+1})", "at least 256"),
            ("100", "n^2", "at least 256"),  # carleman settles it, yet the ladder is bad
            ("20000,10000", "zero", "strictly increasing"),
        ],
    )
    def test_bad_ladder_is_one_error_line(self, capsys, ladder, alpha, rule):
        code, out, err = run(
            ["analyze", "--gamma", "1.0", f"--alpha={alpha}", f"--horizons={ladder}"], capsys
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert rule in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(self.ARGS + ["--output", str(target)], capsys)
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["verdict"]["verdict"] == "Deficient"

    def test_config_error_exit_code(self, capsys):
        code, _, err = run(["analyze", "--alpha", "zero"], capsys)
        assert code == 1
        assert "error:" in err
        code, _, err = run(
            ["analyze", "--gamma", "1.0", "--alpha", "sin(n)"], capsys
        )
        assert code == 1

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_overflow_is_json_null(self, capsys):
        # the partial sums of 1e308 n^5 overflow the float range: the
        # output writes them as null, and the verdict stays certified
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out, _ = run(
                ["analyze", "--gamma", "0.8", "--horizons", "10000,100000", "--alpha=1e308*n^5"], capsys
            )
        assert code == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        verdict = json.loads(out, parse_constant=reject)["verdict"]
        assert (verdict["verdict"], verdict["certificate"]) == ("SelfAdjoint", "carleman-series")
        assert verdict["diagnostics"]["carleman_i"]["checkpoints"] == [[10000, None]]

    def test_zero_coupling_has_a_plus_zero_constant(self, capsys):
        # bound III's residual is 0 - alpha_n: -alpha_n would turn a zero
        # coupling's minimal constant into -0.0, printed "stabilized constant -0"
        code, out, _ = run(["analyze", "--gamma", "0.8", "--alpha=zero"], capsys)
        assert code == 0
        verdict = json.loads(out)["verdict"]
        assert (verdict["verdict"], verdict["certificate"]) == ("SelfAdjoint", "lower-envelope-bound")
        assert repr(verdict["diagnostics"]["bound_III"]["minimal_constant"]) == "0.0"
        assert verdict["provenance"].endswith("stabilized constant 0")

    @pytest.mark.parametrize("alpha", ["1e308*n^5", "1e308*n^0.1"])
    def test_overflowing_coupling_warns_nothing(self, capsys, alpha):
        # a finite coupling that overflows the float range: the carleman-i
        # partial sums (n^5) or the bound probes and the oracle (n^0.1)
        # meet inf, as designed, and print no numpy warning to stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(
                ["analyze", "--gamma", "0.8", "--horizons", "10000,100000", f"--alpha={alpha}"], capsys
            )
        assert (code, err) == (0, "")


class TestSweep:
    def test_single_cell(self, capsys):
        code, out, _ = run(
            [
                "sweep", "--gammas", "1.0", "--a-values=-0.5,0.5",
                "--horizons", "10000",
            ],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["a"] for r in rows] == ["-0.5", "0.5"]
        assert rows[0]["verdict"] == "Deficient"
        assert rows[0]["certifying_test"] == "periodic-comparison"
        assert rows[1]["verdict"] == "SelfAdjoint"
        # delta0 at the critical coupling: 2 (a+1)^2 - 1
        assert float(rows[0]["delta0"]) == pytest.approx(-0.5, abs=1e-9)
        assert float(rows[0]["u_odd"]) == pytest.approx(math.pi, abs=1e-6)
        assert float(rows[0]["u_even"]) == pytest.approx(4 / math.pi, abs=1e-6)
        for row in rows:
            for col in ("minimal_C1", "minimal_C2"):
                assert row[col] != ""

    def test_gaps_that_do_not_decay(self, capsys):
        # condition B's Richardson order needs decaying gaps; the verdict
        # settles these grids in phase 0
        code, out, err = run(
            ["sweep", "--gammas", "0,-0.5", "--a-values=-0.5", "--horizons", "10000"], capsys
        )
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["gamma"] for r in rows] == ["0.0", "-0.5"]
        assert {(r["verdict"], r["certifying_test"]) for r in rows} == {("SelfAdjoint", "non-square-summable-gaps")}

    def test_phase_zero_grids_get_no_probe(self, capsys, monkeypatch):
        # gamma = -0.5 and 0.3 give gaps that are not square-summable, which
        # the verdict settles in phase 0: the sweep scans nothing there and
        # leaves the probe cells empty
        def scan(*args, **kwargs):
            raise AssertionError("sweep probed a grid that phase 0 settles")

        for name in ("check_condition_B", "test_bound_II", "test_bound_III"):
            monkeypatch.setattr(cli, name, scan)
        code, out, err = run(["sweep", "--gammas=-0.5,0.3", "--a-values=-0.5,0.5"], capsys)
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(r["gamma"], r["a"]) for r in rows] == [("-0.5", "-0.5"), ("-0.5", "0.5"), ("0.3", "-0.5"), ("0.3", "0.5")]
        for row in rows:
            assert (row["verdict"], row["certifying_test"]) == ("SelfAdjoint", "non-square-summable-gaps")
            assert [row[c] for c in ("u_odd", "u_even", "delta0", "minimal_C1", "minimal_C2")] == [""] * 5

    @pytest.mark.parametrize(
        "gammas,a_values,err",
        [
            ("0.8,0.9", "-0.5,nan", "error: coupling strength a must be finite, got nan\n"),
            ("0.8,nan", "-0.5", "error: gamma and eta must be finite\n"),
            ("0.8,nan", "-0.5,nan", "error: coupling strength a must be finite, got nan\n"),
        ],
        ids=["a", "gamma", "a-before-gamma"],
    )
    def test_inputs_are_checked_before_any_scan(self, capsys, monkeypatch, gammas, a_values, err):
        def scan(*args, **kwargs):
            raise AssertionError("sweep scanned a grid before it checked every gamma and a")

        monkeypatch.setattr(cli, "check_condition_B", scan)
        assert run(["sweep", "--gammas", gammas, f"--a-values={a_values}"], capsys) == (1, "", err)

    def test_columns_fixed(self, capsys):
        code, out, _ = run(
            ["sweep", "--gammas", "1.0", "--a-values", "0.5", "--horizons", "10000"],
            capsys,
        )
        header = out.splitlines()[0]
        assert header == (
            "gamma,eta,a,verdict,certifying_test,u_odd,u_even,delta0,"
            "minimal_C1,minimal_C2"
        )


class TestVerifyPaper:
    def test_single_check(self, capsys):
        code, out, _ = run(
            ["verify-paper", "--only", "wallis", "--horizon", "10000"], capsys
        )
        assert code == 0
        assert "[PASS]" in out
        assert "1/1 checks passed" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(
            ["verify-paper", "--only", "wallis", "--horizon", "10000", "--json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_output_is_deterministic(self, capsys, fmt):
        # a check's wall time is written only when it overruns its budget
        argv = ["verify-paper", "--horizon", "10000", *fmt]
        first = run(argv, capsys)
        assert first[0] == 0 and "runtime" not in first[1]
        assert run(argv, capsys) == first

    def test_bad_env_horizon(self, capsys, monkeypatch):
        monkeypatch.setenv("DELTA_SPEC_HORIZON", "abc")
        for argv in (["verify-paper", "--only", "wallis"], ["analyze", "--gamma", "1.0", "--alpha", "zero"]):
            code, out, err = run(argv, capsys)
            assert (code, out) == (1, "")
            assert err == "error: bad DELTA_SPEC_HORIZON 'abc'\n"

    def test_unknown_filter_fails(self, capsys):
        code, _, err = run(
            ["verify-paper", "--only", "nonexistent", "--horizon", "10000"], capsys
        )
        assert code == 1


class TestPlotData:
    def test_curvature_samples(self, capsys):
        code, out, _ = run(
            [
                "plot-data", "--gamma", "0.6", "--quantity", "F",
                "--lo", "2", "--hi", "500", "--points", "12",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        ns = [n for n, _ in payload["samples"]]
        assert ns == sorted(ns) and len(ns) <= 12
        assert payload["quantity"] == "F"

    def test_rho_parity_limits(self, capsys):
        # d = 1/n: rho tends to pi along odd n and to 4/pi along even n
        code, out, _ = run(
            [
                "plot-data", "--gamma", "1", "--quantity", "rho",
                "--lo", "9999", "--hi", "10000", "--points", "2",
            ],
            capsys,
        )
        assert code == 0
        samples = dict(json.loads(out)["samples"])
        assert samples[9999] == pytest.approx(math.pi, abs=1e-3)
        assert samples[10000] == pytest.approx(4.0 / math.pi, abs=1e-3)

    def test_rho_overflow_is_json_null(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run(
                [
                    "plot-data", "--grid", "explicit:1,2", "--quantity", "rho",
                    "--lo", "2", "--hi", "10000", "--points", "8",
                ],
                capsys,
            )
        assert code == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        samples = json.loads(out, parse_constant=reject)["samples"]
        assert samples[-1] == [10000, None]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("lam", [["--lam", "1j"], []], ids=["lam=1j", "lam=0"])
    def test_residuals_are_at_rounding_level(self, capsys, lam):
        code, out, _ = run(
            [
                "plot-data", "--gamma", "1", "--quantity", "residuals",
                "--alpha=-0.5*(1/d_n+1/d_{n+1})", *lam,
            ],
            capsys,
        )
        assert code == 0
        values = [v for _, v in json.loads(out)["samples"]]
        assert values and all(math.isfinite(v) and v < 1e-12 for v in values)

    def test_block_norms_need_alpha(self, capsys):
        code, _, err = run(
            ["plot-data", "--gamma", "1.0", "--quantity", "block_norms"], capsys
        )
        assert code == 1
        code, out, _ = run(
            [
                "plot-data", "--gamma", "1.0", "--quantity", "block_norms",
                "--alpha=-0.5*(1/d_n+1/d_{n+1})", "--lam", "1j", "--hi", "4096",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        masses = [m for _, m in payload["samples"]]
        # square-summable solution: dyadic block masses decrease
        assert masses[-1] < masses[0]

    def test_negative_lam_takes_the_equals_form(self, capsys):
        # B is real, so the -i solution is the conjugate of the +i one
        # and has the same block masses
        argv = [
            "plot-data", "--gamma", "0.8", "--quantity", "block_norms",
            "--alpha=-1*(1/d_n+1/d_{n+1})", "--hi", "100000",
        ]
        code, out, _ = run([*argv, "--lam=-1j"], capsys)
        assert code == 0
        minus = json.loads(out)["samples"]
        code, out, _ = run([*argv, "--lam", "1j"], capsys)
        assert code == 0
        assert len(minus) == 16 and minus == json.loads(out)["samples"]


# a non-finite number is rejected where the coupling or the spectral
# point is built, and main turns the ValueError into exit code 1
CRITICAL = "*(1/d_n+1/d_{n+1})"
NON_FINITE = {
    "perturbation": ["analyze", "--gamma", "0.8", f"--alpha=-0.5{CRITICAL}+1e999/n"],
    "strength": ["analyze", "--gamma", "0.8", f"--alpha=1e999{CRITICAL}"],
    "sweep-a": ["sweep", "--gammas", "0.8", "--a-values=nan", "--horizons", "10000"],
    "real-lam": ["plot-data", "--gamma", "1.0", "--quantity", "block_norms", f"--alpha=-0.5{CRITICAL}", "--lam", "nan"],
    "complex-lam": ["plot-data", "--gamma", "1.0", "--quantity", "block_norms", f"--alpha=-0.5{CRITICAL}", "--lam", "1+infj"],
}


@pytest.mark.parametrize("label", sorted(NON_FINITE))
def test_non_finite_input_is_one_error_line(capsys, label):
    code, out, err = run(NON_FINITE[label], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "finite" in err


# gaps that underflow to 0 give an answer, not an error: every F and
# F/d row that reads a zero gap is nan, written as null, whether the
# scalar head rows or the numpy rows compute it, and no numpy warning
# reaches stderr; at gamma = 600 the gaps from d_4 on are 0 and row 2
# overflows, so only row 1 keeps a value.  Sweep writes the row whose condition-B Richardson step
# overflows, its u unknown
@pytest.mark.parametrize(
    "quantity, gamma, lo, hi, finite",
    [
        pytest.param("F", "1100", 1, 3, 0, id="1-3"),
        pytest.param("F", "1100", 3, 9, 0, id="3-9"),
        pytest.param("F_over_d", "1100", 1, 3, 0, id="F_over_d-1-3"),
        pytest.param("F_over_d", "1100", 3, 9, 0, id="F_over_d-3-9"),
        pytest.param("F", "600", 1, 9, 1, id="600-F"),
        pytest.param("F_over_d", "600", 1, 9, 1, id="600-F_over_d"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_underflowing_gaps_give_null_F(capsys, quantity, gamma, lo, hi, finite):
    argv = ["plot-data", "--gamma", gamma, "--quantity", quantity, "--lo", str(lo), "--hi", str(hi)]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    samples = json.loads(out)["samples"]
    assert [n for n, _ in samples] == list(range(lo, hi + 1))
    assert all(math.isfinite(v) for _, v in samples[:finite])
    assert all(v is None for _, v in samples[finite:])


# the march's entries divide by the zero gaps as IEEE floats do, so from
# row 1 on the solution, its block masses and its row residuals are nan
@pytest.mark.parametrize("quantity", ["block_norms", "residuals"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_underflowing_gaps_give_null_march_samples(capsys, quantity):
    code, out, err = run(["plot-data", "--gamma", "1100", "--quantity", quantity, "--alpha=zero"], capsys)
    assert (code, err) == (0, "")
    samples = json.loads(out, parse_constant=lambda c: pytest.fail(f"not strict JSON: {c}"))["samples"]
    if quantity == "block_norms":
        assert samples[0] == [0, 0.0]  # block 0 holds h_1 = 1 alone
        samples = samples[1:]
    assert samples and all(v is None for _, v in samples)


# gaps of order n^-600 are summable and underflow to 0, where condition B
# would overflow; phase 0 settles them, so the sweep runs no probe there
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_writes_the_row_condition_B_overflows_on(capsys):
    code, out, err = run(["sweep", "--gammas", "600", "--a-values=-0.5", "--horizons", "300"], capsys)
    assert (code, err) == (0, "")
    header, row = out.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert (cells["verdict"], cells["u_odd"], cells["u_even"]) == ("Inconclusive", "", "")


# --output writes the bytes stdout gets, for every subcommand: two runs
# print the same bytes, the battery report's too
OUTPUTS = {
    "analyze": ["analyze", "--gamma", "1.0", "--horizons", "10000", f"--alpha=-0.5{CRITICAL}"],
    "sweep": ["sweep", "--gammas", "1.0", "--a-values=-0.5,0.5", "--horizons", "10000"],
    "verify-paper": ["verify-paper", "--only", "wallis", "--horizon", "10000"],
    "verify-paper-json": ["verify-paper", "--only", "wallis", "--horizon", "10000", "--json"],
    "plot-data": ["plot-data", "--gamma", "0.7", "--quantity", "F_over_d", "--hi", "1000", "--points", "16"],
}


@pytest.mark.parametrize("label", sorted(OUTPUTS))
def test_output_file_holds_the_stdout_bytes(capsys, tmp_path, label):
    code, out, err = run(OUTPUTS[label], capsys)
    assert code == 0 and out
    target = tmp_path / "out"
    assert run([*OUTPUTS[label], "--output", str(target)], capsys) == (code, "", err)
    assert target.read_bytes() == out.encode()
