"""Command-line interface.

Subcommands:
  analyze      decide SelfAdjoint / Deficient / Inconclusive for one
               (grid, coupling) pair and emit a JSON report
  sweep        scan coupling strengths a over one or more gap exponents
               and emit a CSV table
  verify-paper run the ten-check reproduction battery
  plot-data    emit (n, value) samples of diagnostic quantities as JSON

Output is byte-deterministic for fixed inputs: JSON is sorted-key with
two-space indent, floats go through repr (a non-finite float is written
as null, so strict JSON readers accept every output), and wall-clock
timings are omitted unless --timings is passed.  The horizon ladder
comes from --horizons when given, else defaults to 10^4, 10^5, 10^6.

The coupling mini-language deliberately avoids a general expression
evaluator.  Accepted forms (whitespace ignored):

  zero
  a*(1/d_n+1/d_{n+1})            optionally followed by +/- power-sum terms
  power-sum terms joined by +/-, each one of
      c | c*n^p | c/n^p | n^p | 1/n^p
      c*ln(n)^q | c/ln(n)^q | ln(n)^q
      c*n^p*ln(n)^q | c/(n^p*ln(n)^q)

Examples: "-2*(1/d_n+1/d_{n+1})+1/n", "3*n^2-1/n^0.5", "zero".
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
import time
from typing import Optional

import numpy as np

from .criteria import F_block, test_bound_II, test_bound_III
from .deficiency import (
    VerdictConfig,
    _GridFacts,
    _row_residual,
    deficiency_verdict,
    floquet_discriminant,
    solve_recurrence,
)
from .grid import ConstantGrid, ExplicitGrid, GridError, GridSequence, PowerLogGrid
from .jacobi import (
    AlphaSequence,
    JacobiOperator,
    PowerSumAlpha,
    ScaledInverseGapsAlpha,
    rho_block,
)
from .numerics import TriState
from .verify import run_battery

__all__ = ["main", "parse_alpha", "build_grid"]


class CliError(Exception):
    """Configuration problem the user can fix; maps to exit code 1."""


# ---------------------------------------------------------------------------
# coupling mini-language

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_SCALED = re.compile(
    rf"^(?P<coef>{_NUM}|[+-]?)\*?\(1/d_n\+1/d_\{{n\+1\}}\)(?P<rest>[+-].*)?$"
)
_TERM = re.compile(
    rf"^(?P<sign>[+-]?)"
    rf"(?:(?P<coef>{_NUM})(?P<op>[*/])?)?"
    rf"(?P<body>"
    rf"\(?n(?:\^(?P<p>{_NUM}))?(?:\*ln\(n\)(?:\^(?P<q>{_NUM}))?)?\)?"
    rf"|ln\(n\)(?:\^(?P<q2>{_NUM}))?"
    rf")?$"
)


def _split_terms(text: str) -> list[str]:
    """Split on top-level + and - (every sign starts a new term)."""
    terms = []
    cur = ""
    for i, ch in enumerate(text):
        if ch in "+-" and i > 0 and text[i - 1] not in "eE^*/(+-":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    return [t for t in terms if t]


def _parse_power_sum(text: str) -> tuple[tuple[float, float, float], ...]:
    terms = []
    for raw in _split_terms(text):
        m = _TERM.match(raw)
        if not m or (m.group("coef") is None and m.group("body") is None):
            raise CliError(f"cannot parse coupling term {raw!r}")
        sign = -1.0 if m.group("sign") == "-" else 1.0
        coef = float(m.group("coef")) if m.group("coef") else 1.0
        body = m.group("body")
        if body is None:
            terms.append((sign * coef, 0.0, 0.0))
            continue
        invert = m.group("op") == "/"
        if m.group("coef") and not m.group("op"):
            raise CliError(f"missing * or / between coefficient and n in {raw!r}")
        if body.startswith("ln"):
            p = 0.0
            q = float(m.group("q2")) if m.group("q2") else 1.0
        else:
            p = float(m.group("p")) if m.group("p") else 1.0
            q = float(m.group("q")) if m.group("q") else (1.0 if "ln" in body else 0.0)
        if invert:
            p, q = -p, -q
        terms.append((sign * coef, p + 0.0, q + 0.0))
    return tuple(terms)


def parse_alpha(text: str, grid: GridSequence) -> AlphaSequence:
    """Parse the coupling mini-language against a grid."""
    s = text.replace(" ", "")
    if not s:
        raise CliError("empty coupling expression")
    if s == "zero":
        return PowerSumAlpha(terms=((0.0, 0.0, 0.0),))
    m = _SCALED.match(s)
    if m:
        coef_text = m.group("coef")
        if coef_text in ("", "+"):
            a = 1.0
        elif coef_text == "-":
            a = -1.0
        else:
            a = float(coef_text)
        rest = m.group("rest")
        pert = PowerSumAlpha(terms=_parse_power_sum(rest)) if rest else None
        return ScaledInverseGapsAlpha(grid, a, perturbation=pert)
    return PowerSumAlpha(terms=_parse_power_sum(s))


# ---------------------------------------------------------------------------
# grid construction


def build_grid(args: argparse.Namespace) -> GridSequence:
    spec = getattr(args, "grid", None)
    if spec and spec != "powerlog":
        kind, _, rest = spec.partition(":")
        if kind == "constant":
            try:
                return ConstantGrid(d=float(rest or "1"))
            except (ValueError, GridError) as e:
                raise CliError(f"bad constant grid: {e}")
        if kind == "explicit":
            parts = rest.split(":")
            tail = parts[1] if len(parts) > 1 else "cycle"
            try:
                values = tuple(float(v) for v in parts[0].split(",") if v)
                return ExplicitGrid(values=values, tail=tail)
            except (ValueError, GridError) as e:
                raise CliError(f"bad explicit grid: {e}")
        raise CliError(f"unknown grid kind {kind!r} (use powerlog, constant:D, explicit:V1,V2[:tail])")
    gamma = getattr(args, "gamma", None)
    if gamma is None:
        raise CliError("no grid given: pass --gamma (power-log family) or --grid")
    try:
        return PowerLogGrid(gamma=gamma, eta=getattr(args, "eta", 0.0), d1=getattr(args, "d1", 1.0))
    except GridError as e:
        raise CliError(str(e))


def _verdict_config(args: argparse.Namespace) -> VerdictConfig:
    """The ladder from --horizons, else the default."""
    raw = getattr(args, "horizons", None)
    if not raw:
        return VerdictConfig()
    try:
        return VerdictConfig(tuple(int(h) for h in raw.split(",")))
    except ValueError as e:
        raise CliError(f"bad --horizons {raw!r}: {e}")


def _strict(obj):
    """obj with every non-finite float written as None: strict JSON has no inf or nan."""
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write(text: str, path: Optional[str]) -> None:
    """Write text to the file at path as it is (no newline translation), or to stdout when path is empty."""
    if path:
        with open(path, "w", newline="") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, out_path: Optional[str]) -> None:
    _write(json.dumps(_strict(payload), sort_keys=True, indent=2, allow_nan=False) + "\n", out_path)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args: argparse.Namespace) -> int:
    t_start = time.perf_counter()
    grid = build_grid(args)
    alpha = parse_alpha(args.alpha, grid)
    cfg = _verdict_config(args)
    t0 = time.perf_counter()
    verdict = deficiency_verdict(grid, alpha, cfg)
    t_verdict = time.perf_counter() - t0
    report = {
        "schema": "deltasa-analyze-v8",
        "grid": grid.describe(),
        "alpha": alpha.describe(),
        "horizons": list(cfg.horizons),
        "verdict": verdict.to_json(),
    }
    if args.timings:
        report["timings"] = {
            "verdict_s": round(t_verdict, 6),
            "total_s": round(time.perf_counter() - t_start, 6),
        }
    _emit(report, args.output)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        gammas = [float(g) for g in args.gammas.split(",") if g]
        a_values = [float(a) for a in args.a_values.split(",") if a]
    except ValueError as e:
        raise CliError(f"bad sweep values: {e}")
    if not gammas or not a_values:
        raise CliError("sweep needs at least one gamma and one a value")
    cfg = _verdict_config(args)
    pert = PowerSumAlpha(terms=_parse_power_sum(args.alpha_pert.replace(" ", ""))) if args.alpha_pert else None

    # build every grid and coupling first: their constructors check each gamma and a before any scan
    cells = [
        (grid, [ScaledInverseGapsAlpha(grid, a, perturbation=pert) for a in a_values])
        for grid in (PowerLogGrid(gamma=gamma, eta=args.eta, d1=args.d1) for gamma in gammas)
    ]
    rows = []
    for grid, alphas in cells:
        facts = _GridFacts.of(grid, cfg)  # the grid's record: every cell's verdict reads it too
        # the verdict's phase 0 settles summable and non-square-summable
        # gaps for every coupling; their probe cells stay empty
        probed = facts.summ.in_ell1 is not TriState.TRUE and facts.summ.in_ell2 is not TriState.FALSE
        for alpha in alphas:
            verdict = deficiency_verdict(grid, alpha, cfg)
            if verdict.certificate is None:
                certifying = "inconclusive"
            elif verdict.advisory:
                certifying = "numerical-advisory"
            else:
                certifying = verdict.certificate
            row = {
                "gamma": grid.gamma,
                "eta": args.eta,
                "a": alpha.a,
                "verdict": verdict.verdict.value,
                "certifying_test": certifying,
            }
            if probed:
                # the sweep's own columns: on gaps that underflow to 0 these probes
                # divide by zero and read inf or nan, which the CSV prints as it is
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    u = facts.cond_b.u
                    row |= {
                        "u_odd": u.odd,
                        "u_even": u.even,
                        "delta0": floquet_discriminant(u, alpha.a).discriminant,
                        "minimal_C1": test_bound_II(grid, alpha, N=cfg.bound_horizon).minimal_constant,
                        "minimal_C2": test_bound_III(grid, alpha, N=cfg.bound_horizon).minimal_constant,
                    }
            rows.append(row)

    fieldnames = [
        "gamma", "eta", "a", "verdict", "certifying_test",
        "u_odd", "u_even", "delta0", "minimal_C1", "minimal_C2",
    ]
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: (repr(v) if isinstance(v, float) else v) for k, v in row.items()})
    _write(out.getvalue(), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_battery(only=args.only, horizon=args.horizon)
    if args.json:
        _emit(report.to_json(), args.output)
    else:
        _write("\n".join(report.lines()) + "\n", args.output)
    return 0 if report.passed else 1


def _log_sample(lo: int, hi: int, points: int) -> np.ndarray:
    return np.unique(np.geomspace(lo, hi, points).astype(np.int64))


def _cmd_plot_data(args: argparse.Namespace) -> int:
    grid = build_grid(args)
    lo, hi = args.lo, args.hi
    if lo < 1 or hi <= lo:
        raise CliError("need 1 <= lo < hi")
    q = args.quantity
    samples: list = []
    if q in ("F", "F_over_d"):
        for n in _log_sample(max(lo, 1), hi, args.points):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a gap that underflows to 0 gives null
                v = F_block(grid, int(n), int(n) + 1)[0]  # a numpy scalar: dividing it by a zero gap gives inf or nan
                if q == "F_over_d":
                    v /= grid.gap(int(n))
            samples.append([int(n), float(v)])
    elif q == "rho":
        for n in _log_sample(max(lo, 1), hi, args.points):
            samples.append([int(n), float(rho_block(grid, int(n), int(n) + 1)[0])])
    elif q in ("block_norms", "residuals"):
        if args.alpha is None:
            raise CliError(f"--alpha is required for {q}")
        alpha = parse_alpha(args.alpha, grid)
        op = JacobiOperator(grid, alpha)
        lam = complex(args.lam) if args.lam else 0.0
        if isinstance(lam, complex) and lam.imag == 0.0:
            lam = lam.real
        # the entries on a gap that underflows to 0 are inf or nan, and so is the march from there on
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            sol = solve_recurrence(op, lam, hi)
        if q == "block_norms":
            samples = [[k, m] for k, m in sol.block_log_masses]
        else:
            pure = int(sol.meta.get("head_pure_until", 0))
            head = sol.head
            top = min(pure, len(head)) - 1
            for n in _log_sample(max(lo, 2), max(top, 3), min(args.points, max(top - 1, 1))):
                n = int(n)
                if n + 1 > top:
                    continue
                o_prev, c, o_cur = op.off(n - 1), op.diag(n) - lam, op.off(n)
                samples.append([n, _row_residual(o_prev, c, o_cur, head[n - 2], head[n - 1], head[n])])
    else:
        raise CliError(f"unknown quantity {q!r}")
    payload = {
        "schema": "deltasa-plot-v1",
        "quantity": q,
        "grid": grid.describe(),
        "samples": samples,
    }
    _emit(payload, args.output)
    return 0


# ---------------------------------------------------------------------------


@functools.cache  # one parser per process: parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltasa",
        description=(
            "Self-adjointness and deficiency-index analysis for half-line "
            "Jacobi matrices built from point-interaction grids."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--gamma", type=float, default=None, help="power-law gap exponent")
        p.add_argument("--eta", type=float, default=0.0, help="log-power gap exponent (default 0)")
        p.add_argument("--d1", type=float, default=1.0, help="first gap value (default 1)")
        p.add_argument(
            "--grid",
            default=None,
            help="grid spec: powerlog (default, uses --gamma/--eta/--d1), "
            "constant:D, or explicit:V1,V2,...[:cycle|hold|error]",
        )

    p = sub.add_parser("analyze", help="decide self-adjointness for one grid + coupling")
    add_grid_args(p)
    p.add_argument(
        "--alpha",
        required=True,
        help="coupling expression (use --alpha=EXPR when EXPR starts with '-')",
    )
    p.add_argument("--horizons", default=None, help="comma-separated increasing horizons")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings")
    p.add_argument("--output", default=None, help="write JSON here instead of stdout")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("sweep", help="scan coupling strength a over gap exponents")
    p.add_argument("--gammas", default="0.6,0.75,1.0", help="comma-separated gamma values")
    p.add_argument("--a-values", default="-1.5,-0.5,0.5", help="comma-separated a values")
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--d1", type=float, default=1.0)
    p.add_argument("--alpha-pert", default=None, help="power-sum perturbation added to a*(1/d_n+1/d_{n+1})")
    p.add_argument("--horizons", default=None)
    p.add_argument("--output", default=None, help="write CSV here instead of stdout")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify-paper", help="run the ten-check reproduction battery")
    p.add_argument("--only", default=None, help="run only checks whose name contains this")
    p.add_argument("--horizon", type=int, default=10**6, help="battery horizon (default 10^6)")
    p.add_argument("--json", action="store_true", help="JSON report instead of lines")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("plot-data", help="emit diagnostic samples as JSON")
    add_grid_args(p)
    p.add_argument(
        "--quantity",
        required=True,
        choices=["F", "F_over_d", "rho", "block_norms", "residuals"],
    )
    p.add_argument("--lo", type=int, default=2)
    p.add_argument("--hi", type=int, default=10**4)
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--alpha", default=None, help="coupling (required for block_norms/residuals)")
    p.add_argument(
        "--lam",
        default=None,
        help="spectral point, e.g. 0 or 1j; write --lam=-1j for a value that starts with '-'",
    )
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_plot_data)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError, ArithmeticError) as e:  # GridError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
