"""Outside-in instrumentation of the deltasa package.

Nothing under src/ is changed.  Instead, wrappers are installed around
the public callables of each layer, on every module namespace that
binds them (``deficiency`` imports the criteria probes by name, ``cli``
and ``verify`` import from ``deficiency`` and ``criteria`` by name, and
the package ``__init__`` re-exports almost everything), and removed
again with ``uninstall``.

Two modes:

* verdict timing only (the end-to-end runs): ``deficiency_verdict`` is
  wrapped by a timer that records each outermost call's latency and
  decision.  Nothing else is touched.
* tracing: every layer callable records a span (name, start, end,
  parent span, request id) into flat in-memory arrays, plus the layer
  counters (rows, solves, probe calls, ...).  Spans are written out
  once, when the run ends.

Span names are the layer metric names, so a layer's self time is the
sum over its spans of duration minus the part covered by child spans.
A call nested directly inside a span of the same name records no span
of its own (PowerLogGrid.gaps calls self.log_gaps; TildeSequence.value
calls log_abs), so its time stays in the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

perf = time.perf_counter

MODULES = ("grid", "jacobi", "criteria", "deficiency", "verify", "cli")

# criteria probes with their own self-time metric
PROBES = {
    "test_carleman_i": "criteria.carleman_i",
    "test_condition_I": "criteria.condition_I",
    "select_G": "criteria.select_G",
    "test_bound_II": "criteria.bound_II",
    "test_bound_III": "criteria.bound_III",
    "check_condition_A": "criteria.condition_A",
    "check_condition_B": "criteria.condition_B",
}

# span names in the order the per-layer report lists them; "op" is the
# root span the client opens around each request (harness time)
LAYERS = (
    "op",
    "grid",
    "jacobi.tilde",
    "jacobi.alphas",
    "jacobi.operator",
    *PROBES.values(),
    "deficiency.pipeline",
    "deficiency.oracle",
    "cli",
)


def decision(v) -> dict:
    """The parts of a CriterionVerdict that a speed-up must not change."""
    return {
        "verdict": v.verdict.value,
        "n_plus": v.n_plus,
        "n_minus": v.n_minus,
        "certificate": v.certificate,
        "advisory": v.advisory,
        "flags": list(v.flags),
    }


class Instrument:
    """Installs and removes the wrappers; owns the recorded data."""

    def __init__(self) -> None:
        self.mods = {m: importlib.import_module(f"deltasa.{m}") for m in MODULES}
        self.namespaces = [importlib.import_module("deltasa"), *self.mods.values()]
        self._installed: list[tuple[object, str, object]] = []
        self.name_id = {n: i for i, n in enumerate(LAYERS)}
        # verdict timer
        self.verdict_depth = 0
        self.verdict_s: list[float] = []
        self.decisions: list[dict] = []
        # spans, one entry per column
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.sp_t0 = array("d")
        self.sp_t1 = array("d")
        self.stack: list[int] = []
        self.stack_names: list[int] = []
        self.op_index = -1
        # layer counters, summed over the traced requests
        self.c = dict.fromkeys(
            (
                "grid.rows",
                "jacobi.tilde.rows",
                "jacobi.tilde.scalar_calls",
                "criteria.probe_calls",
                "deficiency.oracle.solves",
                "deficiency.oracle.rows",
                "deficiency.oracle.decisive",
                "deficiency.oracle.l2_probes",
                "deficiency.oracle.verdicts",
                "verdicts",
                "grid.distinct",
            ),
            0,
        )
        self.oracle_solve_s = 0.0
        self.grid_depth = 0  # open grid array-method calls
        self.tilde_depth = 0  # open tilde calls
        self.intervals: dict = {}  # grid -> [(lo, hi)] of outermost array calls, this op

    # -- installing -----------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for ns in self.namespaces:
            for key, val in list(vars(ns).items()):
                if val is original:
                    self._installed.append((ns, key, original))
                    setattr(ns, key, wrapper)

    def _wrap_method(self, cls, attr: str, wrapper_for) -> None:
        original = cls.__dict__[attr]
        self._installed.append((cls, attr, original))
        setattr(cls, attr, wrapper_for(original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    def install_timer(self) -> None:
        """End-to-end mode: time and record every outermost verdict."""
        original = self.mods["deficiency"].deficiency_verdict
        self._replace_everywhere(original, self._timer(original))

    def install_tracer(self) -> None:
        """Trace mode: spans around every layer's public callables."""
        g, j, cr, de, cli = (self.mods[m] for m in ("grid", "jacobi", "criteria", "deficiency", "cli"))
        for cls in _subclasses(g, g.GridSequence):
            for attr in ("gaps", "log_gaps", "gap_log_ratio_block"):
                if attr in cls.__dict__:
                    self._wrap_method(cls, attr, lambda f: self._span(f, "grid", kind="grid-array"))
        for fname in ("classify_summability", "ratio_stats"):
            f = getattr(g, fname)
            self._replace_everywhere(f, self._span(f, "grid"))

        tilde = j.TildeSequence
        self._wrap_method(tilde, "log_abs_block", lambda f: self._span(f, "jacobi.tilde", kind="tilde-array"))
        for attr in ("log_abs", "value"):
            self._wrap_method(tilde, attr, lambda f: self._span(f, "jacobi.tilde", kind="tilde-scalar"))
        for cls in _subclasses(j, j.AlphaSequence):
            for attr in ("alpha", "alphas"):
                if attr in cls.__dict__:
                    self._wrap_method(cls, attr, lambda f: self._span(f, "jacobi.alphas"))
        for attr in ("diag", "off", "entry", "diag_block", "off_block", "truncate"):
            self._wrap_method(j.JacobiOperator, attr, lambda f: self._span(f, "jacobi.operator"))
        for fname, layer in (
            ("tilde_r", "jacobi.tilde"),
            ("rho", "jacobi.tilde"),
            ("rho_block", "jacobi.tilde"),
            ("alpha_zero", "jacobi.alphas"),
            ("scaled_operator", "jacobi.operator"),
        ):
            f = getattr(j, fname)
            self._replace_everywhere(f, self._span(f, layer))

        for fname, layer in PROBES.items():
            f = getattr(cr, fname)
            self._replace_everywhere(f, self._span(f, layer, kind="probe"))

        verdict = de.deficiency_verdict
        self._replace_everywhere(verdict, self._span(verdict, "deficiency.pipeline", kind="verdict"))
        fl = de.floquet_discriminant
        self._replace_everywhere(fl, self._span(fl, "deficiency.pipeline"))
        for fname, kind in (("solve_recurrence", "solve"), ("l2_probe", "l2"), ("_oracle_advisory", "oracle")):
            f = getattr(de, fname)
            self._replace_everywhere(f, self._span(f, "deficiency.oracle", kind=kind))

        f = cli.main
        self._replace_everywhere(f, self._span(f, "cli"))

    # -- wrappers -------------------------------------------------------

    def _timer(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.verdict_depth += 1
            t0 = perf()
            try:
                res = fn(*args, **kwargs)
            finally:
                self.verdict_depth -= 1
            if self.verdict_depth == 0:
                self.verdict_s.append(perf() - t0)
                self.decisions.append(decision(res))
            return res

        return timed

    def open_span(self, nid: int) -> int:
        sid = len(self.sp_t0)
        self.sp_name.append(nid)
        self.sp_parent.append(self.stack[-1] if self.stack else -1)
        self.sp_op.append(self.op_index)
        self.sp_t1.append(0.0)
        self.stack.append(sid)
        self.stack_names.append(nid)
        self.sp_t0.append(perf())
        return sid

    def close_span(self, sid: int) -> None:
        self.sp_t1[sid] = perf()
        self.stack.pop()
        self.stack_names.pop()

    def _span(self, fn, name: str, kind=None):
        """Wrap fn in a span named after its layer."""
        nid = self.name_id[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            names = self.stack_names
            nested = bool(names) and names[-1] == nid
            outer_grid = kind == "grid-array" and self.grid_depth == 0
            outer_tilde = kind in ("tilde-array", "tilde-scalar") and self.tilde_depth == 0
            if kind == "verdict":
                self.verdict_depth += 1
            self.grid_depth += kind == "grid-array"
            self.tilde_depth += kind in ("tilde-array", "tilde-scalar")
            sid = -1 if nested else self.open_span(nid)
            t0 = perf()
            try:
                res = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                if not nested:
                    self.close_span(sid)
                self.grid_depth -= kind == "grid-array"
                self.tilde_depth -= kind in ("tilde-array", "tilde-scalar")
                if kind == "verdict":
                    self.verdict_depth -= 1
            self._count(kind, args, kwargs, res, dur, outer_grid, outer_tilde)
            return res

        return traced

    def _count(self, kind, args, kwargs, res, dur, outer_grid, outer_tilde) -> None:
        c = self.c
        if kind is None:
            return
        if kind == "grid-array":
            if outer_grid and res is not None:
                c["grid.rows"] += len(res)
                grid, lo, hi = _grid_range(args, kwargs)
                try:
                    self.intervals.setdefault(grid, []).append((lo, hi))
                except TypeError:  # unhashable grid: key by identity
                    self.intervals.setdefault(id(grid), []).append((lo, hi))
        elif kind == "tilde-array":
            if outer_tilde:
                c["jacobi.tilde.rows"] += len(res)
        elif kind == "tilde-scalar":
            if outer_tilde:
                c["jacobi.tilde.scalar_calls"] += 1
        elif kind == "probe":
            c["criteria.probe_calls"] += 1
        elif kind == "solve":
            c["deficiency.oracle.solves"] += 1
            c["deficiency.oracle.rows"] += res.horizon
            self.oracle_solve_s += dur
        elif kind == "l2":
            c["deficiency.oracle.l2_probes"] += 1
            c["deficiency.oracle.decisive"] += res.classification != "unknown"
        elif kind == "oracle":
            c["deficiency.oracle.verdicts"] += 1
        elif kind == "verdict" and self.verdict_depth == 0:
            c["verdicts"] += 1
            self.verdict_s.append(dur)
            self.decisions.append(decision(res))

    # -- per-request bookkeeping ----------------------------------------

    def begin_op(self, traced: bool) -> int:
        self.op_index += 1
        self.decisions = []
        self.intervals = {}
        return self.open_span(self.name_id["op"]) if traced else -1

    def end_op(self, sid: int) -> list[dict]:
        if sid >= 0:
            self.close_span(sid)
            self.c["grid.distinct"] += sum(_union_length(v) for v in self.intervals.values())
        return self.decisions

    # -- aggregation ----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over every span recorded."""
        n = len(self.sp_t0)
        if n == 0:
            return dict.fromkeys(LAYERS, 0.0)
        t0 = np.frombuffer(self.sp_t0, dtype=np.float64)
        t1 = np.frombuffer(self.sp_t1, dtype=np.float64)
        parent = np.frombuffer(self.sp_parent, dtype=np.int32)
        names = np.frombuffer(self.sp_name, dtype=np.int32)
        dur = t1 - t0
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=n)
        own = np.bincount(names, weights=dur - child, minlength=len(LAYERS))
        return {name: float(own[i]) for i, name in enumerate(LAYERS)}

    def spans_json(self) -> dict:
        return {
            "names": list(LAYERS),
            "columns": ["name", "parent", "op", "start", "end"],
            "name": self.sp_name.tolist(),
            "parent": self.sp_parent.tolist(),
            "op": self.sp_op.tolist(),
            "start": self.sp_t0.tolist(),
            "end": self.sp_t1.tolist(),
        }


def _subclasses(module, base) -> list[type]:
    return [
        v for v in vars(module).values() if isinstance(v, type) and issubclass(v, base)
    ]


def _grid_range(args, kwargs) -> tuple:
    """(grid, lo, hi) of a grid array-method call."""
    bound = dict(zip(("self", "lo", "hi"), args))
    bound.update(kwargs)
    return bound["self"], bound["lo"], bound["hi"]


def _union_length(intervals: list[tuple[int, int]]) -> int:
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total
