"""Spans and counters around calls into rfa, installed in the benchmark process only.

The tracer replaces public names of ``rfa.core``, ``rfa.analytic``,
``rfa.dynamics`` and ``rfa.cli`` as their callers look them up (module
globals such as ``rfa.cli.presets.simulate_system``, class attributes such
as ``LcNumber.__mul__``) with wrappers that record a span or bump a
counter, and puts the originals back on ``uninstall``.  The library source
is not changed.

A span is (name, start, end, parent, operation id).  Spans stay in memory,
in flat arrays, until ``save`` writes them out.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import itertools
import os
import statistics
import timeit
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

ROOT_SPAN = "bench.op"

# Per-layer metrics, in the order they are printed.  Times and counts are
# per operation, averaged over the traced rounds; ``_ms`` metrics are self
# times.
LAYER_METRICS = (
    ("dynamics.rk4_ms", "ms"),
    ("dynamics.rk4_steps", "count"),
    ("dynamics.field_evals", "count"),
    ("dynamics.ns_per_rk4_step", "ns"),
    ("dynamics.simulate_self_ms", "ms"),
    ("dynamics.closed_form_ms", "ms"),
    ("dynamics.bands_ms", "ms"),
    ("dynamics.band_cells", "count"),
    ("dynamics.band_cells_exported_ratio", "ratio"),
    ("cli.exports.table_ms", "ms"),
    ("cli.exports.csv_ms", "ms"),
    ("cli.exports.json_ms", "ms"),
    ("cli.exports.svg_ms", "ms"),
    ("cli.exports.read_csv_ms", "ms"),
    ("cli.exports.rows", "count"),
    ("cli.exports.bytes_written", "bytes"),
    ("cli.exports.mb_per_s", "MB/s"),
    ("cli.presets.config_ms", "ms"),
    ("cli.presets.run_scenario_self_ms", "ms"),
    ("core.lc_ops", "count"),
    ("analytic.contour_integral_ms", "ms"),
    ("analytic.integrand_evals", "count"),
    ("analytic.ns_per_integrand_eval", "ns"),
    ("analytic.path_build_ms", "ms"),
    ("analytic.derivative_cr_ms", "ms"),
    ("analytic.mapping_ode_ms", "ms"),
    ("cli.expressions.eval_ms", "ms"),
    ("cli.expressions.eval_calls", "count"),
    ("cli.literals.parse_ms", "ms"),
    ("cli.literals.parse_calls", "count"),
    ("cli.main.self_ms", "ms"),
    ("bench.op_self_ms", "ms"),
    ("core.mul_ns", "ns"),
    ("core.div_ns", "ns"),
    ("analytic.exp_rfa_ns", "ns"),
    ("analytic.derivative_cr_us", "us"),
    ("dynamics.rk4_step_us", "us"),
    ("cli.expressions.eval_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_sum_ratio", "ratio"),
    ("check.max_rel_error", "ratio"),
    ("check.failed_ops_ratio", "ratio"),
)

# metric name -> span names whose self times it sums
_SELF_MS = {
    "dynamics.rk4_ms": ("dynamics.rk4",),
    "dynamics.simulate_self_ms": ("dynamics.simulate_system",),
    "dynamics.closed_form_ms": ("dynamics.closed_form",),
    "dynamics.bands_ms": ("dynamics.bands",),
    "cli.exports.table_ms": ("cli.exports.table",),
    "cli.exports.csv_ms": ("cli.exports.csv",),
    "cli.exports.json_ms": ("cli.exports.json",),
    "cli.exports.svg_ms": ("cli.exports.svg",),
    "cli.exports.read_csv_ms": ("cli.exports.read_csv",),
    "cli.presets.config_ms": ("cli.presets.config",),
    "cli.presets.run_scenario_self_ms": ("cli.presets.run_scenario",),
    "analytic.contour_integral_ms": ("analytic.contour_integral",),
    "analytic.path_build_ms": ("analytic.path_build",),
    "analytic.derivative_cr_ms": ("analytic.derivative_cr",),
    "analytic.mapping_ode_ms": ("analytic.mapping_ode",),
    "cli.expressions.eval_ms": ("cli.expressions.eval",),
    "cli.literals.parse_ms": ("cli.literals.parse",),
    "cli.main.self_ms": ("cli.main",),
    "bench.op_self_ms": (ROOT_SPAN,),
}

# (module attribute in the caller's namespace, span name)
_FUNCTION_SPANS = (
    ("presets", "run_scenario", "cli.presets.run_scenario"),
    ("presets", "preset_config", "cli.presets.config"),
    ("presets", "load_config", "cli.presets.config"),
    ("presets", "simulate_system", "dynamics.simulate_system"),
    ("presets", "trajectory_table", "cli.exports.table"),
    ("presets", "export_csv", "cli.exports.csv"),
    ("presets", "export_json", "cli.exports.json"),
    ("presets", "emit_svg", "cli.exports.svg"),
    ("presets", "parse_fuzzy_literal", "cli.literals.parse"),
    ("exports", "read_csv", "cli.exports.read_csv"),
    ("dynamics", "rk4_integrate", "dynamics.rk4"),
    ("dynamics", "solve_linear_analytic", "dynamics.closed_form"),
    ("dynamics", "solve_linear_psi_analytic", "dynamics.closed_form"),
    ("cli_main", "main", "cli.main"),
    ("cli_main", "parse_fuzzy_literal", "cli.literals.parse"),
    ("cli_main", "eval_expression", "cli.expressions.eval"),
    ("cli_main", "derivative_cr", "analytic.derivative_cr"),
    ("cli_main", "contour_integral", "analytic.contour_integral"),
    ("analytic", "contour_integral", "analytic.contour_integral"),
    ("analytic", "solve_linear_mapping_ode", "analytic.mapping_ode"),
)

# field factories that ``simulate_system`` calls; their fields get counted
_FIELD_FACTORIES = ("matrix_field", "realify_oscillator", "realify_lotka_volterra")

_LC_ARITHMETIC = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
)

# ROADMAP item 1's fig6 stages, largest first in the recorded baseline
FIG6_ORDER = ("simulate", "json", "csv", "svg", "table", "bands")


class _Ticks:
    """A counter whose increment is one C call, cheap enough for hot paths."""

    def __init__(self):
        self._count = itertools.count()
        self.tick = self._count.__next__
        self._reads = 0

    def value(self) -> int:
        # reading advances the underlying count by one; subtract earlier reads
        value = next(self._count) - self._reads
        self._reads += 1
        return value


class Tracer:
    """Span and counter recorder; ``install``/``uninstall`` patch rfa in place."""

    def __init__(self, rfa):
        self.rfa = rfa
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.op_labels: list[str] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._lc_ticks = _Ticks()
        self._field_ticks = _Ticks()
        self._integrand_ticks = _Ticks()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so every call records a span; ``after`` sees the result."""
        nid = self._name_id(name)
        start, end, parent, names, ops, stack = (
            self.start, self.end, self.parent, self.name, self.op, self._stack,
        )

        def wrapper(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            names.append(nid)
            ops.append(len(self.op_labels) - 1)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, label: str, fn):
        """Run one benchmark operation under a root span."""
        self.op_labels.append(label)
        return self.span(ROOT_SPAN, fn)()

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        rfa = self.rfa
        after = {
            "cli.exports.table": self._after_table,
            "cli.exports.csv": self._after_export,
            "cli.exports.json": self._after_export,
            "cli.exports.svg": self._after_export,
            "dynamics.rk4": self._after_rk4,
        }
        for module, attr, name in _FUNCTION_SPANS:
            owner = getattr(rfa, module)
            fn = owner.__dict__[attr]
            if name == "analytic.contour_integral":
                fn = self._counting_integrand(fn)
            self._patch(owner, attr, self.span(name, fn, after.get(name)))
        for attr in _FIELD_FACTORIES:
            self._patch(rfa.dynamics, attr, self._counting_field(rfa.dynamics.__dict__[attr]))
        trajectory = rfa.dynamics.Trajectory
        self._patch(
            trajectory,
            "attach_bands",
            self.span("dynamics.bands", trajectory.__dict__["attach_bands"], self._after_bands),
        )
        path = rfa.analytic.Path
        for attr in ("polyline", "segment"):
            fn = path.__dict__[attr].__func__
            self._patch(path, attr, classmethod(self.span("analytic.path_build", fn)))
        lc = rfa.core.LcNumber
        for attr in _LC_ARITHMETIC:
            self._patch(lc, attr, self._counted(lc.__dict__[attr], self._lc_ticks))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @staticmethod
    def _counted(fn, ticks):
        tick = ticks.tick

        def counted(*args):
            tick()
            return fn(*args)

        return counted

    def _counting_field(self, factory):
        ticks = self._field_ticks

        def make(*args, **kwargs):
            return self._counted(factory(*args, **kwargs), ticks)

        return make

    def _counting_integrand(self, contour_integral):
        ticks = self._integrand_ticks

        def counted_contour(f, *args, **kwargs):
            return contour_integral(self._counted(f, ticks), *args, **kwargs)

        return counted_contour

    def _after_table(self, table, args, kwargs):
        self.counts["rows"] += len(table.rows)
        band_cols = sum(len(pair) for var in table.band_columns.values() for pair in var.values())
        self.counts["band_cells_exported"] += len(table.rows) * band_cols

    def _after_export(self, result, args, kwargs):
        target = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["bytes_written"] += os.path.getsize(target)

    def _after_bands(self, traj, args, kwargs):
        self.counts["band_cells"] += sum(b.size for b in traj.bands.values())

    def _after_rk4(self, result, args, kwargs):
        self.counts["rk4_steps"] += len(result[0]) - 1

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "name": np.array(self.name, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), op_labels=np.array(self.op_labels), **self.arrays()
        )

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span (duration, self time) in seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return dur, dur - covered

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total duration, total self time, call count."""
        a = self.arrays()
        dur, self_t = self.self_times()
        n = len(self.names)
        total = np.bincount(a["name"], weights=dur, minlength=n)
        own = np.bincount(a["name"], weights=self_t, minlength=n)
        calls = np.bincount(a["name"], minlength=n)
        return (
            dict(zip(self.names, total.tolist())),
            dict(zip(self.names, own.tolist())),
            dict(zip(self.names, calls.tolist())),
        )

    def layer_metrics(self) -> dict:
        """Per-operation layer metrics over everything recorded so far."""
        n_ops = max(len(self.op_labels), 1)
        total, own, calls = self.totals()
        m = {}
        for metric, spans in _SELF_MS.items():
            m[metric] = 1e3 * sum(own.get(s, 0.0) for s in spans) / n_ops
        steps = self.counts["rk4_steps"]
        fields = self._field_ticks.value()
        integrands = self._integrand_ticks.value()
        band_cells = self.counts["band_cells"]
        export_s = sum(total.get(s, 0.0) for s in ("cli.exports.csv", "cli.exports.json", "cli.exports.svg"))
        contour_s = total.get("analytic.contour_integral", 0.0)
        m["dynamics.rk4_steps"] = steps / n_ops
        m["dynamics.field_evals"] = fields / n_ops
        m["dynamics.ns_per_rk4_step"] = 1e9 * total.get("dynamics.rk4", 0.0) / steps if steps else 0.0
        m["dynamics.band_cells"] = band_cells / n_ops
        m["dynamics.band_cells_exported_ratio"] = (
            self.counts["band_cells_exported"] / band_cells if band_cells else 0.0
        )
        m["cli.exports.rows"] = self.counts["rows"] / n_ops
        m["cli.exports.bytes_written"] = self.counts["bytes_written"] / n_ops
        m["cli.exports.mb_per_s"] = self.counts["bytes_written"] / 1e6 / export_s if export_s else 0.0
        m["core.lc_ops"] = self._lc_ticks.value() / n_ops
        m["analytic.integrand_evals"] = integrands / n_ops
        m["analytic.ns_per_integrand_eval"] = 1e9 * contour_s / integrands if integrands else 0.0
        m["cli.expressions.eval_calls"] = calls.get("cli.expressions.eval", 0) / n_ops
        m["cli.literals.parse_calls"] = calls.get("cli.literals.parse", 0) / n_ops
        return m

    def fig6_split(self) -> dict | None:
        """Mean per-stage milliseconds of the traced fig6 operations."""
        fig6 = [i for i, label in enumerate(self.op_labels) if label == "fig6"]
        if not fig6:
            return None
        a = self.arrays()
        dur, _ = self.self_times()
        in_fig6 = np.isin(a["op"], fig6)
        ids = {name: i for i, name in enumerate(self.names)}

        def ms(span):
            if span not in ids:
                return 0.0
            return 1e3 * float(dur[in_fig6 & (a["name"] == ids[span])].sum()) / len(fig6)

        split = {
            "simulate": ms("dynamics.simulate_system") - ms("dynamics.bands"),
            "bands": ms("dynamics.bands"),
            "table": ms("cli.exports.table"),
            "csv": ms("cli.exports.csv"),
            "json": ms("cli.exports.json"),
            "svg": ms("cli.exports.svg"),
        }
        order = tuple(sorted(split, key=split.get, reverse=True))
        return {"ms": split, "order": order, "matches_roadmap_order": order == FIG6_ORDER}


# ---------------------------------------------------------------------------
# micro set


def _per_call(stmt: str, env: dict, number: int, repeat: int = 7) -> float:
    """Median seconds per call of ``stmt`` over ``repeat`` timed batches."""
    timer = timeit.Timer(stmt, globals=env)
    return statistics.median(timer.repeat(repeat=repeat, number=number)) / number


def micro(rfa) -> dict:
    """The ROADMAP micro set, run untraced."""
    lc = rfa.core.LcNumber
    osc = rfa.dynamics.OscillatorParams(lc(1.0, 0.1), lc(0.5, -0.2))
    env = {
        "a": lc(1.25, -0.5),
        "b": lc(0.75, 0.3),
        "exp_rfa": rfa.analytic.exp_rfa,
        "derivative_cr": rfa.analytic.derivative_cr,
        "rk4_integrate": rfa.dynamics.rk4_integrate,
        "field": rfa.dynamics.realify_oscillator(osc),
        "s0": (1.0, 0.5, 0.1, -0.2),
        "eval_expression": rfa.expressions.eval_expression,
        "bind": {"z": lc(0.5, 0.25)},
    }
    return {
        "core.mul_ns": 1e9 * _per_call("a * b", env, 20000),
        "core.div_ns": 1e9 * _per_call("a / b", env, 20000),
        "analytic.exp_rfa_ns": 1e9 * _per_call("exp_rfa(a)", env, 20000),
        "analytic.derivative_cr_us": 1e6 * _per_call("derivative_cr(exp_rfa, a)", env, 2000),
        "dynamics.rk4_step_us": 1e6 * _per_call("rk4_integrate(field, s0, (0.0, 1e-3), 1e-3)", env, 2000),
        "cli.expressions.eval_us": 1e6 * _per_call("eval_expression('exp(z^2 + z) * (1 + 2*A)', bind)", env, 500),
    }
