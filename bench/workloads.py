"""Seeded inputs, operations and output checks for the rfa benchmark.

A workload is a list of *units*; a unit is one or more operations that run
back to back (a full-resolution CSV write is followed by its read-back).
Every round of the closed loop shuffles the units with the workload's
random generator and runs them all, so each round has the same mix.

Each operation has a ``check`` that returns the operation's relative error
against a reference computed here, with numpy or ``complex``, never through
the library functions under test.  A check raises ``CheckError`` when an
output is malformed; the runner also fails an operation whose error exceeds
its tolerance.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import importlib
import io
import json
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

WORKLOADS = ("presets", "calculus")

# Largest relative error an operation may show against its reference, by
# kind of operation.
TOLERANCE = {
    # RK4 at dt = 1e-3: invariant and first-integral drift sit near 1e-13.
    "rk4": 1e-9,
    # Closed forms agree with numpy's complex exp to a few ulp; CSV
    # read-backs must be exact.
    "closed": 1e-12,
    # Trapezoid error on the longest seeded paths reaches 1e-5 in the worst
    # case (2.4e-7 seen over 30 seeds); derive, eval and Simpson sit far lower.
    "calculus": 1e-4,
}

FULL_ALPHAS = tuple(i / 50 for i in range(51))
DEFAULT_ROWS = 2001


class CheckError(Exception):
    """An operation's output is malformed or disagrees with its reference."""


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], float]
    tolerance: float


@dataclass
class Workload:
    name: str
    units: list[list[Op]]
    min_rounds: int

    @property
    def tolerances(self) -> list[float]:
        return sorted({op.tolerance for op in self.ops})

    @property
    def ops(self) -> list[Op]:
        return [op for unit in self.units for op in unit]


def load_program(root: Path) -> SimpleNamespace:
    """Import rfa from ``root/src`` and return the modules the workloads call."""
    src = Path(root) / "src"
    if not (src / "rfa" / "__init__.py").is_file():
        raise FileNotFoundError(f"no rfa package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import rfa

    if Path(rfa.__file__).resolve().parent != (src / "rfa").resolve():
        raise ImportError(f"rfa was imported from {rfa.__file__}, not from {src}")
    # rfa.cli re-exports the function ``main`` over its submodule's name,
    # so the submodules are fetched from the import system.
    mod = importlib.import_module
    return SimpleNamespace(
        core=mod("rfa.core"),
        analytic=mod("rfa.analytic"),
        dynamics=mod("rfa.dynamics"),
        presets=mod("rfa.cli.presets"),
        exports=mod("rfa.cli.exports"),
        expressions=mod("rfa.cli.expressions"),
        literals=mod("rfa.cli.literals"),
        cli_main=mod("rfa.cli.main"),
    )


def build(name: str, seed: int, rfa: SimpleNamespace, out_dir: Path) -> Workload:
    """Generate the workload's inputs from ``seed``; nothing runs yet."""
    rng = random.Random(f"{name}:{seed}")
    out_dir = Path(out_dir)
    # Minimum rounds: with two, the tail of ``presets`` (ten samples beyond
    # it) falls among the RK4 presets; with four, that of ``calculus`` falls
    # among the Simpson integrals.
    if name == "presets":
        return Workload(name, _presets_rk4(rfa, rng, out_dir) + _closed_export(rfa, rng, out_dir), 2)
    if name == "calculus":
        return Workload(name, _calculus(rfa, rng, out_dir), 4)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")


def probe(name: str, seed: int, root: str, kernels: int) -> None:
    """Set-up probe run in a fresh interpreter: import, build, report.

    After reporting it runs the reference kernel ``kernels`` times and
    prints their wall times, which gauge the speed the set-up ran at.
    """
    build(name, seed, load_program(Path(root)), Path(root) / ".bench_out" / "probe")
    print("ready", flush=True)
    import calibrate

    print(json.dumps(calibrate.samples(kernels)), flush=True)


# ---------------------------------------------------------------------------
# literals and references


def lit(z: complex) -> str:
    """Element literal ``r + q*A`` of a complex pair, digits kept exactly."""
    re_, fu = float(z.real), float(z.imag)
    if fu < 0.0:
        return f"{re_!r} - {-fu!r}*A"
    return f"{re_!r} + {fu!r}*A"


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return round(value * (1.0 + rng.uniform(-rel, rel)), 6)


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _cplx(rng: random.Random, re_range, fu_range) -> complex:
    return complex(_uniform(rng, *re_range), _uniform(rng, *fu_range))


_PRINTED = re.compile(r"(\S+)(?: ([+-]) (\S+)\*A)?")


def parse_printed(text: str) -> complex:
    """Read back a printed element without the library's literal parser."""
    m = _PRINTED.fullmatch(text.strip())
    if m is None:
        raise CheckError(f"unreadable element {text!r}")
    fu = float(m.group(3)) if m.group(3) else 0.0
    return complex(float(m.group(1)), -fu if m.group(2) == "-" else fu)


def rel_error(got: complex, ref: complex) -> float:
    """Error relative to the reference's modulus, absolute below modulus 1."""
    return abs(got - ref) / max(abs(ref), 1.0)


def oscillator_drift(x: np.ndarray, y: np.ndarray, c1: complex, c2: complex) -> float:
    """Relative drift of ``c2*x^2 + c1*y^2``, conserved by x' = -c1 y, y' = c2 x."""
    inv = c2 * x * x + c1 * y * y
    return float(np.max(np.abs(inv - inv[0])) / abs(inv[0]))


def lv_drift(x: np.ndarray, y: np.ndarray, p: dict) -> float:
    """Relative drift of ``alpha ln y - a y + beta ln x - b x`` (principal logs)."""
    for name, z in (("x", x), ("y", y)):
        if not np.all((z.real > 0.0) & (np.abs(z.imag) < z.real)):
            raise CheckError(f"population {name} left the first integral's certified region")
    h = p["alpha"] * np.log(y) - p["a"] * y + p["beta"] * np.log(x) - p["b"] * x
    return float(np.max(np.abs(h - h[0])) / abs(h[0]))


def linear_flow(t: np.ndarray, lam: complex, w0: complex) -> np.ndarray:
    """``w0 * e^(lambda t)`` under the field product."""
    return w0 * np.exp(lam * t)


def psi_flow(t: np.ndarray, lam: complex, w0: complex) -> np.ndarray:
    """Cross-product flow for a basis whose 1-level is 0: secular form."""
    growth = np.exp(lam.real * t)
    return w0.real * growth + 1j * (w0.imag + w0.real * t) * growth


def flow_error(w: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(w - ref) / np.abs(ref)))


# ---------------------------------------------------------------------------
# scenario outputs


def _table_array(table) -> np.ndarray:
    data = np.array(table.rows, dtype=float)
    if data.ndim != 2 or data.shape[1] != len(table.columns):
        raise CheckError(f"table shape {data.shape} does not match {len(table.columns)} columns")
    return data


def _bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _element(table, data: np.ndarray, var: str) -> np.ndarray:
    return data[:, table.columns.index(f"{var}_re")] + 1j * data[:, table.columns.index(f"{var}_fu")]


def _check_bands(table, data: np.ndarray, variables) -> None:
    """Bands nest as alpha grows and, with the basis 1-level at 0, collapse to ``re`` at alpha 1."""
    alphas = list(table.alphas)
    if alphas != sorted(alphas) or not alphas:
        raise CheckError(f"alpha grid {alphas} is not ascending")
    for var in variables:
        keys = table.band_columns[var]
        cols = [[table.columns.index(c) for c in keys[f"{alpha:g}"]] for alpha in alphas]
        lo = data[:, [c[0] for c in cols]]
        hi = data[:, [c[1] for c in cols]]
        if np.any(lo > hi):
            raise CheckError(f"{var}: a band has lower end above upper end")
        if np.any(np.diff(lo, axis=1) < 0.0) or np.any(np.diff(hi, axis=1) > 0.0):
            raise CheckError(f"{var}: bands do not nest across alpha")
        point = data[:, table.columns.index(f"{var}_re")]
        if alphas[-1] == 1.0 and not (np.array_equal(lo[:, -1], point) and np.array_equal(hi[:, -1], point)):
            raise CheckError(f"{var}: the 1-level band does not collapse to the point re")


def _check_grid(table, data: np.ndarray, t_span, rows: int) -> None:
    if data.shape[0] != rows:
        raise CheckError(f"expected {rows} rows, got {data.shape[0]}")
    t = data[:, 0]
    if t[0] != t_span[0] or t[-1] != t_span[1] or np.any(np.diff(t) <= 0.0):
        raise CheckError("time column does not run increasing from t0 to t1")


def _read_csv_independently(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = np.array([[float(v) for v in row] for row in reader], dtype=float)
    return header, body


def _check_files(table, data: np.ndarray, written, svg_lines: int) -> None:
    kinds = {Path(p).suffix: Path(p) for p in written}
    if ".csv" in kinds:
        header, body = _read_csv_independently(kinds[".csv"])
        if header != table.columns or not _bit_equal(body, data):
            raise CheckError("CSV does not read back bit-exactly")
    if ".json" in kinds:
        with open(kinds[".json"]) as fh:
            payload = json.load(fh)
        if payload["columns"] != table.columns or payload["bands"] != table.band_columns:
            raise CheckError("JSON header disagrees with the table")
        if not _bit_equal(np.array(payload["rows"], dtype=float), data):
            raise CheckError("JSON rows do not read back bit-exactly")
    if ".svg" in kinds:
        text = kinds[".svg"].read_text()
        if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
            raise CheckError("SVG is not a closed <svg> document")
        if text.count("<polyline") != svg_lines:
            raise CheckError(f"SVG has {text.count('<polyline')} polylines, expected {svg_lines}")


def _svg_lines(plot: str, n_vars: int, n_alphas: int) -> int:
    if plot == "components":
        return 2 * n_vars
    return 2 * n_alphas + 1


def _scenario_check(reference, variables, t_span, rows, svg_lines, keep=None):
    """Check a ``run_scenario`` result: grid, bands, files, then the reference.

    With ``keep`` the table is handed to the read-back operation that
    follows, which checks the CSV, instead of parsing it here.
    """

    def check(out):
        table, written = out
        data = _table_array(table)
        _check_grid(table, data, t_span, rows)
        _check_bands(table, data, variables)
        if keep is None:
            _check_files(table, data, written, svg_lines)
        else:
            keep["columns"], keep["data"] = table.columns, data
        return reference(table, data)

    return check


# ---------------------------------------------------------------------------
# presets, integrating: fig6-fig16 at 50001 RK4 steps


_OSC_FIGS = ("fig6", "fig7", "fig8", "fig9", "fig10")
_LV_FIGS = ("fig11", "fig12", "fig13", "fig14", "fig15")
_FORMATS = ("csv", "json", "svg")


def _lv_draw(rng: random.Random) -> dict:
    """Predator-prey rates and state around the fig11-fig15 preset."""
    return {
        "alpha": complex(_jitter(rng, 0.25, 0.1), _jitter(rng, 0.001, 0.5)),
        "beta": complex(_jitter(rng, 0.18, 0.1), _jitter(rng, 0.003, 0.5)),
        "a": complex(_jitter(rng, 0.01, 0.1), 0.0),
        "b": complex(_jitter(rng, 0.007, 0.1), 0.0),
        "x": complex(_jitter(rng, 100.0, 0.1), _jitter(rng, 5.0, 0.5)),
        "y": complex(_jitter(rng, 30.0, 0.1), _jitter(rng, 2.0, 0.5)),
    }


def _scenario_op(rfa, fig, overrides, out_dir, formats, check, tolerance) -> Op:
    def run():
        cfg = rfa.presets.preset_config(fig, **overrides)
        return rfa.presets.run_scenario(cfg, out_dir=out_dir, formats=formats)

    return Op(fig, run, check, tolerance)


def _presets_rk4(rfa, rng, out_dir) -> list[list[Op]]:
    units = []
    t_span = (0.0, 50.0)
    n_alphas = 11
    def plain_oscillator(table, data):
        return oscillator_drift(_element(table, data, "x"), _element(table, data, "y"), 1.0, 1.0)

    for fig in _OSC_FIGS:
        x0 = complex(_jitter(rng, 100.0, 0.1), _jitter(rng, 2.0, 0.5))
        y0 = complex(_jitter(rng, 100.0, 0.1), _jitter(rng, 2.0, 0.5))
        plot = rfa.presets.PRESETS[fig].plot.partition(":")[0]
        check = _scenario_check(
            plain_oscillator, ("x", "y"), t_span, DEFAULT_ROWS, _svg_lines(plot, 2, n_alphas)
        )
        overrides = {"initial": {"x": lit(x0), "y": lit(y0)}}
        units.append([_scenario_op(rfa, fig, overrides, out_dir, _FORMATS, check, TOLERANCE["rk4"])])
    for fig in _LV_FIGS:
        p = _lv_draw(rng)
        plot = rfa.presets.PRESETS[fig].plot.partition(":")[0]

        def reference(table, data, p=p):
            return lv_drift(_element(table, data, "x"), _element(table, data, "y"), p)

        check = _scenario_check(
            reference, ("x", "y"), t_span, DEFAULT_ROWS, _svg_lines(plot, 2, n_alphas)
        )
        overrides = {
            "params": {k: lit(p[k]) for k in ("alpha", "beta", "a", "b")},
            "initial": {"x": lit(p["x"]), "y": lit(p["y"])},
        }
        units.append([_scenario_op(rfa, fig, overrides, out_dir, _FORMATS, check, TOLERANCE["rk4"])])
    # fig16: the predator-prey linearisation, derived here in complex arithmetic.
    p = _lv_draw(rng)
    c1 = p["a"] * p["beta"] / p["b"]
    c2 = p["b"] * p["alpha"] / p["a"]
    x0 = p["x"] - p["beta"] / p["b"]
    y0 = p["y"] - p["alpha"] / p["a"]

    def reference(table, data):
        return oscillator_drift(_element(table, data, "x"), _element(table, data, "y"), c1, c2)

    check = _scenario_check(reference, ("x", "y"), t_span, DEFAULT_ROWS, _svg_lines("phase", 2, n_alphas))
    overrides = {
        "params": {"c1": lit(c1), "c2": lit(c2)},
        "initial": {"x": lit(x0), "y": lit(y0)},
    }
    units.append([_scenario_op(rfa, "fig16", overrides, out_dir, _FORMATS, check, TOLERANCE["rk4"])])
    return units


# ---------------------------------------------------------------------------
# presets, closed form: fig2-fig5 plus full-resolution CSV round trips


_LINEAR_FIGS = (
    ("fig2", "linear", (-0.5, 0.8)),
    ("fig3", "linear_psi", (-0.5, 0.8)),
    ("fig4", "linear", (0.5, 1.0)),
    ("fig5", "linear_psi", (0.5, 1.0)),
)


def _closed_export(rfa, rng, out_dir) -> list[list[Op]]:
    units = []
    t_span = (0.0, 10.0)
    full_rows = 10001
    for fig, system, (l_re, l_fu) in _LINEAR_FIGS:
        # keep the basis asymmetric with its 1-level at 0
        lo = -_jitter(rng, 0.5, 0.1)
        basis = f"tri({lo!r};0.0;{round(-lo + rng.uniform(0.005, 0.02), 6)!r})"
        lam = complex(_jitter(rng, l_re, 0.1), _jitter(rng, l_fu, 0.1))
        w0 = complex(_jitter(rng, 2.0, 0.1), _jitter(rng, 2.0, 0.1))
        flow = linear_flow if system == "linear" else psi_flow
        plot = rfa.presets.PRESETS[fig].plot

        def reference(table, data, flow=flow, lam=lam, w0=w0):
            return flow_error(_element(table, data, "w"), flow(data[:, 0], lam, w0))

        params, initial = {"lambda": lit(lam)}, {"w": lit(w0)}
        check = _scenario_check(
            reference, ("w",), t_span, DEFAULT_ROWS, _svg_lines(plot, 1, 11)
        )
        overrides = {"basis": basis, "params": params, "initial": initial}
        units.append([_scenario_op(rfa, fig, overrides, out_dir, _FORMATS, check, TOLERANCE["closed"])])

        raw = {
            "system": system,
            "basis": basis,
            "params": params,
            "initial": initial,
            "t_span": list(t_span),
            "dt": 1e-3,
            "alphas": list(FULL_ALPHAS),
            "stride": 1,
            "formats": ["csv"],
            "name": f"{fig}-full",
            "plot": plot,
        }
        written_table: dict = {}
        units.append(
            [
                _full_write_op(rfa, fig, raw, out_dir, reference, t_span, full_rows, written_table),
                _full_read_op(rfa, fig, out_dir / f"{fig}-full.csv", written_table),
            ]
        )
    return units


def _full_write_op(rfa, fig, raw, out_dir, reference, t_span, rows, keep) -> Op:
    def run():
        cfg = rfa.presets.load_config(dict(raw))
        return rfa.presets.run_scenario(cfg, out_dir=out_dir)

    check = _scenario_check(reference, ("w",), t_span, rows, 0, keep=keep)
    return Op(f"{fig}-full-write", run, check, TOLERANCE["closed"])


def _full_read_op(rfa, fig, path: Path, keep: dict) -> Op:
    def run():
        return rfa.exports.read_csv(path)

    def check(table):
        if "data" not in keep:
            raise CheckError("no written table to compare the read-back with")
        columns, data = keep.pop("columns"), keep.pop("data")
        if table.columns != columns or not _bit_equal(_table_array(table), data):
            raise CheckError("read_csv does not reproduce the written table bit-exactly")
        return 0.0

    return Op(f"{fig}-full-read", run, check, TOLERANCE["closed"])


# ---------------------------------------------------------------------------
# calculus: in-process CLI calls plus the mapping-valued ODE


def _coeff(z: complex) -> str:
    return f"({lit(z)})"


class Poly:
    """``c0 + c1 z + c2 z^2`` with seeded fuzzy coefficients bound on the command line."""

    def __init__(self, rng):
        self.cs = [_cplx(rng, (-1.5, 1.5), (-1.0, 1.0)) for _ in range(3)]

    def text(self) -> str:
        return "c2*z^2 + c1*z + c0"

    def bindings(self) -> list[str]:
        return [arg for k, c in enumerate(self.cs) for arg in ("--bind", f"c{k}={lit(c)}")]

    def antiderivative(self, z: complex) -> complex:
        return sum(c * z ** (k + 1) / (k + 1) for k, c in enumerate(self.cs))

    def derivative(self, z: complex) -> complex:
        return sum(k * c * z ** (k - 1) for k, c in enumerate(self.cs) if k)


class Exp:
    """``k * exp(c z)`` with seeded fuzzy ``k`` and ``c`` bound on the command line."""

    def __init__(self, rng):
        self.k = _cplx(rng, (0.5, 1.5), (-1.0, 1.0))
        self.c = _cplx(rng, (0.5, 1.2), (-0.6, 0.6))

    def text(self) -> str:
        return "k*exp(c*z)"

    def bindings(self) -> list[str]:
        return ["--bind", f"k={lit(self.k)}", "--bind", f"c={lit(self.c)}"]

    def antiderivative(self, z: complex) -> complex:
        return self.k / self.c * cmath.exp(self.c * z)

    def derivative(self, z: complex) -> complex:
        return self.k * self.c * cmath.exp(self.c * z)


# Cheapest first within each scheme.  The median lands among the trapezoid
# exp integrals and the tail among the Simpson polynomials, whatever the
# number of rounds.
_INTEGRATE_SLOTS = (
    ("trapezoid", Exp, 2),
    ("trapezoid", Exp, 3),
    ("trapezoid", Poly, 2),
    ("trapezoid", Poly, 4),
    ("simpson", Poly, 2),
    ("simpson", Poly, 3),
    ("simpson", Poly, 4),
)
_DERIVE_SLOTS = (Poly, Exp)
# (template, reference): each {} takes one seeded coefficient in parentheses
_EVAL_SLOTS = (
    ("{}*{} - {}/{}", lambda a, b, c, d: a * b - c / d),
    ("exp({})*{}^3 + log({})", lambda a, b, c: cmath.exp(a) * b**3 + cmath.log(c)),
    ("sqrt({})*conj({}) + {}^2/{}", lambda a, b, c, d: cmath.sqrt(a) * b.conjugate() + c**2 / d),
)
SAMPLES = 10001


def _cli_op(rfa, label, argv, reference) -> Op:
    """Call ``rfa.cli.main.main`` in process with stdout captured."""

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = rfa.cli_main.main(argv)
        return code, buf.getvalue()

    def check(out):
        code, text = out
        if code != 0:
            raise CheckError(f"exit code {code}")
        return reference(text.splitlines())

    return Op(label, run, check, TOLERANCE["calculus"])


def _line(lines, prefix: str) -> str:
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise CheckError(f"no line starting with {prefix!r}")


def _printed(lines, prefix: str) -> complex:
    return parse_printed(_line(lines, prefix))


def eval_reference(fn, values) -> complex:
    return fn(*values)


def mapping_ode_reference(b, c, z0, w0, z) -> complex:
    """``w' + b w = c`` with ``w(z0) = w0``, solved in closed form."""
    decay = cmath.exp(-b * (z - z0))
    return w0 * decay + c / b * (1.0 - decay)


def _calculus(rfa, rng, out_dir) -> list[list[Op]]:
    units = []
    for scheme, kind, n_vertices in _INTEGRATE_SLOTS:
        fn = kind(rng)
        vertices = [_cplx(rng, (-1.5, 1.5), (-1.0, 1.0)) for _ in range(n_vertices)]
        argv = [
            "integrate",
            fn.text(),
            "--path",
            ", ".join(lit(v) for v in vertices),
            "--samples",
            str(SAMPLES),
            "--scheme",
            scheme,
            *fn.bindings(),
        ]

        def reference(lines, fn=fn, vertices=vertices):
            ref = fn.antiderivative(vertices[-1]) - fn.antiderivative(vertices[0])
            return rel_error(_printed(lines, ""), ref)

        label = f"integrate-{scheme}-{kind.__name__.lower()}-{n_vertices}v"
        units.append([_cli_op(rfa, label, argv, reference)])
    for kind in _DERIVE_SLOTS:
        fn = kind(rng)
        at = _cplx(rng, (-1.0, 1.0), (-1.0, 1.0))

        def reference(lines, fn=fn, at=at):
            ref = fn.derivative(at)
            residuals = [float(_line(lines, f"cr_residual{i} = ")) for i in (1, 2)]
            if max(residuals) > TOLERANCE["calculus"] * max(abs(ref), 1.0):
                raise CheckError(f"Cauchy-Riemann residuals {residuals} are too large")
            return rel_error(_printed(lines, "derivative = "), ref)

        argv = ["derive", fn.text(), "--at", lit(at), *fn.bindings()]
        units.append([_cli_op(rfa, f"derive-{kind.__name__.lower()}", argv, reference)])
    for i, (template, fn) in enumerate(_EVAL_SLOTS):
        values = [_cplx(rng, (0.5, 2.0), (-1.0, 1.0)) for _ in range(template.count("{}"))]
        text = template.format(*(_coeff(v) for v in values))

        def reference(lines, fn=fn, values=values):
            return rel_error(_printed(lines, ""), eval_reference(fn, values))

        units.append([_cli_op(rfa, f"eval-{i}", ["eval", text], reference)])
    units.append([_mapping_ode_op(rfa, rng)])
    return units


def _mapping_ode_op(rfa, rng) -> Op:
    b = _cplx(rng, (0.3, 0.8), (-0.5, 0.5))
    c = _cplx(rng, (-1.0, 1.0), (-1.0, 1.0))
    z0 = _cplx(rng, (-0.5, 0.5), (-0.5, 0.5))
    w0 = _cplx(rng, (0.5, 1.5), (-1.0, 1.0))
    z = z0 + _cplx(rng, (0.5, 1.5), (-0.5, 0.5))
    lc = rfa.core.LcNumber
    args = [lc(v.real, v.imag) for v in (b, c, z0, w0, z)]
    c_lc = args[1]

    def run():
        return rfa.analytic.solve_linear_mapping_ode(
            args[0], lambda zeta: c_lc, args[2], args[3], args[4], SAMPLES
        )

    def check(out):
        return rel_error(complex(out.re, out.fu), mapping_ode_reference(b, c, z0, w0, z))

    return Op("mapping-ode", run, check, TOLERANCE["calculus"])
