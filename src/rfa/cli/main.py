"""Command-line front end.

Subcommands: ``eval``, ``derive``, ``integrate``, ``solve``, ``preset`` and
``phase``.  Exit codes: 0 on success, 2 for parse or configuration errors,
3 for numeric failures (division by zero, log of zero, integration aborts,
overflow, a non-finite result), 4 for I/O failures.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import replace

from ..analytic import Path, contour_integral, derivative_cr
from ..core import BasisNumber, LcNumber, LcSpace
from ..dynamics import PROJECTIONS, SYSTEMS, system_record
from .expressions import ExprError, calls_psi_mul, eval_expression, eval_expression_batch
from .literals import parse_fuzzy_literal, print_literal
from .presets import ConfigError, load_config, preset_config, run_scenario

__all__ = ["main"]

# the most path samples `integrate` builds: a larger count would only
# surface as a MemoryError while the path is sampled
MAX_SAMPLES = 10**6


def _parse_bindings(pairs):
    env = {}
    for pair in pairs or ():
        name, sep, literal = pair.partition("=")
        name = name.strip()
        if not sep or not re.fullmatch(r"[A-Za-z_]\w*", name):
            raise ConfigError(f"bindings must look like name=literal, got {pair!r}")
        value = parse_fuzzy_literal(literal)
        if not isinstance(value, LcNumber):
            raise ConfigError(f"binding {name!r} must be an element literal")
        env[name] = value
    return env


def _resolve_a1(basis_text, expr):
    """The basis's point 1-level where ``expr`` calls ``psi_mul``, the one reader of ``a1``."""
    if basis_text is None:
        return 0.0
    basis = parse_fuzzy_literal(basis_text)
    if not isinstance(basis, BasisNumber):
        raise ConfigError("--basis must be a tri(...) or trap(...) literal")
    reads_a1 = calls_psi_mul(expr)
    try:
        LcSpace(basis)
        return basis.one_level_value() if reads_a1 else 0.0
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _mapping(args):
    """``z -> args.expr`` under ``--bind`` and ``--basis``; ``batch`` takes many samples at once."""
    env = _parse_bindings(args.bind)
    a1 = _resolve_a1(args.basis, args.expr)

    def mapping(z):
        return eval_expression(args.expr, {**env, "z": z}, a1=a1)

    mapping.batch = lambda z: eval_expression_batch(args.expr, {**env, "z": z}, a1=a1)
    return mapping


def _formats(text):
    if text is None:
        return None
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _above(convert, low, budget=math.inf):
    """An argparse type: ``convert(text)``, finite, above ``low`` and at most ``budget``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if value > budget:
            raise argparse.ArgumentTypeError(f"must be at most the budget of {budget}, got {text!r}")
        if low < value < math.inf:
            return value
        raise argparse.ArgumentTypeError(f"must be a finite {convert.__name__} above {low}, got {text!r}")

    return parse


def _finite(value: LcNumber) -> LcNumber:
    """``value`` itself; an overflowed or undefined result is a numeric failure."""
    if not (math.isfinite(value.re) and math.isfinite(value.fu)):
        raise ArithmeticError(f"result is not finite: {print_literal(value)}")
    return value


def _cmd_eval(args) -> int:
    env = _parse_bindings(args.bind)
    result = eval_expression(args.expr, env, a1=_resolve_a1(args.basis, args.expr))
    print(print_literal(_finite(result)))
    return 0


def _cmd_derive(args) -> int:
    mapping = _mapping(args)
    at = parse_fuzzy_literal(args.at)
    if not isinstance(at, LcNumber):
        raise ConfigError("--at must be an element literal")
    report = derivative_cr(mapping, at, h=args.step)
    derivative = _finite(report.derivative)
    residuals = {"cr_residual1": report.residual1, "cr_residual2": report.residual2}
    for name, value in residuals.items():
        if not math.isfinite(value):
            raise ArithmeticError(f"{name} is not finite: {value}")
    print(f"derivative = {print_literal(derivative)}")
    for name, value in residuals.items():
        print(f"{name} = {value:.6e}")
    return 0


def _cmd_integrate(args) -> int:
    mapping = _mapping(args)
    vertices = []
    for part in args.path.split(","):
        vertex = parse_fuzzy_literal(part)
        if not isinstance(vertex, LcNumber):
            raise ConfigError("path vertices must be element literals")
        vertices.append(vertex)
    if len(vertices) < 2:
        raise ConfigError("an integration path needs at least two vertices")
    path = Path.polyline(vertices, samples=args.samples)
    print(print_literal(_finite(contour_integral(mapping, path, scheme=args.scheme))))
    return 0


def _run_and_report(scenario, args) -> int:
    _, written = run_scenario(scenario, out_dir=args.out_dir, formats=_formats(args.formats))
    for target in written:
        print(target)
    return 0


def _cmd_solve(args) -> int:
    scenario = load_config(args.config)
    wanted = system_record(args.system).name
    if scenario.system != wanted:
        raise ConfigError(f"config declares system {scenario.system!r} but the command asked for {wanted!r}")
    return _run_and_report(scenario, args)


def _cmd_preset(args) -> int:
    return _run_and_report(preset_config(args.fig), args)


def _cmd_phase(args) -> int:
    if (args.preset is None) == (args.config is None):
        raise ConfigError("phase needs exactly one of --preset or --config")
    plot = f"phase:{args.projection}"
    scenario = preset_config(args.preset, plot=plot) if args.preset is not None else load_config(args.config, plot=plot)
    return _run_and_report(replace(scenario, name=f"{scenario.name}-phase"), args)


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with ``-`` but is none of its options as a value."""

    def _parse_optional(self, arg_string):
        parsed = super()._parse_optional(arg_string)
        # one (action, ...) tuple, or a list of them from Python 3.12.3 on
        first = parsed[0] if isinstance(parsed, list) else parsed
        return None if first is not None and first[0] is None else parsed


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rfa",
        description="calculus and dynamics on linearly correlated fuzzy numbers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_expr_options(p):
        p.add_argument("--basis", help="basis literal, e.g. 'tri(-0.5;0;0.51)'")
        p.add_argument(
            "--bind",
            action="append",
            metavar="NAME=LITERAL",
            help="bind a variable (repeatable)",
        )

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("expr")
    add_expr_options(p_eval)
    p_eval.set_defaults(handler=_cmd_eval)

    p_derive = sub.add_parser("derive", help="finite-difference derivative of an expression in z")
    p_derive.add_argument("expr")
    p_derive.add_argument("--at", required=True, help="element literal to differentiate at")
    p_derive.add_argument("--step", type=_above(float, 0.0), default=1e-5)
    add_expr_options(p_derive)
    p_derive.set_defaults(handler=_cmd_derive)

    p_int = sub.add_parser("integrate", help="contour integral of an expression in z")
    p_int.add_argument("expr")
    p_int.add_argument("--path", required=True, help="comma-separated element literals")
    p_int.add_argument("--samples", type=_above(int, 1, MAX_SAMPLES), default=10001)
    p_int.add_argument("--scheme", choices=("trapezoid", "simpson"), default="trapezoid")
    add_expr_options(p_int)
    p_int.set_defaults(handler=_cmd_integrate)

    def add_output_options(p):
        p.add_argument("--out-dir", help="output directory (default $RFA_OUT_DIR or ./rfa_out)")
        p.add_argument("--formats", help="comma-separated subset of csv,json,svg")

    p_solve = sub.add_parser("solve", help="run a configured scenario")
    p_solve.add_argument(
        "system", choices=[name for record in SYSTEMS.values() for name in (record.name, *record.aliases)]
    )
    p_solve.add_argument("--config", required=True)
    add_output_options(p_solve)
    p_solve.set_defaults(handler=_cmd_solve)

    p_preset = sub.add_parser("preset", help="run a built-in figure preset (fig2..fig16)")
    p_preset.add_argument("fig")
    add_output_options(p_preset)
    p_preset.set_defaults(handler=_cmd_preset)

    p_phase = sub.add_parser("phase", help="phase portrait of a preset or configured run")
    p_phase.add_argument("--preset")
    p_phase.add_argument("--config")
    p_phase.add_argument("--projection", required=True, choices=PROJECTIONS)
    add_output_options(p_phase)
    p_phase.set_defaults(handler=_cmd_phase)

    return parser


# built once per process: the grammar does not depend on argv, and argparse
# keeps no state from one parse to the next
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except (ExprError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
