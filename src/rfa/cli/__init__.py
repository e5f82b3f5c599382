"""Literal parsing, expression evaluation, exports and the command line."""

from .expressions import ExprError, UnboundVariableError, eval_expression
from .exports import ExportTable, emit_svg, export_csv, export_json, read_csv, trajectory_table
from .literals import LiteralError, parse_fuzzy_literal, print_literal
from .presets import PRESETS, ConfigError, Scenario, load_config, preset_config, run_scenario
