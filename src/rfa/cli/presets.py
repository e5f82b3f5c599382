"""Scenarios: configs parsed once, scenarios that check themselves, runs, presets.

A scenario's text (literals for the basis, rates and initial data, plus
plain numbers and names) lives in a JSON file or a dict.  ``load_config``
refuses unknown and missing entries and parses the literals once, into a
frozen ``Scenario`` of typed values, which checks every value itself: made
by ``load_config``, directly or with ``dataclasses.replace``.
``run_scenario`` parses nothing: it simulates, attaches alpha-level bands
and writes the requested CSV/JSON/SVG outputs.

Presets ``fig2`` through ``fig16`` reproduce the library's reference
figures: fig2-fig5 the decaying and growing linear flows under the two
products, fig6-fig10 the oscillator (two phase-plane projections, the
coefficient curves, both solution bands) and fig11-fig15 the same set for
the predator-prey model; fig16 runs the predator-prey linearisation on the
oscillator path.  Captions fix the time span only for the dynamic systems
(``[0, 50]``); the linear-flow presets use ``[0, 10]``.  Preset texts go
through ``load_config`` like any other config.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields, replace
from numbers import Integral, Real
from pathlib import Path as FsPath

from ..core import BasisNumber, LcNumber, LcSpace
from ..dynamics import METHODS, PROJECTIONS, LinearParams, LvParams, OscillatorParams, System, Trajectory
from ..dynamics import linearized_lv, phase_portrait, simulate_system, system_record
from .exports import alpha_key, band_color, emit_svg, export_csv, export_json, trajectory_table
from .literals import LiteralError, parse_fuzzy_literal, print_literal

__all__ = [
    "ConfigError",
    "PRESETS",
    "Scenario",
    "load_config",
    "preset_config",
    "resolve_out_dir",
    "run_scenario",
]

DEFAULT_ALPHAS = tuple(i / 10 for i in range(11))
MAX_EXPORT_ROWS = 2001
# budgets checked before anything is simulated: RK4 keeps every state
# (about 430 bytes a step), and the export table is built in memory
MAX_STEPS = 10**6
MAX_CELLS = 10**7


class ConfigError(ValueError):
    """A scenario configuration that cannot be run."""


@dataclass(frozen=True)
class Scenario:
    """One run, every entry of its final type.

    It checks its own values, however it is made: by ``load_config``,
    directly or with ``dataclasses.replace``.  Lists given for ``t_span``,
    ``alphas`` and ``formats`` become tuples, numbers become floats and a
    system alias its record's name; any fault, the plot's and the size
    budgets' included, raises ``ConfigError``.
    """

    system: str
    space: LcSpace
    params: LinearParams | OscillatorParams | LvParams
    t_span: tuple[float, float] = (0.0, 10.0)
    dt: float = 1e-3
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    formats: tuple[str, ...] = ("csv", "json", "svg")
    name: str = "scenario"
    method: str = "auto"
    plot: str = "time-series"
    stride: int | None = None
    out_dir: str | None = None

    def __post_init__(self):
        system = _normalize_system(self.system)
        if not isinstance(self.formats, (list, tuple)):
            raise ConfigError(f"formats must be a list, got {self.formats!r}")
        for fmt in self.formats:
            if fmt not in ("csv", "json", "svg"):
                raise ConfigError(f"unknown output format {fmt!r}")
        if not isinstance(self.space, LcSpace):
            raise ConfigError(f"space must be an LcSpace, got {type(self.space).__name__}")
        if system.needs_a1:
            try:
                self.space.basis.one_level_value()
            except ValueError as exc:
                raise ConfigError(f"{system.name} needs a basis with a single-point 1-level: {exc}") from exc
        if not isinstance(self.params, system.params):
            raise ConfigError(f"{system.name} takes {system.params.__name__}, got {type(self.params).__name__}")
        t_span, alphas = (tuple(v) if isinstance(v, list) else v for v in (self.t_span, self.alphas))
        if not isinstance(t_span, tuple) or len(t_span) != 2:
            raise ConfigError(f"t_span must be a pair of times, got {t_span!r}")
        t0, t1 = (_real("t_span", t) for t in t_span)
        if not t1 > t0:
            raise ConfigError(f"t_span must be a nonempty increasing interval, got {t_span}")
        dt = _real("dt", self.dt)
        if dt <= 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        steps = (t1 - t0) / dt
        if not steps <= MAX_STEPS:
            raise ConfigError(f"t_span at dt {self.dt} is {steps:.3g} steps, over the budget of {MAX_STEPS}")
        if not isinstance(alphas, tuple) or not alphas:
            raise ConfigError(f"alpha grid must be a nonempty list, got {alphas!r}")
        alphas = tuple(_real("alpha", a) + 0.0 for a in alphas)  # a level -0.0 is the level 0, named a0
        if any(not 0.0 <= a <= 1.0 for a in alphas) or list(alphas) != sorted(alphas):
            raise ConfigError(f"alpha grid must be ascending within [0, 1], got {alphas}")
        if len({alpha_key(a) for a in alphas}) != len(alphas):
            raise ConfigError(f"alpha levels must differ at 6 significant digits, got {alphas}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.method == "analytic" and system.closed_form is None:
            raise ConfigError(f"{system.name} has no analytic solution; use rk4")
        stride = self.stride
        if stride is not None and (not isinstance(stride, Integral) or isinstance(stride, bool) or stride < 1):
            raise ConfigError(f"stride must be a positive integer, got {stride!r}")
        # an upper bound: the grid has at most int(steps) + 2 points, and each
        # variable has one "initial" entry and 2 + 2 * len(alphas) columns
        points = int(steps) + 2
        rows = min(points, MAX_EXPORT_ROWS) if stride is None else points // stride + 2
        cells = rows * (1 + 2 * len(system.variables) * (1 + len(alphas)))
        if cells > MAX_CELLS:
            raise ConfigError(f"the export table would be {cells:.3g} cells, over the budget of {MAX_CELLS}")
        name, plot = self.name, self.plot
        if not isinstance(name, str) or name in ("", ".", "..") or FsPath(name).name != name:
            raise ConfigError(f"name must be a plain file name, got {name!r}")
        if not isinstance(plot, str) or not isinstance(self.out_dir, (str, type(None))):
            raise ConfigError(f"plot and out_dir must be strings, got {plot!r}, {self.out_dir!r}")
        _check_plot(plot, system.variables)
        normal = dict(system=system.name, t_span=(t0, t1), dt=dt, alphas=alphas, formats=tuple(self.formats))
        for key, value in normal.items():
            object.__setattr__(self, key, value)


# a config may leave out every entry but "system" and "basis"; the others
# default to the text of the Scenario field defaults
_DEFAULTS = {"params": {}, "initial": {}}
_DEFAULTS.update((f.name, f.default) for f in fields(Scenario) if f.default is not MISSING)
_CONFIG_KEYS = {"system", "basis", *_DEFAULTS}


def load_config(source, **overrides) -> Scenario:
    """Parse a config, once, into a ``Scenario``, which checks the values.

    ``source`` is a JSON file path or a plain dict; each override replaces
    one whole top-level entry before anything is read.  Every fault, of
    the text or of a value, raises ``ConfigError``.
    """
    if not isinstance(source, dict):
        try:
            with open(source) as fh:
                source = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"invalid JSON in {source}: {exc}") from exc
        if not isinstance(source, dict):
            raise ConfigError(f"a scenario must be a JSON object, got {type(source).__name__}")
    text = {**source, **overrides}
    unknown = set(text) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown, key=str)}")
    if "system" not in text or "basis" not in text:
        raise ConfigError("a scenario needs at least 'system' and 'basis'")
    text = {**_DEFAULTS, **text}
    basis_text, params, initial = (text.pop(key) for key in ("basis", "params", "initial"))
    if not isinstance(params, dict) or not isinstance(initial, dict):
        raise ConfigError("'params' and 'initial' must map names to literals")
    try:
        basis = parse_fuzzy_literal(str(basis_text))
    except LiteralError as exc:
        raise ConfigError(f"bad basis literal: {exc}") from exc
    if not isinstance(basis, BasisNumber):
        raise ConfigError("the 'basis' entry must be a tri(...) or trap(...) literal")
    try:
        space = LcSpace(basis)
    except ValueError:
        raise ConfigError("the basis fuzzy number is symmetric; the scenario is rejected") from None
    params = _build_params(_normalize_system(text["system"]), params, initial)
    return Scenario(space=space, params=params, **text)


def _normalize_system(system) -> System:
    """``system_record``, with a ``ConfigError`` for a name it does not know."""
    try:
        return system_record(system)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _real(label: str, value) -> float:
    """A finite number as a float; strings and booleans are refused."""
    if isinstance(value, Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{label} must be a finite number, got {value!r}")


def _parse_element(cfg_field: str, text) -> LcNumber:
    try:
        value = parse_fuzzy_literal(str(text))
    except LiteralError as exc:
        raise ConfigError(f"bad literal for {cfg_field!r}: {exc}") from exc
    if not isinstance(value, LcNumber):
        raise ConfigError(f"{cfg_field!r} must be an element literal, got a basis")
    return value


def _check_plot(plot: str, names) -> None:
    kind, _, detail = plot.partition(":")
    if kind == "time-series":
        if detail and detail not in names:
            raise ConfigError(f"unknown variable {detail!r} in plot {plot!r}")
    elif kind == "phase":
        if len(names) != 2:
            raise ConfigError(f"cannot draw plot {plot!r}: phase portraits need a two-variable trajectory")
        if detail not in PROJECTIONS:
            raise ConfigError(f"cannot draw plot {plot!r}: unknown projection {detail!r}")
    elif kind != "components":
        raise ConfigError(f"unknown plot kind {plot!r}")
    elif detail:
        raise ConfigError(f"plot 'components' draws every variable and takes no detail, got {plot!r}")


def _build_params(system: System, params: dict, initial: dict):
    """The system's params dataclass, parsed from its ``params``/``initial`` entries."""
    given = {"params": params, "initial": initial}
    unknown = [f"{sec}[{key!r}]" for sec, values in given.items() for key in values if (sec, key) not in system.entries]
    if unknown:
        raise ConfigError(f"unknown entries for {system.name}: {', '.join(unknown)}")
    kwargs = {}
    for f, (section, key) in zip(fields(system.params), system.entries):
        if key in given[section]:
            kwargs[f.name] = _parse_element(key, given[section][key])
        elif f.default is MISSING:
            raise ConfigError(f"{system.name} needs {section}[{key!r}]")
    return system.params(**kwargs)


def _export_indices(n: int, stride: int | None) -> list[int]:
    stride = stride or max(1, math.ceil((n - 1) / (MAX_EXPORT_ROWS - 1)))
    return list(range(0, n, stride)) + ([n - 1] if (n - 1) % stride else [])


def resolve_out_dir(explicit=None, cfg_dir=None) -> FsPath:
    """Output directory: explicit flag, then config, then $RFA_OUT_DIR."""
    target = explicit or cfg_dir or os.environ.get("RFA_OUT_DIR") or "rfa_out"
    path = FsPath(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _svg_series(plot: str, traj: Trajectory):
    """Polyline series plus axis labels for the plot kind the scenario accepted."""
    ts = traj.times
    kind, _, detail = plot.partition(":")
    if kind == "components":
        strokes = ("#000000", "#777777", "#222266", "#884444")
        series = []
        k = 0
        for name in traj.names:
            re, fu = traj.component(name)
            series.append((ts, re, strokes[k % 4], 1.2))
            series.append((ts, fu, strokes[(k + 1) % 4], 1.2))
            k += 2
        return series, "t", "coefficients"
    if kind == "phase":
        portrait = phase_portrait(traj, detail)
        name, axis, axis_label, bands = portrait.fuzzy_label, portrait.crisp, portrait.crisp_label, portrait.bands
    else:
        name = detail or traj.names[0]
        axis, axis_label, bands = ts, "t", traj.bands[name]
    series = [
        (axis, bands[:, j, edge], band_color(alpha), 1.0) for j, alpha in enumerate(traj.alphas) for edge in (0, 1)
    ]
    series.append((axis, traj.component(name)[0], "#000000", 1.6))
    # "x-vs-s" puts the bands on the horizontal axis, every other plot on the vertical
    if plot == f"phase:{PROJECTIONS[0]}":
        return [(x, y, *style) for y, x, *style in series], name, axis_label
    return series, axis_label, name


def run_scenario(scenario: Scenario, out_dir=None, formats=None):
    """Simulate, attach bands, export.  Returns ``(table, written paths)``.

    A ``formats`` override is checked as the scenario's own, before
    anything runs.
    """
    if formats is not None:
        scenario = replace(scenario, formats=formats)
    basis = scenario.space.basis
    # the basis is for the 1-level of a system that needs a1; bands go on the exported rows only
    traj = simulate_system(
        scenario.system, scenario.params, scenario.t_span, dt=scenario.dt, method=scenario.method, basis=basis
    )
    idx = _export_indices(len(traj), scenario.stride)
    rows = Trajectory(traj.times[idx], traj.names, traj.coeffs[idx]).attach_bands(basis, scenario.alphas)
    table = trajectory_table(rows)
    if "svg" in scenario.formats:
        series, x_label, y_label = _svg_series(scenario.plot, rows)
    writers = {
        "csv": lambda target: export_csv(table, target),
        "json": lambda target: export_json(table, target),
        "svg": lambda target: emit_svg(series, target, x_label, y_label),
    }
    directory = resolve_out_dir(out_dir, scenario.out_dir) if scenario.formats else None
    written = {fmt: directory / f"{scenario.name}.{fmt}" for fmt in writers if fmt in scenario.formats}
    for fmt, target in written.items():
        writers[fmt](target)
    return table, list(written.values())


# ---------------------------------------------------------------------------
# presets

_DECAY_BASIS = "tri(-0.5;0;0.51)"
_OSC_BASIS = "tri(-1;0;1.01)"

_LV_TEXT = dict(
    system="lotka_volterra",
    basis=_DECAY_BASIS,
    params={
        "alpha": "0.25 + 0.001*A",
        "beta": "0.18 + 0.003*A",
        "a": "0.01",
        "b": "0.007",
    },
    initial={"x": "100 + 5*A", "y": "30 + 2*A"},
    t_span=(0.0, 50.0),
)

_OSC_TEXT = dict(
    system="oscillator",
    basis=_OSC_BASIS,
    initial={"x": "100 + 2*A", "y": "100 + 2*A"},
    t_span=(0.0, 50.0),
)


def _linear_text(fig: str, system: str, rate: str) -> dict:
    return dict(
        system=system,
        basis=_DECAY_BASIS,
        params={"lambda": rate},
        initial={"w": "2 + 2*A"},
        name=fig,
        plot="time-series:w",
    )


def _linearized_lv_text() -> dict:
    osc = linearized_lv(_build_params(_normalize_system(_LV_TEXT["system"]), _LV_TEXT["params"], _LV_TEXT["initial"]))
    return dict(
        system="oscillator",
        basis=_DECAY_BASIS,
        params={"c1": print_literal(osc.c1), "c2": print_literal(osc.c2)},
        initial={"x": print_literal(osc.x0), "y": print_literal(osc.y0)},
        t_span=(0.0, 50.0),
        name="fig16",
        plot="phase:x-vs-s",
    )


_PRESET_TEXTS = {
    "fig2": _linear_text("fig2", "linear", "-0.5 + 0.8*A"),
    "fig3": _linear_text("fig3", "linear_psi", "-0.5 + 0.8*A"),
    "fig4": _linear_text("fig4", "linear", "0.5 + 1*A"),
    "fig5": _linear_text("fig5", "linear_psi", "0.5 + 1*A"),
    "fig6": dict(_OSC_TEXT, name="fig6", plot="phase:x-vs-s"),
    "fig7": dict(_OSC_TEXT, name="fig7", plot="phase:r-vs-y"),
    "fig8": dict(_OSC_TEXT, name="fig8", plot="components"),
    "fig9": dict(_OSC_TEXT, name="fig9", plot="time-series:x"),
    "fig10": dict(_OSC_TEXT, name="fig10", plot="time-series:y"),
    "fig11": dict(_LV_TEXT, name="fig11", plot="phase:x-vs-s"),
    "fig12": dict(_LV_TEXT, name="fig12", plot="phase:r-vs-y"),
    "fig13": dict(_LV_TEXT, name="fig13", plot="components"),
    "fig14": dict(_LV_TEXT, name="fig14", plot="time-series:x"),
    "fig15": dict(_LV_TEXT, name="fig15", plot="time-series:y"),
    "fig16": _linearized_lv_text(),
}


def preset_config(fig_id: str, **overrides) -> Scenario:
    """Preset ``fig_id`` through ``load_config``, whole entries overridden as there."""
    if fig_id not in _PRESET_TEXTS:
        raise ConfigError(f"unknown preset {fig_id!r}; choose one of {', '.join(sorted(_PRESET_TEXTS))}")
    return load_config(_PRESET_TEXTS[fig_id], **overrides)


PRESETS: dict[str, Scenario] = {fig: load_config(text) for fig, text in _PRESET_TEXTS.items()}
