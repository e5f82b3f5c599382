import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rfa
from rfa.cli import expressions, presets
from rfa.cli.main import _build_parser, main
from rfa.cli.presets import ConfigError, _normalize_system, load_config
from rfa.dynamics import PROJECTIONS, SYSTEMS

# the module `rfa.cli.main`, whose globals the tests patch
MAIN_MODULE = importlib.import_module("rfa.cli.main")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LINEAR_CONFIG = {
    "system": "linear",
    "basis": "tri(-0.5;0;0.51)",
    "params": {"lambda": "-0.5 + 0.8*A"},
    "initial": {"w": "2 + 2*A"},
    "t_span": [0.0, 1.0],
    "dt": 0.01,
    "name": "quick",
}


def linear_config(tmp_path, **overrides):
    cfg = {**LINEAR_CONFIG, **overrides}
    target = tmp_path / "config.json"
    target.write_text(json.dumps(cfg))
    return target


def test_eval_command(capsys):
    code, out, _ = run(capsys, "eval", "(1+2*A)*(2+3*A)")
    assert code == 0
    assert out.strip() == "-4.0 + 7.0*A"


def test_eval_with_bindings_and_basis(capsys):
    code, out, _ = run(
        capsys, "eval", "psi_mul(z, z)", "--bind", "z=1 + 1*A", "--basis", "tri(-1;1;2)"
    )
    assert code == 0
    assert out.strip() == "0.0 + 4.0*A"


def test_psi_mul_reads_the_exact_one_level_of_a_triangular_basis(capsys):
    # a + 1.0*(b - a) is 1.1750000000000003 for this basis, not b
    code, out, err = run(capsys, "eval", "psi_mul(1+2*A, 2+3*A)", "--basis", "tri(-0.4;1.175;1.33)")
    assert (code, err) == (0, "")
    assert out.strip() == "-6.283750000000001 + 21.1*A"


def test_derive_command(capsys):
    code, out, _ = run(capsys, "derive", "z^2", "--at", "1 + 1*A")
    assert code == 0
    assert "derivative = " in out
    assert "cr_residual1" in out


def test_integrate_command(capsys):
    code, out, _ = run(
        capsys, "integrate", "z^2", "--path", "0, 1 + 1*A", "--samples", "2001"
    )
    assert code == 0
    value = out.strip()
    assert value.endswith("*A")


def test_solve_command_writes_outputs(capsys, tmp_path):
    cfg = linear_config(tmp_path)
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "solve", "linear", "--config", str(cfg), "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "quick.csv").exists()
    assert (out_dir / "quick.json").exists()
    assert (out_dir / "quick.svg").exists()


def test_solve_system_mismatch_is_config_error(capsys, tmp_path):
    cfg = linear_config(tmp_path)
    code, _, err = run(capsys, "solve", "lv", "--config", str(cfg))
    assert code == 2
    assert "error" in err


def test_solve_rejects_symmetric_basis(capsys, tmp_path):
    cfg = linear_config(tmp_path, basis="tri(-1;0;1)")
    code, _, err = run(capsys, "solve", "linear", "--config", str(cfg))
    assert code == 2
    assert "symmetric" in err


def test_asymmetric_basis_near_the_double_limit_loads(tmp_path):
    # lo + hi overflows on both rows of this basis; its half-sums differ
    scenario = rfa.cli.load_config(str(linear_config(tmp_path, basis="tri(1e308;1.5e308;1.7e308)")))
    assert scenario.space.basis.levels[1] == (1.0, 1.5e308, 1.5e308)
    with pytest.raises(rfa.cli.ConfigError, match="symmetric"):
        rfa.cli.load_config(str(linear_config(tmp_path, basis="tri(1e308;1.35e308;1.7e308)")))


def test_solve_rejects_empty_time_span(capsys, tmp_path):
    cfg = linear_config(tmp_path, t_span=[1.0, 1.0])
    code, _, err = run(capsys, "solve", "linear", "--config", str(cfg))
    assert code == 2


def test_preset_runs(capsys, tmp_path):
    code, out, _ = run(capsys, "preset", "fig2", "--out-dir", str(tmp_path), "--formats", "csv")
    assert code == 0
    assert (tmp_path / "fig2.csv").exists()


def test_preset_unknown_id(capsys):
    code, _, err = run(capsys, "preset", "fig99")
    assert code == 2
    assert "unknown preset" in err


def test_phase_command(capsys, tmp_path):
    cfg = linear_config(
        tmp_path,
        system="oscillator",
        params={},
        initial={"x": "1 + 0.5*A", "y": "0"},
        t_span=[0.0, 1.0],
        dt=0.01,
        name="osc",
    )
    code, out, _ = run(
        capsys,
        "phase",
        "--config",
        str(cfg),
        "--projection",
        "x-vs-s",
        "--out-dir",
        str(tmp_path),
        "--formats",
        "svg",
    )
    assert code == 0
    assert (tmp_path / "osc-phase.svg").exists()


def test_phase_requires_exactly_one_source(capsys):
    code, _, err = run(capsys, "phase", "--projection", "x-vs-s")
    assert code == 2


@pytest.mark.parametrize("name", [5, True, ["a"], {"k": 1}], ids=["int", "bool", "list", "dict"])
def test_phase_refuses_a_name_that_is_no_string(capsys, tmp_path, name):
    cfg = linear_config(tmp_path, system="oscillator", params={}, initial={"x": "1 + 0.5*A", "y": "0"}, name=name)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "phase", "--config", str(cfg), "--projection", "x-vs-s", "--out-dir", str(out_dir))
    assert code == 2
    assert err.startswith("error: ") and "name must be a plain file name" in err
    assert out == ""
    assert os.listdir(tmp_path) == ["config.json"]


def test_numeric_errors_exit_3(capsys):
    assert run(capsys, "eval", "1/(0+0*A)")[0] == 3
    assert run(capsys, "eval", "log(0)")[0] == 3


def test_integrator_abort_exits_3(capsys, tmp_path):
    cfg = linear_config(
        tmp_path,
        system="oscillator",
        params={"c1": "1e4", "c2": "1e4"},
        initial={"x": "1", "y": "0"},
        t_span=[0.0, 100.0],
        dt=1.0,
        name="diverges",
    )
    code, _, err = run(capsys, "solve", "oscillator", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert code == 3
    assert "aborted" in err
    # the fused Lotka-Volterra kernel: predators past the double range within 7 steps
    cfg.write_text(json.dumps({
        "system": "lotka_volterra",
        "basis": "tri(-0.5;0;0.51)",
        "params": {"alpha": "0.25 + 0.001*A", "beta": "0.18 + 0.003*A", "a": "0.01", "b": "0.007 + 0.001*A"},
        "initial": {"x": "1e6 + 5*A", "y": "1e-3 + 1e-4*A"},
        "t_span": [0.0, 20.0],
        "dt": 1e-3,
        "name": "blowup",
    }))
    code, out, err = run(capsys, "solve", "lv", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
    assert (code, out, err) == (3, "", "numeric error: integration aborted at t=0.007: non-finite state\n")
    assert not (tmp_path / "out").exists()


def test_closed_form_overflow_names_the_flow(capsys, tmp_path):
    cfg = linear_config(tmp_path, params={"lambda": "800"}, name="overflows")
    code, out, err = run(capsys, "solve", "linear", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
    assert code == 3
    assert out == ""
    assert err == "numeric error: linear flow: e^(lambda*t) with lambda=LcNumber(800.0, 0.0) overflows at t=0.89\n"
    assert not (tmp_path / "out").exists()


def test_band_overflow_exits_3_and_writes_nothing(capsys, tmp_path):
    # the state is finite, but its 0-level edge 1e308 * 1.9 is not
    cfg = tmp_path / "band.json"
    cfg.write_text(json.dumps({
        "system": "oscillator",
        "basis": "tri(-0.5;0;1.9)",
        "initial": {"x": "0 + 1e308*A", "y": "0"},
        "t_span": [0, 1],
        "dt": 0.01,
        "plot": "time-series:x",
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "solve", "oscillator", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
    assert (code, out, err) == (3, "", "numeric error: alpha-band of x at alpha=0.0 is not finite at t=0.0\n")
    assert not (tmp_path / "out").exists()


def test_cross_product_flow_needs_a_point_one_level(capsys, tmp_path):
    cfg = linear_config(tmp_path, system="linear_psi", basis="trap(-0.5;0;0.2;0.8)")
    code, out, err = run(capsys, "solve", "linear-psi", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: linear_psi needs a basis with a single-point 1-level: 1-level of the basis is")
    assert not (tmp_path / "out").exists()


def test_cross_product_flow_on_a_triangular_basis_with_an_inexact_one_level(capsys, tmp_path):
    cfg = linear_config(tmp_path, system="linear_psi", basis="tri(-0.4;1.175;1.33)")
    scenario = rfa.cli.load_config(cfg)
    assert scenario.space.basis.one_level_value() == 1.175
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "solve", "linear-psi", "--config", str(cfg), "--out-dir", str(out_dir))
    assert (code, err) == (0, "")
    assert (out_dir / "quick.csv").exists()


def test_closed_form_product_overflow_exits_3_and_writes_nothing(capsys, tmp_path):
    cfg = linear_config(tmp_path, params={"lambda": "10"}, initial={"w": "1e300"}, t_span=[0, 10], dt=0.5)
    code, out, err = run(capsys, "solve", "linear", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
    assert code == 3
    assert out == ""
    assert err.startswith("numeric error: linear flow: w0*e^(lambda*t)") and err.endswith("overflows at t=2.0\n")
    assert not (tmp_path / "out").exists()


def test_path_with_a_non_finite_edge_exits_3(capsys):
    code, out, err = run(capsys, "integrate", "z", "--path", "1e308, -1e308")
    assert code == 3
    assert out == ""
    assert err.startswith("numeric error: polyline edge 0 from") and "not finite" in err


def _unit_config(record, **overrides):
    """A config for ``record`` that sets each of its entries to the literal 1."""
    sections = {"params": {}, "initial": {}}
    for section, key in record.entries:
        sections[section][key] = "1"
    return {"system": record.name, "basis": "tri(-1;0;1.01)", **sections, **overrides}


def _solve_choices():
    parser = _build_parser()
    sub = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    return next(action for action in sub.choices["solve"]._actions if action.dest == "system").choices


def test_plot_variables_are_the_simulated_names():
    for record in SYSTEMS.values():
        scenario = load_config(_unit_config(record))
        assert scenario.system == record.name
        assert record.variables == tuple(key for section, key in record.entries if section == "initial")
        for method in ("auto", "rk4"):
            traj = rfa.simulate_system(record.name, scenario.params, (0.0, 0.01), dt=0.01, method=method, basis=scenario.space.basis)
            assert traj.names == record.variables, (record.name, method)


def test_solve_choices_name_every_system():
    assert {_normalize_system(choice).name for choice in _solve_choices()} == set(SYSTEMS)
    spellings = [name for record in SYSTEMS.values() for name in (record.name, *record.aliases)]
    assert sorted(_solve_choices()) == sorted(spellings)


@pytest.mark.parametrize("spelling", [name for record in SYSTEMS.values() for name in (record.name, *record.aliases)])
def test_solve_takes_every_spelling_of_a_system(capsys, tmp_path, spelling):
    cfg = tmp_path / "unit.json"
    cfg.write_text(json.dumps(_unit_config(_normalize_system(spelling), t_span=[0.0, 0.1], dt=0.01, name="unit")))
    code, out, err = run(capsys, "solve", spelling, "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
    assert (code, err) == (0, "")
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == ["unit.csv", "unit.json", "unit.svg"]


@pytest.mark.parametrize(
    "spelling",
    sorted({*_solve_choices(), *(name for record in SYSTEMS.values() for name in (record.name, *record.aliases))}),
)
def test_every_spelling_resolves_to_a_record_and_its_methods(spelling):
    record = _normalize_system(spelling)
    assert SYSTEMS[record.name] is record
    scenario = load_config(_unit_config(record, system=spelling))
    assert (scenario.system, type(scenario.params)) == (record.name, record.params)
    analytic = _unit_config(record, system=spelling, method="analytic")
    if record.closed_form is not None:
        assert load_config(analytic).method == "analytic"
        rfa.simulate_system(record.name, scenario.params, (0.0, 0.01), dt=0.01, method="analytic", basis=scenario.space.basis)
        return
    with pytest.raises(ValueError, match="no analytic solution"):
        rfa.simulate_system(record.name, scenario.params, (0.0, 0.01), dt=0.01, method="analytic")
    with pytest.raises(ConfigError) as info:
        load_config(analytic)
    assert str(info.value) == f"{record.name} has no analytic solution; use rk4"


def test_unknown_system_has_one_message_in_the_library_and_the_config():
    with pytest.raises(ValueError) as library:
        rfa.simulate_system("lv2", None, (0.0, 1.0))
    with pytest.raises(ConfigError) as config:
        _normalize_system("lv2")
    assert str(library.value) == str(config.value) == "unknown system 'lv2'"


def test_closed_forms_and_the_simulation_are_reached_through_module_globals(monkeypatch):
    # bench/tracing.py patches these names to time the closed forms and the simulation
    calls = []
    for attr in ("solve_linear_analytic", "solve_linear_psi_analytic"):
        original = getattr(rfa.dynamics, attr)
        spy = lambda *args, _attr=attr, _original=original: calls.append(_attr) or _original(*args)
        monkeypatch.setattr(rfa.dynamics, attr, spy)
    params = rfa.LinearParams(rfa.LcNumber(-0.5, 0.8), rfa.LcNumber(2, 2))
    rfa.simulate_system("linear", params, (0.0, 1.0), dt=0.1)
    rfa.simulate_system("linear_psi", params, (0.0, 1.0), dt=0.1, basis=rfa.BasisNumber.triangular(-0.5, 0, 0.51))
    assert calls == ["solve_linear_analytic", "solve_linear_psi_analytic"]

    simulate = presets.simulate_system
    monkeypatch.setattr(presets, "simulate_system", lambda *args, **kw: calls.append(args[0]) or simulate(*args, **kw))
    presets.run_scenario(presets.preset_config("fig3", dt=0.1), formats=())
    assert calls[2:] == ["linear_psi", "solve_linear_psi_analytic"]


@pytest.mark.parametrize(
    "argv, spelled_apart",
    [
        (["eval", "-1+2*A"], ["eval", "--", "-1+2*A"]),
        (["integrate", "-z*exp(-z)", "--path", "0, 1"], ["integrate", "--path", "0, 1", "--", "-z*exp(-z)"]),
        (["integrate", "1/z", "--path", "-1,0+1*A,1"], ["integrate", "1/z", "--path=-1,0+1*A,1"]),
        (["derive", "z*z", "--at", "-1+2*A"], ["derive", "z*z", "--at=-1+2*A"]),
        (["derive", "-z*z", "--at", "-1+2*A"], ["derive", "--at=-1+2*A", "--", "-z*z"]),
    ],
    ids=["eval", "integrate-expr", "integrate-path", "derive-at", "derive-expr-and-at"],
)
def test_values_that_start_with_a_minus_sign_are_values(capsys, argv, spelled_apart):
    expected = run(capsys, *spelled_apart)
    assert expected[0] == 0
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize(
    "argv",
    [["eval"], ["derive", "z", "--at"], ["derive", "z", "--at", "--step", "1"], ["eval", "z", "--bogus"],
     ["eval", "--b", "1", "z"], ["integrate", "z", "--path"], ["solve", "-lv", "--config", "c.json"]],
)
def test_option_misuse_still_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_help_is_still_an_option(capsys):
    with pytest.raises(SystemExit) as info:
        main(["derive", "-h"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: rfa derive")


def _outcome(capsys, argv):
    """``(exit code, stdout, stderr)`` of ``main(argv)``, an argparse exit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    def refuse():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(MAIN_MODULE, "_build_parser", refuse)
    assert run(capsys, "eval", "1+1") == (0, "2.0\n", "")


def test_one_parser_serves_every_call_as_if_alone(capsys, monkeypatch):
    calls = [
        ["eval", "k + j", "--bind", "k=1", "--bind", "j=2"],
        ["eval", "k"],
        ["eval", "k", "--bind", "k=3"],
        ["eval", "k", "--bogus"],
        ["integrate", "z", "--path", "0, 1", "--samples", "11"],
    ]
    shared = [_outcome(capsys, argv) for argv in calls]
    alone = []
    for argv in calls:
        monkeypatch.setattr(MAIN_MODULE, "_PARSER", _build_parser())
        alone.append(_outcome(capsys, argv))
    assert shared == alone
    assert [(code, out) for code, out, _ in shared] == [(0, "3.0\n"), (2, ""), (0, "3.0\n"), (2, ""), (0, "0.5\n")]


def test_help_is_the_help_of_a_fresh_parser(capsys):
    with pytest.raises(SystemExit):
        _build_parser().parse_args(["integrate", "-h"])
    fresh = capsys.readouterr().out
    with pytest.raises(SystemExit) as info:
        main(["integrate", "-h"])
    assert info.value.code == 0
    assert capsys.readouterr().out == fresh
    assert fresh.startswith("usage: rfa integrate")


def _python(*args):
    """A fresh interpreter run with ``rfa`` importable from this checkout."""
    src = os.path.dirname(os.path.dirname(rfa.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def test_module_entry_point_runs_the_cli():
    assert _python("-m", "rfa.cli", "eval", "1+1") == (0, "2.0\n", "")
    assert _python("-W", "error", "-m", "rfa.cli.main", "eval", "1+1") == (0, "2.0\n", "")
    in_process = "import rfa.cli.main; rfa.cli.main.main(['eval', '1+1'])"
    assert _python("-W", "error", "-c", in_process) == (0, "2.0\n", "")


def test_cli_import_loads_no_scipy():
    probe = "import sys, rfa.cli.main; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _python("-c", probe) == (0, "[]\n", "")


# The modules the benchmark imports, then 10 warm-up calls and 100 measured
# ones of one of its ``calculus`` integrals, in a fresh interpreter.
_FAULTS_PER_INTEGRAL = """
import contextlib, importlib, io, resource
for name in ("rfa.core", "rfa.analytic", "rfa.dynamics", "rfa.cli.presets", "rfa.cli.exports",
             "rfa.cli.expressions", "rfa.cli.literals", "rfa.cli.main"):
    importlib.import_module(name)
from rfa.cli.main import main
argv = ["integrate", "k*exp(c*z)", "--path", "-1+0.5*A, 0.7-0.2*A, 1.2+1*A", "--samples", "10001",
        "--scheme", "trapezoid", "--bind", "k=1.2 - 0.4*A", "--bind", "c=0.8 + 0.3*A"]
def call():
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
for _ in range(10):
    call()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    call()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 100)
"""


def test_an_integral_does_not_fault_the_heap_back_in_each_call():
    # When what is allocated at import leaves the heap's top free, glibc trims
    # it after each call and the next call faults it back in: about 100 minor
    # page faults an integral, and a slower one.  About 0.05 is usual.
    pytest.importorskip("resource")
    code, out, err = _python("-c", _FAULTS_PER_INTEGRAL)
    assert code == 0, err
    assert float(out) < 5, f"{out.strip()} minor page faults per integral"


def test_parse_errors_exit_2(capsys):
    assert run(capsys, "eval", "1 + * 2")[0] == 2
    assert run(capsys, "eval", "ghost + 1")[0] == 2
    assert run(capsys, "eval", "1", "--bind", "broken")[0] == 2


@pytest.mark.parametrize("binding", [" =1", "a b=1", "1x=2", "z*=1", "=1"])
def test_a_binding_needs_a_name_the_grammar_can_reference(capsys, binding):
    code, out, err = run(capsys, "eval", "1", "--bind", binding)
    assert (code, out) == (2, "")
    assert err == f"error: bindings must look like name=literal, got {binding!r}\n"


def test_a_binding_name_is_read_without_its_surrounding_spaces(capsys):
    assert run(capsys, "eval", "z_1 * z_1", "--bind", " z_1 = 1 + 1*A") == (0, "0.0 + 2.0*A\n", "")


@pytest.mark.parametrize(
    "argv",
    [["eval", "1"], ["integrate", "psi_mul(z,z)", "--path", "0, 1"], ["derive", "z", "--at", "1"]],
    ids=["eval", "integrate", "derive"],
)
def test_a_symmetric_basis_is_refused_as_in_a_config(capsys, argv):
    code, out, err = run(capsys, *argv, "--basis", "tri(-1;0;1)")
    assert (code, out) == (2, "")
    assert "symmetric" in err


def test_only_psi_mul_asks_the_basis_for_a_point_one_level(capsys):
    interval = ["--basis", "trap(-1;0;0.5;3)"]
    plain = [["eval", "1 + 2*A"], ["derive", "z^2", "--at", "1 + 1*A"], ["integrate", "z", "--path", "0, 1+1*A"]]
    for argv in plain:
        code, out, err = run(capsys, *argv, *interval)
        assert (code, out, err) == (0, *run(capsys, *argv)[1:]), argv
    crossed = [["eval", "psi_mul(1+2*A, 2+3*A)"], ["derive", "psi_mul(z, z)", "--at", "1"],
               ["integrate", "psi_mul(z, z)", "--path", "0, 1"]]
    for argv in crossed:
        code, out, err = run(capsys, *argv, *interval)
        assert (code, out, err) == (2, "", "error: 1-level of the basis is the interval [0.0, 0.5], not a point\n")
    for argv in plain + crossed:
        code, out, err = run(capsys, *argv, "--basis", "tri(-1;0;1)")
        assert (code, out) == (2, "") and "symmetric" in err, argv


def test_io_errors_exit_4(capsys, tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("occupied")
    code, _, err = run(capsys, "preset", "fig2", "--out-dir", str(blocker), "--formats", "csv")
    assert code == 4


def test_out_dir_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("RFA_OUT_DIR", str(tmp_path / "from_env"))
    code, _, _ = run(capsys, "preset", "fig2", "--formats", "csv")
    assert code == 0
    assert (tmp_path / "from_env" / "fig2.csv").exists()


# the entries that a config and a Scenario spell alike: "params" is literal
# text in the one and a parsed dataclass in the other
_PLAIN_ENTRIES = {field.name for field in dataclasses.fields(presets.Scenario)} - {"params"}


def _values(config, message, preset="fig2"):
    """A fault of the values: its config text, and the same entries replaced on ``preset``."""
    return config, (preset, {key: value for key, value in config.items() if key in _PLAIN_ENTRIES}), message


# (config text, (preset, entries given to dataclasses.replace), message): a
# fault of the text alone has no replace entries, and a fault that no config
# text can carry has no text
@pytest.mark.parametrize(
    "config, replaced, message",
    [
        _values({"dt": "0.001"}, "dt must be a finite number"),
        _values({"alphas": ["x"]}, "alpha must be a finite number"),
        ([1, 2], None, "must be a JSON object"),
        _values({"name": "../escaped"}, "plain file name"),
        _values({"t_span": 5}, "pair of times"),
        _values({"stride": "2"}, "stride must be a positive integer"),
        _values({"method": "euler"}, "unknown method"),
        _values({"plot": "phase:x-vs-s"}, "two-variable"),
        _values({"dt": 1e-7}, "steps, over the budget of 1000000"),
        _values(
            {"t_span": [0.0, 100.0], "dt": 0.001, "stride": 1, "alphas": [i / 50 for i in range(51)]},
            "cells, over the budget of 10000000",
        ),
        ({"params": {"lambda": "-0.5 + 0.8*A", "c3": "5"}}, None, "unknown entries for linear: params['c3']"),
        ({"initial": {"w": "2 + 2*A", "z": "zz"}}, None, "unknown entries for linear: initial['z']"),
        _values({"plot": "time-series:zz", "formats": ["csv"]}, "unknown variable 'zz'"),
        _values({"plot": "components:zzz"}, "plot 'components' draws every variable and takes no detail"),
        ({"initial": {"w": "1e309"}}, None, "beyond the double range (at offset 0)"),
        ({"basis": "tri(-1.7e308;-1.7e308;1.7e308)"}, None, "span inf that is not a finite double"),
        # 0.1 and 0.1000001 both name the columns w_a0.1_lo and w_a0.1_hi
        _values({"alphas": [0.1, 0.1000001, 0.5]}, "alpha levels must differ at 6 significant digits"),
        _values({"alphas": [0.5, 0.5]}, "alpha levels must differ at 6 significant digits"),
        _values({"alphas": [-0.0, 0.0]}, "alpha levels must differ at 6 significant digits"),
        ("{not json", None, "invalid JSON in"),
        (
            json.dumps({key: value for key, value in LINEAR_CONFIG.items() if key != "basis"}),
            None,
            "needs at least 'system' and 'basis'",
        ),
        _values({"alphas": [0.5, 0.2]}, "ascending within [0, 1]"),
        _values({"alphas": [0.0, 1.5]}, "ascending within [0, 1]"),
        ({"initial": {"w": "tri(0;1;2)"}}, None, "'w' must be an element literal, got a basis"),
        _values(
            {"system": "oscillator", "params": {}, "initial": {"x": "1", "y": "1"}, "plot": "phase:q-vs-z"},
            "unknown projection 'q-vs-z'",
            preset="fig6",
        ),
        _values({"plot": "bogus"}, "unknown plot kind 'bogus'", preset="fig6"),
        _values({"stride": 0}, "stride must be a positive integer, got 0"),
        _values({"formats": ["pdf"]}, "unknown output format 'pdf'"),
        _values({"dt": -1.0}, "dt must be positive, got -1.0"),
        (None, ("fig9", {"system": "lv"}), "lotka_volterra takes LvParams, got OscillatorParams"),
        (None, ("fig2", {"space": LINEAR_CONFIG["basis"]}), "space must be an LcSpace, got str"),
    ],
    ids=["string-dt", "string-alpha", "top-level-list", "name-escapes", "scalar-span",
         "string-stride", "unknown-method", "phase-of-one-variable", "step-budget",
         "cell-budget", "unknown-param", "unknown-initial", "csv-only-bad-plot", "components-detail",
         "literal-beyond-double", "basis-span-overflow", "alpha-keys-collide", "alpha-repeated",
         "alpha-signed-zeros", "invalid-json", "no-basis", "alpha-descending", "alpha-above-one",
         "initial-is-a-basis", "unknown-projection", "unknown-plot-kind", "stride-zero", "unknown-format",
         "negative-dt", "params-of-another-system", "space-as-text"],
)
def test_bad_config_is_config_error_and_writes_nothing(capsys, tmp_path, config, replaced, message):
    if replaced is not None:
        # the scenario checks its own values, however it is made
        preset, entries = replaced
        with pytest.raises(ConfigError) as info:
            dataclasses.replace(presets.PRESETS[preset], **entries)
        assert message in str(info.value)
    if config is None:
        return
    if isinstance(config, dict):
        target = linear_config(tmp_path, **config)
    else:
        # a string is the file's text as given
        target = tmp_path / "config.json"
        target.write_text(config if isinstance(config, str) else json.dumps(config))
    out_dir = tmp_path / "out" / "nested"
    code, out, err = run(capsys, "solve", "linear", "--config", str(target), "--out-dir", str(out_dir))
    assert code == 2, err
    assert err.startswith("error: ") and message in err
    assert out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "k", "--bind", "k=tri(0;1;2)"], "binding 'k' must be an element literal"),
        (["eval", "1", "--basis", "1+2*A"], "--basis must be a tri(...) or trap(...) literal"),
        (["derive", "z", "--at", "tri(0;1;2)"], "--at must be an element literal"),
        (["integrate", "z", "--path", "0, tri(0;1;2)"], "path vertices must be element literals"),
        (["integrate", "z", "--path", "0"], "an integration path needs at least two vertices"),
    ],
    ids=["bind-basis", "basis-element", "at-basis", "path-basis", "path-one-vertex"],
)
def test_a_literal_of_the_wrong_kind_is_a_config_error(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_a_negative_zero_alpha_is_the_level_0(tmp_path):
    scenario = load_config(linear_config(tmp_path, alphas=[-0.0, 1.0]))
    assert [math.copysign(1.0, a) for a in scenario.alphas] == [1.0, 1.0]
    table, _ = presets.run_scenario(scenario, out_dir=tmp_path, formats=())
    assert "w_a0_lo" in table.columns


@pytest.mark.parametrize(
    "argv",
    [
        ["integrate", "z", "--path", "0,1", "--samples", "1"],
        ["integrate", "z", "--path", "0,1", "--samples", "0"],
        ["integrate", "z", "--path", "0,1", "--samples", "1000000000000"],
        ["derive", "z", "--at", "1", "--step", "0"],
        ["derive", "z", "--at", "1", "--step", "-1"],
        ["derive", "z", "--at", "1", "--step", "nan"],
        ["derive", "z", "--at", "1", "--step", "inf"],
        ["integrate", "z", "--path", "0, 1", "--samples", "abc"],
        ["derive", "z", "--at", "1", "--step", "x"],
    ],
    ids=["samples-1", "samples-0", "samples-over-budget", "step-0", "step-negative", "step-nan", "step-inf",
         "samples-not-a-number", "step-not-a-number"],
)
def test_bad_arguments_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_power_overflow_names_the_power(capsys):
    code, out, err = run(capsys, "eval", "2^1e20")
    assert code == 3
    assert out == ""
    assert err == "numeric error: power LcNumber(2.0, 0.0)^100000000000000000000 is out of range\n"


def test_a_negative_power_names_the_exponent_as_written(capsys):
    message = "numeric error: power LcNumber(1e+308, 1e+308)^-2 is out of range\n"
    assert run(capsys, "eval", "(1e308+1e308*A)^-2") == (3, "", message)
    # the array pass raises, and the per-sample replay names the first sample
    path = ("--path", "1e308+1e308*A, 1.5e308+1.5e308*A", "--samples", "11")
    assert run(capsys, "integrate", "z^-2", *path) == (3, "", message)


def test_a_power_whose_angle_multiple_overflows_is_out_of_range(capsys):
    # 1e308 times the argument is inf, while the modulus 0.51^1e308 underflows to 0
    message = f"numeric error: power LcNumber(-0.5, 0.1)^{int(1e308)} is out of range\n"
    assert run(capsys, "eval", "(-0.5+0.1*A)^1e308") == (3, "", message)
    # the array pass raises, and the per-sample replay names the first sample
    path = ("--path", "0, 1", "--samples", "11")
    assert run(capsys, "integrate", "(z-0.5+0.1*A)^1e308", *path) == (3, "", message)


@pytest.mark.parametrize(
    "expr, integrand, path, power",
    [
        ("(0.5)^-1e300", "z^-1e300", "0.5, 0.6", f"LcNumber(0.5, 0.0)^{int(-1e300)}"),
        ("(1e-300*A)^-2", "z^-2", "0+1e-300*A, 0+2e-300*A", "LcNumber(0.0, 1e-300)^-2"),
    ],
)
def test_a_power_that_underflows_under_a_negative_exponent_is_out_of_range(capsys, expr, integrand, path, power):
    # the positive power underflows to zero; the base is not the zero element
    message = f"numeric error: power {power} is out of range\n"
    assert run(capsys, "eval", expr) == (3, "", message)
    assert run(capsys, "integrate", integrand, "--path", path, "--samples", "11") == (3, "", message)
    assert run(capsys, "eval", "(0)^-1") == (3, "", "numeric error: negative power of the zero element\n")


def test_exp_overflow_names_the_exponential(capsys):
    code, out, err = run(capsys, "eval", "exp(800)")
    assert code == 3
    assert out == ""
    assert err == "numeric error: exp(LcNumber(800.0, 0.0)) is out of range\n"


def test_exp_of_an_infinite_fuzzy_part_names_the_exponential(capsys):
    message = "numeric error: exp(LcNumber(0.0, inf)) is undefined: its fuzzy part is infinite\n"
    assert run(capsys, "eval", "exp(1e308*A*10)") == (3, "", message)
    assert run(capsys, "integrate", "exp(z*1e308*A*10)", "--path", "0,1", "--samples", "11") == (3, "", message)


@pytest.mark.parametrize(
    "expr, cause",
    [
        ("(1+A)^(1e308*10)", "exponent inf is not a finite number"),
        ("(1+A)^((1e308*10)-(1e308*10))", "exponent nan is not a finite number"),
        ("log(1+A, 1e308*10)", "log branch inf is not a finite number"),
        ("log(1+A, -1e308*10)", "log branch -inf is not a finite number"),
    ],
)
def test_non_finite_exponent_or_log_branch_is_named(capsys, expr, cause):
    assert run(capsys, "eval", expr) == (3, "", f"numeric error: {cause}\n")
    integrand = expr.replace("1+A", "z")
    assert run(capsys, "integrate", integrand, "--path", "1, 2", "--samples", "11") == (3, "", f"numeric error: {cause}\n")


@pytest.mark.parametrize(
    "expr, residual",
    [
        ("(z-conj(z))*(z-conj(z))", "cr_residual2 is not finite: nan"),
        ("(z-conj(z))*(z-conj(z))*A", "cr_residual1 is not finite: nan"),
    ],
)
def test_derive_refuses_a_non_finite_residual(capsys, expr, residual):
    # -4y^2 overflows to -inf on both sides of y0 = 0, over a finite width of 2e154
    code, out, err = run(capsys, "derive", expr, "--at", "0", "--step", "1e154")
    assert (code, out, err) == (3, "", f"numeric error: {residual}\n")


@pytest.mark.parametrize(
    "at, step, centre",
    [("1", "1e308", "x0=1.0"), ("0 + 1e308*A", "1e308", "x0=0.0"), ("1 + 1.7e308*A", "1e307", "y0=1.7e+308")],
)
def test_derive_refuses_a_step_whose_width_overflows(capsys, at, step, centre):
    # (c + h) - (c - h) is not finite: the partials would read nan
    code, out, err = run(capsys, "derive", "z", "--at", at, "--step", step)
    name = centre.partition("=")[0]
    h = float(step)
    expected = f"numeric error: step h={h} overflows at {centre}: ({name} + h) - ({name} - h) is inf\n"
    assert (code, out, err) == (3, "", expected)


@pytest.mark.parametrize("at, centre", [("1e17", "x0=1e+17"), ("1e308", "x0=1e+308"), ("3+1e17*A", "y0=1e+17")])
def test_derive_refuses_a_step_lost_in_rounding(capsys, at, centre):
    # the stencil's two points round to one double: no derivative 0.0 with a residual of 1
    code, out, err = run(capsys, "derive", "z", "--at", at)
    name = centre.partition("=")[0]
    expected = f"numeric error: step h=1e-05 is lost at {centre}: {name} + h and {name} - h round to the same double\n"
    assert (code, out, err) == (3, "", expected)


@pytest.mark.parametrize(
    "expr, at, derivative",
    [("z", "1e10", "1.0"), ("z", "5e10", "1.0"), ("z", "1e11", "1.0"), ("z*A", "0+1e11*A", "0.0 + 1.0*A")],
)
def test_derive_divides_by_the_stencils_rounded_width(capsys, expr, at, derivative):
    # x0 + h and x0 - h lie a few ulps apart, 2*h away only in exact arithmetic
    code, out, err = run(capsys, "derive", expr, "--at", at)
    residuals = "cr_residual1 = 0.000000e+00\ncr_residual2 = 0.000000e+00\n"
    assert (code, out, err) == (0, f"derivative = {derivative}\n{residuals}", "")


def test_polyline_edge_sum_overflow_integrates_the_closed_path(capsys):
    code, out, _ = run(capsys, "integrate", "1", "--path", "1e308, -7e307, 1e308", "--samples", "101")
    assert (code, out) == (0, "0.0\n")


def test_deep_nesting_is_a_parse_error(capsys):
    code, _, err = run(capsys, "eval", "(" * 3000 + "1" + ")" * 3000)
    assert code == 2
    assert "nests too deeply" in err


def test_long_flat_sums_still_evaluate(capsys):
    code, out, _ = run(capsys, "eval", "+".join(["1"] * 5000))
    assert code == 0
    assert out.strip() == "5000.0"


@pytest.mark.parametrize("expr, offset", [("1e309", 0), ("1e309 - 1e309", 0), ("2*A + 1e400", 6)])
def test_number_beyond_the_double_range_is_a_parse_error(capsys, expr, offset):
    code, out, err = run(capsys, "eval", expr)
    assert code == 2
    assert out == ""
    assert f"number is beyond the double range (at offset {offset})" in err


def test_non_finite_result_exits_3(capsys):
    code, out, err = run(capsys, "eval", "1e308*10")
    assert code == 3
    assert out == ""
    assert "not finite" in err


_NUMBERS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e308", "0.0", ".5", "5."]),
)
_ATOMS = st.one_of(_NUMBERS, st.sampled_from(["A", "z", "ghost", "(1 + 2*A)"]))
_FUNCTIONS = (*expressions._FUNCTIONS, "mystery")


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "^"]), inner).map(" ".join),
        st.tuples(st.sampled_from(["-", "+", "("]), inner).map(lambda p: p[0] + p[1]),
        inner.map(lambda e: f"({e})"),
        st.tuples(st.sampled_from(_FUNCTIONS), st.lists(inner, max_size=3)).map(
            lambda p: f"{p[0]}({', '.join(p[1])})"
        ),
        st.tuples(inner, st.sampled_from([")", ",", "$", ";", "*", "2"])).map("".join),
    )


_EXPRESSIONS = st.recursive(_ATOMS, _compound, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_EXPRESSIONS)
def test_eval_keeps_the_exit_code_contract(expr):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--bind", "z=0.5 - 0.25*A", "--", expr])
    assert code in (0, 2, 3, 4)
    assert (code == 0) == bool(out.getvalue())
    assert "inf" not in out.getvalue() and "nan" not in out.getvalue()
    assert "Traceback" not in err.getvalue()


_INTEGRANDS = ["1/z", "log(z)", "z^-3", "norm(z)", "exp(exp(z))", "z/0", "z^2", "sqrt(z)*conj(z)"]
_VERTEX_LITERALS = ["1e308", "-1e308", "1e155", "1e200+1e200*A", "-0", "1e-320", "0", "1 - 1*A"]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_INTEGRANDS),
    st.lists(st.sampled_from(_VERTEX_LITERALS), min_size=2, max_size=4),
    st.integers(2, 101),
    st.sampled_from(["trapezoid", "simpson"]),
)
def test_integrate_keeps_the_exit_code_contract(expr, vertices, samples, scheme):
    argv = ["integrate", expr, f"--path={','.join(vertices)}", "--samples", str(samples), "--scheme", scheme]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3)
    assert not caught, [str(w.message) for w in caught]
    assert "Warning" not in err.getvalue() and "Traceback" not in err.getvalue()
    if code == 0:
        assert "inf" not in out.getvalue() and "nan" not in out.getvalue()


_STEPS = ["1e308", "1e155", "0.5", "1e-5", "1e-320", "5e-324"]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_INTEGRANDS), st.sampled_from([*_VERTEX_LITERALS, "0 + 1e308*A"]), st.sampled_from(_STEPS))
@example("norm(z)", "0 + 1e308*A", "1e308")
def test_derive_keeps_the_exit_code_contract(expr, at, step):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["derive", expr, f"--at={at}", "--step", step])
    assert code in (0, 2, 3, 4)
    assert (code == 0) == bool(out.getvalue())
    assert not caught, [str(w.message) for w in caught]
    assert "Warning" not in err.getvalue() and "Traceback" not in err.getvalue()
    assert "inf" not in out.getvalue() and "nan" not in out.getvalue()


# Per-field pools of good and bad values.  Good spans and steps keep an
# accepted run at 1000 steps or fewer; the tiny steps and huge spans exceed
# the step budget with every good partner.
_FIELD_POOLS = {
    "system": ["linear", "linear_psi", "oscillator", "heat", 3, None],
    "basis": ["tri(-0.5;0;0.51)", "trap(-1;0;0;1.5)", "tri(-1;0;1)", "tri(1;0;-1)", "2 + A", 5, ""],
    "params": [
        {"lambda": "-0.5 + 0.8*A"}, {"lambda": "2"}, {"lambda": 7}, {"lambda": "1e308*A"},
        {"lambda": "nan"}, {}, {"lambda": "-0.5", "mu": "1"}, ["lambda"], "lambda",
    ],
    "initial": [{"w": "2 + 2*A"}, {"w": "0"}, {}, {"w": "2", "x": "1"}, {"w": None}, {"w": []}, [], None],
    "t_span": [
        [0.0, 1.0], [-1, 1], [0, 10], [1.0, 0.0], [0, 0], [], [0, 1, 2], "0,1", [0, math.nan],
        [0, 1e7], [0, 1e308], [-1e308, 1e308],
    ],
    "dt": [0.01, 0.1, 1, 1e-7, 1e-300, 5e-324, 0, -0.01, math.nan, math.inf, "0.01", None, True],
    "alphas": [[0, 0.5, 1], [1.0], [], [0.5, 0.2], [math.nan], [2], ["x"], "0.5", None],
    "formats": [["csv"], ["json", "svg"], [], ["pdf"], "csv", None],
    "name": ["quick", "", "..", "a/b", 5, None],
    "method": ["auto", "analytic", "rk4", "euler", 1],
    "plot": ["time-series", "time-series:w", "components", "phase:x-vs-s", "time-series:q", "bogus", 3],
    "stride": [None, 1, 3, 0, -1, 1.5, "2", True],
    "out_dir": [None, 5],
    "colour": ["red"],
}
_EDITS = st.lists(
    st.one_of(*(st.tuples(st.just(key), st.sampled_from(pool)) for key, pool in _FIELD_POOLS.items())),
    min_size=1,
    max_size=3,
    unique_by=lambda edit: edit[0],
)
_CONFIGS = st.one_of(
    _EDITS.map(lambda edits: {**LINEAR_CONFIG, **dict(edits)}),
    st.sampled_from([[1, 2], "linear", 3, None]),
)


@settings(max_examples=60, deadline=None)
@given(_CONFIGS)
def test_solve_keeps_the_exit_code_contract(config):
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "config.json")
        with open(target, "w") as fh:
            json.dump(config, fh)
        out_dir = os.path.join(tmp, "out")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", "linear", "--config", target, "--out-dir", out_dir])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert not os.path.exists(out_dir)


_OSC_CONFIG = {**LINEAR_CONFIG, "system": "oscillator", "params": {}, "initial": {"x": "1 + 0.5*A", "y": "0"}}
# (config, name of its phase run or None where the config is refused)
_PHASE_CONFIGS = [
    ({**_OSC_CONFIG, "name": "osc"}, "osc-phase"),
    ({key: value for key, value in _OSC_CONFIG.items() if key != "name"}, "scenario-phase"),
    ({**_OSC_CONFIG, "plot": "components:zzz"}, "quick-phase"),  # the phase plot replaces it
    ({**_OSC_CONFIG, "name": 5}, None),
    (LINEAR_CONFIG, None),  # one variable
    # refused as by solve, not made plain file names by the "-phase" suffix
    ({**_OSC_CONFIG, "name": ""}, None),
    ({**_OSC_CONFIG, "name": "."}, None),
    ({**_OSC_CONFIG, "name": ".."}, None),
]
_FORMAT_OPTIONS = {"": (), "svg": ("svg",), "csv,json": ("csv", "json"), "pdf": None}


def _expected_run(command, source, fig, config, projection, formats):
    """``(exit code, names of the files written)`` of one ``preset`` or ``phase`` call."""
    chosen = _FORMAT_OPTIONS[formats]
    if command == "preset":
        name = fig if fig in presets.PRESETS else None
    elif projection not in PROJECTIONS:
        name = None
    elif source == "preset" and fig in presets.PRESETS and len(SYSTEMS[presets.PRESETS[fig].system].variables) == 2:
        name = f"{fig}-phase"
    else:
        name = _PHASE_CONFIGS[config][1] if source == "config" else None
    if name is None or not chosen:  # no format at all is refused too
        return 2, set()
    return 0, {f"{name}.{fmt}" for fmt in chosen}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["preset", "phase"]),
    st.sampled_from(["preset", "config", "both", "neither"]),
    st.sampled_from([*presets.PRESETS, "fig1", "fig99", ""]),
    st.integers(0, len(_PHASE_CONFIGS) - 1),
    st.sampled_from([*PROJECTIONS, "sideways"]),
    st.sampled_from(list(_FORMAT_OPTIONS)),
)
@example("phase", "preset", "", 0, "x-vs-s", "")  # an empty preset id is a preset id, not a missing one
@example("phase", "config", "fig6", 5, "x-vs-s", "svg")  # the names "", "." and ".."
@example("phase", "config", "fig6", 6, "r-vs-y", "csv,json")
@example("phase", "config", "fig6", 7, "x-vs-s", "svg")
def test_preset_and_phase_keep_the_exit_code_contract(command, source, fig, config, projection, formats):
    if command == "preset":
        argv = ["preset", fig]
    else:
        argv = ["phase", "--projection", projection]
        argv += ["--preset", fig] if source in ("preset", "both") else []
        argv += ["--config", "config.json"] if source in ("config", "both") else []
    expected_code, expected_files = _expected_run(command, source, fig, config, projection, formats)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "config.json"), "w") as fh:
            json.dump(_PHASE_CONFIGS[config][0], fh)
        out_dir = os.path.join(tmp, "out")
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)  # a file written to the working directory would land beside the config
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--out-dir", out_dir, "--formats", formats])
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
        assert code == expected_code, err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert sorted(os.listdir(tmp)) == (["config.json", "out"] if expected_files else ["config.json"])
        if expected_files:
            assert set(os.listdir(out_dir)) == expected_files
        written = {os.path.join(out_dir, name) for name in expected_files}
        assert set(out.getvalue().splitlines()) == written


@pytest.mark.parametrize(
    "command, formats",
    [
        *((command, option) for command in ("solve", "preset", "phase") for option in ("", ",")),
        ("solve", None),  # "formats": [] in the config
        ("phase", None),
    ],
)
def test_a_run_without_an_output_format_is_refused_before_it_simulates(
    capsys, tmp_path, monkeypatch, command, formats
):
    def simulate(*args, **kwargs):
        raise AssertionError("a run that writes nothing simulated")

    monkeypatch.setattr(presets, "simulate_system", simulate)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({**_OSC_CONFIG, "formats": ["csv"] if formats else []}))
    argv = {
        "solve": ["solve", "oscillator", "--config", "config.json"],
        "preset": ["preset", "fig6"],
        "phase": ["phase", "--config", "config.json", "--projection", PROJECTIONS[0]],
    }[command]
    argv += ["--out-dir", "out"] + (["--formats", formats] if formats is not None else [])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err and "csv,json,svg" in err
    assert os.listdir(tmp_path) == ["config.json"]


@settings(max_examples=200, deadline=None)
@given(_CONFIGS)
def test_config_faults_are_found_at_load(config):
    from rfa.cli.presets import ConfigError, Scenario, load_config, run_scenario

    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "config.json")
        with open(target, "w") as fh:
            json.dump(config, fh)
        try:
            scenario = load_config(target)
        except ConfigError:
            return
        assert isinstance(scenario, Scenario)
        try:
            run_scenario(scenario, out_dir=os.path.join(tmp, "out"))
        except ConfigError as exc:
            pytest.fail(f"run_scenario found a config fault that load_config passed: {exc}")
        except (ArithmeticError, OSError):
            pass


def test_run_scenario_parses_no_literals(monkeypatch, tmp_path):
    from rfa.cli import presets

    calls = []
    parse = presets.parse_fuzzy_literal
    monkeypatch.setattr(presets, "parse_fuzzy_literal", lambda text: calls.append(text) or parse(text))
    scenario = presets.load_config(dict(LINEAR_CONFIG))
    assert calls
    calls.clear()
    presets.run_scenario(scenario, out_dir=tmp_path)
    assert calls == []
