import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfa.cli.main import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def linear_config(tmp_path, **overrides):
    cfg = {
        "system": "linear",
        "basis": "tri(-0.5;0;0.51)",
        "params": {"lambda": "-0.5 + 0.8*A"},
        "initial": {"w": "2 + 2*A"},
        "t_span": [0.0, 1.0],
        "dt": 0.01,
        "name": "quick",
    }
    cfg.update(overrides)
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


def test_parse_errors_exit_2(capsys):
    assert run(capsys, "eval", "1 + * 2")[0] == 2
    assert run(capsys, "eval", "ghost + 1")[0] == 2
    assert run(capsys, "eval", "1", "--bind", "broken")[0] == 2


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


@pytest.mark.parametrize(
    "config, message",
    [
        ({"dt": "0.001"}, "dt must be a finite number"),
        ({"alphas": ["x"]}, "alpha must be a finite number"),
        ([1, 2], "must be a JSON object"),
        ({"name": "../escaped"}, "plain file name"),
        ({"t_span": 5}, "pair of times"),
        ({"stride": "2"}, "stride must be a positive integer"),
        ({"method": "euler"}, "unknown method"),
        ({"plot": "phase:x-vs-s"}, "two-variable"),
    ],
    ids=["string-dt", "string-alpha", "top-level-list", "name-escapes", "scalar-span",
         "string-stride", "unknown-method", "phase-of-one-variable"],
)
def test_bad_config_is_config_error_and_writes_nothing(capsys, tmp_path, config, message):
    if isinstance(config, dict):
        target = linear_config(tmp_path, **config)
    else:
        target = tmp_path / "config.json"
        target.write_text(json.dumps(config))
    out_dir = tmp_path / "out" / "nested"
    code, out, err = run(capsys, "solve", "linear", "--config", str(target), "--out-dir", str(out_dir))
    assert code == 2, err
    assert err.startswith("error: ") and message in err
    assert out == ""
    assert not (tmp_path / "out").exists()


def test_deep_nesting_is_a_parse_error(capsys):
    code, _, err = run(capsys, "eval", "(" * 3000 + "1" + ")" * 3000)
    assert code == 2
    assert "nests too deeply" in err


def test_long_flat_sums_still_evaluate(capsys):
    code, out, _ = run(capsys, "eval", "+".join(["1"] * 5000))
    assert code == 0
    assert out.strip() == "5000.0"


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
_FUNCTIONS = ("exp", "log", "sqrt", "conj", "norm", "polar", "psi_mul", "mystery")


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
