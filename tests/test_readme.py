"""README's code blocks stay runnable."""

import json
import re
import shlex
from pathlib import Path

from rfa.cli.main import main
from rfa.cli.presets import Scenario, load_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(language: str, after: str) -> str:
    """The first fenced ``language`` block that follows the line ``after``."""
    tail = README[README.index(after):]
    return re.search(rf"```{language}\n(.*?)```", tail, re.S).group(1)


def test_library_quick_tour_runs():
    namespace = {}
    exec(_block("python", "## Library quick tour"), namespace)
    assert namespace["traj"].bands["w"].shape == (10001, 11, 2)


def test_readme_config_loads():
    scenario = load_config(json.loads(_block("json", "Config files are JSON")))
    assert isinstance(scenario, Scenario)
    assert (scenario.system, scenario.name, scenario.alphas) == ("linear", "decay", (0.0, 0.2, 0.4, 0.6, 0.8, 1.0))


def test_command_line_block_runs(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RFA_OUT_DIR", raising=False)
    (tmp_path / "run.json").write_text(_block("json", "Config files are JSON"))
    lines = _block("sh", "## Command line").splitlines()
    assert lines
    for k, line in enumerate(lines):
        program, *argv = shlex.split(line, comments=True)
        assert program == "rfa"
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), line
        if k == 0:
            assert out == line.split("# ")[1] + "\n"
