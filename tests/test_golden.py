"""Every preset export and calculus reference output against the golden file.

``tests/golden/export_digests.txt`` is the output of
``tools/export_digests.py``; this test produces the same lines in process.
A change that moves an output on purpose rewrites the file with that tool.
"""

import difflib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "export_digests.txt"


def _tool():
    spec = importlib.util.spec_from_file_location("export_digests", ROOT / "tools" / "export_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_golden_digests(tmp_path):
    tool = _tool()
    recorded, *expected = GOLDEN.read_text().splitlines()
    if tool.platform_line() != recorded:
        pytest.fail(f"the golden digests were recorded on another platform: {recorded!r}, here {tool.platform_line()!r}")
    produced = [*tool.export_lines(tmp_path), *tool.calculus_lines()]
    diff = "\n".join(difflib.unified_diff(expected, produced, "golden", "produced", lineterm=""))
    assert not diff, diff
