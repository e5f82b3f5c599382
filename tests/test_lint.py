"""Static checks on the source, run as tests."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rfa"


def _targets(node):
    """The names an assignment target binds."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, (ast.Tuple, ast.List)):
        return [name for element in node.elts for name in _targets(element)]
    if isinstance(node, ast.Starred):
        return _targets(node.value)
    return []  # an attribute or a subscript binds no module name


def _bound(statement):
    """The module names a top-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [name for target in statement.targets for name in _targets(target)]
    if isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        return _targets(statement.target)
    if isinstance(statement, (ast.Import, ast.ImportFrom)):
        return [alias.asname or alias.name.partition(".")[0] for alias in statement.names]
    return []


@pytest.mark.parametrize("module", sorted(SRC.rglob("*.py")), ids=lambda path: str(path.relative_to(SRC)))
def test_no_module_binds_a_top_level_name_twice(module):
    # a second binding shadows the first for every caller after import, while
    # code run at import still saw the first one
    seen = {}
    twice = []
    for statement in ast.parse(module.read_text(), str(module)).body:
        for name in _bound(statement):
            if name in seen and name != "__all__":
                twice.append(f"{name} at lines {seen[name]} and {statement.lineno}")
            seen.setdefault(name, statement.lineno)
    assert not twice, twice
