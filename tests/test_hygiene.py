"""Source hygiene: no unused import in a package module, and no
module-level function or class that nothing outside the tests loads."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "soscorr"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# files whose loads count as use; an import alone (the package's
# __init__ re-exports) does not
USERS = sorted(p for d in ("src", "perfbench", "demos")
               for p in (ROOT / d).rglob("*.py"))
# reached only from the tests: the single-ray oracle of the path matrix
# and the phantom-set evaluation that acceptance criterion 4 runs
TEST_ONLY = {"tomo.ray_weights", "pipeline.evaluate_phantom_set"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def loads(tree: ast.AST, attributes: bool) -> set[str]:
    """Names the code reads: bare names, and with attributes also the
    attribute of every obj.attr it reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (attributes and isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_import(path):
    tree = parse(path)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    assert sorted(imported - loads(tree, attributes=False)) == []


def test_every_definition_is_loaded():
    used = set().union(*(loads(parse(p), attributes=True) for p in USERS))
    unread = [
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert sorted(set(unread) - TEST_ONLY) == []
