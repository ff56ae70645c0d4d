"""Source hygiene: no unused import in a package module, no
module-level function or class, and no class field, that nothing
outside the tests loads, and no test module or demo that fails to
import."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "soscorr"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted((ROOT / "tests").glob("test_*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# files whose loads count as use; an import alone (the package's
# __init__ re-exports) does not
USERS = sorted(p for d in ("src", "perfbench", "demos")
               for p in (ROOT / d).rglob("*.py"))
# reached only from the tests: the single-ray oracle of the path matrix
# and the phantom-set evaluation that acceptance criterion 4 runs
TEST_ONLY = {"tomo.ray_weights", "pipeline.evaluate_phantom_set"}
# classes whose fields may be read only by the tests: the per-phantom
# record of the phantom-set evaluation that acceptance criterion 4 scores
TEST_ONLY_FIELDS = {"pipeline.CaseResult"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def loads(tree: ast.AST) -> set[str]:
    """Names the code reads: bare names and the attribute of every
    obj.attr it reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
SCOPES = DEFINITIONS + (ast.Lambda,) + COMPREHENSIONS


def params(function: ast.AST) -> list[ast.arg]:
    a = function.args
    return [p for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs,
                        a.kwarg) if p is not None]


def outer_parts(scope: ast.AST) -> list[ast.AST]:
    """Parts of a scope's node that run in the enclosing scope:
    decorators, defaults, annotations, bases, a comprehension's first
    iterable."""
    if isinstance(scope, FUNCTIONS):
        parts = [*scope.args.defaults, *scope.args.kw_defaults]
        if not isinstance(scope, ast.Lambda):
            parts += [*scope.decorator_list, scope.returns,
                      *(p.annotation for p in params(scope))]
        return [p for p in parts if p is not None]
    if isinstance(scope, ast.ClassDef):
        return [*scope.decorator_list, *scope.bases, *scope.keywords]
    if isinstance(scope, COMPREHENSIONS):
        return [scope.generators[0].iter]
    return []


def unused_imports(source: str) -> list[str]:
    """Imported names that no read resolves to, scope by scope.

    A read resolves to the innermost enclosing scope that binds the
    name, skipping class bodies as Python does, so a parameter or local
    of the same name hides an import from the reads in its scope.
    """
    tree = ast.parse(source)
    binds, imports, reads, skip = {}, [], [], set()

    def visit(node, chain):
        if id(node) in skip:
            return
        if isinstance(node, SCOPES):
            outer = outer_parts(node)
            for part in outer:
                visit(part, chain)
            skip.update(map(id, outer))
            if isinstance(node, DEFINITIONS):
                binds[id(chain[-1])].add(node.name)
            chain = chain + [node]
            binds[id(node)] = set()
            if isinstance(node, FUNCTIONS):
                binds[id(node)].update(p.arg for p in params(node))
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                reads.append((chain, node.id))
            else:
                binds[id(chain[-1])].add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    binds[id(chain[-1])].add(name)
                    imports.append((chain[-1], name))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            binds[id(chain[-1])].add(node.name)
        for child in ast.iter_child_nodes(node):
            visit(child, chain)

    binds[id(tree)] = set()
    visit(tree, [tree])

    def resolve(chain, name):
        for depth, scope in enumerate(reversed(chain)):
            if depth and isinstance(scope, ast.ClassDef):
                continue
            if name in binds[id(scope)]:
                return scope
        return tree

    used = {(id(resolve(chain, name)), name) for chain, name in reads}
    return sorted(name for scope, name in imports
                  if (id(scope), name) not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, unused", [
    # a parameter of the same name hides the import from its reads
    ("from dataclasses import field\ndef f(field):\n    return field\n",
     ["field"]),
    ("import os\ndef f(os=None):\n    return [os for os in ()]\n", ["os"]),
    # reads through a nested function, an annotation and a class body
    ("import os\ndef f():\n    def g():\n        return os\n    return g\n",
     []),
    ("from pathlib import Path\ndef f(p: Path):\n    return p\n", []),
    ("import os\nclass C:\n    os = 1\n    def g(self):\n        return os\n",
     []),
    ("def f():\n    import os\n    return os\n", []),
], ids=["parameter", "default-and-comprehension", "nested-function",
        "annotation", "class-body", "function-import"])
def test_unused_imports_resolves_scopes(source, unused):
    assert unused_imports(source) == unused


def test_every_definition_is_loaded():
    used = set().union(*(loads(parse(p)) for p in USERS))
    unread = [
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert sorted(set(unread) - TEST_ONLY) == []


def test_every_dataclass_field_is_read():
    """Every annotated field of a package class is read by name
    somewhere outside the tests. The match is by name, so a field that
    shares its name with another read does not show."""
    used = set().union(*(loads(parse(p)) for p in USERS))
    unread = [
        f"{path.stem}.{node.name}.{item.target.id}"
        for path in MODULES
        for node in parse(path).body
        if isinstance(node, ast.ClassDef)
        and f"{path.stem}.{node.name}" not in TEST_ONLY_FIELDS
        for item in node.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and item.target.id not in used
    ]
    assert unread == []


def calls_json_dumps(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "dumps" and isinstance(n.func.value, ast.Name)
               and n.func.value.id == "json" for n in ast.walk(node))


def test_one_record_writer():
    """Metrics records have one writer: json.dumps is called only inside
    pipeline.write_record."""
    callers = [
        f"{path.stem}.{getattr(node, 'name', '<module>')}"
        for path in MODULES
        for node in parse(path).body
        if calls_json_dumps(node)
    ]
    assert callers == ["pipeline.write_record"]


def import_file(path: Path) -> None:
    spec = importlib.util.spec_from_file_location(f"_import_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.stem)
def test_test_module_imports(path):
    """A test module that fails to import is a failed test here, not
    only a collection error that a run with
    --continue-on-collection-errors steps over."""
    import_file(path)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    """A name a demo imports that the package no longer defines fails
    here, not only when the demo runs. Each demo's work sits behind its
    __main__ guard, so the import runs none of it."""
    import_file(path)
