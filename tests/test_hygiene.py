"""Source hygiene: no unused import in a package module, no
module-level function or class, and no class field, that nothing
outside the tests loads, no test module or demo that fails to
import, no config value that no config-file key sets, and one line
per config-file key."""

import ast
import dataclasses
import importlib.util
import re
from pathlib import Path

import pytest

from soscorr.kernels import KERNEL_SOURCE
from soscorr.pipeline import _FIELDS, PipelineConfig, dump_config, load_config
from soscorr.synthsim import Inclusion

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "soscorr"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted((ROOT / "tests").glob("test_*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# files whose loads count as use; an import alone (the package's
# __init__ re-exports) does not
USERS = sorted(p for d in ("src", "perfbench", "demos")
               for p in (ROOT / d).rglob("*.py"))
# reached only from the tests: the single-ray oracle of the path matrix.
# Each exemption must still hold, so a stale one fails the suite.
TEST_ONLY = {"tomo.ray_weights"}
# classes whose fields may be read only by the tests: the reconstruction
# result, whose clamped_fraction acceptance criterion 4 prints per case
# (reconstruct.json writes the value the solve returns, not the field).
# Each class must still have a field read only by the tests.
TEST_ONLY_FIELDS = {"pipeline.ReconResult"}


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
    assert sorted(TEST_ONLY - set(unread)) == []


def test_every_dataclass_field_is_read():
    """Every annotated field of a package class is read by name
    somewhere outside the tests. The match is by name, so a field that
    shares its name with another read does not show."""
    used = set().union(*(loads(parse(p)) for p in USERS))
    unread = [
        (f"{path.stem}.{node.name}", item.target.id)
        for path in MODULES
        for node in parse(path).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and item.target.id not in used
    ]
    assert [f"{cls}.{name}" for cls, name in unread
            if cls not in TEST_ONLY_FIELDS] == []
    assert sorted(TEST_ONLY_FIELDS - {cls for cls, _ in unread}) == []


def test_every_config_field_is_a_file_key():
    """PipelineConfig's fields are those the config-file keys set and
    the worker count that --threads sets: no knob is settable in code
    alone. No field holds a dataclass, whose own fields would be knobs
    without a key."""
    cfg = PipelineConfig()
    names = [f.name for f in dataclasses.fields(cfg)]
    assert sorted(names) == sorted([row[2] for row in _FIELDS] + ["threads"])
    assert [n for n in names if dataclasses.is_dataclass(getattr(cfg, n))] == []


def test_one_key_line_per_field_row(tmp_path):
    """dump_config writes one `key =` line per _FIELDS row, in table
    order, also for a multi-line value; load_config reads the file back
    to the same config. Two overlapping inclusions keep their order."""
    incs = (Inclusion("ellipse", (0.0, 0.02), (4e-3, 3e-3), 1540.0),
            Inclusion("rectangle", (1e-3, 0.02), (2e-3, 2e-3), 1480.0))
    assert all(inc.contains(1e-3, 0.02) for inc in incs)
    cfg = PipelineConfig(inclusions=incs)
    text = dump_config(cfg)
    assert re.findall(r"^(\w+) =", text, re.M) == [row[1] for row in _FIELDS]
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    back = load_config(path)
    assert back == cfg
    assert back.inclusions == incs


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


def test_one_way_in():
    """One way into each command: no package module branches on whether
    an argument is a path, by calling isinstance with Path or str in its
    type argument."""
    branches = [
        f"{path.stem}.{getattr(node, 'name', '<module>')}"
        for path in MODULES
        for node in parse(path).body
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id == "isinstance" and len(call.args) == 2
        and loads(call.args[1]) & {"Path", "str"}
    ]
    assert branches == []


# modules that only compute: they open and write no file
NUMERICAL = ("geometry", "beamform", "delaytrack", "regress", "tomo",
             "metrics")
FILE_WRITES = {"open", "write_text", "write_bytes", "savetxt", "tofile"}


def called_names(node: ast.AST) -> set[str]:
    """Names of the functions and methods a node calls."""
    return {n.func.id if isinstance(n.func, ast.Name) else n.func.attr
            for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, (ast.Name, ast.Attribute))}


def imported(tree: ast.AST) -> set[str]:
    """Dotted names of the modules, and the names from them, that a
    tree imports: scipy.sparse for "import scipy.sparse as sp" and for
    "from scipy import sparse" alike."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            names |= {a.name for a in n.names}
        elif isinstance(n, ast.ImportFrom) and n.module and not n.level:
            names |= {n.module} | {f"{n.module}.{a.name}" for a in n.names}
    return names


def test_one_table_writer():
    """CSV tables have one writer, np.savetxt, called outside the
    numerical modules: no package module imports csv, and none of
    NUMERICAL opens or writes a file."""
    importers = [path.stem for path in MODULES
                 if "csv" in imported(parse(path))]
    writers = [
        f"{path.stem}.{getattr(node, 'name', '<module>')}"
        for path in MODULES if path.stem in NUMERICAL
        for node in parse(path).body
        if called_names(node) & FILE_WRITES
    ]
    assert (importers, writers) == ([], [])


def test_one_sparse_module():
    """tomo, whose path matrix and TV operator are sparse, is the one
    package module that imports scipy.sparse: the simulator sums its
    pulses with NumPy where no compiled pass runs."""
    importers = [path.stem for path in MODULES
                 if any(name == "scipy.sparse" or name.startswith(
                     "scipy.sparse.") for name in imported(parse(path)))]
    assert importers == ["tomo"]


def test_one_frame_codec():
    """Frames have one writer and one reader, each of which hashes the
    buffers it moves: sha256 is called only in synthsim.write_frame and
    synthsim.read_frame, and in kernels.load_kernel, which names its
    cached library by the kernel's source and build command, not by a
    frame. Frames are the package's only binary files, so
    no package module reads or writes a file whole as bytes, which
    would hash or decode a copy of a frame."""
    hashers = [
        f"{path.stem}.{getattr(node, 'name', '<module>')}"
        for path in MODULES
        for node in parse(path).body
        if "sha256" in called_names(node)
    ]
    whole = [
        f"{path.stem}.{getattr(node, 'name', '<module>')}"
        for path in MODULES
        for node in parse(path).body
        if called_names(node) & {"read_bytes", "write_bytes"}
    ]
    assert (hashers, whole) == (["kernels.load_kernel",
                                 "synthsim.write_frame",
                                 "synthsim.read_frame"], [])


# the names kernels binds to the library and to the passes it picks
PASS_NAMES = {"LIBRARY", "DAS", "TRACE", "SYNTH", "SINC", "SOLVE", "SELL",
              "NCC"}


def test_one_pass_owner():
    """kernels picks and names the compiled passes, and the callers read
    its choice at call time: no other package module loads LIBRARY,
    imports one of PASS_NAMES from kernels, or binds a module-level
    name to a library function."""
    owners = [
        f"{path.stem}.{getattr(node, 'name', '<module>')}"
        for path in MODULES if path.stem != "kernels"
        for node in parse(path).body
        if "LIBRARY" in loads(node)
        or isinstance(node, ast.ImportFrom) and node.module == "kernels"
        and {a.name for a in node.names} & PASS_NAMES
        or isinstance(node, (ast.Assign, ast.AnnAssign))
        and node.value is not None and loads(node.value) & PASS_NAMES
    ]
    assert owners == []


def test_kernel_source_is_package_data():
    """The C source the kernels module builds its library from is listed
    as package data: setuptools' package finder ships only .py files, so
    without the entry every installed copy would run the NumPy passes."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    listed = project["tool"]["setuptools"]["package-data"]["soscorr"]
    assert KERNEL_SOURCE.parent == PACKAGE
    assert KERNEL_SOURCE.name in listed


def test_kernel_source_includes_no_libm():
    """kernels.c includes no <math.h> (nor <tgmath.h>), so no compiled
    pass calls a libm function and its bytes never rest on libm
    matching NumPy's loops."""
    includes = re.findall(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]',
                          KERNEL_SOURCE.read_text(), re.M)
    assert "stdint.h" in includes
    assert {"math.h", "tgmath.h"} & set(includes) == set()


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
