"""Which code loads numpy.

numpy is most of the package's start-up cost, and only the simplex in
``maxminlp.lp`` needs it, so ``lp`` is imported at call time by the code
that solves an LP and a command that solves none never loads numpy.
"""
import ast
import re
from pathlib import Path

import pytest

import maxminlp
from cli_child import python
from maxminlp.cli import main

PACKAGE = Path(maxminlp.__file__).resolve().parent


def eager_imports(source):
    """Absolute names of the modules a source file imports while it loads.

    Function bodies run later, so imports inside them are left out; class
    bodies and top-level ``if`` and ``try`` blocks run at import time and
    are counted.  ``from X import y`` counts both ``X`` and ``X.y``, since
    ``y`` may be a submodule.
    """
    names = set()
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"maxminlp.{base}" if base else "maxminlp"
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
        todo.extend(ast.iter_child_nodes(node))
    return names


def _within(names, module):
    return any(name == module or name.startswith(module + ".") for name in names)


def test_only_lp_imports_numpy_and_no_module_imports_lp_while_loading():
    sources = sorted(PACKAGE.glob("*.py"))
    assert {path.name for path in sources} >= {"__init__.py", "cli.py", "lp.py"}
    for path in sources:
        names = eager_imports(path.read_text())
        assert not _within(names, "maxminlp.lp"), f"{path.name} imports lp while loading"
        if path.name == "lp.py":
            assert "numpy" in names
        else:
            assert not _within(names, "numpy"), f"{path.name} imports numpy while loading"


@pytest.mark.parametrize(
    "source, found",
    [
        ("import numpy as np", True),
        ("from numpy.linalg import solve", True),
        ("try:\n    import numpy\nexcept ImportError:\n    pass", True),
        ("class A:\n    import numpy", True),
        ("def f():\n    import numpy", False),
        ("class A:\n    def f(self):\n        from numpy import zeros", False),
        ("import numbers", False),
    ],
)
def test_the_scan_sees_numpy_wherever_it_loads_with_the_module(source, found):
    assert _within(eager_imports(source), "numpy") is found


@pytest.mark.parametrize(
    "source",
    ["from .lp import solve_maxmin", "from . import lp", "import maxminlp.lp",
     "from maxminlp import lp"],
)
def test_the_scan_sees_every_spelling_of_an_lp_import(source):
    assert _within(eager_imports(source), "maxminlp.lp")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    torus, safe = root / "torus.json", root / "safe.json"
    assert main(["gen-torus", "--dim", "2", "--side", "3", "-o", str(torus)]) == 0
    assert main(["run", str(torus), "--algorithm", "safe", "-o", str(safe)]) == 0
    return root


TREE = ("-d", "1", "-D", "1", "-r", "1", "-R", "2", "--seed", "0")


def case(name, argv, loads):
    return pytest.param(argv, loads, id=name)


def command(name, *args, loads=False):
    return case(name, ("-m", "maxminlp", *args), loads)


CASES = [
    case("import maxminlp", ("-c", "import maxminlp"), False),
    case("import maxminlp.cli", ("-c", "import maxminlp.cli"), False),
    command("gen-torus", "gen-torus", "--dim", "2", "--side", "3", "-o", "out.json"),
    command("gen-random", "gen-random", "--agents", "8", "-o", "out.json"),
    command("gen-lowerbound", "gen-lowerbound", *TREE, "-o", "out.json"),
    command("run safe", "run", "torus.json", "--algorithm", "safe"),
    command("growth", "growth", "torus.json", "--radius", "1"),
    command("adversary safe", "adversary", "--algorithm", "safe", *TREE),
    command("eval above the cap", "eval", "torus.json", "safe.json", "--oracle-cap", "1"),
    command("solve", "solve", "torus.json", loads=True),
    command(
        "run local-avg", "run", "torus.json", "--algorithm", "local-avg", "--radius", "1",
        loads=True,
    ),
    command(
        "eval under the cap", "eval", "torus.json", "safe.json", "--oracle-cap", "200",
        loads=True,
    ),
]


@pytest.mark.parametrize("argv, loads", CASES)
def test_numpy_loads_only_where_a_simplex_runs(inputs, argv, loads):
    proc = python("-X", "importtime", *argv, cwd=inputs)
    assert proc.returncode == 0, proc.stderr
    imported = re.findall(r"^import time:.*\|\s*(\S+)$", proc.stderr, re.M)
    assert "maxminlp" in imported
    assert ("numpy" in imported) is loads
