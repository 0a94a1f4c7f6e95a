"""What each command loads at start-up.

numpy is most of the package's start-up cost, and only the simplex in
``maxminlp.lp`` needs it, so ``lp`` is imported at call time by the code
that solves an LP and a command that solves none never loads numpy.  The
same holds for every layer: ``import maxminlp`` loads none, and a command
loads the layers it runs and the standard-library modules they use.
"""
import ast
import re
from pathlib import Path

import pytest

import maxminlp
from cli_child import python
from maxminlp.cli import main

PACKAGE = Path(maxminlp.__file__).resolve().parent


def eager_imports(source, functions=False):
    """Absolute names of the modules a source file imports while it loads.

    Function bodies run later, so imports inside them are left out unless
    ``functions`` is set; class bodies and top-level ``if`` and ``try``
    blocks run at import time and are counted.  ``from X import y`` counts
    both ``X`` and ``X.y``, since ``y`` may be a submodule.
    """
    names = set()
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not functions:
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


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, which cost more than any command's own
    # work at start-up; value classes are NamedTuples instead
    for path in sorted(PACKAGE.glob("*.py")):
        names = eager_imports(path.read_text(), functions=True)
        assert not _within(names, "dataclasses"), f"{path.name} imports dataclasses"


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


def test_the_deep_scan_sees_imports_inside_functions():
    source = "def f():\n    from dataclasses import replace"
    assert not _within(eager_imports(source), "dataclasses")
    assert _within(eager_imports(source, functions=True), "dataclasses")


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


def case(name, argv, expected):
    return pytest.param(argv, expected, id=name)


def command(name, *args, expected=False):
    return case(name, ("-m", "maxminlp", *args), expected)


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
    command("solve", "solve", "torus.json", expected=True),
    command(
        "run local-avg", "run", "torus.json", "--algorithm", "local-avg", "--radius", "1",
        expected=True,
    ),
    command(
        "eval under the cap", "eval", "torus.json", "safe.json", "--oracle-cap", "200",
        expected=True,
    ),
]


@pytest.fixture(scope="module")
def imported(inputs):
    """The modules a child interpreter imports for an argument list, in
    load order; each list is run once for every test that asks."""
    seen = {}

    def run(argv):
        if argv not in seen:
            proc = python("-X", "importtime", *argv, cwd=inputs)
            assert proc.returncode == 0, proc.stderr
            seen[argv] = re.findall(r"^import time:.*\|\s*(\S+)$", proc.stderr, re.M)
        return seen[argv]

    return run


@pytest.mark.parametrize("argv, loads", CASES)
def test_numpy_loads_only_where_a_simplex_runs(imported, argv, loads):
    names = imported(argv)
    assert "maxminlp" in names
    assert ("numpy" in names) is loads


SUBMODULES = tuple(
    f"maxminlp.{path.stem}" for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
)
# what a generator needs is the model and its own layer
NOT_FOR_GENERATORS = (
    "dataclasses", "inspect", "fractions", "csv", "numpy",
    "maxminlp.algorithms", "maxminlp.hypergraph", "maxminlp.lowerbound", "maxminlp.lp",
)
PINS = [
    case("import maxminlp", ("-c", "import maxminlp"), SUBMODULES),
    case(
        "import maxminlp.cli", ("-c", "import maxminlp.cli"),
        tuple(name for name in SUBMODULES if name not in ("maxminlp.cli", "maxminlp.evaluation")),
    ),
    command("gen-torus", "gen-torus", "--dim", "2", "--side", "3", "-o", "out.json",
            expected=NOT_FOR_GENERATORS),
    command("gen-random", "gen-random", "--agents", "8", "-o", "out.json",
            expected=NOT_FOR_GENERATORS),
    command("run safe", "run", "torus.json", "--algorithm", "safe",
            expected=("maxminlp.lowerbound", "maxminlp.generators", "fractions")),
]


@pytest.mark.parametrize("argv, unloaded", PINS)
def test_a_command_loads_only_what_it_runs(imported, argv, unloaded):
    names = imported(argv)
    assert "maxminlp" in names
    assert [module for module in unloaded if _within(names, module)] == []
