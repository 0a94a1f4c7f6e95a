import ast
import json
import re
from pathlib import Path

import pytest

import maxminlp
from cli_child import cli
from maxminlp.algorithms import make_algorithm, run_local
from maxminlp.cli import main
from maxminlp.evaluation import evaluate, objective
from maxminlp.generators import gen_torus
from maxminlp.lowerbound import parity_solution
from maxminlp.lp import solve_maxmin
from maxminlp.model import Instance, assignment_from_dict, load_instance, load_json

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_surface_is_the_readme_library_snippet(capsys):
    text = README.read_text()
    snippet = re.search(r"## Library use\s+```python\n(.*?)```", text, re.S).group(1)
    imported = [
        alias.name
        for node in ast.walk(ast.parse(snippet))
        if isinstance(node, ast.ImportFrom) and node.module == "maxminlp"
        for alias in node.names
    ]
    assert sorted(maxminlp.__all__) == sorted(imported)
    exec(compile(snippet, "README.md", "exec"), {})
    omega, ratio, certificate = map(float, capsys.readouterr().out.split())
    assert omega > 0 and ratio >= 1 and certificate >= ratio


def _references(tree, skip):
    """Names that ``tree`` uses, reads as attributes or imports, outside ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_top_level_definition_in_src_has_a_caller_in_src():
    # code that only the tests call belongs in tests/oracles.py, not the package
    package = Path(maxminlp.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__"):
                continue
            if not any(node.name in _references(other, node) for other in trees.values()):
                unused.append(f"{name}:{node.name}")
    assert unused == []


def test_an_assignment_is_a_plain_dict_and_a_torus_its_four_arguments(tmp_path):
    inst = gen_torus(2, 8, True, 11)
    assert inst == gen_torus(dim=2, side=8, perturb=True, seed=11)
    path = tmp_path / "torus.json"
    proc = cli("gen-torus", "--dim", "2", "--side", "8", "--perturb", "--seed", "11",
               "-o", str(path))
    assert proc.returncode == 0, proc.stderr
    assert load_instance(path) == inst

    pair = Instance((0, 1), {0: {0: 1.0, 1: 1.0}}, {1: {0: 1.0}})
    results = [
        run_local(inst, make_algorithm("safe")),
        solve_maxmin(inst)[0],
        assignment_from_dict({"values": {"0": 0.5, "1": 0.25}}),
        parity_solution(pair, 0),
    ]
    assert [type(x) for x in results] == [dict] * 4
    safe, optimum = results[:2]
    assert evaluate(inst, safe)["omega"] == objective(inst, safe) > 0
    assert objective(inst, optimum) == evaluate(inst, optimum)["omega"] > 0


@pytest.mark.parametrize("algorithm, radius", [
    (("local-avg", "--radius", "2"), ("--radius", "2")),
    (("zero",), ()),
])
def test_evaluate_returns_the_report_eval_writes(tmp_path, algorithm, radius):
    # the second assignment earns nothing, so its ratio is unbounded
    inst, x, out = (tmp_path / name for name in ("torus.json", "x.json", "report.json"))
    assert main(["gen-torus", "--dim", "2", "--side", "8", "--perturb", "--seed", "11",
                 "-o", str(inst)]) == 0
    assert main(["run", str(inst), "--algorithm", *algorithm, "-o", str(x)]) == 0
    assert main(["eval", str(inst), str(x), *radius, "-o", str(out)]) == 0
    report = evaluate(load_instance(inst), assignment_from_dict(load_json(x)),
                      R=int(radius[1]) if radius else None)
    assert type(report) is dict
    written = json.loads(out.read_text())
    del written["config"]
    assert report == written
    assert (report["ratio"] == "unbounded") == (algorithm == ("zero",))
