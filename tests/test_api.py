import ast
import re
from pathlib import Path

import maxminlp

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
