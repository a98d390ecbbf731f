"""Layout guard: every module of the package imports at module top.

The shared types (``Prompt``, ``Trajectory``, the modality names) live in
``xopd_lab.model``, so no module needs an import inside a function to get
round an import cycle.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "xopd_lab"


def _imports_inside_functions(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    hits.add(f"{path.name}:{node.lineno}")
    return hits


def test_no_import_inside_a_function_or_method():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    hits = sorted(h for path in modules for h in _imports_inside_functions(path))
    assert hits == [], f"imports inside functions: {hits}"
