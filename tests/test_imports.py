"""Every import in `src/l4sim` runs when its module loads, save two.

An import inside a function is how a cycle between two modules gets
hidden, so a new one fails here until it is added below with its reason.
"""

import ast
from pathlib import Path

import l4sim

PACKAGE = Path(l4sim.__file__).parent

# (module, function, import) of each import allowed inside a function.
DEFERRED = {
    # harness builds on sim, so sim reaches back into it only at run time
    # (DECISIONS.md entry 11; ROADMAP item 1c).
    ("sim.py", "run_scenario", "from .harness import compute_metrics"),
    # Only a parallel comparison needs a process pool.
    ("harness.py", "run_comparison", "import concurrent.futures"),
}


def deferred_imports(path: Path) -> set[tuple[str, str, str]]:
    """(module, innermost function or class, import) of each import in
    `path` that is not a statement of the module itself, including calls of
    `__import__` and `importlib.import_module`."""
    found = set()

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name)
                continue
            if owner is not None:
                dynamic = isinstance(child, ast.Call) and (
                    (isinstance(child.func, ast.Name) and child.func.id == "__import__")
                    or (isinstance(child.func, ast.Attribute) and child.func.attr == "import_module")
                )
                if isinstance(child, (ast.Import, ast.ImportFrom)) or dynamic:
                    found.add((path.name, owner, ast.unparse(child)))
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_the_known_imports_are_deferred():
    found = set().union(*(deferred_imports(p) for p in sorted(PACKAGE.glob("*.py"))))
    assert found == DEFERRED


def test_the_scan_sees_imports_in_functions_and_classes(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "import os\n"
        "def f():\n    import json\n    def g():\n        from . import x\n"
        "class C:\n    import re\n    def h(self):\n        __import__('abc')\n"
        "if os:\n    import sys\n"
    )
    assert deferred_imports(source) == {
        ("m.py", "f", "import json"),
        ("m.py", "g", "from . import x"),
        ("m.py", "C", "import re"),
        ("m.py", "h", "__import__('abc')"),
    }
