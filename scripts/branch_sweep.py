#!/usr/bin/env python3
"""List each statement of l4sim that no test runs, and each `if` or `while`
that the tests take one way only.

The script runs pytest in this process under `sys.settrace`, tracing only the
frames whose code lies in `src/l4sim`. It records the lines each frame runs
and each step from one line to the next, then reads every module's syntax
tree and prints one line per finding, in file and line order:

    src/l4sim/cc.py:549: if never false
    src/l4sim/cc.py:551: not run

A branch counts as taken when the first statement of its body ran, and an
`if` or `while` without an `else` counts as false when its test went on to a
line outside the statement or to the end of the function. A branch whose
body shares its test's line, and the false side of `while True`, cannot be
told apart and are skipped.

Example:
    python3 scripts/branch_sweep.py               # the repo's test paths
    python3 scripts/branch_sweep.py tests/test_media.py -q

Arguments go to pytest unchanged; the exit status is pytest's. Tracing makes
the run about ten times as slow as an untraced one, so the sweep is no part
of the test suite. Standard library only, apart from pytest itself.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "l4sim"
RETURN = -1  # the step target of a frame's return


class Recorder:
    """Trace function for the frames of files under `root`: per file, the
    lines run and the (line, next line) steps, where the next line is
    `RETURN` when the frame returns. An exception ends a step."""

    def __init__(self, root: Path) -> None:
        self.root = str(root)
        self.lines: dict[str, set[int]] = {}
        self.steps: dict[str, set[tuple[int, int]]] = {}

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.root):
            return None
        lines = self.lines.setdefault(filename, set())
        steps = self.steps.setdefault(filename, set())
        last = None

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                lines.add(frame.f_lineno)
                if last is not None:
                    steps.add((last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "return" and last is not None:
                steps.add((last, RETURN))
            elif event == "exception":
                last = None
            return local

        return local

    def __enter__(self) -> Recorder:
        self._previous = sys.gettrace()
        sys.settrace(self)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str)


def _own_lines(node: ast.stmt) -> range:
    """The lines of `node` that are not those of a statement inside it: a
    simple statement's, or a compound one's header with its decorators."""
    start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    body = getattr(node, "body", None)
    end = body[0].lineno if body else node.end_lineno + 1
    return range(start, max(end, start + 1))


def findings(source: str, lines: set[int], steps: set[tuple[int, int]]) -> list[tuple[int, str]]:
    """(line, finding) for module `source`, given the lines its frames ran and
    their steps: each statement not run, and each `if` or `while` that ran
    and was never true, or never false."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or _is_docstring(node):
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if not lines.intersection(_own_lines(node)):
            found.append((node.lineno, "not run"))
            continue
        if not isinstance(node, (ast.If, ast.While)):
            continue
        test = range(node.lineno, node.test.end_lineno + 1)
        if node.body[0].lineno in test:
            continue
        kind = type(node).__name__.lower()
        if not lines.intersection(_own_lines(node.body[0])):
            found.append((node.lineno, f"{kind} never true"))
        if isinstance(node.test, ast.Constant) and node.test.value:
            continue
        if node.orelse:
            false = bool(lines.intersection(_own_lines(node.orelse[0])))
        else:
            inside = range(node.lineno, node.end_lineno + 1)
            false = any(a in test and b not in inside for a, b in steps)
        if not false:
            found.append((node.lineno, f"{kind} never false"))
    return sorted(found)


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    with Recorder(PACKAGE) as recorder:
        status = pytest.main(list(sys.argv[1:] if argv is None else argv))
    for path in sorted(PACKAGE.rglob("*.py")):
        name = str(path)
        lines, steps = recorder.lines.get(name, set()), recorder.steps.get(name, set())
        for lineno, finding in findings(path.read_text(encoding="utf-8"), lines, steps):
            print(f"{path.relative_to(ROOT)}:{lineno}: {finding}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
