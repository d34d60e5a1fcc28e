"""The statement and branch findings of `scripts/branch_sweep.py`, on a
small module traced as the sweep traces l4sim."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "branch_sweep.py"
_spec = importlib.util.spec_from_file_location("branch_sweep", SCRIPT)
branch_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(branch_sweep)

MODULE = '''\
def pick(x):
    """Only ever called with a positive x."""
    if x > 0:
        return "positive"
    return "not positive"


def count_down(n):
    while n:
        n -= 1
    return n


def never():
    return 1


def guarded(x):
    if x:
        x += 1
    else:
        x -= 1
    return x


def raises(x):
    if x.missing:
        return 1
    return 0


def one_line(x):
    if x: return 1
    return 0


if __name__ == "__main__":
    never()
'''


def test_findings_of_a_traced_module(tmp_path):
    path = tmp_path / "swept.py"
    path.write_text(MODULE)
    spec = importlib.util.spec_from_file_location("swept", path)
    module = importlib.util.module_from_spec(spec)
    with branch_sweep.Recorder(tmp_path) as recorder:
        spec.loader.exec_module(module)
        module.pick(1)
        module.count_down(2)
        module.guarded(1)
        module.one_line(1)
        with pytest.raises(AttributeError):
            module.raises(object())  # a test that raises is taken neither way
    lines, steps = recorder.lines[str(path)], recorder.steps[str(path)]
    assert branch_sweep.findings(MODULE, lines, steps) == [
        (3, "if never false"),
        (5, "not run"),
        (15, "not run"),
        (19, "if never false"),
        (22, "not run"),
        (27, "if never false"),
        (27, "if never true"),
        (28, "not run"),
        (29, "not run"),
        (34, "not run"),  # one_line's `if`, sharing its body's line, is skipped
        (37, "if never true"),
        (38, "not run"),
    ]
