"""The scenarios `scripts/step_threshold_sweep.py` runs."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from l4sim.aqm import DualPi2Config
from l4sim.cc import ControllerKind
from l4sim.harness import preset_scenario

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "step_threshold_sweep.py"
_spec = importlib.util.spec_from_file_location("step_threshold_sweep", SCRIPT)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


@pytest.mark.parametrize("threshold_ms, step_us", [(1.5, 1_500), (3.2, 3_200), (None, 1_000)])
def test_builder_sets_the_step_threshold_and_nothing_else(threshold_ms, step_us):
    built = sweep.scenario("case4c", ControllerKind.L4S_GCC, 3, threshold_ms)
    preset = preset_scenario("case4c", ControllerKind.L4S_GCC, seed=3)
    assert built == replace(preset, aqm=DualPi2Config(l4s_step_threshold_us=step_us))
