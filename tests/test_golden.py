"""Golden-digest lock: the outputs of every preset, controller and seed pair
must stay byte-identical across commits.

Each run is a short preset run with timeline recording. Its digests are the
SHA-256 of the metrics CSV and the timeline CSV it writes (the files of
`l4sim run --out` and `--timeline`), compared against the checked-in
`golden_digests.json`. That file changes only with a deliberate change of
simulated behaviour or output format; regenerate it by running this module
as a script (`PYTHONPATH=src python tests/test_golden.py`).
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from l4sim.cc import ControllerKind
from l4sim.harness import PRESET_CASES, emit_metrics_csv, preset_scenario
from l4sim.sim import run_scenario

DIGEST_PATH = Path(__file__).resolve().parent / "golden_digests.json"
DURATION_S = 10.0
SEEDS = (1, 2)
MATRIX = [
    (case, kind, seed) for case in PRESET_CASES for kind in ControllerKind for seed in SEEDS
]


def run_key(case: str, kind: ControllerKind, seed: int) -> str:
    return f"{case}/{kind.value}/{seed}"


def run_digests(case: str, kind: ControllerKind, seed: int) -> dict[str, str]:
    """SHA-256 of the metrics and timeline CSV files the run writes."""
    scenario = preset_scenario(case, kind, seed=seed, duration_s=DURATION_S)
    metrics, log = run_scenario(scenario, timeline=True)
    with tempfile.TemporaryDirectory() as tmp:
        metrics_path, timeline_path = Path(tmp, "metrics.csv"), Path(tmp, "timeline.csv")
        emit_metrics_csv(metrics, str(metrics_path))
        log.to_csv(str(timeline_path))
        return {
            "metrics": hashlib.sha256(metrics_path.read_bytes()).hexdigest(),
            "timeline": hashlib.sha256(timeline_path.read_bytes()).hexdigest(),
        }


def load_digests() -> dict:
    with open(DIGEST_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_digest_file_covers_the_matrix():
    stored = load_digests()
    assert stored["duration_s"] == DURATION_S
    assert set(stored["runs"]) == {run_key(*triple) for triple in MATRIX}


@pytest.mark.parametrize(
    "case, kind, seed", MATRIX, ids=[run_key(*triple) for triple in MATRIX]
)
def test_outputs_match_golden_digests(case, kind, seed):
    assert run_digests(case, kind, seed) == load_digests()["runs"][run_key(case, kind, seed)]


def write_digests() -> None:
    runs = {run_key(*triple): run_digests(*triple) for triple in MATRIX}
    with open(DIGEST_PATH, "w", encoding="utf-8") as fh:
        json.dump({"duration_s": DURATION_S, "runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    write_digests()
