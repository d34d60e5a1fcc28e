"""Correctness checks: outcomes compared by named field.

Only the fields a reference names are compared, so a later change that adds
fields to `MetricsReport` does not trip the check; a field that is removed,
renamed or changes value does. Values must be equal exactly: the simulator
is deterministic for a given scenario and seed.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def diff_fields(expected: dict, observed: dict) -> list[str]:
    """Names of expected fields that are missing from, or differ in,
    `observed`, each with both values."""
    out = []
    for name, want in expected.items():
        if name not in observed:
            out.append(f"{name}: missing (expected {want!r})")
        elif observed[name] != want:
            out.append(f"{name}: {observed[name]!r} != expected {want!r}")
    return out


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def write_reference(outcomes: dict[str, dict[str, dict]], seed: int) -> None:
    data = {
        "seed": seed,
        "note": (
            "Simulated statistics of each workload lane at this seed. The model "
            "is unvalidated against the paper's figures (the repository holds "
            "none), so these pin behaviour, not accuracy."
        ),
        "workloads": outcomes,
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
