"""One set-up sample, in a fresh interpreter: import l4sim (package and CLI)
and build and validate every scenario of a workload, as a user's process
does before its first event. Prints the seconds taken.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    import l4sim  # noqa: F401
    import l4sim.cli  # noqa: F401

    # Imported after l4sim so that the standard modules both need are
    # charged to l4sim; this module itself adds well under a millisecond.
    from workloads import WORKLOADS, build_scenario

    for lane in WORKLOADS[workload]:
        build_scenario(lane, seed).validate()
    elapsed = time.perf_counter() - start
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
