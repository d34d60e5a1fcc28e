"""Host speed probe: a fixed pure-Python loop timed next to every run.

The 2-vCPU virtual machine this benchmark was written on alternates between
speed regimes (other tenants on the same host): the same 120 s lane took
0.45 s or 0.8 s depending on the moment, switching within seconds or after
minutes. Timing
this loop right before and right after each run measures the regime the
run saw, and dividing the run's host time by it gives host time at a fixed
reference speed. On a 7-minute recording of `jitter-dense`, 30 s windows
read 142 to 195 sim_s/s raw (IQR/median 0.25) and 220 to 235 normalised
(0.03).

The loop does the kind of work the simulator's inner loop does (heap
pushes and pops of tuples, dict inserts and deletes, a seeded random
stream) and uses no l4sim code, so a change to l4sim cannot move it.
"""

import heapq
import random
import time

# Host seconds of `reference_loop_s` that define "reference speed": about
# its time in the faster regime of a 2 GHz Xeon virtual-machine vCPU.
REFERENCE_LOOP_S = 0.05

_ITERATIONS = 60_000
_WINDOW = 100


def reference_loop_s() -> float:
    """Host seconds taken by the fixed reference loop, now."""
    rng = random.Random(7)
    heap: list[tuple[float, int]] = []
    live: dict[int, tuple[int, int]] = {}
    start = time.perf_counter()
    for i in range(_ITERATIONS):
        heapq.heappush(heap, (rng.random(), i))
        live[i] = (i, 2 * i)
        if len(heap) > _WINDOW:
            heapq.heappop(heap)
            live.pop(i - _WINDOW, None)
    return time.perf_counter() - start


def at_reference_speed(host_s: float, loop_before_s: float, loop_after_s: float) -> float:
    """`host_s` rescaled to the reference speed, using the loop timings taken
    just before and just after the measured work."""
    return host_s * REFERENCE_LOOP_S / ((loop_before_s + loop_after_s) / 2.0)
