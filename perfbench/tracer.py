"""Benchmark-local tracer: spans around l4sim's layer entry points.

Nothing here changes l4sim. `instrument` replaces the listed entry points
with timing wrappers for the duration of a `with` block and puts the
originals back on exit, so untraced runs execute the unmodified code.

Spans are kept in memory as parallel arrays (name id, parent index, start,
end), which keeps a traced 120 s run of about 10^6 spans near 24 bytes per
span. A layer's self time is the time of its spans minus the part covered by
their direct children.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

NO_PARENT = -1

# Span name -> layer. Names match the wrapped entry points.
SPAN_LAYER = {
    "sim.run_scenario": "sim",
    "aqm.enqueue": "aqm",
    "aqm.dequeue": "aqm",
    "aqm.pi2_update": "aqm",
    "netem.serialization_us": "netem",
    "netem.deliver": "netem",
    "netem.capacity_at": "netem",
    "media.source.encode_tick": "media.source",
    "media.source.make_retransmit": "media.source",
    "media.receiver.on_packet": "media.receiver",
    "media.receiver.playout_tick": "media.receiver",
    "media.receiver.build_feedback": "media.receiver",
    "media.receiver.finalize": "media.receiver",
    "cc.update": "cc",
    "cc.trendline_slope": "cc",
    "core.apply_ce_mark": "core",
    "harness.preset_scenario": "harness.setup",
    "harness.compute_metrics": "harness.metrics",
    "cli.main": "cli",
    "cli.emit_metrics_csv": "cli.emit",
    "cli.timeline_to_csv": "cli.emit",
}


class Tracer:
    """Records nested spans and boundary counters in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [NO_PARENT]
        self.counts: Counter[str] = Counter()

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[[Counter, tuple, object], None] | None = None,
    ) -> Callable:
        """Return `fn` wrapped in a span called `name`. `on_result` sees the
        call's arguments and result, to count work at the same boundary."""
        nid = self._intern(name)
        clock = self.clock
        stack = self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span_count(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p != NO_PARENT:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def top_level_s(self) -> float:
        """Time covered by spans without a parent: the traced total."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.parent[i] == NO_PARENT
        )

    def write(self, path: Path) -> None:
        """One JSON header line, then the name_id, parent, start and end
        arrays in native byte order."""
        header = {"names": self.names, "spans": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path: Path) -> tuple[list[str], array, array, array, array]:
    """Inverse of `Tracer.write`: (names, name_id, parent, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header["names"], *arrays)


def layer_seconds(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self seconds summed per layer."""
    out: dict[str, float] = {}
    for name, row in summary.items():
        layer = SPAN_LAYER[name]
        out[layer] = out.get(layer, 0.0) + row["self_s"]
    return out


# -- boundary counters --------------------------------------------------------


def _count_encode(counts: Counter, _args: tuple, packets) -> None:
    counts["media.packets_built"] += len(packets)


def _count_retransmit(counts: Counter, _args: tuple, packet) -> None:
    if packet is not None:
        counts["media.retransmits"] += 1


def _count_metrics(counts: Counter, _args: tuple, report) -> None:
    counts["aqm.drops"] += report.drop_count


def _count_timeline(counts: Counter, args: tuple, _result) -> None:
    counts["cli.timeline_rows"] += len(args[0].rows)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap l4sim's layer entry points for the duration of the block.

    Module-level functions are replaced in every module that calls them by
    name, because `from x import f` binds the name in the caller's
    namespace. A missing entry point raises KeyError naming it.
    """
    from l4sim import aqm, cc, cli, harness, media, netem, sim
    from l4sim.core import EcnCodepoint

    def count_dequeue(counts: Counter, _args: tuple, packet) -> None:
        # ECT(1) and CE packets are the ones the low-latency queue serves.
        if packet is not None and packet.ecn in (EcnCodepoint.ECT1, EcnCodepoint.CE):
            counts["aqm.l_dequeues"] += 1
            if packet.ecn is EcnCodepoint.CE:
                counts["aqm.marks"] += 1

    targets = [
        (aqm.DualPi2, "enqueue", "aqm.enqueue", None),
        (aqm.DualPi2, "dequeue", "aqm.dequeue", count_dequeue),
        (aqm.DualPi2, "pi2_update", "aqm.pi2_update", None),
        (netem.ForwardLink, "serialization_us", "netem.serialization_us", None),
        (netem.ForwardLink, "deliver", "netem.deliver", None),
        (netem, "capacity_at", "netem.capacity_at", None),
        (media.MediaSource, "encode_tick", "media.source.encode_tick", _count_encode),
        (media.MediaSource, "make_retransmit", "media.source.make_retransmit", _count_retransmit),
        (media.Receiver, "on_packet", "media.receiver.on_packet", None),
        (media.Receiver, "playout_tick", "media.receiver.playout_tick", None),
        (media.Receiver, "build_feedback", "media.receiver.build_feedback", None),
        (media.Receiver, "finalize", "media.receiver.finalize", None),
        (cc, "trendline_slope", "cc.trendline_slope", None),
        (aqm, "apply_ce_mark", "core.apply_ce_mark", None),
        (harness, "compute_metrics", "harness.compute_metrics", _count_metrics),
        (harness, "preset_scenario", "harness.preset_scenario", None),
        (cli, "preset_scenario", "harness.preset_scenario", None),
        (sim, "run_scenario", "sim.run_scenario", None),
        (cli, "run_scenario", "sim.run_scenario", None),
        (cli, "main", "cli.main", None),
        (harness, "emit_metrics_csv", "cli.emit_metrics_csv", None),
        (cli, "emit_metrics_csv", "cli.emit_metrics_csv", None),
        (sim.TimelineLog, "to_csv", "cli.timeline_to_csv", _count_timeline),
    ]
    originals = []
    try:
        for owner, attr, name, on_result in targets:
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, on_result))
        original_make = vars(sim)["make_controller"]
        originals.append((sim, "make_controller", original_make))

        def make_traced_controller(*args, **kwargs):
            controller = original_make(*args, **kwargs)
            controller.update = tracer.wrap("cc.update", controller.update)
            return controller

        sim.make_controller = make_traced_controller
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
