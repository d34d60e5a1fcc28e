"""Queue disciplines at the bottleneck.

Both disciplines are built from byte-capped FIFOs (`ByteFifo`). `DropTail`
is one FIFO that drops only on overflow. `DualPi2` is the dual-queue coupled
AQM: a low-latency (L) FIFO and a classic (C) FIFO served by a time-shifted
scheduler, plus one PI controller on C-queue delay whose base probability p
is applied squared as the C drop probability and coupled (k*p, plus a
sojourn step threshold) as the L mark probability.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Annotated, Callable, Optional

from .core import DELAY_US, GAIN, PERIOD_US, Config, EcnCodepoint, Packet, Range, SimTime
from .core import apply_ce_mark

# Observer callback: (event, packet, now). Events: "overflow", "drop", "mark".
AqmObserver = Callable[[str, Packet, SimTime], None]

DEFAULT_QUEUE_LIMIT_BYTES = 375_000
# A byte cap of up to 1 GB, more than any bottleneck buffer holds.
QUEUE_BYTES = Range(1, 1_000_000_000)

# ECT(1) is L4S traffic; ECT(0) and Not-ECT are classic. A CE packet may have
# been ECT(0) upstream, but RFC 9331 has a node classify CE as L4S by
# default: the safe choice, as it keeps an L4S packet that was marked
# earlier on its path in order with the rest of its flow.
_L4S_CODEPOINTS = frozenset((EcnCodepoint.ECT1, EcnCodepoint.CE))
# A plain name: an attribute lookup on the enum class is slow.
_CE = EcnCodepoint.CE


@dataclass(frozen=True)
class DualPi2Config(Config):
    """PI gains are per second of delay error per second; durations in us."""

    target_delay_us: Annotated[SimTime, DELAY_US] = 15_000
    t_update_us: Annotated[SimTime, PERIOD_US] = 16_000
    alpha: Annotated[float, GAIN] = 0.16
    beta: Annotated[float, GAIN] = 3.2
    coupling_k: Annotated[float, Range(1.0, GAIN.hi)] = 2.0
    l4s_step_threshold_us: Annotated[SimTime, DELAY_US] = 1_000
    queue_limit_bytes: Annotated[int, QUEUE_BYTES] = DEFAULT_QUEUE_LIMIT_BYTES
    time_shift_us: Annotated[SimTime, DELAY_US] = 50_000


@dataclass(frozen=True)
class DropTailConfig(Config):
    queue_limit_bytes: Annotated[int, QUEUE_BYTES] = DEFAULT_QUEUE_LIMIT_BYTES


class ByteFifo:
    """FIFO of (packet, enqueue time) entries with a byte cap.

    Its counters keep the conservation identity enqueued = dequeued +
    dropped + queued, where enqueued counts every packet offered; `marked`
    counts CE marks on dequeued packets.
    """

    def __init__(self, name: str, limit_bytes: int, observer: AqmObserver | None) -> None:
        self.name = name
        self.limit_bytes = limit_bytes
        self._observer = observer
        self.entries: deque[tuple[Packet, SimTime]] = deque()
        self.bytes = 0
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.marked = 0

    def offer(self, packet: Packet, now: SimTime) -> None:
        """Append the packet, or drop it when it would overflow the cap."""
        self.enqueued += 1
        if self.bytes + packet.size_bytes > self.limit_bytes:
            self.dropped += 1
            if self._observer:
                self._observer("overflow", packet, now)
            return
        self.entries.append((packet, now))
        self.bytes += packet.size_bytes

    def pop(self) -> tuple[Packet, SimTime]:
        """Remove the head entry for transmission."""
        packet, enqueued_at = self.entries.popleft()
        self.bytes -= packet.size_bytes
        self.dequeued += 1
        return packet, enqueued_at

    def drop_head(self, now: SimTime) -> None:
        """Remove the head packet as an AQM drop."""
        packet, _ = self.entries.popleft()
        self.bytes -= packet.size_bytes
        self.dropped += 1
        if self._observer:
            self._observer("drop", packet, now)


class _FifoDiscipline:
    """Audit over a discipline's FIFOs, used by the engine and tests."""

    fifos: tuple[ByteFifo, ...]

    def queued_packets(self) -> int:
        return sum(len(fifo.entries) for fifo in self.fifos)

    def total_dropped(self) -> int:
        return sum(fifo.dropped for fifo in self.fifos)

    def total_marked(self) -> int:
        return sum(fifo.marked for fifo in self.fifos)

    def conservation_errors(self) -> list[str]:
        return [
            f"{f.name}: enqueued {f.enqueued} != dequeued {f.dequeued} "
            f"+ dropped {f.dropped} + in-queue {len(f.entries)}"
            for f in self.fifos
            if f.enqueued != f.dequeued + f.dropped + len(f.entries)
        ]


class DualPi2(_FifoDiscipline):
    """Dual-queue coupled AQM owned by a single simulation instance.

    The low-latency queue never drops except on byte-cap overflow; congestion
    there is signaled only by CE marks. The classic queue never marks;
    congestion there is signaled only by drops.
    """

    def __init__(
        self,
        config: DualPi2Config,
        rng: random.Random,
        observer: AqmObserver | None = None,
    ) -> None:
        self.config = config
        self._rng = rng
        self._observer = observer
        self.l_queue = ByteFifo("l-queue", config.queue_limit_bytes, observer)
        self.c_queue = ByteFifo("c-queue", config.queue_limit_bytes, observer)
        self.fifos = (self.l_queue, self.c_queue)
        self.p_base = 0.0
        self.prev_c_delay_us: SimTime = 0

    @property
    def p_classic(self) -> float:
        return self.p_base * self.p_base

    @property
    def p_l4s_coupled(self) -> float:
        return min(1.0, self.config.coupling_k * self.p_base)

    def pi2_update(self, now: SimTime) -> None:
        """Advance the PI controller one update period."""
        cfg = self.config
        c_entries = self.c_queue.entries
        c_delay = now - c_entries[0][1] if c_entries else 0
        err_s = (c_delay - cfg.target_delay_us) / 1e6
        delta_s = (c_delay - self.prev_c_delay_us) / 1e6
        p = self.p_base + (cfg.alpha * err_s + cfg.beta * delta_s) * (cfg.t_update_us / 1e6)
        self.p_base = 0.0 if p < 0.0 else (1.0 if p > 1.0 else p)
        self.prev_c_delay_us = c_delay

    def enqueue(self, packet: Packet, now: SimTime) -> None:
        (self.l_queue if packet.ecn in _L4S_CODEPOINTS else self.c_queue).offer(packet, now)

    def dequeue(self, now: SimTime) -> Optional[Packet]:
        """Pop the next packet to put on the wire, applying mark/drop logic.

        Time-shifted FIFO: the low-latency head wins when its enqueue time
        minus the shift is no later than the classic head's enqueue time.
        Classic packets hit by the squared drop probability are removed and
        the scheduling decision is re-evaluated; each loop iteration removes
        a packet, so the call is O(drops + 1). A packet that arrived CE
        leaves CE at the marking point, uncounted (RFC 9332).

        The coupled probability is drawn on only when ``p_base > 0``, which
        is when ``min(1, k * p_base) > 0``, as ``k >= 1``.
        """
        cfg = self.config
        l_queue, c_queue = self.l_queue, self.c_queue
        l_entries, c_entries = l_queue.entries, c_queue.entries
        while l_entries or c_entries:
            if not c_entries or (
                l_entries and l_entries[0][1] - cfg.time_shift_us <= c_entries[0][1]
            ):
                packet, enqueued_at = l_queue.pop()
                if (
                    now - enqueued_at > cfg.l4s_step_threshold_us
                    or (self.p_base > 0.0 and self._rng.random() < self.p_l4s_coupled)
                ) and packet.ecn is not _CE:
                    packet = apply_ce_mark(packet)
                    l_queue.marked += 1
                    if self._observer:
                        self._observer("mark", packet, now)
                return packet
            p = self.p_classic
            if p > 0.0 and self._rng.random() < p:
                c_queue.drop_head(now)
                continue
            return c_queue.pop()[0]
        return None


class DropTail(_FifoDiscipline):
    """Single FIFO with a byte cap; drops only on overflow."""

    def __init__(self, config: DropTailConfig, observer: AqmObserver | None = None) -> None:
        self.config = config
        self.queue = ByteFifo("queue", config.queue_limit_bytes, observer)
        self.fifos = (self.queue,)

    def enqueue(self, packet: Packet, now: SimTime) -> None:
        self.queue.offer(packet, now)

    def dequeue(self, now: SimTime) -> Optional[Packet]:
        return self.queue.pop()[0] if self.queue.entries else None
