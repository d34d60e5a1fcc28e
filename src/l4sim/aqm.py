"""Queue disciplines at the bottleneck.

`DualPi2` is the dual-queue coupled AQM: a PI controller on classic-queue
delay produces a base probability p, applied squared as classic drop
probability and coupled (k*p, plus a sojourn step threshold) as the
low-latency mark probability. `DropTail` is the plain FIFO baseline.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .core import FlowClass, Packet, SimTime, apply_ce_mark, classify_flow

# Observer callback: (event, packet, now). Events: "overflow", "drop", "mark".
AqmObserver = Callable[[str, Packet, SimTime], None]


class EnqueueOutcome(Enum):
    QUEUED = "queued"
    OVERFLOW = "overflow"


@dataclass
class QueueCounters:
    enqueued: int = 0
    dequeued: int = 0
    dropped: int = 0
    marked: int = 0


@dataclass
class DualPi2Config:
    """PI gains are per second of delay error per second; durations in us."""

    target_delay_us: SimTime = 15_000
    t_update_us: SimTime = 16_000
    alpha: float = 0.16
    beta: float = 3.2
    coupling_k: float = 2.0
    l4s_step_threshold_us: SimTime = 1_000
    queue_limit_bytes: int = 375_000
    time_shift_us: SimTime = 50_000

    def validate(self) -> None:
        for name in ("target_delay_us", "t_update_us", "l4s_step_threshold_us", "time_shift_us"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.coupling_k < 1:
            raise ValueError("coupling_k must be >= 1")
        if self.queue_limit_bytes <= 0:
            raise ValueError("queue_limit_bytes must be positive")


@dataclass
class DropTailConfig:
    queue_limit_bytes: int = 375_000

    def validate(self) -> None:
        if self.queue_limit_bytes <= 0:
            raise ValueError("queue_limit_bytes must be positive")


class DualPi2:
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
        config.validate()
        self.config = config
        self._rng = rng
        self._observer = observer
        self.l_queue: deque[tuple[Packet, SimTime]] = deque()
        self.c_queue: deque[tuple[Packet, SimTime]] = deque()
        self.l_bytes = 0
        self.c_bytes = 0
        self.p_base = 0.0
        self.prev_c_delay_us: SimTime = 0
        self.last_update: SimTime = 0
        self.l_counters = QueueCounters()
        self.c_counters = QueueCounters()

    @property
    def p_classic(self) -> float:
        return self.p_base * self.p_base

    @property
    def p_l4s_coupled(self) -> float:
        return min(1.0, self.config.coupling_k * self.p_base)

    def _c_head_delay(self, now: SimTime) -> SimTime:
        if not self.c_queue:
            return 0
        return now - self.c_queue[0][1]

    def pi2_update(self, now: SimTime) -> None:
        """Advance the PI controller one update period."""
        cfg = self.config
        c_delay = self._c_head_delay(now)
        err_s = (c_delay - cfg.target_delay_us) / 1e6
        delta_s = (c_delay - self.prev_c_delay_us) / 1e6
        p = self.p_base + (cfg.alpha * err_s + cfg.beta * delta_s) * (cfg.t_update_us / 1e6)
        self.p_base = 0.0 if p < 0.0 else (1.0 if p > 1.0 else p)
        self.prev_c_delay_us = c_delay
        self.last_update = now

    def enqueue(self, packet: Packet, now: SimTime) -> EnqueueOutcome:
        limit = self.config.queue_limit_bytes
        if classify_flow(packet.ecn) is FlowClass.L4S:
            self.l_counters.enqueued += 1
            if self.l_bytes + packet.size_bytes > limit:
                self.l_counters.dropped += 1
                if self._observer:
                    self._observer("overflow", packet, now)
                return EnqueueOutcome.OVERFLOW
            self.l_queue.append((packet, now))
            self.l_bytes += packet.size_bytes
        else:
            self.c_counters.enqueued += 1
            if self.c_bytes + packet.size_bytes > limit:
                self.c_counters.dropped += 1
                if self._observer:
                    self._observer("overflow", packet, now)
                return EnqueueOutcome.OVERFLOW
            self.c_queue.append((packet, now))
            self.c_bytes += packet.size_bytes
        return EnqueueOutcome.QUEUED

    def _pick_l(self, now: SimTime) -> bool:
        """Time-shifted FIFO: the low-latency head wins when its enqueue time
        minus the shift is no later than the classic head's enqueue time."""
        if not self.c_queue:
            return True
        if not self.l_queue:
            return False
        return self.l_queue[0][1] - self.config.time_shift_us <= self.c_queue[0][1]

    def dequeue(self, now: SimTime) -> Optional[Packet]:
        """Pop the next packet to put on the wire, applying mark/drop logic.

        Classic packets hit by the squared drop probability are removed and
        the scheduling decision is re-evaluated; each loop iteration removes
        a packet, so the call is O(drops + 1).
        """
        cfg = self.config
        while self.l_queue or self.c_queue:
            if self._pick_l(now):
                packet, enq_time = self.l_queue.popleft()
                self.l_bytes -= packet.size_bytes
                self.l_counters.dequeued += 1
                sojourn = now - enq_time
                if sojourn > cfg.l4s_step_threshold_us:
                    packet = apply_ce_mark(packet)
                    self.l_counters.marked += 1
                    if self._observer:
                        self._observer("mark", packet, now)
                else:
                    p = self.p_l4s_coupled
                    if p > 0.0 and self._rng.random() < p:
                        packet = apply_ce_mark(packet)
                        self.l_counters.marked += 1
                        if self._observer:
                            self._observer("mark", packet, now)
                return packet
            packet, _enq_time = self.c_queue.popleft()
            self.c_bytes -= packet.size_bytes
            p = self.p_classic
            if p > 0.0 and self._rng.random() < p:
                self.c_counters.dropped += 1
                if self._observer:
                    self._observer("drop", packet, now)
                continue
            self.c_counters.dequeued += 1
            return packet
        return None

    # Introspection used by the audit layer and tests.

    def queued_packets(self) -> int:
        return len(self.l_queue) + len(self.c_queue)

    def total_dropped(self) -> int:
        return self.l_counters.dropped + self.c_counters.dropped

    def total_marked(self) -> int:
        return self.l_counters.marked

    def conservation_errors(self) -> list[str]:
        """Per-queue identity: enqueued = dequeued + dropped + in-queue,
        where enqueued counts every packet offered to the queue."""
        errs = []
        for name, counters, queue in (
            ("l", self.l_counters, self.l_queue),
            ("c", self.c_counters, self.c_queue),
        ):
            if counters.enqueued != counters.dequeued + counters.dropped + len(queue):
                errs.append(
                    f"{name}-queue: enqueued {counters.enqueued} != dequeued "
                    f"{counters.dequeued} + dropped {counters.dropped} + in-queue {len(queue)}"
                )
        return errs


class DropTail:
    """Single FIFO with a byte cap; drops only on overflow."""

    def __init__(
        self,
        config: DropTailConfig,
        rng: random.Random,
        observer: AqmObserver | None = None,
    ) -> None:
        config.validate()
        self.config = config
        self._observer = observer
        self.queue: deque[tuple[Packet, SimTime]] = deque()
        self.bytes = 0
        self.counters = QueueCounters()

    def enqueue(self, packet: Packet, now: SimTime) -> EnqueueOutcome:
        self.counters.enqueued += 1
        if self.bytes + packet.size_bytes > self.config.queue_limit_bytes:
            self.counters.dropped += 1
            if self._observer:
                self._observer("overflow", packet, now)
            return EnqueueOutcome.OVERFLOW
        self.queue.append((packet, now))
        self.bytes += packet.size_bytes
        return EnqueueOutcome.QUEUED

    def dequeue(self, now: SimTime) -> Optional[Packet]:
        if not self.queue:
            return None
        packet, _ = self.queue.popleft()
        self.bytes -= packet.size_bytes
        self.counters.dequeued += 1
        return packet

    def queued_packets(self) -> int:
        return len(self.queue)

    def total_dropped(self) -> int:
        return self.counters.dropped

    def total_marked(self) -> int:
        return 0

    def conservation_errors(self) -> list[str]:
        c = self.counters
        if c.enqueued != c.dequeued + c.dropped + len(self.queue):
            return [
                f"queue: enqueued {c.enqueued} != dequeued {c.dequeued} "
                f"+ dropped {c.dropped} + in-queue {len(self.queue)}"
            ]
        return []
