"""Bottleneck link: droptail queue, fixed-rate serializer, link-layer ARQ.

The radio link is abstracted as a single FIFO server.  Frame errors do
not surface as loss; the ARQ process retransmits the frame, holding the
server for an extra delay per attempt.  A deep ARQ stall therefore
blocks the head of the line: nothing behind it drains, arrivals keep
landing, and a full buffer overflows in a burst.  Only queue overflow
drops packets, unless a residual loss probability is configured for
packets that exhaust their retransmission budget.

Sinks run as a packet leaves the server: one event per packet.  Its ACK
rides a delay-only reverse channel that never queues and also carries
the forward hop's propagation delay.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .engine import EventLoop, SimTime, US_PER_S


@dataclass
class LinkConfig:
    rate_bps: int = 1_500_000
    prop_rtt_us: SimTime = 100_000
    queue_capacity: int = 60       # packets
    # rare deep stalls: ~one frame in two thousand costs 40 ms of air time
    arq_frame_error_prob: float = 0.0005
    arq_retx_delay_us: SimTime = 40_000
    arq_max_retx: int = 6
    residual_loss_prob: float = 0.0


class Packet:
    __slots__ = ("flow_id", "seq", "payload_len", "wire_len")

    def __init__(self, flow_id: int, seq: int, payload_len: int, wire_len: int):
        self.flow_id = flow_id
        self.seq = seq
        self.payload_len = payload_len
        self.wire_len = wire_len


def arq_error_count(rng: random.Random, error_prob: float, max_retx: int) -> int:
    """Consecutive frame errors for one packet: geometric (mean p / (1 - p)), capped."""
    k = 0
    while k < max_retx and rng.random() < error_prob:
        k += 1
    return k


class BottleneckLink:
    """Shared downlink: one serializer, one droptail queue, in-order delivery.

    Packets from all flows compete for the same queue.  The server holds
    each packet for its serialization time plus any ARQ penalty, then
    hands it to its flow's sink, half a propagation RTT before it lands:
    `delivered` counts it once it has landed.  Service is strictly one at
    a time, so delivery order equals acceptance order.

    The queue's occupancy history is kept only when the link is built
    with `record_backlog=True`: `backlog_history` then holds parallel
    lists (times, queue lengths), which `metrics.backlog_at` reads.
    """

    def __init__(self, loop: EventLoop, config: LinkConfig, rng: random.Random,
                 record_backlog: bool = False):
        self.loop = loop
        self.config = config
        self.rng = rng
        self._queue: deque[Packet] = deque()
        self._busy = False
        self._sinks: dict[int, Callable[[Packet], None]] = {}
        # counters
        self.offered = 0
        self.dropped_tail = 0
        self.dropped_arq = 0
        self.one_way_us: SimTime = config.prop_rtt_us // 2
        self._landed = 0
        self._flying: deque[SimTime] = deque()   # landing times, oldest first
        self.per_flow_drops: dict[int, int] = {}
        self.backlog_history: tuple[list[SimTime], list[int]] | None = (
            ([0], [0]) if record_backlog else None)

    def register_sink(self, flow_id: int, sink: Callable[[Packet], None]) -> None:
        self._sinks[flow_id] = sink
        self.per_flow_drops.setdefault(flow_id, 0)

    def clear_sinks(self) -> None:
        """Forget every registered sink; a sink usually holds the link."""
        self._sinks.clear()

    def serialization_us(self, wire_len: int) -> SimTime:
        return wire_len * 8 * US_PER_S // self.config.rate_bps

    @property
    def delivered(self) -> int:
        """Packets that have reached the far end of the hop by now."""
        return self._landed + sum(t <= self.loop.now for t in self._flying)

    def offer(self, packet: Packet) -> bool:
        """Hand a packet to the link.  Returns False on droptail drop."""
        self.offered += 1
        if self._busy:
            if len(self._queue) >= self.config.queue_capacity:
                self.dropped_tail += 1
                self.per_flow_drops[packet.flow_id] = (
                    self.per_flow_drops.get(packet.flow_id, 0) + 1)
                return False
            self._queue.append(packet)
            if self.backlog_history is not None:
                self._record_backlog()
        else:
            self._start_service(packet)
        return True

    def send_reverse(self, fn: Callable[[object], None], arg: object) -> None:
        """Carry an ACK back as fn(arg) through both propagation halves; no queueing."""
        loop = self.loop
        loop.post(loop.now + 2 * self.one_way_us, fn, arg)

    def quiescent_accounting_ok(self) -> bool:
        """Conservation check, valid once the queue and pipe are empty."""
        accepted = self.offered - self.dropped_tail
        return accepted == self.delivered + self.dropped_arq + len(self._queue) + (
            1 if self._busy else 0
        )

    # internal

    def _record_backlog(self) -> None:
        now = self.loop.now
        times, counts = self.backlog_history
        if times[-1] == now:
            counts[-1] = len(self._queue)
        else:
            times.append(now)
            counts.append(len(self._queue))

    def _start_service(self, packet: Packet) -> None:
        cfg = self.config
        self._busy = True
        p, max_retx, rng = cfg.arq_frame_error_prob, cfg.arq_max_retx, self.rng
        # the first draw of arq_error_count inline (most frames stop at it), and
        # serialization_us inline: the same draws in the same order
        errors = 1 + arq_error_count(rng, p, max_retx - 1) if max_retx and rng.random() < p else 0
        hold = packet.wire_len * 8 * US_PER_S // cfg.rate_bps + errors * cfg.arq_retx_delay_us
        if (cfg.residual_loss_prob > 0.0 and max_retx > 0 and errors == max_retx
                and rng.random() < cfg.residual_loss_prob):
            # retransmission budget exhausted and the frame abandoned
            self.dropped_arq += 1
            self.per_flow_drops[packet.flow_id] = (
                self.per_flow_drops.get(packet.flow_id, 0) + 1)
            packet = None
        loop = self.loop
        loop.post(loop.now + hold, self._service_done, packet)

    def _service_done(self, packet: Packet | None) -> None:
        """Free the server, serve the next packet, then deliver this one (None: lost)."""
        self._busy = False
        if self._queue:
            nxt = self._queue.popleft()
            if self.backlog_history is not None:
                self._record_backlog()
            self._start_service(nxt)
        if packet is not None:
            self._deliver(packet)

    def _deliver(self, packet: Packet) -> None:
        now = self.loop.now
        flying = self._flying
        while flying and flying[0] <= now:
            flying.popleft()
            self._landed += 1
        flying.append(now + self.one_way_us)
        self._sinks[packet.flow_id](packet)
