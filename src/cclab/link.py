"""Bottleneck link: droptail queue, fixed-rate serializer, link-layer ARQ.

The radio link is abstracted as a single FIFO server.  Frame errors do
not surface as loss; the ARQ process retransmits the frame, holding the
server for an extra delay per attempt.  A deep ARQ stall therefore
blocks the head of the line: nothing behind it drains, arrivals keep
landing, and a full buffer overflows in a burst.  Only queue overflow
drops packets, unless a residual loss probability is configured for
packets that exhaust their retransmission budget.

The server never preempts, so departures have a closed form, Lindley's
recursion: `D_k = max(A_k, D_{k-1}) + hold_k`.  A packet's ARQ draws,
and so its hold and its fate, are taken when it is accepted, in
acceptance order, so the link knows its departure at once and runs its
sink there and then: the receiver sees each segment at acceptance, in
delivery order.  The sink returns its cumulative ACK, and the link
files it for the flow's `ack_to` on a delay-only reverse channel that
never queues: at the departure plus both propagation halves, so a
delivered packet costs one event.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .engine import EventLoop, SimTime, US_PER_S

# landing times kept before the landed prefix is dropped in one batch
LANDING_BATCH = 4096


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


def arq_error_count(rng: random.Random, error_prob: float, max_retx: int) -> int:
    """Consecutive frame errors for one packet: geometric (mean p / (1 - p)), capped."""
    k = 0
    while k < max_retx and rng.random() < error_prob:
        k += 1
    return k


class BottleneckLink:
    """Shared downlink: one serializer, one droptail queue, in-order delivery.

    Packets from all flows compete for the same queue.  The server holds
    each packet for its serialization time plus any ARQ penalty; the
    packet lands half a propagation RTT after it departs, and
    `delivered` counts it once it has landed.  Service is strictly one
    at a time, so delivery order equals acceptance order.

    State is kept as the departures still ahead, and retired lazily
    (`_service_done`).  Ties at a departure's microsecond are broken as
    an event-driven server's completion event would break them: the
    departure sorts as an entry filed at its service start, and a
    packet's ACK just after its successor's service start.  Both keys
    are taken as the packet is accepted, so an entry that another event
    files at the departure's microsecond sorts after them even when that
    event runs before the departure.  Counters that change at a service
    start (`dropped_arq`, `per_flow_drops`, the backlog history) are
    read between events.

    The queue's occupancy history is kept only when the link is built
    with `record_backlog=True`: `backlog_history` then holds parallel
    lists (times, queue lengths), which `metrics.backlog_at` reads.
    """

    __slots__ = ("loop", "config", "rng", "_sinks", "offered", "dropped_tail",
                 "_dropped_arq", "_per_flow_drops", "one_way_us", "_pending", "_start_key",
                 "_landed", "_landings", "_history")

    def __init__(self, loop: EventLoop, config: LinkConfig, rng: random.Random,
                 record_backlog: bool = False):
        self.loop = loop
        self.config = config
        self.rng = rng
        self._sinks: dict[int, tuple[Callable[[int, int], object], Callable]] = {}
        # counters
        self.offered = 0
        self.dropped_tail = 0
        self._dropped_arq = 0
        self._per_flow_drops: dict[int, int] = {}
        self.one_way_us: SimTime = config.prop_rtt_us // 2
        # accepted packets not yet departed, oldest first, as (departure,
        # key of its departure, flow id if ARQ abandons it once served)
        self._pending: deque[tuple[SimTime, int, int | None]] = deque()
        self._start_key = 0      # the service-start key of a packet queued behind them
        self._landed = 0
        self._landings: list[SimTime] = []   # landing times not yet dropped, oldest first
        self._history: tuple[list[SimTime], list[int]] | None = (
            ([0], [0]) if record_backlog else None)

    def register_sink(self, flow_id: int, sink: Callable[[int, int], object],
                      ack_to: Callable[[object], None]) -> None:
        """Deliver flow_id's packets as ack = sink(seq, payload_len), its ACKs as ack_to(ack)."""
        self._sinks[flow_id] = (sink, ack_to)
        self._per_flow_drops.setdefault(flow_id, 0)

    def clear_sinks(self) -> None:
        """Forget every registered sink; a sink usually holds the link."""
        self._sinks.clear()

    @property
    def delivered(self) -> int:
        """Packets that have reached the far end of the hop by now."""
        return self._landed + bisect_right(self._landings, self.loop.now)

    @property
    def dropped_arq(self) -> int:
        """Frames abandoned by ARQ whose service has started by now."""
        self._service_done()
        return self._dropped_arq

    @property
    def per_flow_drops(self) -> dict[int, int]:
        """Tail and ARQ drops per flow id, as `dropped_arq` counts them."""
        self._service_done()
        return self._per_flow_drops

    @property
    def backlog_history(self) -> tuple[list[SimTime], list[int]] | None:
        """The (times, queue lengths) lists up to now, or None if not recorded."""
        self._service_done()
        return self._history

    def offer(self, flow_id: int, seq: int, payload_len: int, wire_len: int) -> bool:
        """Hand a packet to the link.  Returns False on droptail drop."""
        self.offered += 1
        loop = self.loop
        now = loop.now
        pending = self._pending
        if pending and pending[0][0] <= now:
            self._service_done()
        cfg = self.config
        if not pending:
            start = now
            start_key = loop.take_keys(now)
        elif len(pending) > cfg.queue_capacity:
            self.dropped_tail += 1
            self._per_flow_drops[flow_id] = self._per_flow_drops.get(flow_id, 0) + 1
            return False
        else:
            start = pending[-1][0]
            start_key = self._start_key
            if self._history is not None:
                self._record_backlog(now, len(pending))
        # the serialization time, then the draws of arq_error_count with the
        # first inline (most frames stop at it): the same draws in the same order
        departs = start + wire_len * 8 * US_PER_S // cfg.rate_bps
        max_retx, rng = cfg.arq_max_retx, self.rng
        if max_retx and rng.random() < cfg.arq_frame_error_prob:
            errors = 1 + arq_error_count(rng, cfg.arq_frame_error_prob, max_retx - 1)
            departs += errors * cfg.arq_retx_delay_us
            if (errors == max_retx and cfg.residual_loss_prob > 0.0
                    and rng.random() < cfg.residual_loss_prob):
                # retransmission budget exhausted and the frame abandoned:
                # counted when its service starts, now if it did not queue
                self._start_key = loop.take_keys(departs)
                if pending:
                    pending.append((departs, start_key, flow_id))
                else:
                    pending.append((departs, start_key, None))
                    self._count_arq_drop(flow_id)
                return True
        # two keys filed at the departure: the successor's service start, then the ACK
        key = self._start_key = loop.take_keys(departs, 2)
        pending.append((departs, start_key, None))
        self._deliver(flow_id, seq, payload_len, departs, key + 1, now)
        return True

    def send_reverse(self, fn: Callable[[object], None], arg: object, at: SimTime,
                     key: int) -> None:
        """Carry an ACK back as fn(arg) at `at`, under `key`; the channel never queues."""
        # a call of its own while bench/tracer.py times it as a layer boundary
        self.loop.file(at, key, fn, arg)

    def quiescent_accounting_ok(self) -> bool:
        """Conservation check, valid once the queue and pipe are empty."""
        self._service_done()
        accepted = self.offered - self.dropped_tail
        return accepted == self.delivered + self._dropped_arq + len(self._pending)

    # internal

    def _record_backlog(self, at: SimTime, queued: int) -> None:
        times, counts = self._history
        if times[-1] == at:
            counts[-1] = queued
        else:
            times.append(at)
            counts.append(queued)

    def _count_arq_drop(self, flow_id: int) -> None:
        self._dropped_arq += 1
        self._per_flow_drops[flow_id] = self._per_flow_drops.get(flow_id, 0) + 1

    def _service_done(self) -> None:
        """Retire the departures that have happened by now; each successor starts service.

        A departure at `now` has happened once the event being dispatched
        sorts after the departure's key.
        """
        loop = self.loop
        now = loop.now
        pending = self._pending
        while pending:
            departs, departure_key, _ = pending[0]
            if departs > now or (departs == now and departure_key > loop.key):
                return
            pending.popleft()
            if pending:
                if self._history is not None:
                    self._record_backlog(departs, len(pending) - 1)
                abandoned = pending[0][2]
                if abandoned is not None:
                    self._count_arq_drop(abandoned)

    def _deliver(self, flow_id: int, seq: int, payload_len: int, departs: SimTime,
                 ack_key: int, now: SimTime) -> None:
        landings = self._landings
        if len(landings) > LANDING_BATCH and landings[LANDING_BATCH] <= now:
            landed = bisect_right(landings, now)   # a batch or more: drop them in one go
            del landings[:landed]
            self._landed += landed
        landings.append(departs + self.one_way_us)
        sink, ack_to = self._sinks[flow_id]
        self.send_reverse(ack_to, sink(seq, payload_len), departs + 2 * self.one_way_us, ack_key)
