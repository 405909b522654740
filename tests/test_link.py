"""Bottleneck link: serialization, droptail boundary, ARQ penalties, tie order."""

import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cclab.engine import EventLoop, ms, seconds
from cclab.link import LANDING_BATCH, BottleneckLink, LinkConfig, arq_error_count
from cclab.metrics import backlog_at
from conftest import arq_penalty


class ScriptedRng:
    """random.Random stand-in that replays a fixed list of draws."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self):
        return self._draws.pop(0) if self._draws else 1.0


def make_link(loop, record_backlog=False, **overrides):
    merged = dict(arq_frame_error_prob=0.0)
    merged.update(overrides)
    cfg = LinkConfig(**merged)
    return BottleneckLink(loop, cfg, random.Random(1), record_backlog=record_backlog)


def offer(link, seq, flow_id=0, wire_len=1500):
    return link.offer(flow_id, seq, wire_len - 40, wire_len)


def ack_log(link, flow_ids=(0,)):
    """Register sinks that ACK every packet; returns the (fire time, flow, seq) log.

    An ACK fires one propagation RTT after its packet departs.
    """
    loop, log = link.loop, []

    def on_ack(packet):
        log.append((loop.now, *packet))

    for fid in flow_ids:
        link.register_sink(fid, lambda seq, payload_len, fid=fid:
                           link.send_reverse(on_ack, (fid, seq)))
    return log


def test_serialization_time_1500_bytes_at_1200_kbps():
    loop = EventLoop()
    link = make_link(loop, rate_bps=1_200_000)
    acks = ack_log(link)
    offer(link, 0)
    loop.run_until(seconds(10))
    assert [t - link.config.prop_rtt_us for t, _, _ in acks] == [ms(10)]


def test_arq_penalty_zero_when_error_free():
    rng = random.Random(7)
    assert arq_penalty(rng, 0.0, 40_000, 6) == 0


def test_arq_penalty_certain_error_capped_at_one_retx():
    rng = random.Random(7)
    assert arq_penalty(rng, 1.0, 40_000, 1) == 40_000


def test_arq_error_count_follows_scripted_draws():
    # two draws below p then one above: exactly two errored attempts
    rng = ScriptedRng([0.1, 0.3, 0.9])
    assert arq_error_count(rng, 0.5, 10) == 2


def test_arq_mean_penalty_tracks_geometric_formula():
    rng = random.Random(20260823)
    p, delay, n = 0.3, 1_000, 100_000
    total = sum(arq_penalty(rng, p, delay, 50) for _ in range(n))
    expected = delay * p / (1.0 - p)
    assert abs(total / n - expected) / expected < 0.05


@settings(max_examples=200, deadline=None)
@given(p=st.floats(min_value=0.0, max_value=1.0), max_retx=st.integers(0, 8),
       seed=st.integers(0, 2**32 - 1))
@example(p=0.5, max_retx=0, seed=1)
@example(p=0.0, max_retx=6, seed=2)
@example(p=1.0, max_retx=8, seed=3)
def test_service_hold_takes_the_draws_of_arq_error_count(p, max_retx, seed):
    loop = EventLoop()
    cfg = LinkConfig(arq_frame_error_prob=p, arq_max_retx=max_retx, residual_loss_prob=0.0)
    link = BottleneckLink(loop, cfg, random.Random(seed))
    acks = ack_log(link)
    offer(link, 0)
    loop.run_until(seconds(10))
    twin = random.Random(seed)
    expected = (1500 * 8 * 1_000_000 // cfg.rate_bps
                + arq_error_count(twin, p, max_retx) * cfg.arq_retx_delay_us)
    assert [t - cfg.prop_rtt_us for t, _, _ in acks] == [expected]
    assert link.rng.getstate() == twin.getstate()


def test_queue_accepts_at_capacity_minus_one_and_drops_at_capacity():
    loop = EventLoop()
    link = make_link(loop, record_backlog=True, queue_capacity=50)
    link.register_sink(0, lambda seq, payload_len: None)
    assert offer(link, 0)              # enters service, queue stays empty
    for i in range(1, 50):
        assert offer(link, i)          # backlog grows to 49
    assert backlog_at(link.backlog_history, 0) == 49
    assert offer(link, 50)             # 49 on the queue: still room
    assert backlog_at(link.backlog_history, 0) == 50
    assert not offer(link, 51)         # 50 on the queue: droptail
    assert link.dropped_tail == 1
    assert link.per_flow_drops[0] == 1


def test_capacity_one_link_accepts_when_idle():
    loop = EventLoop()
    link = make_link(loop, queue_capacity=1)
    link.register_sink(0, lambda seq, payload_len: None)
    assert offer(link, 0)
    assert link.dropped_tail == 0


def test_single_packet_delivery_time():
    loop = EventLoop()
    link = make_link(loop, rate_bps=1_500_000, prop_rtt_us=100_000)
    seen, acks = [], []
    link.register_sink(0, lambda seq, payload_len: (
        seen.append(loop.now), link.send_reverse(lambda ack: acks.append(loop.now), seq)))
    offer(link, 0)
    loop.run_until(seconds(1))
    # the sink runs as the link accepts the packet; the packet leaves the
    # server after 8 ms of serialization, and its ACK comes back one
    # propagation RTT, 2 x 50 ms, after that
    assert link.one_way_us == ms(50)
    assert seen == [0]
    assert acks == [ms(108)]


def test_fifo_delivery_preserves_acceptance_order_across_flows():
    loop = EventLoop()
    link = make_link(loop, rate_bps=1_500_000, prop_rtt_us=100_000)
    acks = ack_log(link, flow_ids=(0, 1))
    offer(link, 0, flow_id=0)
    offer(link, 1, flow_id=1)
    offer(link, 2, flow_id=0)
    loop.run_until(seconds(1))
    assert [(f, s) for _, f, s in acks] == [(0, 0), (1, 1), (0, 2)]
    assert [t - ms(100) for t, _, _ in acks] == [ms(8), ms(16), ms(24)]


def test_arq_stall_holds_the_line_and_later_packets_wait():
    loop = EventLoop()
    cfg = LinkConfig(rate_bps=1_500_000, prop_rtt_us=100_000,
                     arq_frame_error_prob=0.5, arq_retx_delay_us=40_000,
                     arq_max_retx=6)
    # first packet suffers two frame errors, second is clean
    link = BottleneckLink(loop, cfg, ScriptedRng([0.1, 0.1, 0.9, 0.9]))
    acks = ack_log(link)
    offer(link, 0)
    offer(link, 1)
    loop.run_until(seconds(1))
    # head of line: 8 + 80 ms hold, then the follower serializes behind it
    assert [(t - ms(100), s) for t, _, s in acks] == [(ms(88), 0), (ms(96), 1)]


def test_residual_loss_drops_after_budget_exhausted():
    loop = EventLoop()
    cfg = LinkConfig(arq_frame_error_prob=1.0, arq_max_retx=2,
                     residual_loss_prob=1.0)
    link = BottleneckLink(loop, cfg, random.Random(3))
    seen = []
    link.register_sink(0, lambda seq, payload_len: seen.append(seq))
    for i in range(3):
        offer(link, i)
    loop.run_until(seconds(5))
    assert seen == []
    assert link.dropped_arq == 3
    assert link.quiescent_accounting_ok()


def test_conservation_after_drain_with_random_errors():
    loop = EventLoop()
    cfg = LinkConfig(queue_capacity=5, arq_frame_error_prob=0.3)
    link = BottleneckLink(loop, cfg, random.Random(11))
    delivered = []
    link.register_sink(0, lambda seq, payload_len: delivered.append(seq))
    offered = 40
    for i in range(offered):
        loop.schedule(i * 1_000, lambda i=i: offer(link, i))
    loop.run_until(seconds(10))
    assert link.offered == offered
    assert link.dropped_tail > 0
    assert link.delivered == len(delivered) == offered - link.dropped_tail
    assert link.quiescent_accounting_ok()


def test_backlog_history_lookup():
    loop = EventLoop()
    link = make_link(loop, rate_bps=1_500_000, record_backlog=True)
    link.register_sink(0, lambda seq, payload_len: None)
    loop.schedule(0, lambda: [offer(link, i) for i in range(4)])
    loop.run_until(seconds(1))
    # at t=0 one packet is in service and three queue behind it
    history = link.backlog_history
    assert backlog_at(history, 0) == 3
    assert backlog_at(history, ms(9)) == 2
    assert backlog_at(history, ms(17)) == 1
    assert backlog_at(history, seconds(1)) == 0


def test_backlog_lookup_without_history_raises():
    loop = EventLoop()
    link = make_link(loop)
    link.register_sink(0, lambda seq, payload_len: None)
    loop.schedule(0, lambda: [offer(link, i) for i in range(4)])
    loop.run_until(seconds(1))
    with pytest.raises(ValueError, match="record_backlog"):
        backlog_at(link.backlog_history, 0)


def test_reverse_channel_is_pure_delay():
    loop = EventLoop()
    link = make_link(loop, rate_bps=1_500_000, prop_rtt_us=100_000)
    fired = []
    link.register_sink(0, lambda seq, payload_len: link.send_reverse(
        lambda ack: fired.append((loop.now, ack)), 7))
    loop.schedule(ms(1), lambda: offer(link, 0))
    loop.run_until(seconds(1))
    # the packet departs at 1 + 8 ms; its ACK also carries the forward
    # hop's one-way delay: 2 x 50 ms after the departure
    assert fired == [(ms(109), 7)]


def test_delivered_counts_a_packet_only_once_it_lands():
    loop = EventLoop()
    link = make_link(loop, rate_bps=1_500_000, prop_rtt_us=100_000)
    acks = ack_log(link)
    offer(link, 0)
    # stepped horizon: the packet departs at 8 ms and lands at 58 ms
    loop.run_until(ms(30))
    assert acks == []
    assert link.delivered == 0
    loop.run_until(ms(57))
    assert link.delivered == 0
    loop.run_until(ms(58))
    assert link.delivered == 1
    assert link.quiescent_accounting_ok()


def test_delivered_counts_every_landing_across_batch_prunes():
    # 100 Mbps serializes a packet in 120 us; an offer every 130 us with
    # ARQ stalls lands several batches of packets in 3 s
    loop = EventLoop()
    cfg = LinkConfig(rate_bps=100_000_000, prop_rtt_us=100_000, arq_frame_error_prob=0.02,
                     arq_retx_delay_us=300)
    link = BottleneckLink(loop, cfg, random.Random(5))
    acks = ack_log(link)
    for i in range(3_000_000 // 130):
        loop.post(i * 130, lambda seq: offer(link, seq), i)
    seen = []
    for t in range(0, seconds(3.2), 23_017):
        loop.post(t, lambda at: seen.append((at, link.delivered)), t)
    loop.run_until(seconds(4))
    # an ACK fires one propagation RTT after its departure, half of it after the landing
    landings = [at - link.one_way_us for at, _, _ in acks]
    assert len(landings) > 2 * LANDING_BATCH and link.dropped_tail == 0
    assert link._landed >= LANDING_BATCH   # the landed prefix was dropped in batches
    for at, delivered in seen:
        assert delivered == sum(landed <= at for landed in landings), at
    assert link.delivered == len(landings)
    assert link.quiescent_accounting_ok()


@pytest.mark.parametrize("prop_rtt_us", [0, 1])
def test_zero_one_way_delay_lands_each_packet_at_departure(prop_rtt_us):
    loop = EventLoop()
    link = make_link(loop, rate_bps=1_500_000, prop_rtt_us=prop_rtt_us)
    acks = ack_log(link)
    for i in range(3):
        offer(link, i)
    loop.run_until(ms(8))
    # no propagation delay: each ACK fires as its packet departs and lands
    assert acks == [(ms(8), 0, 0)]
    assert link.delivered == 1
    loop.run_until(seconds(1))
    assert [t for t, _, _ in acks] == [ms(8), ms(16), ms(24)]
    assert link.delivered == 3
    assert link.quiescent_accounting_ok()


def test_an_offer_at_a_departure_queues_exactly_when_the_departure_sorts_later():
    # A departure sorts as an event filed at its service start.  An offer
    # at its microsecond from an event filed earlier runs first and finds
    # packet 1 still queued: the one-packet queue is full.  From an event
    # filed later it finds packet 1 in service and the queue empty.
    for offer_filed_first, dropped in ((True, 1), (False, 0)):
        loop = EventLoop()
        link = make_link(loop, rate_bps=1_200_000_000, queue_capacity=1)   # 10 us a packet
        link.register_sink(0, lambda seq, payload_len: None)
        if offer_filed_first:
            loop.post(10, lambda seq: offer(link, seq), 2)
        offer(link, 0)            # served at once, departs at 10 us
        offer(link, 1)            # queued behind it
        if not offer_filed_first:
            loop.post(10, lambda seq: offer(link, seq), 2)
        loop.run_until(seconds(1))
        assert link.dropped_tail == dropped
        assert link.delivered == 3 - dropped


class ReferenceLink:
    """The event-driven FIFO server that the closed-form link replaces.

    A service start takes the packet's ARQ draws and posts its completion;
    the completion frees the server, starts the next packet, and then runs
    the sink, as the packet departs; the sink's ACK is posted from there.
    """

    def __init__(self, loop, config, rng, record_backlog=True):
        self.loop, self.config, self.rng = loop, config, rng
        self.one_way_us = config.prop_rtt_us // 2
        self.queue = deque()
        self.busy = False
        self.sinks = {}
        self.offered = self.dropped_tail = self.dropped_arq = 0
        self.per_flow_drops = {}
        self.landings = []
        self.backlog_history = ([0], [0])

    def register_sink(self, flow_id, sink):
        self.sinks[flow_id] = sink
        self.per_flow_drops.setdefault(flow_id, 0)

    @property
    def delivered(self):
        return sum(t <= self.loop.now for t in self.landings)

    def offer(self, flow_id, seq, payload_len, wire_len):
        self.offered += 1
        packet = (flow_id, seq, payload_len, wire_len)
        if not self.busy:
            self._start(packet)
        elif len(self.queue) >= self.config.queue_capacity:
            self.dropped_tail += 1
            self.per_flow_drops[flow_id] += 1
            return False
        else:
            self.queue.append(packet)
            self._record()
        return True

    def send_reverse(self, fn, arg):
        self.loop.post(self.loop.now + 2 * self.one_way_us, fn, arg)

    def quiescent_accounting_ok(self):
        accepted = self.offered - self.dropped_tail
        return accepted == self.delivered + self.dropped_arq + len(self.queue) + self.busy

    def _record(self):
        times, counts = self.backlog_history
        if times[-1] == self.loop.now:
            counts[-1] = len(self.queue)
        else:
            times.append(self.loop.now)
            counts.append(len(self.queue))

    def _start(self, packet):
        cfg, rng = self.config, self.rng
        self.busy = True
        errors = arq_error_count(rng, cfg.arq_frame_error_prob, cfg.arq_max_retx)
        hold = packet[3] * 8 * 1_000_000 // cfg.rate_bps + errors * cfg.arq_retx_delay_us
        if (cfg.residual_loss_prob > 0 and cfg.arq_max_retx > 0
                and errors == cfg.arq_max_retx and rng.random() < cfg.residual_loss_prob):
            self.dropped_arq += 1
            self.per_flow_drops[packet[0]] += 1
            packet = None
        self.loop.post(self.loop.now + hold, self._done, packet)

    def _done(self, packet):
        self.busy = False
        if self.queue:
            nxt = self.queue.popleft()
            self._record()
            self._start(nxt)
        if packet is not None:
            self.landings.append(self.loop.now + self.one_way_us)
            flow_id, seq, payload_len, _ = packet
            self.sinks[flow_id](seq, payload_len)


class _Driven:
    """A link fed `initial` (time, flow) offers, plus, on each ACK, as many more
    on the ACK's flow as the next entry of `reactions` says.

    The ACK handler offers at once, or `react_after` us later.  An entry filed
    at a departure's microsecond for a later one is where the two links part
    (see `BottleneckLink`), so the random scripts offer at once.
    """

    def __init__(self, link_class, cfg, draws, initial, reactions, react_after=0):
        self.loop = loop = EventLoop()
        self.link = link = link_class(loop, cfg, ScriptedRng(draws), record_backlog=True)
        self.sunk, self.acks = [], []
        reactions = deque(reactions)
        next_seq = {0: 0, 1: 0}

        def send(fid):
            seq = next_seq[fid]
            next_seq[fid] = seq + 1
            link.offer(fid, seq, 1460, 1500)

        def on_ack(packet):
            self.acks.append((loop.now, *packet))
            for _ in range(reactions.popleft() if reactions else 0):
                if react_after:
                    loop.post(loop.now + react_after, send, packet[0])
                else:
                    send(packet[0])

        def sink(fid, seq, payload_len):
            self.sunk.append((fid, seq))
            link.send_reverse(on_ack, (fid, seq))

        for fid in (0, 1):
            link.register_sink(fid, lambda seq, payload_len, fid=fid: sink(fid, seq, payload_len))
        for at, fid in initial:
            loop.post(at, send, fid)

    def state_at(self, t):
        """The link's state between events at microsecond t."""
        self.loop.run_until(t)
        link = self.link
        times, counts = link.backlog_history
        return (len(self.acks), link.offered, link.dropped_tail, link.dropped_arq,
                link.delivered, link.quiescent_accounting_ok(), dict(link.per_flow_drops),
                list(times), list(counts))


@settings(max_examples=300, deadline=None)
@given(prop_rtt_us=st.sampled_from([0, 10, 20, 30, 40]),
       retx_delay_us=st.sampled_from([5, 10, 20]),
       max_retx=st.integers(0, 2),
       residual=st.sampled_from([0.0, 0.5, 1.0]),
       capacity=st.integers(1, 4),
       draws=st.lists(st.sampled_from([0.2, 0.7]), max_size=80),
       initial=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 1)),
                        min_size=1, max_size=8),
       reactions=st.lists(st.integers(0, 2), max_size=40))
# an ARQ hold of 10 + 2 x 5 us equals the propagation RTT
@example(prop_rtt_us=20, retx_delay_us=5, max_retx=2, residual=0.0, capacity=3,
         draws=[0.2, 0.2, 0.7] * 10, initial=[(0, 0), (0, 1), (10, 0), (20, 1)],
         reactions=[1, 2, 0, 1, 2, 1, 0, 2] * 3)
def test_closed_form_link_matches_an_event_driven_fifo(
        prop_rtt_us, retx_delay_us, max_retx, residual, capacity, draws, initial, reactions):
    # 10 us per packet: offers, departures and ACKs often share a microsecond
    cfg = LinkConfig(rate_bps=1_200_000_000, prop_rtt_us=prop_rtt_us, queue_capacity=capacity,
                     arq_frame_error_prob=0.5, arq_retx_delay_us=retx_delay_us,
                     arq_max_retx=max_retx, residual_loss_prob=residual)
    fast = _Driven(BottleneckLink, cfg, draws, initial, reactions)
    reference = _Driven(ReferenceLink, cfg, draws, initial, reactions)
    t = 0
    while t <= 60 or fast.loop.pending() or reference.loop.pending():
        assert fast.state_at(t) == reference.state_at(t), t
        t += 1
    assert fast.state_at(t) == reference.state_at(t)
    assert fast.sunk == reference.sunk
    assert fast.acks == reference.acks
    assert fast.link.quiescent_accounting_ok()    # every accepted packet accounted for


def test_an_offer_filed_at_a_departure_for_the_next_sorts_after_the_next_in_closed_form():
    # 10 us a packet, queue of one.  Packets 0-4 depart at 10, 20, 30, 40
    # and 50 us; at 40 us packet 4 waits behind packet 3.  The ACK of
    # packet 0 lands at 30 us, before packet 2's departure there, and
    # offers one hold later, at packet 3's departure.  The closed-form link
    # took packet 3's departure key at 11 us, so the offer sorts after the
    # departure and finds a free place.  The event-driven server files the
    # departure only as packet 2 departs, after the offer, which then finds
    # the queue full.
    cfg = LinkConfig(rate_bps=1_200_000_000, prop_rtt_us=20, queue_capacity=1,
                     arq_frame_error_prob=0.0)
    initial = [(0, 0), (0, 0), (11, 0), (21, 0), (31, 0)]
    fast = _Driven(BottleneckLink, cfg, [], initial, [1], react_after=10)
    reference = _Driven(ReferenceLink, cfg, [], initial, [1], react_after=10)
    assert fast.state_at(39) == reference.state_at(39)
    fast.loop.run_until(seconds(1))
    reference.loop.run_until(seconds(1))
    assert (fast.link.offered, fast.link.dropped_tail) == (6, 0)
    assert (reference.link.offered, reference.link.dropped_tail) == (6, 1)
    assert fast.sunk == [(0, seq) for seq in range(6)]
    assert reference.sunk == [(0, seq) for seq in range(5)]
