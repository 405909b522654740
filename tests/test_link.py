"""Bottleneck link: serialization, droptail boundary, ARQ penalties."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cclab.engine import EventLoop, ms, seconds
from cclab.link import BottleneckLink, LinkConfig, Packet, arq_error_count
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


def pkt(seq, flow_id=0, wire_len=1500):
    return Packet(flow_id, seq, wire_len - 40, wire_len)


def test_serialization_time_1500_bytes_at_1200_kbps():
    loop = EventLoop()
    link = make_link(loop, rate_bps=1_200_000)
    assert link.serialization_us(1500) == ms(10)


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
    seen = []
    link.register_sink(0, lambda packet: seen.append(loop.now))
    link.offer(pkt(0))
    loop.run_until(seconds(10))
    twin = random.Random(seed)
    expected = (link.serialization_us(1500)
                + arq_error_count(twin, p, max_retx) * cfg.arq_retx_delay_us)
    assert seen == [expected]
    assert link.rng.getstate() == twin.getstate()


def test_queue_accepts_at_capacity_minus_one_and_drops_at_capacity():
    loop = EventLoop()
    link = make_link(loop, queue_capacity=50)
    link.register_sink(0, lambda p: None)
    assert link.offer(pkt(0))          # enters service, queue stays empty
    for i in range(1, 50):
        assert link.offer(pkt(i))      # backlog grows to 49
    assert len(link._queue) == 49
    assert link.offer(pkt(50))         # 49 on the queue: still room
    assert not link.offer(pkt(51))     # 50 on the queue: droptail
    assert link.dropped_tail == 1
    assert link.per_flow_drops[0] == 1


def test_capacity_one_link_accepts_when_idle():
    loop = EventLoop()
    link = make_link(loop, queue_capacity=1)
    link.register_sink(0, lambda p: None)
    assert link.offer(pkt(0))
    assert link.dropped_tail == 0


def test_single_packet_delivery_time():
    loop = EventLoop()
    link = make_link(loop, rate_bps=1_500_000, prop_rtt_us=100_000)
    seen = []
    link.register_sink(0, lambda p: seen.append(loop.now))
    link.offer(pkt(0))
    loop.run_until(seconds(1))
    # the sink runs as the packet leaves the server, after 8 ms of
    # serialization; its 50 ms one-way propagation is still ahead of it
    assert link.one_way_us == ms(50)
    assert seen == [ms(8)]


def test_fifo_delivery_preserves_acceptance_order_across_flows():
    loop = EventLoop()
    link = make_link(loop, rate_bps=1_500_000, prop_rtt_us=100_000)
    seen = []
    for fid in (0, 1):
        link.register_sink(fid, lambda p: seen.append((loop.now, p.flow_id, p.seq)))
    link.offer(pkt(0, flow_id=0))
    link.offer(pkt(1, flow_id=1))
    link.offer(pkt(2, flow_id=0))
    loop.run_until(seconds(1))
    assert [(f, s) for _, f, s in seen] == [(0, 0), (1, 1), (0, 2)]
    assert [t for t, _, _ in seen] == [ms(8), ms(16), ms(24)]


def test_arq_stall_holds_the_line_and_later_packets_wait():
    loop = EventLoop()
    cfg = LinkConfig(rate_bps=1_500_000, prop_rtt_us=100_000,
                     arq_frame_error_prob=0.5, arq_retx_delay_us=40_000,
                     arq_max_retx=6)
    # first packet suffers two frame errors, second is clean
    link = BottleneckLink(loop, cfg, ScriptedRng([0.1, 0.1, 0.9, 0.9]))
    seen = []
    link.register_sink(0, lambda p: seen.append((loop.now, p.seq)))
    link.offer(pkt(0))
    link.offer(pkt(1))
    loop.run_until(seconds(1))
    # head of line: 8 + 80 ms hold, then the follower serializes behind it
    assert seen == [(ms(88), 0), (ms(96), 1)]


def test_residual_loss_drops_after_budget_exhausted():
    loop = EventLoop()
    cfg = LinkConfig(arq_frame_error_prob=1.0, arq_max_retx=2,
                     residual_loss_prob=1.0)
    link = BottleneckLink(loop, cfg, random.Random(3))
    seen = []
    link.register_sink(0, lambda p: seen.append(p.seq))
    for i in range(3):
        link.offer(pkt(i))
    loop.run_until(seconds(5))
    assert seen == []
    assert link.dropped_arq == 3
    assert link.quiescent_accounting_ok()


def test_conservation_after_drain_with_random_errors():
    loop = EventLoop()
    cfg = LinkConfig(queue_capacity=5, arq_frame_error_prob=0.3)
    link = BottleneckLink(loop, cfg, random.Random(11))
    delivered = []
    link.register_sink(0, lambda p: delivered.append(p.seq))
    offered = 40
    for i in range(offered):
        loop.schedule(i * 1_000, lambda i=i: link.offer(pkt(i)))
    loop.run_until(seconds(10))
    assert link.offered == offered
    assert link.dropped_tail > 0
    assert link.delivered == len(delivered) == offered - link.dropped_tail
    assert link.quiescent_accounting_ok()


def test_backlog_history_lookup():
    loop = EventLoop()
    link = make_link(loop, rate_bps=1_500_000, record_backlog=True)
    link.register_sink(0, lambda p: None)
    loop.schedule(0, lambda: [link.offer(pkt(i)) for i in range(4)])
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
    link.register_sink(0, lambda p: None)
    loop.schedule(0, lambda: [link.offer(pkt(i)) for i in range(4)])
    loop.run_until(seconds(1))
    with pytest.raises(ValueError, match="record_backlog"):
        backlog_at(link.backlog_history, 0)


def test_reverse_channel_is_pure_delay():
    loop = EventLoop()
    link = make_link(loop, prop_rtt_us=100_000)
    fired = []
    loop.schedule(ms(1), lambda: link.send_reverse(lambda ack: fired.append((loop.now, ack)), 7))
    loop.run_until(seconds(1))
    # sinks run at departure, so an ACK also carries the forward hop's
    # remaining one-way delay: 2 x 50 ms after it is sent
    assert fired == [(ms(101), 7)]


def test_delivered_counts_a_packet_only_once_it_lands():
    loop = EventLoop()
    link = make_link(loop, rate_bps=1_500_000, prop_rtt_us=100_000)
    seen = []
    link.register_sink(0, lambda p: seen.append(loop.now))
    link.offer(pkt(0))
    # stepped horizon: the packet departs at 8 ms and lands at 58 ms
    loop.run_until(ms(30))
    assert seen == [ms(8)]
    assert link.delivered == 0
    loop.run_until(ms(57))
    assert link.delivered == 0
    loop.run_until(ms(58))
    assert link.delivered == 1
    assert link.quiescent_accounting_ok()


@pytest.mark.parametrize("prop_rtt_us", [0, 1])
def test_zero_one_way_delay_lands_each_packet_at_departure(prop_rtt_us):
    loop = EventLoop()
    link = make_link(loop, rate_bps=1_500_000, prop_rtt_us=prop_rtt_us)
    seen = []
    link.register_sink(0, lambda p: seen.append(loop.now))
    for i in range(3):
        link.offer(pkt(i))
    loop.run_until(ms(8))
    assert seen == [ms(8)]
    assert link.delivered == 1
    loop.run_until(seconds(1))
    assert seen == [ms(8), ms(16), ms(24)]
    assert link.delivered == 3
    assert link.quiescent_accounting_ok()
