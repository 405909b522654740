"""Sender state machine: RTO estimation, recovery, rewind, accounting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab.cc import make_controller
from cclab.cc.newreno import NewReno
from cclab.engine import EventLoop, ms, seconds
from cclab.link import BottleneckLink, LinkConfig
from cclab.transport import (ProtocolError, RtoEstimator, TcpReceiver, TcpSender,
                             TransportConfig)

MSS = 1460


def usable_window(sender):
    """Segments the sender may have in flight: cwnd plus recovery inflation."""
    return sender.controller.cwnd_floor() + sender._inflation_segments


class RecordingLink:
    """Link stub that records offers and checks the window discipline.

    An offer counts as a retransmission when its seq was offered before.
    """

    def __init__(self, loop):
        self.loop = loop
        self.sent = []           # (time, seq, is_retx)
        self.sender = None
        self._seen = set()

    def offer(self, flow_id, seq, payload_len, wire_len):
        is_retx = seq in self._seen
        self._seen.add(seq)
        if self.sender is not None and not is_retx:
            # new data must respect the usable window; resends of data
            # already charged to the flight are exempt
            s = self.sender
            assert s.snd_nxt - s.snd_una <= usable_window(s) * MSS
        self.sent.append((self.loop.now, seq, is_retx))
        return True

    def fresh_seqs(self):
        return [seq for _, seq, retx in self.sent if not retx]

    def retx_seqs(self):
        return [seq for _, seq, retx in self.sent if retx]


def make_sender(variant="newreno", cwnd0=2, ssthresh0=44.0, total_bytes=None,
                **cfg_overrides):
    loop = EventLoop()
    link = RecordingLink(loop)
    config = TransportConfig(initial_cwnd_segments=cwnd0,
                             initial_ssthresh_segments=ssthresh0,
                             **cfg_overrides)
    ctrl = make_controller(variant, cwnd0, ssthresh0, config.mss)
    sender = TcpSender(loop, 0, config, ctrl, link, total_bytes=total_bytes)
    link.sender = sender
    return loop, link, sender


# --- RTO estimator ---------------------------------------------------------


def test_rto_first_sample_100ms():
    est = RtoEstimator(200_000, 60_000_000)
    est.update(ms(100))
    assert est.srtt_us == 100_000
    assert est.rttvar_us == 50_000
    assert est.rto_us() == 300_000


def test_rto_converges_to_constant_sample():
    est = RtoEstimator(200_000, 60_000_000)
    for _ in range(200):
        est.update(1_000_000)
    assert est.rto_us() == 1_000_000


def test_rto_clamped_below_at_minimum():
    est = RtoEstimator(200_000, 60_000_000)
    for _ in range(50):
        est.update(ms(10))
    assert est.rto_us() == 200_000


def test_rto_clamped_above_at_maximum():
    est = RtoEstimator(200_000, 2_000_000)
    est.update(seconds(10))
    assert est.rto_us() == 2_000_000


# --- receiver --------------------------------------------------------------


def test_receiver_in_order_advance():
    rcv = TcpReceiver()
    assert rcv.on_segment(0, MSS) == MSS
    assert rcv.on_segment(MSS, MSS) == 2 * MSS


def test_receiver_buffers_out_of_order_then_merges():
    rcv = TcpReceiver()
    assert rcv.on_segment(MSS, MSS) == 0
    assert rcv.on_segment(3 * MSS, MSS) == 0
    # filling the first hole jumps over the buffered run
    assert rcv.on_segment(0, MSS) == 2 * MSS
    assert rcv.on_segment(2 * MSS, MSS) == 4 * MSS


class CountingReceiver(TcpReceiver):
    """TcpReceiver that counts segments lying wholly below rcv_nxt."""

    def __init__(self):
        super().__init__()
        self.duplicate_segments = 0

    def on_segment(self, seq, length):
        if seq + length <= self.rcv_nxt:
            self.duplicate_segments += 1
        return super().on_segment(seq, length)


def test_receiver_counts_duplicates():
    rcv = CountingReceiver()
    rcv.on_segment(0, MSS)
    assert rcv.on_segment(0, MSS) == MSS
    assert rcv.duplicate_segments == 1


def test_receiver_merges_adjacent_runs():
    rcv = TcpReceiver()
    rcv.on_segment(2 * MSS, MSS)
    rcv.on_segment(MSS, MSS)
    # filling the hole jumps rcv_nxt to the end of the merged run
    assert rcv.on_segment(0, MSS) == 3 * MSS
    assert rcv.rcv_nxt == 3 * MSS


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_receiver_acks_the_first_missing_byte(data):
    # every 4-byte segment of a range arrives once, in a random order; in
    # between come duplicates, retransmissions and overlaps of any span
    n = data.draw(st.integers(1, 24))
    arrivals = [(4 * i, 4) for i in data.draw(st.permutations(range(n)))]
    extras = data.draw(st.lists(st.tuples(st.integers(0, 4 * n - 1), st.integers(1, 12),
                                          st.integers(0, n)), max_size=2 * n))
    for seq, length, at in extras:
        arrivals.insert(at, (seq, min(length, 4 * n - seq)))
    rcv = TcpReceiver()
    held = set()
    for seq, length in arrivals:
        held.update(range(seq, seq + length))
        first_missing = next(b for b in range(len(held) + 1) if b not in held)
        assert rcv.on_segment(seq, length) == first_missing
    assert rcv.rcv_nxt == 4 * n


# --- sender: growth --------------------------------------------------------


def test_slow_start_ack_opens_one_segment():
    loop, link, sender = make_sender(cwnd0=2)
    sender.start(0)
    loop.run_until(0)
    assert link.fresh_seqs() == [0, MSS]
    loop.run_until(ms(100))
    sender.on_ack(MSS)
    assert sender.controller.cwnd_segments() == 3.0
    # one segment acked with cwnd now 3: two more fit in the window
    assert link.fresh_seqs() == [0, MSS, 2 * MSS, 3 * MSS]


def test_congestion_avoidance_ack_adds_reciprocal():
    loop, link, sender = make_sender(cwnd0=10, ssthresh0=5.0)
    assert sender.controller.cwnd >= sender.controller.ssthresh
    sender.start(0)
    loop.run_until(0)
    sender.on_ack(MSS)
    assert sender.controller.cwnd_segments() == pytest.approx(10.1)


class ObservingNewReno(NewReno):
    """NewReno that records every ACK its sender reports."""

    def __init__(self, *args):
        super().__init__(*args)
        self.observed = []

    def on_ack_observed(self, now_us, acked_bytes, is_dupack):
        self.observed.append((acked_bytes, is_dupack))


def _ack_then_three_dupacks(sender, loop):
    sender.start(0)
    loop.run_until(0)
    sender.on_ack(MSS)
    for _ in range(3):
        sender.on_ack(MSS)


def test_an_overriding_ack_hook_sees_every_ack():
    loop = EventLoop()
    config = TransportConfig(initial_cwnd_segments=4)
    sender = TcpSender(loop, 0, config, ObservingNewReno(4, 44.0),
                       RecordingLink(loop))
    _ack_then_three_dupacks(sender, loop)
    assert sender.controller.observed == [(MSS, False)] + [(0, True)] * 3


def test_a_hook_wrapped_from_outside_is_called(monkeypatch):
    seen = []
    monkeypatch.setattr(NewReno, "on_ack_observed",
                        lambda self, now, acked, dup: seen.append(dup))
    loop, _, sender = make_sender(cwnd0=4)
    _ack_then_three_dupacks(sender, loop)
    assert seen == [False, True, True, True]


# --- sender: fast retransmit and recovery ----------------------------------


def test_third_dupack_halves_and_retransmits_once():
    loop, link, sender = make_sender(cwnd0=20, ssthresh0=44.0)
    sender.start(0)
    loop.run_until(0)
    assert len(link.fresh_seqs()) == 20
    loop.run_until(ms(100))
    for _ in range(3):
        sender.on_ack(0)
    assert sender.in_recovery
    assert sender.controller.cwnd_segments() == 10.0
    assert sender.controller.ssthresh_segments() == 10.0
    assert sender.retransmissions == 1
    assert link.retx_seqs() == [0]
    assert len(sender.decreases) == 1


def test_extra_dupacks_inflate_the_window():
    loop, link, sender = make_sender(cwnd0=20)
    sender.start(0)
    loop.run_until(ms(100))
    for _ in range(3):
        sender.on_ack(0)
    assert usable_window(sender) == 10 + 3
    sender.on_ack(0)
    assert usable_window(sender) == 10 + 4


def test_partial_ack_repairs_next_hole_without_second_decrease():
    loop, link, sender = make_sender(cwnd0=20)
    sender.start(0)
    loop.run_until(ms(100))
    for _ in range(3):
        sender.on_ack(0)
    loop.run_until(ms(200))
    sender.on_ack(MSS)               # partial: recovery point is 20 segments
    assert sender.in_recovery
    assert link.retx_seqs() == [0, MSS]
    assert len(sender.decreases) == 1
    sender.on_ack(2 * MSS)
    assert link.retx_seqs() == [0, MSS, 2 * MSS]


def test_full_ack_exits_recovery_and_deflates():
    loop, link, sender = make_sender(cwnd0=20)
    sender.start(0)
    loop.run_until(ms(100))
    for _ in range(3):
        sender.on_ack(0)
    loop.run_until(ms(200))
    sender.on_ack(sender.recovery_point)
    assert not sender.in_recovery
    assert usable_window(sender) == 10
    assert sender.dupack_count == 0


def test_recovery_timer_restarts_on_first_partial_only():
    loop, link, sender = make_sender(cwnd0=20)
    sender.start(0)
    loop.run_until(ms(100))
    for _ in range(3):
        sender.on_ack(0)
    assert sender._timer.fire_at == ms(100) + sender.rto_current_us
    loop.run_until(ms(200))
    sender.on_ack(MSS)
    first_partial_deadline = sender._timer.fire_at
    assert first_partial_deadline == ms(200) + sender.rto_current_us
    loop.run_until(ms(300))
    sender.on_ack(2 * MSS)
    assert sender._timer.fire_at == first_partial_deadline


# --- sender: timeout path --------------------------------------------------


class CountingLoop(EventLoop):
    """Event loop that records the sender's timer calls into the engine."""

    def __init__(self):
        super().__init__()
        self.timer_calls = []

    def schedule(self, fire_at, action):
        self.timer_calls.append("schedule")
        return super().schedule(fire_at, action)

    def reschedule(self, handle, fire_at):
        self.timer_calls.append("reschedule")
        return super().reschedule(handle, fire_at)


def test_an_expiry_arms_the_next_timer_with_one_schedule():
    loop = CountingLoop()
    link = RecordingLink(loop)
    config = TransportConfig(initial_cwnd_segments=4)
    sender = TcpSender(loop, 0, config, make_controller("newreno", 4, 44.0, MSS), link)
    link.sender = sender
    sender.start(0)
    loop.run_until(0)
    assert loop.timer_calls == ["schedule"]   # the first segment arms the idle timer
    loop.run_until(seconds(1))                # the 1 s initial RTO expires
    assert sender.timeouts == 1 and link.retx_seqs() == [0]
    assert loop.timer_calls == ["schedule", "schedule"]
    assert sender._timer.action is not None
    assert sender._timer.fire_at == seconds(1) + sender.rto_current_us == seconds(3)


def test_timeout_collapses_window_and_rewinds():
    loop, link, sender = make_sender(cwnd0=16)
    sender.start(0)
    loop.run_until(0)
    assert len(link.fresh_seqs()) == 16
    loop.run_until(seconds(2))
    assert sender.timeouts == 1
    assert sender.controller.cwnd_segments() == 1.0
    assert sender.controller.ssthresh_segments() == 8.0
    assert sender.decreases[-1][1] == "timeout"
    assert sender.snd_nxt == sender.snd_una == 0
    assert link.retx_seqs() == [0]
    assert sender.rto_current_us == 2_000_000


def test_repeated_timeouts_double_rto_to_cap():
    loop, link, sender = make_sender(cwnd0=4, rto_max_us=3_000_000)
    sender.start(0)
    loop.run_until(seconds(1))
    assert sender.rto_current_us == 2_000_000
    loop.run_until(seconds(3))
    assert sender.rto_current_us == 3_000_000
    loop.run_until(seconds(20))
    assert sender.rto_current_us == 3_000_000
    assert sender.timeouts >= 4


def test_cumulative_ack_skips_rewound_data_receiver_already_holds():
    loop, link, sender = make_sender(cwnd0=3)
    sender.start(0)
    loop.run_until(seconds(1))       # timeout; cursor rewinds, seq 0 resent
    # receiver actually held segments 1-2: the ack jumps past them
    sender.on_ack(3 * MSS)
    assert sender.snd_una == 3 * MSS
    assert sender.snd_nxt >= 3 * MSS
    assert link.retx_seqs() == [0]   # no pointless resend of 1 and 2


def test_dupacks_for_pre_timeout_data_cause_no_second_decrease():
    loop, link, sender = make_sender(cwnd0=5)
    sender.start(0)
    loop.run_until(seconds(1))       # timeout
    assert len(sender.decreases) == 1
    for _ in range(3):
        sender.on_ack(0)
    assert len(sender.decreases) == 1
    assert not sender.in_recovery


def test_karn_no_rtt_sample_from_retransmitted_segment():
    loop, link, sender = make_sender(cwnd0=2)
    sender.start(0)
    loop.run_until(seconds(1))       # timeout; segment 0 now retransmitted
    loop_now = loop.now
    sender.on_ack(MSS)
    assert list(sender.rtt_samples) == []
    # the next fresh segment is probed again
    loop.run_until(loop_now + ms(100))
    assert sender._probe_end is not None and sender._probe_at is not None
    sender.on_ack(sender._probe_end)
    assert len(sender.rtt_samples) == 1


def test_karn_fast_retransmit_of_the_probe_voids_its_sample():
    loop, link, sender = make_sender(cwnd0=10)
    sender.start(0)
    loop.run_until(ms(100))
    for _ in range(3):
        sender.on_ack(0)             # segment 0, the probe, is resent
    loop.run_until(ms(200))
    sender.on_ack(sender.recovery_point)
    assert list(sender.rtt_samples) == []
    # the probe ended with that ACK; fresh data sent after it is timed
    loop.run_until(ms(300))
    sender.on_ack(sender.snd_max)
    assert list(sender.rtt_samples) == [(ms(300), ms(100))]


# --- sender: burst accounting ----------------------------------------------


def test_burst_of_one_for_isolated_loss():
    loop, link, sender = make_sender(cwnd0=10)
    sender.start(0)
    loop.run_until(ms(100))
    for _ in range(3):
        sender.on_ack(0)
    loop.run_until(ms(200))
    assert sender.retx_bursts == []
    sender.on_ack(sender.recovery_point)
    assert sender.retx_bursts == [1]


def test_burst_of_four_for_adjacent_holes():
    loop, link, sender = make_sender(cwnd0=12)
    sender.start(0)
    loop.run_until(ms(100))
    for _ in range(3):
        sender.on_ack(0)
    for k in (1, 2, 3):
        loop.run_until(ms(100 + 50 * k))
        sender.on_ack(k * MSS)
    loop.run_until(ms(400))
    assert sender.retx_bursts == []
    sender.on_ack(sender.recovery_point)
    assert sender.retx_bursts == [4]


def test_timeout_then_slow_start_resends_count_as_one_burst():
    loop, link, sender = make_sender(cwnd0=3)
    sender.start(0)
    loop.run_until(seconds(1))       # timeout resends segment 0
    loop.run_until(seconds(1) + ms(100))
    sender.on_ack(MSS)               # slow start resends segments 1 and 2
    assert link.retx_seqs() == [0, MSS, 2 * MSS]
    loop.run_until(seconds(1) + ms(200))
    assert sender.retx_bursts == []
    sender.on_ack(3 * MSS)
    assert sender.retx_bursts == [3]


# --- sender: randomized loss -----------------------------------------------


class LossyLink:
    """Link stub that drops the offers whose flag is set; the rest reach a
    real receiver, whose ACK arrives 50 ms later.  Every offer is checked
    against the byte range the sender has in flight, and the sender's
    timer is live exactly while data is outstanding: after every ACK, and
    at every offer but an expiry's resend of the front, which goes out
    before the expiry arms the next timer."""

    def __init__(self, loop, drops, total):
        self.loop = loop
        self.drops = drops
        self.total = total
        self.receiver = TcpReceiver()
        self.sender = None
        self.offers = []

    def offer(self, flow_id, seq, payload_len, wire_len):
        s = self.sender
        assert seq % MSS == 0
        assert payload_len == min(MSS, self.total - seq)
        assert s.snd_una <= s.snd_nxt <= s.snd_max
        timer = s._timer
        # a dead handle only while its own expiry is being dispatched
        assert timer is not None and (timer.action is not None or timer.key == self.loop.key)
        drop = len(self.offers) < len(self.drops) and self.drops[len(self.offers)]
        self.offers.append(seq)
        if not drop:
            ack = self.receiver.on_segment(seq, payload_len)
            self.loop.post(self.loop.now + ms(50), self.deliver_ack, ack)
        return True

    def deliver_ack(self, ack):
        s = self.sender
        s.on_ack(ack)
        assert (s._timer is not None) == (s.snd_una < s.snd_max)
        assert s._timer is None or s._timer.action is not None   # a held handle has not fired


@settings(max_examples=300, deadline=None)
@given(variant=st.sampled_from(["newreno", "westwood+", "bic", "cubic"]),
       full_segments=st.integers(0, 39), tail=st.integers(1, MSS),
       drops=st.lists(st.booleans(), max_size=60))
def test_sender_delivers_every_byte_under_random_loss(variant, full_segments, tail, drops):
    total = full_segments * MSS + tail
    loop = EventLoop()
    link = LossyLink(loop, drops, total)
    config = TransportConfig(rto_max_us=seconds(2))
    ctrl = make_controller(variant, 2, 44.0, config.mss)
    sender = TcpSender(loop, 0, config, ctrl, link, total_bytes=total)
    link.sender = sender
    sender.start(0)
    loop.run_until(seconds(3600))
    assert sender.done_at is not None
    assert sender.snd_una == link.receiver.rcv_nxt == total
    assert sender.transmissions == len(link.offers)
    assert sender.retransmissions == len(link.offers) - len(set(link.offers))
    assert sum(sender.retx_bursts) <= sender.retransmissions
    assert loop.pending() == 0


# --- sender: guards and edges ----------------------------------------------


def test_ack_beyond_highest_sent_byte_raises():
    loop, link, sender = make_sender(cwnd0=2)
    sender.start(0)
    loop.run_until(0)
    with pytest.raises(ProtocolError):
        sender.on_ack(5 * MSS)


def test_stale_ack_is_ignored():
    loop, link, sender = make_sender(cwnd0=4)
    sender.start(0)
    loop.run_until(ms(100))
    sender.on_ack(2 * MSS)
    before = (sender.dupack_count, sender.controller.cwnd_segments())
    sender.on_ack(MSS)
    assert (sender.dupack_count, sender.controller.cwnd_segments()) == before


def test_app_stop_drains_and_cancels_timer():
    loop, link, sender = make_sender(cwnd0=2)
    sender.app_stop_us = ms(50)
    sender.start(0)
    loop.run_until(ms(100))
    sender.on_ack(2 * MSS)
    assert sender.snd_nxt - sender.snd_una == 0
    assert sender._timer is None
    assert loop.pending() == 0


@pytest.mark.parametrize("ack_at, sends_new_data", [(ms(100) - 1, True), (ms(100), False)],
                         ids=["before_the_stop", "at_the_stop"])
def test_an_ack_at_the_stop_time_sends_nothing_new_but_still_counts(ack_at, sends_new_data):
    loop, link, sender = make_sender(cwnd0=2)
    sender.app_stop_us = ms(100)
    sender.start(0)
    loop.run_until(ack_at)
    assert link.fresh_seqs() == [0, MSS]
    sender.on_ack(MSS)
    assert sender.snd_una == MSS
    assert sender.controller.cwnd_segments() == 3   # slow start grew the window
    assert link.fresh_seqs() == ([0, MSS, 2 * MSS, 3 * MSS] if sends_new_data else [0, MSS])
    assert sender._timer is not None   # [MSS, snd_max) is still outstanding


def test_recovery_exit_at_snd_max_after_app_stop_cancels_timer():
    # RFC 6298 5.2: the timer is off once all data is acknowledged, also
    # when the ACK that covers snd_max ends a recovery
    loop, link, sender = make_sender(cwnd0=4)
    sender.app_stop_us = ms(50)
    sender.start(0)
    loop.run_until(ms(100))
    for _ in range(3):
        sender.on_ack(0)             # recovery; the drained source sends nothing new
    assert sender.in_recovery
    sender.on_ack(4 * MSS)
    assert not sender.in_recovery
    assert sender._timer is None
    assert loop.pending() == 0
    loop.run_until(seconds(5))
    assert sender.timeouts == 0


def test_short_transfer_completes_and_reports():
    loop = EventLoop()
    cfg = TransportConfig()
    ctrl = make_controller("newreno", 2, 44.0, cfg.mss)
    acks = []
    lcfg = LinkConfig(arq_frame_error_prob=0.0)
    link = BottleneckLink(loop, lcfg, random.Random(5))
    rcv = TcpReceiver()
    sender = TcpSender(loop, 0, cfg, ctrl, link, total_bytes=50 * 1024)

    def on_ack(ack):
        acks.append((loop.now, ack))
        sender.on_ack(ack)

    def sink(seq, payload_len):
        ack = rcv.on_segment(seq, payload_len)
        link.send_reverse(on_ack, ack)

    link.register_sink(0, sink)
    sender.start(0)
    loop.run_until(seconds(30))
    # done at the first ACK of the last byte, and only then
    assert sender.done_at == next(t for t, ack in acks if ack == 50 * 1024)
    assert sender.snd_una == 50 * 1024
    assert rcv.rcv_nxt == 50 * 1024
    assert sender.timeouts == 0
    assert loop.pending() == 0


def test_clean_channel_run_keeps_sender_and_receiver_consistent():
    loop = EventLoop()
    cfg = TransportConfig()
    ctrl = make_controller("newreno", 2, 44.0, cfg.mss)
    lcfg = LinkConfig(arq_frame_error_prob=0.0)
    link = BottleneckLink(loop, lcfg, random.Random(5))
    rcv = CountingReceiver()
    sender = TcpSender(loop, 0, cfg, ctrl, link)

    def sink(seq, payload_len):
        ack = rcv.on_segment(seq, payload_len)
        link.send_reverse(sender.on_ack, ack)

    link.register_sink(0, sink)
    sender.start(0)
    sender.app_stop_us = seconds(8)   # stop before growth can overflow the queue
    loop.run_until(seconds(20))
    assert sender.snd_una == rcv.rcv_nxt == sender.snd_max
    assert sender.retransmissions == 0 and sender.timeouts == 0
    assert rcv.duplicate_segments == 0
    assert link.quiescent_accounting_ok()
