"""TCP-style reliable transport: cumulative ACKs, fast retransmit,
partial-ACK hole repair, and a single retransmission timer per flow.

Loss recovery follows the classic SACK-less playbook: the third
duplicate ACK triggers one retransmission and the variant's decrease,
further duplicates inflate the usable window, and each partial ACK
repairs exactly one hole without a second decrease.  The timer is
restarted on the first partial ACK of an episode only, so a long
repair trickle eventually times out and finishes under slow start.
After a timeout the send cursor rewinds to the oldest hole; cumulative
ACKs then skip the cursor over anything the receiver already holds.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .cc.base import Controller
from .engine import EventLoop, SimTime
from .link import BottleneckLink, Packet


@dataclass
class TransportConfig:
    mss: int = 1460                 # payload bytes per segment
    wire_len: int = 1500            # segment size on the link
    initial_cwnd_segments: int = 2
    initial_ssthresh_segments: float = 44.0   # about 64 KB of payload
    dupack_threshold: int = 3
    rto_initial_us: SimTime = 1_000_000
    rto_min_us: SimTime = 200_000
    rto_max_us: SimTime = 60_000_000

    def validate(self) -> None:
        if self.mss <= 0 or self.wire_len < self.mss:
            raise ValueError("need 0 < mss <= wire_len")
        if self.initial_cwnd_segments < 1:
            raise ValueError("initial cwnd must be at least 1 segment")
        if not (self.initial_ssthresh_segments >= 1):
            raise ValueError("initial ssthresh must be >= 1 segment (or inf)")
        if self.dupack_threshold < 1:
            raise ValueError("dupack threshold must be positive")
        if not 0 < self.rto_min_us <= self.rto_max_us:
            raise ValueError("need 0 < rto_min <= rto_max")


class ProtocolError(RuntimeError):
    """An ACK acknowledged data that was never sent."""


class RtoEstimator:
    """Smoothed RTT and variance with the usual 1/8 and 1/4 gains."""

    __slots__ = ("srtt_us", "rttvar_us", "rto_min_us", "rto_max_us")

    def __init__(self, rto_min_us: SimTime, rto_max_us: SimTime):
        self.srtt_us: float | None = None
        self.rttvar_us = 0.0
        self.rto_min_us = rto_min_us
        self.rto_max_us = rto_max_us

    def update(self, sample_us: SimTime) -> None:
        if self.srtt_us is None:
            self.srtt_us = float(sample_us)
            self.rttvar_us = sample_us / 2.0
        else:
            err = self.srtt_us - sample_us
            self.rttvar_us += (abs(err) - self.rttvar_us) / 4.0
            self.srtt_us += (sample_us - self.srtt_us) / 8.0

    def rto_us(self) -> SimTime:
        assert self.srtt_us is not None
        rto = int(self.srtt_us + 4.0 * self.rttvar_us)
        if rto < self.rto_min_us:
            return self.rto_min_us
        if rto > self.rto_max_us:
            return self.rto_max_us
        return rto


class TcpReceiver:
    """Cumulative receiver; acks every segment, keeps out-of-order runs."""

    def __init__(self) -> None:
        self.rcv_nxt = 0
        self._runs: list[list[int]] = []   # disjoint sorted [start, end)
        self.duplicate_segments = 0

    def on_segment(self, seq: int, length: int) -> int:
        end = seq + length
        if end <= self.rcv_nxt:
            self.duplicate_segments += 1
            return self.rcv_nxt
        if seq <= self.rcv_nxt:
            self.rcv_nxt = end
            while self._runs and self._runs[0][0] <= self.rcv_nxt:
                run = self._runs.pop(0)
                if run[1] > self.rcv_nxt:
                    self.rcv_nxt = run[1]
        else:
            self._insert_run(seq, end)
        return self.rcv_nxt

    def _insert_run(self, start: int, end: int) -> None:
        insort(self._runs, [start, end])
        merged: list[list[int]] = []
        for run in self._runs:
            if merged and run[0] <= merged[-1][1]:
                if run[1] > merged[-1][1]:
                    merged[-1][1] = run[1]
            else:
                merged.append(run)
        self._runs = merged


class Segment:
    __slots__ = ("seq", "length", "end", "sent_at", "retx_count")

    def __init__(self, seq: int, length: int, sent_at: SimTime):
        self.seq = seq
        self.length = length
        self.end = seq + length
        self.sent_at = sent_at
        self.retx_count = 0


class TcpSender:
    """One flow's send side, driven entirely by ACK and timer events."""

    def __init__(self, loop: EventLoop, flow_id: int, config: TransportConfig,
                 controller: Controller, link: BottleneckLink,
                 total_bytes: Optional[int] = None,
                 on_complete: Optional[Callable[[SimTime], None]] = None):
        config.validate()
        self.loop = loop
        self.flow_id = flow_id
        self.config = config
        self.controller = controller
        self.link = link
        self.total_bytes = total_bytes          # None means an unbounded source
        self.on_complete = on_complete
        self.app_stop_us: Optional[SimTime] = None

        self.snd_una = 0
        self.snd_nxt = 0
        self.snd_max = 0
        self.dupack_count = 0
        self.in_recovery = False
        self.recovery_point = 0
        self._recover_guard = -1    # suppresses false fast retransmits after a timeout
        self._inflation_segments = 0
        self._partial_seen = False

        self._segments: deque[Segment] = deque()   # sent but not cumulatively acked
        self._resend_idx = 0                       # cursor into _segments after a rewind

        self.estimator = RtoEstimator(config.rto_min_us, config.rto_max_us)
        self.rto_current_us = config.rto_initial_us
        self._timer = None
        self._probe: Optional[Segment] = None

        # measurement
        self.transmissions = 0
        self.retransmissions = 0
        self.bytes_sent = 0
        self.timeouts = 0
        self.first_send_at: Optional[SimTime] = None
        self.done_at: Optional[SimTime] = None
        self.rtt_samples: list[tuple[SimTime, SimTime]] = []
        self.decreases: list[tuple[SimTime, str, float, float, float]] = []
        self.episodes: list[tuple[SimTime, int]] = []
        self._episode_segs: Optional[set[int]] = None
        self._episode_point = 0

    # introspection

    @property
    def state(self) -> str:
        if self.in_recovery:
            return "fast_recovery"
        if self.controller.in_slow_start():
            return "slow_start"
        return "congestion_avoidance"

    def outstanding_bytes(self) -> int:
        return self.snd_nxt - self.snd_una

    def effective_window_segments(self) -> int:
        w = self.controller.cwnd_floor()
        if self.in_recovery:
            w += self._inflation_segments
        return w

    def srtt_us(self) -> SimTime:
        return int(self.estimator.srtt_us) if self.estimator.srtt_us is not None else 0

    # app side

    def start(self, at_us: SimTime) -> None:
        self.loop.schedule(at_us, self.maybe_send)

    def _app_next_len(self) -> int:
        if self.total_bytes is not None:
            return min(self.config.mss, self.total_bytes - self.snd_max)
        if self.app_stop_us is not None and self.loop.now >= self.app_stop_us:
            return 0
        return self.config.mss

    # sending

    def maybe_send(self) -> None:
        # nothing below moves the window: sends only reach the link
        window_bytes = self.effective_window_segments() * self.config.mss
        while True:
            if self._resend_idx < len(self._segments):
                seg = self._segments[self._resend_idx]
                if seg.end - self.snd_una > window_bytes:
                    return
                self._transmit(seg, retx=True)
                self._resend_idx += 1
                if self.snd_nxt < seg.end:
                    self.snd_nxt = seg.end
                continue
            length = self._app_next_len()
            if length <= 0:
                return
            if self.snd_nxt - self.snd_una + length > window_bytes:
                return
            seg = Segment(self.snd_nxt, length, self.loop.now)
            self._segments.append(seg)
            self._resend_idx = len(self._segments)  # cursor rides the tail
            self.snd_nxt += length
            if self.snd_nxt > self.snd_max:
                self.snd_max = self.snd_nxt
            self._transmit(seg, retx=False)

    def _transmit(self, seg: Segment, retx: bool) -> None:
        now = self.loop.now
        self.transmissions += 1
        self.bytes_sent += seg.length
        if retx:
            self.retransmissions += 1
            seg.retx_count += 1   # Karn: its sent_at is never read again
            if self._episode_segs is not None:
                self._episode_segs.add(seg.seq)
        else:
            if self.first_send_at is None:
                self.first_send_at = now
            if self._probe is None:
                self._probe = seg
        if self._timer is None:
            self._arm_timer()
        pkt = Packet(self.flow_id, seg.seq, seg.length, self.config.wire_len, retx, now)
        self.link.offer(pkt)

    def _retransmit_front(self) -> None:
        if self._segments:
            self._transmit(self._segments[0], retx=True)

    # timer

    def _arm_timer(self) -> None:
        self._timer = self.loop.schedule_in(self.rto_current_us, self._on_timer)

    def _restart_timer(self) -> None:
        if self._timer is None:
            self._arm_timer()
        else:
            self._timer = self.loop.reschedule(
                self._timer, self.loop.now + self.rto_current_us)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_timer(self) -> None:
        self._timer = None
        if self.snd_una >= self.snd_max and self._app_next_len() <= 0:
            return  # nothing outstanding; stale expiry
        now = self.loop.now
        self.timeouts += 1
        ctrl = self.controller
        pre = ctrl.cwnd_segments()
        ctrl.on_timeout(now)
        self.decreases.append((now, "timeout", pre, ctrl.cwnd_segments(),
                               ctrl.ssthresh_segments()))
        self.rto_current_us = min(self.rto_current_us * 2, self.config.rto_max_us)
        self.in_recovery = False
        self._inflation_segments = 0
        self.dupack_count = 0
        self._recover_guard = self.snd_max
        self.snd_nxt = self.snd_una
        self._probe = None   # its timing is void once the cursor rewinds
        if self._episode_segs is None:
            self._episode_segs = set()
            self._episode_point = self.snd_max
        self._retransmit_front()
        self._resend_idx = min(1, len(self._segments))   # rewound past the front
        self._restart_timer()  # _transmit may have armed; keep exactly one live timer

    # receiving ACKs

    def on_ack(self, ack: int) -> None:
        if ack > self.snd_max:
            raise ProtocolError(
                f"flow {self.flow_id}: ack {ack} beyond highest sent byte {self.snd_max}")
        if ack < self.snd_una:
            return  # stale
        now = self.loop.now
        if ack == self.snd_una:
            if self.snd_una < self.snd_max:
                self._on_dupack(now)
            return
        self._on_new_ack(ack, now)

    def _on_dupack(self, now: SimTime) -> None:
        self.controller.on_ack_observed(now, 0, True)
        if self.in_recovery:
            self._inflation_segments += 1
            self.maybe_send()
            return
        self.dupack_count += 1
        if self.dupack_count != self.config.dupack_threshold:
            return
        if self.snd_una <= self._recover_guard:
            return  # still repairing an older episode; no new decrease
        ctrl = self.controller
        pre = ctrl.cwnd_segments()
        ctrl.on_3dupack(now)
        self.decreases.append((now, "3dupack", pre, ctrl.cwnd_segments(),
                               ctrl.ssthresh_segments()))
        self.in_recovery = True
        self.recovery_point = self.snd_max
        self._recover_guard = self.snd_max
        self._inflation_segments = self.config.dupack_threshold
        self._partial_seen = False
        if self._episode_segs is None:
            self._episode_segs = set()
            self._episode_point = self.snd_max
        self._retransmit_front()
        self._restart_timer()

    def _on_new_ack(self, ack: int, now: SimTime) -> None:
        newly = ack - self.snd_una
        self.snd_una = ack
        if ack > self.snd_nxt:
            self.snd_nxt = ack   # receiver already held part of the rewound range
        probe = self._probe
        if probe is not None and ack >= probe.end:
            if probe.retx_count == 0:
                sample = now - probe.sent_at
                self.rtt_samples.append((now, sample))
                self.estimator.update(sample)
                self.rto_current_us = self.estimator.rto_us()
                self.controller.on_rtt_sample(now, sample)
            self._probe = None
        dropped = 0
        segs = self._segments
        while segs and segs[0].end <= ack:
            segs.popleft()
            dropped += 1
        if dropped:
            self._resend_idx = max(0, self._resend_idx - dropped)
        self.controller.on_ack_observed(now, newly, False)
        if self.in_recovery:
            if ack >= self.recovery_point:
                self.in_recovery = False
                self._inflation_segments = 0
                self.dupack_count = 0
                self._restart_timer()
            else:
                # partial ACK: repair the next hole, no second decrease
                self._inflation_segments = max(
                    0, self._inflation_segments - newly // self.config.mss + 1)
                self._retransmit_front()
                if not self._partial_seen:
                    self._partial_seen = True
                    self._restart_timer()
        else:
            self.dupack_count = 0
            self.controller.on_ack_growth(now)
            if self.snd_una < self.snd_max:
                self._restart_timer()
            else:
                self._cancel_timer()
        if self._episode_segs is not None and ack >= self._episode_point:
            self.episodes.append((now, len(self._episode_segs)))
            self._episode_segs = None
        if self.total_bytes is not None and self.snd_una >= self.total_bytes:
            if self.done_at is None:
                self.done_at = now
                self._cancel_timer()
                if self.on_complete is not None:
                    self.on_complete(now)
            return
        self.maybe_send()
