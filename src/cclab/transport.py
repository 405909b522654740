"""TCP-style reliable transport: cumulative ACKs, fast retransmit,
partial-ACK hole repair, and a single retransmission timer per flow.

Loss recovery follows the classic SACK-less playbook: the third
duplicate ACK triggers one retransmission and the variant's decrease,
further duplicates inflate the usable window, and each partial ACK
repairs exactly one hole without a second decrease.  The timer is
restarted on the first partial ACK of an episode only, so a long
repair trickle eventually times out and finishes under slow start.
`recovery_point` is RFC 6582's `recover`, set to `snd_max` when a
recovery starts and at a timeout: no new recovery starts until an ACK
passes it.  After a timeout the send cursor rewinds to the oldest hole;
cumulative ACKs then skip the cursor over anything the receiver already
holds.  The timer runs exactly while data is outstanding, in three
steps (RFC 6298 section 5): new data arms an idle timer (`maybe_send`),
an ACK of new data stops or restarts it (`_restart_timer`), and an
expiry backs off, resends the front and arms a fresh timer
(`_on_timer`).

The send queue is the byte range `[snd_una, snd_max)`, cut at multiples
of `mss` as it was first sent, so every ACK lands on a cut and the front
segment is `[snd_una, min(snd_una + mss, snd_max))`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

from .cc.base import Controller
from .engine import US_PER_S, EventLoop, SimTime
from .history import RttSamples
from .link import BottleneckLink

UNBOUNDED = 1 << 62   # a stop time or byte budget that no run reaches


@dataclass
class TransportConfig:
    mss: int = 1460                 # payload bytes per segment
    wire_len: int = 1500            # segment size on the link
    initial_cwnd_segments: int = 2
    initial_ssthresh_segments: float = 44.0   # about 64 KB of payload
    dupack_threshold: int = 3
    rto_initial_us: SimTime = US_PER_S
    rto_min_us: SimTime = 200_000
    rto_max_us: SimTime = 60_000_000


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
        return min(max(int(self.srtt_us + 4.0 * self.rttvar_us), self.rto_min_us),
                   self.rto_max_us)


class TcpReceiver:
    """Cumulative receiver; acks every segment, keeps out-of-order runs.

    `_runs` holds disjoint, non-adjacent (start, end) runs sorted by start,
    all above `rcv_nxt`.
    """

    __slots__ = ("rcv_nxt", "_runs")

    def __init__(self) -> None:
        self.rcv_nxt = 0
        self._runs: list[tuple[int, int]] = []

    def on_segment(self, seq: int, length: int) -> int:
        end = seq + length
        if seq > self.rcv_nxt:
            self._insert_run(seq, end)
        elif end > self.rcv_nxt:   # else a duplicate: the cumulative ACK stands
            runs = self._runs
            while runs and runs[0][0] <= end:   # merge the runs the segment reaches
                end = max(end, runs.pop(0)[1])
            self.rcv_nxt = end
        return self.rcv_nxt

    def _insert_run(self, start: int, end: int) -> None:
        runs = self._runs
        i = j = bisect_left(runs, (start,))   # first run starting at or after start
        if i and runs[i - 1][1] >= start:
            i -= 1
            start = runs[i][0]
        while j < len(runs) and runs[j][0] <= end:
            j += 1
        if j > i:
            end = max(end, runs[j - 1][1])
        runs[i:j] = [(start, end)]


class TcpSender:
    """One flow's send side, driven entirely by ACK and timer events."""

    __slots__ = ("loop", "flow_id", "config", "controller", "link", "total_bytes",
                 "app_stop_us", "snd_una", "snd_nxt", "snd_max", "dupack_count",
                 "in_recovery", "recovery_point", "_inflation_segments", "_partial_seen",
                 "estimator", "rto_current_us", "_timer", "_probe_end", "_probe_at",
                 "retransmissions", "_retx_bytes", "timeouts", "started_at", "done_at",
                 "rtt_samples", "decreases", "retx_bursts", "_episode_segs",
                 "_episode_point", "_on_ack_observed")

    def __init__(self, loop: EventLoop, flow_id: int, config: TransportConfig,
                 controller: Controller, link: BottleneckLink,
                 total_bytes: Optional[int] = None, app_stop_us: Optional[SimTime] = None):
        self.loop = loop
        self.flow_id = flow_id
        self.config = config
        self.controller = controller
        self.link = link
        # new data goes out before app_stop_us and below total_bytes; None
        # is a source that never stops, or never runs dry
        self.total_bytes = UNBOUNDED if total_bytes is None else total_bytes
        self.app_stop_us = UNBOUNDED if app_stop_us is None else app_stop_us

        self.snd_una = 0
        self.snd_nxt = 0
        self.snd_max = 0
        self.dupack_count = 0
        self.in_recovery = False
        self.recovery_point = -1    # RFC 6582 recover; -1 lets the first segment's loss recover
        self._inflation_segments = 0
        self._partial_seen = False

        self.estimator = RtoEstimator(config.rto_min_us, config.rto_max_us)
        self.rto_current_us = config.rto_initial_us
        self._timer = None
        self._probe_end: Optional[int] = None       # end of the segment being timed
        self._probe_at: Optional[SimTime] = None    # its send time; Karn voids it on resend

        # measurement
        self.retransmissions = 0
        self._retx_bytes = 0   # payload resent; new data is [0, snd_max)
        self.timeouts = 0
        self.started_at: Optional[SimTime] = None
        self.done_at: Optional[SimTime] = None
        self.rtt_samples = RttSamples()
        self.decreases: list[tuple[SimTime, str, float, float, float]] = []
        self.retx_bursts: list[int] = []   # distinct segments resent per closed loss episode
        self._episode_segs: Optional[set[int]] = None
        self._episode_point = 0

        # a law that keeps Controller's no-op ACK hook is not called for it
        # (a hook patched in is called)
        self._on_ack_observed = (
            None if type(controller).on_ack_observed is Controller.on_ack_observed
            else controller.on_ack_observed)

    # introspection

    @property
    def transmissions(self) -> int:
        """Segments sent: each cut of [0, snd_max) once, then the resends."""
        return -(-self.snd_max // self.config.mss) + self.retransmissions

    @property
    def bytes_sent(self) -> int:
        """Payload bytes sent, resends included."""
        return self.snd_max + self._retx_bytes

    def srtt_us(self) -> SimTime:
        return int(self.estimator.srtt_us) if self.estimator.srtt_us is not None else 0

    # app side

    def start(self, at_us: SimTime) -> None:
        self.started_at = at_us
        self.loop.post(at_us, TcpSender.maybe_send, self)

    # sending

    def maybe_send(self) -> None:
        mss, snd_max = self.config.mss, self.snd_max
        limit = self.snd_una + (self.controller.cwnd_floor() + self._inflation_segments) * mss
        # Resend what a timeout rewound.  The timeout resends the front and
        # leaves snd_nxt on it, but no maybe_send runs before a new ACK moves
        # snd_nxt past it (the timer path calls none; a dupack cannot start
        # recovery while snd_una <= recovery_point): [snd_nxt, snd_max) is left.
        while self.snd_nxt < snd_max:
            seq = self.snd_nxt
            end = min(seq + mss, snd_max)
            if end > limit:
                return
            self._retransmit(seq, end)
            self.snd_nxt = end
        # new data, on the queue's cuts, until the source stops or runs dry: nearly every packet
        now = self.loop.now
        if now >= self.app_stop_us:
            return
        stop = limit if limit < self.total_bytes else self.total_bytes
        seq = self.snd_nxt
        while seq < stop:
            end = seq + mss
            if end > stop:
                end = stop
            self.snd_nxt = self.snd_max = end
            if self._probe_end is None:
                self._probe_end, self._probe_at = end, now
            if self._timer is None:
                self._arm_timer()
            self.link.offer(self.flow_id, seq, end - seq, self.config.wire_len)
            seq = end

    def _retransmit(self, seq: int, end: int) -> None:
        self.retransmissions += 1
        self._retx_bytes += end - seq
        if end == self._probe_end:
            self._probe_at = None   # Karn: no sample until this end is acked
        if self._episode_segs is not None:
            self._episode_segs.add(seq)
        self.link.offer(self.flow_id, seq, end - seq, self.config.wire_len)

    def _retransmit_front(self) -> None:
        una = self.snd_una   # below snd_max: a timeout, a third dupack or a partial ACK
        self._retransmit(una, min(una + self.config.mss, self.snd_max))

    # timer

    def _arm_timer(self) -> None:
        self._timer = self.loop.schedule(self.loop.now + self.rto_current_us, self._on_timer)

    def _restart_timer(self) -> None:
        """RFC 6298 5.2-5.3: stop the live timer once all data is acked, else restart it."""
        if self.snd_una == self.snd_max:
            self._timer.cancel()
            self._timer = None
        else:
            self._timer = self.loop.reschedule(self._timer, self.loop.now + self.rto_current_us)

    def _on_timer(self) -> None:
        self.timeouts += 1
        self._decrease("timeout", self.controller.on_timeout)
        self.rto_current_us = min(self.rto_current_us * 2, self.config.rto_max_us)
        self.in_recovery = False
        self._inflation_segments = 0
        self.dupack_count = 0
        self.snd_nxt = self.snd_una
        self._probe_end = None   # its timing is void once the cursor rewinds
        self._repair_front()
        self._arm_timer()

    # loss entry, shared by the timer and the third dupack

    def _decrease(self, kind: str, step: Callable[[SimTime], None]) -> None:
        now, ctrl = self.loop.now, self.controller
        pre = ctrl.cwnd_segments()
        step(now)
        self.decreases.append((now, kind, pre, ctrl.cwnd_segments(), ctrl.ssthresh_segments()))

    def _repair_front(self) -> None:
        self.recovery_point = self.snd_max
        if self._episode_segs is None:
            self._episode_segs = set()
            self._episode_point = self.snd_max
        self._retransmit_front()

    # receiving ACKs

    def _on_dupack(self, now: SimTime) -> None:
        if self._on_ack_observed is not None:
            self._on_ack_observed(now, 0, True)
        if self.in_recovery:
            self._inflation_segments += 1
            self.maybe_send()
            return
        self.dupack_count += 1
        if self.dupack_count != self.config.dupack_threshold:
            return
        if self.snd_una <= self.recovery_point:
            return  # still repairing an older episode; no new decrease
        self._decrease("3dupack", self.controller.on_3dupack)
        self.in_recovery = True
        self._inflation_segments = self.config.dupack_threshold
        self._partial_seen = False
        self._repair_front()
        self._restart_timer()

    def on_ack(self, ack: int) -> None:
        snd_una = self.snd_una
        if ack <= snd_una:   # a duplicate, or stale
            if ack == snd_una and snd_una < self.snd_max:
                self._on_dupack(self.loop.now)
            return
        if ack > self.snd_max:
            raise ProtocolError(
                f"flow {self.flow_id}: ack {ack} beyond highest sent byte {self.snd_max}")
        now = self.loop.now
        newly = ack - snd_una
        self.snd_una = ack
        if ack > self.snd_nxt:
            self.snd_nxt = ack   # receiver already held part of the rewound range
        if self._probe_end is not None and ack >= self._probe_end:
            if self._probe_at is not None:
                sample = now - self._probe_at
                self.rtt_samples.append(now, sample)
                self.estimator.update(sample)
                self.rto_current_us = self.estimator.rto_us()
                self.controller.on_rtt_sample(now, sample)
            self._probe_end = None
        if self._on_ack_observed is not None:
            self._on_ack_observed(now, newly, False)
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
            if ack < self.snd_max:   # _restart_timer inline: the per-ACK path
                self._timer = self.loop.reschedule(self._timer, now + self.rto_current_us)
            else:
                self._restart_timer()
        if self._episode_segs is not None and ack >= self._episode_point:
            self.retx_bursts.append(len(self._episode_segs))
            self._episode_segs = None
        if ack >= self.total_bytes:
            self.done_at = now   # no later ACK gets past the checks above
            return
        self.maybe_send()
