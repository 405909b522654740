"""Per-layer spans and counters, taken from outside cclab.

The traced pass wraps the functions through which one cclab layer calls
into another: the engine's dispatch loop calls the link's service and
delivery actions and the sender's ACK and timer handlers, the sender
calls the link and its controller, and so on.  Each wrapped call is a
span.  A span's self time is its length minus the spans opened inside
it, so adding self time up by layer splits a run between the layers
without editing the program.  Spans are folded into per-function totals
as they close rather than stored one by one, which keeps memory flat on
runs of millions of events.

A target that no longer exists, such as a renamed method, is skipped and
listed in `Tracer.missing`; every metric built on it is then left out of
the report rather than reported wrong.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

CC_CLASSES = ("NewReno", "WestwoodPlus", "Bic", "Cubic")
CC_METHODS = ("on_ack_growth", "on_ack_observed", "on_rtt_sample",
              "on_3dupack", "on_timeout")
CC_DECREASES = ("on_3dupack", "on_timeout")

# (target "module:attribute.path", key, layer).  Two targets may share a
# key when they are two names bound to one function.
SPECS: tuple[tuple[str, str, str], ...] = (
    ("cclab.engine:EventLoop.run_until", "engine.run_until", "engine"),
    ("cclab.engine:EventLoop.schedule", "engine.schedule", "engine"),
    ("cclab.engine:EventHandle.cancel", "engine.cancel", "engine"),
    ("cclab.link:BottleneckLink.__init__", "link.init", "link"),
    ("cclab.link:BottleneckLink.offer", "link.offer", "link"),
    ("cclab.link:BottleneckLink.send_reverse", "link.send_reverse", "link"),
    ("cclab.link:BottleneckLink._service_done", "link.service_done", "link"),
    ("cclab.link:BottleneckLink._deliver", "link.deliver", "link"),
    ("cclab.transport:TcpSender.on_ack", "sender.on_ack", "sender"),
    ("cclab.transport:TcpSender.maybe_send", "sender.maybe_send", "sender"),
    ("cclab.transport:TcpSender._on_timer", "sender.on_timer", "sender"),
    ("cclab.transport:TcpReceiver.on_segment", "receiver.on_segment", "receiver"),
    ("cclab.runner:_FlowPipe.on_packet", "receiver.pipe", "receiver"),
    *((f"cclab.cc:{cls}.{method}", f"cc.{cls}.{method}", "cc")
      for cls in CC_CLASSES for method in CC_METHODS),
    ("cclab.runner:run_single", "runner.run_single", "runner"),
    ("cclab.matrix:run_single", "runner.run_single", "runner"),
    ("cclab.runner:write_run_outputs", "runner.write", "writer"),
    ("cclab.matrix:run_matrix", "matrix.run", "matrix"),
    ("cclab.matrix:_cell_task", "matrix.cell", "matrix"),
    ("cclab.matrix:write_matrix_outputs", "matrix.write", "matrix_writer"),
    ("cclab.runner:goodput_bps", "metrics.goodput", "metrics"),
    ("cclab.runner:throughput_bps", "metrics.throughput", "metrics"),
    ("cclab.runner:retx_ratio", "metrics.retx_ratio", "metrics"),
    ("cclab.runner:jain_fairness", "metrics.jain", "metrics"),
    ("cclab.matrix:empirical_cdf", "metrics.cdf", "metrics"),
    ("cclab.matrix:representative_flow", "metrics.representative", "metrics"),
    ("cclab.config:load_config", "config.load", "config"),
    ("cclab.config:LabConfig.config_hash", "config.hash", "config"),
)

CELL_TARGET = "cclab.matrix:_cell_task"

_ABSENT = object()
_active: "Tracer | None" = None


def _resolve(target: str):
    """(owner, attribute) for a target, or None when it no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Installs the wrappers and accumulates their spans and counters."""

    def __init__(self, specs=SPECS):
        self.specs = specs
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.span_ns: defaultdict[str, int] = defaultdict(int)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._links: list = []
        self._undo: list[tuple[object, str, object]] = []
        self._cell_fn = None

    # installation

    def install(self) -> "Tracer":
        global _active
        hooks = {
            "engine.run_until": (None, self._after_run_until),
            "receiver.on_segment": (self._before_segment, None),
            "link.init": (None, self._after_link_init),
            "runner.run_single": (None, self._after_run_single),
            "metrics.cdf": (None, self._after_cdf),
        }
        for target, key, layer in self.specs:
            found = _resolve(target)
            if found is None:
                self.missing.add(key)
                continue
            owner, attr = found
            before, after = hooks.get(key, (None, None))
            wrapped = self._wrap(getattr(owner, attr), key, before, after)
            if target == CELL_TARGET:
                # pool workers get the cell function by name, so the name
                # must lead to something that pickles and carries spans back
                self._cell_fn = wrapped
                wrapped = CellTask(os.getpid())
            saved = owner.__dict__.get(attr, _ABSENT) if isinstance(owner, type) \
                else getattr(owner, attr)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, saved))
        _active = self
        return self

    def uninstall(self) -> None:
        global _active
        for owner, attr, saved in reversed(self._undo):
            if saved is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._undo.clear()
        _active = None

    def _wrap(self, fn, key, before, after):
        stack = self._stack
        self_ns = self.self_ns
        span_ns = self.span_ns
        calls = self.calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            start = clock()
            stack.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                self_ns[key] += elapsed - inner
                span_ns[key] += elapsed
                calls[key] += 1
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return traced

    # hooks reading the public counters at layer boundaries

    def _after_run_until(self, args, dispatched) -> None:
        self.counts["engine.events"] += dispatched

    def _before_segment(self, args) -> None:
        receiver, seq = args[0], args[1]
        if seq > getattr(receiver, "rcv_nxt", seq):
            self.counts["transport.ooo_segments"] += 1

    def _after_link_init(self, args, _result) -> None:
        self._links.append(args[0])

    def _after_run_single(self, _args, result) -> None:
        for link in self._links:
            for attr, name in (("offered", "link.offers"),
                               ("dropped_tail", "link.drops_tail"),
                               ("dropped_arq", "link.drops_arq")):
                value = getattr(link, attr, None)
                if value is None:
                    self.missing.add(name)
                else:
                    self.counts[name] += value
        self._links.clear()
        for fm in result.flows:
            self.counts["transport.retx"] += fm.retransmissions
            self.counts["transport.timeouts"] += fm.timeouts

    def _after_cdf(self, _args, points) -> None:
        self.counts["metrics.cdf_points"] += len(points)

    # totals

    def reset(self) -> None:
        for table in (self.self_ns, self.span_ns, self.calls, self.counts):
            table.clear()
        self._stack.clear()
        self._links.clear()

    def snapshot(self) -> dict:
        return {"self_ns": dict(self.self_ns), "span_ns": dict(self.span_ns),
                "calls": dict(self.calls), "counts": dict(self.counts)}

    def absorb(self, cells) -> None:
        """Add the spans pool workers returned on matrix cells, and strip them."""
        for cell in cells:
            shipped = cell.__dict__.pop("bench_trace", None)
            if shipped is None:
                continue
            for name, table in (("self_ns", self.self_ns), ("span_ns", self.span_ns),
                                ("calls", self.calls), ("counts", self.counts)):
                for key, value in shipped[name].items():
                    table[key] += value


class CellTask:
    """Stands in for cclab.matrix._cell_task while tracing.

    The pool pickles it by reference to this class, so a worker can call
    it whatever the start method: a forked worker inherits the installed
    wrappers, a spawned one installs its own on its first cell.  In a
    worker the cell's spans and counters ride back on the returned cell.
    """

    def __init__(self, owner_pid: int):
        self.owner_pid = owner_pid

    def __call__(self, args):
        tracer = _active or Tracer().install()
        if os.getpid() == self.owner_pid:
            return tracer._cell_fn(args)
        tracer.reset()
        cell = tracer._cell_fn(args)
        cell.bench_trace = tracer.snapshot()
        return cell


def layer_metrics(snap: dict, missing: set[str], workers: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round, as name -> (value, unit).

    A count needs only the wrapper that takes it.  A self time needs
    every wrapper of the simulation layers, because a missing one would
    move its time into the span around it.
    """
    self_ns, span_ns = snap["self_ns"], snap["span_ns"]
    calls, counts = snap["calls"], snap["counts"]
    layer_of = {key: layer for _, key, layer in SPECS}

    def layer_self(*layers):
        return sum(v for k, v in self_ns.items() if layer_of.get(k) in layers)

    def per(num, den):
        return num / den if den else 0.0

    cc_keys = [f"cc.{c}.{m}" for c in CC_CLASSES for m in CC_METHODS]
    sim_keys = [key for _, key, layer in SPECS
                if layer in ("engine", "link", "sender", "receiver", "cc")]
    events = counts.get("engine.events", 0)
    offers = counts.get("link.offers", 0)
    acks = calls.get("sender.on_ack", 0)
    segments = calls.get("receiver.on_segment", 0)
    runs = calls.get("runner.run_single", 0)
    scheduled = calls.get("engine.schedule", 0)
    cancelled = calls.get("engine.cancel", 0)
    cell_ns = span_ns.get("matrix.cell", 0)
    table = [
        ("engine.events", "count", ["engine.run_until"], events),
        ("engine.scheduled", "count", ["engine.schedule"], scheduled),
        ("engine.cancelled", "count", ["engine.cancel"], cancelled),
        ("engine.cancelled_share", "1", ["engine.schedule", "engine.cancel"],
         per(cancelled, scheduled)),
        ("engine.self_ns_per_event", "ns", sim_keys, per(layer_self("engine"), events)),
        ("link.offers", "count", ["link.init", "runner.run_single", "link.offers"], offers),
        ("link.drops_tail", "count", ["link.init", "runner.run_single", "link.drops_tail"],
         counts.get("link.drops_tail", 0)),
        ("link.drops_arq", "count", ["link.init", "runner.run_single", "link.drops_arq"],
         counts.get("link.drops_arq", 0)),
        ("link.self_ns_per_pkt", "ns", sim_keys + ["link.offers"],
         per(layer_self("link"), offers)),
        ("transport.acks", "count", ["sender.on_ack"], acks),
        ("transport.segments_rx", "count", ["receiver.on_segment"], segments),
        ("transport.ooo_segments", "count", ["receiver.on_segment"],
         counts.get("transport.ooo_segments", 0)),
        ("transport.retx", "count", ["runner.run_single"], counts.get("transport.retx", 0)),
        ("transport.timeouts", "count", ["runner.run_single"],
         counts.get("transport.timeouts", 0)),
        ("transport.sender_self_ns_per_ack", "ns", sim_keys, per(layer_self("sender"), acks)),
        ("transport.receiver_self_ns_per_seg", "ns", sim_keys,
         per(layer_self("receiver"), segments)),
        ("cc.calls", "count", cc_keys, sum(calls.get(k, 0) for k in cc_keys)),
        ("cc.decreases", "count", cc_keys,
         sum(calls.get(f"cc.{c}.{m}", 0) for c in CC_CLASSES for m in CC_DECREASES)),
        ("cc.self_ns_per_ack", "ns", sim_keys, per(layer_self("cc"), acks)),
        ("runner.runs", "count", ["runner.run_single"], runs),
        ("runner.self_ms_per_run", "ms", sim_keys + ["runner.run_single"],
         per(self_ns.get("runner.run_single", 0), runs) / 1e6),
        ("runner.write_ms", "ms", ["runner.write"], span_ns.get("runner.write", 0) / 1e6),
        ("matrix.cells", "count", ["matrix.cell"], calls.get("matrix.cell", 0)),
        ("matrix.pool_wait_s", "s", ["matrix.run", "matrix.cell"],
         (span_ns.get("matrix.run", 0) - cell_ns / workers) / 1e9),
        ("matrix.write_ms", "ms", ["matrix.write"], span_ns.get("matrix.write", 0) / 1e6),
        ("metrics.cdf_points", "count", ["metrics.cdf"], counts.get("metrics.cdf_points", 0)),
        ("metrics.self_ms", "ms", [k for _, k, layer in SPECS if layer == "metrics"],
         layer_self("metrics") / 1e6),
        ("config.hash_calls", "count", ["config.hash"], calls.get("config.hash", 0)),
    ]
    return {name: (value, unit) for name, unit, needs, value in table
            if not missing.intersection(needs)}
