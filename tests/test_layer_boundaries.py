"""The benchmark's per-layer tracer still finds every layer boundary.

`bench/tracer.py` wraps the functions through which one layer calls
another.  If one of them is renamed, deleted or no longer called once
per packet, the traced benchmark pass leaves out every self-time metric
built on it.  This test loads the tracer by path, without changing it,
and checks both: every target resolves, and the packet path calls each
boundary as often as the counters say it should.
"""

import importlib.util
from pathlib import Path

import cclab.runner as runner
from cclab.config import load_config
from test_golden import ARQ_LOSS_LINK

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("cclab_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target_and_each_boundary_runs_per_packet():
    config = load_config(text="[experiment]\nvariant = newreno\nflows = 2\nseed = 5\n"
                              "duration_s = 20\n" + ARQ_LOSS_LINK)
    tracer = _load_tracer().Tracer().install()
    try:
        assert tracer.missing == set()
        result = runner.run_single(config, config.seed)
    finally:
        tracer.uninstall()
    calls = tracer.calls
    assert result.link_delivered > 0
    per_packet = [calls["link.deliver"], calls["receiver.pipe"],
                  calls["receiver.on_segment"], calls["link.send_reverse"]]
    assert len(set(per_packet)) == 1
    assert per_packet[0] >= result.link_delivered
    assert calls["link.offer"] == result.link_offered
    assert calls["sender.on_ack"] >= 1
    assert calls["sender.maybe_send"] >= 1
