"""Acceptance survey: one test per release criterion.

Each test prints exactly one PASS/FAIL line carrying the values it
judged, so a `pytest -s tests/test_acceptance.py` run reads as a
checklist.  The expensive seeded campaigns live in conftest.py and are
shared across criteria.
"""

import random
import statistics
import time
from bisect import bisect_right
from fractions import Fraction

from cclab.cc.bic import Bic
from cclab.cc.cubic import Cubic
from cclab.cc.params import SCALE, BicParams, CubicParams
from cclab.config import LabConfig
from cclab.engine import EventLoop, seconds
from cclab.link import BottleneckLink
from cclab.metrics import backlog_at, box_whisker, jain_fairness, representative_flow
from cclab.runner import _FlowPipe, run_single, write_run_outputs
from cclab.transport import TcpSender

from conftest import VARIANTS, RecordingCubic, arq_penalty


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _flow_means(campaign, attr):
    return {v: statistics.mean(getattr(r.flows[0], attr) for r in campaign[v])
            for v in campaign}


def test_criterion_01_cubic_closed_form():
    # single 60 s flow, friendly region off so the curve is the whole law
    config = LabConfig()
    config.cubic.tcp_friendly = False
    config.cubic.fast_convergence = False
    started = time.perf_counter()
    loop = EventLoop()
    link = BottleneckLink(loop, config.link, random.Random(1))
    controller = RecordingCubic(
        config.transport.initial_cwnd_segments,
        config.transport.initial_ssthresh_segments, config.params_for("cubic"))
    sender = TcpSender(loop, 0, config.transport, controller, link)
    sender.app_stop_us = seconds(60)
    pipe = _FlowPipe(link, sender)
    link.register_sink(0, pipe.on_packet)
    sender.start(0)
    loop.run_until(seconds(60))
    elapsed = time.perf_counter() - started

    c = config.cubic.c
    worst = 0.0
    epochs = set()
    for (now_us, start_us, max_win, k, cwnd) in controller.curve_samples:
        t = (now_us - start_us) / 1_000_000
        expected = max(1.0, c * (t - k) ** 3 + max_win)
        worst = max(worst, abs(cwnd - expected))
        epochs.add((start_us, max_win, k))
    exact_at_k = True
    for (_, max_win, k) in epochs:
        probe = Cubic(2, 44.0, CubicParams(tcp_friendly=False))
        probe.max_win = max_win
        probe.k_seconds = k
        exact_at_k = exact_at_k and probe.window_at(k) == max_win

    ok = (len(controller.curve_samples) > 500 and len(epochs) >= 2
          and worst <= 1e-9 and exact_at_k and elapsed < 1.0)
    _report("criterion 01 cubic closed form", ok,
            f"{len(controller.curve_samples)} post-loss samples over "
            f"{len(epochs)} epochs, max deviation {worst:.2e} seg, "
            f"window(K)==max exact: {exact_at_k}, runtime {elapsed:.2f} s")


def test_criterion_02_multiplicative_decrease_ratio(single_flow_campaign):
    details = []
    ok = True
    for variant in ("newreno", "bic"):
        checked = 0
        worst_quanta = 0
        for run in single_flow_campaign[variant]:
            for flow in run.flows:
                for (_, kind, pre, post, _ss) in flow.decreases:
                    if kind != "3dupack":
                        continue
                    pre_fp = round(pre * SCALE)
                    post_fp = round(post * SCALE)
                    if variant == "bic" and pre_fp >= round(14.0 * SCALE):
                        num, den = 4, 5   # b = 0.8
                    else:
                        num, den = 1, 2   # b = 0.5
                    expected = max(SCALE, pre_fp * num // den)
                    worst_quanta = max(worst_quanta, abs(post_fp - expected))
                    checked += 1
        ok = ok and checked > 50 and worst_quanta <= 1
        details.append(f"{variant} {checked} events worst {worst_quanta} ulp")
    _report("criterion 02 decrease ratio b", ok, "; ".join(details))


def test_criterion_03_bic_binary_search_oracle():
    ctrl = Bic(2, 1.0, BicParams())   # s_max 32, s_min 0.01
    ctrl.cwnd = 80 * SCALE
    ctrl.ssthresh = SCALE
    ctrl.epoch_valid = True
    ctrl.cwnd_min_fp = 80 * SCALE
    ctrl.cwnd_max_fp = 100 * SCALE

    # brute-force iteration in exact rational arithmetic
    cwnd, cmax = Fraction(80), Fraction(100)
    expected = []
    while True:
        midpoint = (cwnd + cmax) / 2
        if midpoint - cwnd <= Fraction("0.01"):
            expected.append(cmax)
            break
        cwnd += min(midpoint - cwnd, Fraction(32))
        expected.append(cwnd)

    def advance_round():
        ctrl.on_ack_growth(0)
        while ctrl._round_left > 0:
            ctrl.on_ack_growth(0)

    worst = Fraction(0)
    for target in expected[:-1]:
        advance_round()
        worst = max(worst, abs(Fraction(ctrl.cwnd) - target * SCALE))
    advance_round()   # convergence: interval collapses onto cwnd_max

    ok = (worst <= 2 and ctrl.cwnd_max_fp == 100 * SCALE and ctrl.max_probing
          and abs(ctrl.cwnd - (100 * SCALE + 10_000)) <= 2)
    _report("criterion 03 binary search vs oracle", ok,
            f"{len(expected)} rounds, worst drift {float(worst):.2f} quanta "
            f"(<=2e-06 seg), converged to "
            f"{ctrl.cwnd_max_fp / SCALE:g} then probed past it")


def test_criterion_04_queue_clearing_after_decrease(backlog_probe_runs):
    capacity = LabConfig().link.queue_capacity
    residuals = {}
    for variant, runs in backlog_probe_runs.items():
        values = []
        for run in runs:
            sample_times, rtts = run.flows[0].rtt_samples.columns
            for (t, kind, _pre, _post, _ss) in run.flows[0].decreases:
                if kind != "3dupack":
                    continue
                # the last RTT sample at or before the decrease
                i = bisect_right(sample_times, t)
                if not i:
                    continue
                values.append(backlog_at(run.backlog_probe, t + rtts[i - 1]))
        residuals[variant] = values

    ww, nr = residuals["westwood+"], residuals["newreno"]
    ok = (len(ww) >= 10 and len(nr) >= 10
          and max(ww) < 0.10 * capacity
          and min(nr) > max(ww)
          and statistics.mean(nr) > statistics.mean(ww))
    _report("criterion 04 queue clearing", ok,
            f"residual backlog one RTT after decrease: westwood+ "
            f"max {max(ww)}/{capacity} pkts over {len(ww)} events; "
            f"newreno min {min(nr)} mean {statistics.mean(nr):.1f} "
            f"over {len(nr)} events")


def test_criterion_05_rtt_ordering(single_flow_campaign):
    rtt = _flow_means(single_flow_campaign, "mean_rtt_us")
    ww, nr = rtt["westwood+"], rtt["newreno"]
    heavy = min(rtt["bic"], rtt["cubic"])
    ok = (ww <= nr < heavy and nr >= 1.05 * ww and heavy >= 1.05 * nr)
    _report("criterion 05 rtt ordering", ok,
            f"mean RTT ms: westwood+ {ww / 1000:.0f} <= newreno {nr / 1000:.0f}"
            f" < bic {rtt['bic'] / 1000:.0f} / cubic {rtt['cubic'] / 1000:.0f};"
            f" gaps {nr / ww:.2f}x and {heavy / nr:.2f}x (need >=1.05)")


def test_criterion_06_retx_and_timeout_ordering(single_flow_campaign):
    retx = _flow_means(single_flow_campaign, "retx_ratio")
    tmo = _flow_means(single_flow_campaign, "timeouts")
    ok = all(retx[heavy] > retx[light] and tmo[heavy] > tmo[light]
             for heavy in ("bic", "cubic")
             for light in ("newreno", "westwood+"))
    _report("criterion 06 retx/timeout ordering", ok,
            "retx% " + " ".join(f"{v} {retx[v] * 100:.3f}" for v in VARIANTS)
            + "; timeouts " + " ".join(f"{v} {tmo[v]:.2f}" for v in VARIANTS))


def test_criterion_07_goodput_parity(single_flow_campaign):
    rate = LabConfig().link.rate_bps
    goodput = _flow_means(single_flow_campaign, "goodput_bps")
    spread = max(goodput.values()) / min(goodput.values())
    floor = min(goodput.values()) / rate
    ok = spread <= 1.10 and floor >= 0.85
    _report("criterion 07 goodput parity", ok,
            "mean Kbps " + " ".join(f"{v} {goodput[v] / 1000:.0f}"
                                    for v in VARIANTS)
            + f"; spread {spread:.3f}x (<=1.10), worst/link {floor:.3f} (>=0.85)")


def test_criterion_08_goodput_scales_inverse_n(single_flow_campaign,
                                               multi_flow_campaign):
    single = _flow_means(single_flow_campaign, "goodput_bps")
    worst_lo, worst_hi = 1.0, 1.0
    ok = True
    for (variant, flows), runs in multi_flow_campaign.items():
        per_flow = statistics.mean(f.goodput_bps for r in runs for f in r.flows)
        scaling = per_flow / (single[variant] / flows)
        ok = ok and 0.8 <= scaling <= 1.2
        worst_lo = min(worst_lo, scaling)
        worst_hi = max(worst_hi, scaling)
    _report("criterion 08 1/N scaling", ok,
            f"per-flow goodput vs single/N across variants and N in 2..4: "
            f"ratios span [{worst_lo:.3f}, {worst_hi:.3f}] (need [0.8, 1.2])")


def test_criterion_09_fairness(multi_flow_campaign):
    worst = min(run.jain_index for runs in multi_flow_campaign.values()
                for run in runs)
    exact_equal = jain_fairness([7.0, 7.0, 7.0]) == 1.0
    exact_skew = jain_fairness([1.0, 3.0]) == 0.8
    ok = worst >= 0.90 and exact_equal and exact_skew
    _report("criterion 09 fairness", ok,
            f"worst per-run JFI {worst:.4f} (>=0.90) over "
            f"{sum(len(r) for r in multi_flow_campaign.values())} runs; "
            f"unit JFI equal->1.0 {exact_equal}, (1,3)->0.8 {exact_skew}")


def test_criterion_10_short_transfer_penalty(single_flow_campaign,
                                             short_transfer_campaign):
    single = _flow_means(single_flow_campaign, "goodput_bps")
    ratios = {}
    for (variant, size_kb), runs in short_transfer_campaign.items():
        mean = statistics.mean(r.flows[0].goodput_bps for r in runs)
        ratios[(variant, size_kb)] = mean / single[variant]
    ok = all(ratios[(v, 50)] < 0.60
             and 0.85 <= ratios[(v, 500)] <= 1.15
             and 0.85 <= ratios[(v, 1000)] <= 1.15
             for v in VARIANTS)
    worst50 = max(ratios[(v, 50)] for v in VARIANTS)
    span = [ratios[(v, kb)] for v in VARIANTS for kb in (500, 1000)]
    _report("criterion 10 short transfers", ok,
            f"50 KB goodput fraction of long-lived <= {worst50:.3f} (<0.60); "
            f"500/1000 KB span [{min(span):.3f}, {max(span):.3f}] "
            f"(within +-15%)")


def test_criterion_11_deterministic_outputs(tmp_path):
    config = LabConfig()
    config.variant = "cubic"
    config.flows = 2
    config.scenario.duration_s = 20.0
    paths = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = run_single(config, seed=7, capture_timeseries=True)
        write_run_outputs(str(out), config, result)
        paths.append(out)
    same_csv = (paths[0] / "timeseries.csv").read_bytes() == \
        (paths[1] / "timeseries.csv").read_bytes()
    same_json = (paths[0] / "summary.json").read_bytes() == \
        (paths[1] / "summary.json").read_bytes()
    ok = same_csv and same_json
    _report("criterion 11 determinism", ok,
            f"repeat run with same config+seed: timeseries identical "
            f"{same_csv}, summary identical {same_json}")


def test_criterion_12_metric_oracles():
    rng = random.Random(421)

    mismatches = 0
    for _ in range(1000):
        rows = [(rng.uniform(0, 2000), rng.uniform(0, 1000), rng.uniform(0, 20))
                for _ in range(rng.randint(2, 8))]
        # plain-definition scan: componentwise mean, squared euclidean
        # distance (sqrt would only add rounding without moving the argmin)
        means = [sum(col) / len(rows) for col in zip(*rows)]
        dists = [sum((a - b) ** 2 for a, b in zip(row, means)) for row in rows]
        brute = min(range(len(rows)), key=lambda i: (dists[i], i))
        if representative_flow(rows) != brute:
            mismatches += 1

    samples = [rng.uniform(0, 1000) for _ in range(1000)]
    box = box_whisker(samples)
    q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    box_err = max(abs(box.q1 - q1), abs(box.median - med), abs(box.q3 - q3))

    draws = 1_000_000
    total = sum(arq_penalty(rng, 0.1, 1000, 10_000) for _ in range(draws))
    expected = 1000 * 0.1 / 0.9
    arq_err = abs(total / draws - expected) / expected

    ok = mismatches == 0 and box_err <= 1e-9 and arq_err <= 0.01
    _report("criterion 12 oracle equivalence", ok,
            f"representative_flow: {mismatches}/1000 mismatches vs brute "
            f"force; box quartiles max err {box_err:.2e}; ARQ mean penalty "
            f"off by {arq_err * 100:.2f}% over 1e6 draws (<=1%)")
