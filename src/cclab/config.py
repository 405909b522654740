"""Experiment configuration: flat sectioned key=value text.

Every key has a default, so an empty file (or no file) describes the
reference scenario: one long-lived flow for 180 s over the 1.5 Mbps
bottleneck.  The canonical serialization of the effective configuration
is hashed into every output, which together with the seed pins each
run's bytes.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field
from fractions import Fraction

from .cc import (BicParams, CubicParams, NewRenoParams, WestwoodParams,
                 canonical_variant)
from .link import LinkConfig
from .transport import TransportConfig

SCENARIO_LONG = "long_lived"
SCENARIO_SHORT = "short"

SHORT_SIZES_KB = (50, 100, 500, 1000)


@dataclass
class ScenarioSpec:
    kind: str = SCENARIO_LONG
    duration_s: float = 180.0
    size_kb: int = 0

    @property
    def tag(self) -> str:
        if self.kind == SCENARIO_LONG:
            return f"long{self.duration_s:g}s"
        return f"short{self.size_kb}kb"

    @property
    def size_bytes(self) -> int:
        return self.size_kb * 1024

    def validate(self) -> None:
        if self.kind not in (SCENARIO_LONG, SCENARIO_SHORT):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.kind == SCENARIO_LONG and self.duration_s <= 0:
            raise ValueError("long-lived scenario needs a positive duration")
        if self.kind == SCENARIO_SHORT and self.size_kb <= 0:
            raise ValueError("short-transfer scenario needs a positive size")


def parse_scenario(token: str) -> ScenarioSpec:
    """`long_lived`, `short:50` or `short50kb`; a bare `short` has size 0."""
    token = token.strip()
    if token == SCENARIO_LONG:
        return ScenarioSpec(SCENARIO_LONG)
    if token.startswith(SCENARIO_SHORT):
        rest = token[len(SCENARIO_SHORT):].lstrip(":")
        if rest.lower().endswith("kb"):
            rest = rest[:-2]
        return ScenarioSpec(SCENARIO_SHORT, size_kb=int(rest) if rest else 0)
    raise ValueError(f"cannot parse scenario token {token!r}")


@dataclass
class LabConfig:
    variant: str = "newreno"
    flows: int = 1
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    runs: int = 1
    seed: int = 1
    stagger_s: float = 1.0
    sample_interval_ms: float = 100.0
    out_dir: str = ""
    workers: int = 1
    link: LinkConfig = field(default_factory=LinkConfig)
    transport: TransportConfig = field(default_factory=TransportConfig)
    newreno: NewRenoParams = field(default_factory=NewRenoParams)
    westwood: WestwoodParams = field(default_factory=WestwoodParams)
    bic: BicParams = field(default_factory=BicParams)
    cubic: CubicParams = field(default_factory=CubicParams)
    matrix_variants: tuple[str, ...] = ("newreno", "westwood+", "bic", "cubic")
    matrix_flows: tuple[int, ...] = (1, 2, 3, 4)
    matrix_scenarios: tuple[str, ...] = (SCENARIO_LONG,)
    matrix_runs: int = 5

    def validate(self) -> None:
        self.variant = canonical_variant(self.variant)
        if self.flows < 1:
            raise ValueError("flow count must be at least 1")
        if self.runs < 1 or self.matrix_runs < 1:
            raise ValueError("repetition count must be at least 1")
        if self.stagger_s < 0:
            raise ValueError("stagger cannot be negative")
        if self.sample_interval_ms <= 0:
            raise ValueError("sample interval must be positive")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        self.scenario.validate()
        self.link.validate()
        self.transport.validate()
        self.matrix_variants = tuple(canonical_variant(v) for v in self.matrix_variants)
        if any(f < 1 for f in self.matrix_flows):
            raise ValueError("matrix flow counts must be positive")
        for token in self.matrix_scenarios:
            parse_scenario(token).validate()

    def params_for(self, variant: str):
        variant = canonical_variant(variant)
        return {"newreno": self.newreno, "westwood+": self.westwood,
                "bic": self.bic, "cubic": self.cubic}[variant]

    # canonical text and hashing

    def canonical_text(self) -> str:
        sc = self.scenario
        tr = self.transport
        ssthresh = tr.initial_ssthresh_segments
        lines = [
            "[experiment]",
            f"variant = {self.variant}",
            f"flows = {self.flows}",
            f"scenario = {sc.kind}",
            f"duration_s = {sc.duration_s:g}",
            f"size_kb = {sc.size_kb}",
            f"runs = {self.runs}",
            f"seed = {self.seed}",
            f"stagger_s = {self.stagger_s:g}",
            f"sample_interval_ms = {self.sample_interval_ms:g}",
            f"workers = {self.workers}",
            "",
            "[link]",
            f"rate_bps = {self.link.rate_bps}",
            f"prop_rtt_ms = {self.link.prop_rtt_us / 1000:g}",
            f"queue_capacity = {self.link.queue_capacity}",
            f"arq_frame_error_prob = {self.link.arq_frame_error_prob:g}",
            f"arq_retx_delay_ms = {self.link.arq_retx_delay_us / 1000:g}",
            f"arq_max_retx = {self.link.arq_max_retx}",
            f"residual_loss_prob = {self.link.residual_loss_prob:g}",
            "",
            "[transport]",
            f"mss = {tr.mss}",
            f"wire_len = {tr.wire_len}",
            f"initial_cwnd = {tr.initial_cwnd_segments}",
            f"initial_ssthresh = {'inf' if ssthresh == float('inf') else format(ssthresh, 'g')}",
            f"dupack_threshold = {tr.dupack_threshold}",
            f"rto_initial_ms = {tr.rto_initial_us / 1000:g}",
            f"rto_min_ms = {tr.rto_min_us / 1000:g}",
            f"rto_max_ms = {tr.rto_max_us / 1000:g}",
            "",
            "[newreno]",
            f"b = {Fraction(self.newreno.beta_num, self.newreno.beta_den)}",
            "",
            "[westwood+]",
            f"filter_gain = {self.westwood.filter_gain:g}",
            f"min_interval_ms = {self.westwood.min_interval_us / 1000:g}",
            f"fallback_b = {Fraction(self.westwood.fallback_beta_num, self.westwood.fallback_beta_den)}",
            "",
            "[bic]",
            f"b = {Fraction(self.bic.beta_num, self.bic.beta_den)}",
            f"s_max = {self.bic.s_max:g}",
            f"s_min = {self.bic.s_min:g}",
            f"low_window = {self.bic.low_window:g}",
            f"probe_start = {self.bic.probe_start:g}",
            f"fast_convergence = {str(self.bic.fast_convergence).lower()}",
            "",
            "[cubic]",
            f"c = {self.cubic.c:g}",
            f"b = {self.cubic.b:g}",
            f"tcp_friendly = {str(self.cubic.tcp_friendly).lower()}",
            f"fast_convergence = {str(self.cubic.fast_convergence).lower()}",
            "",
            "[matrix]",
            f"variants = {','.join(self.matrix_variants)}",
            f"flows = {','.join(str(f) for f in self.matrix_flows)}",
            f"scenarios = {','.join(self.matrix_scenarios)}",
            f"runs = {self.matrix_runs}",
        ]
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def _beta_fraction(text: str) -> tuple[int, int]:
    frac = Fraction(text)
    if not 0 < frac <= 1:
        raise ValueError(f"decrease factor must be in (0, 1], got {text}")
    return frac.numerator, frac.denominator


def load_config(path: str | None = None, text: str | None = None) -> LabConfig:
    """Build a LabConfig from INI text; missing keys fall back to defaults."""
    parser = configparser.ConfigParser()
    if text is not None:
        parser.read_string(text)
    elif path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    cfg = LabConfig()

    def get(section: str, key: str, fallback: str) -> str:
        return parser.get(section, key, fallback=fallback)

    exp = lambda key, fb: get("experiment", key, fb)
    cfg.variant = exp("variant", cfg.variant)
    cfg.flows = int(exp("flows", str(cfg.flows)))
    scenario_text = exp("scenario", cfg.scenario.kind)
    scenario = parse_scenario(scenario_text)
    scenario.duration_s = float(exp("duration_s", str(cfg.scenario.duration_s)))
    size_kb = int(exp("size_kb", str(scenario.size_kb)))
    if scenario.size_kb and size_kb != scenario.size_kb:
        raise ValueError(f"scenario = {scenario_text} conflicts with size_kb = {size_kb}")
    scenario.size_kb = size_kb
    cfg.scenario = scenario
    cfg.runs = int(exp("runs", str(cfg.runs)))
    cfg.seed = int(exp("seed", str(cfg.seed)))
    cfg.stagger_s = float(exp("stagger_s", str(cfg.stagger_s)))
    cfg.sample_interval_ms = float(exp("sample_interval_ms", str(cfg.sample_interval_ms)))
    cfg.out_dir = exp("out", cfg.out_dir)
    cfg.workers = int(exp("workers", str(cfg.workers)))

    ln = lambda key, fb: get("link", key, fb)
    cfg.link = LinkConfig(
        rate_bps=int(ln("rate_bps", str(cfg.link.rate_bps))),
        prop_rtt_us=round(float(ln("prop_rtt_ms", "100")) * 1000),
        queue_capacity=int(ln("queue_capacity", str(cfg.link.queue_capacity))),
        arq_frame_error_prob=float(ln("arq_frame_error_prob", str(cfg.link.arq_frame_error_prob))),
        arq_retx_delay_us=round(float(ln("arq_retx_delay_ms",
                                         str(cfg.link.arq_retx_delay_us / 1000))) * 1000),
        arq_max_retx=int(ln("arq_max_retx", str(cfg.link.arq_max_retx))),
        residual_loss_prob=float(ln("residual_loss_prob", str(cfg.link.residual_loss_prob))),
    )

    tr = lambda key, fb: get("transport", key, fb)
    ssthresh_text = tr("initial_ssthresh", "44")
    cfg.transport = TransportConfig(
        mss=int(tr("mss", str(cfg.transport.mss))),
        wire_len=int(tr("wire_len", str(cfg.transport.wire_len))),
        initial_cwnd_segments=int(tr("initial_cwnd", "2")),
        initial_ssthresh_segments=float(ssthresh_text),
        dupack_threshold=int(tr("dupack_threshold", "3")),
        rto_initial_us=round(float(tr("rto_initial_ms", "1000")) * 1000),
        rto_min_us=round(float(tr("rto_min_ms", "200")) * 1000),
        rto_max_us=round(float(tr("rto_max_ms", "60000")) * 1000),
    )

    num, den = _beta_fraction(get("newreno", "b", "1/2"))
    cfg.newreno = NewRenoParams(beta_num=num, beta_den=den)

    fb_num, fb_den = _beta_fraction(get("westwood+", "fallback_b", "1/2"))
    cfg.westwood = WestwoodParams(
        filter_gain=float(get("westwood+", "filter_gain", "0.9")),
        min_interval_us=round(float(get("westwood+", "min_interval_ms", "50")) * 1000),
        fallback_beta_num=fb_num,
        fallback_beta_den=fb_den,
    )

    truthy = ("1", "true", "yes", "on")
    num, den = _beta_fraction(get("bic", "b", "4/5"))
    cfg.bic = BicParams(
        beta_num=num,
        beta_den=den,
        s_max=float(get("bic", "s_max", "32")),
        s_min=float(get("bic", "s_min", "0.01")),
        low_window=float(get("bic", "low_window", "14")),
        probe_start=float(get("bic", "probe_start", "0.01")),
        fast_convergence=get("bic", "fast_convergence", "true").strip().lower() in truthy,
    )

    cfg.cubic = CubicParams(
        c=float(get("cubic", "c", "0.4")),
        b=float(get("cubic", "b", "0.2")),
        tcp_friendly=get("cubic", "tcp_friendly", "true").strip().lower() in truthy,
        fast_convergence=get("cubic", "fast_convergence", "true").strip().lower() in truthy,
    )

    mx = lambda key, fb: get("matrix", key, fb)
    cfg.matrix_variants = tuple(
        v.strip() for v in mx("variants", ",".join(cfg.matrix_variants)).split(",") if v.strip())
    cfg.matrix_flows = tuple(
        int(f) for f in mx("flows", ",".join(map(str, cfg.matrix_flows))).split(",") if f.strip())
    cfg.matrix_scenarios = tuple(
        s.strip() for s in mx("scenarios", ",".join(cfg.matrix_scenarios)).split(",") if s.strip())
    cfg.matrix_runs = int(mx("runs", str(cfg.matrix_runs)))

    cfg.validate()
    return cfg
