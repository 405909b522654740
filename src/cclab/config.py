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
import math
from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import attrgetter, itemgetter

from .cc import (VARIANTS, BicParams, CubicParams, NewRenoParams, WestwoodParams,
                 canonical_variant)
from .engine import ms, seconds
from .link import LinkConfig
from .transport import TransportConfig

SCENARIO_LONG = "long_lived"
SCENARIO_SHORT = "short"
SHORT_RUN_HORIZON_S = 3600.0    # when a short-transfer run ends, finished or not


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
    def size_bytes(self) -> int | None:
        """Each flow's byte budget; a long-lived flow sends until the run ends."""
        return None if self.kind == SCENARIO_LONG else self.size_kb * 1024

    @property
    def end_s(self) -> float:
        return self.duration_s if self.kind == SCENARIO_LONG else SHORT_RUN_HORIZON_S


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
    matrix_variants: tuple[str, ...] = VARIANTS
    matrix_flows: tuple[int, ...] = (1, 2, 3, 4)
    matrix_scenarios: tuple[str, ...] = (SCENARIO_LONG,)
    matrix_runs: int = 5

    def validate(self) -> None:
        """Check each key against its range in `KEYS`, then the rules that span keys."""
        for section, key, path, (_, fmt, ok, need) in KEYS + _RUN_KEYS:
            value = attrgetter(path)(self)
            if not ok(value):
                raise ValueError(f"[{section}] {key} = {fmt(value)} must be {need}")
        self.variant = canonical_variant(self.variant)
        self.matrix_variants = tuple(canonical_variant(v) for v in self.matrix_variants)
        tp = self.transport
        if tp.mss > tp.wire_len:
            raise ValueError(f"[transport] mss = {tp.mss} must not exceed "
                             f"wire_len = {tp.wire_len}")
        if tp.rto_min_us > tp.rto_max_us:
            raise ValueError(f"[transport] rto_min_ms = {tp.rto_min_us / 1000:g} must not "
                             f"exceed rto_max_ms = {tp.rto_max_us / 1000:g}")
        specs = [self.scenario, *map(self.matrix_scenario, self.matrix_scenarios)]
        if any(s.kind == SCENARIO_SHORT and s.size_kb <= 0 for s in specs):
            raise ValueError("short-transfer scenario needs a positive size")
        for what, values in (("variants", self.matrix_variants), ("flows", self.matrix_flows),
                             ("scenarios", [s.tag for s in specs[1:]])):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"[matrix] {what} lists {repeated[0]} twice: "
                                 "each cell would run more than once")
        for spec in specs:
            # in the run's whole microseconds: a flow starts by seconds(stagger_s)
            if seconds(spec.end_s) <= seconds(self.stagger_s):
                end = "duration_s" if spec.kind == SCENARIO_LONG else "the short-run horizon"
                raise ValueError(f"{end} = {spec.end_s:g} must exceed stagger_s = "
                                 f"{self.stagger_s:g} in whole microseconds: a flow "
                                 "may start as the run ends")

    def matrix_scenario(self, token: str) -> ScenarioSpec:
        """The spec of a `[matrix] scenarios` token: it lasts `duration_s`."""
        return replace(parse_scenario(token), duration_s=self.scenario.duration_s)

    def params_for(self, variant: str):
        return getattr(self, canonical_variant(variant).rstrip("+"))   # westwood+ -> westwood

    # canonical text and hashing

    def canonical_text(self) -> str:
        """Every key of `KEYS`, in order, one `[section]` block per section."""
        return "\n".join(
            f"[{section}]\n" + "".join(f"{key} = {fmt(attrgetter(path)(self))}\n"
                                        for _, key, path, (_, fmt, _, _) in rows)
            for section, rows in groupby(KEYS, itemgetter(0)))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def _beta_fraction(text: str) -> tuple[int, int]:
    from fractions import Fraction   # here, so that only beta keys load it
    frac = Fraction(text)
    return frac.numerator, frac.denominator


def _beta_text(pair: tuple[int, int]) -> str:
    """`str(Fraction(n, d))` for n, d > 0, without importing `fractions`."""
    n, d = pair
    g = math.gcd(n, d)
    return f"{n // g}" if d == g else f"{n // g}/{d // g}"


def _any(value) -> bool:
    return True


def _g(value: float) -> str:
    return format(value, "g")      # "inf" round-trips too


# codecs: (parse the INI text, format the attribute value, is the value
# legal, what a legal value is)
_TEXT = (str, str, _any, "text")
_INT = (int, str, _any, "an integer")
_FLOAT = (float, _g, math.isfinite, "a finite number")
_MS = (lambda text: ms(float(text)), lambda us: format(us / 1000, "g"),
       _any, "a finite number")
_BETA = (_beta_fraction, _beta_text, lambda pair: 0 < pair[0] <= pair[1],
         "a fraction in (0, 1]")
_BOOL = (lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()],
         lambda value: str(value).lower(), lambda value: isinstance(value, bool),
         "true or false")
_SCENARIO_FORMS = "long_lived, short, short:N or shortNkb"
_SCENARIO = (parse_scenario, attrgetter("kind"),
             lambda spec: spec.kind in (SCENARIO_LONG, SCENARIO_SHORT), _SCENARIO_FORMS)


def _is_scenario_token(token: str) -> bool:
    try:
        parse_scenario(token)
    except ValueError:
        return False
    return True

# each legal range, under the text that names it in error messages; NaN
# fails every one
_RANGES = {
    "> 0": lambda x: x > 0,
    ">= 0": lambda x: x >= 0,
    ">= 1": lambda x: x >= 1,
    "in [0, 1]": lambda x: 0 <= x <= 1,
    "in (0, 1)": lambda x: 0 < x < 1,
}


def _within(codec, bound: str):
    parse, fmt, ok, noun = codec
    in_range = _RANGES[bound]
    return parse, fmt, lambda value: ok(value) and in_range(value), f"{noun} {bound}"


def _list(codec):
    parse, fmt, ok, noun = codec
    return (lambda text: tuple(parse(w.strip()) for w in text.split(",") if w.strip()),
            lambda values: ",".join(map(fmt, values)),
            lambda values: len(values) > 0 and all(map(ok, values)),
            f"a non-empty comma-separated list, each {noun}")


_COUNT = _within(_INT, ">= 1")

# (section, key, LabConfig attribute path, codec), in canonical order.  The
# hashed text is exactly these keys; defaults live in the dataclasses.
# `scenario` loads a whole new spec, so it must precede `duration_s` and
# `size_kb`.  `LabConfig.validate` checks every value against its codec.
KEYS = (
    ("experiment", "variant", "variant", _TEXT),
    ("experiment", "flows", "flows", _COUNT),
    ("experiment", "scenario", "scenario", _SCENARIO),
    ("experiment", "duration_s", "scenario.duration_s", _within(_FLOAT, "> 0")),
    ("experiment", "size_kb", "scenario.size_kb", _within(_INT, ">= 0")),
    ("experiment", "seed", "seed", _INT),
    ("experiment", "stagger_s", "stagger_s", _within(_FLOAT, ">= 0")),
    ("experiment", "sample_interval_ms", "sample_interval_ms", _within(_FLOAT, "> 0")),
    ("link", "rate_bps", "link.rate_bps", _COUNT),
    ("link", "prop_rtt_ms", "link.prop_rtt_us", _within(_MS, ">= 0")),
    ("link", "queue_capacity", "link.queue_capacity", _COUNT),
    ("link", "arq_frame_error_prob", "link.arq_frame_error_prob", _within(_FLOAT, "in [0, 1]")),
    ("link", "arq_retx_delay_ms", "link.arq_retx_delay_us", _within(_MS, ">= 0")),
    ("link", "arq_max_retx", "link.arq_max_retx", _within(_INT, ">= 0")),
    ("link", "residual_loss_prob", "link.residual_loss_prob", _within(_FLOAT, "in [0, 1]")),
    ("transport", "mss", "transport.mss", _COUNT),
    ("transport", "wire_len", "transport.wire_len", _INT),
    ("transport", "initial_cwnd", "transport.initial_cwnd_segments", _COUNT),
    # "inf" lifts the slow-start cap, so this float alone may be infinite
    ("transport", "initial_ssthresh", "transport.initial_ssthresh_segments",
     _within((float, _g, _any, "a number"), ">= 1")),
    ("transport", "dupack_threshold", "transport.dupack_threshold", _COUNT),
    ("transport", "rto_initial_ms", "transport.rto_initial_us", _within(_MS, "> 0")),
    ("transport", "rto_min_ms", "transport.rto_min_us", _within(_MS, "> 0")),
    ("transport", "rto_max_ms", "transport.rto_max_us", _MS),
    ("newreno", "b", "newreno.b", _BETA),
    ("westwood+", "filter_gain", "westwood.filter_gain", _within(_FLOAT, "in [0, 1]")),
    ("westwood+", "min_interval_ms", "westwood.min_interval_us", _within(_MS, "> 0")),
    ("westwood+", "fallback_b", "westwood.fallback_b", _BETA),
    ("bic", "b", "bic.b", _BETA),
    ("bic", "s_max", "bic.s_max", _within(_FLOAT, "> 0")),
    ("bic", "s_min", "bic.s_min", _within(_FLOAT, ">= 0")),
    ("bic", "low_window", "bic.low_window", _within(_FLOAT, ">= 0")),
    ("bic", "probe_start", "bic.probe_start", _within(_FLOAT, ">= 0")),
    ("bic", "fast_convergence", "bic.fast_convergence", _BOOL),
    ("cubic", "c", "cubic.c", _within(_FLOAT, "> 0")),
    ("cubic", "b", "cubic.b", _within(_FLOAT, "in (0, 1)")),
    ("cubic", "tcp_friendly", "cubic.tcp_friendly", _BOOL),
    ("cubic", "fast_convergence", "cubic.fast_convergence", _BOOL),
    ("matrix", "variants", "matrix_variants", _list(_TEXT)),
    ("matrix", "flows", "matrix_flows", _list(_COUNT)),
    ("matrix", "scenarios", "matrix_scenarios",
     _list((str, str, _is_scenario_token, _SCENARIO_FORMS))),
    ("matrix", "runs", "matrix_runs", _COUNT),
)

# run settings: read from the file, but they do not change results, so they
# stay out of the hashed text
_RUN_KEYS = (
    ("experiment", "out", "out_dir", _TEXT),
    ("experiment", "workers", "workers", _COUNT),
)

_LEGAL = {(section, key) for section, key, _, _ in KEYS + _RUN_KEYS}
_SECTIONS = {section for section, _ in _LEGAL}


def _set(cfg: LabConfig, path: str, value) -> None:
    owner, _, attr = path.rpartition(".")
    setattr(attrgetter(owner)(cfg) if owner else cfg, attr, value)


def load_config(path: str | None = None, text: str | None = None) -> LabConfig:
    """Build a LabConfig from INI text; missing keys keep their defaults.

    An unknown section or key, a value outside its key's range and text
    that configparser cannot read (no section header, a key set twice)
    raise ValueError; `;` starts an inline comment.
    """
    try:
        return _load(path, text)
    except configparser.Error as exc:
        raise ValueError(" ".join(str(exc).split())) from exc


def _load(path: str | None, text: str | None) -> LabConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    if text is not None:
        parser.read_string(text)
    elif path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    if parser.defaults():
        raise ValueError(f"unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown section [{section}]")
        for key in parser.options(section):
            if (section, key) not in _LEGAL:
                raise ValueError(f"unknown key {key!r} in [{section}]")

    cfg = LabConfig()
    for section, key, attr, (parse, _, _, need) in KEYS + _RUN_KEYS:
        text = parser.get(section, key, fallback=None)
        if text is not None:
            try:
                value = parse(text)
            except (KeyError, OverflowError, ValueError, ZeroDivisionError):
                raise ValueError(f"[{section}] {key} = {text} must be {need}") from None
            _set(cfg, attr, value)
    if parser.has_option("experiment", "scenario"):
        token = parser.get("experiment", "scenario")
        if parse_scenario(token).size_kb not in (0, cfg.scenario.size_kb):
            raise ValueError(f"scenario = {token} conflicts with size_kb = {cfg.scenario.size_kb}")
    cfg.validate()
    return cfg
