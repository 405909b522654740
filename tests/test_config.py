"""Config parsing, canonical serialization, and hashing."""

import configparser
import json
import re
from fractions import Fraction
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import cclab.config as config_mod
from cclab.cli import main
from cclab.config import (ALWAYS, KEYS, NEVER, LabConfig, ScenarioSpec, _BETA, _TEXT,
                          _beta_text, load_config, parse_scenario)
from cclab.runner import run_single

README = Path(__file__).resolve().parents[1] / "README.md"


def test_empty_text_yields_the_reference_scenario():
    cfg = load_config(text="")
    assert cfg.variant == "newreno"
    assert cfg.flows == 1
    assert cfg.scenario.kind == "long_lived"
    assert cfg.scenario.duration_s == 180.0
    assert cfg.link.rate_bps == 1_500_000
    assert cfg.link.prop_rtt_us == 100_000
    assert cfg.link.queue_capacity == 60
    assert cfg.transport.mss == 1460
    assert cfg.transport.initial_cwnd_segments == 2


def test_no_file_equals_empty_text():
    assert load_config().config_hash() == load_config(text="").config_hash()


def test_canonical_text_round_trips_to_the_same_hash():
    cfg = load_config(text="")
    again = load_config(text=cfg.canonical_text())
    assert again.canonical_text() == cfg.canonical_text()
    assert again.config_hash() == cfg.config_hash()


def test_round_trip_preserves_overrides():
    text = """
[experiment]
variant = bic
flows = 3
scenario = short
size_kb = 500
seed = 99

[link]
rate_bps = 1200000
queue_capacity = 40

[bic]
b = 3/4
fast_convergence = false

[cubic]
tcp_friendly = false
"""
    cfg = load_config(text=text)
    assert cfg.variant == "bic"
    assert cfg.flows == 3
    assert cfg.scenario.kind == "short" and cfg.scenario.size_kb == 500
    assert cfg.link.rate_bps == 1_200_000
    assert cfg.bic.b == (3, 4)
    assert cfg.bic.fast_convergence is False
    assert cfg.cubic.tcp_friendly is False
    again = load_config(text=cfg.canonical_text())
    assert again.config_hash() == cfg.config_hash()
    assert again.bic.fast_convergence is False


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_beta_text_is_the_reduced_fraction(n, d):
    assert _beta_text((n, d)) == str(Fraction(n, d))


def test_hash_changes_when_any_key_changes():
    base = load_config(text="").config_hash()
    assert load_config(text="[experiment]\nseed = 2\n").config_hash() != base
    assert load_config(text="[link]\nqueue_capacity = 61\n").config_hash() != base
    assert load_config(text="[cubic]\nc = 0.5\n").config_hash() != base


def test_run_settings_stay_out_of_the_hash():
    base = load_config(text="")
    run = load_config(text="[experiment]\nworkers = 2\nout = elsewhere\n")
    assert (run.workers, run.out_dir) == (2, "elsewhere")
    assert run.canonical_text() == base.canonical_text()


@pytest.mark.parametrize("text, message", [
    ("[experiment]\nduraton_s = 20\n", "unknown key 'duraton_s' in [experiment]"),
    ("[experiment]\nruns = 3\n", "unknown key 'runs' in [experiment]"),
    ("[linkk]\nrate_bps = 1000000\n", "unknown section [linkk]"),
    ("[linkk]\n", "unknown section [linkk]"),
    ("[DEFAULT]\nseed = 3\n", "unknown section [DEFAULT]"),
    ("[link]\nrate = 1000000\n", "unknown key 'rate' in [link]"),
])
def test_unknown_sections_and_keys_are_rejected(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(text=text)


def test_readme_config_block_loads_to_the_defaults():
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    assert load_config(text=block).config_hash() == LabConfig().config_hash()
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(block)
    missing = [(section, key) for section, key, *_ in KEYS
               if not parser.has_option(section, key)]
    assert missing == []


def test_variant_aliases_are_canonicalized():
    cfg = load_config(text="[experiment]\nvariant = Westwood\n")
    assert cfg.variant == "westwood+"


def test_scenario_tokens():
    assert parse_scenario("long_lived").kind == "long_lived"
    assert parse_scenario("short:50").size_kb == 50
    assert parse_scenario("short500kb").size_kb == 500
    assert parse_scenario(" short:1000 ").size_kb == 1000
    with pytest.raises(ValueError):
        parse_scenario("medium")


def test_documented_short_token_in_experiment_section():
    token = load_config(text="[experiment]\nscenario = short:50\n")
    keyed = load_config(text="[experiment]\nscenario = short\nsize_kb = 50\n")
    assert token.scenario == keyed.scenario
    assert token.scenario.kind == "short" and token.scenario.size_kb == 50
    assert token.canonical_text() == keyed.canonical_text()
    agreeing = load_config(text="[experiment]\nscenario = short:50\nsize_kb = 50\n")
    assert agreeing.scenario == keyed.scenario
    with pytest.raises(ValueError):
        load_config(text="[experiment]\nscenario = short:50\nsize_kb = 100\n")
    with pytest.raises(ValueError):
        load_config(text="[experiment]\nscenario = short\n")


def test_scenario_tag_and_sizes():
    assert ScenarioSpec().tag == "long180s"
    assert ScenarioSpec("short", size_kb=50).tag == "short50kb"
    assert ScenarioSpec("short", size_kb=50).size_bytes == 50 * 1024


def test_validation_rejects_bad_fields():
    with pytest.raises(ValueError):
        load_config(text="[experiment]\nflows = 0\n")
    with pytest.raises(ValueError):
        load_config(text="[experiment]\nvariant = vegas\n")
    with pytest.raises(ValueError):
        load_config(text="[experiment]\nstagger_s = -1\n")
    with pytest.raises(ValueError):
        load_config(text="[link]\nrate_bps = 0\n")
    with pytest.raises(ValueError):
        load_config(text="[link]\narq_frame_error_prob = 1.5\n")
    with pytest.raises(ValueError):
        load_config(text="[newreno]\nb = 0\n")
    with pytest.raises(ValueError):
        load_config(text="[newreno]\nb = 3/2\n")
    with pytest.raises(ValueError):
        load_config(text="[matrix]\nflows = 0,1\n")
    with pytest.raises(ValueError):
        load_config(text="[matrix]\nscenarios = sideways\n")


# (section, key, value): each loaded before it was bounded, then hung or
# crashed mid-run (NaN cannot become a µs count; the cube root of a
# negative float is complex), or was read wrongly (`ture` read as false)
BAD_INPUTS = [
    ("transport", "rto_initial_ms", "0"),        # each expiry re-arms at the same µs
    ("westwood+", "filter_gain", "-3"),
    ("cubic", "c", "0"),                         # ZeroDivisionError at the first loss
    ("cubic", "b", "-0.2"),
    ("cubic", "c", "-0.4"),
    ("cubic", "tcp_friendly", "ture"),
    ("experiment", "stagger_s", "nan"),
    ("experiment", "duration_s", "nan"),
    ("experiment", "sample_interval_ms", "nan"),
    # both round to a 0 µs interval: run_single sampled them every 1 µs,
    # under two hashes
    ("experiment", "sample_interval_ms", "0.0004"),
    ("experiment", "sample_interval_ms", "0.0005"),
    ("bic", "s_max", "nan"),
]


@pytest.mark.parametrize("section, key, value", BAD_INPUTS,
                         ids=[f"{s}.{k}={v}" for s, k, v in BAD_INPUTS])
def test_inputs_that_hung_or_crashed_a_run_fail_at_load(section, key, value):
    with pytest.raises(ValueError, match=re.escape(f"[{section}] {key} = {value} must be ")):
        load_config(text=f"[{section}]\n{key} = {value}\n")


def test_a_bad_matrix_scenario_token_names_its_section_and_key():
    with pytest.raises(ValueError, match=re.escape(
            "[matrix] scenarios = sideways must be a non-empty comma-separated list, "
            "each long_lived, short, short:N or shortNkb")):
        load_config(text="[matrix]\nscenarios = sideways\n")


def test_booleans_are_strict():
    for text, value in configparser.ConfigParser.BOOLEAN_STATES.items():
        for spelling in (text, text.upper()):
            cfg = load_config(text=f"[cubic]\ntcp_friendly = {spelling}\n")
            assert cfg.cubic.tcp_friendly is value
    with pytest.raises(ValueError, match=re.escape("[cubic] tcp_friendly = ture")):
        load_config(text="[cubic]\ntcp_friendly = ture\n")


# values just past each end of each range that `KEYS` states, by its text
PAST_THE_ENDS = {
    "an integer >= 0": ("-1",),
    "an integer >= 1": ("0",),
    "a non-empty comma-separated list, each text": ("",),
    "a non-empty comma-separated list, each an integer >= 1": ("1,0", ""),
    "a non-empty comma-separated list, each long_lived, short, short:N or shortNkb":
        ("long_lived,sideways", ""),
    "a finite number > 0": ("0", "inf"),
    "a finite number at least 1 µs once rounded": ("0.0005", "inf"),
    "a finite number >= 0": ("-0.001", "inf"),
    "a finite number in [0, 1]": ("-0.001", "1.001"),
    "a finite number in (0, 1)": ("0", "1"),
    "a number >= 1": ("0.999",),
    "a fraction in (0, 1]": ("0", "1001/1000"),
    "true or false": ("ture", "2"),
}
# legal values besides the defaults: "inf" lifts the slow-start cap, and
# 0.0006 ms rounds to a 1 µs interval
ALSO_LEGAL = {"a number >= 1": ("inf",),
              "a finite number at least 1 µs once rounded": ("0.0006",)}
# rows without a range of their own: any value parses, or a rule that
# spans keys bounds it (wire_len and rto_max_ms)
UNBOUNDED = {"text", "an integer", "a finite number",
             "long_lived, short, short:N or shortNkb"}


def test_every_row_states_a_range_this_file_knows():
    needs = {need for _, _, _, (_, _, _, need), _ in KEYS}
    assert needs <= PAST_THE_ENDS.keys() | UNBOUNDED


BOUNDED = [row[:4] for row in KEYS if row[3][3] in PAST_THE_ENDS]
FLOATS = [(section, key) for section, key, _, codec, _ in KEYS if "number" in codec[3]]


@pytest.mark.parametrize("section, key, path, codec", BOUNDED,
                         ids=[f"{section}.{key}" for section, key, *_ in BOUNDED])
def test_each_bound_admits_the_default_and_rejects_past_its_ends(section, key, path, codec):
    _, fmt, _, need = codec
    default = fmt(attrgetter(*path.split())(LabConfig()))
    for value in (default, *ALSO_LEGAL.get(need, ())):
        load_config(text=f"[{section}]\n{key} = {value}\n")
    for value in PAST_THE_ENDS[need]:
        with pytest.raises(ValueError, match=re.escape(f"[{section}] {key} = {value} must be ")):
            load_config(text=f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("section, key", FLOATS, ids=[f"{s}.{k}" for s, k in FLOATS])
def test_nan_is_rejected_for_every_float(section, key):
    with pytest.raises(ValueError, match=re.escape(f"[{section}] {key} = nan must be ")):
        load_config(text=f"[{section}]\n{key} = nan\n")


def test_a_config_changed_in_code_is_checked_against_the_same_table():
    cfg = load_config(text="")
    cfg.cubic.c = 0.0
    with pytest.raises(ValueError, match=re.escape("[cubic] c = 0 must be ")):
        cfg.validate()
    cfg = load_config(text="")
    cfg.transport.mss = 1501
    with pytest.raises(ValueError, match=re.escape("[transport] mss = 1501 must not exceed")):
        cfg.validate()


def test_rto_min_above_rto_max_is_rejected_naming_both_keys():
    # this rule is the only bound on rto_max_ms (see UNBOUNDED above)
    load_config(text="[transport]\nrto_min_ms = 500\nrto_max_ms = 500\n")
    with pytest.raises(ValueError, match=re.escape(
            "[transport] rto_min_ms = 500.5 must not exceed rto_max_ms = 500")):
        load_config(text="[transport]\nrto_min_ms = 500.5\nrto_max_ms = 500\n")


@pytest.mark.parametrize("matrix, message", [
    ("variants = westwood,westwood+", "[matrix] variants lists westwood+ twice"),
    ("flows = 1,2,1", "[matrix] flows lists 1 twice"),
    ("scenarios = short:50,short50kb", "[matrix] scenarios lists short50kb twice"),
], ids=["variants", "flows", "scenarios"])
def test_repeated_matrix_entries_are_rejected(matrix, message):
    # a repeated entry would run (and write) the same cell more than once
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(text=f"[matrix]\n{matrix}\n")


@pytest.mark.parametrize("text", [
    "[experiment]\nduration_s = 0.3\n",
    "[experiment]\nduration_s = 5\nstagger_s = 5\n",
    # both round to the same whole microsecond
    "[experiment]\nduration_s = 0.0000001\nstagger_s = 0\n",
    "[experiment]\nduration_s = 5.0000004\nstagger_s = 5\n",
    # a short experiment, but the default matrix sweep is long-lived
    "[experiment]\nscenario = short:50\nduration_s = 0.5\n",
    "[experiment]\nscenario = short:50\nduration_s = 0.5\n"
    "[matrix]\nscenarios = short:50, long_lived\n",
], ids=["default_stagger", "equal", "equal_us", "equal_us_rounded", "matrix_default",
        "matrix_token"])
def test_long_lived_runs_must_outlast_the_stagger(text):
    with pytest.raises(ValueError, match="duration_s = .* stagger_s = "):
        load_config(text=text)


def test_short_transfers_must_start_before_the_short_run_horizon():
    # the horizon is 3600 s: a later start would never send a byte
    with pytest.raises(ValueError, match="the short-run horizon = 3600 must exceed "
                                         "stagger_s = 100000"):
        load_config(text="[experiment]\nscenario = short:50\nstagger_s = 100000\n"
                         "[matrix]\nscenarios = short:50\n")


def test_a_run_ends_at_its_duration_or_at_the_short_run_horizon():
    assert ScenarioSpec().end_s == 180.0
    assert ScenarioSpec(duration_s=7.5).end_s == 7.5
    assert ScenarioSpec("short", duration_s=7.5, size_kb=50).end_s == 3600.0


def test_short_transfers_alone_ignore_the_duration():
    cfg = load_config(text="[experiment]\nscenario = short:50\nduration_s = 0.5\n"
                           "[matrix]\nscenarios = short:50\n")
    assert cfg.scenario.duration_s == 0.5


def test_infinite_ssthresh_round_trips():
    cfg = load_config(text="[transport]\ninitial_ssthresh = inf\n")
    assert cfg.transport.initial_ssthresh_segments == float("inf")
    again = load_config(text=cfg.canonical_text())
    assert again.transport.initial_ssthresh_segments == float("inf")
    assert again.config_hash() == cfg.config_hash()


def test_params_for_selects_the_variant_block():
    cfg = load_config(text="")
    assert cfg.params_for("bic") is cfg.bic
    assert cfg.params_for("westwood") is cfg.westwood
    assert cfg.params_for("cubic") is cfg.cubic
    assert cfg.params_for("newreno") is cfg.newreno


def test_matrix_defaults_cover_the_full_grid():
    cfg = load_config(text="")
    assert cfg.matrix_variants == ("newreno", "westwood+", "bic", "cubic")
    assert cfg.matrix_flows == (1, 2, 3, 4)
    assert cfg.matrix_scenarios == ("long_lived",)
    assert cfg.matrix_runs == 5


def test_loading_from_a_file(tmp_path):
    path = tmp_path / "lab.ini"
    path.write_text("[experiment]\nvariant = cubic\nflows = 2\n")
    cfg = load_config(path=str(path))
    assert cfg.variant == "cubic"
    assert cfg.flows == 2


def test_a_size_in_a_long_lived_run_fails_naming_both_keys():
    # a long-lived flow sends until the run ends: the size would only move the hash
    message = re.escape("[experiment] size_kb = 50 must be 0 with scenario = long_lived")
    for text in ("[experiment]\nsize_kb = 50\n",
                 "[experiment]\nscenario = long_lived\nsize_kb = 50\n"):
        with pytest.raises(ValueError, match=message):
            load_config(text=text)
    with pytest.raises(ValueError, match=message):
        run_single(load_config(text=""), seed=1, scenario=ScenarioSpec(size_kb=50))
    cfg = load_config(text="")
    cfg.scenario.size_kb = 50
    with pytest.raises(ValueError, match=message):
        run_single(cfg, seed=1)


def test_a_sample_interval_that_rounds_to_0_us_fails_at_run_start():
    cfg = load_config(text="")
    cfg.sample_interval_ms = 0.0004
    with pytest.raises(ValueError, match=re.escape(
            "[experiment] sample_interval_ms = 0.0004 must be a finite number at least "
            "1 µs once rounded")):
        run_single(cfg, seed=1, capture_timeseries=True)


# a legal value for each range, by the text that names it; each row takes
# the first one that differs from its default
OTHER_VALUES = {
    "text": ("cubic",),                         # a variant, and a directory
    "an integer": ("1600",),                    # wire_len stays at least mss
    "an integer >= 0": ("2",),
    "an integer >= 1": ("2", "3"),
    "a finite number": ("90000",),
    "a finite number > 0": ("2",),
    "a finite number >= 0": ("0.5",),
    "a finite number at least 1 µs once rounded": ("80",),
    "a finite number in [0, 1]": ("0.25",),
    "a finite number in (0, 1)": ("0.25",),
    "a number >= 1": ("inf",),
    "a fraction in (0, 1]": ("3/4",),
    "true or false": ("false", "true"),
    "long_lived, short, short:N or shortNkb": ("short:50",),
    "a non-empty comma-separated list, each text": ("cubic,bic",),
    "a non-empty comma-separated list, each an integer >= 1": ("2,3",),
    "a non-empty comma-separated list, each long_lived, short, short:N or shortNkb":
        ("short:50,long_lived",),
}
# the other keys a value needs: only a short transfer has a size
CONTEXT = {("experiment", "size_kb"): "scenario = short\n"}


@pytest.mark.parametrize("section, key, path, codec, rule", KEYS,
                         ids=[f"{section}.{key}" for section, key, *_ in KEYS])
def test_each_row_round_trips_at_a_value_other_than_its_default(section, key, path, codec,
                                                                rule):
    _, fmt, _, need = codec
    value_of = attrgetter(path)
    default = fmt(value_of(LabConfig()))
    value = next(v for v in OTHER_VALUES[need] if v != default)
    cfg = load_config(text=f"[{section}]\n{CONTEXT.get((section, key), '')}{key} = {value}\n")
    assert fmt(value_of(cfg)) != default
    text = cfg.canonical_text()
    again = load_config(text=text)
    assert again.canonical_text() == text
    assert again.config_hash() == cfg.config_hash()
    parser = configparser.ConfigParser()
    parser.read_string(text)
    if rule is NEVER:
        # a run setting never shows up in the hashed text
        assert not parser.has_option(section, key)
        assert text == LabConfig().canonical_text()
    else:
        assert parser.get(section, key) == fmt(value_of(cfg)) == fmt(value_of(again))


def test_each_sections_rows_are_adjacent():
    # `canonical_text` and the legal keys group `KEYS` by section with
    # `groupby`, which joins only adjacent rows
    sections = [section for section, _ in groupby(row[0] for row in KEYS)]
    assert len(sections) == len(set(sections))


def test_the_run_settings_are_the_rows_never_written():
    assert [(s, k) for s, k, *_, rule in KEYS if rule is NEVER] == [
        ("experiment", "out"), ("experiment", "workers")]


# Each row's neutral value, as its codec writes it.  A neutral value never
# changes once released: results would change under an unchanged hash.  A
# key added with a neutral value adds its entry here.
NEUTRAL_VALUES = {}


def _neutral_rows(rows):
    return [row for row in rows if row[4] is not ALWAYS and row[4] is not NEVER]


def test_the_neutral_values_are_pinned():
    assert {(section, key): fmt(rule)
            for section, key, _, (_, fmt, _, _), rule in _neutral_rows(KEYS)} == NEUTRAL_VALUES


def _neutral_mismatches(rows):
    """The rows whose neutral value does not format as their dataclass default."""
    return [(section, key) for section, key, path, (_, fmt, _, _), rule in _neutral_rows(rows)
            if fmt(rule) != fmt(attrgetter(path)(LabConfig()))]


# a test-only key with neutral value 1/2, as a later key would be added,
# read from a class attribute of LabConfig
PROBE = ("probe", "b", "probe_b", _BETA, (1, 2))
DEFAULT_TEXT = LabConfig().canonical_text()


@pytest.fixture
def probe_key(monkeypatch):
    monkeypatch.setattr(LabConfig, "probe_b", (1, 2), raising=False)
    monkeypatch.setattr(config_mod, "KEYS", KEYS + (PROBE,))
    monkeypatch.setitem(config_mod._LEGAL, "probe", {"b"})


def test_each_neutral_value_formats_as_its_default(probe_key):
    assert _neutral_mismatches(KEYS) == []
    assert _neutral_mismatches([PROBE]) == []
    assert _neutral_mismatches([PROBE[:4] + ((2, 4),)]) == []      # written 1/2
    assert _neutral_mismatches([PROBE[:4] + ((3, 4),)]) == [("probe", "b")]


def test_a_key_at_its_neutral_value_leaves_the_default_text_and_hash_alone(probe_key):
    assert LabConfig().canonical_text() == DEFAULT_TEXT
    # no `[probe]` header either: every key of that section is left out
    assert load_config(text="[probe]\nb = 1/2\n").canonical_text() == DEFAULT_TEXT
    assert load_config(text="").config_hash() == "0c3406954ec67ff1"


def test_a_value_that_formats_as_the_neutral_one_is_left_out(probe_key):
    cfg = LabConfig()
    cfg.probe_b = (2, 4)
    assert cfg.canonical_text() == DEFAULT_TEXT
    again = load_config(text=cfg.canonical_text())
    assert again.probe_b == (1, 2)
    assert again.canonical_text() == DEFAULT_TEXT


def test_a_key_off_its_neutral_value_is_written_and_its_run_replays(probe_key, tmp_path):
    base = load_config(text="[experiment]\nduration_s = 4\n")
    cfg = load_config(text="[experiment]\nduration_s = 4\n[probe]\nb = 3/4\n")
    assert cfg.canonical_text() == base.canonical_text() + "\n[probe]\nb = 3/4\n"
    assert cfg.config_hash() != base.config_hash()
    path = tmp_path / "lab.ini"
    path.write_text(cfg.canonical_text())
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    stored = json.loads((out / "summary.json").read_text())
    assert stored["config"].endswith("[probe]\nb = 3/4\n")
    assert main(["stats", str(out), "--replay"]) == 0


def test_a_section_whose_keys_are_all_left_out_writes_no_header(probe_key, monkeypatch):
    monkeypatch.setattr(config_mod, "KEYS",
                        config_mod.KEYS + (("probe", "out", "out_dir", _TEXT, NEVER),))
    monkeypatch.setitem(config_mod._LEGAL, "probe", {"b", "out"})
    cfg = load_config(text="[probe]\nb = 1/2\nout = elsewhere\n")
    assert cfg.out_dir == "elsewhere"
    assert cfg.canonical_text() == DEFAULT_TEXT
