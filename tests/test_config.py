"""Config parsing, canonical serialization, and hashing."""

import configparser
import re
from fractions import Fraction
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cclab.config import (KEYS, LabConfig, ScenarioSpec, _RUN_KEYS,
                          _beta_text, load_config, parse_scenario)

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
    missing = [(section, key) for section, key, _, _ in KEYS
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
    "a finite number >= 0": ("-0.001", "inf"),
    "a finite number in [0, 1]": ("-0.001", "1.001"),
    "a finite number in (0, 1)": ("0", "1"),
    "a number >= 1": ("0.999",),
    "a fraction in (0, 1]": ("0", "1001/1000"),
    "true or false": ("ture", "2"),
}
# legal values besides the defaults: "inf" lifts the slow-start cap
ALSO_LEGAL = {"a number >= 1": ("inf",)}
# rows without a range of their own: any value parses, or a rule that
# spans keys bounds it (wire_len and rto_max_ms)
UNBOUNDED = {"text", "an integer", "a finite number",
             "long_lived, short, short:N or shortNkb"}
ROWS = KEYS + _RUN_KEYS


def test_every_row_states_a_range_this_file_knows():
    needs = {need for *_, (_, _, _, need) in ROWS}
    assert needs <= PAST_THE_ENDS.keys() | UNBOUNDED


BOUNDED = [row for row in ROWS if row[3][3] in PAST_THE_ENDS]
FLOATS = [(section, key) for section, key, _, codec in ROWS if "number" in codec[3]]


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
