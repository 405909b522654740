"""A run's history in typed columns: rows in, tuples of the column types out."""

import copy
import gc
import math
import pickle
import tracemalloc

from cclab.config import load_config
from cclab.history import RttSamples
from cclab.runner import TIMESERIES_COLUMNS, Timeseries, run_single, summary_dict

ROWS = [
    (0, 0, 2.0, math.inf, 0, 1_000_000, 0, 0, 0),
    (0, 1, 2.0, math.inf, 0, 1_000_000, 0, 0, 0),
    (100_000, 0, 7.5, 44.0, 104_512, 312_000, 8_760, 0, 0),
    (100_000, 1, 1.0, 3.25, 98_000, 400_000, 2**40, 3, 1),
]
SAMPLES = [(108_000, 108_000), (216_000, 108_004), (330_125, 2**33)]
TYPES = {"q": int, "d": float}


def columns_of(kind, rows):
    columns = kind()
    for row in rows:
        columns.append(*row)
    return columns


def test_columns_read_as_their_tuple_lists():
    # a stored timeseries row is every column but the variant, which is the run's
    assert len(ROWS[0]) == len(TIMESERIES_COLUMNS) - 1 == len(Timeseries.TYPECODES)
    for kind, reference in ((Timeseries, ROWS), (RttSamples, SAMPLES)):
        columns = columns_of(kind, reference)
        assert list(columns) == reference
        types = tuple(TYPES[code] for code in kind.TYPECODES)
        assert all(type(row) is tuple and tuple(map(type, row)) == types for row in columns)
        assert len(columns) == len(reference) and columns
        assert columns == columns_of(kind, reference)
        assert columns != columns_of(kind, reference[:-1])
        assert columns != columns_of(kind, reference[::-1])
        for again in (copy.deepcopy(columns), pickle.loads(pickle.dumps(columns))):
            assert type(again) is kind and again == columns and list(again) == reference
            assert "".join(column.typecode for column in again.columns) == kind.TYPECODES


def test_empty_columns_read_as_an_empty_list():
    for empty in (Timeseries(()), Timeseries(), RttSamples()):
        assert not empty and len(empty) == 0 and list(empty) == []
    # equal by their rows, arrays or none
    assert Timeseries(()) == Timeseries()
    # a history that captures nothing carries no arrays, on the wire too
    assert pickle.loads(pickle.dumps(Timeseries(()))).columns == ()
    assert len(pickle.dumps(Timeseries(()))) < len(pickle.dumps(Timeseries()))


def test_columns_compare_equal_to_columns_only():
    samples = columns_of(RttSamples, SAMPLES)
    # no list of tuples stands in for the columns, either way round
    for other in (SAMPLES, tuple(SAMPLES), []):
        assert samples.__eq__(other) is NotImplemented
        assert samples != other and other != samples
    assert RttSamples() != []
    assert samples == columns_of(RttSamples, SAMPLES)
    # equal by value, so they cannot be hashed
    assert RttSamples.__hash__ is None and Timeseries.__hash__ is None


def test_a_run_round_trips_through_pickle():
    config = load_config(text="[experiment]\nvariant = westwood+\nflows = 2\n"
                              "duration_s = 20\nseed = 4\n")
    result = run_single(config, config.seed, capture_timeseries=True)
    again = pickle.loads(pickle.dumps(result))
    assert again == result
    assert list(again.timeseries) == list(result.timeseries)
    assert len(again.timeseries) == 2 * 201
    for before, after in zip(result.flows, again.flows):
        assert list(after.rtt_samples) == list(before.rtt_samples)
        assert after.decreases == before.decreases
        # 32-bit on the wire: smaller than the tuples a worker used to ship
        assert len(pickle.dumps(before.rtt_samples)) < len(pickle.dumps(list(before.rtt_samples)))
    assert summary_dict(config, again) == summary_dict(config, result)
    mean_rtt = [sum(r for _, r in fm.rtt_samples) / len(fm.rtt_samples)
                for fm in result.flows]
    assert [fm.mean_rtt_us for fm in result.flows] == mean_rtt
    # a run that captures no rows carries no column arrays
    plain = run_single(config, config.seed)
    assert plain.timeseries.columns == () and not plain.timeseries


def test_a_long_run_holds_under_100_bytes_per_timeseries_row():
    config = load_config(text="[experiment]\nvariant = newreno\nflows = 1\n"
                              "duration_s = 180\nsample_interval_ms = 10\nseed = 1\n")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_single(config, config.seed, capture_timeseries=True)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = len(result.timeseries)
    assert rows == 18_001
    # everything the result holds, RTT samples and decreases included
    assert held / rows <= 100, f"{held / rows:.0f} bytes per row"
