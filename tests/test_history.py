"""A run's history in typed columns reads as the list of row tuples it replaces."""

import copy
import gc
import math
import pickle
import tracemalloc

from cclab.config import load_config
from cclab.history import RttSamples, Timeseries
from cclab.runner import TIMESERIES_COLUMNS, run_single, summary_dict

ROWS = [
    (0, 0, "bic", 2.0, math.inf, 0, 1_000_000, 0, 0, 0),
    (0, 1, "bic", 2.0, math.inf, 0, 1_000_000, 0, 0, 0),
    (100_000, 0, "bic", 7.5, 44.0, 104_512, 312_000, 8_760, 0, 0),
    (100_000, 1, "bic", 1.0, 3.25, 98_000, 400_000, 2**40, 3, 1),
]
SAMPLES = [(108_000, 108_000), (216_000, 108_004), (330_125, 2**33)]


def timeseries_of(rows):
    ts = Timeseries(rows[0][2])
    for row in rows:
        for column, value in zip(ts.columns, row[:2] + row[3:]):
            column.append(value)
    return ts


def rtt_samples_of(samples):
    columns = RttSamples()
    for t_us, rtt_us in samples:
        columns.add(t_us, rtt_us)
    return columns


def test_columns_read_as_their_tuple_lists():
    assert len(ROWS[0]) == len(TIMESERIES_COLUMNS)
    for columns, reference in ((timeseries_of(ROWS), ROWS),
                               (rtt_samples_of(SAMPLES), SAMPLES)):
        assert list(columns) == reference
        assert [tuple(map(type, row)) for row in columns] == \
            [tuple(map(type, row)) for row in reference]
        assert len(columns) == len(reference) and columns
        assert list(reversed(columns)) == reference[::-1]
        assert columns == reference and reference == columns
        assert columns != reference[:-1] and columns != reference[::-1]
        assert columns == copy.deepcopy(columns)
        again = pickle.loads(pickle.dumps(columns))
        assert again == reference
        assert "".join(column.typecode for column in again.columns) == columns.TYPECODES


def test_empty_columns_read_as_an_empty_list():
    for empty in (Timeseries("cubic", ()), Timeseries("cubic"), RttSamples()):
        assert empty == [] and [] == empty
        assert not empty and len(empty) == 0
        assert list(empty) == list(reversed(empty)) == []
    assert Timeseries("cubic", ()) == Timeseries("newreno")


def test_a_run_round_trips_through_pickle():
    config = load_config(text="[experiment]\nvariant = westwood+\nflows = 2\n"
                              "duration_s = 20\nseed = 4\n")
    result = run_single(config, config.seed, capture_timeseries=True)
    again = pickle.loads(pickle.dumps(result))
    assert again.timeseries == list(result.timeseries)
    assert len(again.timeseries) == 2 * 201
    for before, after in zip(result.flows, again.flows):
        assert after.rtt_samples == list(before.rtt_samples)
        assert after.decreases == before.decreases
        # 32-bit on the wire: smaller than the tuples a worker used to ship
        assert len(pickle.dumps(before.rtt_samples)) < len(pickle.dumps(list(before.rtt_samples)))
    assert summary_dict(config, again) == summary_dict(config, result)
    mean_rtt = [sum(r for _, r in fm.rtt_samples) / len(fm.rtt_samples)
                for fm in result.flows]
    assert [fm.mean_rtt_us for fm in result.flows] == mean_rtt
    # a run that captures no rows carries no column arrays
    plain = run_single(config, config.seed)
    assert plain.timeseries.columns == () and plain.timeseries == []


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


def test_columns_compare_equal_to_lists_and_columns_only():
    samples = rtt_samples_of(SAMPLES)
    assert samples == SAMPLES and samples == rtt_samples_of(SAMPLES)
    # a tuple of rows is not the list it stands for, as for a list itself
    assert samples.__eq__(tuple(SAMPLES)) is NotImplemented
    assert samples != tuple(SAMPLES) and SAMPLES != tuple(SAMPLES)
