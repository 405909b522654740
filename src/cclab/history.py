"""A run's per-sample history, kept in typed columns.

A long run records hundreds of thousands of samples.  As a list of
tuples each one costs a tuple and a boxed number per field; here each
field is one `array.array` column, of 64-bit integers (`'q'`) or of
doubles (`'d'`, which hold an infinite ssthresh exactly), so a sample
costs its raw fields.  The columns still read as the list of row tuples
they replace: iteration, `len`, truth, `reversed` and `==` against a
list of tuples give what the list gave, and they pickle and copy.  An
integer column pickles as 32-bit where every value fits, so a run that
a worker ships back is smaller than it was as tuples.
"""

from __future__ import annotations

from array import array
from itertools import repeat


def _narrow(column: array) -> array:
    """A 64-bit integer column as unsigned 32-bit if every value fits, else itself."""
    if column.typecode == "q":
        try:
            return array("I", column)
        except OverflowError:
            pass
    return column


class Columns:
    """Rows of fixed-type fields, one array per field (`TYPECODES`)."""

    __slots__ = ("columns",)
    TYPECODES = ""

    def __init__(self, columns: tuple[array, ...] | None = None):
        self.columns = tuple(map(array, self.TYPECODES)) if columns is None else columns

    def _rows(self, columns):
        return zip(*columns)

    def __iter__(self):
        return self._rows(self.columns)

    def __reversed__(self):
        return self._rows([reversed(column) for column in self.columns])

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (Columns, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"

    def __getstate__(self):
        return tuple(map(_narrow, self.columns))

    def __setstate__(self, state) -> None:
        self.columns = tuple(array(code, column) for code, column in zip(self.TYPECODES, state))


class RttSamples(Columns):
    """A sender's valid RTT measurements, as (t_us, rtt_us) rows."""

    __slots__ = ()
    TYPECODES = "qq"

    def add(self, t_us: int, rtt_us: int) -> None:
        t_column, rtt_column = self.columns
        t_column.append(t_us)
        rtt_column.append(rtt_us)


class Timeseries(Columns):
    """The sampler's rows, in `runner.TIMESERIES_COLUMNS` order.

    Every row of a run has the run's variant, so it is stored once, not
    as a column; `columns` holds the other nine, and is empty for a run
    that captured none.
    """

    __slots__ = ("variant",)
    # t_us, flow_id; cwnd_segments, ssthresh_segments; srtt_us, rto_us,
    # bytes_acked_cum, retx_cum, timeouts_cum
    TYPECODES = "qqddqqqqq"

    def __init__(self, variant: str, columns: tuple[array, ...] | None = None):
        super().__init__(columns)
        self.variant = variant

    def _rows(self, columns):
        if not columns:
            return iter(())
        return zip(*columns[:2], repeat(self.variant), *columns[2:])

    def __getstate__(self):
        return self.variant, super().__getstate__()

    def __setstate__(self, state) -> None:
        self.variant, columns = state
        super().__setstate__(columns)
