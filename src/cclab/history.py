"""A run's per-sample history, kept in typed columns.

A long run records hundreds of thousands of samples.  As a list of
tuples each one costs a tuple and a boxed number per field; here each
field is one `array.array` column, of 64-bit integers (`'q'`) or of
doubles (`'d'`, which hold an infinite ssthresh exactly), so a sample
costs its raw fields.  `append(*row)` adds a row; iterating gives the
rows as tuples, and `len`, truth and `==` between two histories work on
them.  The columns pickle and copy.  An integer column pickles as
32-bit where every value fits, so a run that a worker ships back is
smaller than it was as tuples.
"""

from __future__ import annotations

from array import array


def _narrow(column: array) -> array:
    """A 64-bit integer column as unsigned 32-bit if every value fits, else itself."""
    if column.typecode == "q":
        try:
            return array("I", column)
        except OverflowError:
            pass
    return column


class Columns:
    """Rows of fixed-type fields, one array per field (`TYPECODES`).

    `columns` may be `()`: a history that is never appended to then
    carries no arrays at all.
    """

    __slots__ = ("columns",)
    TYPECODES = ""

    def __init__(self, columns: tuple[array, ...] | None = None):
        self.columns = tuple(map(array, self.TYPECODES)) if columns is None else columns

    def append(self, *row) -> None:
        for column, value in zip(self.columns, row):
            column.append(value)

    def __iter__(self):
        return zip(*self.columns)

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Columns):
            return list(self) == list(other)
        return NotImplemented

    def __getstate__(self):
        return tuple(map(_narrow, self.columns))

    def __setstate__(self, state) -> None:
        self.columns = tuple(array(code, column) for code, column in zip(self.TYPECODES, state))


class RttSamples(Columns):
    """A sender's valid RTT measurements, as (t_us, rtt_us) rows."""

    __slots__ = ()
    TYPECODES = "qq"
