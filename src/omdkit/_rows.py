"""Per-round solver traces kept column by column: 8 bytes a value, no row objects."""
from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import fields

import numpy as np


class Rows(Sequence):
    """Read-only rows built on access from equal-length columns.

    A row is `build(*values)` of one index's column values, or the plain
    tuple when `build` is None; nothing is stored per row.
    """

    def __init__(self, columns, build=None):
        self._columns = tuple(columns)
        self._build = build

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        values = [column[index] for column in self._columns]
        return tuple(values) if self._build is None else self._build(*values)

    def __iter__(self):
        if self._build is None:
            return zip(*self._columns)
        return map(self._build, *self._columns)


class RowTable(Rows):
    """A solver's per-round rows of one dataclass, stored as columns.

    The field `t` is kept in an array('q') and every other field in an
    array('d'), so each row costs 8 bytes a field. `append` takes one row's
    values in field order; indexing and iteration build `row_type` rows on
    access. `column(name)` is a read-only numpy view of one column, made
    without a copy; the table cannot grow while such a view is alive (the
    array raises BufferError), so take views once the solver has returned.
    """

    def __init__(self, row_type):
        self.row_type = row_type
        self.names = tuple(f.name for f in fields(row_type))
        super().__init__((array("q" if name == "t" else "d") for name in self.names), row_type)
        self._appends = tuple(column.append for column in self._columns)

    def append(self, *values) -> None:
        if len(values) != len(self._appends):
            raise TypeError(
                f"{self.row_type.__name__} has {len(self._appends)} fields, got {len(values)} values"
            )
        try:
            for append, value in zip(self._appends, values):
                append(value)
        except (TypeError, OverflowError):
            # a value the column cannot hold: drop the partial row (the last
            # column never received it)
            size = len(self._columns[-1])
            for column in self._columns:
                del column[size:]
            raise

    def column(self, name: str) -> np.ndarray:
        data = self._columns[self.names.index(name)]
        view = np.frombuffer(data, dtype=data.typecode)
        view.flags.writeable = False
        return view

    def rows(self, *names: str, build=None) -> Rows:
        """A read-only view of the named columns; see `Rows`."""
        return Rows((self._columns[self.names.index(name)] for name in names), build)
