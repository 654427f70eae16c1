"""Per-round solver traces kept column by column: 8 bytes a value, no row objects.

Also the block contract that every certificate keeps, `_BlockRows`, with
its pieces: a block's size, its running sums and its row dot products, each
with the bits of the one-round-at-a-time code it replaces, and the
fold-before-read attribute. One rule holds for every kind: a fold reads each
row once, in the kind's `_fill`, and then turns the row, in place, into its
running sum; nothing reads a row after its fold.
"""
from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import fields
from itertools import repeat

import numpy as np


def _block_rows(width: int) -> int:
    """Rows in a block of `width`-wide rows: 64, or fewer on wide rows, so
    that a (block, width) buffer holds at most 8192 doubles."""
    return min(64, max(1, 8192 // max(width, 1)))


def _run_sum(steps: np.ndarray, start, out: np.ndarray | None = None) -> np.ndarray:
    """The running sum from `start` after each step of `steps`, along its
    first axis, with the bits of `start += step` one step after the other:
    written into `out` (default: `steps`, in place) and returned."""
    steps[0] += start
    return np.add.accumulate(steps, axis=0, out=steps if out is None else out)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i].dot(b[i]) for each row of two C-contiguous (k, n) arrays, as a
    fresh (k,) array. The stacked (1, n) @ (n, 1) product makes, row by row,
    the same BLAS dot call as `ndarray.dot`, so each entry has its bits."""
    return np.matmul(a[:, None, :], b[:, :, None]).reshape(len(a))


def _read_folded(name: str) -> property:
    """A read-only attribute, kept as `_<name>`, that folds the buffered
    rounds (`_fold_sums()`) before it is read."""

    def read(self):
        self._fold_sums()
        return getattr(self, "_" + name)

    return property(read)


class _BlockRows:
    """The block contract of every certificate: `RegretCertificate`, both
    self-play side kinds and `saddle_solve`'s bound.

    A round takes a row, `_row()`, of the (block, n) play buffer and of the
    kind's own row buffers, fills it and sets `_rows` past it. The rows not
    yet folded, s..k-1, are read once by the kind's `_fill(s, k, columns)`,
    which folds them into the kind's own sums and their (width, block)
    columns; then each play row becomes, in place, the running `play_sum`
    after its round (`_run_sum`). Every read of a folded attribute folds
    them first, so it has the bits of a fold after every round. `fold()`
    hands over the columns and running play sums of every round since the
    last `fold()` and starts the rows over; the play sums are the play rows
    themselves, which later rounds overwrite. A full buffer starts over
    at the next round, which drops the columns no `fold()` collected. A kind
    that carries state from one row to the next moves it in `_restart()`,
    after the fold.
    """

    play_sum = _read_folded("play_sum")

    def __init__(self, n: int, block: int, width: int):
        self.block = block
        self._play = np.empty((block, n))
        self._play_sum = np.zeros(n)
        self._columns = np.empty((width, block))
        self._rows = 0  # rows taken since the buffer started over
        self._summed = 0  # rows folded

    def _row(self) -> int:
        """The row the coming round takes; the caller sets `_rows` past it
        once the row is filled."""
        k = self._rows
        if k == self.block:
            self._restart()
            k = 0
        return k

    def _restart(self) -> None:
        """Fold the buffered rows and start the buffer over."""
        self._fold_sums()
        self._rows = self._summed = 0

    def _fold_sums(self) -> None:
        s, k = self._summed, self._rows
        if s == k:
            return
        self._summed = k
        self._fill(s, k, self._columns[:, s:k])
        self._play_sum[:] = _run_sum(self._play[s:k], self._play_sum)[-1]

    def fold(self) -> tuple[np.ndarray, np.ndarray]:
        """Fold the buffered rows and hand over (columns, play_sums) of every
        round since the last `fold()`: a (width, k) view of the columns and
        the (k, n) play rows, each now its round's running play sum, which
        later rounds overwrite. The rows start over."""
        k = self._rows
        self._restart()
        return self._columns[:, :k], self._play[:k]


class Rows(Sequence):
    """Read-only rows built on access from equal-length columns.

    A row is `build(*values)` of one index's column values, or the plain
    tuple when `build` is None; nothing is stored per row.
    """

    def __init__(self, columns, build=None):
        self.columns = tuple(columns)
        self.build = build

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        values = [column[index] for column in self.columns]
        return tuple(values) if self.build is None else self.build(*values)

    def __iter__(self):
        if self.build is None:
            return zip(*self.columns)
        return map(self.build, *self.columns)


class Constant(Sequence):
    """A column that holds one value n times, stored once."""

    def __init__(self, value, n: int):
        self.value = value
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.value] * len(range(*index.indices(self._n)))
        range(self._n)[index]  # an index out of range raises IndexError
        return self.value

    def __iter__(self):
        return repeat(self.value, self._n)


class RowTable(Rows):
    """A solver's per-round rows of one dataclass, stored as columns.

    The field `t` is kept in an array('q') and every other field in an
    array('d'), so each row costs 8 bytes a field. A table grows one way,
    `extend`, by a block of rows given column by column; indexing and
    iteration build `row_type` rows on access. `column(name)` is a read-only
    numpy view of one column, made without a copy; the table cannot grow
    while such a view is alive (the array raises BufferError), so take views
    once the solver has returned.
    """

    def __init__(self, row_type):
        self.row_type = row_type
        self.names = tuple(f.name for f in fields(row_type))
        super().__init__((array("q" if name == "t" else "d") for name in self.names), row_type)

    def extend(self, *columns) -> None:
        """Append a block of rows given column by column, in field order: one
        sequence of values a field, all of one length. Each is cast to its
        column's type only where no value can change (a float `t` raises
        TypeError); a block that a column cannot hold raises and is dropped
        whole."""
        if len(columns) != len(self.columns):
            raise TypeError(
                f"{self.row_type.__name__} has {len(self.columns)} fields, got {len(columns)} columns"
            )
        block = [
            np.asarray(values).astype(column.typecode, casting="safe", copy=False)
            for column, values in zip(self.columns, columns)
        ]
        if block[0].ndim != 1 or len({values.shape for values in block}) != 1:
            raise ValueError("a block's columns must be sequences of one length")
        size = len(self.columns[-1])
        try:
            for column, values in zip(self.columns, block):
                column.frombytes(values.tobytes())
        except BufferError:
            # a column under a live view cannot grow: drop the block from
            # the columns that took it
            for column in self.columns:
                del column[size:]
            raise

    def column(self, name: str) -> np.ndarray:
        data = self.columns[self.names.index(name)]
        view = np.frombuffer(data, dtype=data.typecode)
        view.flags.writeable = False
        return view

    def rows(self, *names: str, build=None) -> Rows:
        """A read-only view of the named columns; see `Rows`."""
        return Rows((self.columns[self.names.index(name)] for name in names), build)
