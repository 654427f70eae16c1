"""Column-backed row tables: rows built on access, columns as numpy views."""
from dataclasses import dataclass

import numpy as np
import pytest

from omdkit._rows import Rows, RowTable


@dataclass
class Row:
    t: int
    x: float
    y: float


def _table(n):
    table = RowTable(Row)
    for t in range(1, n + 1):
        table.append(t, t / 3.0, np.float64(-t))
    return table


def test_rows_are_built_on_access():
    table = _table(4)
    assert len(table) == 4
    assert table[0] == Row(1, 1 / 3.0, -1.0)
    assert table[-1] == Row(4, 4 / 3.0, -4.0)
    assert type(table[2].t) is int and type(table[2].x) is float
    assert list(table) == [table[i] for i in range(4)]
    assert table[1:3] == [table[1], table[2]]
    with pytest.raises(IndexError):
        table[4]


def test_columns_are_read_only_views():
    table = _table(5)
    t, x = table.column("t"), table.column("x")
    assert t.dtype == np.int64 and x.dtype == np.float64
    assert t.tolist() == [1, 2, 3, 4, 5]
    assert x.tolist() == [row.x for row in table]
    with pytest.raises(ValueError):
        x[0] = 1.0
    with pytest.raises(BufferError):
        table.append(6, 0.0, 0.0)  # no growth under a live view
    del t, x
    table.append(6, 0.0, 0.0)
    assert len(table) == 6


def test_append_rejects_a_row_it_cannot_hold_whole():
    table = _table(2)
    with pytest.raises(TypeError, match="3 fields"):
        table.append(3, 1.0)
    with pytest.raises(TypeError):
        table.append(3, 1.0, "y")
    assert len(table.column("t")) == len(table.column("x")) == len(table.column("y")) == 2
    assert list(table) == list(_table(2))


def test_views_select_and_derive_columns():
    table = _table(3)
    plain = table.rows("x", "t")
    assert isinstance(plain, Rows)
    assert list(plain) == [(row.x, row.t) for row in table]
    assert plain[-1] == (table[-1].x, 3)
    derived = table.rows("t", "y", build=lambda t, y: (t, y + 1.0))
    assert list(derived) == [(1, 0.0), (2, -1.0), (3, -2.0)]
    assert derived[1] == (2, -1.0) and len(derived) == 3
    table.append(4, 0.0, 0.0)  # a view follows its table
    assert len(plain) == 4
