"""Column-backed row tables: rows built on access, columns as numpy views."""
from array import array
from dataclasses import dataclass

import numpy as np
import pytest

from omdkit._rows import Constant, Rows, RowTable, _row_dots


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


def test_extend_appends_a_block_of_rows_or_none():
    table = _table(2)
    table.extend(range(3, 5), np.array([1.0, 2.0]), [np.float64(-3.0), -4.0])
    assert list(table) == [*_table(2), Row(3, 1.0, -3.0), Row(4, 2.0, -4.0)]
    assert type(table[3].t) is int and type(table[3].x) is float
    before = list(table)
    with pytest.raises(TypeError, match="3 fields"):
        table.extend([5], [1.0])
    with pytest.raises(ValueError, match="one length"):
        table.extend([5, 6], [1.0, 2.0], [3.0])
    with pytest.raises(TypeError):
        table.extend([5.5], [1.0], [1.0])  # a float t would lose its fraction
    with pytest.raises(TypeError):
        table.extend([5], [1.0], ["y"])
    y = table.column("y")
    with pytest.raises(BufferError):
        table.extend([5], [1.0], [1.0])  # t and x grow before y refuses
    del y
    assert list(table) == before
    assert len(table.column("t")) == len(table.column("x")) == len(table.column("y")) == 4


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


def test_constant_column_reads_like_a_stored_one():
    column = Constant(0.25, 4)
    assert len(column) == 4 and list(column) == [0.25] * 4
    assert column[-1] == column[3] == 0.25 and column[1:3] == [0.25, 0.25]
    with pytest.raises(IndexError):
        column[4]
    rows = Rows((array("q", [1, 2, 3, 4]), column))
    assert list(rows) == [(t, 0.25) for t in (1, 2, 3, 4)] and rows[-1] == (4, 0.25)


# ---------------------------------------------------------------- row dots

def _dot_bits(a, b):
    with np.errstate(over="ignore", invalid="ignore"):
        return np.float64(a.dot(b)).tobytes()


@pytest.mark.parametrize("width", range(1, 65))
def test_row_dots_are_each_rows_own_dot(width):
    # a stacked (1, n) @ (n, 1) product makes the BLAS dot of ndarray.dot,
    # row by row: each entry has its row's own bits, against the row itself
    # and against a fresh copy of it, for ordinary, subnormal and
    # overflowing products. A numpy or BLAS that routes matmul otherwise
    # fails here, before any certificate drifts.
    rng = np.random.default_rng(width)
    rows = int(rng.integers(1, 65))
    scale = rng.choice([1e-160, 1e-5, 1.0, 1e5, 1e155], size=(rows, width))
    a = np.ascontiguousarray(rng.normal(size=(rows, width)) * scale)
    b = np.ascontiguousarray(rng.normal(size=(rows, width)) * scale[::-1])
    with np.errstate(over="ignore", invalid="ignore"):
        dots = _row_dots(a, b)
        squares = _row_dots(a, a)
    assert dots.shape == squares.shape == (rows,)
    for i in range(rows):
        assert dots[i].tobytes() == _dot_bits(a[i], b[i]) == _dot_bits(a[i].copy(), b[i].copy())
        assert squares[i].tobytes() == _dot_bits(a[i], a[i]) == _dot_bits(a[i].copy(), a[i].copy())


def test_row_dots_reach_subnormal_and_infinite_values():
    # the cases above must really produce such dots
    tiny = np.full((2, 3), 1e-160)
    huge = np.full((2, 3), 1e200)
    assert 0.0 < _row_dots(tiny, tiny)[0] < np.finfo(float).tiny
    with np.errstate(over="ignore"):
        assert np.isinf(_row_dots(huge, huge)).all()
