"""Column-backed row tables, rows built on access and columns as numpy views;
and the block contract that every certificate keeps."""
from array import array
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from omdkit import games
from omdkit._rows import Constant, Rows, RowTable, _row_dots
from omdkit.mirror import ENTROPY, MirrorMap, RegretCertificate, RoundLog
from omdkit.saddle import SaddleProblem, _Bound

from helpers import (
    ReferenceBanditSide,
    ReferenceFullInfoPlayer,
    ReferenceRegretCertificate,
    ReferenceSaddleBound,
    reference_full_info_step,
)


@dataclass
class Row:
    t: int
    x: float
    y: float


def _table(n):
    table = RowTable(Row)
    ts = range(1, n + 1)
    table.extend(ts, [t / 3.0 for t in ts], [np.float64(-t) for t in ts])
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
        table.extend([6], [0.0], [0.0])  # no growth under a live view
    del t, x
    table.extend([6], [0.0], [0.0])
    assert len(table) == 6


def test_extend_grows_row_by_row_as_in_one_block():
    # one-row blocks, as the reference loops in helpers.py grow their tables
    table = RowTable(Row)
    for t in range(1, 4):
        table.extend([t], [t / 3.0], [np.float64(-t)])
    assert list(table) == list(_table(3))
    assert [column.tobytes() for column in table.columns] == [column.tobytes() for column in _table(3).columns]


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
    table.extend([4], [0.0], [0.0])  # a view follows its table
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


# ---------------------------------------------------------------- the block contract
#
# Every `_BlockRows` kind against its frozen, round-by-round reference, over
# any interleaving of rounds, reads and `fold()` calls, never folding
# included: each read has the reference's bits, and each `fold()` hands over
# the reference's column and running play sum of every round since the last
# one, less the rounds of a full buffer that the next round started over.


def _point(rng, m):
    """A feasible point of the map m."""
    if m.kind == ENTROPY:
        return rng.dirichlet(np.ones(m.dim))
    return m.project(rng.normal(size=m.dim))


class _Regret:
    def __init__(self, n, rng):
        self.rng = rng
        self.m = MirrorMap.entropy_simplex(n) if n % 2 else MirrorMap.euclidean_ball(n)
        comparator = _point(rng, self.m)
        self.lib = RegretCertificate(self.m, 0.7, comparator)
        self.ref = ReferenceRegretCertificate(self.m, 0.7, comparator)
        self.total = np.zeros(n)

    def round(self):
        n = self.m.dim
        log = RoundLog(_point(self.rng, self.m), _point(self.rng, self.m), self.rng.normal(size=n),
                       self.rng.normal(size=n))
        self.lib.update(log)
        self.ref.update(log)
        self.total += log.played
        return [self.ref.lhs, self.ref.rhs], self.total

    def reads(self):
        lib, ref = self.lib, self.ref
        return ((lib.lhs, lib.rhs, lib.holds(), lib.play_sum.tobytes()),
                (ref.lhs, ref.rhs, ref.holds(), self.total.tobytes()))


class _Side:
    def __init__(self, n, rng):
        self.rng = rng
        start = self.observation(n)
        self.lib = games.FullInfoPlayer(n, 500, start, mixing=n % 2 == 0)
        self.ref = ReferenceFullInfoPlayer(n, 500, start, mixing=n % 2 == 0)

    def observation(self, n):
        return self.rng.uniform(-1, 1, size=n)

    def round(self):
        obs = self.observation(self.lib.n)
        games.full_info_step(self.lib, obs)
        reference_full_info_step(self.ref, obs)
        cert = self.ref.certificate
        return [self.ref.eta, cert.lhs, cert.rhs, float(np.minimum.reduce(cert.cum_obs))], self.ref.play_sum

    def reads(self):
        lib, ref = self.lib.certificate, self.ref.certificate
        return ((lib.lhs, lib.rhs, lib.cum_obs.tobytes(), self.lib.play_sum.tobytes()),
                (ref.lhs, ref.rhs, ref.cum_obs.tobytes(), self.ref.play_sum.tobytes()))


class _WildSide(_Side):
    """Observations near 1e160 that differ by about 1e146: none is `_tame`,
    so every round is scanned by `_check_wild`, whose `cum_obs` read folds
    the rows taken so far before the round's row is written."""

    def observation(self, n):
        obs = np.where(np.arange(n) % 2, -1e160, 1e160) + self.rng.uniform(-1e146, 1e146, size=n)
        assert not games._tame(obs)
        return obs


class _CountedBanditSide(games._BanditSide):
    """A bandit side that records which rounds its guard checks."""

    def __init__(self, *args):
        super().__init__(*args)
        self.stepped = 0
        self.round_of = [0] * self.block  # the round each row holds
        self.checked = []

    def step(self, w):
        eta = super().step(w)
        self.stepped += 1
        self.round_of[self._rows - 1] = self.stepped
        return eta

    def _fill(self, s, k, columns):
        self.checked += self.round_of[s:k]
        super()._fill(s, k, columns)


class _Bandit:
    def __init__(self, n, rng):
        self.rng = rng
        n = max(n, 2)
        delta = min(1e-6, 0.5 * games.simplex_floor_delta(n, 500))
        self.tol = games._estimator_tol(games.tangent_basis(n), delta)
        self.lib = _CountedBanditSide(n, 3, 500, delta, np.random.default_rng(n))
        self.ref = ReferenceBanditSide(n, 3, 500, delta, np.random.default_rng(n))

    def round(self):
        w = self.rng.uniform(-1, 1, size=self.lib.n)
        self.lib.step(w)
        return list(self.ref.step(w)), self.ref.play_sum

    def reads(self):
        # the guard's error sums each block's products in an order set by
        # where its checks fall, so it agrees to its rounding, not its bits
        lib, ref = self.lib, self.ref
        assert abs(lib.max_error - ref.max_error) <= 1e-3 * self.tol
        return ((lib.cum_obs.tobytes(), lib.play_sum.tobytes(), lib.min_perturbed),
                (ref.loss_sum.tobytes(), ref.play_sum.tobytes(), ref.min_perturbed))


class _Saddle:
    def __init__(self, n, rng):
        self.rng = rng
        nx = 1 + n % 5
        self.maps = MirrorMap.euclidean_ball(n), MirrorMap.entropy_simplex(nx)
        problem = SaddleProblem(None, None, *self.maps, (1.0,) * 4, (1.0,) * 4, 0.5, 0.7)
        self.lib = _Bound(problem, 0.3)
        self.ref = ReferenceSaddleBound(problem, 0.3)

    def round(self):
        (mf, mx), rng = self.maps, self.rng
        played = [_point(rng, mf), _point(rng, mx), rng.normal(size=mf.dim), rng.normal(size=mx.dim),
                  rng.normal(size=mf.dim), rng.normal(size=mx.dim), _point(rng, mf), _point(rng, mx)]
        self.lib.update(*played)
        self.ref.update(*played)
        return [self.ref.numerator], np.concatenate((self.ref.f_total, self.ref.x_total))

    def reads(self):
        return (self.lib.play_sum.tobytes(),), (np.concatenate((self.ref.f_total, self.ref.x_total)).tobytes(),)


# no shrinking: a failing example is reported as drawn, in seconds, where
# shrinking one that replays bandit folds can run for minutes
@settings(max_examples=100, derandomize=True, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.sampled_from([_Regret, _Side, _WildSide, _Bandit, _Saddle]), st.sampled_from([1, 2, 5, 130, 300]),
       st.lists(st.tuples(st.integers(0, 140), st.sampled_from(["read", "fold", "both"])), min_size=1, max_size=5),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_every_block_kind_keeps_the_contract(kind, n, runs, folds, seed):
    # each run is some rounds, then a read, a fold or both (never a fold
    # unless `folds`); a block is 64 rounds, 63 at n = 130, 27 at n = 300
    driver = kind(n, np.random.default_rng(seed))
    lib = driver.lib
    pending = []  # each round since the last fold: its reference column and play sum

    def read():
        got, expected = driver.reads()
        assert repr(got) == repr(expected)

    def collect():
        columns, play_sums = lib.fold()
        expected, pending[:] = pending[:], []
        assert repr(np.transpose(columns).tolist()) == repr([column for column, _ in expected])
        assert [row.tobytes() for row in play_sums] == [total.tobytes() for _, total in expected]

    for rounds, then in runs:
        for _ in range(max(rounds, not pending)):  # a side's rhs reads its first eta
            if len(pending) == lib.block:
                pending.clear()  # the full buffer starts over
            column, total = driver.round()
            pending.append((column, total.copy()))
        if then != "fold":
            read()
        if then != "read" and folds:
            collect()
    collect()
    read()
    if kind is _Bandit:
        assert lib.checked == list(range(1, lib.stepped + 1))
