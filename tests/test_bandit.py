"""Bandit game dynamics: basis, estimator, step-size rule, match driver."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omdkit.games
from omdkit.games import (
    _GUARD_BLOCK,
    _BanditSide,
    _estimator_tol,
    _self_play,
    bandit_cap,
    bandit_eta,
    run_bandit_match,
    simplex_floor_delta,
    tangent_basis,
)
from omdkit.mirror import SimplexPoint

from helpers import (
    FoldingBanditSide,
    ReferenceBanditSide,
    assert_same_bits,
    bandit_estimate,
    reference_bandit_guard,
)

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


def test_tangent_basis_frozen_rows():
    u = tangent_basis(3)
    assert np.allclose(u[0], np.array([1.0, -1.0, 0.0]) / math.sqrt(2), rtol=1e-15)
    assert np.allclose(u[1], np.array([1.0, 1.0, -2.0]) / math.sqrt(6), rtol=1e-15)
    with pytest.raises(ValueError):
        tangent_basis(1)


def test_tangent_basis_orthonormal_and_centered():
    for n in (2, 3, 5, 9):
        u = tangent_basis(n)
        assert u.shape == (n - 1, n)
        assert np.allclose(u @ u.T, np.eye(n - 1), atol=1e-12)
        assert np.allclose(u.sum(axis=1), 0.0, atol=1e-12)


def test_bandit_estimate_frozen():
    u = np.array([1.0, -1.0]) / math.sqrt(2)
    est = bandit_estimate(0.5, 0.3, 0.1, u, 3)
    # (3 / 0.2) * 0.2 = 3
    assert np.allclose(est, 3.0 * u, rtol=1e-15)
    with pytest.raises(ValueError):
        bandit_estimate(0.5, 0.3, 0.0, u, 3)


def test_bandit_eta_cap_branches():
    cap = bandit_cap(2, 2, 100)
    assert cap == 1.0 / (28.0 * 2 * math.sqrt(math.log(200)))
    # no round yet: both sums and the last increment are zero
    assert bandit_eta((0.0, 0.0), 0.0, 2, 2, 100) == cap
    # zero last increment takes the cap even with positive earlier sums;
    # the algebraically equal h/(sqrt(S1)+sqrt(S2)) form would return 0 here
    assert bandit_eta((4.0, 4.0), 0.0, 2, 2, 100) == cap
    with pytest.raises(ValueError):
        bandit_eta((-1.0, 0.0), -1.0, 2, 2, 100)
    with pytest.raises(ValueError):
        bandit_eta((1.0, 0.0), -1.0, 2, 2, 100)


@pytest.mark.parametrize(
    "sums, h_last",
    [
        ((math.nan, 0.0), 1.0),
        ((4.0, math.nan), 1.0),
        ((4.0, 1.0), math.nan),
        ((math.inf, 1.0), 1.0),
        ((4.0, 1.0), math.inf),
    ],
)
def test_bandit_eta_rejects_non_finite_inputs(sums, h_last):
    # a NaN sum or last increment once gave eta = nan
    with pytest.raises(ValueError, match="nonnegative and finite"):
        bandit_eta(sums, h_last, 2, 2, 100)


def test_bandit_eta_difference_form_values():
    root = math.sqrt(math.log(200))
    # single large increment: sqrt(1e6) - sqrt(0) over 1e6
    assert bandit_eta((1e6, 0.0), 1e6, 2, 2, 100) == pytest.approx(root * 1e-3, rel=1e-14)
    expected = root * (math.sqrt(2e6) - math.sqrt(1e6)) / 1e6
    assert bandit_eta((2e6, 1e6), 1e6, 2, 2, 100) == pytest.approx(expected, rel=1e-14)
    # small sums clamp at the cap
    assert bandit_eta((4.0, 0.0), 4.0, 2, 2, 100) == bandit_cap(2, 2, 100)


def test_caps_swap_dimensions():
    res = run_bandit_match(np.zeros((3, 4)), T=20, seed=1)
    assert res.summary["cap_row"] == bandit_cap(3, 4, 20)
    assert res.summary["cap_col"] == bandit_cap(4, 3, 20)
    assert res.summary["cap_row"] != res.summary["cap_col"]


def test_delta_default_and_validation():
    T = 50
    floor = min(simplex_floor_delta(2, T), simplex_floor_delta(2, T))
    res = run_bandit_match(PENNIES, T, seed=0)
    assert res.summary["delta"] == min(1e-6, 0.5 * floor)
    with pytest.raises(ValueError):
        run_bandit_match(PENNIES, T, delta=2 * floor)
    with pytest.raises(ValueError):
        run_bandit_match(PENNIES, T, delta=-1e-9)


def test_nan_delta_rejected():
    with pytest.raises(ValueError, match="delta must be positive"):
        run_bandit_match(PENNIES, 50, delta=math.nan)


def test_perturbed_plays_stay_in_simplex():
    res = run_bandit_match(PENNIES, T=200, seed=3)
    assert res.summary["min_perturbed_play"] >= 0.0


def test_estimator_enumeration_identity_tight():
    for shape, seed in (((3, 4), 0), ((5, 5), 1)):
        a = np.random.default_rng(seed).uniform(-1, 1, size=shape)
        res = run_bandit_match(a, T=100, seed=seed)
        assert res.summary["estimator_error_row"] <= 1e-9
        assert res.summary["estimator_error_col"] <= 1e-9


def test_eta_never_exceeds_cap():
    res = run_bandit_match(PENNIES, T=300, seed=2)
    for row in res.trace:
        assert row.eta_row <= res.summary["cap_row"] + 1e-18
        assert row.eta_col <= res.summary["cap_col"] + 1e-18


def test_bandit_match_deterministic_and_seeded():
    a = np.random.default_rng(9).uniform(-1, 1, size=(3, 3))
    r1 = run_bandit_match(a, T=60, seed=42)
    r2 = run_bandit_match(a, T=60, seed=42)
    assert np.array_equal(r1.f_average, r2.f_average)
    assert np.array_equal(r1.x_average, r2.x_average)
    assert all(t1.gap == t2.gap for t1, t2 in zip(r1.trace, r2.trace))
    r3 = run_bandit_match(a, T=60, seed=43)
    assert not np.array_equal(r1.f_average, r3.f_average)


def test_bandit_pennies_sits_at_equilibrium():
    # uniform play is the pennies equilibrium, the payoff vectors it induces
    # are identically zero, and zero estimates keep the dynamics there: the
    # gap is exactly zero at every horizon
    for T in (200, 800):
        res = run_bandit_match(PENNIES, T=T, seed=0)
        assert res.gap == 0.0
        assert np.array_equal(res.f_average, np.array([0.5, 0.5]))


def test_bandit_gap_shrinks_off_equilibrium():
    # a game whose equilibrium is not the uniform start actually has to move
    a = np.array([[1.0, -1.0], [-0.5, 1.0]])
    short = run_bandit_match(a, T=500, seed=0)
    long = run_bandit_match(a, T=2000, seed=0)
    assert long.gap < short.gap
    assert long.gap < 0.2


def test_bandit_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        run_bandit_match(np.array([[1.0], [0.0]]), T=10)
    with pytest.raises(ValueError):
        run_bandit_match(PENNIES, T=1)


def test_estimator_guard_trips_on_a_scaled_basis_row():
    # the long-horizon tolerance still catches a basis that is off by 0.1%
    n, T = 20, 10000
    delta = min(1e-6, 0.5 * simplex_floor_delta(n, T))
    side = _BanditSide(n, n, T, delta, np.random.default_rng(0))
    tol = max(1e-9, _estimator_tol(side.basis, delta))
    w = np.random.default_rng(1).uniform(-1, 1, size=n)
    side.step(w)
    assert side.max_error <= tol
    side.basis[5] *= 1.001
    side.step(w)
    assert side.max_error > tol


def test_estimator_tol_sums_the_basis_row_by_row():
    # the column l1 norms are summed one basis row at a time: bit for bit the
    # sum of the dense |basis|, without its (n - 1) x n temporary
    delta = 1e-7
    for n in [*range(2, 130), 150, 199, 200, 457, 699]:
        basis = tangent_basis(n)
        col_l1 = float(np.max(np.abs(basis).sum(axis=0)))
        dense = n * 2.0**-53 * (1.0 + delta * math.sqrt(n)) / delta * col_l1 / (n - 1.0)
        assert repr(_estimator_tol(basis, delta)) == repr(dense), n
    basis = tangent_basis(400)
    tracemalloc.start()
    try:
        _estimator_tol(basis, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < basis.nbytes / 20


def test_basis_indices_drawn_a_block_at_a_time_are_the_single_draws():
    # one draw of a block's indices gives the indices one draw a round gave,
    # across blocks and after the constructor's single draw
    n, T = 9, 2 * _GUARD_BLOCK + 22
    delta = min(1e-6, 0.5 * simplex_floor_delta(n, T))
    side = _BanditSide(n, n, T, delta, np.random.default_rng(4))
    twin = np.random.default_rng(4)
    w = np.random.default_rng(5).uniform(-1, 1, size=n)
    drawn = [side.prev_index]
    for _ in range(T):
        side.step(w)
        drawn.append(side.prev_index)
    assert drawn == [int(twin.integers(n - 1)) for _ in range(T + 1)]


def test_floor_delta_matches_the_dense_basis():
    T = 300
    for n in range(2, 301):
        dense = (1.0 / (T * T) / n) / float(np.abs(tangent_basis(n)).max())
        assert simplex_floor_delta(n, T) == dense
    with pytest.raises(ValueError):
        simplex_floor_delta(1, T)


def test_bandit_match_builds_one_basis_per_side(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return tangent_basis(n)

    monkeypatch.setattr(omdkit.games, "tangent_basis", counted)
    a = np.random.default_rng(4).uniform(-1, 1, size=(6, 5))
    run_bandit_match(a, T=20, seed=0)
    assert sorted(calls) == [5, 6]


def test_bandit_match_reports_its_estimator_verdict(monkeypatch):
    a = np.random.default_rng(4).uniform(-1, 1, size=(6, 5))
    assert run_bandit_match(a, T=20, seed=0).summary["estimator_ok"] is True

    def skewed(n):
        basis = tangent_basis(n).copy()
        basis[0] *= 1.001
        return basis

    monkeypatch.setattr(omdkit.games, "tangent_basis", skewed)
    summary = run_bandit_match(a, T=20, seed=0).summary
    assert summary["estimator_ok"] is False
    assert max(summary["estimator_error_row"], summary["estimator_error_col"]) > summary["estimator_tol"]


class _FirstIndex:
    """Stands in for a side's generator: every draw is basis index 0."""

    def integers(self, high, size=None):
        return 0 if size is None else np.zeros(size, dtype=np.int64)


def test_estimator_guard_fails_on_a_nan_basis_row():
    # row 3 is never drawn, so only the guard reads it; max() once dropped
    # the NaN error and the run reported estimator_ok=True
    n, T = 6, 200
    delta = min(1e-6, 0.5 * simplex_floor_delta(n, T))
    side = _BanditSide(n, n, T, delta, _FirstIndex())
    tol = max(1e-9, _estimator_tol(tangent_basis(n), delta))
    w = np.random.default_rng(2).uniform(-1, 1, size=n)
    side.basis[3] = np.nan
    side.step(w)
    assert not side.max_error <= tol
    # once seen, the NaN stays: a later block's finite error does not replace it
    side.basis[3] = tangent_basis(n)[3]
    for _ in range(_GUARD_BLOCK + 1):
        side.step(w)
    assert not side.max_error <= tol


class _ReferenceGuardSide(_BanditSide):
    """A bandit side that also runs the per-round reference guard, and reads
    its own blocked guard's `max_error` after round `read_at`, keeping both
    errors as they stood then in `at_read`."""

    def __init__(self, *args, read_at=None):
        super().__init__(*args)
        self.read_at = read_at
        self.rounds = 0
        self.reference_error = 0.0
        self.at_read = None

    def step(self, w):
        base = float(self.play.weights @ w)
        out = super().step(w)
        self.rounds += 1
        self.reference_error = max(
            self.reference_error, reference_bandit_guard(self.basis, self.delta, w, base)
        )
        if self.rounds == self.read_at:
            self.at_read = (self.max_error, self.reference_error)
        return out


def _bandit_sides(a, T, seed, side_class, **kwargs):
    """Both sides as run_bandit_match builds them, and its default delta."""
    n, m = a.shape
    delta = min(1e-6, 0.5 * min(simplex_floor_delta(n, T), simplex_floor_delta(m, T)))
    row_rng, col_rng = np.random.default_rng(seed).spawn(2)
    row = side_class(n, m, T, delta, row_rng, **kwargs)
    col = side_class(m, n, T, delta, col_rng, **kwargs)
    return row, col, delta


@pytest.mark.parametrize("T, read_at", [(1, None), (63, None), (64, None), (65, 30), (200, 100)])
def test_blocked_guard_matches_the_per_round_reference(T, read_at):
    a = np.random.default_rng(11).uniform(-1, 1, size=(20, 7))
    row, col, delta = _bandit_sides(a, T, 5, _BanditSide)
    plain = _self_play(a, T, row, col)
    ref_row, ref_col, _ = _bandit_sides(a, T, 5, _ReferenceGuardSide, read_at=read_at)
    checked = _self_play(a, T, ref_row, ref_col)
    # buffering the guard, and reading it mid-block, leave the dynamics alone
    assert plain.trace.names == checked.trace.names
    for name in plain.trace.names:
        assert plain.trace.column(name).tobytes() == checked.trace.column(name).tobytes(), name
    tol = max(1e-9, _estimator_tol(row.basis, delta), _estimator_tol(col.basis, delta))
    pairs = [(row.max_error, ref_row.reference_error), (col.max_error, ref_col.reference_error)]
    pairs += [(ref.max_error, ref.reference_error) for ref in (ref_row, ref_col)]
    if read_at is not None:
        pairs += [ref.at_read for ref in (ref_row, ref_col)]
    for blocked, reference in pairs:
        assert reference > 0.0
        assert abs(blocked - reference) <= 1e-3 * tol


@pytest.mark.parametrize("p", [1, _GUARD_BLOCK, _GUARD_BLOCK + 1, 150])
def test_blocked_guard_checks_every_round(p):
    # a zero payoff vector has an enumeration error of exactly 0, so the one
    # nonzero vector, at round p, is the only round that can make it positive:
    # at a block's first or last round, the next block's first, or in the
    # final partial block
    n, T = 20, 150
    delta = min(1e-6, 0.5 * simplex_floor_delta(n, T))
    w = np.random.default_rng(3).uniform(-1, 1, size=n)
    zero = np.zeros(n)
    idle = _BanditSide(n, n, T, delta, np.random.default_rng(0))
    side = _BanditSide(n, n, T, delta, np.random.default_rng(0))
    for t in range(1, T + 1):
        idle.step(zero)
        side.step(w if t == p else zero)
    assert idle.max_error == 0.0
    assert side.max_error > 0.0


class _Reads:
    """Mixed into a side: after round `read_at` it reads its running sums of
    payoff vectors and of plays, then its `min_perturbed` and `max_error`,
    keeping them in `at_read`."""

    def __init__(self, *args, read_at=None):
        super().__init__(*args)
        self.read_at = read_at
        self.rounds = 0
        self.at_read = None

    def step(self, w):
        out = super().step(w)
        self.rounds += 1
        if self.rounds == self.read_at:
            sums = self.cum_obs.tobytes(), self.play_sum.tobytes()
            self.at_read = (sums, self.min_perturbed, self.max_error)
        return out


class _ReadingSide(_Reads, _BanditSide):
    pass


class _ReadingReference(_Reads, FoldingBanditSide):
    @property
    def cum_obs(self):
        return self.loss_sum  # the frozen side's name for its running payoff sum


def _assert_the_frozen_step(a, T, seed, read_at):
    row, col, _ = _bandit_sides(a, T, seed, _ReadingSide, read_at=read_at)
    got = _self_play(a, T, row, col)
    ref_row, ref_col, _ = _bandit_sides(a, T, seed, _ReadingReference, read_at=read_at)
    assert_same_bits(got, _self_play(a, T, ref_row, ref_col))
    for side, ref in ((row, ref_row), (col, ref_col)):
        assert repr((side.at_read, side.min_perturbed, side.max_error)) == repr(
            (ref.at_read, ref.min_perturbed, ref.max_error)
        )
        assert (side.at_read is None) == (read_at is None)


@pytest.mark.parametrize("read", [False, True], ids=["end", "mid-block"])
@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (20, 7), (40, 2)], ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("T", [1, 63, 64, 65, 200])
def test_bandit_step_is_the_frozen_step(T, shape, read):
    # bit for bit against the step that took its increment from whole
    # vectors and its perturbed-play minimum every round; n = 2 has only the
    # row j = n - 2, whose suffix is empty
    a = np.random.default_rng(shape[0] * 100 + shape[1]).uniform(-1, 1, size=shape)
    _assert_the_frozen_step(a, T, 5, T // 2 + 1 if read else None)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(2, 30), st.integers(2, 30), st.integers(1, 150), st.integers(0, 2**32 - 1),
       st.booleans())
def test_bandit_step_is_the_frozen_step_on_any_shape(n, m, T, seed, read):
    a = np.random.default_rng(seed).uniform(-1, 1, size=(n, m))
    _assert_the_frozen_step(a, T, seed, int(np.random.default_rng(seed).integers(1, T + 1)) if read else None)


@pytest.mark.parametrize("entry", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_non_finite_estimate_raises_what_the_frozen_step_raised(entry):
    # the increment comes from two scalars now; a NaN among them must still
    # reach the step rule, not be dropped by a max
    n, T = 6, 100
    delta = min(1e-6, 0.5 * simplex_floor_delta(n, T))
    w = np.random.default_rng(2).uniform(-1, 1, size=n)
    messages = []
    for cls in (_BanditSide, ReferenceBanditSide):
        side = cls(n, n, T, delta, np.random.default_rng(0))
        side.step(w)
        with pytest.raises(ValueError, match="nonnegative and finite") as info:
            side.step(np.where(np.arange(n) == 2, entry, w))
        messages.append(str(info.value))
    assert messages[0] == messages[1]


class _Drawn:
    """Stands in for a side's generator: draws the given basis indices in
    turn, a block of them (fewer once they run out) when asked for `size`."""

    def __init__(self, indices):
        self.indices = iter(indices)

    def integers(self, high, size=None):
        if size is None:
            return next(self.indices)
        return np.array(list(itertools.islice(self.indices, size)), dtype=np.int64)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(2, 12), st.integers(1, 2 * _GUARD_BLOCK), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-9, 1e-3, 0.05]))
def test_blocked_perturbed_minimum_is_the_dense_one(n, T, seed, delta):
    # each round plays a fresh random point, so the least entry of
    # f - delta |u_j| falls before, at, just after or past row j's b_j
    # entry from one example to the next, and each part of the blocked
    # minimum decides some of them
    rng = np.random.default_rng(seed)
    drawn = rng.integers(n - 1, size=T + 1).tolist()
    side = _BanditSide(n, n, T, delta, _Drawn(drawn))
    basis = tangent_basis(n)
    w = rng.uniform(-1, 1, size=n)
    dense = math.inf
    for t in range(T):
        side.play = SimplexPoint.from_weights(rng.dirichlet(np.ones(n)))
        f = side.play.weights
        for j in drawn[t : t + 2]:
            dense = min(dense, float(np.minimum.reduce(f - delta * np.abs(basis[j]))))
        side.step(w)
    assert repr(side.min_perturbed) == repr(dense)


def test_a_nan_perturbed_play_sticks():
    # Python's min once dropped a NaN perturbed play; the blocked minimum
    # keeps it through later finite blocks, as the guard keeps a NaN error
    n, T = 6, 400
    delta = min(1e-6, 0.5 * simplex_floor_delta(n, T))
    side = _BanditSide(n, n, T, delta, np.random.default_rng(0))
    w = np.random.default_rng(2).uniform(-1, 1, size=n)
    for _ in range(3):
        side.step(w)
    assert 0.0 < side.min_perturbed < math.inf
    learner = (side.sums, side.h_last, side._eta_next, side.play)
    nan_play = SimplexPoint.uniform(n)
    nan_play.weights = np.full(n, math.nan)
    side.play = nan_play
    # the round is checked although its step rule rejects it
    with pytest.raises(ValueError, match="nonnegative and finite"):
        side.step(w)
    assert math.isnan(side.min_perturbed)
    side.sums, side.h_last, side._eta_next, side.play = learner
    side.step(w)
    # the round that stopped short hands over a NaN eta, not a stale entry
    (etas, *_), _ = side.fold()
    assert np.isnan(etas).tolist() == [False, False, False, True, False]
    for _ in range(2 * _GUARD_BLOCK + 5):
        side.step(w)
    assert math.isnan(side.min_perturbed)
    assert math.isnan(side.max_error)  # the round's base payoff was NaN too
