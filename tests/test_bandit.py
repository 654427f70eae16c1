"""Bandit game dynamics: basis, estimator, step-size rule, match driver."""
import math

import numpy as np
import pytest

import omdkit.games
from omdkit.games import (
    _BanditSide,
    _estimator_tol,
    bandit_cap,
    bandit_estimate,
    bandit_eta,
    run_bandit_match,
    simplex_floor_delta,
    tangent_basis,
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
