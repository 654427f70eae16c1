"""Coupled optimistic dynamics for saddle points and matrix games."""
import math

import numpy as np
import pytest

from omdkit import saddle
from omdkit.mirror import MirrorMap
from omdkit.saddle import (
    SaddleProblem,
    bilinear_gap,
    bilinear_problem,
    saddle_eta,
    saddle_solve,
)

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


# ---------------------------------------------------------------- step size

def test_saddle_eta_smooth_case():
    assert saddle_eta(1.0, 1.0, 3.0, 1.0, 100) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_saddle_eta_nonsmooth_frozen():
    # gamma = 0, R1^2 + R2^2 = 1, H = 1/2: eta = (T/2)^(-1/2)
    got = saddle_eta(math.sqrt(0.5), math.sqrt(0.5), 0.5, 0.0, 50)
    assert got == pytest.approx((50.0 / 2.0) ** -0.5, rel=1e-12)


def test_saddle_eta_rejects_bad_args():
    with pytest.raises(ValueError):
        saddle_eta(1.0, 1.0, 1.0, 1.0, 1)
    with pytest.raises(ValueError):
        saddle_eta(1.0, 1.0, 0.0, 1.0, 10)


# ---------------------------------------------------------------- gap

def test_bilinear_gap_frozen_examples():
    uniform = np.array([0.5, 0.5])
    assert bilinear_gap(PENNIES, uniform, uniform) == 0.0
    corner = np.array([1.0, 0.0])
    assert bilinear_gap([[1.0, 0.0], [0.0, 0.0]], corner, corner) == 1.0
    assert bilinear_gap(np.eye(2), uniform, uniform) == 0.0


def test_bilinear_gap_nonnegative_at_equilibrium_neighborhood():
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.uniform(-1, 1, size=(4, 6))
        f = rng.dirichlet(np.ones(4))
        x = rng.dirichlet(np.ones(6))
        assert bilinear_gap(A, f, x) >= -1e-12


def test_bilinear_gap_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        bilinear_gap(PENNIES, np.ones(3) / 3, np.ones(2) / 2)


# ---------------------------------------------------------------- solve

def test_pennies_gap_within_guarantee():
    problem = bilinear_problem(PENNIES)
    T = 500
    res = saddle_solve(problem, T)
    bound = (
        4.0
        * problem.holder_const
        * (problem.radius_f**2 + problem.radius_x**2)
        / T
    )
    assert res.gap <= bound + 1e-12
    # pennies equilibrium is uniform/uniform
    np.testing.assert_allclose(res.f_average, [0.5, 0.5], atol=1e-2)
    np.testing.assert_allclose(res.x_average, [0.5, 0.5], atol=1e-2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_game_gap_within_guarantee(seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1, 1, size=(5, 5))
    problem = bilinear_problem(A)
    T = 1000
    res = saddle_solve(problem, T)
    bound = (
        4.0
        * problem.holder_const
        * (problem.radius_f**2 + problem.radius_x**2)
        / T
    )
    assert res.gap <= bound + 1e-12


def test_sandwich_gap_below_measured_rates():
    # gap of the averages never exceeds the sum of measured per-player rates
    rng = np.random.default_rng(11)
    A = rng.uniform(-1, 1, size=(3, 4))
    problem = bilinear_problem(A)
    T = 300
    res = saddle_solve(problem, T)
    f_sum = np.zeros(3)
    x_sum = np.zeros(4)
    value_sum = 0.0
    for row in res.trace:
        f_sum += row.f
        x_sum += row.x
        value_sum += row.value
    rate_f = value_sum / T - float(np.min(A @ (x_sum / T)))
    rate_x = float(np.max((f_sum / T) @ A)) - value_sum / T
    assert res.gap <= rate_f + rate_x + 1e-10


def test_gap_trend_is_monotone_with_slack():
    rng = np.random.default_rng(21)
    A = rng.uniform(-1, 1, size=(4, 4))
    problem = bilinear_problem(A)
    gaps = [saddle_solve(problem, T).gap for T in (125, 250, 500, 1000)]
    for lo, hi in zip(gaps[1:], gaps[:-1]):
        assert lo <= 1.5 * hi + 1e-12


def test_general_payoff_reports_certificate_bound():
    # smooth non-bilinear payoff: phi = 0.5||f||^2 - 0.5||x||^2 + f.x
    n = 3
    ball = MirrorMap.euclidean_ball(n, radius=1.0)
    problem = SaddleProblem(
        grad_f=lambda f, x: f + x,
        grad_x=lambda f, x: -x + f,
        map_f=ball,
        map_x=MirrorMap.euclidean_ball(n, radius=1.0),
        smoothness=(1.0, 1.0, 1.0, 1.0),
        exponents=(1.0, 1.0, 1.0, 1.0),
        radius_f=math.sqrt(2.0),
        radius_x=math.sqrt(2.0),
        value=lambda f, x: float(0.5 * f @ f - 0.5 * x @ x + f @ x),
    )
    res = saddle_solve(problem, 200)
    assert res.gap == res.certificate_bound
    # saddle point is (0, 0); averages should approach it
    assert np.linalg.norm(res.f_average) <= 0.2
    assert np.linalg.norm(res.x_average) <= 0.2


def test_saddle_solve_rejects_short_horizon():
    with pytest.raises(ValueError):
        saddle_solve(bilinear_problem(PENNIES), 1)


def test_saddle_computes_each_play_once(monkeypatch):
    # one play prox and one correction prox per side per round
    calls = []
    real = saddle.prox_step

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(saddle, "prox_step", counting)
    T = 30
    a = np.random.default_rng(7).uniform(-1, 1, size=(4, 3))
    saddle_solve(bilinear_problem(a), T)
    assert len(calls) == 2 * 2 * T
