"""Coupled optimistic dynamics for saddle points and matrix games."""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omdkit import saddle
from omdkit.mirror import MirrorMap
from omdkit.saddle import (
    SaddleProblem,
    bilinear_gap,
    bilinear_problem,
    saddle_eta,
    saddle_solve,
)

from helpers import assert_same_bits, reference_saddle_solve

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


@pytest.mark.parametrize("bad, shape", [([1.0, 2.0], "(2,)"), ([[]], "(1, 0)"), (np.zeros((2, 2, 2)), "(2, 2, 2)")])
def test_matrix_that_is_not_a_nonempty_2d_array_names_its_shape(bad, shape):
    uniform = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match=f"2-d and non-empty, got shape {re.escape(shape)}"):
        bilinear_gap(bad, uniform, uniform)
    with pytest.raises(ValueError, match=f"got shape {re.escape(shape)}"):
        bilinear_problem(bad)


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_matrix_with_a_non_finite_entry_names_it(entry):
    a = PENNIES.copy()
    a[1, 0] = entry
    uniform = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match=re.escape(f"entry (1, 0) is {entry}, not finite")):
        bilinear_gap(a, uniform, uniform)
    with pytest.raises(ValueError, match=re.escape(f"entry (1, 0) is {entry}, not finite")):
        bilinear_problem(a)


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
    value_sum = 0.0
    for row in res.trace:
        value_sum += row.value
    rate_f = value_sum / T - float(np.min(A @ res.x_average))
    rate_x = float(np.max(res.f_average @ A)) - value_sum / T
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


def test_saddle_solve_rejects_zero_rounds_with_explicit_eta():
    with pytest.raises(ValueError, match="T must be at least 1"):
        saddle_solve(bilinear_problem(PENNIES), 0, eta=0.1)


def test_saddle_rows_hold_no_iterates():
    # memory per round is a few scalars, whatever the matrix size
    a = np.random.default_rng(5).uniform(-1, 1, size=(6, 9))
    res = saddle_solve(bilinear_problem(a), 40)
    assert len(res.trace) == 40
    for row in res.trace:
        assert not any(isinstance(v, np.ndarray) for v in vars(row).values())


def test_saddle_gap_is_the_last_rows_prefix_average_gap():
    a = np.random.default_rng(13).uniform(-1, 1, size=(5, 4))
    res = saddle_solve(bilinear_problem(a), 250)
    assert res.gap == res.trace[-1].gap == bilinear_gap(a, res.f_average, res.x_average)
    assert res.certificate_bound == res.trace[-1].bound


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


# ---------------------------------------------------------------- reference identity

@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_bilinear_saddle_matches_the_reference_loop(n, m, T, seed):
    a = np.random.default_rng(seed).uniform(-1, 1, size=(n, m))
    eta = None if T >= 2 else 0.5  # the default step size needs T >= 2
    problem = bilinear_problem(a)
    # the reference takes each row's gap through bilinear_gap, as the
    # problem's gap oracle did before it skipped the repeated checks
    reference = dataclasses.replace(problem, gap_oracle=lambda f, x: bilinear_gap(a, f, x))
    assert_same_bits(saddle_solve(problem, T, eta), reference_saddle_solve(reference, T, eta))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_euclidean_saddle_without_gap_oracle_matches_the_reference_loop(n, m, T, seed):
    # phi = 0.5||f||^2 + f.Bx - 0.5||x||^2, f in the unit ball, x in the
    # simplex, both euclidean; rows carry the certificate bound as their gap
    b = np.random.default_rng(seed).uniform(-1, 1, size=(n, m))
    problem = SaddleProblem(
        grad_f=lambda f, x: f + b @ x,
        grad_x=lambda f, x: f @ b - x,
        map_f=MirrorMap.euclidean_ball(n),
        map_x=MirrorMap.euclidean_simplex(m),
        smoothness=(1.0, 1.0, 1.0, 1.0),
        exponents=(1.0, 1.0, 1.0, 1.0),
        radius_f=1.0,
        radius_x=1.0,
    )
    eta = None if T >= 2 else 0.5
    res = saddle_solve(problem, T, eta)
    assert res.gap == res.certificate_bound
    assert_same_bits(res, reference_saddle_solve(problem, T, eta))


# ---------------------------------------------------------------- block folds

def _euclidean_problem(n, m, seed, with_value, with_gap):
    # phi = 0.5||f||^2 + f.Bx - 0.5||x||^2, f in the unit ball, x in the simplex
    b = np.random.default_rng(seed).uniform(-1, 1, size=(n, m))
    return SaddleProblem(
        grad_f=lambda f, x: f + b @ x,
        grad_x=lambda f, x: f @ b - x,
        map_f=MirrorMap.euclidean_ball(n),
        map_x=MirrorMap.euclidean_simplex(m),
        smoothness=(1.0, 1.0, 1.0, 1.0),
        exponents=(1.0, 1.0, 1.0, 1.0),
        radius_f=1.0,
        radius_x=1.0,
        value=(lambda f, x: float(0.5 * f @ f + f @ b @ x - 0.5 * x @ x)) if with_value else None,
        gap_oracle=(lambda f, x: float(np.abs(f).sum() + x.max())) if with_gap else None,
    )


def _bilinear(n, m, seed, with_value, with_gap):
    problem = bilinear_problem(np.random.default_rng(seed).uniform(-1, 1, size=(n, m)))
    return dataclasses.replace(
        problem,
        value=problem.value if with_value else None,
        gap_oracle=problem.gap_oracle if with_gap else None,
    )


@pytest.mark.parametrize("T", [1, 2, 63, 64, 65, 129])
@pytest.mark.parametrize("make", [_bilinear, _euclidean_problem], ids=["entropy", "euclidean"])
@pytest.mark.parametrize("n, m", [(3, 4), (1, 6), (300, 5), (5, 300)])
@pytest.mark.parametrize("with_value, with_gap", [(True, True), (False, True), (True, False), (False, False)])
def test_block_folded_saddle_is_the_reference_loop(T, make, n, m, with_value, with_gap):
    # sums, bound and trace rows folded a block at a time against the
    # round-by-round reference, on either side of a block boundary; a side
    # 300 wide makes the block 27 rounds
    problem = make(n, m, n * m + T, with_value, with_gap)
    eta = None if T >= 2 else 0.5
    assert_same_bits(saddle_solve(problem, T, eta), reference_saddle_solve(problem, T, eta))


@pytest.mark.parametrize("term", ["variance", "cross"])
def test_bound_squares_as_python_does(term):
    # Python's x**2 is libm pow, which is not x*x on about 1 in 1200 doubles.
    # With eta = 2 and no divergence, one round puts x**2 alone in the bound:
    # as a gradient gap (the prediction 0, the gradient at the play (x, 0)),
    # or as the distance from the start 0 to the play (x, 0)
    rng = np.random.default_rng(13)
    x = next(v for v in rng.uniform(0.0, 3.0, size=100_000).tolist() if v**2 != v * v)

    def problem():
        calls = []

        def grad_f(f, y):
            calls.append(1)
            if term == "cross":
                return np.array([-x / 2.0, 0.0])
            return np.array([0.0, 0.0]) if len(calls) == 1 else np.array([x, 0.0])

        return SaddleProblem(
            grad_f=grad_f,
            grad_x=lambda f, y: np.zeros(2),
            map_f=MirrorMap.euclidean_ball(2, radius=4.0),
            map_x=MirrorMap.euclidean_ball(2),
            smoothness=(1.0, 1.0, 1.0, 1.0),
            exponents=(1.0, 1.0, 1.0, 1.0),
            radius_f=0.0,
            radius_x=0.0,
        )

    res = saddle_solve(problem(), 1, 2.0)
    assert repr(res.certificate_bound) == repr(x**2 if term == "variance" else -(x**2) / 4.0)
    assert_same_bits(res, reference_saddle_solve(problem(), 1, 2.0))
