"""Full-information game dynamics: step rule, step sizes, certificates."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omdkit.games import (
    ETA_CAP,
    FullInfoPlayer,
    PayoffMatrix,
    full_info_eta,
    full_info_step,
    run_full_info_match,
    run_full_info_vs,
)
from omdkit.mirror import SimplexPoint

from helpers import lp_game_value

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


def test_payoff_matrix_validation():
    with pytest.raises(ValueError):
        PayoffMatrix(np.array([[1.5, 0.0]]))
    with pytest.raises(ValueError):
        PayoffMatrix(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        PayoffMatrix(np.zeros((0, 3)))
    p = PayoffMatrix([[0.5, -0.5]])
    assert p.n == 1 and p.m == 2


def test_full_info_eta_frozen():
    # empty history takes the cap branch
    assert full_info_eta((0.0, 0.0), 2, 10) == ETA_CAP
    # large sums: log(20) / (20 + 20)
    expected = math.log(20) / 40.0
    assert full_info_eta((400.0, 400.0), 2, 10) == pytest.approx(expected, rel=1e-15)
    # small sums clamp at 1/11
    assert full_info_eta((4.0, 0.0), 2, 10) == ETA_CAP
    with pytest.raises(ValueError):
        full_info_eta((-1.0, 0.0), 2, 10)


def test_single_step_scalar_oracle():
    """Two-action player, one round, checked against by-hand arithmetic."""
    T = 10
    beta = 1.0 / (T * T)
    obs0 = np.zeros(2)
    obs1 = np.array([1.0, -1.0])
    player = FullInfoPlayer(2, T, obs0)
    assert np.allclose(player.play.weights, [0.5, 0.5])

    next_play, player = full_info_step(player, obs1)

    # eta_1 is capped (empty sums); shifted obs is (0, -2)
    eta1 = 1.0 / 11.0
    w1 = math.exp(-eta1 * 0.0)
    w2 = math.exp(-eta1 * -2.0)
    z = w1 + w2
    g1 = (0.5 * w1 / (0.5 * z), 0.5 * w2 / (0.5 * z))
    assert player.eta == eta1
    assert player.h_last == 1.0  # sup-norm of (1,-1) squared
    assert player.sums == (1.0, 0.0)

    mixed = tuple((1 - beta) * gi + beta / 2.0 for gi in g1)
    assert np.allclose(player.g_prime.weights, mixed, rtol=1e-12)

    # eta_2 = min(log(20)/sqrt(1), 1/11) stays capped
    eta2 = 1.0 / 11.0
    assert full_info_eta(player.sums, 2, T) == eta2
    f2 = (mixed[0] * math.exp(0.0), mixed[1] * math.exp(2.0 * eta2))
    total = f2[0] + f2[1]
    assert np.allclose(next_play.weights, (f2[0] / total, f2[1] / total), rtol=1e-12)


def test_step_validation():
    player = FullInfoPlayer(2, 10, np.zeros(2))
    with pytest.raises(ValueError):
        full_info_step(player, np.zeros(3))
    with pytest.raises(ValueError):
        full_info_step(player, np.array([np.inf, 0.0]))
    with pytest.raises(ValueError):
        FullInfoPlayer(2, 1, np.zeros(2))


def test_eta_ordering_excludes_current_increment():
    # round 1: eta_1 must ignore h_1 and takes the cap; eta_2 must include
    # h_1 = 100^2, which puts it at log(150)/100, below the cap
    player = FullInfoPlayer(3, 50, np.zeros(3))
    obs = np.array([100.0, 0.0, -100.0])
    next_play, player = full_info_step(player, obs)
    assert player.eta == ETA_CAP
    assert player.sums == (1e4, 0.0)
    eta2 = math.log(150) / 100.0
    assert eta2 < ETA_CAP
    assert full_info_eta(player.sums, 3, 50) == eta2
    # the next play steps the mixed iterate with eta_2
    expected = player.g_prime.exp_step(eta2 * (obs - obs.max()))
    assert np.array_equal(next_play.weights, expected.weights)


def test_mixing_floor_holds_every_round():
    T = 30
    beta = 1.0 / (T * T)
    rng = np.random.default_rng(7)
    player = FullInfoPlayer(4, T, np.zeros(4))
    for _ in range(T):
        _, player = full_info_step(player, rng.uniform(-1, 1, size=4))
        assert player.g_prime.weights.min() >= (beta / 4) * (1 - 1e-12)


def test_mixing_disabled_is_plain_update():
    obs = np.array([0.8, -0.3])
    a = FullInfoPlayer(2, 10, np.zeros(2), mixing=False)
    _, a = full_info_step(a, obs)
    assert a.beta == 0.0
    # without mixing the mixed iterate is the plain exponential step
    plain = SimplexPoint.uniform(2).exp_step(a.eta * (obs - obs.max()))
    assert np.array_equal(a.g_prime.weights, plain.weights)


def test_whole_stream_shift_bit_identical():
    """Adding a dyadic constant to every observation never changes a play."""
    rng = np.random.default_rng(11)
    steps = 12
    obs_stream = [np.round(rng.uniform(-1, 1, size=3) * 1024) / 1024 for _ in range(steps)]
    obs0 = np.round(rng.uniform(-1, 1, size=3) * 1024) / 1024
    for shift in (0.5, -0.25, 64.0):
        a = FullInfoPlayer(3, steps, obs0)
        b = FullInfoPlayer(3, steps, obs0 + shift)
        for obs in obs_stream:
            fa, a = full_info_step(a, obs)
            fb, b = full_info_step(b, obs + shift)
            assert np.array_equal(fa.weights, fb.weights)
            assert np.array_equal(a.g_prime.weights, b.g_prime.weights)


def test_single_round_shift_under_binding_cap():
    """With the cap binding throughout, shifting one observation is invisible."""
    T = 5
    obs = [np.array([1.0, -1.0]), np.array([-0.5, 0.5]), np.array([0.25, -0.75])]
    runs = []
    for shift in (0.0, 2.0):
        p = FullInfoPlayer(2, T, np.zeros(2))
        plays = []
        for t, o in enumerate(obs):
            o_used = o + shift if t == 1 else o
            f, p = full_info_step(p, o_used)
            plays.append(f.weights)
            assert p.eta == ETA_CAP
            assert full_info_eta(p.sums, 2, T) == ETA_CAP
        runs.append(plays)
    for wa, wb in zip(runs[0], runs[1]):
        assert np.array_equal(wa, wb)


def test_zero_matrix_match_stays_uniform():
    res = run_full_info_match(np.zeros((3, 3)), T=10)
    assert res.gap == 0.0
    assert np.allclose(res.f_average, 1.0 / 3)
    assert np.allclose(res.x_average, 1.0 / 3)
    assert all(row.eta_row == ETA_CAP for row in res.trace)
    assert res.row_certificate.holds()
    # zero observations leave every term except the constants at zero
    expected_rhs = 22.0 * math.log(3 * 100) + 1.0
    assert res.row_certificate.rhs == pytest.approx(expected_rhs, rel=1e-12)


def test_match_certificates_and_gap_pennies():
    T = 400
    res = run_full_info_match(PENNIES, T)
    assert res.row_certificate.holds()
    assert res.col_certificate.holds()
    assert len(res.trace) == T
    assert res.gap < 0.06
    assert np.allclose(res.f_average, 0.5, atol=0.05)
    # trace certificate columns must agree with the final certificate objects
    last = res.trace[-1]
    assert last.cert_lhs_row == pytest.approx(res.row_certificate.lhs, rel=1e-12)
    assert last.cert_rhs_row == pytest.approx(res.row_certificate.rhs, rel=1e-12)


def test_match_keeps_no_per_round_records():
    res = run_full_info_match(PENNIES, 50)
    assert res.row_records == []
    assert res.col_records == []
    assert len(res.trace) == 50


def test_match_gap_brackets_lp_value():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, size=(4, 5))
    T = 600
    res = run_full_info_match(a, T)
    value = lp_game_value(a)
    payoff = float(res.f_average @ a @ res.x_average)
    assert abs(payoff - value) <= res.gap + 1e-9
    assert res.row_certificate.holds() and res.col_certificate.holds()


def test_cooperative_gap_bound_small_case():
    n = m = 2
    T = 200
    res = run_full_info_match(PENNIES, T)
    bound = 6.0 + 22.0 * math.log(n * m * T**4) + 40.0 / T
    assert res.gap * T <= bound


def test_opponent_runner_fixed_strategy():
    T = 300
    fixed = np.array([1.0, 0.0])
    run = run_full_info_vs(PENNIES, T, lambda t, f_prev: fixed)
    assert run.certificate.holds()
    # against a fixed first column the learner shifts mass to its second action
    assert run.f_average[1] > 0.9
    assert run.regret <= run.certificate.rhs + 1e-9
    # observations freeze after round one, so the variation stalls at the
    # first increment: ||A e_1 - A (1/2, 1/2)||_inf^2 = 1
    assert run.obs_variation == 1.0


def test_opponent_runner_rejects_bad_strategy():
    with pytest.raises(ValueError):
        run_full_info_vs(PENNIES, 10, lambda t, f_prev: np.array([0.7, 0.7]))


@pytest.mark.parametrize("bad", [[math.nan, 1.0], [math.nan, math.nan], [math.inf, 0.0]])
def test_opponent_runner_names_a_non_finite_strategy(bad):
    # a NaN entry fails every comparison, so the check must not rely on one
    # coming out True; the error names the opponent and the round
    def opponent(t, f_prev):
        return np.array([0.5, 0.5]) if t < 3 else np.array(bad)

    with pytest.raises(ValueError, match="opponent returned an invalid mixed strategy on round 3"):
        run_full_info_vs(PENNIES, 10, opponent)


def test_match_is_deterministic():
    a = np.random.default_rng(5).uniform(-1, 1, size=(3, 3))
    r1 = run_full_info_match(a, 80)
    r2 = run_full_info_match(a, 80)
    assert np.array_equal(r1.f_average, r2.f_average)
    assert all(
        t1.gap == t2.gap and t1.cert_rhs_row == t2.cert_rhs_row
        for t1, t2 in zip(r1.trace, r2.trace)
    )


# entries on a 1/8 grid in [-1, 1]
GRID = st.integers(-8, 8).map(lambda k: k / 8.0)


@st.composite
def games_and_opponents(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    a = np.array(draw(st.lists(GRID, min_size=n * m, max_size=n * m))).reshape(n, m)
    T = draw(st.integers(2, 60))
    strategies = []
    for _ in range(T):
        weights = np.array(draw(st.lists(st.integers(0, 8), min_size=m, max_size=m)), dtype=float)
        if draw(st.booleans()) or weights.sum() == 0.0:
            weights = np.eye(m)[draw(st.integers(0, m - 1))]  # a pure strategy
        strategies.append(weights / weights.sum())
    return a, T, draw(st.booleans()), strategies


@settings(max_examples=50, derandomize=True, deadline=None)
@given(games_and_opponents())
def test_certificate_holds_against_arbitrary_opponents(case):
    a, T, mixing, strategies = case
    run = run_full_info_vs(a, T, lambda t, f_prev: strategies[t - 1], mixing=mixing)
    assert run.certificate.holds()


@settings(max_examples=50, derandomize=True, deadline=None)
@given(games_and_opponents())
def test_match_certificates_hold_every_round(case):
    a, T, mixing, _ = case
    res = run_full_info_match(a, T, mixing=mixing)
    for row in res.trace:
        assert row.cert_lhs_row <= row.cert_rhs_row + 1e-9
        assert row.cert_lhs_col <= row.cert_rhs_col + 1e-9
    last = res.trace[-1]
    assert (last.cert_lhs_row, last.cert_rhs_row) == (res.row_certificate.lhs, res.row_certificate.rhs)
    assert (last.cert_lhs_col, last.cert_rhs_col) == (res.col_certificate.lhs, res.col_certificate.rhs)
