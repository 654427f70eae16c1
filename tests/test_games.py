"""Full-information game dynamics: step rule, step sizes, certificates."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omdkit import games
from omdkit.games import (
    ETA_CAP,
    FullInfoPlayer,
    PayoffMatrix,
    _BanditSide,
    _Learner,
    _self_play,
    bandit_eta,
    full_info_eta,
    full_info_step,
    run_bandit_match,
    run_full_info_match,
    run_full_info_vs,
    simplex_floor_delta,
)
from omdkit.mirror import SimplexPoint

from helpers import (
    FoldingBanditSide,
    FoldingFullInfoPlayer,
    ReferenceSideCertificate,
    assert_same_bits,
    certificate_bits,
    lp_game_value,
    reference_games,
)

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


@pytest.mark.parametrize(
    "sums", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (4.0, math.inf)]
)
def test_full_info_eta_rejects_non_finite_sums(sums):
    # a NaN sum once gave eta = nan, and an infinite one eta = 0.0
    with pytest.raises(ValueError, match="nonnegative and finite"):
        full_info_eta(sums, 3, 10)


def test_full_info_match_makes_four_exp_steps_per_round(monkeypatch):
    # each side corrects and then plays: two multiplicative steps a round,
    # each through SimplexPoint.exp_step, which the benchmark's tracer counts
    calls = []
    real = SimplexPoint.exp_step

    def counting(self, scaled_loss):
        calls.append(1)
        return real(self, scaled_loss)

    monkeypatch.setattr(SimplexPoint, "exp_step", counting)
    T = 25
    a = np.random.default_rng(3).uniform(-1, 1, size=(3, 3))
    run_full_info_match(a, T)
    assert len(calls) == 4 * T


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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_observation_is_rejected_before_any_state_moves(bad):
    # the full scan runs only when the largest difference is not finite,
    # which a non-finite entry always makes it
    player = FullInfoPlayer(3, 10, np.zeros(3))
    full_info_step(player, np.array([0.5, -0.25, 0.0]))
    sums, play, last, cum_obs = player.sums, player.play, player.last_observation, player.certificate.cum_obs.copy()
    with np.errstate(all="raise"), pytest.raises(ValueError, match="observation has non-finite entries"):
        full_info_step(player, np.array([0.25, bad, 0.0]))
    assert player.sums == sums and player.play is play and player.last_observation is last
    assert np.array_equal(player.certificate.cum_obs, cum_obs)


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


def _watch_advance(monkeypatch, check):
    """Wrap _Learner._advance so that check(side, before, prediction) runs
    after every round of every side; before = (sums, h_last) going in."""
    real = _Learner._advance
    rounds = []

    def watched(self, increment, correction, prediction):
        before = (self.sums, self.h_last)
        g_t = real(self, increment, correction, prediction)
        check(self, before, prediction)
        rounds.append(1)
        return g_t

    monkeypatch.setattr(_Learner, "_advance", watched)
    return rounds


def _both_match_kinds(T):
    a = np.random.default_rng(9).uniform(-1, 1, size=(4, 3))
    run_full_info_match(a, T)
    run_bandit_match(a, T, seed=2)


def test_mixing_floor_holds_exactly_every_round(monkeypatch):
    # mixing in weight space adds beta/n to a nonnegative number, which
    # rounding cannot take below beta/n: no slack, on either kind or side
    def check(side, before, prediction):
        assert side.beta > 0.0
        assert side.g_prime.weights.min() >= side.beta / side.n

    T = 40
    rounds = _watch_advance(monkeypatch, check)
    _both_match_kinds(T)
    assert len(rounds) == 4 * T


def test_each_round_steps_with_its_rule_from_the_pre_round_sums(monkeypatch):
    # the correcting eta_t comes from the sums going into the round, and the
    # play from eta_{t+1} read after it, bit for bit, although the learner
    # evaluates its rule once a round
    def rule(side, sums, h_last):
        if isinstance(side, _BanditSide):
            return bandit_eta(sums, h_last, side.n, side.opp, side.T)
        return full_info_eta(sums, side.n, side.T)

    def check(side, before, prediction):
        assert side.eta == rule(side, *before)
        eta_next = rule(side, side.sums, side.h_last)
        play = side.g_prime.exp_step(eta_next * prediction)
        assert play.weights.tobytes() == side.play.weights.tobytes()

    T = 40
    rounds = _watch_advance(monkeypatch, check)
    _both_match_kinds(T)
    assert len(rounds) == 4 * T


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
    # each side is one object, its own certificate: the row certificate is
    # the row player, whose play sum gives the row average
    side = res.row_certificate
    assert isinstance(side, games.FullInfoPlayer) and isinstance(side, games.SideCertificate)
    assert side.certificate is side
    assert (side.play_sum / T).tobytes() == res.f_average.tobytes()
    # the match's gap is the trace's last one, bit for bit
    assert repr(res.gap) == repr(last.gap)


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


@settings(max_examples=50, derandomize=True, deadline=None)
@given(games_and_opponents())
def test_certificate_lhs_is_the_largest_vertex_lhs(case):
    # lhs reads cum_play_loss - min(cum_obs); rounding is monotone, so it is
    # the largest per-vertex entry bit for bit, on every round
    a, T, mixing, strategies = case
    player = FullInfoPlayer(a.shape[0], T, a @ np.full(a.shape[1], 1.0 / a.shape[1]), mixing=mixing)
    for x in strategies:
        _, player = full_info_step(player, a @ x)
        cert = player.certificate
        assert cert.lhs == float(np.maximum.reduce(cert.lhs_per_vertex))


# ---------------------------------------------------------------- the reference round


@st.composite
def reference_cases(draw, min_dim=1):
    """A payoff matrix, a horizon, the mixing switch and a numpy seed for
    the rest. The matrix has uniform entries, or entries on a coarse grid
    (ties), or is a square circulant whose rows and columns sum to zero, so
    that running payoff sums cross zero."""
    n = draw(st.integers(min_dim, 40))
    m = draw(st.integers(min_dim, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    shape = draw(st.sampled_from(["uniform", "grid", "circulant"]))
    if shape == "uniform":
        a = rng.uniform(-1.0, 1.0, size=(n, m))
    elif shape == "grid":
        a = rng.integers(-2, 3, size=(n, m)) / 2.0
    else:
        g = rng.integers(-1, 2, size=n) / 2.0
        c = g - np.roll(g, 1)
        a = np.array([np.roll(c, i) for i in range(n)])
    return a, draw(st.integers(2, 300)), draw(st.booleans()), seed


def _match_bits(res):
    return (
        res.f_average.tobytes(),
        res.x_average.tobytes(),
        repr(res.gap),
        {name: res.trace.column(name).tobytes() for name in res.trace.names},
        certificate_bits(res.row_certificate),
        certificate_bits(res.col_certificate),
        repr(res.summary),
        (res.row_records, res.col_records),
    )


# the gap's first rounds are +0.0 in these: max(sum f A) and min(sum A x) are both zero
ZERO_SUM_STARTS = [(PENNIES, 40, True, 1), (np.zeros((3, 2)), 20, False, 2)]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(reference_cases())
@example(ZERO_SUM_STARTS[0])
@example(ZERO_SUM_STARTS[1])
def test_full_info_match_is_the_reference_round(case):
    a, T, mixing, _ = case
    with reference_games():
        expected = run_full_info_match(a, T, mixing=mixing)
    assert _match_bits(run_full_info_match(a, T, mixing=mixing)) == _match_bits(expected)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(reference_cases(min_dim=2))
@example(ZERO_SUM_STARTS[0])
@example(ZERO_SUM_STARTS[1])
def test_bandit_match_is_the_reference_round(case):
    a, T, _, seed = case
    with reference_games():
        expected = run_bandit_match(a, T, seed=seed)
    assert _match_bits(run_bandit_match(a, T, seed=seed)) == _match_bits(expected)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(reference_cases())
def test_opponent_run_is_the_reference_round(case):
    a, T, mixing, seed = case
    rng = np.random.default_rng(seed)
    m = a.shape[1]
    # mixed strategies, with a pure one now and then
    strategies = [rng.dirichlet(np.ones(m)) if rng.random() < 0.8 else np.eye(m)[rng.integers(m)] for _ in range(T)]

    def run():
        out = run_full_info_vs(a, T, lambda t, f_prev: strategies[t - 1], mixing=mixing)
        return (certificate_bits(out.certificate), repr((out.regret, out.obs_variation)), out.f_average.tobytes())

    with reference_games():
        expected = run()
    assert run() == expected


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 1000), st.integers(1, 64), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-300, 1e-8, 1.0, 1e8]))
def test_row_wise_sum_is_each_rows_own_sum(n, rows, seed, scale):
    # the certificate sums a block's ell_1 distances as the rows of one
    # (rows, n) buffer; each must be the 1-d sum of that row, bit for bit
    buf = np.empty((rows, n))
    buf[:] = np.abs(np.random.default_rng(seed).standard_normal((rows, n))) * scale
    together = np.add.reduce(buf, axis=1)
    for i in range(rows):
        assert together[i].tobytes() == np.add.reduce(buf[i]).tobytes()


# ---------------------------------------------------------------- block folds
#
# A side folds its certificate, its running-sum minima and its play sums a
# block of rounds at a time (64 rounds, 27 on a side of 300 actions), and
# the match appends a block's trace rows at once. Each output must keep the
# bits of the per-round reference above: at a block's last round, at the
# next block's first, in a partial last block, and after reads that fold
# mid-block.


@pytest.mark.parametrize("mixing", [True, False], ids=["mixing", "unmixed"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (10, 10), (20, 7), (300, 200)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("T", [2, 63, 64, 65, 129, 200])
def test_block_folded_match_is_the_reference_round(T, shape, mixing):
    a = np.random.default_rng(shape[0] * 1000 + shape[1]).uniform(-1, 1, size=shape)
    with reference_games():
        expected = run_full_info_match(a, T, mixing=mixing)
    assert _match_bits(run_full_info_match(a, T, mixing=mixing)) == _match_bits(expected)


def _certificate_reads(cert):
    """What a reader sees of a certificate; every read folds the buffered rounds."""
    return repr((cert.lhs, cert.rhs, cert.holds(), cert.variance, cert.negative)), cert.cum_obs.tobytes()


class _ReadsEveryRound:
    """Mixed into a full-information side: reads its certificate after every round."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads = []

    def step(self, w):
        eta = super().step(w)
        self.reads.append(_certificate_reads(self.certificate))
        return eta


class _ReadingPlayer(_ReadsEveryRound, FullInfoPlayer):
    pass


class _ReadingReference(_ReadsEveryRound, FoldingFullInfoPlayer):
    pass


def _opponent_reads(a, T, strategies):
    """A direct full_info_step caller and run_full_info_vs against the same
    strategies, each reading the row certificate after every round (through
    the module global that the player calls), and what both return."""
    reads = []
    step = games.full_info_step

    def reading(player, observation):
        out = step(player, observation)
        reads.append(_certificate_reads(player.certificate))
        return out

    n, m = a.shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(games, "full_info_step", reading)
        player = games.FullInfoPlayer(n, T, a @ np.full(m, 1.0 / m))
        for x in strategies:
            games.full_info_step(player, a @ x)
        run = run_full_info_vs(a, T, lambda t, f_prev: strategies[t - 1])
    return reads, certificate_bits(player.certificate), certificate_bits(run.certificate), run.f_average.tobytes()


@pytest.mark.parametrize("shape, T", [((5, 4), 150), ((300, 3), 70)], ids=["64-round-blocks", "27-round-blocks"])
def test_reads_after_every_round_are_the_reference(shape, T):
    # a read folds the rounds still buffered: a match collects those columns
    # with the rest of the block, and a side stepped without a match drops
    # each full block's columns; neither moves a bit of any read or result
    a = np.random.default_rng(7).uniform(-1, 1, size=shape)
    rng = np.random.default_rng(8)
    strategies = [rng.dirichlet(np.ones(shape[1])) for _ in range(T)]
    with reference_games():
        expected = _opponent_reads(a, T, strategies)
    got = _opponent_reads(a, T, strategies)
    assert len(got[0]) == 2 * T
    assert got == expected

    def match(cls):
        n, m = shape
        row = cls(n, T, a @ np.full(m, 1.0 / m))
        col = cls(m, T, -(np.full(n, 1.0 / n) @ a))
        return _self_play(a, T, row, col), row, col

    got, row, col = match(_ReadingPlayer)
    expected, ref_row, ref_col = match(_ReadingReference)
    assert_same_bits(got, expected)
    for side, ref in ((row, ref_row), (col, ref_col)):
        assert len(side.reads) == T and side.reads == ref.reads
        assert certificate_bits(side.certificate) == certificate_bits(ref.certificate)


def test_certificate_updated_by_hand_is_the_reference():
    # a caller of update owes nothing to a match: a g'_{t-1} may be other
    # than the last g'_t, plays may come as lists, and reads land anywhere
    # in a block; round 10 always reads and round 11 always hands in a
    # fresh g'_{t-1}, so the rows a read folded are followed by that fresh
    # one in the same 64-round block, before the block wraps at round 65
    n, T = 4, 200
    rng = np.random.default_rng(12)
    cert, ref = games.SideCertificate(n, T), ReferenceSideCertificate(n, T)
    reads = []
    mixed = rng.dirichlet(np.ones(n))
    for t in range(1, T + 1):
        mixed_prev = mixed if rng.random() < 0.9 and t != 11 else rng.dirichlet(np.ones(n))
        mixed = rng.dirichlet(np.ones(n))
        play = rng.dirichlet(np.ones(n))
        args = (play.tolist() if t % 3 == 0 else play, rng.uniform(-1, 1, size=n), rng.uniform(0.01, 0.1),
                rng.uniform(0.0, 4.0), rng.dirichlet(np.ones(n)), mixed_prev, mixed)
        cert.update(*args)
        ref.update(*args)
        if rng.random() < 0.1 or t == 10:
            reads.append((_certificate_reads(cert), _certificate_reads(ref)))
    assert reads and all(got == expected for got, expected in reads)
    assert certificate_bits(cert) == certificate_bits(ref)


def test_negative_term_squares_as_python_does():
    # Python's x**2 is libm pow, which is not x*x on about 1 in 1200 doubles;
    # one round whose only nonzero distance is x puts x**2 alone in the sum
    rng = np.random.default_rng(13)
    x = next(v for v in rng.uniform(0.0, 3.0, size=100_000).tolist() if v**2 != v * v)
    zero = np.zeros(2)
    cert, ref = games.SideCertificate(2, 10), ReferenceSideCertificate(2, 10)
    for c in (cert, ref):
        c.update(zero, zero, 1.0, 0.0, zero, zero, np.array([0.0, x]))
    assert repr(cert.negative) == repr(ref.negative) == repr(x**2)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(2, 300), st.booleans(), st.integers(0, 2**32 - 1))
def test_block_folded_sides_are_the_frozen_sides(n, m, T, mixing, seed):
    # both kinds through the one match loop, against the frozen sides behind
    # the step/fold contract: every trace column, the averages, the gap,
    # both certificates, and the bandit guard's error and perturbed minimum
    a = np.random.default_rng(seed).uniform(-1, 1, size=(n, m))

    def full_info(cls):
        row = cls(n, T, a @ np.full(m, 1.0 / m), mixing=mixing)
        col = cls(m, T, -(np.full(n, 1.0 / n) @ a), mixing=mixing)
        return _self_play(a, T, row, col), row, col

    got, row, col = full_info(FullInfoPlayer)
    expected, ref_row, ref_col = full_info(FoldingFullInfoPlayer)
    assert_same_bits(got, expected)
    for side, ref in ((row, ref_row), (col, ref_col)):
        assert certificate_bits(side.certificate) == certificate_bits(ref.certificate)
    if min(n, m) < 2:
        return  # a bandit side needs two actions

    def bandit(cls):
        delta = min(1e-6, 0.5 * min(simplex_floor_delta(n, T), simplex_floor_delta(m, T)))
        row_rng, col_rng = np.random.default_rng(seed).spawn(2)
        row, col = cls(n, m, T, delta, row_rng), cls(m, n, T, delta, col_rng)
        return _self_play(a, T, row, col), row, col

    got, row, col = bandit(_BanditSide)
    expected, ref_row, ref_col = bandit(FoldingBanditSide)
    assert_same_bits(got, expected)
    for side, ref in ((row, ref_row), (col, ref_col)):
        assert repr((side.max_error, side.min_perturbed)) == repr((ref.max_error, ref.min_perturbed))


def _player_state(p):
    cert = p.certificate
    return (p.sums, p.h_last, p.eta, p._eta_next, p.last_observation.tobytes(), p.play.weights.tobytes(),
            p.g_prime.weights.tobytes(), cert.cum_obs.tobytes(), cert.min_obs, cert.cum_play_loss,
            cert.variance, cert.negative, cert.eta_first)


@pytest.mark.parametrize(
    "initial, observation",
    [
        ([-1e308, 0.0], [1e308, 0.0]),  # the difference overflows
        ([0.0, 0.0], [1e308, -1e308]),  # so does the shift by the maximum
        ([0.0, 0.0], [1e200, 0.0]),  # the squared difference overflows
        ([0.0, 0.0], [math.inf, 0.0]),
        ([0.0, 0.0], [0.0, math.nan]),
    ],
)
def test_full_info_step_rejects_an_overflow_and_keeps_its_state(initial, observation):
    # an overflowing difference once moved the sums to inf, after which every
    # step raised; now the step raises ValueError before any arithmetic warns
    p = FullInfoPlayer(2, 10, initial)
    before = _player_state(p)
    with np.errstate(all="raise"), pytest.raises(ValueError):
        full_info_step(p, observation)
    assert _player_state(p) == before
    full_info_step(p, np.add(initial, [0.0, 0.5]))  # an ordinary step still works
    assert p.sums == (0.25, 0.0)


def test_full_info_step_takes_large_finite_observations():
    # an observation too large for the quick check is scanned, and stepped
    # on when nothing overflows
    p = FullInfoPlayer(2, 10, [1e160, -1e160])
    with np.errstate(over="raise", invalid="raise"):
        full_info_step(p, [1e160, -1e160])
        full_info_step(p, [1e160, -1e160 + 1e146])
    assert p.sums == (((-1e160 + 1e146) + 1e160) ** 2, 0.0)
    assert np.isfinite(p.play.weights).all()
