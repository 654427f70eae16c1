"""Mirror map, prox, interleaved round, adaptive step, regret certificate."""
import copy
import gc
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import ReferenceRegretCertificate, reference_prox_step
from omdkit._linalg import project_ball
from omdkit.games import FullInfoPlayer
from omdkit.mirror import (
    Ball,
    GapHistory,
    MirrorMap,
    OmdState,
    RegretCertificate,
    RoundLog,
    SimplexPoint,
    adaptive_eta,
    bregman,
    omd_round,
    point_weights,
    prox_step,
)
from omdkit.offline import SmoothProblem, holder_eta
from omdkit.saddle import SaddleProblem, saddle_eta


# ---------------------------------------------------------------- oracles
# scalar-arithmetic reimplementations, kept independent of the numpy paths

def kl_scalar(f, g):
    total = 0.0
    for fi, gi in zip(f, g):
        if fi > 0:
            total += fi * (math.log(fi) - math.log(gi))
    return total


def entropy_prox_scalar(base, loss, eta):
    raw = [b * math.exp(-eta * l) for b, l in zip(base, loss)]
    z = sum(raw)
    return [r / z for r in raw]


# ---------------------------------------------------------------- bregman

def test_kl_point_mass_vs_uniform():
    m = MirrorMap.entropy_simplex(2)
    assert bregman(m, [1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-15)


def test_kl_near_point_mass():
    # frozen from kl_scalar((1-1e-12, 1e-12), (0.5, 0.5)) = 0.6931471805599178
    m = MirrorMap.entropy_simplex(2)
    got = bregman(m, [1.0 - 1e-12, 1e-12], [0.5, 0.5])
    assert got == pytest.approx(kl_scalar([1.0 - 1e-12, 1e-12], [0.5, 0.5]), abs=1e-15)
    assert abs(got - math.log(2.0)) < 1e-10


def test_euclidean_divergence():
    m = MirrorMap.euclidean_ball(2, radius=10.0)
    assert bregman(m, [1.0, 1.0], [0.0, 0.0]) == pytest.approx(1.0, abs=1e-15)


def test_bregman_rejects_bad_domain():
    m = MirrorMap.entropy_simplex(2)
    with pytest.raises(ValueError):
        bregman(m, [-0.1, 1.1], [0.5, 0.5])
    with pytest.raises(ValueError):
        bregman(m, [0.5, 0.5], [1.0, 0.0])
    with pytest.raises(ValueError):
        bregman(m, [0.5, 0.5], [0.25, 0.25, 0.5])


@pytest.mark.parametrize("seed", range(5))
def test_kl_matches_scalar_oracle(seed):
    rng = np.random.default_rng(seed)
    m = MirrorMap.entropy_simplex(6)
    f = rng.dirichlet(np.ones(6))
    g = rng.dirichlet(np.ones(6)) + 1e-3
    g = g / g.sum()
    assert bregman(m, f, g) == pytest.approx(kl_scalar(f, g), rel=1e-12)


# ---------------------------------------------------------------- prox_step

def test_entropy_prox_frozen_example():
    # base (1/2, 1/2), loss (ln 2, 0), eta 1 -> (1/3, 2/3); oracle agrees
    m = MirrorMap.entropy_simplex(2)
    out = prox_step(m, SimplexPoint.uniform(2), [math.log(2.0), 0.0], 1.0)
    np.testing.assert_allclose(out.weights, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)
    oracle = entropy_prox_scalar([0.5, 0.5], [math.log(2.0), 0.0], 1.0)
    np.testing.assert_allclose(out.weights, oracle, atol=1e-15)


def test_euclidean_prox_ball():
    m = MirrorMap.euclidean_ball(2, radius=1.0)
    out = prox_step(m, np.zeros(2), [1.0, 0.0], 1.0)
    np.testing.assert_allclose(out, [-1.0, 0.0], atol=0)
    # step leaving the ball gets rescaled onto the boundary
    out = prox_step(m, np.zeros(2), [3.0, -4.0], 1.0)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(out, [-0.6, 0.8], atol=1e-12)


def test_ball_projection_survives_an_overflowing_square():
    # v . v overflows for these finite points; the projection once returned
    # the origin, since v * (radius / inf) is zero
    m = MirrorMap.euclidean_ball(2)
    assert m.project([1e308, 0.0]).tolist() == [1.0, 0.0]
    assert m.project([3e154, 4e154]).tolist() == [0.6, 0.8]


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "m", [MirrorMap.euclidean_ball(2), MirrorMap.euclidean_simplex(2)], ids=["ball", "simplex"]
)
def test_projection_rejects_a_non_finite_point(m, entry):
    # once: NaN entries or an IndexError, with a RuntimeWarning on the way;
    # errstate turns any such warning into a FloatingPointError, not a ValueError
    with np.errstate(all="raise"), pytest.raises(ValueError, match="point is not finite"):
        m.project([entry, 0.0])


def test_simplex_projection_of_large_finite_points():
    # the cumulative sums once lost the 1 they are compared with: [1e160]
    # raised IndexError, and [2**53 + 2, 1] projected to [2, 0]
    assert MirrorMap.euclidean_simplex(1).project([1e160]).tolist() == [1.0]
    assert MirrorMap.euclidean_simplex(2).project([2.0**53 + 2, 1.0]).tolist() == [1.0, 0.0]
    # a spread past the largest float, and sums that would overflow
    with np.errstate(all="raise"):
        assert MirrorMap.euclidean_simplex(2).project([1.7e308, -1.7e308]).tolist() == [1.0, 0.0]
        assert MirrorMap.euclidean_simplex(3).project([0.0, -1e308, -1e308]).tolist() == [1.0, 0.0, 0.0]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, 64), st.sampled_from([1e-3, 1.0, 1e8, 1e16, 1e160, 1e300]), st.integers(0, 2**32 - 1))
def test_simplex_projection_lands_on_the_simplex_at_any_scale(n, scale, seed):
    v = np.random.default_rng(seed).normal(size=n) * scale
    with np.errstate(all="raise"):
        out = MirrorMap.euclidean_simplex(n).project(v)
    assert out.min() >= 0.0
    assert abs(math.fsum(out) - 1.0) <= n * 2.0**-52


def test_euclidean_prox_simplex_projection():
    m = MirrorMap.euclidean_simplex(3)
    out = prox_step(m, np.full(3, 1.0 / 3.0), [1.0, 0.0, 0.0], 0.5)
    assert out.min() >= 0
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    # oracle: brute-force grid projection of (1/3 - 1/2, 1/3, 1/3)
    target = np.array([1.0 / 3.0 - 0.5, 1.0 / 3.0, 1.0 / 3.0])
    best = None
    for a in np.linspace(0, 1, 201):
        for b in np.linspace(0, 1 - a, int(201 * (1 - a)) + 1):
            c = 1 - a - b
            d = (a - target[0]) ** 2 + (b - target[1]) ** 2 + (c - target[2]) ** 2
            if best is None or d < best[0]:
                best = (d, np.array([a, b, c]))
    np.testing.assert_allclose(out, best[1], atol=2e-2)


def test_prox_shift_invariance_bit_identical():
    # dyadic losses and shifts: the shifted inputs are exact, so the
    # log-space max-subtraction cancels the shift bit for bit
    rng = np.random.default_rng(42)
    m = MirrorMap.entropy_simplex(5)
    base = SimplexPoint.from_weights(rng.dirichlet(np.ones(5)))
    for c in (1.0, -3.5, 1024.25, 2.0**20):
        loss = np.round(rng.uniform(-1, 1, size=5) * 4096) / 4096
        a = prox_step(m, base, loss, 0.7)
        b = prox_step(m, base, loss + c, 0.7)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.log_weights, b.log_weights)


def test_prox_rejects_bad_eta_and_loss():
    m = MirrorMap.entropy_simplex(2)
    with pytest.raises(ValueError):
        prox_step(m, SimplexPoint.uniform(2), [0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        prox_step(m, SimplexPoint.uniform(2), [0.0, 0.0], -1.0)
    with pytest.raises(ValueError):
        prox_step(m, SimplexPoint.uniform(2), [np.inf, 0.0], 1.0)
    with pytest.raises(ValueError):
        prox_step(MirrorMap.euclidean_ball(2), np.zeros(2), [0.0, np.nan], 1.0)


def test_entropy_requires_simplex():
    with pytest.raises(ValueError):
        MirrorMap("entropy", Ball(2, 1.0))


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
def test_ball_rejects_a_radius_that_is_not_positive_and_finite(radius):
    # a radius of -1 once projected (3, 4) to (-0.6, -0.8), and NaN to NaN
    with pytest.raises(ValueError, match="ball radius must be positive and finite"):
        MirrorMap.euclidean_ball(2, radius=radius)
    with pytest.raises(ValueError, match="ball radius must be positive and finite"):
        Ball(2, radius)


@pytest.mark.parametrize("feasible", [object(), 3, (np.eye(2), np.zeros(2)), None])
def test_euclidean_requires_simplex_or_ball(feasible):
    # project would otherwise treat any other set as a Ball
    with pytest.raises(ValueError, match="unsupported feasible set"):
        MirrorMap("euclidean", feasible)


# ---------------------------------------------------------------- omd_round

def test_omd_round_euclidean_frozen():
    # ball radius 10, g0 = 0, prediction 0, gradient constant (1, 0), eta 1:
    # f1 = (0,0) and g1 = (-1,0)
    m = MirrorMap.euclidean_ball(2, radius=10.0)
    state = OmdState.initial(m)
    f1, state = omd_round(state, m, [0.0, 0.0], lambda f: np.array([1.0, 0.0]), 1.0)
    np.testing.assert_allclose(f1, [0.0, 0.0], atol=0)
    np.testing.assert_allclose(point_weights(state.secondary), [-1.0, 0.0], atol=0)
    assert state.sq_diff_history.sums == (1.0, 0.0)
    assert len(state.sq_diff_history) == state.round == 1


def test_omd_round_entropy_frozen():
    # prediction equals the constant gradient: f1 = g1, squared gap 0
    m = MirrorMap.entropy_simplex(2)
    state = OmdState.initial(m)
    f1, state = omd_round(state, m, [1.0, 0.0], lambda f: np.array([1.0, 0.0]), 1.0)
    expect = np.array([math.exp(-1.0), 1.0]) / (math.exp(-1.0) + 1.0)
    np.testing.assert_allclose(f1.weights, expect, atol=1e-15)
    np.testing.assert_allclose(point_weights(state.secondary), expect, atol=1e-15)
    assert state.sq_diff_history.sums == (0.0, 0.0)
    assert len(state.sq_diff_history) == state.round == 1


def test_state_history_length_tracks_round():
    m = MirrorMap.entropy_simplex(3)
    state = OmdState.initial(m)
    rng = np.random.default_rng(0)
    for t in range(7):
        loss = rng.uniform(-1, 1, size=3)
        _, state = omd_round(state, m, np.zeros(3), lambda f, l=loss: l, 0.5)
        assert len(state.sq_diff_history) == state.round == t + 1


def test_omd_round_advances_its_state_in_place():
    # appending to one history keeps the cost of a round flat in T
    m = MirrorMap.euclidean_ball(3)
    state = OmdState.initial(m)
    history = state.sq_diff_history
    rng = np.random.default_rng(0)
    for _ in range(100):
        loss = rng.uniform(-1, 1, size=3)
        _, returned = omd_round(state, m, np.zeros(3), lambda f, l=loss: l, 0.5)
        assert returned is state
    assert state.sq_diff_history is history
    assert state.round == len(history) == 100


def test_omd_round_with_a_rejected_gap_leaves_the_state_as_it_was():
    # (1e308 - (-1e308))^2 overflows, so the history refuses the gap; the
    # state once took the new secondary and counted the round regardless
    m = MirrorMap.euclidean_ball(2)
    state = OmdState.initial(m)
    secondary = state.secondary
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="nonnegative and finite"):
        omd_round(state, m, [-1e308, 0.0], lambda f: np.array([1e308, 0.0]), 1.0)
    assert state.secondary is secondary
    assert state.round == len(state.sq_diff_history) == 0
    assert state.sq_diff_history.sums == (0.0, 0.0)


# ---------------------------------------------------------------- adaptive_eta

def test_adaptive_eta_frozen_values():
    assert adaptive_eta([], 2.0) == 2.0
    assert adaptive_eta([4.0], 2.0) == pytest.approx(1.0, abs=0)  # 2 * 1/(2+0)
    assert adaptive_eta([4.0, 4.0], 2.0) == pytest.approx(
        2.0 / (math.sqrt(8.0) + 2.0), abs=1e-15
    )
    # tiny history clamps at r_max * 1
    assert adaptive_eta([1e-20], 2.0) == 2.0


def test_adaptive_eta_rejects_bad_input():
    with pytest.raises(ValueError):
        adaptive_eta([1.0], 0.0)
    with pytest.raises(ValueError):
        adaptive_eta([-1.0], 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_adaptive_eta_rejects_non_finite_entries(bad):
    # a NaN entry once gave eta = nan, and an infinite one eta = 0.0
    with pytest.raises(ValueError, match="nonnegative and finite"):
        adaptive_eta([bad], 1.0)
    with pytest.raises(ValueError, match="nonnegative and finite"):
        adaptive_eta([1.0, bad, 2.0], 1.0)
    with pytest.raises(ValueError):
        adaptive_eta([1.0], bad)


def test_adaptive_eta_nonincreasing():
    rng = np.random.default_rng(3)
    hist = []
    prev = adaptive_eta(hist, 1.7)
    for _ in range(50):
        hist.append(float(rng.uniform(0, 4)))
        cur = adaptive_eta(hist, 1.7)
        assert cur <= prev + 1e-15
        prev = cur


# ---------------------------------------------------------------- GapHistory

# nonnegative floats from the subnormals up to 1e150, with exact zeros
_gap_entries = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=1e-300),
    st.floats(min_value=0.0, max_value=1e150),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(_gap_entries, max_size=60), st.floats(min_value=1e-3, max_value=1e3))
def test_gap_history_sums_are_fsum_bitwise(xs, r_max):
    hist = GapHistory(xs)
    assert len(hist) == len(xs)
    s1, s2 = hist.sums
    assert (s1.hex(), s2.hex()) == (math.fsum(xs).hex(), math.fsum(xs[:-1]).hex())
    # the list form and the running form of the step size agree bit for bit
    assert adaptive_eta(xs, r_max) == adaptive_eta(hist, r_max)
    grown = GapHistory()
    for x in xs:
        grown.append(x)
    assert grown.sums == hist.sums and len(grown) == len(hist)


class _NoIterHistory(GapHistory):
    __slots__ = ()

    def __iter__(self):
        raise AssertionError("the history was iterated")


def test_adaptive_eta_never_iterates_the_state_history():
    m = MirrorMap.entropy_simplex(4)
    state = OmdState(secondary=m.divergence_minimizer(), sq_diff_history=_NoIterHistory())
    rng = np.random.default_rng(5)
    prediction = np.zeros(4)
    for _ in range(50):
        eta = adaptive_eta(state.sq_diff_history, 1.0)
        loss = rng.uniform(-1, 1, size=4)
        _, state = omd_round(state, m, prediction, lambda _f, l=loss: l, eta)
        prediction = loss
    assert isinstance(state.sq_diff_history, _NoIterHistory)
    assert len(state.sq_diff_history) == 50


def test_gap_history_rejects_bad_entries_and_stale_mutations():
    hist = GapHistory([1.0, 2.0])
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            hist.append(bad)
    # a rejected entry leaves the history and its sums as they were
    assert len(hist) == 2 and hist.sums == (3.0, 1.0)
    huge = GapHistory([1.7e308])
    assert huge.sums == (1.7e308, 0.0)
    for _ in range(2):  # as math.fsum raises on this sum, and again on a retry
        with pytest.raises(OverflowError):
            huge.append(1.7e308)
        assert len(huge) == 1 and huge.sums == (1.7e308, 0.0)
    # the history grows only by append: no entry can be changed or removed
    for mutate in (
        lambda h: h.__setitem__(0, 5.0),
        lambda h: h.pop(),
        lambda h: h.insert(0, 1.0),
        lambda h: h.clear(),
        lambda h: h.__iadd__([1.0]),
        lambda h: h.extend([1.0]),
    ):
        with pytest.raises((TypeError, AttributeError)):
            mutate(hist)
    assert len(hist) == 2 and hist.sums == (3.0, 1.0)
    hist.append(4.0)
    hist.append(8.0)
    assert hist.sums == (15.0, 7.0)
    hist.append(16.0)
    clones = [copy.copy(hist), copy.deepcopy(hist), pickle.loads(pickle.dumps(hist))]
    assert hist.sums == (31.0, 15.0)
    for clone in clones:
        assert type(clone) is GapHistory
        assert len(clone) == len(hist) == 5 and clone.sums == hist.sums
        clone.append(1.0)
        assert clone.sums == (32.0, 31.0) and hist.sums == (31.0, 15.0)
        assert len(clone) == 6 and len(hist) == 5


def test_gap_history_memory_does_not_grow_with_its_length():
    # a history that stored its entries would grow about 3.2 MB here
    xs = np.random.default_rng(7).uniform(0.0, 4.0, size=100_000).tolist()
    hist = GapHistory()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for x in xs:
            hist.append(x)
            hist.sums
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(hist) == 100_000
    assert grown < 4096, grown


def test_state_copies_a_plain_history_into_a_gap_history():
    m = MirrorMap.euclidean_ball(2)
    state = OmdState(secondary=m.divergence_minimizer(), sq_diff_history=[1.0, 3.0])
    assert isinstance(state.sq_diff_history, GapHistory)
    assert state.sq_diff_history.sums == (4.0, 1.0)


# ---------------------------------------------------------------- certificate

def _run_optimistic(m, losses, eta, r_max=None):
    state = OmdState.initial(m, r_max=r_max)
    logs = []
    prev = np.zeros(losses.shape[1])
    for loss in losses:
        f, state = omd_round(state, m, prev, lambda _f, l=loss: l, eta)
        logs.append(
            RoundLog(
                played=point_weights(f),
                secondary=point_weights(state.secondary),
                gradient=loss,
                prediction=prev,
            )
        )
        prev = loss
    return logs


@pytest.mark.parametrize("eta", [0.1, 1.0, 5.0])
@pytest.mark.parametrize("seed", range(8))
def test_certificate_holds_every_vertex_entropy(eta, seed):
    rng = np.random.default_rng(seed)
    m = MirrorMap.entropy_simplex(5)
    losses = rng.uniform(-1, 1, size=(60, 5))
    logs = _run_optimistic(m, losses, eta)
    for i in range(5):
        comp = np.zeros(5)
        comp[i] = 1.0
        cert = RegretCertificate(m, eta, comp)
        for log in logs:
            cert.update(log)
        assert cert.lhs <= cert.rhs + 1e-9
        assert cert.holds()


@pytest.mark.parametrize("seed", range(4))
def test_certificate_holds_euclidean_ball(seed):
    rng = np.random.default_rng(100 + seed)
    m = MirrorMap.euclidean_ball(4, radius=2.0)
    losses = rng.uniform(-1, 1, size=(40, 4))
    logs = _run_optimistic(m, losses, 0.3)
    for _ in range(6):
        comp = rng.uniform(-1, 1, size=4)
        comp = comp / max(1.0, np.linalg.norm(comp) / 2.0)
        cert = RegretCertificate(m, 0.3, comp)
        for log in logs:
            cert.update(log)
        assert cert.lhs <= cert.rhs + 1e-9


def test_certificate_exact_predictions_drop_variance():
    # prediction == gradient every round: variance term is exactly zero
    m = MirrorMap.entropy_simplex(3)
    state = OmdState.initial(m)
    logs = []
    loss = np.array([0.5, -0.25, 0.125])
    for _ in range(10):
        f, state = omd_round(state, m, loss, lambda _f: loss, 0.5)
        logs.append(
            RoundLog(
                played=point_weights(f),
                secondary=point_weights(state.secondary),
                gradient=loss,
                prediction=loss,
            )
        )
    cert = RegretCertificate(m, 0.5, [0.0, 0.0, 1.0])
    for log in logs:
        cert.update(log)
    assert cert.variance_term == 0.0
    assert cert.lhs <= cert.divergence_term - cert.negative_term + 1e-9


@st.composite
def _certificate_case(draw):
    """A map, a loss stream, a step size and a feasible comparator."""
    n = draw(st.integers(2, 6))
    rounds = draw(st.integers(1, 25))
    losses = draw(arrays(float, (rounds, n), elements=st.floats(-5.0, 5.0)))
    eta = draw(st.floats(0.01, 10.0))
    if draw(st.booleans()):
        m = MirrorMap.entropy_simplex(n)
        weights = draw(arrays(float, n, elements=st.floats(0.0, 1.0)))
        weights[draw(st.integers(0, n - 1))] += 1.0
        comp = weights / weights.sum()
    else:
        m = MirrorMap.euclidean_ball(n, radius=2.0)
        v = draw(arrays(float, n, elements=st.floats(-3.0, 3.0)))
        comp = v / max(1.0, np.linalg.norm(v) / 2.0)
    return m, losses, eta, comp


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_certificate_case())
def test_certificate_holds_after_every_round(case):
    m, losses, eta, comp = case
    cert = RegretCertificate(m, eta, comp)
    for log in _run_optimistic(m, losses, eta):
        cert.update(log)
        assert cert.holds(), (cert.lhs, cert.rhs)


# ---------------------------------------------------------------- simplex point

def test_simplex_point_invariants():
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = rng.uniform(-700, 700, size=6)
        p = SimplexPoint(z)
        assert abs(p.weights.sum() - 1.0) <= 1e-12
        # atol floor covers one-ulp wobble on subnormal weights
        np.testing.assert_allclose(np.exp(p.log_weights), p.weights, rtol=1e-12, atol=1e-300)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    arrays(float, n, elements=st.floats(-50, 50)),
    arrays(float, n, elements=st.floats(-50, 50)),
)))
def test_exp_step_is_the_constructor_bit_for_bit(case):
    z, v = case
    p = SimplexPoint(z)
    fast = p.exp_step(v)
    checked = SimplexPoint(p.log_weights - v)
    assert fast.weights.tobytes() == checked.weights.tobytes()
    assert fast.log_weights.tobytes() == checked.log_weights.tobytes()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: arrays(float, n, elements=st.floats(-700, 700))))
def test_simplex_point_normalizes_as_numpy_scalar_arithmetic_does(z):
    # the normalizing sum is divided out as a Python float; that is the
    # same IEEE division as by the numpy scalar the sum comes back as
    shifted = z - np.maximum.reduce(z)
    w = np.exp(shifted)
    total = np.add.reduce(w)
    p = SimplexPoint(z)
    assert p.weights.tobytes() == (w / total).tobytes()
    assert p.log_weights.tobytes() == (shifted - math.log(total)).tobytes()


def _eager(z):
    """(weights, log_weights) as the point was set before its log-weights
    were formed on first read: both at once, from log-weights z."""
    z = z - np.maximum.reduce(z)
    w = np.exp(z)
    total = float(np.add.reduce(w))
    return w / total, z - math.log(total)


def _assert_log_weights(point, expected):
    first = point.log_weights
    assert first.tobytes() == expected.tobytes()
    assert point.log_weights is first  # formed once, then kept


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    arrays(float, n, elements=st.floats(-700, 700)),
    arrays(float, n, elements=st.floats(-50, 50)),
    arrays(float, n, elements=st.floats(1e-300, 1.0)),
    st.floats(0.0, 1.0),
)))
def test_log_weights_on_first_read_are_the_eager_ones(case):
    z, v, u, beta = case
    w, lw = _eager(z)
    p = SimplexPoint(z)
    assert p.weights.tobytes() == w.tobytes()
    _assert_log_weights(p, lw)
    _assert_log_weights(SimplexPoint.from_weights(u), _eager(np.log(u))[1])

    # a step taken before the source's log-weights were read
    fresh = SimplexPoint(z)
    stepped = fresh.exp_step(v)
    assert stepped.weights.tobytes() == _eager(lw - v)[0].tobytes()
    _assert_log_weights(stepped, _eager(lw - v)[1])
    _assert_log_weights(fresh, lw)

    assert p.mix(0.0) is p
    mixed = stepped.mix(beta)
    if beta > 0.0:
        floor = (1.0 - beta) * stepped.weights
        floor += beta / floor.size
        assert mixed.weights.tobytes() == floor.tobytes()
        _assert_log_weights(mixed, np.log(floor))


def test_exp_step_rejects_a_loss_of_the_wrong_shape():
    p = SimplexPoint.uniform(3)
    for bad in (np.zeros((3, 3)), np.zeros(4)):
        with pytest.raises(ValueError):
            p.exp_step(bad)


def test_mix_floor_is_exact_and_zero_beta_is_identity():
    p = SimplexPoint.from_weights([1.0, 1e-300, 1e-300])
    assert p.mix(0.0) is p
    beta = 1.0 / 3000**2
    q = p.mix(beta)
    assert q.weights.min() >= beta / 3
    assert np.array_equal(q.log_weights, np.log(q.weights))


@pytest.mark.parametrize("beta", [2.0, -0.5, math.nan, math.inf, -math.inf])
def test_mix_rejects_beta_outside_the_unit_interval(beta):
    # these once logged negative weights and returned an all-NaN point
    p = SimplexPoint.from_weights([0.9, 0.05, 0.05])
    with pytest.raises(ValueError, match=r"mixing weight must lie in \[0, 1\]"):
        p.mix(beta)


def test_simplex_point_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        SimplexPoint.from_weights([0.5, 0.0, 0.5])


def test_norm_pairs():
    ent = MirrorMap.entropy_simplex(3)
    euc = MirrorMap.euclidean_ball(3)
    v = np.array([3.0, -4.0, 0.0])
    assert ent.norm(v) == 7.0
    assert ent.dual_norm(v) == 4.0
    assert euc.norm(v) == 5.0
    assert euc.dual_norm(v) == 5.0


@pytest.mark.parametrize("m", [MirrorMap.entropy_simplex(7), MirrorMap.euclidean_ball(7)], ids=["entropy", "euclidean"])
def test_row_norms_are_each_rows_norms(m):
    # bit for bit, squares that underflow or overflow included
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(40, 7)) * rng.choice([1e-170, 1.0, 1e160], size=(40, 1))
    norm, dual = m.row_norm_pair
    with np.errstate(over="ignore"):
        assert norm(rows.copy()).tobytes() == np.array([m.norm(row) for row in rows]).tobytes()
        assert dual(rows.copy()).tobytes() == np.array([m.dual_norm(row) for row in rows]).tobytes()


def test_euclidean_norms_match_numpy_bitwise():
    # sqrt(v . v) is np.linalg.norm's own formula for a 1-d float vector,
    # including underflow to 0 and overflow to inf; project_ball matches it
    # bit for bit wherever that norm is finite
    euc = MirrorMap.euclidean_ball(5, radius=1.5)
    rng = np.random.default_rng(12)
    cases = [np.zeros(5), np.zeros(0), np.array([-0.0, 0.0, 3.0, -4.0, 0.0])]
    for scale in (1e-200, 1e-3, 1.0, 1e3, 1e160):
        cases += [rng.normal(size=5) * scale for _ in range(40)]
    with np.errstate(over="ignore"):
        for v in cases:
            ref = float(np.linalg.norm(v))
            assert np.float64(euc.norm(v)).tobytes() == np.float64(ref).tobytes()
            assert np.float64(euc.dual_norm(v)).tobytes() == np.float64(ref).tobytes()
            got = project_ball(v, 1.5)
            if ref < math.inf:
                expected = v.copy() if ref <= 1.5 else v * (1.5 / ref)
                assert got.tobytes() == expected.tobytes()
            else:
                # v . v overflowed: the projection still lands on the boundary
                unit = v / np.abs(v).max()
                np.testing.assert_allclose(got, 1.5 * unit / np.linalg.norm(unit), rtol=1e-15)


# ---------------------------------------------------------------- non-finite arguments

_NAN, _INF = math.nan, math.inf
_ENT2 = MirrorMap.entropy_simplex(2)


def _smooth(holder_const=1.0, divergence_radius=1.0):
    return SmoothProblem(lambda f: f, holder_const, 0.5, _ENT2, divergence_radius)


def _saddle(smoothness):
    return SaddleProblem(lambda f, x: x, lambda f, x: f, _ENT2, _ENT2, smoothness, (1.0,) * 4, 1.0, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        # each of these once returned a NaN point or step, or a zero or infinite one
        pytest.param(lambda: SimplexPoint.from_weights([_NAN, 1.0]), id="from_weights-nan"),
        pytest.param(lambda: SimplexPoint.from_weights([_INF, 1.0]), id="from_weights-inf"),
        pytest.param(lambda: prox_step(_ENT2, [_NAN, 1.0], [0.0, 0.0], 1.0), id="prox_step-nan-base"),
        # these finite losses once gave NaN weights, with only a RuntimeWarning
        pytest.param(lambda: prox_step(_ENT2, SimplexPoint.uniform(2), [1e308, -1e308], 1.0),
                     id="prox_step-spread-overflows"),
        pytest.param(lambda: prox_step(_ENT2, SimplexPoint.uniform(2), [1e300, 0.0], 1e10),
                     id="prox_step-scaled-spread-overflows"),
        pytest.param(lambda: RegretCertificate(_ENT2, _NAN, [0.5, 0.5]), id="certificate-eta-nan"),
        pytest.param(lambda: RegretCertificate(_ENT2, _INF, [0.5, 0.5]), id="certificate-eta-inf"),
        pytest.param(lambda: holder_eta(_NAN, 1.0, 0.5, 10), id="holder_eta-R-nan"),
        pytest.param(lambda: holder_eta(_INF, 1.0, 0.5, 10), id="holder_eta-R-inf"),
        pytest.param(lambda: holder_eta(1.0, _NAN, 0.5, 10), id="holder_eta-H-nan"),
        pytest.param(lambda: holder_eta(1.0, _INF, 0.5, 10), id="holder_eta-H-inf"),
        pytest.param(lambda: saddle_eta(_NAN, 1.0, 1.0, 1.0, 10), id="saddle_eta-radius-nan"),
        pytest.param(lambda: saddle_eta(1.0, _INF, 1.0, 1.0, 10), id="saddle_eta-radius-inf"),
        pytest.param(lambda: saddle_eta(1.0, 1.0, _NAN, 1.0, 10), id="saddle_eta-H-nan"),
        pytest.param(lambda: saddle_eta(1.0, 1.0, _INF, 1.0, 10), id="saddle_eta-H-inf"),
        pytest.param(lambda: _smooth(holder_const=_NAN), id="smooth-holder_const-nan"),
        pytest.param(lambda: _smooth(holder_const=_INF), id="smooth-holder_const-inf"),
        pytest.param(lambda: _smooth(divergence_radius=_NAN), id="smooth-radius-nan"),
        pytest.param(lambda: _smooth(divergence_radius=_INF), id="smooth-radius-inf"),
        pytest.param(lambda: _saddle((1.0, _NAN, 1.0, 1.0)), id="saddle-smoothness-nan"),
        pytest.param(lambda: _saddle((1.0, 1.0, _INF, 1.0)), id="saddle-smoothness-inf"),
        # these once failed only on the first step, after the sums had moved
        pytest.param(lambda: FullInfoPlayer(2, 10, [_INF, 0.0]), id="full_info_player-initial-inf"),
        pytest.param(lambda: FullInfoPlayer(2, 10, [0.0, -_INF]), id="full_info_player-initial-minus-inf"),
        pytest.param(lambda: FullInfoPlayer(2, 10, [_NAN, 0.0]), id="full_info_player-initial-nan"),
    ],
)
def test_checks_reject_nan_and_inf(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("loss, eta", [([1e308, -1e308], 1.0), ([1e300, 0.0], 1e10), ([-1e308, 1e308, 0.0], 0.5)])
def test_entropy_prox_rejects_an_overflowing_spread_before_any_warning(loss, eta):
    m = MirrorMap.entropy_simplex(len(loss))
    base = SimplexPoint.uniform(len(loss))
    with np.errstate(all="raise"), pytest.raises(ValueError, match="overflows"):
        prox_step(m, base, loss, eta)
    # the largest spread that does not overflow still steps
    out = prox_step(m, base, [1e308, 0.0, -7e307][: len(loss)], 1.0)
    assert np.all(np.isfinite(out.weights)) and out.weights[0] == 0.0


@pytest.mark.parametrize(
    "m, base",
    [(MirrorMap.euclidean_ball(2), [0.0, 0.0]), (MirrorMap.euclidean_simplex(2), [0.5, 0.5])],
    ids=["ball", "simplex"],
)
def test_euclidean_prox_rejects_an_overflowing_step_before_any_warning(m, base):
    # eta * loss overflows; the step once warned, then the projection raised
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="overflows"):
            prox_step(m, np.array(base), [1e308, 0.0], 10.0)
        # a step that does not overflow still projects, at eta above 1 too
        assert np.isfinite(prox_step(m, np.array(base), [1e300, 0.0], 10.0)).all()


# ---------------------------------------------------------------- aliasing

@pytest.mark.parametrize("v", [[0.1, -0.2], [3.0, 4.0], [1e308, 0.0]], ids=["inside", "outside", "overflowing"])
def test_projections_return_a_fresh_array(v):
    v = np.array(v)
    before = v.tobytes()
    outs = [project_ball(v, 1.0), MirrorMap.euclidean_ball(2).project(v), project_ball(v, 1e300),
            MirrorMap.euclidean_simplex(2).project(v)]
    for out in outs:
        assert out is not v and not np.shares_memory(out, v)
    assert v.tobytes() == before


def test_simplex_point_leaves_its_argument_alone():
    lw = np.array([0.0, -1.0, 2.0])
    before = lw.tobytes()
    p = SimplexPoint(lw)
    p.exp_step(np.ones(3))
    assert not np.shares_memory(p.log_weights, lw) and not np.shares_memory(p.weights, lw)
    assert lw.tobytes() == before


# ---------------------------------------------------------------- reference kernels

_KERNEL_MAPS = {
    "entropy": MirrorMap.entropy_simplex,
    "ball": lambda n: MirrorMap.euclidean_ball(n, radius=1.5),
    "simplex": MirrorMap.euclidean_simplex,
}
# from tiny steps to ones whose squares overflow (the ball's scaled route)
_SCALES = (1e-3, 1.0, 1e3, 1e160)


def _kernel_base(kind, n, rng):
    """A feasible base point; an entropy one with unread log-weights half the time."""
    m = _KERNEL_MAPS[kind](n)
    if kind != "entropy":
        return m.project(rng.normal(size=n) * 2.0)
    base = SimplexPoint.from_weights(rng.dirichlet(np.ones(n)))
    if rng.random() < 0.5:
        base = reference_prox_step(m, base, rng.normal(size=n), 0.5)
    return base


def _bits(point):
    if isinstance(point, SimplexPoint):
        return point.weights.tobytes(), point.log_weights.tobytes()
    return point.tobytes()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(_KERNEL_MAPS)), st.integers(1, 64), st.sampled_from(_SCALES),
       st.floats(1e-3, 10.0), st.booleans(), st.integers(0, 2**32 - 1))
def test_prox_step_is_the_reference_kernel(kind, n, scale, eta, as_weights, seed):
    # bit for bit against the kernel as written before it worked in place;
    # neither the loss nor the base moves
    rng = np.random.default_rng(seed)
    m = _KERNEL_MAPS[kind](n)
    loss = rng.normal(size=n) * scale
    base = _kernel_base(kind, n, rng)
    if as_weights:
        base = point_weights(base).copy()
    base_bits, loss_bits = _bits(base), loss.tobytes()
    try:
        expected = _bits(reference_prox_step(m, base, loss, eta))
    except ValueError as exc:  # a step that is not finite
        with pytest.raises(type(exc)):
            prox_step(m, base, loss, eta)
        return
    got = prox_step(m, base, loss, eta)
    assert _bits(base) == base_bits and loss.tobytes() == loss_bits
    assert _bits(got) == expected
    if not isinstance(got, SimplexPoint):
        assert not np.shares_memory(got, loss) and not np.shares_memory(got, point_weights(base))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(_KERNEL_MAPS)), st.integers(1, 64), st.sampled_from(_SCALES[:3]),
       st.floats(1e-3, 10.0), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_certificate_sums_are_the_reference_update(kind, n, scale, eta, T, seed):
    rng = np.random.default_rng(seed)
    m = _KERNEL_MAPS[kind](n)
    comparator = point_weights(_kernel_base(kind, n, rng))
    cert = RegretCertificate(m, eta, comparator)
    ref = ReferenceRegretCertificate(m, eta, comparator)
    for _ in range(T):
        played, secondary = (point_weights(_kernel_base(kind, n, rng)) for _ in range(2))
        gradient, prediction = (rng.normal(size=n) * scale for _ in range(2))
        log = RoundLog(played, secondary, gradient, prediction)
        cert.update(log)
        ref.update(log)
        assert repr((cert.lhs, cert.variance_term, cert.negative_term, cert.holds())) == repr(
            (ref.lhs, ref.variance_term, ref.negative_term, ref.holds())
        )


def _kernel_logs(kind, n, T, seed):
    """A map, a feasible comparator and T rounds of feasible plays and
    secondaries with normal gradients and predictions."""
    rng = np.random.default_rng(seed)
    m = _KERNEL_MAPS[kind](n)
    comparator = point_weights(_kernel_base(kind, n, rng))
    logs = []
    for _ in range(T):
        played, secondary = (point_weights(_kernel_base(kind, n, rng)) for _ in range(2))
        gradient, prediction = (rng.normal(size=n) for _ in range(2))
        logs.append(RoundLog(played, secondary, gradient, prediction))
    return m, comparator, logs


def _reads(cert):
    return repr((cert.lhs, cert.variance_term, cert.negative_term, cert.rhs, cert.holds()))


@pytest.mark.parametrize("n, block", [(1, 64), (128, 64), (129, 63), (300, 27), (8192, 1), (8193, 1)])
def test_certificate_block_holds_at_most_8192_doubles(n, block):
    assert RegretCertificate(MirrorMap.euclidean_ball(n), 0.5, np.zeros(n)).block == block


@pytest.mark.parametrize("kind", sorted(_KERNEL_MAPS))
@pytest.mark.parametrize("n", [1, 5, 300])
@pytest.mark.parametrize("every", [1, 7, 64, 0])
def test_certificate_reads_are_the_reference_across_blocks(kind, n, every):
    # read after every update, every 7th, once a block or only at the end:
    # each read folds the buffered rows first, so it has the bits of the
    # round-by-round reference on either side of a block boundary (a block
    # is 27 rounds at n = 300)
    m, comparator, logs = _kernel_logs(kind, n, 140, seed=n)
    cert = RegretCertificate(m, 0.7, comparator)
    ref = ReferenceRegretCertificate(m, 0.7, comparator)
    for t, log in enumerate(logs, start=1):
        cert.update(log)
        ref.update(log)
        if every and t % every == 0:
            assert _reads(cert) == _reads(ref), t
    assert _reads(cert) == _reads(ref)


def test_certificate_update_copies_the_round():
    # a caller that reuses one RoundLog's arrays for every round gets the
    # numbers of fresh arrays: update copies the round into its rows
    m, comparator, logs = _kernel_logs("ball", 4, 100, seed=11)
    cert = RegretCertificate(m, 0.7, comparator)
    ref = ReferenceRegretCertificate(m, 0.7, comparator)
    reused = RoundLog(*(np.empty(4) for _ in range(4)))
    for log in logs:
        for field_name in ("played", "secondary", "gradient", "prediction"):
            getattr(reused, field_name)[:] = getattr(log, field_name)
        cert.update(reused)
        ref.update(log)
    assert _reads(cert) == _reads(ref)


@pytest.mark.parametrize("kind", sorted(_KERNEL_MAPS))
@pytest.mark.parametrize("n, fold_every", [(5, 1), (5, 10), (5, 64), (300, 27), (300, 5)])
def test_fold_hands_over_each_rounds_columns(kind, n, fold_every):
    # fold() hands over the (lhs, rhs) of every round since the last fold,
    # as the reference reads them after that round, with reads between folds
    T = 140
    m, comparator, logs = _kernel_logs(kind, n, T, seed=n + fold_every)
    cert = RegretCertificate(m, 0.7, comparator)
    ref = ReferenceRegretCertificate(m, 0.7, comparator)
    got, expected = [], []
    total, got_sums, sums = np.zeros(n), [], []
    for t, log in enumerate(logs, start=1):
        cert.update(log)
        ref.update(log)
        expected.append((ref.lhs, ref.rhs))
        total += log.played
        sums.append(total.tobytes())
        if t % 3 == 0:
            cert.holds()  # a read folds too; fold() still hands its rounds over
        if t % fold_every == 0 or t == T:
            (lhs, rhs), play_sums = cert.fold()
            got.extend(zip(lhs.tolist(), rhs.tolist()))
            got_sums.extend(row.tobytes() for row in play_sums)
    assert repr(got) == repr(expected)
    assert got_sums == sums
    assert _reads(cert) == _reads(ref)


def test_fold_drops_the_columns_of_a_block_no_fold_collected():
    # 133 rounds and no fold: the 65th round dropped rounds 1-64, the 129th
    # rounds 65-128, so fold() hands over rounds 129-133; the sums keep all
    m, comparator, logs = _kernel_logs("ball", 5, 133, seed=3)
    cert = RegretCertificate(m, 0.7, comparator)
    ref = ReferenceRegretCertificate(m, 0.7, comparator)
    expected = []
    for log in logs:
        cert.update(log)
        ref.update(log)
        expected.append((ref.lhs, ref.rhs))
    (lhs, rhs), _ = cert.fold()
    assert repr(list(zip(lhs.tolist(), rhs.tolist()))) == repr(expected[-5:])
    assert cert.fold()[0].shape == (2, 0)
    assert _reads(cert) == _reads(ref)


def test_certificate_negative_term_squares_as_python_does():
    # Python's x**2 is libm pow, which is not x*x on about 1 in 1200 doubles;
    # one round whose only nonzero distance is x puts x**2 / 2 alone in the sum
    rng = np.random.default_rng(13)
    x = next(v for v in rng.uniform(0.0, 3.0, size=100_000).tolist() if v**2 != v * v)
    m = MirrorMap.entropy_simplex(2)
    half = np.array([0.5, 0.5])
    log = RoundLog(half, np.array([0.5, 0.5 + x]), np.zeros(2), np.zeros(2))
    cert = RegretCertificate(m, 1.0, half)
    ref = ReferenceRegretCertificate(m, 1.0, half)
    cert.update(log)
    ref.update(log)
    assert repr(cert.negative_term) == repr(ref.negative_term) == repr(x**2 / 2.0)
