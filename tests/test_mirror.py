"""Mirror map, prox, interleaved round, adaptive step, regret certificate."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from omdkit._linalg import project_ball
from omdkit.mirror import (
    Ball,
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


def test_entropy_requires_simplex():
    with pytest.raises(ValueError):
        MirrorMap("entropy", Ball(2, 1.0))


# ---------------------------------------------------------------- omd_round

def test_omd_round_euclidean_frozen():
    # ball radius 10, g0 = 0, prediction 0, gradient constant (1, 0), eta 1:
    # f1 = (0,0) and g1 = (-1,0)
    m = MirrorMap.euclidean_ball(2, radius=10.0)
    state = OmdState.initial(m)
    f1, state = omd_round(state, m, [0.0, 0.0], lambda f: np.array([1.0, 0.0]), 1.0)
    np.testing.assert_allclose(f1, [0.0, 0.0], atol=0)
    np.testing.assert_allclose(point_weights(state.secondary), [-1.0, 0.0], atol=0)
    assert state.sq_diff_history == [1.0]


def test_omd_round_entropy_frozen():
    # prediction equals the constant gradient: f1 = g1, squared gap 0
    m = MirrorMap.entropy_simplex(2)
    state = OmdState.initial(m)
    f1, state = omd_round(state, m, [1.0, 0.0], lambda f: np.array([1.0, 0.0]), 1.0)
    expect = np.array([math.exp(-1.0), 1.0]) / (math.exp(-1.0) + 1.0)
    np.testing.assert_allclose(f1.weights, expect, atol=1e-15)
    np.testing.assert_allclose(point_weights(state.secondary), expect, atol=1e-15)
    assert state.sq_diff_history == [0.0]
    assert state.round == 1


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


def test_adaptive_eta_nonincreasing():
    rng = np.random.default_rng(3)
    hist = []
    prev = adaptive_eta(hist, 1.7)
    for _ in range(50):
        hist.append(float(rng.uniform(0, 4)))
        cur = adaptive_eta(hist, 1.7)
        assert cur <= prev + 1e-15
        prev = cur


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


def test_euclidean_norms_match_numpy_bitwise():
    # sqrt(v . v) is np.linalg.norm's own formula for a 1-d float vector,
    # including underflow to 0 and overflow to inf
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
            expected = v.copy() if ref <= 1.5 else v * (1.5 / ref)
            assert project_ball(v, 1.5).tobytes() == expected.tobytes()
