"""Offline smooth / Holder-smooth optimization."""
import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    assert_same_bits,
    holder_half_problem,
    huber_vertex_problem,
    quad_ball_problem,
    reference_builtin_oracles,
    reference_prox_loop,
)
import omdkit.mirror as mirror
from omdkit.mirror import MirrorMap, RegretCertificate
from omdkit.offline import (
    OfflineRound,
    SmoothProblem,
    builtin_problems,
    check_holder,
    holder_eta,
    holder_optimize,
    mirror_prox,
    trajectory,
)


# ---------------------------------------------------------------- holder_eta

def test_holder_eta_endpoints():
    # alpha = 1 collapses to 1/(2H); alpha = 0 to R/(H sqrt(T))
    assert holder_eta(3.0, 4.0, 1.0, 17) == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert holder_eta(3.0, 4.0, 0.0, 16) == pytest.approx(3.0 / (4.0 * 4.0), abs=1e-15)


def test_holder_eta_midpoint_frozen():
    # R = H = T = 1, alpha = 1/2: 1.5^-0.75 * 0.5^-0.25 = 0.8773826753...
    got = holder_eta(1.0, 1.0, 0.5, 1)
    assert got == pytest.approx(1.5**-0.75 * 0.5**-0.25, abs=1e-15)
    assert got == pytest.approx(0.8773826753, abs=1e-9)


def test_holder_eta_rejects_bad_args():
    with pytest.raises(ValueError):
        holder_eta(1.0, 1.0, 1.5, 10)
    with pytest.raises(ValueError):
        holder_eta(1.0, 1.0, 0.5, 0)
    with pytest.raises(ValueError):
        holder_eta(0.0, 1.0, 0.5, 10)


# ---------------------------------------------------------------- mirror_prox

def test_mirror_prox_scalar_fixed_point():
    # G(f) = (f - 0.5)^2 / 2 on [-1, 1]: f_1 = 0.5 and every later play stays
    m = MirrorMap.euclidean_ball(1, radius=1.0)
    problem = SmoothProblem(
        gradient=lambda f: f - 0.5,
        holder_const=1.0,
        alpha=1.0,
        mirror_map=m,
        divergence_radius=math.sqrt(0.125),
        value=lambda f: float(0.5 * (f - 0.5) @ (f - 0.5)),
    )
    res = mirror_prox(problem, 8)
    for log in trajectory(problem, 8, res.eta):
        np.testing.assert_allclose(log.played, [0.5], atol=1e-15)
    np.testing.assert_allclose(res.average, [0.5], atol=1e-15)


def test_mirror_prox_guarantee_simplex_quadratic():
    # optimum (0.3, 0.7) lies on the simplex; bound H R^2 / T with
    # R^2 = D(optimum, uniform) = 0.04
    m = MirrorMap.euclidean_simplex(2)
    p = np.array([0.3, 0.7])
    problem = SmoothProblem(
        gradient=lambda f: f - p,
        holder_const=1.0,
        alpha=1.0,
        mirror_map=m,
        divergence_radius=math.sqrt(0.04),
        value=lambda f: float(0.5 * (f - p) @ (f - p)),
    )
    res = mirror_prox(problem, 100)
    assert problem.value(res.average) <= 1.0 * 0.04 / 100 + 1e-12


def test_mirror_prox_requires_alpha_one():
    problem, _ = huber_vertex_problem()
    with pytest.raises(ValueError):
        mirror_prox(problem, 10)


def test_prediction_matches_gradient_at_secondary():
    problem, _ = quad_ball_problem()
    res = mirror_prox(problem, 12)
    g_prev = problem.mirror_map.divergence_minimizer()
    for log in trajectory(problem, 12, res.eta):
        np.testing.assert_allclose(
            log.prediction, problem.gradient(np.asarray(g_prev)), atol=1e-15
        )
        g_prev = log.secondary


# ---------------------------------------------------------------- holder_optimize

def test_holder_problem_constants_spot_check():
    rng = np.random.default_rng(7)
    for problem, _ in (holder_half_problem(), huber_vertex_problem()):
        n = problem.mirror_map.dim
        if problem.mirror_map.kind == "entropy":
            pts = [rng.dirichlet(np.ones(n)) for _ in range(12)]
        else:
            pts = [rng.uniform(-0.6, 0.6, size=n) for _ in range(12)]
        assert check_holder(problem, pts) <= 1e-9


@pytest.mark.parametrize("radius_reading", ["divergence", "sqrt"])
def test_holder_guarantee_huber_both_radius_readings(radius_reading):
    # alpha = 0: averaged value within 8 H R / sqrt(T) of the vertex minimum,
    # under either reading of the step-size scale R
    n = 5
    T = 400
    sup_div = math.log(n)  # sup KL(f, uniform) over the simplex
    R = sup_div if radius_reading == "divergence" else math.sqrt(sup_div)
    problem, g_star = huber_vertex_problem(n=n, radius=R)
    res = holder_optimize(problem, T)
    bound = 8.0 * problem.holder_const * R ** (1.0 + problem.alpha) / T ** 0.5
    assert problem.value(res.average) - g_star <= bound + 1e-12


def test_holder_guarantee_half_exponent():
    problem, g_star = holder_half_problem()
    T = 200
    res = holder_optimize(problem, T)
    R = problem.divergence_radius
    bound = 8.0 * problem.holder_const * R**1.5 / T**0.75
    assert problem.value(res.average) - g_star <= bound + 1e-12


def test_decay_with_horizon():
    # averaged suboptimality at T=800 beats T=50 on all three exponents
    for problem, _ in (quad_ball_problem(), holder_half_problem(), huber_vertex_problem()):
        lo = holder_optimize(problem, 50)
        hi = holder_optimize(problem, 800)
        assert problem.value(hi.average) <= problem.value(lo.average)


# ---------------------------------------------------------------- scalar rows

def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@st.composite
def _quadratic_runs(draw):
    """A weighted quadratic on one of three maps, a solver and a horizon."""
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["euclidean-ball", "euclidean-simplex", "entropy-simplex"]))
    w = draw(arrays(float, n, elements=st.floats(0.125, 2.0)))
    if kind == "euclidean-ball":
        m = MirrorMap.euclidean_ball(n, radius=1.0)
        v = draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
        p = v / max(1.0, float(np.linalg.norm(v)))
    else:
        m = MirrorMap.euclidean_simplex(n) if kind == "euclidean-simplex" else MirrorMap.entropy_simplex(n)
        weights = draw(arrays(float, n, elements=st.floats(0.0, 1.0)))
        weights[draw(st.integers(0, n - 1))] += 1.0
        p = weights / weights.sum()
    problem = SmoothProblem(
        gradient=lambda f: w * (f - p),
        holder_const=float(w.max()),
        alpha=1.0,
        mirror_map=m,
        divergence_radius=1.0,
        value=(lambda f: float(0.5 * (f - p) @ (w * (f - p)))) if draw(st.booleans()) else None,
        minimizer=p if draw(st.booleans()) else None,
    )
    solve = draw(st.sampled_from([mirror_prox, holder_optimize]))
    return problem, solve, draw(st.integers(1, 40))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_quadratic_runs())
def test_rows_fold_the_trajectory(case):
    # each row is RegretCertificate plus the running value folded over
    # trajectory(...), bit for bit, and each row's certificate holds
    problem, solve, T = case
    res = solve(problem, T)
    m = problem.mirror_map
    comparator = m.divergence_minimizer() if problem.minimizer is None else problem.minimizer
    cert = RegretCertificate(m, res.eta, comparator)
    total = np.zeros(m.dim)
    logs = list(trajectory(problem, T, res.eta))
    assert len(res.rounds) == len(logs) == T
    for t, (row, log) in enumerate(zip(res.rounds, logs), start=1):
        total += log.played
        cert.update(log)
        value = math.nan if problem.value is None else problem.value(total / t)
        assert row.t == t
        assert _bits(row.value) == _bits(value)
        assert _bits(row.cert_lhs) == _bits(cert.lhs)
        assert _bits(row.cert_rhs) == _bits(cert.rhs)
        assert row.cert_lhs <= row.cert_rhs + 1e-9
    assert res.average.tobytes() == (total / T).tobytes()


def test_rows_hold_no_arrays():
    for problem, _ in builtin_problems().values():
        res = holder_optimize(problem, 6)
        for row in res.rounds:
            assert isinstance(row, OfflineRound)
            for f in dataclasses.fields(row):
                assert not isinstance(getattr(row, f.name), np.ndarray), f.name


def _retained_per_round(solve, problem) -> float:
    """Bytes a run keeps alive per round, from the growth between two horizons."""
    kept = []
    for T in (500, 5000):
        gc.collect()
        tracemalloc.start()
        try:
            res = solve(problem, T)
            gc.collect()
            kept.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert len(res.rounds) == T
        del res
    return (kept[1] - kept[0]) / 4500


def test_memory_per_round_is_one_scalar_row():
    problems = builtin_problems()
    assert _retained_per_round(mirror_prox, problems["quad-ball"][0]) <= 300
    assert _retained_per_round(holder_optimize, problems["vertex-pull"][0]) <= 300


def test_minimizer_must_match_the_map():
    problem, _ = builtin_problems()["quad-ball"]
    with pytest.raises(ValueError, match="minimizer"):
        dataclasses.replace(problem, minimizer=np.zeros(3))


def test_mirror_prox_makes_two_prox_steps_per_round(monkeypatch):
    # the play and the correction each go through mirror.prox_step, the
    # module global that the benchmark's tracer counts
    calls = []
    real = mirror.prox_step

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mirror, "prox_step", counting)
    T = 40
    problem, _ = builtin_problems()["quad-ball"]
    mirror_prox(problem, T)
    assert len(calls) == 2 * T


def _counting(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that counts its calls; returns the count list."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


_SOLVES = [
    ("quad-ball", mirror_prox),
    ("quad-ball", holder_optimize),
    ("half-ball", holder_optimize),
    ("vertex-pull", holder_optimize),
]
_OTHER_SOLVES = _SOLVES[1:]  # quad-ball under mirror_prox is the test above


@pytest.mark.parametrize("name, solve", _OTHER_SOLVES, ids=[f"{n}-{s.__name__}" for n, s in _OTHER_SOLVES])
def test_every_solver_makes_two_prox_steps_per_round(monkeypatch, name, solve):
    # mirror_prox needs alpha = 1, so only quad-ball runs under both solvers
    calls = _counting(monkeypatch, mirror, "prox_step")
    T = 37
    solve(builtin_problems()[name][0], T)
    assert len(calls) == 2 * T


def test_vertex_pull_makes_two_exp_steps_per_round(monkeypatch):
    # each entropy prox step is one SimplexPoint.exp_step, the method the
    # benchmark's tracer counts; the start point is built without one
    calls = _counting(monkeypatch, mirror.SimplexPoint, "exp_step")
    T = 29
    holder_optimize(builtin_problems()["vertex-pull"][0], T)
    assert len(calls) == 2 * T


# ---------------------------------------------------------------- reference identity

def _expected_eta(problem, solve, T):
    if solve is mirror_prox:
        return 1.0 / problem.holder_const
    return holder_eta(problem.divergence_radius, problem.holder_const, problem.alpha, T)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(_SOLVES), st.integers(1, 300))
def test_builtin_runs_match_the_reference_loop(case, T):
    # the library's instances and loop against the parent's oracle
    # expressions run through omd_round: rows, average and eta, bit for bit
    name, solve = case
    problem, _ = builtin_problems()[name]
    gradient, value = reference_builtin_oracles()[name]
    reference = dataclasses.replace(problem, gradient=gradient, value=value)
    res = solve(problem, T)
    assert_same_bits(res, reference_prox_loop(reference, T, _expected_eta(problem, solve, T)))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_quadratic_runs())
def test_quadratic_runs_match_the_reference_loop(case):
    problem, solve, T = case
    res = solve(problem, T)
    assert_same_bits(res, reference_prox_loop(problem, T, _expected_eta(problem, solve, T)))


# ---------------------------------------------------------------- block folds

_BLOCK_TS = (1, 2, 63, 64, 65, 129)


def _block_problem(kind, n, with_value, with_minimizer):
    """A diagonal quadratic on the unit ball or the simplex (entropy map),
    with its minimizer and value given or left out."""
    rng = np.random.default_rng(n)
    w = rng.uniform(0.1, 1.0, size=n)
    if kind == "entropy":
        m = MirrorMap.entropy_simplex(n)
        p = rng.dirichlet(np.ones(n))
    else:
        m = MirrorMap.euclidean_ball(n)
        p = rng.uniform(-1.0, 1.0, size=n) / (2.0 * math.sqrt(n))
    return SmoothProblem(
        gradient=lambda f: w * (f - p),
        holder_const=float(w.max()),
        alpha=1.0,
        mirror_map=m,
        divergence_radius=1.0,
        value=(lambda f: float(0.5 * (f - p) @ (w * (f - p)))) if with_value else None,
        minimizer=p if with_minimizer else None,
    )


@pytest.mark.parametrize("T", _BLOCK_TS)
@pytest.mark.parametrize("n", [3, 300])
@pytest.mark.parametrize("kind", ["euclidean", "entropy"])
@pytest.mark.parametrize("solve", [mirror_prox, holder_optimize])
@pytest.mark.parametrize("with_value, with_minimizer", [(True, True), (False, True), (True, False)])
def test_block_folded_rows_are_the_reference_loop(T, n, kind, solve, with_value, with_minimizer):
    # rows folded a block at a time against the round-by-round reference, on
    # either side of a block boundary; at n = 300 a block is 27 rounds, so
    # that a buffer holds at most 8192 doubles
    problem = _block_problem(kind, n, with_value, with_minimizer)
    res = solve(problem, T)
    assert_same_bits(res, reference_prox_loop(problem, T, _expected_eta(problem, solve, T)))
