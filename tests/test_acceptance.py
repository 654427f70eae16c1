"""End-to-end guarantee checks at their stated tolerances.

Each check prints one verdict line, `criterion <k> [PASS|FAIL] <label>`,
and asserts it. The nine checks cover the smooth offline rate, the Holder
rate family, adaptive regret on loss streams, self-play convergence with an
LP cross-check, robustness against arbitrary opponents, the bandit
estimator identity and step caps, constrained-program guarantees,
approximate max flow against an exact oracle, and bit-identical reruns.
"""
import math
import time

import numpy as np

from helpers import (
    augmenting_path_max_flow,
    holder_half_problem,
    huber_vertex_problem,
    lp_game_value,
    quad_ball_problem,
    random_connected_graph,
)
from omdkit.convexprog import FlowNetwork, builtin_cp_instances, max_flow, solve_cp
from omdkit.games import run_bandit_match, run_full_info_match, run_full_info_vs
from omdkit.harness import ExperimentConfig, fit_rate, run_experiment
from omdkit.mirror import (
    MirrorMap,
    OmdState,
    SimplexPoint,
    adaptive_eta,
    omd_round,
    point_weights,
)
from omdkit.offline import holder_optimize, mirror_prox


def _verdict(index: int, label: str, ok: bool) -> bool:
    print(f"criterion {index} [{'PASS' if ok else 'FAIL'}] {label}")
    return ok


def test_criterion_1_smooth_offline_rate():
    problem, optimum = quad_ball_problem(weights=(1.0, 1.0, 1.0))
    started = time.perf_counter()
    ok = True
    for T in (100, 400):
        res = mirror_prox(problem, T)
        bound = problem.holder_const * problem.divergence_radius**2 / T
        ok = ok and problem.value(res.average) - optimum <= bound
    ok = ok and time.perf_counter() - started < 1.0
    assert _verdict(1, "averaged smooth optimization meets H R^2 / T", ok)


def test_criterion_2_holder_rate_family():
    horizons = [50, 100, 200, 400, 800, 1600]
    cases = [
        (0.0, huber_vertex_problem()),
        (0.5, holder_half_problem()),
        (1.0, quad_ball_problem()),
    ]
    started = time.perf_counter()
    ok = True
    for alpha, (problem, optimum) in cases:
        values = [
            problem.value(holder_optimize(problem, T).average) - optimum for T in horizons
        ]
        ok = ok and fit_rate(horizons, values) <= -0.9 * (1.0 + alpha) / 2.0
    ok = ok and time.perf_counter() - started < 10.0
    assert _verdict(2, "Holder rate slopes at most -0.9 (1+alpha)/2", ok)


def test_criterion_3_adaptive_regret_streams():
    n, T = 5, 500
    r_max = math.sqrt(math.log(n))
    m = MirrorMap.entropy_simplex(n)
    ok = True
    for stream in range(100):
        rng = np.random.default_rng(1000 + stream)
        losses = rng.uniform(-1.0, 1.0, size=(T, n))
        state = OmdState.initial(m, r_max=r_max)
        prediction = np.zeros(n)
        cumulative = np.zeros(n)
        played = 0.0
        for loss in losses:
            eta = adaptive_eta(state.sq_diff_history, r_max)
            f, state = omd_round(state, m, prediction, lambda _f, l=loss: l, eta)
            played += float(point_weights(f) @ loss)
            cumulative += loss
            prediction = loss
        regret = played - float(cumulative.min())
        bound = 3.5 * r_max * (math.sqrt(state.sq_diff_history.sums[0]) + 1.0)
        ok = ok and regret <= bound
    assert _verdict(3, "adaptive regret within 3.5 R (sqrt variation + 1)", ok)


def test_criterion_4_self_play_convergence():
    T = 2000
    matrices = [np.array([[1.0, -1.0], [-1.0, 1.0]])]
    rng = np.random.default_rng(42)
    matrices += [rng.uniform(-1.0, 1.0, size=(10, 10)) for _ in range(20)]
    ok = True
    for a in matrices:
        n, m = a.shape
        started = time.perf_counter()
        res = run_full_info_match(a, T)
        per_match = time.perf_counter() - started
        bound = (6.0 + 22.0 * math.log(n * m * T**4) + 40.0 / T) / T
        value = float(res.f_average @ a @ res.x_average)
        ok = ok and res.gap <= bound
        ok = ok and abs(value - lp_game_value(a)) <= res.gap + 1e-9
        ok = ok and per_match < 5.0
    assert _verdict(4, "self-play gap bound and LP agreement", ok)


def test_criterion_5_robustness_to_opponents():
    T = 500
    rng = np.random.default_rng(7)
    a = rng.uniform(-1.0, 1.0, size=(5, 5))
    n, m = a.shape
    r_sq = math.log(n * T * T)

    fixed = np.array([0.5, 0.2, 0.1, 0.1, 0.1])
    draw = np.random.default_rng(99)

    def fixed_opponent(t, f_prev):
        return fixed

    def vertex_opponent(t, f_prev):
        x = np.zeros(m)
        x[draw.integers(m)] = 1.0
        return x

    def descent_opponent_factory():
        point = SimplexPoint.uniform(m)
        eta = math.sqrt(math.log(m) / T)

        def descent_opponent(t, f_prev):
            nonlocal point
            if f_prev is not None:
                loss = -(f_prev @ a)  # ascent on its own payoff
                point = point.exp_step(eta * (loss - loss.max()))
            return point.weights

        return descent_opponent

    ok = True
    for opponent in (fixed_opponent, vertex_opponent, descent_opponent_factory()):
        run = run_full_info_vs(a, T, opponent)
        cert = run.certificate
        ok = ok and bool(np.all(cert.lhs_per_vertex <= cert.rhs + 1e-9))
        bound = 22.0 * r_sq + 45.0 + ((20.0 + r_sq) / 2.0) * math.sqrt(run.obs_variation)
        ok = ok and run.regret <= bound
    assert _verdict(5, "per-vertex certificates and regret bound vs arbitrary opponents", ok)


def test_criterion_6_bandit_estimator_and_caps():
    ok = True
    rng = np.random.default_rng(11)
    for shape in ((3, 4), (5, 5)):
        a = rng.uniform(-1.0, 1.0, size=shape)
        res = run_bandit_match(a, 200, seed=3)
        ok = ok and res.summary["estimator_error_row"] <= 1e-9
        ok = ok and res.summary["estimator_error_col"] <= 1e-9
        ok = ok and all(
            r.cert_lhs_row <= r.cert_rhs_row and r.cert_lhs_col <= r.cert_rhs_col
            for r in res.trace
        )

    # the uniform start is the exact equilibrium of matching pennies, so both
    # horizons sit at gap zero; the asymmetric game provides the strict
    # shrinkage evidence
    pennies = [[1.0, -1.0], [-1.0, 1.0]]
    gap_short = run_bandit_match(pennies, 1000, seed=0).gap
    gap_long = run_bandit_match(pennies, 4000, seed=0).gap
    ok = ok and ((gap_long == 0.0 and gap_short == 0.0) or gap_long < gap_short)

    asym = [[1.0, -1.0], [-0.5, 1.0]]
    ok = ok and run_bandit_match(asym, 4000, seed=0).gap < run_bandit_match(asym, 1000, seed=0).gap
    assert _verdict(6, "bandit estimator identity, step caps, gap shrinkage", ok)


def test_criterion_7_constrained_programs():
    ok = True
    for name, problem in builtin_cp_instances().items():
        for eps in (0.1, 0.01):
            f_hat, report = solve_cp(problem, eps)
            ok = ok and float(np.max(problem.values(f_hat))) <= 1.0 + 1e-9
            floor = (1.0 - eps / problem.margin) * problem.target - 1e-9
            ok = ok and report.objective_value >= floor
            ok = ok and report.feasible and report.objective_ok
    assert _verdict(7, "constrained programs: feasibility and objective retention", ok)


def test_criterion_8_max_flow_against_oracle():
    rng = np.random.default_rng(2024)
    eps = 0.05
    started = time.perf_counter()
    ok = True
    for _ in range(20):
        nodes, edges, source, sink = random_connected_graph(rng)
        network = FlowNetwork(nodes, tuple(edges), source, sink)
        sol = max_flow(network, eps)
        exact = augmenting_path_max_flow(nodes, edges, source, sink)
        ok = ok and sol.value >= (1.0 - eps) * exact
        ok = ok and sol.max_violation <= 1e-7
        ok = ok and sol.conservation_residual <= 1e-7
        d = network.edge_count
        per_solve = math.ceil(math.sqrt(d * math.log(d)) / eps)
        ok = ok and sol.total_rounds <= per_solve * (1 + 12 * sol.solves)
    ok = ok and time.perf_counter() - started < 30.0
    assert _verdict(8, "max flow within (1 - eps) of exact, clean flows", ok)


def test_criterion_9_trace_determinism(tmp_path):
    matrix = tmp_path / "payoff.txt"
    matrix.write_text("1,-1\n-0.5,1\n")
    graph = tmp_path / "graph.txt"
    graph.write_text("p 4 5 1 4\ne 1 2\ne 2 4\ne 1 3\ne 3 4\ne 2 3\n")
    cases = [
        ("mirror-prox", {"rounds": 60}),
        ("holder", {"rounds": 60}),
        ("saddle", {"matrix": str(matrix), "rounds": 60}),
        ("game", {"matrix": str(matrix), "rounds": 60}),
        ("game-bandit", {"matrix": str(matrix), "rounds": 60, "seed": 9}),
        ("cvxprog", {"instance": "tied", "epsilon": 0.15}),
        ("maxflow", {"graph": str(graph), "epsilon": 0.1}),
    ]
    ok = True
    for kind, extra in cases:
        traces = []
        for tag in ("one", "two"):
            result = run_experiment(
                ExperimentConfig(kind=kind, out=str(tmp_path / f"{kind}-{tag}"), **extra)
            )
            ok = ok and result.status == 0
            traces.append(result.trace_path.read_bytes())
        ok = ok and traces[0] == traces[1]
    assert _verdict(9, "bit-identical traces on rerun", ok)
