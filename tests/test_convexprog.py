"""Convex programming solver, step sizes, projections, and max flow."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omdkit import convexprog
from omdkit._linalg import AffineSolver, ProjectionError
from omdkit.convexprog import (
    FEAS_TOL,
    FlowNetwork,
    SmoothCP,
    _flow_problem,
    auto_rounds,
    builtin_cp_instances,
    check_flow,
    cp_step_sizes,
    max_flow,
    solve_cp,
)

from helpers import (
    assert_same_bits,
    augmenting_path_max_flow,
    golden_section_min,
    random_connected_graph,
    reference_solve_cp,
)


def closed_form_eta(B, d, H):
    # stationarity of B^2/eta + eta log d/(1 - eta H) gives
    # B (1 - eta H) = eta sqrt(log d)
    return B / (math.sqrt(math.log(d)) + B * H)


def test_step_sizes_smooth_free_closed_form():
    eta, eta_prime = cp_step_sizes(2.0, math.e, 0.0)
    assert eta == pytest.approx(2.0, rel=1e-15)
    assert eta_prime == pytest.approx(0.5, rel=1e-15)
    eta, eta_prime = cp_step_sizes(3.0, 10, 0.0)
    assert eta == pytest.approx(3.0 / math.sqrt(math.log(10)), rel=1e-15)
    assert eta * eta_prime == pytest.approx(1.0, rel=1e-15)


def test_step_sizes_match_independent_minimizers():
    for B, d, H in ((2.0, 10, 0.5), (1.0, 100, 2.0), (5.0, 7, 0.01)):
        eta, eta_prime = cp_step_sizes(B, d, H)
        assert eta == pytest.approx(closed_form_eta(B, d, H), rel=1e-8)
        assert eta_prime == pytest.approx(1.0 / eta - H, rel=1e-12)

        def psi(e):
            return B * B / e + e * math.log(d) / (1.0 - e * H)

        # golden section locates the argmin only to ~sqrt(eps_mach), but the
        # attained minimum value agrees to full cross-check precision
        golden = golden_section_min(psi, 1e-12, 1.0 / H - 1e-12)
        assert psi(eta) == pytest.approx(psi(golden), rel=1e-8)
        assert eta == pytest.approx(golden, rel=1e-6)


def test_step_sizes_rejections():
    with pytest.raises(ValueError):
        cp_step_sizes(1.0, 1, 0.0)
    with pytest.raises(ValueError):
        cp_step_sizes(0.0, 4, 0.0)
    with pytest.raises(ValueError):
        cp_step_sizes(1.0, 4, -0.1)


def test_project_affine_examples():
    one_row = AffineSolver(np.array([[1.0, 1.0]]))
    assert np.allclose(one_row.project(np.zeros(2), np.array([1.0])), [0.5, 0.5], atol=1e-10)
    scalar = AffineSolver(np.array([[1.0]]))
    assert np.allclose(scalar.project(np.array([3.0]), np.array([1.0])), [1.0])
    feasible = np.array([0.25, 0.75])
    assert np.allclose(one_row.project(feasible, np.array([1.0])), feasible, atol=1e-12)


def test_project_affine_reports_infeasible():
    solver = AffineSolver(np.array([[1.0], [1.0]]))
    with pytest.raises(ProjectionError) as err:
        solver.project(np.array([0.3]), np.array([0.0, 1.0]))
    assert err.value.residual > 0.1


# a non-finite input reports its ProjectionError and nothing else
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_project_affine_rejects_non_finite_output(bad):
    with pytest.raises(ProjectionError):
        AffineSolver(np.array([[1.0, 1.0]])).project(np.array([bad, 0.0]), np.array([1.0]))


# entries on a 1/8 grid keep every drawn system well conditioned, and the
# redundant rows below are then exact in floating point
GRID = st.integers(-8, 8).map(lambda k: k / 8.0)


@st.composite
def consistent_slices(draw):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 12))
    m = np.array(draw(st.lists(GRID, min_size=rows * cols, max_size=rows * cols)))
    m = m.reshape(rows, cols)
    extra = draw(st.sampled_from(["none", "duplicate", "combined", "zero"]))
    i = draw(st.integers(0, rows - 1))
    j = draw(st.integers(0, rows - 1))
    if extra == "duplicate":
        m = np.vstack([m, m[i]])
    elif extra == "combined":
        m = np.vstack([m, draw(GRID) * m[i] + draw(GRID) * m[j]])
    elif extra == "zero":
        m = np.vstack([m, np.zeros(cols)])
    q = np.array(draw(st.lists(st.floats(-1, 1), min_size=cols, max_size=cols)))
    p = np.array(draw(st.lists(st.floats(-10, 10), min_size=cols, max_size=cols)))
    return m, q, p


@settings(max_examples=60, derandomize=True, deadline=None)
@given(consistent_slices())
def test_affine_solver_residual_contract(case):
    m, q, p = case
    solver = AffineSolver(m)
    b = m @ q
    out = solver.project(p, b)
    assert np.max(np.abs(m @ out - b)) <= 1e-8
    np.testing.assert_allclose(solver.project(out, b), out, rtol=0, atol=1e-9)
    assert np.linalg.norm(p - out) <= np.linalg.norm(p - q) + 1e-9
    inconsistent = AffineSolver(np.vstack([m, np.zeros(m.shape[1])]))
    with pytest.raises(ProjectionError):
        inconsistent.project(p, np.append(b, 1.0))


_GOOD_CP = dict(
    objective=np.array([1.0, 0.0]),
    target=0.5,
    values=lambda f: np.eye(2) @ f,
    jacobian=lambda x, f: np.eye(2).T @ x,
    d=2,
    smoothness=0.0,
    anchor=np.zeros(2),
    margin=1.0,
    radius=2.0,
)


def test_smooth_cp_validation():
    good = _GOOD_CP
    SmoothCP(**good)
    with pytest.raises(ValueError):
        SmoothCP(**{**good, "anchor": np.array([1.0, 0.0])})  # margin violated
    with pytest.raises(ValueError):
        SmoothCP(**{**good, "objective": np.array([-1.0, 0.0]), "anchor": np.array([0.5, 0.0])})
    big = 2.0 * np.eye(2)
    with pytest.raises(ValueError):
        SmoothCP(**{**good, "values": lambda f: big @ f, "jacobian": lambda x, f: big.T @ x})
    with pytest.raises(ValueError):
        SmoothCP(**{**good, "ambient": (np.array([[1.0, 1.0]]), np.array([3.0]))})


@pytest.mark.parametrize(
    "name, value",
    [
        ("objective", np.array([math.nan, 0.0])),
        ("anchor", np.array([0.0, math.inf])),
        ("target", math.nan),
        ("radius", math.inf),
        ("smoothness", math.nan),
    ],
)
def test_smooth_cp_rejects_non_finite_data(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        SmoothCP(**{**_GOOD_CP, name: value})


@pytest.mark.parametrize("name", sorted(builtin_cp_instances()))
def test_builtin_instances_meet_guarantees(name):
    problem = builtin_cp_instances()[name]
    eps = 0.1
    f_hat, report = solve_cp(problem, eps)
    assert report.feasible, f"{name}: max constraint {report.max_constraint}"
    assert report.objective_ok, f"{name}: objective {report.objective_value}"
    assert report.max_slice_residual <= 1e-8
    assert report.rounds == auto_rounds(problem, eps)


def test_inactive_constraints_objective_exact():
    problem = builtin_cp_instances()["inactive"]
    eps = 0.05
    _, report = solve_cp(problem, eps)
    alpha = eps / (eps + 1.0)
    assert report.alpha == pytest.approx(alpha, rel=1e-15)
    assert report.objective_value == pytest.approx((1.0 - alpha) * problem.target, abs=1e-10)


def test_solve_cp_smooth_constraints():
    # curved constraints exercise the positive-smoothness step-size branch
    def values(f):
        q = 0.5 * float(f @ f)
        return np.array([q, 0.5 * q])

    def jacobian(x, f):
        return (x[0] + 0.5 * x[1]) * f

    problem = SmoothCP(
        objective=np.array([1.0, 0.0]),
        target=1.0,
        values=values,
        jacobian=jacobian,
        d=2,
        smoothness=1.0,
        anchor=np.zeros(2),
        margin=1.0,
        radius=2.0,
    )
    f_hat, report = solve_cp(problem, 0.05)
    assert report.feasible
    assert report.objective_ok
    assert report.eta == pytest.approx(closed_form_eta(2.0, 2, 1.0), rel=1e-8)


def test_solve_cp_explicit_rounds_and_errors():
    problem = builtin_cp_instances()["interval"]
    _, report = solve_cp(problem, 0.1, rounds=7)
    assert report.rounds == 7
    with pytest.raises(ValueError):
        solve_cp(problem, 0.0)
    with pytest.raises(ValueError):
        solve_cp(problem, 0.1, rounds=0)


@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_solve_cp_rejects_non_finite_epsilon(eps):
    problem = builtin_cp_instances()["interval"]
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        solve_cp(problem, eps)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_solve_cp_rejects_a_non_finite_target(target):
    # the override once reached the affine projection, which raised
    # ProjectionError, a numeric fault, in place of an input error
    problem = builtin_cp_instances()["box"]
    with pytest.raises(ValueError, match="target must be finite"):
        solve_cp(problem, 0.1, target=target)


def test_flow_network_validation():
    with pytest.raises(ValueError):
        FlowNetwork(2, [(0, 0)], 0, 1)
    with pytest.raises(ValueError):
        FlowNetwork(2, [(0, 1)], 0, 0)
    with pytest.raises(ValueError):
        FlowNetwork(2, [(0, 5)], 0, 1)
    net = FlowNetwork(3, [(0, 1), (1, 2)], 0, 2)
    assert net.edge_count == 2
    assert net.source_degree() == 1
    assert net.connects()


def test_check_flow_examples():
    net = FlowNetwork(2, [(0, 1)], 0, 1)
    zero = check_flow(net, [0.0])
    assert zero == {"value": 0.0, "conservation_residual": 0.0, "max_violation": 0.0}
    unit = check_flow(net, [1.0])
    assert unit["value"] == 1.0 and unit["max_violation"] == 0.0
    over = check_flow(net, [1.5])
    assert over["max_violation"] == pytest.approx(0.5)


def test_max_flow_parallel_edges():
    net = FlowNetwork(2, [(0, 1), (0, 1)], 0, 1)
    sol = max_flow(net, 0.05)
    assert sol.value >= 2.0 * (1 - 0.05)
    assert sol.max_violation <= 1e-7
    assert sol.conservation_residual <= 1e-7


def test_max_flow_three_edge_path():
    net = FlowNetwork(4, [(0, 1), (1, 2), (2, 3)], 0, 3)
    sol = max_flow(net, 0.1)
    assert sol.value >= 0.9
    assert sol.max_violation <= 1e-7
    assert sol.conservation_residual <= 1e-7


def test_max_flow_disconnected_returns_zero():
    net = FlowNetwork(4, [(0, 1), (2, 3)], 0, 3)
    sol = max_flow(net, 0.1)
    assert sol.value == 0.0
    assert np.array_equal(sol.flows, np.zeros(2))


def test_max_flow_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(17)
    eps = 0.05
    for _ in range(3):
        nodes, edges, source, sink = random_connected_graph(rng, max_edges=16)
        net = FlowNetwork(nodes, edges, source, sink)
        exact = augmenting_path_max_flow(nodes, edges, source, sink)
        sol = max_flow(net, eps)
        assert sol.value >= (1 - eps) * exact - 1e-12
        assert sol.max_violation <= 1e-7
        assert sol.conservation_residual <= 1e-7


def test_max_flow_deterministic():
    net = FlowNetwork(4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)], 0, 3)
    s1 = max_flow(net, 0.1)
    s2 = max_flow(net, 0.1)
    assert np.array_equal(s1.flows, s2.flows)
    with pytest.raises(ValueError):
        max_flow(net, 1.5)


def test_max_flow_with_redundant_conservation_rows():
    # node 2 is isolated and nodes 4-5 float apart from the source and sink,
    # so the conservation rows of the slice are linearly dependent
    net = FlowNetwork(6, ((0, 1), (1, 3), (0, 3), (4, 5), (1, 0)), 0, 3)
    eps = 0.1
    sol = max_flow(net, eps)
    assert sol.value >= (1 - eps) * 2.0
    assert sol.max_violation <= 1e-7
    assert sol.conservation_residual <= 1e-7


@pytest.mark.parametrize("name", sorted(builtin_cp_instances()))
def test_solve_cp_never_true_predicate_changes_nothing(name):
    problem = builtin_cp_instances()[name]
    f_plain, plain = solve_cp(problem, 0.01)
    calls = []

    def never(t, max_constraint_avg):
        calls.append(t)
        return False

    f_hooked, hooked = solve_cp(problem, 0.01, stop_when=never)
    assert calls == list(range(1, plain.rounds + 1))
    assert plain.rounds == auto_rounds(problem, 0.01)
    assert f_hooked.tobytes() == f_plain.tobytes()
    for key, value in vars(plain).items():
        other = getattr(hooked, key)
        if isinstance(value, np.ndarray):
            assert other.tobytes() == value.tobytes(), key
        elif key == "trace":
            assert list(other) == list(value)
        else:
            assert other == value, key


def test_solve_cp_stops_where_the_predicate_says():
    problem = builtin_cp_instances()["box"]
    seen = {}

    def at_five(t, max_constraint_avg):
        seen[t] = max_constraint_avg
        return t == 5

    f_hat, report = solve_cp(problem, 0.05, stop_when=at_five)
    assert report.rounds == 5 and sorted(seen) == [1, 2, 3, 4, 5]
    assert [row.max_constraint_avg for row in report.trace] == [seen[t] for t in range(1, 6)]
    assert report.f_bar.tobytes() == solve_cp(problem, 0.05, rounds=5)[1].f_bar.tobytes()
    assert seen[5] == float(np.max(problem.values(report.f_bar)))
    alpha = 0.05 / (0.05 + problem.margin)
    assert f_hat.tobytes() == ((1 - alpha) * report.f_bar + alpha * problem.anchor).tobytes()


def _flow_horizon(network, eps):
    return auto_rounds(_flow_problem(network, 0.0), eps / 2.0)


def _assert_stops_are_honest(network, sol, eps):
    # an early stop is a certified acceptance; every other candidate, and so
    # every rejected one, ran its full auto horizon
    horizon = _flow_horizon(network, eps)
    assert sol.early_stops == sum(c.stop == "accepted-early" for c in sol.candidates)
    assert sol.total_rounds == sum(c.rounds for c in sol.candidates)
    for cand in sol.candidates:
        if cand.stop == "accepted-early":
            assert cand.accepted and cand.rounds < horizon
            assert cand.max_constraint <= 1.0 + FEAS_TOL
        else:
            assert cand.stop == "horizon" and cand.rounds == horizon


def test_max_flow_accepts_early_on_a_four_node_graph():
    # the graph of criterion 9, edges 1-2, 2-4, 1-3, 3-4, 2-3
    net = FlowNetwork(4, ((0, 1), (1, 3), (0, 2), (2, 3), (1, 2)), 0, 3)
    sol = max_flow(net, 0.1)
    assert sol.early_stops >= 1
    _assert_stops_are_honest(net, sol, 0.1)
    assert sol.value >= 0.9 * 2.0
    assert sol.max_violation <= 1e-7 and sol.conservation_residual <= 1e-7


@st.composite
def small_connected_graphs(draw):
    nodes = draw(st.integers(2, 7))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, nodes)]
    pairs = [(u, v) for u in range(nodes) for v in range(u + 1, nodes)]
    if pairs:
        edges += draw(st.lists(st.sampled_from(pairs), max_size=16 - len(edges)))
    sink = draw(st.integers(1, nodes - 1))
    return nodes, edges, 0, sink


@settings(max_examples=25, derandomize=True, deadline=None)
@given(small_connected_graphs(), st.sampled_from([0.1, 0.2]))
def test_max_flow_early_acceptance_keeps_the_guarantee(graph, eps):
    nodes, edges, source, sink = graph
    net = FlowNetwork(nodes, edges, source, sink)
    sol = max_flow(net, eps)
    exact = augmenting_path_max_flow(nodes, edges, source, sink)
    assert sol.value >= (1 - eps) * exact - 1e-12
    assert sol.max_violation <= 1e-7 and sol.conservation_residual <= 1e-7
    _assert_stops_are_honest(net, sol, eps)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(small_connected_graphs(), st.floats(0.0, 1.0), st.sampled_from([0.1, 0.2]))
def test_flow_stop_scalar_is_the_blends_max_constraint_on_every_round(graph, share, eps):
    # max_flow's early stop reads (1 - alpha) * max G(f_bar_t) for max G of
    # the blend of f_bar_t; with the zero anchor the two are the same float
    nodes, edges, source, sink = graph
    net = FlowNetwork(nodes, edges, source, sink)
    problem = _flow_problem(net, share * net.source_degree())
    for k in range(1, 9):
        _, report = solve_cp(problem, eps, rounds=k)
        assert len(report.trace) == k
        assert report.max_constraint == (1 - report.alpha) * report.trace[k - 1].max_constraint_avg


# ---------------------------------------------------------------- the coupled round

@pytest.mark.parametrize("name", sorted(builtin_cp_instances()))
@pytest.mark.parametrize("eps", [0.01, 0.15])
def test_solve_cp_matches_the_reference_loop(name, eps):
    problem = builtin_cp_instances()[name]
    f_hat, report = solve_cp(problem, eps)
    ref_hat, ref = reference_solve_cp(problem, eps)
    assert f_hat.tobytes() == ref_hat.tobytes()
    assert_same_bits(report, ref)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(builtin_cp_instances())), st.integers(1, 40), st.integers(1, 50))
def test_stopped_solve_cp_matches_the_reference_loop(name, rounds, stop_at):
    problem = builtin_cp_instances()[name]

    def stop(t, max_constraint_avg):
        return t == stop_at

    f_hat, report = solve_cp(problem, 0.05, rounds=rounds, stop_when=stop)
    ref_hat, ref = reference_solve_cp(problem, 0.05, rounds=rounds, stop_when=stop)
    assert report.rounds == min(rounds, stop_at)
    assert f_hat.tobytes() == ref_hat.tobytes()
    assert_same_bits(report, ref)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(small_connected_graphs(), st.sampled_from([0.1, 0.2]))
def test_max_flow_matches_the_reference_loop(graph, eps):
    net = FlowNetwork(*graph)
    sol = max_flow(net, eps)
    with mock.patch.object(convexprog, "solve_cp", reference_solve_cp):
        ref = max_flow(net, eps)
    assert_same_bits(sol, ref)


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("stop_at", [1, 2, 7, None])
def test_solve_cp_skips_the_stopped_rounds_correction(monkeypatch, stop_at):
    # a run stopped at round k projects the start, k plays and k - 1
    # corrections, and steps the constraint player k plays and k - 1
    # corrections; an unstopped run of T rounds corrects every round
    projections = _count_calls(monkeypatch, AffineSolver, "project")
    proxes = _count_calls(monkeypatch, convexprog, "prox_step")
    T = 12

    def stop(t, max_constraint_avg):
        return t == stop_at

    _, report = solve_cp(builtin_cp_instances()["tied"], 0.05, rounds=T, stop_when=stop)
    if stop_at is None:
        assert report.rounds == T and len(projections) == 2 * T + 1 and len(proxes) == 2 * T
    else:
        k = stop_at
        assert report.rounds == k and len(projections) == 2 * k and len(proxes) == 2 * k - 1
