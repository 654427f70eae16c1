"""Approximate smooth convex programming via a constraint-vs-variable game.

maximize c^T f over an affine set subject to G_i(f) <= 1, phrased as the
saddle point of phi(f, x) = sum_i x(i) G_i(f): a Euclidean-regularized
variable player restricted to the slice {ambient equalities, c^T f = F*}
plays against an exponential-weights constraint player on the d-simplex.
Averaged play blended toward a strictly feasible anchor yields a point that
meets every constraint and concedes at most an epsilon fraction of F*.

Max flow on unit-capacity undirected graphs is the bundled instantiation:
signed edge flows, capacities as 2d one-sided linear constraints,
conservation as the ambient equalities, and a binary search over the flow
value standing in for the unknown F*.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._linalg import AffineSolver
from .mirror import AffineSubspace, MirrorMap, Simplex, SimplexPoint, prox_step

FEAS_TOL = 1e-9


def cp_step_sizes(B: float, d: float, H: float = 0.0) -> tuple[float, float]:
    """Step sizes (eta, eta') minimizing psi(eta) = B^2/eta + eta log d/(1 - eta H).

    H = 0 admits the closed form eta = B/sqrt(log d). For H > 0 the convex
    psi is minimized over (0, 1/H) by bisecting its derivative to relative
    tolerance 1e-10. eta' = 1/eta - H in both cases.
    """
    if d < 2:
        raise ValueError("need at least two constraints so that log d is positive")
    if B <= 0:
        raise ValueError("radius bound B must be positive")
    if H < 0:
        raise ValueError("smoothness H must be nonnegative")
    ln_d = math.log(d)
    if H == 0.0:
        eta = B / math.sqrt(ln_d)
        return eta, math.sqrt(ln_d) / B
    lo, hi = 0.0, 1.0 / H
    # derivative -B^2/eta^2 + log d/(1 - eta H)^2 runs from -inf to +inf
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if ln_d / (1.0 - mid * H) ** 2 < (B / mid) ** 2:
            lo = mid
        else:
            hi = mid
    eta = 0.5 * (lo + hi)
    return eta, 1.0 / eta - H


def psi_optimum(B: float, d: float, H: float) -> float:
    """Optimal regularized potential psi(eta) = B^2/eta + eta log d/(1 - eta H)."""
    eta, _ = cp_step_sizes(B, d, H)
    return B * B / eta + eta * math.log(d) / (1.0 - eta * H)


@dataclass
class SmoothCP:
    """Convex program data: maximize objective @ f s.t. G_i(f) <= 1 on the
    ambient affine set, with a known target value and an interior anchor.

    values(f) returns the vector (G_1(f), ..., G_d(f)); jacobian(x, f)
    returns sum_i x(i) grad G_i(f). The anchor must clear every constraint
    by the margin: G_i(anchor) <= 1 - margin, and objective @ anchor >= 0.
    """

    objective: np.ndarray
    target: float
    values: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d: int
    smoothness: float
    anchor: np.ndarray
    margin: float
    radius: float
    ambient: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.anchor = np.asarray(self.anchor, dtype=float)
        if self.objective.shape != self.anchor.shape or self.objective.ndim != 1:
            raise ValueError("objective and anchor must be vectors of equal length")
        if self.d < 2:
            raise ValueError("need at least two constraints")
        if self.smoothness < 0:
            raise ValueError("smoothness must be nonnegative")
        if not 0 < self.margin <= 1:
            raise ValueError("margin must lie in (0, 1]")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.ambient is not None:
            m, b = self.ambient
            m = np.atleast_2d(np.asarray(m, dtype=float))
            b = np.atleast_1d(np.asarray(b, dtype=float))
            if m.shape[0] == 0:
                self.ambient = None
            else:
                if m.shape != (b.size, self.dim):
                    raise ValueError("ambient equality shapes do not match")
                self.ambient = (m, b)
                if np.max(np.abs(m @ self.anchor - b)) > 1e-9:
                    raise ValueError("anchor violates the ambient equalities")
        vals = np.asarray(self.values(self.anchor), dtype=float)
        if vals.shape != (self.d,):
            raise ValueError("values(anchor) must return one number per constraint")
        if np.max(vals) > 1.0 - self.margin + 1e-12:
            raise ValueError("anchor must clear every constraint by the margin")
        if float(self.objective @ self.anchor) < -1e-12:
            raise ValueError("objective at the anchor must be nonnegative")
        # constraint gradients are assumed 1-Lipschitz scale: spot check norms
        for i in range(self.d):
            e = np.zeros(self.d)
            e[i] = 1.0
            if float(np.linalg.norm(self.jacobian(e, self.anchor))) > 1.0 + 1e-9:
                raise ValueError(f"constraint {i} has gradient norm above 1 at the anchor")

    @property
    def dim(self) -> int:
        return self.objective.size

    def slice_equalities(self, target: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Ambient equalities plus the value row objective @ f = target."""
        tgt = self.target if target is None else target
        if self.ambient is None:
            return self.objective[None, :], np.array([tgt])
        m, b = self.ambient
        return np.vstack([m, self.objective[None, :]]), np.append(b, tgt)


@dataclass
class CpReport:
    f_hat: np.ndarray
    f_bar: np.ndarray
    rounds: int
    eta: float
    eta_prime: float
    alpha: float
    max_constraint: float
    objective_value: float
    feasible: bool
    objective_ok: bool
    max_slice_residual: float
    target: float


def _blend(problem: SmoothCP, epsilon: float, f_bar: np.ndarray) -> tuple[float, np.ndarray]:
    """(alpha, f_hat): the averaged play moved toward the anchor by
    alpha = epsilon / (epsilon + margin), the step that turns a constraint
    excess of epsilon into none."""
    alpha = epsilon / (epsilon + problem.margin)
    return alpha, (1.0 - alpha) * f_bar + alpha * problem.anchor


def auto_rounds(problem: SmoothCP, epsilon: float) -> int:
    """Smallest horizon exceeding psi*/epsilon (the guarantee threshold)."""
    return int(math.floor(psi_optimum(problem.radius, problem.d, problem.smoothness) / epsilon)) + 1


def solve_cp(
    problem: SmoothCP,
    epsilon: float,
    rounds: int | None = None,
    solver: AffineSolver | None = None,
    target: float | None = None,
    stop_when: Callable[[int, np.ndarray], bool] | None = None,
) -> tuple[np.ndarray, CpReport]:
    """Run the coupled dynamics and blend the averaged play with the anchor.

    Both players predict each round from the previous secondary iterates:
    the variable player with the constraint-weighted gradient, the
    constraint player with the constraint values. With the auto horizon the
    blend satisfies max_i G_i(f_hat) <= 1 and
    objective @ f_hat >= (1 - epsilon/margin) * target.

    stop_when, the one per-round hook, is called after each round with
    (t, f_bar), the running average f_sum / t of the plays so far; a true
    result ends the run at round t, and that f_bar is the one blended into
    f_hat. The plays do not depend on the hook, so a run it never stops is
    the run without it, and report.rounds is the number of rounds actually
    run.
    """
    # written so that NaN fails the check too
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    tgt = problem.target if target is None else target
    T = auto_rounds(problem, epsilon) if rounds is None else rounds
    if T < 1:
        raise ValueError("rounds must be positive")
    eta, eta_prime = cp_step_sizes(problem.radius, problem.d, problem.smoothness)

    m_slice, b_slice = problem.slice_equalities(tgt)
    if solver is None:
        solver = AffineSolver(m_slice)
    var_map = MirrorMap.euclidean_affine(m_slice, b_slice, solver=solver)
    subspace = var_map.feasible
    con_map = MirrorMap.entropy_simplex(problem.d)

    g_f = var_map.divergence_minimizer()
    y = SimplexPoint.uniform(problem.d)
    vals_g = np.asarray(problem.values(g_f), dtype=float)
    f_sum = np.zeros(problem.dim)
    max_resid = solver.residual  # the start point's, checked by its projection
    for t in range(1, T + 1):
        pred_f = problem.jacobian(y.weights, g_f)
        f_t = subspace.project(g_f - eta * pred_f)
        max_resid = max(max_resid, solver.residual)
        x_t = prox_step(con_map, y, -vals_g, eta_prime)

        vals_f = np.asarray(problem.values(f_t), dtype=float)
        grad_f = problem.jacobian(x_t.weights, f_t)
        g_f = subspace.project(g_f - eta * grad_f)
        y = prox_step(con_map, y, -vals_f, eta_prime)
        vals_g = np.asarray(problem.values(g_f), dtype=float)

        f_sum += f_t
        if stop_when is not None:
            f_bar = f_sum / t
            if stop_when(t, f_bar):
                break
    else:
        f_bar = f_sum / T

    alpha, f_hat = _blend(problem, epsilon, f_bar)
    max_g = float(np.max(problem.values(f_hat)))
    obj = float(problem.objective @ f_hat)
    report = CpReport(
        f_hat=f_hat,
        f_bar=f_bar,
        rounds=t,
        eta=eta,
        eta_prime=eta_prime,
        alpha=alpha,
        max_constraint=max_g,
        objective_value=obj,
        feasible=max_g <= 1.0 + FEAS_TOL,
        objective_ok=obj >= (1.0 - epsilon / problem.margin) * tgt - FEAS_TOL,
        max_slice_residual=max_resid,
        target=tgt,
    )
    return f_hat, report


# ---------------------------------------------------------------- max flow


@dataclass(frozen=True)
class FlowNetwork:
    """Undirected unit-capacity graph with a fixed orientation per edge."""

    nodes: int
    edges: tuple[tuple[int, int], ...]
    source: int
    sink: int

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError("network needs at least two nodes")
        if not 0 <= self.source < self.nodes or not 0 <= self.sink < self.nodes:
            raise ValueError("source or sink out of range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        for u, v in edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (0 <= u < self.nodes and 0 <= v < self.nodes):
                raise ValueError("edge endpoint out of range")
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def incidence(self) -> np.ndarray:
        """nodes x edges signed incidence: +1 where the edge leaves the node."""
        m = np.zeros((self.nodes, self.edge_count))
        for e, (u, v) in enumerate(self.edges):
            m[u, e] = 1.0
            m[v, e] = -1.0
        return m

    def source_degree(self) -> int:
        return sum(1 for u, v in self.edges if self.source in (u, v))

    def connects(self) -> bool:
        adj: list[list[int]] = [[] for _ in range(self.nodes)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {self.source}
        queue = [self.source]
        while queue:
            w = queue.pop()
            for nxt in adj[w]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return self.sink in seen


@dataclass
class FlowSolution:
    flows: np.ndarray
    value: float
    max_violation: float
    conservation_residual: float
    stats: dict = field(default_factory=dict)


def _flow_problem(network: FlowNetwork, target: float) -> SmoothCP:
    d_edges = network.edge_count
    incidence = network.incidence()
    interior = [w for w in range(network.nodes) if w not in (network.source, network.sink)]
    ambient = (incidence[interior], np.zeros(len(interior))) if interior else None

    def values(f):
        return np.concatenate([f, -f])

    def jacobian(x, f):
        return x[:d_edges] - x[d_edges:]

    return SmoothCP(
        objective=incidence[network.source],
        target=target,
        values=values,
        jacobian=jacobian,
        d=2 * d_edges,
        smoothness=0.0,
        anchor=np.zeros(d_edges),
        margin=1.0,
        radius=2.0 * math.sqrt(d_edges),
        ambient=ambient,
    )


def check_flow(network: FlowNetwork, flows) -> dict:
    """Value, per-node conservation residual, and unit-capacity violation."""
    f = np.asarray(flows, dtype=float)
    if f.shape != (network.edge_count,):
        raise ValueError("flow vector length must match the edge count")
    incidence = network.incidence()
    net = incidence @ f
    interior = [w for w in range(network.nodes) if w not in (network.source, network.sink)]
    return {
        "value": float(net[network.source]),
        "conservation_residual": float(np.max(np.abs(net[interior]))) if interior else 0.0,
        "max_violation": max(0.0, float(np.max(np.abs(f))) - 1.0),
    }


def max_flow(network: FlowNetwork, epsilon: float) -> FlowSolution:
    """Binary search over the flow value, solving one program per candidate.

    The interval [0, deg(source)] is halved to width epsilon/2 with each
    candidate solved at accuracy epsilon/2; a candidate is accepted when the
    blended point meets every capacity constraint. The margin-1 anchor makes
    a truly feasible candidate always acceptable by its auto horizon: the
    blend turns a 1 + epsilon/2 constraint excess into exactly 1. The best
    flow is polished by one projection onto the conservation equalities.

    Each solve stops at the first round whose blended running average
    already meets every capacity (solve_cp's stop_when). That stop is
    certified, not estimated: the predicate is the acceptance test itself,
    on the same f_bar, alpha and blend that give f_hat, and every play lies
    on the value slice, so the accepted blend carries value (1 - alpha) *
    target whatever the round. A candidate that never passes runs the
    unchanged trajectory to its horizon and gets the verdict it would get
    without the predicate, so no rejection is premature. stats counts the
    early stops, and each candidate records its rounds and why it stopped
    ("accepted-early" or "horizon").
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    d_edges = network.edge_count
    best: np.ndarray | None = None
    best_target = 0.0
    candidates: list[dict] = []
    total_rounds = 0
    if d_edges > 0 and network.connects():
        problem = _flow_problem(network, 0.0)
        m_slice, _ = problem.slice_equalities(0.0)
        solver = AffineSolver(m_slice)  # one pseudo-inverse serves every candidate
        eps_c = epsilon / 2.0
        horizon = auto_rounds(problem, eps_c)

        def meets_capacities(t: int, f_bar: np.ndarray) -> bool:
            # solve_cp's own feasibility test on its own blend of this f_bar
            _, f_hat = _blend(problem, eps_c, f_bar)
            # max(values(f_hat)) = max(f_hat, -f_hat), without the concatenation
            return float(np.abs(f_hat).max()) <= 1.0 + FEAS_TOL

        lo, hi = 0.0, float(network.source_degree())
        while hi - lo > epsilon / 2.0:
            mid = 0.5 * (lo + hi)
            f_hat, report = solve_cp(
                problem, eps_c, solver=solver, target=mid, stop_when=meets_capacities
            )
            total_rounds += report.rounds
            candidates.append(
                {
                    "target": mid,
                    "rounds": report.rounds,
                    "max_constraint": report.max_constraint,
                    "objective": report.objective_value,
                    "accepted": report.feasible,
                    "stop": "accepted-early" if report.rounds < horizon else "horizon",
                }
            )
            if report.feasible:
                lo, best, best_target = mid, f_hat, mid
            else:
                hi = mid
    stats = {
        "solves": len(candidates),
        "total_rounds": total_rounds,
        "early_stops": sum(c["stop"] == "accepted-early" for c in candidates),
        "accepted_target": best_target,
        "candidates": candidates,
    }
    if best is None:
        return FlowSolution(
            flows=np.zeros(d_edges),
            value=0.0,
            max_violation=0.0,
            conservation_residual=0.0,
            stats=stats,
        )

    interior = [w for w in range(network.nodes) if w not in (network.source, network.sink)]
    if interior:
        incidence = network.incidence()
        conservation = AffineSolver(incidence[interior])
        best = conservation.project(best, np.zeros(len(interior)), tol=1e-7)
    checked = check_flow(network, best)
    return FlowSolution(
        flows=best,
        value=checked["value"],
        max_violation=checked["max_violation"],
        conservation_residual=checked["conservation_residual"],
        stats=stats,
    )


# ------------------------------------------------------- bundled instances


def _linear_cp(rows, c, target, anchor, margin, radius, ambient=None) -> SmoothCP:
    L = np.atleast_2d(np.asarray(rows, dtype=float))

    def values(f):
        return L @ f

    def jacobian(x, f):
        return L.T @ x

    return SmoothCP(
        objective=np.asarray(c, dtype=float),
        target=target,
        values=values,
        jacobian=jacobian,
        d=L.shape[0],
        smoothness=0.0,
        anchor=np.asarray(anchor, dtype=float),
        margin=margin,
        radius=radius,
        ambient=ambient,
    )


def builtin_cp_instances() -> dict[str, SmoothCP]:
    """Five linear programs with hand-checkable optima.

    Targets sit at or below the true optimum of each program, so the value
    guarantee is meaningful, and every anchor clears the constraints by the
    stated margin.
    """
    instances: dict[str, SmoothCP] = {}

    # scalar variable pinned to its target by the slice; optimum 1.0
    instances["interval"] = _linear_cp(
        rows=[[1.0], [-1.0]], c=[1.0], target=0.5, anchor=[0.0], margin=1.0, radius=2.0
    )

    # coordinate box in R^3, value slice sum f = 2.4, optimum 3.0
    eye3 = np.eye(3)
    instances["box"] = _linear_cp(
        rows=np.vstack([eye3, -eye3]),
        c=[1.0, 1.0, 1.0],
        target=2.4,
        anchor=np.zeros(3),
        margin=1.0,
        radius=2.0 * math.sqrt(3.0),
    )

    # probability-like ambient equality sum f = 1 with upper bounds only;
    # anchor is uniform so the margin is 2/3, optimum 2.0
    instances["simplex-capped"] = _linear_cp(
        rows=np.eye(4),
        c=[1.0, 0.5, 0.5, 0.0],
        target=1.5,
        anchor=np.full(4, 0.25),
        margin=2.0 / 3.0,
        radius=4.0,
        ambient=(np.ones((1, 4)), np.array([1.0])),
    )

    # constraints identically zero: the blend's objective is exactly
    # (1 - alpha) * target
    dim = 2

    def zero_values(f):
        return np.zeros(3)

    def zero_jacobian(x, f):
        return np.zeros(dim)

    instances["inactive"] = SmoothCP(
        objective=np.array([1.0, 1.0]),
        target=1.0,
        values=zero_values,
        jacobian=zero_jacobian,
        d=3,
        smoothness=0.0,
        anchor=np.zeros(2),
        margin=1.0,
        radius=3.0,
    )

    # mirrored pair plus averaged and scaled rows, one ambient tie
    # f1 = f2; optimum 1.5 at f = (1, 1, 1)
    instances["tied"] = _linear_cp(
        rows=[
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
            [0.5, 0.5, 0.0],
            [0.0, 0.0, 0.6],
        ],
        c=[0.5, 0.5, 0.5],
        target=1.2,
        anchor=np.zeros(3),
        margin=1.0,
        radius=4.0,
        ambient=(np.array([[1.0, -1.0, 0.0]]), np.zeros(1)),
    )
    return instances
