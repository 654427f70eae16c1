"""Approximate smooth convex programming via a constraint-vs-variable game.

maximize c^T f over an affine set subject to G_i(f) <= 1, phrased as the
saddle point of phi(f, x) = sum_i x(i) G_i(f): a Euclidean-regularized
variable player restricted to the slice {ambient equalities, c^T f = F*}
plays against an exponential-weights constraint player on the d-simplex.
Averaged play blended toward a strictly feasible anchor yields a point that
meets every constraint and concedes at most an epsilon fraction of F*. Each
run certifies itself round by round: its trace holds max_i G_i of the
running average next to the bound 1 + psi/t.

Max flow on unit-capacity undirected graphs is the bundled instantiation:
signed edge flows, capacities as 2d one-sided linear constraints,
conservation as the ambient equalities, and a binary search over the flow
value standing in for the unknown F*.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._linalg import AffineSolver
from ._rows import RowTable
from .mirror import MirrorMap, SimplexPoint, prox_step
from .saddle import coupled_rounds

FEAS_TOL = 1e-9
FLOW_TOL = 1e-7  # conservation polish and the final flow's checks


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
        for name in ("objective", "anchor", "target", "radius", "smoothness"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
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
class CpRound:
    """One round's certificate: max_constraint_avg = max_i G_i(f_bar_t) of the
    running average must stay at most bound = 1 + psi/t."""

    t: int
    max_constraint_avg: float
    bound: float


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
    trace: RowTable  # of CpRound, one per round run


def _alpha(problem: SmoothCP, epsilon: float) -> float:
    """The blend's step toward the anchor, epsilon / (epsilon + margin): the
    step that turns a constraint excess of epsilon into none."""
    return epsilon / (epsilon + problem.margin)


def _steps(problem: SmoothCP, epsilon: float) -> tuple[float, float, float, int]:
    """(eta, eta', psi, auto horizon) from one step-size computation: psi is
    B^2/eta + eta log d/(1 - eta H) at eta, the horizon the least T above psi/epsilon."""
    B, d, H = problem.radius, problem.d, problem.smoothness
    eta, eta_prime = cp_step_sizes(B, d, H)
    psi = B * B / eta + eta * math.log(d) / (1.0 - eta * H)
    return eta, eta_prime, psi, int(math.floor(psi / epsilon)) + 1


def auto_rounds(problem: SmoothCP, epsilon: float) -> int:
    """Smallest horizon exceeding psi*/epsilon (the guarantee threshold)."""
    return _steps(problem, epsilon)[3]


def solve_cp(
    problem: SmoothCP,
    epsilon: float,
    rounds: int | None = None,
    solver: AffineSolver | None = None,
    target: float | None = None,
    stop_when: Callable[[int, float], bool] | None = None,
) -> tuple[np.ndarray, CpReport]:
    """Run the coupled dynamics and blend the averaged play with the anchor.

    The rounds are saddle.coupled_rounds. Both players predict each round
    from the previous secondary iterates: the variable player with the
    constraint-weighted gradient, stepping by one projection onto the value
    slice, the constraint player with the constraint values. With the auto
    horizon the blend satisfies max_i G_i(f_hat) <= 1 and
    objective @ f_hat >= (1 - epsilon/margin) * target.

    The run folds its own certificate: report.trace holds one row a round
    run, CpRound(t, max G(f_bar_t), 1 + psi/t), where f_bar_t is the running
    average f_sum / t of the plays and psi the potential of the step sizes.
    stop_when, the one per-round hook, is called after round t with
    (t, max_constraint_avg); a true result ends the run at round t, and that
    f_bar_t is the one blended into f_hat. The plays do not depend on the
    hook, so a run it never stops is the run without it, and report.rounds
    is the number of rounds actually run; a stopped round's correction is
    never computed.
    """
    # written so that NaN fails the check too
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    # the override skips SmoothCP's own check, so it gets the same one here
    if target is not None and not math.isfinite(target):
        raise ValueError("target must be finite")
    tgt = problem.target if target is None else target
    eta, eta_prime, psi, horizon = _steps(problem, epsilon)
    T = horizon if rounds is None else rounds
    if T < 1:
        raise ValueError("rounds must be positive")

    m_slice, b_slice = problem.slice_equalities(tgt)
    if solver is None:
        solver = AffineSolver(m_slice)
    con_map = MirrorMap.entropy_simplex(problem.d)
    rounds = coupled_rounds(
        lambda f, y: (problem.jacobian(y, f), -np.asarray(problem.values(f), dtype=float)),
        lambda base, loss: solver.project(base - eta * loss, b_slice),
        lambda base, loss: prox_step(con_map, base, loss, eta_prime),
        solver.project(np.zeros(problem.dim), b_slice),
        SimplexPoint.uniform(problem.d),
        T,
    )
    f_sum = np.zeros(problem.dim)
    max_avgs, bounds = array("d"), array("d")
    max_resid = solver.residual  # the start point's, checked by its projection
    for t, (f_t, *_) in enumerate(rounds, 1):
        # no projection since the play's, so this is the play's residual
        max_resid = max(max_resid, solver.residual)
        f_sum += f_t
        f_bar = f_sum / t
        max_avg = float(np.maximum.reduce(np.asarray(problem.values(f_bar), dtype=float)))
        max_avgs.append(max_avg)
        bounds.append(1.0 + psi / t)
        if stop_when is not None and stop_when(t, max_avg):
            break
    trace = RowTable(CpRound)
    trace.extend(range(1, t + 1), max_avgs, bounds)

    alpha = _alpha(problem, epsilon)
    f_hat = (1.0 - alpha) * f_bar + alpha * problem.anchor
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
        trace=trace,
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


@dataclass(frozen=True)
class FlowCandidate:
    """One binary-search candidate: its solve_cp verdicts and why it stopped.

    accepted is solve_cp's `feasible`, objective_ok its claim that the blend
    carries at least (1 - epsilon/2) * target. An accepted candidate raises
    the search's lower end, so its row `holds` only if both are true. stop is
    "accepted-early" (before the auto horizon) or "horizon".
    """

    target: float
    rounds: int
    max_constraint: float
    objective: float
    accepted: bool
    objective_ok: bool
    stop: str

    @property
    def holds(self) -> bool:
        return self.objective_ok or not self.accepted


@dataclass
class FlowSolution:
    """The polished best flow, its checks, and one row per search candidate."""

    flows: np.ndarray
    value: float
    max_violation: float
    conservation_residual: float
    candidates: list[FlowCandidate] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Every capacity and conservation holds to FLOW_TOL."""
        return self.max_violation <= FLOW_TOL and self.conservation_residual <= FLOW_TOL

    @property
    def solves(self) -> int:
        return len(self.candidates)

    @property
    def total_rounds(self) -> int:
        return sum(c.rounds for c in self.candidates)

    @property
    def early_stops(self) -> int:
        return sum(c.stop == "accepted-early" for c in self.candidates)

    @property
    def accepted_target(self) -> float:
        """The largest accepted target (the search's final lower end), or 0."""
        return max((c.target for c in self.candidates if c.accepted), default=0.0)


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

    Each solve stops at the first round whose certificate row already shows
    an acceptable blend: (1 - alpha) * max_constraint_avg <= 1 + FEAS_TOL.
    That stop is certified, not estimated. The anchor is 0 and G(f) is
    (f, -f), so max G of the blend (1 - alpha) * f_bar is (1 - alpha) times
    max G(f_bar), bit for bit, since rounding a product by a positive factor
    is monotone: the stop test is the acceptance test on that f_bar. Every
    play lies on the value slice, so the accepted blend carries value
    (1 - alpha) * target whatever the round. A candidate that never passes
    runs the unchanged trajectory to its horizon and gets the verdict it
    would get without the predicate, so no rejection is premature.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    d_edges = network.edge_count
    best: np.ndarray | None = None
    candidates: list[FlowCandidate] = []
    if d_edges > 0 and network.connects():
        problem = _flow_problem(network, 0.0)
        solver = AffineSolver(problem.slice_equalities()[0])  # one pseudo-inverse serves every candidate
        eps_c = epsilon / 2.0
        horizon = auto_rounds(problem, eps_c)
        weight = 1.0 - _alpha(problem, eps_c)  # the blend's weight on f_bar

        def acceptable(t: int, max_constraint_avg: float) -> bool:
            return weight * max_constraint_avg <= 1.0 + FEAS_TOL

        lo, hi = 0.0, float(network.source_degree())
        while hi - lo > epsilon / 2.0:
            mid = 0.5 * (lo + hi)
            f_hat, report = solve_cp(problem, eps_c, solver=solver, target=mid, stop_when=acceptable)
            stop = "accepted-early" if report.rounds < horizon else "horizon"
            candidates.append(FlowCandidate(
                mid, report.rounds, report.max_constraint, report.objective_value,
                report.feasible, report.objective_ok, stop,
            ))
            if report.feasible:
                lo, best = mid, f_hat
            else:
                hi = mid
    if best is None:
        return FlowSolution(np.zeros(d_edges), 0.0, 0.0, 0.0, candidates)

    if problem.ambient is not None:  # the conservation equalities
        conservation, zeros = problem.ambient
        best = AffineSolver(conservation).project(best, zeros, tol=FLOW_TOL)
    return FlowSolution(flows=best, candidates=candidates, **check_flow(network, best))


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
