"""Shared test fixtures: closed-form problems and independent oracles."""
import contextlib
import itertools
import math

import numpy as np
import pytest

from omdkit import games

from omdkit._linalg import AffineSolver, project_simplex
from omdkit.harness import _write_fresh
from omdkit._rows import RowTable
from omdkit.convexprog import FEAS_TOL, CpReport, CpRound, _alpha, _steps
from omdkit.games import MatchResult, TraceRow, _Learner, full_info_eta
from omdkit.mirror import (
    ENTROPY,
    Ball,
    MirrorMap,
    OmdState,
    RoundLog,
    SimplexPoint,
    _as_vector,
    bregman,
    point_weights,
)
from omdkit.offline import OfflineResult, OfflineRound, SmoothProblem
from omdkit.saddle import SaddleResult, SaddleRound, bilinear_gap, saddle_eta


# ---------------------------------------------------------------- offline problems

def quad_ball_problem(weights=(1.0, 0.2, 0.5), target=(0.4, -0.3, 0.2)):
    """Anisotropic quadratic over the unit ball; optimum at `target`, value 0.

    G(f) = 1/2 (f-p)^T diag(w) (f-p), smoothness constant max(w), alpha = 1.
    """
    w = np.asarray(weights, dtype=float)
    p = np.asarray(target, dtype=float)
    assert np.linalg.norm(p) < 1.0
    m = MirrorMap.euclidean_ball(len(p), radius=1.0)
    r_sq = 0.5 * float(p @ p)  # divergence from optimum to g0 = 0
    return SmoothProblem(
        gradient=lambda f: w * (f - p),
        holder_const=float(w.max()),
        alpha=1.0,
        mirror_map=m,
        divergence_radius=math.sqrt(r_sq),
        value=lambda f: float(0.5 * (f - p) @ (w * (f - p))),
    ), 0.0


def holder_half_problem(target=(0.3, -0.2, 0.1, 0.0)):
    """G(f) = sum (2/3)|f_i - c_i|^{3/2} over the unit ball; optimum c, value 0.

    Gradient is sign(f-c) sqrt(|f-c|), Holder-1/2 with constant sqrt(2 sqrt(n))
    in the euclidean norm pair.
    """
    c = np.asarray(target, dtype=float)
    n = len(c)
    m = MirrorMap.euclidean_ball(n, radius=1.0)
    H = math.sqrt(2.0 * math.sqrt(n))
    r_sq = 0.5 * float(c @ c)
    return SmoothProblem(
        gradient=lambda f: np.sign(f - c) * np.sqrt(np.abs(f - c)),
        holder_const=H,
        alpha=0.5,
        mirror_map=m,
        divergence_radius=math.sqrt(r_sq),
        value=lambda f: float((2.0 / 3.0) * np.sum(np.abs(f - c) ** 1.5)),
    ), 0.0


def huber_vertex_problem(n=5, knee=0.05, radius=None):
    """Sum of Huber penalties pulling to the first simplex vertex; optimum e_1, value 0.

    Gradients are coordinatewise in [-1, 1], so the Holder-0 constant is 2 in
    the ell_inf dual norm. Entropy map over the simplex. `radius` defaults to
    log n (the divergence bound reading of the step-size scale).
    """
    target = np.zeros(n)
    target[0] = 1.0
    m = MirrorMap.entropy_simplex(n)

    def value(f):
        d = np.abs(f - target)
        small = d <= knee
        return float(np.sum(np.where(small, d**2 / (2 * knee), d - knee / 2)))

    return SmoothProblem(
        gradient=lambda f: np.clip((f - target) / knee, -1.0, 1.0),
        holder_const=2.0,
        alpha=0.0,
        mirror_map=m,
        divergence_radius=radius if radius is not None else math.log(n),
        value=value,
    ), 0.0


# ---------------------------------------------------------------- oracles

def lp_game_value(A):
    """Exact minimax value of the zero-sum matrix game min_f max_x f^T A x."""
    from scipy.optimize import linprog

    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    # variables: (f_1..f_n, v); minimize v subject to A^T f <= v, sum f = 1
    c = np.zeros(n + 1)
    c[-1] = 1.0
    A_ub = np.hstack([A.T, -np.ones((A.shape[1], 1))])
    b_ub = np.zeros(A.shape[1])
    A_eq = np.zeros((1, n + 1))
    A_eq[0, :n] = 1.0
    bounds = [(0, None)] * n + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0], bounds=bounds, method="highs")
    assert res.success
    return float(res.fun)


def augmenting_path_max_flow(nodes, edges, source, sink):
    """Exact max flow for unit-capacity undirected edges (BFS augmenting paths)."""
    from collections import deque

    cap = {}
    adj = [[] for _ in range(nodes)]
    for u, v in edges:
        if v not in adj[u]:
            adj[u].append(v)
        if u not in adj[v]:
            adj[v].append(u)
        cap[(u, v)] = cap.get((u, v), 0) + 1
        cap[(v, u)] = cap.get((v, u), 0) + 1
    flow = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent and cap.get((u, v), 0) > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        v = sink
        while parent[v] is not None:
            u = parent[v]
            cap[(u, v)] -= 1
            cap[(v, u)] = cap.get((v, u), 0) + 1
            v = u
        flow += 1


def random_connected_graph(rng, max_edges=50):
    """Random connected multigraph-free graph with distinct source/sink."""
    nodes = int(rng.integers(4, 15))
    edges = set()
    order = rng.permutation(nodes)
    for i in range(1, nodes):
        u = int(order[i])
        v = int(order[int(rng.integers(0, i))])
        edges.add((min(u, v), max(u, v)))
    target = int(rng.integers(nodes - 1, min(max_edges, nodes * (nodes - 1) // 2) + 1))
    attempts = 0
    while len(edges) < target and attempts < 200:
        u, v = rng.integers(0, nodes, size=2)
        u, v = int(u), int(v)
        attempts += 1
        if u != v:
            edges.add((min(u, v), max(u, v)))
    source, sink = 0, nodes - 1
    return nodes, sorted(edges), source, sink


def golden_section_min(fn, lo, hi, tol=1e-12):
    """Golden-section minimizer for a strictly unimodal function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol * max(1.0, abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


# ---------------------------------------------------------------- bandit guard
#
# The estimator guard as games._BanditSide.step ran it inside every round,
# before the guard checked buffered rounds in blocks: the dense enumeration
# over every basis index for one payoff vector w at base payoff f @ w.
# Returns that round's enumeration error.

def reference_bandit_guard(basis, delta, w, base):
    n = basis.shape[1]
    diffs = delta * (basis @ w)
    ests = (n / (2.0 * delta)) * (((base + diffs) - (base - diffs))[:, None] * basis)
    target = (n / (n - 1.0)) * (w - np.add.reduce(w) / n)
    return float(np.maximum.reduce(np.abs(np.add.reduce(ests) / (n - 1.0) - target)))


# ---------------------------------------------------------------- bandit step
#
# games._BanditSide as it stepped before its perturbed-play minimum joined
# the guard's blocks and its increment came from two scalars: the increment
# from the whole estimate vector and the last one, the minimum f - delta |u|
# taken every round, every estimate through bandit_estimate (once the
# library's; the side inlines it now) and every step size through the
# public bandit_eta. Its guard is the blocked one. Its step also adds the
# play to `play_sum`, as the match loop once did.

def bandit_estimate(r_plus: float, r_minus: float, delta: float, direction, n: int) -> np.ndarray:
    """Finite-difference gradient estimate (n / 2 delta)(r+ - r-) * direction."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    return (n / (2.0 * delta)) * (r_plus - r_minus) * np.asarray(direction, dtype=float)


class ReferenceBanditSide(_Learner):
    def __init__(self, own_dim: int, opp_dim: int, T: int, delta: float, rng):
        self.opp = opp_dim
        super().__init__(own_dim, T, 1.0 / (T * T))
        self.delta = delta
        self.basis = games.tangent_basis(own_dim)
        self.rng = rng
        self.prev_index = int(rng.integers(own_dim - 1))
        self.last_bar = np.zeros(own_dim)
        self.loss_sum = np.zeros(own_dim)
        self.play_sum = np.zeros(own_dim)
        self.cap = games.bandit_cap(own_dim, opp_dim, T)
        self.min_perturbed = math.inf
        self._pending_w = np.empty((games._GUARD_BLOCK, own_dim))
        self._pending_base = np.empty((games._GUARD_BLOCK, 1))
        self._pending = 0
        self._max_error = 0.0

    def _eta(self) -> float:
        return games.bandit_eta(self.sums, self.h_last, self.n, self.opp, self.T)

    def step(self, payoff_vector):
        f = self.play.weights
        base = float(f @ payoff_vector)
        new_index = int(self.rng.integers(self.n - 1))
        u_prev = self.basis[self.prev_index]
        u_new = self.basis[new_index]
        d_prev = self.delta * float(u_prev @ payoff_vector)
        d_new = self.delta * float(u_new @ payoff_vector)
        self.min_perturbed = min(
            self.min_perturbed,
            float(np.minimum.reduce(f - self.delta * np.abs(u_prev))),
            float(np.minimum.reduce(f - self.delta * np.abs(u_new))),
        )
        est_hat = bandit_estimate(base + d_prev, base - d_prev, self.delta, u_prev, self.n)
        est_bar = bandit_estimate(base + d_new, base - d_new, self.delta, u_new, self.n)
        increment = float(np.maximum.reduce(np.abs(est_hat - self.last_bar))) ** 2
        self._advance(increment, est_hat, est_bar)
        self.prev_index = new_index
        self.last_bar = est_bar
        loss_sum = self.loss_sum
        loss_sum += payoff_vector
        self.play_sum += f
        i = self._pending
        self._pending_w[i] = payoff_vector
        self._pending_base[i, 0] = base
        self._pending = i + 1
        if i + 1 == games._GUARD_BLOCK:
            self._check_pending()
        return self.eta, self.eta, self.cap, float(np.minimum.reduce(loss_sum))

    @property
    def max_error(self) -> float:
        self._check_pending()
        return self._max_error

    def _check_pending(self) -> None:
        k = self._pending
        if k == 0:
            return
        self._pending = 0
        w = self._pending_w[:k]
        b = self._pending_base[:k]
        n = self.n
        diffs = self.delta * (w @ self.basis.T)
        ests = (n / (2.0 * self.delta)) * (((b + diffs) - (b - diffs)) @ self.basis)
        target = (n / (n - 1.0)) * (w - np.add.reduce(w, axis=1, keepdims=True) / n)
        err = float(np.maximum.reduce(np.abs(ests / (n - 1.0) - target), axis=None))
        self._max_error = float(np.maximum(self._max_error, err))


# ---------------------------------------------------------------- reference kernels
#
# The prox step, the multiplicative update, the certificate's update, the
# ball projection and the trace writer as they were written before each
# round's arithmetic ran in place on its own temporaries, the certificate
# took its distances from one buffer and the writer formatted by column.
# The reference loops below run on these copies, so a changed kernel in
# the library shows as a changed bit. Code changes from the originals:
# SimplexPoint's methods are functions of the point; the certificate's
# update calls reference_norm/reference_dual_norm (the old MirrorMap
# methods), and the prox step reference_project (the old MirrorMap.project).

def reference_normalize(point, z):
    z = z - np.maximum.reduce(z)
    w = np.exp(z)
    # a Python float divides faster than a numpy scalar, to the same bits
    total = float(np.add.reduce(w))
    point.weights = w / total
    point._log_weights = None
    point._z = z
    point._total = total


def reference_exp_step(point, scaled_loss):
    lw = point.log_weights
    z = lw - scaled_loss
    if z.shape != lw.shape:
        raise ValueError(f"expected a loss of shape {lw.shape}, got {z.shape}")
    out = SimplexPoint.__new__(SimplexPoint)
    reference_normalize(out, z)
    return out


def reference_norm(m, v):
    v = np.asarray(v, dtype=float)
    if m.kind == ENTROPY:
        return float(np.add.reduce(np.abs(v)))
    return math.sqrt(float(v.dot(v)))


def reference_dual_norm(m, v):
    v = np.asarray(v, dtype=float)
    if m.kind == ENTROPY:
        return float(np.maximum.reduce(np.abs(v))) if v.size else 0.0
    return math.sqrt(float(v.dot(v)))


def reference_project_ball(v, radius):
    v = np.asarray(v, dtype=float)
    # np.linalg.norm's own formula for 1-d v; vdot is the same BLAS dot as
    # v.dot, but an overflow gives inf without a RuntimeWarning
    sq = float(np.vdot(v, v))
    if not sq < math.inf:  # the square overflowed, or v is not finite
        scale = float(np.maximum.reduce(np.abs(v)))  # NaN if v holds one
        if not scale < math.inf:
            raise ValueError("cannot project onto the ball: the point is not finite")
        unit = v / scale
        norm = math.sqrt(float(unit.dot(unit)))
        if scale * norm <= radius:
            return v.copy()
        return unit * radius / norm
    norm = math.sqrt(sq)
    if norm <= radius:
        return v.copy()
    return v * (radius / norm)


def reference_project(m, point):
    if isinstance(m.feasible, Ball):
        return reference_project_ball(point, m.feasible.radius)
    return project_simplex(point)


def reference_prox_step(mirror_map, base, loss, eta):
    if eta <= 0 or not math.isfinite(eta):
        raise ValueError(f"step size must be positive and finite, got {eta}")
    loss = _as_vector(loss, mirror_map.dim)
    if not np.logical_and.reduce(np.isfinite(loss)):
        raise ValueError("loss vector has non-finite entries")
    if mirror_map.kind == ENTROPY:
        pt = base if isinstance(base, SimplexPoint) else SimplexPoint.from_weights(base)
        # subtracting the max makes shifted losses produce identical updates
        out = reference_exp_step(pt, eta * (loss - np.maximum.reduce(loss)))
        return out if isinstance(base, SimplexPoint) else out.weights
    basew = point_weights(base)
    if basew.size != mirror_map.dim:
        raise ValueError(f"base has dimension {basew.size}, map expects {mirror_map.dim}")
    return reference_project(mirror_map, basew - eta * loss)


class ReferenceRegretCertificate:
    # RegretCertificate as it was before it folded its rounds a block at a
    # time: every update adds its round into the sums at once
    def __init__(self, mirror_map, eta, comparator):
        self.mirror_map = mirror_map
        self.eta = eta
        self.comparator = point_weights(comparator)
        g0 = mirror_map.divergence_minimizer()
        self._g_prev = point_weights(g0)
        self.lhs = 0.0
        self.divergence_term = bregman(mirror_map, self.comparator, g0) / eta
        self.variance_term = 0.0
        self.negative_term = 0.0

    @property
    def rhs(self):
        return self.divergence_term + self.variance_term - self.negative_term

    def holds(self, tol=1e-9):
        return self.lhs <= self.rhs + tol

    def update(self, log):
        m = self.mirror_map
        f, g = log.played, log.secondary
        self.lhs += float((f - self.comparator) @ log.gradient)
        g_dist = reference_norm(m, g - f)
        self.variance_term += reference_dual_norm(m, np.subtract(log.gradient, log.prediction)) * g_dist
        self.negative_term += (g_dist**2 + reference_norm(m, self._g_prev - f) ** 2) / (2.0 * self.eta)
        self._g_prev = g


def reference_format_cell(value):
    if type(value) is float:  # most cells; repr is the round-trip form
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def reference_write_csv(path, header, rows):
    lines = (",".join(map(reference_format_cell, row)) for row in rows)
    _write_fresh(path, itertools.chain([",".join(header)], lines))


# ---------------------------------------------------------------- reference loops
#
# saddle_solve and solve_cp as they were written before both ran the one
# coupled round, saddle.coupled_rounds: each loop is its own copy of that
# round. Tests require the library to match them bit for bit. The only code
# change is in reference_solve_cp, which calls AffineSolver.project where
# the old loop went through a one-line affine-subspace wrapper around it.

def reference_saddle_solve(problem, T, eta=None):
    if T < 1:
        raise ValueError("T must be at least 1")
    if eta is None:
        eta = saddle_eta(
            problem.radius_f, problem.radius_x, problem.holder_const, problem.gamma, T
        )
    mf, mx = problem.map_f, problem.map_x
    sec_f = mf.divergence_minimizer()
    sec_x = mx.divergence_minimizer()
    f_total = np.zeros(mf.dim)
    x_total = np.zeros(mx.dim)
    trace = RowTable(SaddleRound)
    var_f = var_x = neg_cross = 0.0
    g_prev_f = point_weights(sec_f)
    g_prev_x = point_weights(sec_x)
    for t in range(1, T + 1):
        pred_f = np.asarray(problem.grad_f(g_prev_f, g_prev_x), dtype=float)
        pred_x = -np.asarray(problem.grad_x(g_prev_f, g_prev_x), dtype=float)
        f_t = point_weights(reference_prox_step(mf, sec_f, pred_f, eta))
        x_t = point_weights(reference_prox_step(mx, sec_x, pred_x, eta))
        grad_f_t = np.asarray(problem.grad_f(f_t, x_t), dtype=float)
        grad_x_t = -np.asarray(problem.grad_x(f_t, x_t), dtype=float)
        sec_f = reference_prox_step(mf, sec_f, grad_f_t, eta)
        sec_x = reference_prox_step(mx, sec_x, grad_x_t, eta)
        var_f += eta / 2.0 * reference_dual_norm(mf, grad_f_t - pred_f) ** 2
        var_x += eta / 2.0 * reference_dual_norm(mx, grad_x_t - pred_x) ** 2
        neg_cross += reference_norm(mf, g_prev_f - f_t) ** 2 + reference_norm(mx, g_prev_x - x_t) ** 2
        f_total += f_t
        x_total += x_t
        value = problem.value(f_t, x_t) if problem.value is not None else math.nan
        running = (
            problem.radius_f**2 / eta
            + problem.radius_x**2 / eta
            + var_f
            + var_x
            - neg_cross / (2.0 * eta)
        ) / t
        if problem.gap_oracle is not None:
            gap = float(problem.gap_oracle(f_total / t, x_total / t))
        else:
            gap = running
        trace.extend([t], [value], [eta], [gap], [running])
        g_prev_f = point_weights(sec_f)
        g_prev_x = point_weights(sec_x)
    return SaddleResult(
        f_average=f_total / T,
        x_average=x_total / T,
        gap=gap,
        certificate_bound=running,
        eta=eta,
        trace=trace,
    )


class ReferenceSaddleBound:
    # the running bound of reference_saddle_solve, one round at a time, with
    # its play sums; `numerator` is the bound before its division by t
    def __init__(self, problem, eta):
        self.problem, self.eta = problem, eta
        self.var_f = self.var_x = self.neg_cross = 0.0
        self.f_total = np.zeros(problem.map_f.dim)
        self.x_total = np.zeros(problem.map_x.dim)

    def update(self, f_t, x_t, pred_f, pred_x, grad_f_t, grad_x_t, prev_f, prev_x):
        mf, mx, eta = self.problem.map_f, self.problem.map_x, self.eta
        self.var_f += eta / 2.0 * reference_dual_norm(mf, grad_f_t - pred_f) ** 2
        self.var_x += eta / 2.0 * reference_dual_norm(mx, grad_x_t - pred_x) ** 2
        self.neg_cross += reference_norm(mf, prev_f - f_t) ** 2 + reference_norm(mx, prev_x - x_t) ** 2
        self.f_total += f_t
        self.x_total += x_t

    @property
    def numerator(self):
        p, eta = self.problem, self.eta
        return p.radius_f**2 / eta + p.radius_x**2 / eta + self.var_f + self.var_x - self.neg_cross / (2.0 * eta)


def reference_solve_cp(problem, epsilon, rounds=None, solver=None, target=None, stop_when=None):
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
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

    g_f = solver.project(np.zeros(problem.dim), b_slice)
    y = SimplexPoint.uniform(problem.d)
    vals_g = np.asarray(problem.values(g_f), dtype=float)
    f_sum = np.zeros(problem.dim)
    trace = RowTable(CpRound)
    max_resid = solver.residual
    for t in range(1, T + 1):
        pred_f = problem.jacobian(y.weights, g_f)
        f_t = solver.project(g_f - eta * pred_f, b_slice)
        max_resid = max(max_resid, solver.residual)
        x_t = reference_prox_step(con_map, y, -vals_g, eta_prime)

        vals_f = np.asarray(problem.values(f_t), dtype=float)
        grad_f = problem.jacobian(x_t.weights, f_t)
        g_f = solver.project(g_f - eta * grad_f, b_slice)
        y = reference_prox_step(con_map, y, -vals_f, eta_prime)
        vals_g = np.asarray(problem.values(g_f), dtype=float)

        f_sum += f_t
        f_bar = f_sum / t
        max_avg = float(np.maximum.reduce(np.asarray(problem.values(f_bar), dtype=float)))
        trace.extend([t], [max_avg], [1.0 + psi / t])
        if stop_when is not None and stop_when(t, max_avg):
            break

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


# mirror_prox/holder_optimize's loop as it was written before
# offline.trajectory played its own two prox steps: the round goes through
# omd_round (which also keeps the squared-gap history nobody reads) with a
# closure that catches the gradient, and the rows fold the certificate,
# ReferenceRegretCertificate, over those logs one round at a time. Tests
# require the library to match it bit for bit.
# reference_omd_round is mirror.omd_round run on the reference kernels.

def reference_omd_round(state, mirror_map, prediction, gradient_oracle, eta):
    f_t = reference_prox_step(mirror_map, state.secondary, prediction, eta)
    grad = gradient_oracle(point_weights(f_t))
    g_t = reference_prox_step(mirror_map, state.secondary, grad, eta)
    gap = reference_dual_norm(mirror_map, np.subtract(grad, prediction))
    state.sq_diff_history.append(gap * gap)
    state.secondary = g_t
    return f_t, state


def reference_trajectory(problem, T, eta):
    m = problem.mirror_map
    state = OmdState.initial(m)
    grad = None  # the gradient the oracle returned this round

    def oracle(f):
        nonlocal grad
        grad = np.asarray(problem.gradient(f), dtype=float)
        return grad

    for _ in range(T):
        g_prev = point_weights(state.secondary)
        prediction = np.asarray(problem.gradient(g_prev), dtype=float)
        f_t, state = reference_omd_round(state, m, prediction, oracle, eta)
        yield RoundLog(
            played=point_weights(f_t),
            secondary=point_weights(state.secondary),
            gradient=grad,
            prediction=prediction,
        )


def reference_prox_loop(problem, T, eta):
    m = problem.mirror_map
    comparator = m.divergence_minimizer() if problem.minimizer is None else problem.minimizer
    cert = ReferenceRegretCertificate(m, eta, comparator)
    total = np.zeros(m.dim)
    rows = RowTable(OfflineRound)
    for t, log in enumerate(reference_trajectory(problem, T, eta), start=1):
        total += log.played
        cert.update(log)
        value = math.nan if problem.value is None else problem.value(total / t)
        rows.extend([t], [value], [cert.lhs], [cert.rhs])
    return OfflineResult(average=total / T, rounds=rows, eta=eta)


def reference_builtin_oracles():
    """name -> (gradient, value) of each built-in offline instance, in the
    expressions the library used before it computed each difference once
    and called the ufuncs directly (np.clip, np.sum, repeated f - c)."""
    w = np.array([1.0, 0.4, 0.1, 0.7])
    p = np.array([0.3, -0.4, 0.1, 0.2])
    c = np.array([0.25, -0.35, 0.15])
    knee = 0.04
    vertex = np.zeros(6)
    vertex[0] = 1.0

    def huber_value(f):
        d = np.abs(f - vertex)
        small = d <= knee
        return float(np.sum(np.where(small, d**2 / (2 * knee), d - knee / 2)))

    return {
        "quad-ball": (
            lambda f: w * (f - p),
            lambda f: float(0.5 * (f - p) @ (w * (f - p))),
        ),
        "half-ball": (
            lambda f: np.sign(f - c) * np.sqrt(np.abs(f - c)),
            lambda f: float((2.0 / 3.0) * np.sum(np.abs(f - c) ** 1.5)),
        ),
        "vertex-pull": (
            lambda f: np.clip((f - vertex) / knee, -1.0, 1.0),
            huber_value,
        ),
    }


# ---------------------------------------------------------------- self-play
#
# The full-information round as games.py wrote it before each side's running
# loss sum also served the match's gap: _self_play keeps its own payoff sums
# fA_sum and Ax_sum, full_info_step scans every observation for non-finite
# entries, and SideCertificate takes min(cum_obs) on each lhs read and each
# ell_1 distance in its own reduction. Tests require the library to match it
# bit for bit. The only code changes are in reference_self_play, which drops
# the fourth value a side's step now returns (the smallest entry of the
# side's running loss sum), and in reference_full_info_step, which adds the
# play to the player's `play_sum` as the match loops once did.
# `reference_games()` puts these in the games module's place, so the
# library's match functions run the old round.

class ReferenceSideCertificate:
    def __init__(self, n: int, T: int):
        self.r_sq = math.log(n * T * T)
        self.cum_obs = np.zeros(n)
        self.cum_play_loss = 0.0
        self.variance = 0.0
        self.negative = 0.0
        self.eta_first = None
        self.eta_last = None

    def update(self, play, observation, eta, increment, secondary, mixed_prev, mixed) -> None:
        self.cum_obs += observation
        self.cum_play_loss += float(play @ observation)
        self.variance += math.sqrt(increment) * float(np.add.reduce(np.abs(secondary - play)))
        self.negative += (1.0 / eta) * (
            float(np.add.reduce(np.abs(mixed - play))) ** 2
            + float(np.add.reduce(np.abs(mixed_prev - play))) ** 2
        )
        if self.eta_first is None:
            self.eta_first = eta
        self.eta_last = eta

    @property
    def lhs_per_vertex(self) -> np.ndarray:
        return self.cum_play_loss - self.cum_obs

    @property
    def lhs(self) -> float:
        return float(self.cum_play_loss - np.minimum.reduce(self.cum_obs))

    @property
    def rhs(self) -> float:
        return (
            (1.0 / self.eta_first + 1.0 / self.eta_last) * self.r_sq
            + self.variance
            - 0.5 * self.negative
            + 1.0
        )

    def holds(self, tol: float = 1e-9) -> bool:
        return self.lhs <= self.rhs + tol


class ReferenceFullInfoPlayer(_Learner):
    def __init__(self, n: int, T: int, initial_observation, mixing: bool = True):
        if n < 1:
            raise ValueError("n must be at least 1")
        if T < 2:
            raise ValueError("T must be at least 2")
        super().__init__(n, T, 1.0 / (T * T) if mixing else 0.0)
        self.last_observation = np.asarray(initial_observation, dtype=float)
        if self.last_observation.shape != (n,):
            raise ValueError("initial observation has the wrong dimension")
        self.certificate = ReferenceSideCertificate(n, T)
        self.play_sum = np.zeros(n)

    def _eta(self) -> float:
        return full_info_eta(self.sums, self.n, self.T)

    def step(self, w: np.ndarray) -> tuple[float, float, float]:
        reference_full_info_step(self, w)
        return self.eta, self.certificate.lhs, self.certificate.rhs


def reference_full_info_step(player, observation):
    obs = np.asarray(observation, dtype=float)
    if obs.shape != (player.n,):
        raise ValueError("observation has the wrong dimension")
    if not np.isfinite(obs).all():
        raise ValueError("observation has non-finite entries")
    played = player.play.weights
    mixed_prev = player.g_prime.weights
    increment = float(np.maximum.reduce(np.abs(obs - player.last_observation))) ** 2
    # constant shifts cancel in the normalization
    shifted = obs - np.maximum.reduce(obs)
    g_t = player._advance(increment, shifted, shifted)
    player.certificate.update(
        played, obs, player.eta, increment, g_t.weights, mixed_prev, player.g_prime.weights
    )
    player.last_observation = obs
    player.play_sum += played
    return player.play, player


def reference_self_play(a: np.ndarray, T: int, row, col) -> MatchResult:
    n, m = a.shape
    f_sum = np.zeros(n)
    x_sum = np.zeros(m)
    fA_sum = np.zeros(m)
    Ax_sum = np.zeros(n)
    trace = RowTable(TraceRow)
    for t in range(1, T + 1):
        f = row.play.weights
        x = col.play.weights
        Ax = a @ x
        fA = f @ a
        eta_row, lhs_row, rhs_row = row.step(Ax)[:3]
        eta_col, lhs_col, rhs_col = col.step(-fA)[:3]
        f_sum += f
        x_sum += x
        fA_sum += fA
        Ax_sum += Ax
        gap_t = float(np.maximum.reduce(fA_sum) - np.minimum.reduce(Ax_sum)) / t
        trace.extend([t], [eta_row], [eta_col], [gap_t], [lhs_row], [rhs_row], [lhs_col], [rhs_col])
    f_avg = f_sum / T
    x_avg = x_sum / T
    return MatchResult(
        f_average=f_avg, x_average=x_avg, gap=bilinear_gap(a, f_avg, x_avg), trace=trace
    )


# ---------------------------------------------------------------- the step/fold contract
#
# games._self_play steps a side with step(w), collects a block's (eta,
# lhs, rhs, low) columns with fold(), where low is the smallest entry of the
# side's running sum of w, and takes the averages from play_sum. `Folding`
# puts a frozen side above behind that contract without changing its round:
# it keeps what the frozen step returned, a round at a time, and hands over
# no running play sums (the match reads none).

class Folding:
    block = games._GUARD_BLOCK

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._columns = []

    def step(self, w):
        eta, lhs, rhs, *low = super().step(w)
        if not low:  # the frozen full-information step returns no minimum
            low = [float(np.minimum.reduce(self.certificate.cum_obs))]
        self._columns.append((eta, lhs, rhs, low[0]))
        return eta

    def fold(self):
        columns, self._columns = self._columns, []
        return tuple(map(list, zip(*columns))), None


class FoldingBanditSide(Folding, ReferenceBanditSide):
    pass


class FoldingFullInfoPlayer(Folding, ReferenceFullInfoPlayer):
    pass


@contextlib.contextmanager
def reference_games():
    """Within the block, run_full_info_match, run_bandit_match and
    run_full_info_vs play the reference round above, and the bandit sides
    step as `ReferenceBanditSide`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(games, "_self_play", reference_self_play)
        mp.setattr(games, "_BanditSide", ReferenceBanditSide)
        mp.setattr(games, "FullInfoPlayer", ReferenceFullInfoPlayer)
        mp.setattr(games, "full_info_step", reference_full_info_step)
        yield


def certificate_bits(cert):
    """A side certificate's running sums and inequality, for a bitwise compare."""
    if cert is None:
        return None
    return (
        cert.cum_obs.tobytes(),
        cert.lhs_per_vertex.tobytes(),
        repr((cert.cum_play_loss, cert.variance, cert.negative, cert.eta_first, cert.eta_last)),
        repr((cert.lhs, cert.rhs, cert.holds())),
    )


def assert_same_bits(a, b):
    """Field by field equal, bit for bit: arrays by their bytes, RowTables
    column by column, everything else by repr (which tells every float apart,
    -0.0 from 0.0 included)."""
    assert type(a) is type(b)
    for key, value in vars(a).items():
        other = getattr(b, key)
        if isinstance(value, RowTable):
            assert value.names == other.names, key
            for name in value.names:
                assert value.column(name).tobytes() == other.column(name).tobytes(), (key, name)
        elif isinstance(value, np.ndarray):
            assert value.dtype == other.dtype and value.tobytes() == other.tobytes(), key
        else:
            assert repr(value) == repr(other), key
