"""Saddle-point solving by two coupled optimistic learners.

Each side runs the interleaved update, predicting with the partial gradient
evaluated at the pair of secondary iterates. Player II's learner receives
negated gradients so both sides minimize; averaged plays approximate the
saddle point at a rate set by the worst smoothness exponent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .mirror import MirrorMap, point_weights, prox_step


@dataclass
class SaddleProblem:
    """Convex-concave payoff phi(f, x): minimized over f, maximized over x.

    grad_f / grad_x are the partial gradients. The four smoothness constants
    and exponents bound the variation of each partial gradient in each
    argument (dual norm of the receiving side, primal norm of the moving
    side). radius_f / radius_x bound the divergence from the respective
    optimizers to the canonical starts.
    """

    grad_f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    map_f: MirrorMap
    map_x: MirrorMap
    smoothness: tuple[float, float, float, float]
    exponents: tuple[float, float, float, float]
    radius_f: float
    radius_x: float
    value: Callable[[np.ndarray, np.ndarray], float] | None = None
    gap_oracle: Callable[[np.ndarray, np.ndarray], float] | None = None

    def __post_init__(self):
        if any(h <= 0 for h in self.smoothness):
            raise ValueError("smoothness constants must be positive")
        if any(not 0.0 <= a <= 1.0 for a in self.exponents):
            raise ValueError("smoothness exponents must lie in [0, 1]")

    @property
    def holder_const(self) -> float:
        return max(self.smoothness)

    @property
    def gamma(self) -> float:
        return min(self.exponents)


@dataclass
class SaddleRound:
    """One round's scalars, no iterates: gap is the prefix averages' gap (the
    bound when the problem has no gap oracle), bound its running certificate."""

    t: int
    value: float
    eta: float
    gap: float
    bound: float


@dataclass
class SaddleResult:
    f_average: np.ndarray
    x_average: np.ndarray
    gap: float
    certificate_bound: float
    eta: float
    trace: list = field(default_factory=list)


def saddle_eta(radius_f: float, radius_x: float, holder_const: float, gamma: float, T: int) -> float:
    """Shared step size (R1^2+R2^2)^((1-gamma)/2) / (2H) * (T/2)^((gamma-1)/2)."""
    if T < 2:
        raise ValueError("T must be at least 2")
    if holder_const <= 0:
        raise ValueError("holder_const must be positive")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    r_sq = radius_f**2 + radius_x**2
    return r_sq ** ((1.0 - gamma) / 2.0) / (2.0 * holder_const) * (T / 2.0) ** ((gamma - 1.0) / 2.0)


def bilinear_gap(A, f, x) -> float:
    """Equilibrium gap max_j (f^T A)_j - min_i (A x)_i for a matrix game."""
    A = np.asarray(A, dtype=float)
    f = point_weights(f)
    x = point_weights(x)
    if f.size != A.shape[0] or x.size != A.shape[1]:
        raise ValueError("strategy dimensions do not match the matrix")
    return float(np.maximum.reduce(f @ A) - np.minimum.reduce(A @ x))


def bilinear_problem(A) -> SaddleProblem:
    """Matrix game f^T A x over two simplices with entropy maps."""
    A = np.asarray(A, dtype=float)
    n, m = A.shape
    scale = max(float(np.abs(A).max()), 1e-12)
    return SaddleProblem(
        grad_f=lambda f, x: A @ x,
        grad_x=lambda f, x: f @ A,
        map_f=MirrorMap.entropy_simplex(n),
        map_x=MirrorMap.entropy_simplex(m),
        smoothness=(scale, scale, scale, scale),
        exponents=(1.0, 1.0, 1.0, 1.0),
        radius_f=math.sqrt(math.log(n)),
        radius_x=math.sqrt(math.log(m)),
        value=lambda f, x: float(f @ A @ x),
        gap_oracle=lambda f, x: bilinear_gap(A, f, x),
    )


def saddle_solve(problem: SaddleProblem, T: int, eta: float | None = None) -> SaddleResult:
    """Run the coupled dynamics for T rounds and average both sides.

    Only the running sums of the plays are kept. Each trace row carries the
    gap of the prefix averages, exact when the problem has a gap oracle
    (bilinear payoffs) and otherwise the realized certificate bound on the
    average's suboptimality. The result's gap and certificate_bound are the
    last row's.
    """
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
    trace = []
    var_f = var_x = neg_cross = 0.0
    g_prev_f = point_weights(sec_f)
    g_prev_x = point_weights(sec_x)
    for t in range(1, T + 1):
        pred_f = np.asarray(problem.grad_f(g_prev_f, g_prev_x), dtype=float)
        pred_x = -np.asarray(problem.grad_x(g_prev_f, g_prev_x), dtype=float)
        # both plays must exist before either gradient is taken, so each
        # side's interleaved update is split into its play and correct proxes
        f_t = point_weights(prox_step(mf, sec_f, pred_f, eta))
        x_t = point_weights(prox_step(mx, sec_x, pred_x, eta))
        grad_f_t = np.asarray(problem.grad_f(f_t, x_t), dtype=float)
        grad_x_t = -np.asarray(problem.grad_x(f_t, x_t), dtype=float)
        sec_f = prox_step(mf, sec_f, grad_f_t, eta)
        sec_x = prox_step(mx, sec_x, grad_x_t, eta)
        var_f += eta / 2.0 * mf.dual_norm(grad_f_t - pred_f) ** 2
        var_x += eta / 2.0 * mx.dual_norm(grad_x_t - pred_x) ** 2
        neg_cross += mf.norm(g_prev_f - f_t) ** 2 + mx.norm(g_prev_x - x_t) ** 2
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
        trace.append(SaddleRound(t=t, value=value, eta=eta, gap=gap, bound=running))
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
