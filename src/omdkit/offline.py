"""Offline smooth optimization by predicting the gradient at the secondary iterate.

Covers the smooth case (eta = 1/H, suboptimality H R^2 / T for the averaged
iterate) and the Holder-smooth interpolation with the exponent-dependent step
size, which degrades gracefully toward the bounded-gradient-variation regime.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ._rows import RowTable
from .mirror import MirrorMap, OmdState, RegretCertificate, RoundLog, omd_round, point_weights


@dataclass
class SmoothProblem:
    """Minimization problem with a Holder-smooth gradient.

    gradient: point -> gradient vector. holder_const H and exponent alpha
    satisfy ||grad(f) - grad(g)||_* <= H ||f - g||^alpha in the map's norm
    pair. divergence_radius R feeds the step-size formula; the step-size
    formula uses it verbatim. value is optional (enables suboptimality
    reporting). minimizer, also optional, is the comparator of the rows'
    regret certificate; without it the certificate is taken against the
    map's divergence minimizer g_0 (it holds for every feasible comparator).
    """

    gradient: Callable[[np.ndarray], np.ndarray]
    holder_const: float
    alpha: float
    mirror_map: MirrorMap
    divergence_radius: float
    value: Callable[[np.ndarray], float] | None = None
    minimizer: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.holder_const <= 0:
            raise ValueError("holder_const must be positive")
        if self.divergence_radius <= 0:
            raise ValueError("divergence_radius must be positive")
        if self.minimizer is not None:
            self.minimizer = np.asarray(self.minimizer, dtype=float)
            if self.minimizer.shape != (self.mirror_map.dim,):
                raise ValueError(f"minimizer must have shape ({self.mirror_map.dim},)")


@dataclass(slots=True)
class OfflineRound:
    """One solver round as scalars: value of the running average, certificate sides.

    value is problem.value(average of the first t plays), NaN when the
    problem has no value; cert_lhs <= cert_rhs is the regret certificate
    folded over rounds 1..t against the problem's minimizer (or g_0).
    """

    t: int
    value: float
    cert_lhs: float
    cert_rhs: float


@dataclass
class OfflineResult:
    """Averaged iterate, one OfflineRound per round, and the step size.

    A run keeps no iterates; the per-round vectors come from `trajectory`.
    The rows are stored in the columns of a RowTable.
    """

    average: np.ndarray
    rounds: RowTable  # of OfflineRound
    eta: float


def holder_eta(R: float, H: float, alpha: float, T: int) -> float:
    """Step size R^(1-a) H^-1 (1+a)^-(1+a)/2 (1-a)^-(1-a)/2 T^-(1-a)/2.

    0^0 is taken as 1, so alpha=1 gives 1/(2H) and alpha=0 gives R/(H sqrt(T)).
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if R <= 0 or H <= 0:
        raise ValueError("R and H must be positive")
    one_minus = 1.0 - alpha
    # 0**0 -> 1 at the alpha=1 endpoint
    lo = 1.0 if one_minus == 0.0 else one_minus ** (-one_minus / 2.0)
    hi = (1.0 + alpha) ** (-(1.0 + alpha) / 2.0)
    return R**one_minus / H * hi * lo * T ** (-one_minus / 2.0)


def trajectory(problem: SmoothProblem, T: int, eta: float) -> Iterator[RoundLog]:
    """The solvers' dynamics as a generator: one RoundLog per round, T rounds.

    Each round predicts with the gradient at the previous secondary iterate
    and plays against it with fixed step eta. mirror_prox and
    holder_optimize fold exactly these logs into their rows.
    """
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
        f_t, state = omd_round(state, m, prediction, oracle, eta)
        yield RoundLog(
            played=point_weights(f_t),
            secondary=point_weights(state.secondary),
            gradient=grad,
            prediction=prediction,
        )


def _prox_loop(problem: SmoothProblem, T: int, eta: float) -> OfflineResult:
    m = problem.mirror_map
    comparator = m.divergence_minimizer() if problem.minimizer is None else problem.minimizer
    cert = RegretCertificate(m, eta, comparator)
    total = np.zeros(m.dim)
    rows = RowTable(OfflineRound)
    for t, log in enumerate(trajectory(problem, T, eta), start=1):
        total += log.played
        cert.update(log)
        value = math.nan if problem.value is None else problem.value(total / t)
        rows.append(t, value, cert.lhs, cert.rhs)
    return OfflineResult(average=total / T, rounds=rows, eta=eta)


def mirror_prox(problem: SmoothProblem, T: int) -> OfflineResult:
    """Smooth case: predict with the gradient at the secondary iterate, eta = 1/H.

    The averaged iterate satisfies value(average) - min <= H R^2 / T when
    the divergence from the optimum to the start is at most R^2. Each row
    carries the running average's value and the certificate so far.
    """
    if problem.alpha != 1.0:
        raise ValueError("mirror_prox requires alpha = 1 (plain smoothness)")
    if T < 1:
        raise ValueError("T must be at least 1")
    return _prox_loop(problem, T, 1.0 / problem.holder_const)


def holder_optimize(problem: SmoothProblem, T: int) -> OfflineResult:
    """Holder-smooth case: same dynamics and rows with the exponent-tuned step size."""
    if T < 1:
        raise ValueError("T must be at least 1")
    eta = holder_eta(problem.divergence_radius, problem.holder_const, problem.alpha, T)
    return _prox_loop(problem, T, eta)


def builtin_problems() -> dict[str, tuple[SmoothProblem, float]]:
    """Named demo instances: name -> (problem, optimal value); each sets its minimizer.

    quad-ball is plainly smooth (alpha = 1); half-ball has exponent 1/2;
    vertex-pull runs clipped coordinatewise gradients (alpha = 0) on the
    simplex under the entropy map. All three have a known optimum, so
    suboptimality of the averaged iterate is reportable exactly.
    """
    w = np.array([1.0, 0.4, 0.1, 0.7])
    p = np.array([0.3, -0.4, 0.1, 0.2])
    quad = SmoothProblem(
        gradient=lambda f: w * (f - p),
        holder_const=float(w.max()),
        alpha=1.0,
        mirror_map=MirrorMap.euclidean_ball(4, radius=1.0),
        divergence_radius=math.sqrt(0.5 * float(p @ p)),
        value=lambda f: float(0.5 * (f - p) @ (w * (f - p))),
        minimizer=p.copy(),
    )

    c = np.array([0.25, -0.35, 0.15])
    half = SmoothProblem(
        gradient=lambda f: np.sign(f - c) * np.sqrt(np.abs(f - c)),
        holder_const=math.sqrt(2.0 * math.sqrt(3.0)),
        alpha=0.5,
        mirror_map=MirrorMap.euclidean_ball(3, radius=1.0),
        divergence_radius=math.sqrt(0.5 * float(c @ c)),
        value=lambda f: float((2.0 / 3.0) * np.sum(np.abs(f - c) ** 1.5)),
        minimizer=c.copy(),
    )

    n, knee = 6, 0.04
    vertex = np.zeros(n)
    vertex[0] = 1.0

    def huber_value(f):
        d = np.abs(f - vertex)
        small = d <= knee
        return float(np.sum(np.where(small, d**2 / (2 * knee), d - knee / 2)))

    pull = SmoothProblem(
        gradient=lambda f: np.clip((f - vertex) / knee, -1.0, 1.0),
        holder_const=2.0,
        alpha=0.0,
        mirror_map=MirrorMap.entropy_simplex(n),
        divergence_radius=math.sqrt(math.log(n)),
        value=huber_value,
        minimizer=vertex,
    )

    return {
        "quad-ball": (quad, 0.0),
        "half-ball": (half, 0.0),
        "vertex-pull": (pull, 0.0),
    }


def check_holder(problem: SmoothProblem, points: Sequence[np.ndarray], tol: float = 1e-9) -> float:
    """Spot-check the Holder condition on point pairs; returns the worst ratio excess."""
    worst = 0.0
    pts = [np.asarray(p, dtype=float) for p in points]
    m = problem.mirror_map
    for i, f in enumerate(pts):
        for g in pts[i + 1 :]:
            dist = m.norm(f - g)
            if dist == 0:
                continue
            lhs = m.dual_norm(
                np.asarray(problem.gradient(f)) - np.asarray(problem.gradient(g))
            )
            worst = max(worst, lhs - problem.holder_const * dist**problem.alpha)
    if worst > tol:
        raise ValueError(f"Holder condition violated by {worst:.3e} on the sampled pairs")
    return worst
