"""Offline smooth optimization by predicting the gradient at the secondary iterate.

Covers the smooth case (eta = 1/H, suboptimality H R^2 / T for the averaged
iterate) and the Holder-smooth interpolation with the exponent-dependent step
size, which degrades gracefully toward the bounded-gradient-variation regime.

`trajectory` is the round itself, two prox steps; both solvers fold its logs
through RegretCertificate and keep no squared-gap history. Once per block
of the certificate's rounds (the `_rows._BlockRows` contract) its `fold()`
hands over the (lhs, rhs) columns and each round's running play sum, whose
value / t each row carries, with the bits of one round at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ._rows import RowTable
from . import mirror
from .mirror import MirrorMap, RegretCertificate, RoundLog, point_weights


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
        for name in ("holder_const", "divergence_radius"):
            value = getattr(self, name)
            # written so that NaN fails the check too
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
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
    # written so that NaN fails the check too
    if not (0.0 < R < math.inf and 0.0 < H < math.inf):
        raise ValueError(f"R and H must be positive and finite, got R={R!r}, H={H!r}")
    one_minus = 1.0 - alpha
    # 0**0 -> 1 at the alpha=1 endpoint
    lo = 1.0 if one_minus == 0.0 else one_minus ** (-one_minus / 2.0)
    hi = (1.0 + alpha) ** (-(1.0 + alpha) / 2.0)
    return R**one_minus / H * hi * lo * T ** (-one_minus / 2.0)


def trajectory(problem: SmoothProblem, T: int, eta: float) -> Iterator[RoundLog]:
    """The solvers' round itself, as a generator: one RoundLog per round, T rounds.

    Each round predicts with the gradient at the previous secondary iterate,
    plays against it, and corrects with the gradient at the play: two
    mirror.prox_step calls with fixed step eta.
    """
    m = problem.mirror_map
    gradient = problem.gradient
    secondary = m.divergence_minimizer()
    secondary_w = point_weights(secondary)
    for _ in range(T):
        prediction = np.asarray(gradient(secondary_w), dtype=float)
        played = point_weights(mirror.prox_step(m, secondary, prediction, eta))
        grad = np.asarray(gradient(played), dtype=float)
        secondary = mirror.prox_step(m, secondary, grad, eta)
        secondary_w = point_weights(secondary)
        yield RoundLog(played, secondary_w, grad, prediction)


def _prox_loop(problem: SmoothProblem, T: int, eta: float) -> OfflineResult:
    if T < 1:
        raise ValueError("T must be at least 1")
    m = problem.mirror_map
    comparator = m.divergence_minimizer() if problem.minimizer is None else problem.minimizer
    cert = RegretCertificate(m, eta, comparator)
    update, block = cert.update, cert.block
    value_of = problem.value
    rows = RowTable(OfflineRound)
    for t, log in enumerate(trajectory(problem, T, eta), start=1):
        update(log)
        if t % block == 0 or t == T:
            columns, sums = cert.fold()
            ts = range(t - len(sums) + 1, t + 1)
            if value_of is None:
                values = [math.nan] * len(sums)
            else:
                values = [value_of(row / i) for row, i in zip(sums, ts)]
            rows.extend(ts, values, *columns)
    return OfflineResult(average=cert.play_sum / T, rounds=rows, eta=eta)


def mirror_prox(problem: SmoothProblem, T: int) -> OfflineResult:
    """Smooth case: predict with the gradient at the secondary iterate, eta = 1/H.

    The averaged iterate satisfies value(average) - min <= H R^2 / T when
    the divergence from the optimum to the start is at most R^2. Each row
    carries the running average's value and the certificate so far.
    """
    if problem.alpha != 1.0:
        raise ValueError("mirror_prox requires alpha = 1 (plain smoothness)")
    return _prox_loop(problem, T, 1.0 / problem.holder_const)


def holder_optimize(problem: SmoothProblem, T: int) -> OfflineResult:
    """Holder-smooth case: same dynamics and rows with the exponent-tuned step size."""
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

    def quad_value(f):
        d = f - p
        return float(0.5 * d @ (w * d))

    quad = SmoothProblem(
        gradient=lambda f: w * (f - p),
        holder_const=float(w.max()),
        alpha=1.0,
        mirror_map=MirrorMap.euclidean_ball(4, radius=1.0),
        divergence_radius=math.sqrt(0.5 * float(p @ p)),
        value=quad_value,
        minimizer=p.copy(),
    )

    c = np.array([0.25, -0.35, 0.15])

    def signed_root(f):
        d = f - c
        return np.sign(d) * np.sqrt(np.abs(d))

    half = SmoothProblem(
        gradient=signed_root,
        holder_const=math.sqrt(2.0 * math.sqrt(3.0)),
        alpha=0.5,
        mirror_map=MirrorMap.euclidean_ball(3, radius=1.0),
        divergence_radius=math.sqrt(0.5 * float(c @ c)),
        value=lambda f: float((2.0 / 3.0) * np.add.reduce(np.abs(f - c) ** 1.5)),
        minimizer=c.copy(),
    )

    n, knee = 6, 0.04
    vertex = np.zeros(n)
    vertex[0] = 1.0

    def huber_value(f):
        d = np.abs(f - vertex)
        small = d <= knee
        return float(np.add.reduce(np.where(small, d**2 / (2 * knee), d - knee / 2)))

    pull = SmoothProblem(
        gradient=lambda f: np.minimum(np.maximum((f - vertex) / knee, -1.0), 1.0),
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
