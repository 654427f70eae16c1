"""Saddle-point solving by two coupled optimistic learners.

Each side runs the interleaved update, predicting with the partial gradient
evaluated at the pair of secondary iterates. Player II's learner receives
negated gradients so both sides minimize; averaged plays approximate the
saddle point at a rate set by the worst smoothness exponent.

`coupled_rounds` is that round, written once: `saddle_solve` folds its
certificate from it, and `convexprog.solve_cp` plays the same round on the
Lagrangian of a convex program.

`saddle_solve`'s bound is a `_rows._BlockRows` kind: once per block of
rounds its `fold()` hands over the bound's column and each round's running
play sums, and the block's trace rows are appended at once, with the bits
of one round at a time. `value` and `gap_oracle` are still called once a
round.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._rows import RowTable, _BlockRows, _block_rows, _run_sum
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
        # written so that NaN fails the check too
        if not all(0.0 < h < math.inf for h in self.smoothness):
            raise ValueError(f"smoothness constants must be positive and finite, got {self.smoothness}")
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
    trace: RowTable  # of SaddleRound


def saddle_eta(radius_f: float, radius_x: float, holder_const: float, gamma: float, T: int) -> float:
    """Shared step size (R1^2+R2^2)^((1-gamma)/2) / (2H) * (T/2)^((gamma-1)/2)."""
    if T < 2:
        raise ValueError("T must be at least 2")
    # written so that NaN fails these checks too
    if not (0.0 <= radius_f < math.inf and 0.0 <= radius_x < math.inf):
        raise ValueError(f"radii must be nonnegative and finite, got {radius_f!r}, {radius_x!r}")
    if not 0.0 < holder_const < math.inf:
        raise ValueError(f"holder_const must be positive and finite, got {holder_const!r}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    r_sq = radius_f**2 + radius_x**2
    return r_sq ** ((1.0 - gamma) / 2.0) / (2.0 * holder_const) * (T / 2.0) ** ((gamma - 1.0) / 2.0)


def _payoff_matrix(A) -> np.ndarray:
    """A as a float matrix; ValueError unless it is 2-d, non-empty and finite."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError(f"payoff matrix must be 2-d and non-empty, got shape {A.shape}")
    if not np.isfinite(A).all():
        i, j = np.argwhere(~np.isfinite(A))[0]
        raise ValueError(f"payoff matrix entry ({i}, {j}) is {float(A[i, j])}, not finite")
    return A


def bilinear_gap(A, f, x) -> float:
    """Equilibrium gap max_j (f^T A)_j - min_i (A x)_i for a matrix game."""
    A = _payoff_matrix(A)
    f = point_weights(f)
    x = point_weights(x)
    if f.size != A.shape[0] or x.size != A.shape[1]:
        raise ValueError("strategy dimensions do not match the matrix")
    return float(np.maximum.reduce(f @ A) - np.minimum.reduce(A @ x))


def bilinear_problem(A) -> SaddleProblem:
    """Matrix game f^T A x over two simplices with entropy maps; A is checked here, once."""
    A = _payoff_matrix(A)
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
        gap_oracle=lambda f, x: float(np.maximum.reduce(f @ A) - np.minimum.reduce(A @ x)),
    )


def coupled_rounds(losses, step_f, step_x, start_f, start_x, T: int):
    """Play T coupled optimistic rounds from the secondaries (start_f, start_x).

    Each round predicts with both sides' losses at the previous secondary
    pair, plays f_t = step_f(prev_f, pred_f) and x_t = step_x(prev_x, pred_x),
    and takes the losses at the played pair; both sides minimize.
    `losses(f, x)` returns (loss of f, loss of x) at the weights of a pair of
    points. Each point's weights are taken once, and the round yields them:
    (f_t, x_t, pred_f, pred_x, grad_f_t, grad_x_t, prev_f, prev_x), before
    correcting each secondary with its played-pair loss, so a consumer that
    stops at round t never runs that round's correction.
    """
    sec_f, sec_x = start_f, start_x
    prev_f, prev_x = point_weights(sec_f), point_weights(sec_x)
    for _ in range(T):
        pred_f, pred_x = losses(prev_f, prev_x)
        # both plays must exist before either gradient is taken, so each
        # side's interleaved update is split into its play and correct steps
        f_t = point_weights(step_f(sec_f, pred_f))
        x_t = point_weights(step_x(sec_x, pred_x))
        grad_f_t, grad_x_t = losses(f_t, x_t)
        yield f_t, x_t, pred_f, pred_x, grad_f_t, grad_x_t, prev_f, prev_x
        sec_f = step_f(sec_f, grad_f_t)
        sec_x = step_x(sec_x, grad_x_t)
        prev_f, prev_x = point_weights(sec_f), point_weights(sec_x)


class _Bound(_BlockRows):
    """`saddle_solve`'s running bound, on the `_rows._BlockRows` contract.

    A round's play is one [f | x] row, so `play_sum` and each round's
    running play sum hold both sides; its own rows are each side's
    gradient - prediction and g_{t-1} - play. Its column is the bound's
    numerator, divergence + var_f + var_x - neg_cross / (2 eta), which
    `saddle_solve` divides by t; var_f, var_x and neg_cross run jointly,
    each with the bits of one round at a time.
    """

    def __init__(self, problem: SaddleProblem, eta: float):
        mf, mx = problem.map_f, problem.map_x
        nf = mf.dim
        super().__init__(nf + mx.dim, min(_block_rows(nf), _block_rows(mx.dim)), 1)
        self._norms = mf.row_norm_pair, mx.row_norm_pair
        self._f_rows = np.empty((2, self.block, nf))
        self._x_rows = np.empty((2, self.block, mx.dim))
        # constants of the bound, hoisted in its own evaluation order: same bits
        self._divergence = problem.radius_f**2 / eta + problem.radius_x**2 / eta
        self._half_eta, self._two_eta = eta / 2.0, 2.0 * eta
        self._sums = np.zeros(3)  # var_f, var_x and neg_cross

    def update(self, f_t, x_t, pred_f, pred_x, grad_f_t, grad_x_t, prev_f, prev_x) -> None:
        """Take in one round, as `coupled_rounds` yields it."""
        k = self._row()
        np.concatenate((f_t, x_t), out=self._play[k])
        np.subtract(grad_f_t, pred_f, out=self._f_rows[0, k])
        np.subtract(grad_x_t, pred_x, out=self._x_rows[0, k])
        np.subtract(prev_f, f_t, out=self._f_rows[1, k])
        np.subtract(prev_x, x_t, out=self._x_rows[1, k])
        self._rows = k + 1

    def _fill(self, s: int, k: int, columns: np.ndarray) -> None:
        gaps_f, prevs_f = self._f_rows[:, s:k]
        gaps_x, prevs_x = self._x_rows[:, s:k]
        (norm_f, dual_f), (norm_x, dual_x) = self._norms
        half_eta = self._half_eta
        # each round's increment of var_f, var_x and neg_cross, squared as
        # Python squares; then each sum runs from its value one round at a time
        steps = np.array([
            [half_eta * d**2 for d in dual_f(gaps_f).tolist()],
            [half_eta * d**2 for d in dual_x(gaps_x).tolist()],
            [a**2 + b**2 for a, b in zip(norm_f(prevs_f).tolist(), norm_x(prevs_x).tolist())],
        ])
        self._sums = _run_sum(steps.T, self._sums)[-1].copy()
        var_f, var_x, neg_cross = steps
        # divergence + var_f + var_x - neg_cross / two_eta, op by op
        bound = columns[0]
        np.add(self._divergence, var_f, out=bound)
        bound += var_x
        bound -= neg_cross / self._two_eta


def saddle_solve(problem: SaddleProblem, T: int, eta: float | None = None) -> SaddleResult:
    """Run the coupled dynamics for T rounds and average both sides.

    Only the running sums of the plays are kept. Each trace row (a
    SaddleRound, stored in the columns of a RowTable) carries the
    gap of the prefix averages, exact when the problem has a gap oracle
    (bilinear payoffs) and otherwise the realized certificate bound on the
    average's suboptimality. The result's gap and certificate_bound are the
    last row's. A block is 64 rounds, or fewer on a side wider than 128.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    if eta is None:
        eta = saddle_eta(
            problem.radius_f, problem.radius_x, problem.holder_const, problem.gamma, T
        )
    mf, mx = problem.map_f, problem.map_x
    grad_f, grad_x = problem.grad_f, problem.grad_x
    value_of, gap_oracle = problem.value, problem.gap_oracle
    cert = _Bound(problem, eta)
    update, block, nf = cert.update, cert.block, mf.dim
    trace = RowTable(SaddleRound)
    values = []
    rounds = coupled_rounds(
        lambda f, x: (np.asarray(grad_f(f, x), dtype=float), -np.asarray(grad_x(f, x), dtype=float)),
        lambda base, loss: prox_step(mf, base, loss, eta),
        lambda base, loss: prox_step(mx, base, loss, eta),
        mf.divergence_minimizer(),
        mx.divergence_minimizer(),
        T,
    )
    for t, played in enumerate(rounds, 1):
        update(*played)
        values.append(math.nan if value_of is None else value_of(*played[:2]))
        if t % block and t < T:
            continue
        (bound,), sums = cert.fold()
        ts = range(t - len(sums) + 1, t + 1)
        bound = bound / ts
        if gap_oracle is None:
            gaps = bound
        else:
            gaps = [float(gap_oracle(row[:nf] / i, row[nf:] / i)) for row, i in zip(sums, ts)]
        trace.extend(ts, values, np.full(len(sums), eta), gaps, bound)
        values.clear()
    total = cert.play_sum
    return SaddleResult(
        f_average=total[:nf] / T,
        x_average=total[nf:] / T,
        gap=float(gaps[-1]),
        certificate_bound=float(bound[-1]),
        eta=eta,
        trace=trace,
    )
