"""Optimistic mirror descent primitives.

Implements the two supported mirror maps (negative entropy on the simplex,
euclidean on simplex/ball/affine feasible sets), Bregman divergences, prox
steps, the interleaved primary/secondary update, the adaptive step-size rule,
and the running fixed-step regret certificate fed by realized trajectories.

Every operation here except omd_round and the certificate is a pure
function. omd_round advances the OmdState it is given in place and returns
it, so a round costs the same at any horizon.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._linalg import AffineSolver, project_ball, project_simplex

ENTROPY = "entropy"
EUCLIDEAN = "euclidean"


def _as_vector(x, dim: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d point, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ValueError(f"expected dimension {dim}, got {v.size}")
    return v


class SimplexPoint:
    """A simplex point carried in log-space with cached normalized weights.

    Long products of exponential reweightings underflow in linear space;
    keeping log-weights makes the multiplicative update stable at any horizon.
    """

    __slots__ = ("log_weights", "weights")

    def __init__(self, log_weights):
        z = _as_vector(log_weights)
        z = z - z.max()
        w = np.exp(z)
        total = w.sum()
        self.weights = w / total
        self.log_weights = z - math.log(total)

    @classmethod
    def uniform(cls, n: int) -> "SimplexPoint":
        return cls(np.zeros(n))

    @classmethod
    def from_weights(cls, weights) -> "SimplexPoint":
        w = _as_vector(weights)
        if np.any(w <= 0):
            raise ValueError("simplex point from weights requires strictly positive entries")
        return cls(np.log(w))

    def exp_step(self, scaled_loss: np.ndarray) -> "SimplexPoint":
        """Multiplicative update exp(-scaled_loss), renormalized in log-space."""
        return SimplexPoint(self.log_weights - scaled_loss)

    def mix(self, beta: float) -> "SimplexPoint":
        """Blend with the uniform distribution: (1-beta)*w + beta/n."""
        if beta == 0.0:
            return self
        w = (1.0 - beta) * self.weights + beta / self.weights.size
        return SimplexPoint(np.log(w))

    @property
    def dim(self) -> int:
        return self.weights.size

    def __repr__(self):
        return f"SimplexPoint({self.weights!r})"


@dataclass(frozen=True)
class Simplex:
    dim: int


@dataclass(frozen=True)
class Ball:
    dim: int
    radius: float = 1.0


class AffineSubspace:
    """Feasible set {f : M f = b}; its projector computes M's pseudo-inverse once."""

    def __init__(self, matrix, rhs, solver: AffineSolver | None = None):
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        if self.matrix.shape[0] != self.rhs.size:
            raise ValueError("equality matrix and rhs disagree on row count")
        self.dim = self.matrix.shape[1]
        self._solver = solver if solver is not None else AffineSolver(self.matrix)

    def project(self, point: np.ndarray, tol: float = 1e-8) -> np.ndarray:
        return self._solver.project(point, self.rhs, tol=tol)


@dataclass(frozen=True)
class MirrorMap:
    """Mirror map: `kind` is "entropy" or "euclidean", over a feasible set.

    Negative entropy is only valid on the simplex (its prox is the
    multiplicative update). The euclidean map supports simplex, ball, and
    affine-subspace feasible sets through euclidean projection.
    """

    kind: str
    feasible: object

    def __post_init__(self):
        if self.kind not in (ENTROPY, EUCLIDEAN):
            raise ValueError(f"unknown mirror map kind {self.kind!r}")
        if self.kind == ENTROPY and not isinstance(self.feasible, Simplex):
            raise ValueError("negative entropy is defined only over the simplex")

    @classmethod
    def entropy_simplex(cls, n: int) -> "MirrorMap":
        return cls(ENTROPY, Simplex(n))

    @classmethod
    def euclidean_simplex(cls, n: int) -> "MirrorMap":
        return cls(EUCLIDEAN, Simplex(n))

    @classmethod
    def euclidean_ball(cls, n: int, radius: float = 1.0) -> "MirrorMap":
        return cls(EUCLIDEAN, Ball(n, radius))

    @classmethod
    def euclidean_affine(cls, matrix, rhs, solver=None) -> "MirrorMap":
        return cls(EUCLIDEAN, AffineSubspace(matrix, rhs, solver))

    @property
    def dim(self) -> int:
        return self.feasible.dim

    # norm pair: ell_1 / ell_inf for entropy, ell_2 / ell_2 for euclidean;
    # sqrt(v . v) is what np.linalg.norm computes for a 1-d float vector
    def norm(self, v) -> float:
        v = np.asarray(v, dtype=float)
        if self.kind == ENTROPY:
            return float(np.abs(v).sum())
        return math.sqrt(float(v.dot(v)))

    def dual_norm(self, v) -> float:
        v = np.asarray(v, dtype=float)
        if self.kind == ENTROPY:
            return float(np.max(np.abs(v))) if v.size else 0.0
        return math.sqrt(float(v.dot(v)))

    def divergence_minimizer(self):
        """argmin of the mirror map over the feasible set (the canonical start g_0)."""
        if self.kind == ENTROPY:
            return SimplexPoint.uniform(self.dim)
        if isinstance(self.feasible, Ball):
            return np.zeros(self.dim)
        if isinstance(self.feasible, Simplex):
            return np.full(self.dim, 1.0 / self.dim)
        return self.feasible.project(np.zeros(self.dim))

    def project(self, point: np.ndarray) -> np.ndarray:
        if isinstance(self.feasible, Simplex):
            return project_simplex(point)
        if isinstance(self.feasible, Ball):
            return project_ball(point, self.feasible.radius)
        return self.feasible.project(point)


def point_weights(point) -> np.ndarray:
    """Array view of a point (SimplexPoint or plain vector)."""
    if isinstance(point, SimplexPoint):
        return point.weights
    return np.asarray(point, dtype=float)


def bregman(mirror_map: MirrorMap, f, g) -> float:
    """Bregman divergence D(f, g) induced by the mirror map.

    Negative entropy gives KL(f || g) (0 log 0 = 0, g must be strictly
    positive); the euclidean map gives half the squared distance.
    """
    fw = point_weights(f)
    gw = point_weights(g)
    if fw.size != gw.size:
        raise ValueError("dimension mismatch between points")
    if fw.size != mirror_map.dim:
        raise ValueError(f"points have dimension {fw.size}, map expects {mirror_map.dim}")
    if mirror_map.kind == ENTROPY:
        if np.any(fw < 0):
            raise ValueError("KL divergence requires nonnegative first argument")
        if np.any(gw <= 0):
            raise ValueError("KL divergence requires strictly positive second argument")
        mask = fw > 0
        return float(np.sum(fw[mask] * (np.log(fw[mask]) - np.log(gw[mask]))))
    diff = fw - gw
    return float(0.5 * diff @ diff)


def prox_step(mirror_map: MirrorMap, base, loss, eta: float):
    """Prox update: argmin_f  eta*<f, loss> + D(f, base) over the feasible set.

    Entropy: multiplicative update computed in log-space with max-subtraction,
    so the output is invariant under constant shifts of `loss`. Euclidean:
    gradient step followed by projection. Returns the same point type it was
    given (SimplexPoint in, SimplexPoint out).
    """
    if eta <= 0 or not math.isfinite(eta):
        raise ValueError(f"step size must be positive and finite, got {eta}")
    loss = _as_vector(loss, mirror_map.dim)
    if not np.all(np.isfinite(loss)):
        raise ValueError("loss vector has non-finite entries")
    if mirror_map.kind == ENTROPY:
        pt = base if isinstance(base, SimplexPoint) else SimplexPoint.from_weights(base)
        # subtracting the max makes shifted losses produce identical updates
        out = pt.exp_step(eta * (loss - loss.max()))
        return out if isinstance(base, SimplexPoint) else out.weights
    basew = point_weights(base)
    if basew.size != mirror_map.dim:
        raise ValueError(f"base has dimension {basew.size}, map expects {mirror_map.dim}")
    return mirror_map.project(basew - eta * loss)


@dataclass
class OmdState:
    """State threaded through omd_round: secondary iterate, history, bookkeeping."""

    secondary: object
    round: int = 0
    sq_diff_history: list = field(default_factory=list)
    r_max: float | None = None

    @classmethod
    def initial(cls, mirror_map: MirrorMap, r_max: float | None = None) -> "OmdState":
        return cls(secondary=mirror_map.divergence_minimizer(), r_max=r_max)


@dataclass
class RoundLog:
    """One round of a trajectory, as consumed by RegretCertificate."""

    played: np.ndarray
    secondary: np.ndarray
    gradient: np.ndarray
    prediction: np.ndarray


def omd_round(
    state: OmdState,
    mirror_map: MirrorMap,
    prediction,
    gradient_oracle: Callable[[np.ndarray], np.ndarray],
    eta: float,
):
    """One interleaved round: play against the prediction, then correct.

    f_t  = prox(secondary, prediction, eta)
    g_t  = prox(secondary, gradient(f_t), eta)

    Returns (f_t, state): the given state, advanced in place. It gains the
    squared dual-norm gap ||gradient - prediction||_*^2 in its history.
    """
    prediction = _as_vector(prediction, mirror_map.dim)
    f_t = prox_step(mirror_map, state.secondary, prediction, eta)
    grad = _as_vector(gradient_oracle(point_weights(f_t)), mirror_map.dim)
    g_t = prox_step(mirror_map, state.secondary, grad, eta)
    gap = mirror_map.dual_norm(grad - prediction)
    state.secondary = g_t
    state.round += 1
    state.sq_diff_history.append(gap * gap)
    return f_t, state


def adaptive_eta(sq_diff_history: Sequence[float], r_max: float) -> float:
    """Data-dependent step size R_max * min{(sqrt(S1) + sqrt(S2))^-1, 1}.

    S1 sums the whole squared-gap history, S2 the history minus its last
    entry. An empty history (or zero sums) falls back to R_max.
    """
    if r_max <= 0 or not math.isfinite(r_max):
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    hist = list(sq_diff_history)
    if any(h < 0 for h in hist):
        raise ValueError("squared-difference history must be nonnegative")
    s1 = math.fsum(hist)
    s2 = math.fsum(hist[:-1])
    denom = math.sqrt(s1) + math.sqrt(s2)
    if denom == 0.0:
        return r_max
    return r_max * min(1.0 / denom, 1.0)


class RegretCertificate:
    """Running fixed-step regret inequality: lhs <= divergence + variance - negative.

    lhs        = sum_t <f_t - comparator, gradient_t>
    divergence = D(comparator, g_0) / eta
    variance   = sum_t ||gradient_t - prediction_t||_* ||g_t - f_t||
    negative   = sum_t (||g_t - f_t||^2 + ||g_{t-1} - f_t||^2) / (2 eta)

    g_0 is the divergence minimizer of the map. Each `update` folds one round
    of the trajectory into the sums, so the inequality can be checked after
    every round; it holds for every comparator in the feasible set, for any
    positive fixed eta.
    """

    def __init__(self, mirror_map: MirrorMap, eta: float, comparator):
        if eta <= 0:
            raise ValueError("eta must be positive")
        self.mirror_map = mirror_map
        self.eta = eta
        self.comparator = point_weights(comparator)
        g0 = mirror_map.divergence_minimizer()
        self._g_prev = point_weights(g0)
        self.lhs = 0.0
        self.divergence_term = bregman(mirror_map, self.comparator, g0) / eta
        self.variance_term = 0.0
        self.negative_term = 0.0

    def update(self, log: RoundLog) -> None:
        m = self.mirror_map
        f = point_weights(log.played)
        g = point_weights(log.secondary)
        grad = np.asarray(log.gradient, dtype=float)
        pred = np.asarray(log.prediction, dtype=float)
        self.lhs += float((f - self.comparator) @ grad)
        g_dist = m.norm(g - f)
        self.variance_term += m.dual_norm(grad - pred) * g_dist
        self.negative_term += (g_dist**2 + m.norm(self._g_prev - f) ** 2) / (2.0 * self.eta)
        self._g_prev = g

    @property
    def rhs(self) -> float:
        return self.divergence_term + self.variance_term - self.negative_term

    def holds(self, tol: float = 1e-9) -> bool:
        return self.lhs <= self.rhs + tol

