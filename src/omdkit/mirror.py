"""Optimistic mirror descent primitives.

Implements the two supported mirror maps (negative entropy on the simplex,
euclidean on the simplex or a ball), Bregman divergences, prox
steps, the interleaved primary/secondary update, the adaptive step-size rule,
and the running fixed-step regret certificate fed by realized trajectories,
which folds its rounds a block at a time on the `_rows._BlockRows` contract.

Every operation here except omd_round and the certificate is a pure
function. omd_round advances the OmdState it is given in place and returns
it; its squared-gap history, a GapHistory, keeps only exact running sums,
so a round, the step size after it and the state's size stay flat in T.
omd_round and GapHistory serve only that adaptive rule: the fixed-step
solvers play their prox steps themselves and keep no squared-gap history.
Each oracle vector is checked once, by the prox step that consumes it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._linalg import _project_ball_own, project_ball, project_simplex
from ._rows import _BlockRows, _block_rows, _read_folded, _row_dots, _run_sum

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
    `weights` and `log_weights` describe the same point: `weights` is
    exp(`log_weights`) up to rounding. A point normalized from log-weights
    keeps their max-shifted form z and its normalizer, and forms
    `log_weights` = z - log(normalizer) on first read: a point that is read
    only through `weights` (a play, or an iterate that `mix` replaces) never
    pays for it. The constructor checks its argument; `exp_step` and `mix`
    build their points from arrays they made themselves, so they skip that
    check.
    """

    __slots__ = ("weights", "_log_weights", "_z", "_total")

    def __init__(self, log_weights):
        # a copy: _normalize works in place
        self._normalize(_as_vector(np.array(log_weights, dtype=float)))

    def _normalize(self, z: np.ndarray) -> None:
        """Set this point from unnormalized log-weights z, a 1-d float array
        it takes over: z is shifted in place and kept."""
        z -= np.maximum.reduce(z)
        w = np.exp(z)
        # a Python float divides faster than a numpy scalar, to the same bits
        total = float(np.add.reduce(w))
        w /= total
        self.weights = w
        self._log_weights = None
        self._z = z
        self._total = total

    @property
    def log_weights(self) -> np.ndarray:
        lw = self._log_weights
        if lw is None:
            lw = self._log_weights = self._z  # this point's own
            lw -= math.log(self._total)
            self._z = None
        return lw

    @classmethod
    def uniform(cls, n: int) -> "SimplexPoint":
        return cls(np.zeros(n))

    @classmethod
    def from_weights(cls, weights) -> "SimplexPoint":
        w = _as_vector(weights)
        # written so that NaN fails the check too
        if not np.logical_and.reduce((w > 0) & (w < math.inf)):
            raise ValueError("simplex point from weights requires strictly positive, finite entries")
        return cls(np.log(w))

    def exp_step(self, scaled_loss: np.ndarray) -> "SimplexPoint":
        """Multiplicative update exp(-scaled_loss), renormalized in log-space.

        The result is bit for bit SimplexPoint(self.log_weights - scaled_loss);
        only the shape is checked, since the difference is already a float
        array. A scaled_loss that does not broadcast to this point's shape
        raises ValueError.
        """
        lw = self.log_weights
        z = lw - scaled_loss
        if z.shape != lw.shape:
            raise ValueError(f"expected a loss of shape {lw.shape}, got {z.shape}")
        out = SimplexPoint.__new__(SimplexPoint)
        out._normalize(z)
        return out

    def mix(self, beta: float) -> "SimplexPoint":
        """Blend with the uniform distribution: w = (1-beta)*weights + beta/n.

        Works in weight space: w is the new point's `weights` and log(w) its
        `log_weights`, with no renormalization, so every entry meets the
        floor w >= beta/n exactly in floating point. beta must lie in
        [0, 1]; beta == 0 returns this point itself.
        """
        # written so that NaN fails the check too
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"mixing weight must lie in [0, 1], got {beta!r}")
        if beta == 0.0:
            return self
        w = (1.0 - beta) * self.weights
        w += beta / w.size
        out = SimplexPoint.__new__(SimplexPoint)
        out.weights = w
        out._log_weights = np.log(w)
        return out

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

    def __post_init__(self):
        # written so that NaN fails the check too
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"ball radius must be positive and finite, got {self.radius!r}")


def _l1(v: np.ndarray) -> float:
    return float(np.add.reduce(np.abs(v)))


def _linf(v: np.ndarray) -> float:
    return float(np.maximum.reduce(np.abs(v))) if v.size else 0.0


def _l2(v: np.ndarray) -> float:
    # what np.linalg.norm computes for a 1-d float vector
    return math.sqrt(float(v.dot(v)))


# the same norms, row by row, of a C-contiguous (k, n) array that they may
# overwrite: each entry has the bits of its row's own norm above
def _rows_l1(d: np.ndarray) -> np.ndarray:
    return np.add.reduce(np.abs(d, out=d), axis=1)


def _rows_linf(d: np.ndarray) -> np.ndarray:
    return np.maximum.reduce(np.abs(d, out=d), axis=1)


def _rows_l2(d: np.ndarray) -> np.ndarray:
    return np.sqrt(_row_dots(d, d))


@dataclass(frozen=True)
class MirrorMap:
    """Mirror map: `kind` is "entropy" or "euclidean", over a feasible set.

    Negative entropy is only valid on the simplex (its prox is the
    multiplicative update). The euclidean map supports simplex and ball
    feasible sets through euclidean projection.
    """

    kind: str
    feasible: object

    def __post_init__(self):
        if self.kind not in (ENTROPY, EUCLIDEAN):
            raise ValueError(f"unknown mirror map kind {self.kind!r}")
        if self.kind == ENTROPY and not isinstance(self.feasible, Simplex):
            raise ValueError("negative entropy is defined only over the simplex")
        if not isinstance(self.feasible, (Simplex, Ball)):
            raise ValueError(f"unsupported feasible set {self.feasible!r}")

    @classmethod
    def entropy_simplex(cls, n: int) -> "MirrorMap":
        return cls(ENTROPY, Simplex(n))

    @classmethod
    def euclidean_simplex(cls, n: int) -> "MirrorMap":
        return cls(EUCLIDEAN, Simplex(n))

    @classmethod
    def euclidean_ball(cls, n: int, radius: float = 1.0) -> "MirrorMap":
        return cls(EUCLIDEAN, Ball(n, radius))

    @property
    def dim(self) -> int:
        return self.feasible.dim

    @property
    def row_norm_pair(self):
        """(norm, dual norm) of each row, resolved once for a loop: each takes
        a C-contiguous (k, n) array, which it may overwrite, to the (k,)
        array of its rows' `norm`s or `dual_norm`s, bit for bit."""
        return (_rows_l1, _rows_linf) if self.kind == ENTROPY else (_rows_l2, _rows_l2)

    def norm(self, v) -> float:
        """ell_1 for entropy, ell_2 for euclidean."""
        return (_l1 if self.kind == ENTROPY else _l2)(np.asarray(v, dtype=float))

    def dual_norm(self, v) -> float:
        """ell_inf for entropy, ell_2 for euclidean."""
        return (_linf if self.kind == ENTROPY else _l2)(np.asarray(v, dtype=float))

    def divergence_minimizer(self):
        """argmin of the mirror map over the feasible set (the canonical start g_0)."""
        if self.kind == ENTROPY:
            return SimplexPoint.uniform(self.dim)
        if isinstance(self.feasible, Ball):
            return np.zeros(self.dim)
        return np.full(self.dim, 1.0 / self.dim)

    def project(self, point: np.ndarray) -> np.ndarray:
        """The nearest feasible point, a fresh array; `point` is left as it was."""
        if isinstance(self.feasible, Simplex):
            return project_simplex(point)
        return project_ball(point, self.feasible.radius)


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
    given (SimplexPoint in, SimplexPoint out). This is where a loss vector is
    checked: its shape, and that every entry is finite (for the euclidean
    map, by the projection of the step: "the point is not finite"). An
    entropy step also rejects a loss whose scaled spread eta * (min - max)
    overflows, and a euclidean step with eta above 1 a loss whose step
    eta * loss, or whose step from the base, overflows, before any
    arithmetic warns.
    """
    # written so that NaN fails the check too
    if not 0.0 < eta < math.inf:
        raise ValueError(f"step size must be positive and finite, got {eta}")
    loss = _as_vector(loss, mirror_map.dim)
    if mirror_map.kind == ENTROPY:
        pt = base if isinstance(base, SimplexPoint) else SimplexPoint.from_weights(base)
        hi = np.maximum.reduce(loss)  # NaN if loss holds one
        # rounding is monotone, so this bounds every shifted, scaled entry
        if not -math.inf < eta * (float(np.minimum.reduce(loss)) - float(hi)):
            raise ValueError("loss vector has non-finite entries, or eta * (min - max) overflows")
        # subtracting the max makes shifted losses produce identical updates
        scaled = loss - hi
        scaled *= eta
        out = pt.exp_step(scaled)
        return out if isinstance(base, SimplexPoint) else out.weights
    basew = point_weights(base)
    if basew.size != mirror_map.dim:
        raise ValueError(f"base has dimension {basew.size}, map expects {mirror_map.dim}")
    if eta > 1.0:  # at eta <= 1 the step of a finite loss is finite
        with np.errstate(over="raise"):
            try:
                np.subtract(basew, loss * eta)
            except FloatingPointError:
                raise ValueError("loss vector overflows: eta * loss or base - eta * loss is not finite") from None
    # this call's own array: the ball projection may scale it in place
    step = loss * eta
    np.subtract(basew, step, out=step)
    if isinstance(mirror_map.feasible, Ball):
        return _project_ball_own(step, mirror_map.feasible.radius)
    return project_simplex(step)


def _grow(partials: list[float], x: float) -> list[float]:
    """Shewchuk's grow-expansion, as in math.fsum: returns new partials,
    nonoverlapping and summing exactly to sum(partials) + x, and leaves
    `partials` as it was (so a failed fold changes nothing, and copies of a
    GapHistory may share it)."""
    grown = []
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            grown.append(lo)
        x = hi
    if x == math.inf:
        raise OverflowError("squared-difference history sum overflows")
    grown.append(x)
    return grown


class GapHistory:
    """The running sums of a squared-gap history, not its entries.

    `append` rejects a negative or non-finite entry and folds an accepted
    one at once into Shewchuk partials, the exact summation `math.fsum`
    uses, so `sums` = (fsum(all entries), fsum(all but the last)) bit for
    bit, and an append or a read costs the same at any length. An entry
    whose sum overflows raises OverflowError, as math.fsum does; a rejected
    entry leaves the history as it was. len() counts the entries.
    """

    __slots__ = ("_partials", "sums", "_count")

    def __init__(self, entries=()):
        self._partials: list[float] = []
        self.sums = (0.0, 0.0)
        self._count = 0
        for h in entries:
            self.append(h)

    def append(self, h) -> None:
        x = float(h)
        # written so that NaN fails the check too
        if not 0.0 <= x < math.inf:
            raise ValueError(f"squared-difference history must be nonnegative and finite, got {x!r}")
        partials = _grow(self._partials, x)
        self.sums = (math.fsum(partials), self.sums[0])
        self._partials = partials
        self._count += 1

    def __len__(self) -> int:
        return self._count


@dataclass
class OmdState:
    """State threaded through omd_round: secondary iterate, history, bookkeeping.

    sq_diff_history is a GapHistory (a plain sequence given here is copied
    into one), so adaptive_eta reads its sums in O(1); round is its length.
    """

    secondary: object
    sq_diff_history: GapHistory = field(default_factory=GapHistory)
    r_max: float | None = None

    def __post_init__(self):
        if not isinstance(self.sq_diff_history, GapHistory):
            self.sq_diff_history = GapHistory(self.sq_diff_history)

    @property
    def round(self) -> int:
        return len(self.sq_diff_history)

    @classmethod
    def initial(cls, mirror_map: MirrorMap, r_max: float | None = None) -> "OmdState":
        return cls(secondary=mirror_map.divergence_minimizer(), r_max=r_max)


@dataclass(slots=True)
class RoundLog:
    """One round of a trajectory, as consumed by RegretCertificate: four 1-d float arrays."""

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
    Both vectors are checked by the prox step that consumes them; a gap the
    history rejects leaves the state as it was.
    """
    f_t = prox_step(mirror_map, state.secondary, prediction, eta)
    grad = gradient_oracle(point_weights(f_t))
    g_t = prox_step(mirror_map, state.secondary, grad, eta)
    gap = mirror_map.dual_norm(np.subtract(grad, prediction))
    state.sq_diff_history.append(gap * gap)
    state.secondary = g_t
    return f_t, state


def adaptive_eta(sq_diff_history: Sequence[float], r_max: float) -> float:
    """Data-dependent step size R_max * min{(sqrt(S1) + sqrt(S2))^-1, 1}.

    S1 sums the whole squared-gap history, S2 the history minus its last
    entry. An empty history (or zero sums) falls back to R_max. A GapHistory
    (OmdState.sq_diff_history) is read in O(1) from its running sums; any
    other sequence is first copied into one, in O(T). A negative, NaN or
    infinite entry raises ValueError.
    """
    if r_max <= 0 or not math.isfinite(r_max):
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    if not isinstance(sq_diff_history, GapHistory):
        sq_diff_history = GapHistory(sq_diff_history)
    s1, s2 = sq_diff_history.sums
    denom = math.sqrt(s1) + math.sqrt(s2)
    if denom == 0.0:
        return r_max
    return r_max * min(1.0 / denom, 1.0)


class RegretCertificate(_BlockRows):
    """Running fixed-step regret inequality: lhs <= divergence + variance - negative.

    lhs        = sum_t <f_t - comparator, gradient_t>
    divergence = D(comparator, g_0) / eta
    variance   = sum_t ||gradient_t - prediction_t||_* ||g_t - f_t||
    negative   = sum_t (||g_t - f_t||^2 + ||g_{t-1} - f_t||^2) / (2 eta)

    g_0 is the divergence minimizer of the map. The inequality holds for
    every comparator in the feasible set, for any positive fixed eta.

    `update` only copies a round into a row of (block, n) buffers: 64 rows,
    or fewer on a map wider than 128. The rows keep the `_rows._BlockRows`
    contract: every read of `lhs`, `variance_term`, `negative_term`, `rhs`,
    `holds()` or `play_sum` folds them first, and `fold()` hands over each
    round's (lhs, rhs) columns and running play sum.
    """

    lhs = _read_folded("lhs")
    variance_term = _read_folded("variance")
    negative_term = _read_folded("negative")

    def __init__(self, mirror_map: MirrorMap, eta: float, comparator):
        # written so that NaN fails the check too
        if not 0.0 < eta < math.inf:
            raise ValueError(f"eta must be positive and finite, got {eta!r}")
        n = mirror_map.dim
        super().__init__(n, _block_rows(n), 2)
        self.mirror_map = mirror_map
        self.eta = eta
        self.comparator = point_weights(comparator)
        g0 = mirror_map.divergence_minimizer()
        self.divergence_term = bregman(mirror_map, self.comparator, g0) / eta
        self._lhs = self._variance = self._negative = 0.0
        self._two_eta = 2.0 * eta
        self._norms = mirror_map.row_norm_pair
        b = self.block
        self._gradient = np.empty((b, n))
        self._prediction = np.empty((b, n))
        # each row's g_t one row down from its g_{t-1}
        self._secondary = np.empty((b + 1, n))
        self._secondary[0] = point_weights(g0)

    def update(self, log: RoundLog) -> None:
        """Take one round into the rows."""
        k = self._row()
        self._play[k] = log.played
        self._secondary[k + 1] = log.secondary
        self._gradient[k] = log.gradient
        self._prediction[k] = log.prediction
        self._rows = k + 1

    def _restart(self) -> None:
        k = self._rows
        super()._restart()
        # the last folded g_t is the next row's g_{t-1}
        self._secondary[0] = self._secondary[k]

    def _fill(self, s: int, k: int, columns: np.ndarray) -> None:
        """Fold rows s..k-1 into the sums and their (lhs, rhs) columns.

        Each row's dot (`_row_dots`) and norms (`row_norm_pair`) have the
        bits of its own, and the sums run as `_run_sum` does. The negative
        term is summed in Python, whose x**2 is not numpy's.
        """
        lhs, rhs = columns
        norm, dual = self._norms
        played = self._play[s:k]
        d = np.subtract(played, self.comparator)
        dots = _row_dots(d, self._gradient[s:k])
        self._lhs = float(_run_sum(dots, self._lhs, lhs)[-1])
        np.subtract(self._secondary[s + 1 : k + 1], played, out=d)
        g_dist = norm(d)
        np.subtract(self._gradient[s:k], self._prediction[s:k], out=d)
        variance = dual(d)
        variance *= g_dist
        self._variance = float(_run_sum(variance, self._variance)[-1])
        np.subtract(self._secondary[s:k], played, out=d)
        negative, two_eta = self._negative, self._two_eta
        column = []
        for g, prev in zip(g_dist.tolist(), norm(d).tolist()):
            negative += (g**2 + prev**2) / two_eta
            column.append(negative)
        self._negative = negative
        # divergence + variance - negative, op by op
        np.subtract(self.divergence_term + variance, column, out=rhs)

    @property
    def rhs(self) -> float:
        return self.divergence_term + self.variance_term - self.negative_term

    def holds(self, tol: float = 1e-9) -> bool:
        return self.lhs <= self.rhs + tol
