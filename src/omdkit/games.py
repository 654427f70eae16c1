"""Strongly-uncoupled zero-sum game dynamics with predictable observations.

Both players run an exponential-weights variant that reuses the single
observation made each round both as the correction for the current round and
as the prediction for the next one, with a uniform-mixing floor and a
data-dependent step size. The bandit variant estimates the observation vector
from four scalar payoffs at perturbed plays along a fixed tangent basis, and
corrects with one estimate while predicting with the other.

Both kinds share one learner, `_Learner`; a side supplies only what it
observes and its step-size rule (`full_info_eta`, `bandit_eta`).

The row player minimizes f^T A x; the column player maximizes it, so its
learner consumes the negated payoff vector and the machinery is shared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._rows import RowTable
from .mirror import SimplexPoint
from .saddle import bilinear_gap

ETA_CAP = 1.0 / 11.0


@dataclass(frozen=True)
class PayoffMatrix:
    """Zero-sum payoff matrix with entries validated into [-1, 1]."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.entries, dtype=float))
        if a.ndim != 2 or a.size == 0:
            raise ValueError("payoff matrix must be a nonempty 2-d array")
        if not np.all(np.isfinite(a)):
            raise ValueError("payoff matrix entries must be finite")
        if np.any(np.abs(a) > 1.0):
            bad = np.unravel_index(int(np.argmax(np.abs(a))), a.shape)
            raise ValueError(
                f"payoff entry at row {bad[0] + 1}, column {bad[1] + 1} lies outside [-1, 1]"
            )
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def m(self) -> int:
        return self.entries.shape[1]


def full_info_eta(sums: tuple[float, float], n: int, T: int) -> float:
    """Step size min{log(nT) / (sqrt(S1) + sqrt(S2)), 1/11}.

    S1 and S2 are the observation-difference sums through the previous round
    and the round before it. A zero denominator takes the cap branch.
    """
    s1, s2 = sums
    # written so that NaN fails the check too
    if not (0.0 <= s1 < math.inf and 0.0 <= s2 < math.inf):
        raise ValueError(f"sums must be nonnegative and finite, got {sums!r}")
    denom = math.sqrt(s1) + math.sqrt(s2)
    if denom == 0.0:
        return ETA_CAP
    return min(math.log(n * T) / denom, ETA_CAP)


class _Learner:
    """The optimistic exponential-weights update that both match kinds run.

    Holds the mixed secondary iterate `g_prime`, the upcoming `play`, the
    uniform-mixing weight `beta`, the running sums `sums` = (S1, S2) of the
    squared observation differences through the last round and through the
    round before it, the last increment `h_last`, and `eta`, the step size
    the last round corrected with (None before the first round). A subclass
    supplies its step-size rule, `_eta()`, read from this state, and what it
    observes.
    """

    def __init__(self, n: int, T: int, beta: float):
        self.n = n
        self.T = T
        self.beta = beta
        self.g_prime = SimplexPoint.uniform(n)
        self.play = SimplexPoint.uniform(n)
        self.sums = (0.0, 0.0)
        self.h_last = 0.0
        self.eta: float | None = None

    def _eta(self) -> float:
        raise NotImplementedError

    def _advance(
        self, increment: float, correction: np.ndarray, prediction: np.ndarray
    ) -> SimplexPoint:
        """Fold one round in and form the next play.

        eta_t (sums through t-1) corrects g'_{t-1} on `correction`; the
        result is mixed toward uniform; eta_{t+1} (sums through t, so
        including `increment`) steps it toward `prediction`. Returns the
        unmixed secondary iterate g_t.
        """
        eta_t = self._eta()
        self.sums = (self.sums[0] + increment, self.sums[0])
        self.h_last = increment
        eta_next = self._eta()
        g_t = self.g_prime.exp_step(eta_t * correction)
        self.g_prime = g_t.mix(self.beta)
        self.play = self.g_prime.exp_step(eta_next * prediction)
        self.eta = eta_t
        return g_t


class SideCertificate:
    """One player's running per-vertex regret inequality.

    Each `update` folds one round in; the claim is max(lhs_per_vertex) <= rhs,
    checkable after every round:
    (1/eta_1 + 1/eta_t) log(n T^2) + sum_s ||obs_s - obs_{s-1}||_inf ||g_s - f_s||_1
    - (1/2) sum_s eta_s^-1 (||g'_s - f_s||_1^2 + ||g'_{s-1} - f_s||_1^2) + 1.
    """

    def __init__(self, n: int, T: int):
        self.r_sq = math.log(n * T * T)
        self.cum_obs = np.zeros(n)
        self.cum_play_loss = 0.0
        self.variance = 0.0
        self.negative = 0.0
        self.eta_first: float | None = None
        self.eta_last: float | None = None

    def update(self, play, observation, eta, increment, secondary, mixed_prev, mixed) -> None:
        """Fold in one round: f_t, obs_t, eta_t, ||obs_t - obs_{t-1}||_inf^2,
        g_t, and the mixed iterates g'_{t-1} and g'_t."""
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
        return float(np.maximum.reduce(self.lhs_per_vertex))

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


class FullInfoPlayer(_Learner):
    """One side of the full-information dynamics.

    Observes its whole payoff vector each round and steps with
    `full_info_eta`. Besides the learner's state it keeps the last
    observation and its own `certificate`, which every round folds into.
    The first play is uniform; `initial_observation` is the observation the
    opponent's prescribed uniform start would induce (it seeds the t = 1
    difference).
    """

    def __init__(self, n: int, T: int, initial_observation, mixing: bool = True):
        if n < 1:
            raise ValueError("n must be at least 1")
        if T < 2:
            raise ValueError("T must be at least 2")
        super().__init__(n, T, 1.0 / (T * T) if mixing else 0.0)
        self.last_observation = np.asarray(initial_observation, dtype=float)
        if self.last_observation.shape != (n,):
            raise ValueError("initial observation has the wrong dimension")
        self.certificate = SideCertificate(n, T)

    def _eta(self) -> float:
        return full_info_eta(self.sums, self.n, self.T)

    def step(self, w: np.ndarray) -> tuple[float, float, float]:
        """One round on loss direction w; returns (eta_t, cert lhs, cert rhs)."""
        full_info_step(self, w)
        return self.eta, self.certificate.lhs, self.certificate.rhs


def full_info_step(player: FullInfoPlayer, observation) -> tuple[SimplexPoint, FullInfoPlayer]:
    """Advance one round on the given observation vector.

    Folds ||obs_t - obs_{t-1}||_inf^2 into the running sums, updates the
    secondary iterate with eta_t (sums through t-1), applies the uniform
    mixing floor, forms the next play with eta_{t+1} (sums through t), and
    folds the round into the player's certificate. This is where an
    observation is checked: its shape, and that every entry is finite.
    Returns (next play, updated player).
    """
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
    return player.play, player


@dataclass
class TraceRow:
    t: int
    eta_row: float
    eta_col: float
    gap: float
    cert_lhs_row: float
    cert_rhs_row: float
    cert_lhs_col: float
    cert_rhs_col: float


@dataclass
class MatchResult:
    f_average: np.ndarray
    x_average: np.ndarray
    gap: float
    trace: RowTable  # of TraceRow
    row_certificate: SideCertificate | None = None
    col_certificate: SideCertificate | None = None
    # neither match kind keeps per-round records; these stay empty
    row_records: list = field(default_factory=list)
    col_records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def _self_play(a: np.ndarray, T: int, row, col) -> MatchResult:
    """The self-play round both match kinds share.

    Each round reads both plays (`side.play`), hands each side the payoff
    vector its opponent's play induces, and keeps only running state: the
    play and payoff sums behind the running gap, and one TraceRow, stored in
    the columns of a RowTable.
    side.step(w) advances a side on its loss direction w and returns that
    side's trace entries (eta, lhs, rhs).
    """
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
        eta_row, lhs_row, rhs_row = row.step(Ax)
        eta_col, lhs_col, rhs_col = col.step(-fA)
        f_sum += f
        x_sum += x
        fA_sum += fA
        Ax_sum += Ax
        gap_t = float(np.maximum.reduce(fA_sum) - np.minimum.reduce(Ax_sum)) / t
        trace.append(t, eta_row, eta_col, gap_t, lhs_row, rhs_row, lhs_col, rhs_col)
    f_avg = f_sum / T
    x_avg = x_sum / T
    return MatchResult(
        f_average=f_avg, x_average=x_avg, gap=bilinear_gap(a, f_avg, x_avg), trace=trace
    )


def run_full_info_match(A, T: int, mixing: bool = True) -> MatchResult:
    """Self-play for T rounds; both sides start uniform and observe exactly
    the payoff vector their opponent's play induces. Each side folds every
    round into its own certificate as it plays; no records are kept."""
    payoff = A if isinstance(A, PayoffMatrix) else PayoffMatrix(A)
    a = payoff.entries
    n, m = payoff.n, payoff.m
    row = FullInfoPlayer(n, T, a @ np.full(m, 1.0 / m), mixing=mixing)
    col = FullInfoPlayer(m, T, -(np.full(n, 1.0 / n) @ a), mixing=mixing)
    result = _self_play(a, T, row, col)
    result.row_certificate = row.certificate
    result.col_certificate = col.certificate
    return result


@dataclass
class OpponentRun:
    """Row-player trajectory against an arbitrary opponent."""

    certificate: SideCertificate
    regret: float
    obs_variation: float  # sum of squared sup-norm observation differences
    f_average: np.ndarray


def run_full_info_vs(
    A, T: int, opponent: Callable[[int, np.ndarray | None], np.ndarray], mixing: bool = True
) -> OpponentRun:
    """Run the row player against an opponent callback.

    The opponent sees the round index and the row player's previous play
    (None on round 1) and returns its mixed strategy x_t.
    """
    payoff = A if isinstance(A, PayoffMatrix) else PayoffMatrix(A)
    a = payoff.entries
    n, m = payoff.n, payoff.m
    row = FullInfoPlayer(n, T, a @ np.full(m, 1.0 / m), mixing=mixing)
    f_sum = np.zeros(n)
    f_prev = None
    for t in range(1, T + 1):
        x = np.asarray(opponent(t, f_prev), dtype=float)
        # written so that a NaN entry fails the check too
        if not (x.shape == (m,) and np.all(x >= -1e-12) and abs(x.sum() - 1.0) <= 1e-9):
            raise ValueError(f"opponent returned an invalid mixed strategy on round {t}")
        f = row.play.weights
        full_info_step(row, a @ x)
        f_sum += f
        f_prev = f
    return OpponentRun(
        certificate=row.certificate,
        regret=row.certificate.lhs,
        obs_variation=row.sums[0],
        f_average=f_sum / T,
    )


# ---------------------------------------------------------------- bandit


def tangent_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the simplex tangent space {v : sum v = 0}.

    Row k has k ones then -k then zeros, scaled by 1/sqrt(k(k+1)).
    """
    if n < 2:
        raise ValueError("tangent basis needs n >= 2")
    basis = np.zeros((n - 1, n))
    for k in range(1, n):
        basis[k - 1, :k] = 1.0
        basis[k - 1, k] = -float(k)
        basis[k - 1] /= math.sqrt(k * (k + 1))
    return basis


def bandit_estimate(r_plus: float, r_minus: float, delta: float, direction, n: int) -> np.ndarray:
    """Finite-difference gradient estimate (n / 2 delta)(r+ - r-) * direction."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    return (n / (2.0 * delta)) * (r_plus - r_minus) * np.asarray(direction, dtype=float)


def bandit_cap(own_dim: int, opp_dim: int, T: int) -> float:
    return 1.0 / (28.0 * opp_dim * math.sqrt(math.log(opp_dim * T)))


def bandit_eta(
    sums: tuple[float, float], h_last: float, own_dim: int, opp_dim: int, T: int
) -> float:
    """Bandit step size: difference form of the data-dependent rule.

    min{ sqrt(log(own T)) (sqrt(S1) - sqrt(S2)) / h_last, cap } with cap
    1/(28 opp sqrt(log(opp T))). S1 and S2 are the squared estimate-difference
    sums through the last round and the round before it, and h_last is the
    last increment; a zero h_last (no round yet, or a repeated estimate)
    takes the cap branch.
    """
    s1, s2 = sums
    # written so that NaN fails the check too
    if not (0.0 <= s1 < math.inf and 0.0 <= s2 < math.inf and 0.0 <= h_last < math.inf):
        raise ValueError(
            f"sums and the last increment must be nonnegative and finite, got {sums!r}, {h_last!r}"
        )
    cap = bandit_cap(own_dim, opp_dim, T)
    if h_last == 0.0:
        return cap
    val = math.sqrt(math.log(own_dim * T)) * (math.sqrt(s1) - math.sqrt(s2)) / h_last
    return min(val, cap)


def simplex_floor_delta(n: int, T: int) -> float:
    """Largest perturbation the mixing floor tolerates: (beta/n) / max_k ||u_k||_inf.

    The tangent basis's largest entry is the last row's -(n-1)/sqrt((n-1) n),
    so the basis itself is not built.
    """
    if n < 2:
        raise ValueError("tangent basis needs n >= 2")
    beta = 1.0 / (T * T)
    return (beta / n) / ((n - 1) / math.sqrt((n - 1) * n))


def _estimator_tol(basis: np.ndarray, delta: float) -> float:
    """Bound on the rounding in one side's estimator enumeration error.

    The regrouped difference (base + d) - (base - d), with |base| <= 1 and
    |d| <= delta sqrt(n), carries up to about 2^-53 (1 + delta sqrt(n)) of
    rounding per endpoint; the estimate amplifies it by n / (2 delta) and
    the enumeration averages the basis entries of each column over n - 1.
    """
    n = basis.shape[1]
    col_l1 = float(np.max(np.abs(basis).sum(axis=0)))
    return n * 2.0**-53 * (1.0 + delta * math.sqrt(n)) / delta * col_l1 / (n - 1.0)


class _BanditSide(_Learner):
    """One side of the bandit dynamics: observes four scalar payoffs a round
    and steps with `bandit_eta`."""

    def __init__(self, own_dim: int, opp_dim: int, T: int, delta: float, rng):
        super().__init__(own_dim, T, 1.0 / (T * T))
        self.opp = opp_dim
        self.delta = delta
        self.basis = tangent_basis(own_dim)
        self.rng = rng
        self.prev_index = int(rng.integers(own_dim - 1))
        self.last_bar = np.zeros(own_dim)
        self.cap = bandit_cap(own_dim, opp_dim, T)
        self.min_perturbed = math.inf
        self.max_error = 0.0  # largest estimator enumeration error so far

    def _eta(self) -> float:
        return bandit_eta(self.sums, self.h_last, self.n, self.opp, self.T)

    def step(self, payoff_vector: np.ndarray) -> tuple[float, float, float]:
        """One round given this side's loss direction w (own loss = play @ w).

        Observes four scalars at plays perturbed along the previous and the
        freshly drawn basis directions, forms the two estimates, and updates.
        Returns (eta_t, eta_t, cap): the step discipline is the certificate.
        `max_error` keeps the largest estimator enumeration error so far.
        """
        f = self.play.weights
        base = float(f @ payoff_vector)
        new_index = int(self.rng.integers(self.n - 1))
        u_prev = self.basis[self.prev_index]
        u_new = self.basis[new_index]
        # payoffs regrouped as base +- delta*(u @ w): the difference cancels
        # the base exactly, which the estimate's 1/delta amplification needs
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

        # enumeration identity: averaging the estimate over every basis index
        # must reproduce (n/(n-1)) * tangent projection of the payoff vector
        diffs = self.delta * (self.basis @ payoff_vector)
        ests = (self.n / (2.0 * self.delta)) * (
            ((base + diffs) - (base - diffs))[:, None] * self.basis
        )
        target = (self.n / (self.n - 1.0)) * (payoff_vector - np.add.reduce(payoff_vector) / self.n)
        err = float(np.maximum.reduce(np.abs(np.add.reduce(ests) / (self.n - 1.0) - target)))
        self.max_error = max(self.max_error, err)
        return self.eta, self.eta, self.cap


def run_bandit_match(A, T: int, delta: float | None = None, seed: int = 0) -> MatchResult:
    """Bandit self-play: each side sees only four scalar payoffs per round.

    delta defaults to min(1e-6, half of each side's mixing-floor bound) and
    is rejected above the floor bound (perturbed plays must stay inside the
    simplex). A single seeded generator is split once per player, so reruns
    with the same arguments are bit-identical.
    """
    payoff = A if isinstance(A, PayoffMatrix) else PayoffMatrix(A)
    a = payoff.entries
    n, m = payoff.n, payoff.m
    if n < 2 or m < 2:
        raise ValueError("bandit dynamics need at least two actions per side")
    if T < 2:
        raise ValueError("T must be at least 2")
    floor = min(simplex_floor_delta(n, T), simplex_floor_delta(m, T))
    if delta is None:
        delta = min(1e-6, 0.5 * floor)
    # written so that a NaN delta fails the check too; inf exceeds the floor
    if not delta > 0:
        raise ValueError("delta must be positive")
    if delta > floor:
        raise ValueError(
            f"delta {delta:g} exceeds the mixing-floor bound {floor:g}; "
            "perturbed plays would leave the simplex"
        )
    rng = np.random.default_rng(seed)
    row_rng, col_rng = rng.spawn(2)
    row = _BanditSide(n, m, T, delta, row_rng)
    col = _BanditSide(m, n, T, delta, col_rng)
    # the guard on the estimator error; its 1e-9 floor is the short-horizon
    # threshold, where delta is large enough that rounding stays far below it
    estimator_tol = max(1e-9, _estimator_tol(row.basis, delta), _estimator_tol(col.basis, delta))

    result = _self_play(a, T, row, col)
    result.summary = {
        "delta": delta,
        "estimator_error_row": row.max_error,
        "estimator_error_col": col.max_error,
        "estimator_tol": estimator_tol,
        "cap_row": row.cap,
        "cap_col": col.cap,
        "min_perturbed_play": min(row.min_perturbed, col.min_perturbed),
    }
    return result
