"""Strongly-uncoupled zero-sum game dynamics with predictable observations.

Both players run an exponential-weights variant that reuses the single
observation made each round both as the correction for the current round and
as the prediction for the next one, with a uniform-mixing floor and a
data-dependent step size. The bandit variant estimates the observation vector
from four scalar payoffs at perturbed plays along a fixed tangent basis.

The row player minimizes f^T A x; the column player maximizes it, so its
learner consumes the negated payoff vector and the machinery is shared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

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
    if s1 < 0 or s2 < 0:
        raise ValueError("sums must be nonnegative")
    denom = math.sqrt(s1) + math.sqrt(s2)
    if denom == 0.0:
        return ETA_CAP
    return min(math.log(n * T) / denom, ETA_CAP)


@dataclass
class GameRound:
    """Internals of one full-information round, as consumed by the certificate."""

    t: int
    play: np.ndarray
    observation: np.ndarray
    secondary: np.ndarray
    mixed_prev: np.ndarray
    mixed: np.ndarray
    eta: float
    eta_next: float
    increment: float


class FullInfoPlayer:
    """One side of the full-information dynamics.

    Carries the mixed secondary iterate, the upcoming play, the last
    observation, and running sums of the squared observation differences.
    The first play is uniform; `initial_observation` is the observation the
    opponent's prescribed uniform start would induce (it seeds the t = 1
    difference).
    """

    def __init__(self, n: int, T: int, initial_observation, mixing: bool = True):
        if n < 1:
            raise ValueError("n must be at least 1")
        if T < 2:
            raise ValueError("T must be at least 2")
        self.n = n
        self.T = T
        self.beta = 1.0 / (T * T) if mixing else 0.0
        self.g_prime = SimplexPoint.uniform(n)
        self.play = SimplexPoint.uniform(n)
        self.last_observation = np.asarray(initial_observation, dtype=float)
        if self.last_observation.shape != (n,):
            raise ValueError("initial observation has the wrong dimension")
        self._s1 = 0.0  # sum of the squared differences so far
        self._s2 = 0.0  # the same sum without its last entry
        self.round = 0
        self.last_record: GameRound | None = None


def full_info_step(player: FullInfoPlayer, observation) -> tuple[SimplexPoint, FullInfoPlayer]:
    """Advance one round on the given observation vector.

    Appends ||obs_t - obs_{t-1}||_inf^2 to the history, updates the secondary
    iterate with eta_t (history through t-1), applies the uniform mixing
    floor, and forms the next play with eta_{t+1} (history through t).
    Returns (next play, updated player).
    """
    obs = np.asarray(observation, dtype=float)
    if obs.shape != (player.n,):
        raise ValueError("observation has the wrong dimension")
    if not np.all(np.isfinite(obs)):
        raise ValueError("observation has non-finite entries")
    t = player.round + 1
    increment = float(np.max(np.abs(obs - player.last_observation))) ** 2
    eta_t = full_info_eta((player._s1, player._s2), player.n, player.T)
    player._s2 = player._s1
    player._s1 = player._s1 + increment
    eta_next = full_info_eta((player._s1, player._s2), player.n, player.T)

    played = player.play
    mixed_prev = player.g_prime
    shifted = obs - obs.max()  # constant shifts cancel in the normalization
    g_t = mixed_prev.exp_step(eta_t * shifted)
    g_mixed = g_t.mix(player.beta)
    next_play = g_mixed.exp_step(eta_next * shifted)

    player.g_prime = g_mixed
    player.play = next_play
    player.last_observation = obs
    player.round = t
    player.last_record = GameRound(
        t=t,
        play=played.weights,
        observation=obs,
        secondary=g_t.weights,
        mixed_prev=mixed_prev.weights,
        mixed=g_mixed.weights,
        eta=eta_t,
        eta_next=eta_next,
        increment=increment,
    )
    return next_play, player


class SideCertificate:
    """One player's running per-vertex regret inequality.

    Each `update` folds one GameRound in; the claim is max(lhs_per_vertex)
    <= rhs, checkable after every round.
    """

    def __init__(self, n: int, T: int):
        self.r_sq = math.log(n * T * T)
        self.cum_obs = np.zeros(n)
        self.cum_play_loss = 0.0
        self.variance = 0.0
        self.negative = 0.0
        self.eta_first: float | None = None
        self.eta_last: float | None = None

    def update(self, rec: GameRound) -> None:
        f = rec.play
        self.cum_obs += rec.observation
        self.cum_play_loss += float(f @ rec.observation)
        self.variance += math.sqrt(rec.increment) * float(np.abs(rec.secondary - f).sum())
        self.negative += (1.0 / rec.eta) * (
            float(np.abs(rec.mixed - f).sum()) ** 2
            + float(np.abs(rec.mixed_prev - f).sum()) ** 2
        )
        if self.eta_first is None:
            self.eta_first = rec.eta
        self.eta_last = rec.eta

    @property
    def lhs_per_vertex(self) -> np.ndarray:
        return self.cum_play_loss - self.cum_obs

    @property
    def lhs(self) -> float:
        return float(np.max(self.lhs_per_vertex))

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


def full_info_regret_certificate(
    records: Sequence[GameRound], horizon: int
) -> tuple[np.ndarray, float]:
    """Evaluate the realized regret bound over a full trajectory.

    Returns (lhs per vertex comparator, rhs). The claim is max(lhs) <= rhs:
    (1/eta_1 + 1/eta_T) log(n T^2) + sum_t ||obs_t - obs_{t-1}||_inf ||g_t - f_t||_1
    - (1/2) sum_t eta_t^-1 (||g'_t - f_t||_1^2 + ||g'_{t-1} - f_t||_1^2) + 1.
    """
    if not records:
        raise ValueError("certificate needs at least one round")
    cert = SideCertificate(records[0].play.size, horizon)
    for rec in records:
        cert.update(rec)
    return cert.lhs_per_vertex, cert.rhs


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
    trace: list[TraceRow]
    row_certificate: SideCertificate | None = None
    col_certificate: SideCertificate | None = None
    row_records: list = field(default_factory=list)
    col_records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def run_full_info_match(A, T: int, mixing: bool = True) -> MatchResult:
    """Self-play for T rounds; both sides start uniform and observe exactly
    the payoff vector their opponent's play induces."""
    payoff = A if isinstance(A, PayoffMatrix) else PayoffMatrix(A)
    a = payoff.entries
    n, m = payoff.n, payoff.m
    row = FullInfoPlayer(n, T, a @ np.full(m, 1.0 / m), mixing=mixing)
    col = FullInfoPlayer(m, T, -(np.full(n, 1.0 / n) @ a), mixing=mixing)
    acc_row = SideCertificate(n, T)
    acc_col = SideCertificate(m, T)
    f_sum = np.zeros(n)
    x_sum = np.zeros(m)
    fA_sum = np.zeros(m)
    Ax_sum = np.zeros(n)
    trace: list[TraceRow] = []
    row_records: list[GameRound] = []
    col_records: list[GameRound] = []
    for t in range(1, T + 1):
        f = row.play.weights
        x = col.play.weights
        obs_row = a @ x
        obs_col = -(f @ a)
        _, row = full_info_step(row, obs_row)
        _, col = full_info_step(col, obs_col)
        f_sum += f
        x_sum += x
        fA_sum += f @ a
        Ax_sum += obs_row
        acc_row.update(row.last_record)
        acc_col.update(col.last_record)
        row_records.append(row.last_record)
        col_records.append(col.last_record)
        gap_t = float(np.max(fA_sum) - np.min(Ax_sum)) / t
        trace.append(
            TraceRow(
                t=t,
                eta_row=row.last_record.eta,
                eta_col=col.last_record.eta,
                gap=gap_t,
                cert_lhs_row=acc_row.lhs,
                cert_rhs_row=acc_row.rhs,
                cert_lhs_col=acc_col.lhs,
                cert_rhs_col=acc_col.rhs,
            )
        )
    f_avg = f_sum / T
    x_avg = x_sum / T
    return MatchResult(
        f_average=f_avg,
        x_average=x_avg,
        gap=bilinear_gap(a, f_avg, x_avg),
        trace=trace,
        row_certificate=acc_row,
        col_certificate=acc_col,
        row_records=row_records,
        col_records=col_records,
    )


@dataclass
class OpponentRun:
    """Row-player trajectory against an arbitrary opponent."""

    records: list
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
    cert = SideCertificate(n, T)
    records = []
    f_sum = np.zeros(n)
    f_prev = None
    for t in range(1, T + 1):
        x = np.asarray(opponent(t, f_prev), dtype=float)
        if x.shape != (m,) or np.any(x < -1e-12) or abs(x.sum() - 1.0) > 1e-9:
            raise ValueError(f"opponent returned an invalid mixed strategy on round {t}")
        f = row.play.weights
        _, row = full_info_step(row, a @ x)
        cert.update(row.last_record)
        records.append(row.last_record)
        f_sum += f
        f_prev = f
    return OpponentRun(
        records=records,
        certificate=cert,
        regret=cert.lhs,
        obs_variation=sum(r.increment for r in records),
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
    if delta <= 0:
        raise ValueError("delta must be positive")
    return (n / (2.0 * delta)) * (r_plus - r_minus) * np.asarray(direction, dtype=float)


def bandit_cap(own_dim: int, opp_dim: int, T: int) -> float:
    return 1.0 / (28.0 * opp_dim * math.sqrt(math.log(opp_dim * T)))


def _bandit_eta_from_sums(
    s1: float, s2: float, h_last: float | None, own_dim: int, opp_dim: int, T: int
) -> float:
    cap = bandit_cap(own_dim, opp_dim, T)
    if h_last is None or h_last == 0.0:
        return cap
    val = math.sqrt(math.log(own_dim * T)) * (math.sqrt(s1) - math.sqrt(s2)) / h_last
    return min(val, cap)


def bandit_eta(history: Sequence[float], own_dim: int, opp_dim: int, T: int) -> float:
    """Bandit step size: difference form of the data-dependent rule.

    min{ sqrt(log(own T)) (sqrt(S1) - sqrt(S2)) / h_last, cap } with cap
    1/(28 opp sqrt(log(opp T))); an empty history or a zero last increment
    takes the cap branch.
    """
    hist = list(history)
    if any(h < 0 for h in hist):
        raise ValueError("history entries must be nonnegative")
    if not hist:
        return _bandit_eta_from_sums(0.0, 0.0, None, own_dim, opp_dim, T)
    return _bandit_eta_from_sums(
        math.fsum(hist), math.fsum(hist[:-1]), hist[-1], own_dim, opp_dim, T
    )


def simplex_floor_delta(n: int, T: int) -> float:
    """Largest perturbation the mixing floor tolerates: (beta/n) / max_k ||u_k||_inf."""
    basis = tangent_basis(n)
    beta = 1.0 / (T * T)
    return (beta / n) / float(np.abs(basis).max())


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


class _BanditSide:
    def __init__(self, own_dim: int, opp_dim: int, T: int, delta: float, rng):
        self.n = own_dim
        self.opp = opp_dim
        self.T = T
        self.delta = delta
        self.beta = 1.0 / (T * T)
        self.basis = tangent_basis(own_dim)
        self.g_prime = SimplexPoint.uniform(own_dim)
        self.play = SimplexPoint.uniform(own_dim)
        self.rng = rng
        self.prev_index = int(rng.integers(own_dim - 1))
        self.last_bar = np.zeros(own_dim)
        self._h_last: float | None = None  # last squared estimate difference
        self._s1 = 0.0
        self._s2 = 0.0
        self.cap = bandit_cap(own_dim, opp_dim, T)
        self.min_perturbed = math.inf

    def step(self, payoff_vector: np.ndarray) -> tuple[float, float]:
        """One round given this side's loss direction w (own loss = play @ w).

        Observes four scalars at plays perturbed along the previous and the
        freshly drawn basis directions, forms the two estimates, and updates.
        Returns (eta_t, estimator enumeration error).
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
            float(np.min(f - self.delta * np.abs(u_prev))),
            float(np.min(f - self.delta * np.abs(u_new))),
        )
        est_hat = bandit_estimate(base + d_prev, base - d_prev, self.delta, u_prev, self.n)
        est_bar = bandit_estimate(base + d_new, base - d_new, self.delta, u_new, self.n)

        eta_t = _bandit_eta_from_sums(
            self._s1, self._s2, self._h_last, self.n, self.opp, self.T
        )
        increment = float(np.max(np.abs(est_hat - self.last_bar))) ** 2
        self._h_last = increment
        self._s2 = self._s1
        self._s1 = self._s1 + increment
        eta_next = _bandit_eta_from_sums(
            self._s1, self._s2, increment, self.n, self.opp, self.T
        )

        g_t = self.g_prime.exp_step(eta_t * est_hat)
        g_mixed = g_t.mix(self.beta)
        self.play = g_mixed.exp_step(eta_next * est_bar)
        self.g_prime = g_mixed
        self.prev_index = new_index
        self.last_bar = est_bar

        # enumeration identity: averaging the estimate over every basis index
        # must reproduce (n/(n-1)) * tangent projection of the payoff vector
        diffs = self.delta * (self.basis @ payoff_vector)
        ests = (self.n / (2.0 * self.delta)) * (
            ((base + diffs) - (base - diffs))[:, None] * self.basis
        )
        target = (self.n / (self.n - 1.0)) * (payoff_vector - payoff_vector.mean())
        err = float(np.max(np.abs(ests.sum(axis=0) / (self.n - 1.0) - target)))
        return eta_t, err


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
    if delta <= 0:
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
    f_sum = np.zeros(n)
    x_sum = np.zeros(m)
    fA_sum = np.zeros(m)
    Ax_sum = np.zeros(n)
    trace: list[TraceRow] = []
    max_err_row = 0.0
    max_err_col = 0.0
    for t in range(1, T + 1):
        f = row.play.weights
        x = col.play.weights
        w_row = a @ x
        w_col = -(f @ a)
        eta_row, err_row = row.step(w_row)
        eta_col, err_col = col.step(w_col)
        max_err_row = max(max_err_row, err_row)
        max_err_col = max(max_err_col, err_col)
        f_sum += f
        x_sum += x
        fA_sum += f @ a
        Ax_sum += w_row
        gap_t = float(np.max(fA_sum) - np.min(Ax_sum)) / t
        trace.append(
            TraceRow(
                t=t,
                eta_row=eta_row,
                eta_col=eta_col,
                gap=gap_t,
                cert_lhs_row=eta_row,
                cert_rhs_row=row.cap,
                cert_lhs_col=eta_col,
                cert_rhs_col=col.cap,
            )
        )
    f_avg = f_sum / T
    x_avg = x_sum / T
    return MatchResult(
        f_average=f_avg,
        x_average=x_avg,
        gap=bilinear_gap(a, f_avg, x_avg),
        trace=trace,
        summary={
            "delta": delta,
            "estimator_error_row": max_err_row,
            "estimator_error_col": max_err_col,
            "estimator_tol": estimator_tol,
            "cap_row": row.cap,
            "cap_col": col.cap,
            "min_perturbed_play": min(row.min_perturbed, col.min_perturbed),
        },
    )
