"""Strongly-uncoupled zero-sum game dynamics with predictable observations.

Both players run an exponential-weights variant that reuses the single
observation made each round both as the correction for the current round and
as the prediction for the next one, with a uniform-mixing floor and a
data-dependent step size. The bandit variant estimates the observation vector
from four scalar payoffs at perturbed plays along a fixed tangent basis, and
corrects with one estimate while predicting with the other.

Both kinds share one learner, `_Learner`; a side supplies only what it
observes and its step-size rule (`full_info_eta`, `bandit_eta`).

Both kinds also keep the block contract of every certificate,
`_rows._BlockRows`, through `_SideRows`. A round does only what the next
round depends on, the learner's step with its increment and step size, and
copies its loss direction and its play into a row. The rest is folded once
per block of rounds, each row read once and then turned, in place, into its
running sum: the loss directions' `cum_obs` with each round's minimum, which
the match's running gap reads; the play sum behind the averages; and the
side's trace columns, eta and a full-information side's certificate (lhs,
rhs) or a bandit side's (eta, cap). A bandit side's estimator guard is part
of its fold: it checks the enumeration identity for every round and basis
index, and takes the smallest perturbed-play entry over every round and both
of its basis rows, each round when its row is folded (in a match, every
block; otherwise, any read). The match appends a block's trace rows at once.

The row player minimizes f^T A x; the column player maximizes it, so its
learner consumes the negated payoff vector and the machinery is shared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._rows import RowTable, _block_rows, _BlockRows, _read_folded, _row_dots, _run_sum
from .mirror import SimplexPoint
from .saddle import _payoff_matrix, bilinear_gap

ETA_CAP = 1.0 / 11.0
# rounds a bandit side buffers before it folds them, its guard included
_GUARD_BLOCK = 64


@dataclass(frozen=True)
class PayoffMatrix:
    """Zero-sum payoff matrix with entries validated into [-1, 1]."""

    entries: np.ndarray

    def __post_init__(self):
        a = _payoff_matrix(np.atleast_2d(self.entries))
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
    return _full_info_eta(sums, math.log(n * T))


def _full_info_eta(sums: tuple[float, float], log_nt: float) -> float:
    """`full_info_eta` given its constant log_nt = log(nT)."""
    s1, s2 = sums
    # written so that NaN fails the check too
    if not (0.0 <= s1 < math.inf and 0.0 <= s2 < math.inf):
        raise ValueError(f"sums must be nonnegative and finite, got {sums!r}")
    denom = math.sqrt(s1) + math.sqrt(s2)
    if denom == 0.0:
        return ETA_CAP
    return min(log_nt / denom, ETA_CAP)


class _Learner:
    """The optimistic exponential-weights update that both match kinds run.

    Holds the mixed secondary iterate `g_prime`, the upcoming `play`, the
    uniform-mixing weight `beta`, the running sums `sums` = (S1, S2) of the
    squared observation differences through the last round and through the
    round before it, the last increment `h_last`, and `eta`, the step size
    the last round corrected with (None before the first round). A subclass
    supplies its step-size rule, `_eta()`, read from this state, and what it
    observes; it sets whatever else `_eta()` reads before calling this
    constructor, which evaluates the rule once for the first round.
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
        self._eta_next = self._eta()  # eta_t of the coming round

    def _eta(self) -> float:
        raise NotImplementedError

    def _advance(
        self, increment: float, correction: np.ndarray, prediction: np.ndarray
    ) -> SimplexPoint:
        """Fold one round in and form the next play.

        eta_t (sums through t-1) corrects g'_{t-1} on `correction`; the
        result is mixed toward uniform, which puts every entry of g'_t at or
        above beta/n exactly; eta_{t+1} (sums through t, so including
        `increment`) steps it toward `prediction`. eta_{t+1} is also the
        next round's eta_t, so the rule is evaluated once a round. Nothing
        is re-checked here: the caller has checked the observation.
        Returns the unmixed secondary iterate g_t.
        """
        eta_t = self._eta_next
        self.sums = (self.sums[0] + increment, self.sums[0])
        self.h_last = increment
        self._eta_next = eta_next = self._eta()
        g_t = self.g_prime.exp_step(eta_t * correction)
        self.g_prime = g_t.mix(self.beta)
        self.play = self.g_prime.exp_step(eta_next * prediction)
        self.eta = eta_t
        return g_t


class _SideRows(_BlockRows):
    """What both self-play side kinds fold alike, on the `_rows._BlockRows`
    contract: each round's loss direction, in a row beside its play.

    The loss direction rows become, in place, the running sum `cum_obs`
    after each round, and each round's min(cum_obs), which the match's
    running gap reads, goes into a column; a kind's `_fill` reads its loss
    rows before it calls this one's. The columns are each round's (eta, lhs,
    rhs, min cum_obs): a round writes its eta when it takes its row, and a
    kind's `_fill` writes lhs and rhs.
    """

    cum_obs = _read_folded("cum_obs")
    min_obs = _read_folded("min_obs")

    def __init__(self, n: int, block: int):
        super().__init__(n, block, 4)
        self._cum_obs = np.zeros(n)
        self._min_obs = 0.0
        self._obs = np.empty((block, n))

    def _fill(self, s: int, k: int, columns: np.ndarray) -> None:
        sums = _run_sum(self._obs[s:k], self._cum_obs)
        self._cum_obs[:] = sums[-1]
        self._min_obs = float(np.minimum.reduce(sums, axis=1, out=columns[3])[-1])


class SideCertificate(_SideRows):
    """One player's running per-vertex regret inequality.

    The claim is max(lhs_per_vertex) <= rhs, checkable after every round:
    (1/eta_1 + 1/eta_t) log(n T^2) + sum_s ||obs_s - obs_{s-1}||_inf ||g_s - f_s||_1
    - (1/2) sum_s eta_s^-1 (||g'_s - f_s||_1^2 + ||g'_{s-1} - f_s||_1^2) + 1.

    `update` takes a round into the rows; its play loss f_t . obs_t is
    folded with the rest, one BLAS dot a row (`_row_dots`). `cum_obs` is the
    player's running observation sum, the only one the match keeps for this
    side; `lhs` and the match's gap read its minimum. The columns are each
    round's (eta, lhs, rhs, min cum_obs), and every read (`cum_play_loss`,
    `variance`, `negative`, and so `lhs`, `rhs`, `holds`) folds the buffered
    rounds first. A block is 64 rounds, or fewer on a wide side, so that a
    buffer holds at most 8192 doubles.
    """

    cum_play_loss = _read_folded("cum_play_loss")
    variance = _read_folded("variance")
    negative = _read_folded("negative")

    def __init__(self, n: int, T: int):
        super().__init__(n, _block_rows(n))
        b = self.block
        self.r_sq = math.log(n * T * T)
        self._cum_play_loss = 0.0
        self._variance = 0.0
        self._negative = 0.0
        self.eta_first: float | None = None
        self.eta_last: float | None = None
        # each row's g_t, g'_t one row down from its g'_{t-1}, and its
        # increment
        self._secondary = np.empty((b, n))
        self._mixed = np.empty((b + 1, n))
        self._mixed_last = None  # the array handed in as the last g'_t
        self._increments = np.empty(b)

    def update(self, play, observation, eta, increment, secondary, mixed_prev, mixed) -> None:
        """Take in one round: f_t, obs_t, eta_t, ||obs_t - obs_{t-1}||_inf^2,
        g_t, and the mixed iterates g'_{t-1} and g'_t."""
        k = self._row()
        if k == 0 or mixed_prev is not self._mixed_last:
            # g'_{t-1} is not the g'_t taken last: the rows before it are
            # folded first, so that its slot is free
            self._fold_sums()
            self._mixed[k] = mixed_prev
        self._obs[k] = observation
        self._play[k] = play
        self._secondary[k] = secondary
        self._mixed[k + 1] = mixed
        self._mixed_last = mixed
        self._columns[0, k] = eta
        self._increments[k] = increment
        self._rows = k + 1
        if self.eta_first is None:
            self.eta_first = eta
        self.eta_last = eta

    def _fill(self, s: int, k: int, columns: np.ndarray) -> None:
        """Fold rows s..k-1 into the certificate's sums and their (lhs, rhs)
        columns.

        The running sums run as `_run_sum` does; a row-wise sum is each
        row's own sum, bit for bit. The negative term is summed in Python,
        whose x**2 is not numpy's. The play losses are taken before
        `_SideRows._fill` turns the loss rows into running sums.
        """
        play, dist = self._play[s:k], self._secondary[s:k]
        loss = _row_dots(play, self._obs[s:k])
        super()._fill(s, k, columns)
        etas, lhs, rhs, low = columns
        self._cum_play_loss = float(_run_sum(loss, self._cum_play_loss)[-1])
        np.subtract(loss, low, out=lhs)
        # the ell_1 distances to f_t, of g_t, g'_{t-1} and g'_t in turn, each
        # in the secondary buffer
        np.subtract(dist, play, out=dist)
        variance = np.sqrt(self._increments[s:k])
        variance *= np.add.reduce(np.abs(dist, out=dist), axis=1)
        self._variance = float(_run_sum(variance, self._variance)[-1])
        np.subtract(self._mixed[s:k], play, out=dist)
        l1_mixed_prev = np.add.reduce(np.abs(dist, out=dist), axis=1).tolist()
        np.subtract(self._mixed[s + 1 : k + 1], play, out=dist)
        l1_mixed = np.add.reduce(np.abs(dist, out=dist), axis=1).tolist()
        negative = self._negative
        column = []
        for eta, l1, l1_prev in zip(etas.tolist(), l1_mixed, l1_mixed_prev):
            negative += (1.0 / eta) * (l1**2 + l1_prev**2)
            column.append(negative)
        self._negative = negative
        # (1/eta_1 + 1/eta_t) r_sq + variance - 0.5 negative + 1, op by op
        np.divide(1.0, etas, out=rhs)
        rhs += 1.0 / self.eta_first
        rhs *= self.r_sq
        rhs += variance
        rhs -= np.multiply(column, 0.5)
        rhs += 1.0

    @property
    def lhs_per_vertex(self) -> np.ndarray:
        return self.cum_play_loss - self.cum_obs

    @property
    def lhs(self) -> float:
        """max(lhs_per_vertex), read as cum_play_loss - min_obs.

        Rounding is monotone, so the two forms agree bit for bit; this one
        makes no vector.
        """
        return self.cum_play_loss - self.min_obs

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
    observation and its own `certificate`, which every round goes into, and
    which also keeps the side's block, its play sum and its columns.
    The first play is uniform; `initial_observation` is the observation the
    opponent's prescribed uniform start would induce (it seeds the t = 1
    difference).
    """

    def __init__(self, n: int, T: int, initial_observation, mixing: bool = True):
        if n < 1:
            raise ValueError("n must be at least 1")
        if T < 2:
            raise ValueError("T must be at least 2")
        self._log_nt = math.log(n * T)  # read by _eta(), so set first
        super().__init__(n, T, 1.0 / (T * T) if mixing else 0.0)
        self.last_observation = np.asarray(initial_observation, dtype=float)
        if self.last_observation.shape != (n,):
            raise ValueError("initial observation has the wrong dimension")
        if not np.isfinite(self.last_observation).all():
            raise ValueError("initial observation has non-finite entries")
        self._last_tame = _tame(self.last_observation)
        self.certificate = SideCertificate(n, T)
        self.block = self.certificate.block

    def _eta(self) -> float:
        return _full_info_eta(self.sums, self._log_nt)

    @property
    def play_sum(self) -> np.ndarray:
        return self.certificate.play_sum

    def step(self, w: np.ndarray) -> float:
        """One round on loss direction w; returns eta_t."""
        full_info_step(self, w)
        return self.eta

    def fold(self) -> tuple[np.ndarray, np.ndarray]:
        """The certificate's `fold()`."""
        return self.certificate.fold()


def _tame(obs: np.ndarray) -> bool:
    """Whether every entry is below 2**510.5 in size (NaN is not), so no
    difference of two tame observations, its square, or a finite running
    sum plus one overflows. vdot overflows without a warning."""
    return float(np.vdot(obs, obs)) < 2.0**1021


def _check_wild(player: FullInfoPlayer, obs: np.ndarray) -> None:
    """ValueError unless obs is finite and none of obs - last, obs - max(obs)
    and the running observation sum plus obs overflows."""
    if not np.isfinite(obs).all():
        raise ValueError("observation has non-finite entries")

    def bounds(v):
        return float(np.minimum.reduce(v)), float(np.maximum.reduce(v))

    lo, hi = bounds(obs)
    last_lo, last_hi = bounds(player.last_observation)
    cum_lo, cum_hi = bounds(player.certificate.cum_obs)
    # rounding is monotone, so these bound every entry of each result
    if not (-math.inf < lo - last_hi and hi - last_lo < math.inf and -math.inf < lo - hi
            and -math.inf < cum_lo + lo and cum_hi + hi < math.inf):
        raise ValueError("observation overflows: a difference or a running sum is not finite")


def full_info_step(player: FullInfoPlayer, observation) -> tuple[SimplexPoint, FullInfoPlayer]:
    """Advance one round on the given observation vector.

    Folds ||obs_t - obs_{t-1}||_inf^2 into the running sums, updates the
    secondary iterate with eta_t (sums through t-1), applies the uniform
    mixing floor, forms the next play with eta_{t+1} (sums through t), and
    hands the round to the player's certificate. This is where an
    observation is checked: its shape, that every entry is finite, and that
    no difference, square or running sum made from it overflows. A rejected
    one raises ValueError before any arithmetic warns and leaves the player
    as it was; only an observation that is not `_tame` is scanned.
    Returns (next play, updated player).
    """
    obs = np.asarray(observation, dtype=float)
    if obs.shape != (player.n,):
        raise ValueError("observation has the wrong dimension")
    tame = _tame(obs)
    if not (tame and player._last_tame):
        _check_wild(player, obs)
    played = player.play.weights
    mixed_prev = player.g_prime.weights
    diff = obs - player.last_observation
    np.abs(diff, out=diff)
    try:
        increment = float(np.maximum.reduce(diff)) ** 2
    except OverflowError:
        increment = math.inf
    if not player.sums[0] + increment < math.inf:
        raise ValueError("observation overflows: the running sum of squared differences is not finite")
    # constant shifts cancel in the normalization
    shifted = obs - np.maximum.reduce(obs)
    g_t = player._advance(increment, shifted, shifted)
    player.certificate.update(
        played, obs, player.eta, increment, g_t.weights, mixed_prev, player.g_prime.weights
    )
    player.last_observation = obs
    player._last_tame = tame
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

    Each round reads both plays (`side.play`) and hands each side the payoff
    vector its opponent's play induces (A x to the row, -f A to the
    column); side.step(w) advances a side on its loss direction w. The rest
    is done a block at a time, every `block` rounds (the smaller side's) and
    at round T: side.fold() hands over the block's (eta, lhs, rhs, low)
    columns of that side, its trace entries and the smallest entry of its
    running sum of w, and the block's TraceRows go into the columns of a
    RowTable at once. The averages are the sides' running play sums,
    `play_sum`.
    """
    block = min(row.block, col.block)
    trace = RowTable(TraceRow)
    for t in range(1, T + 1):
        f = row.play.weights
        row.step(a @ col.play.weights)
        fa = f @ a
        col.step(np.negative(fa, out=fa))
        if t % block == 0 or t == T:
            (eta_row, lhs_row, rhs_row, low_row), _ = row.fold()
            (eta_col, lhs_col, rhs_col, low_col), _ = col.fold()
            ts = np.arange(t + 1 - len(eta_row), t + 1)
            # max(sum f A) - min(sum A x), with max(sum f A) = -low_col; a sum
            # run from +0.0 is never -0.0, so 0.0 - low_col is +0.0 where the
            # negation would give -0.0, and the bits are max's
            gap = np.subtract(0.0, low_col)
            gap -= low_row
            gap /= ts
            trace.extend(ts, eta_row, eta_col, gap, lhs_row, rhs_row, lhs_col, rhs_col)
    f_avg = row.play_sum / T
    x_avg = col.play_sum / T
    return MatchResult(
        f_average=f_avg, x_average=x_avg, gap=bilinear_gap(a, f_avg, x_avg), trace=trace
    )


def run_full_info_match(A, T: int, mixing: bool = True) -> MatchResult:
    """Self-play for T rounds; both sides start uniform and observe exactly
    the payoff vector their opponent's play induces. Each side folds its
    rounds into its own certificate a block at a time; no records are
    kept."""
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
    f_prev = None
    for t in range(1, T + 1):
        x = np.asarray(opponent(t, f_prev), dtype=float)
        # written so that a NaN entry fails the check too
        if not (x.shape == (m,) and np.all(x >= -1e-12) and abs(x.sum() - 1.0) <= 1e-9):
            raise ValueError(f"opponent returned an invalid mixed strategy on round {t}")
        f = row.play.weights
        full_info_step(row, a @ x)
        f_prev = f
    return OpponentRun(
        certificate=row.certificate,
        regret=row.certificate.lhs,
        obs_variation=row.sums[0],
        f_average=row.play_sum / T,
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
    return _bandit_eta(sums, h_last, math.sqrt(math.log(own_dim * T)), bandit_cap(own_dim, opp_dim, T))


def _bandit_eta(sums: tuple[float, float], h_last: float, root_log: float, cap: float) -> float:
    """`bandit_eta` given its constants: root_log = sqrt(log(own T)) and the cap."""
    s1, s2 = sums
    # written so that NaN fails the check too
    if not (0.0 <= s1 < math.inf and 0.0 <= s2 < math.inf and 0.0 <= h_last < math.inf):
        raise ValueError(
            f"sums and the last increment must be nonnegative and finite, got {sums!r}, {h_last!r}"
        )
    if h_last == 0.0:
        return cap
    return min(root_log * (math.sqrt(s1) - math.sqrt(s2)) / h_last, cap)


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
    col_l1 = np.zeros(n)
    for row in basis:  # row by row: no (n - 1) x n temporary
        col_l1 += np.abs(row)
    col_l1 = float(np.max(col_l1))
    return n * 2.0**-53 * (1.0 + delta * math.sqrt(n)) / delta * col_l1 / (n - 1.0)


class _BanditSide(_Learner, _SideRows):
    """One side of the bandit dynamics: observes four scalar payoffs a round
    and steps with `bandit_eta`.

    Row j of the tangent basis is a_j on entries 0..j, b_j at entry j+1 and
    zero after that; where a round needs no whole row it works from the
    scalars a_j and b_j.

    Its rows are the payoff vectors w and the plays f, so `cum_obs` is its
    running payoff sum, and its columns are each round's (eta, eta, cap,
    min cum_obs): the step discipline is the certificate. Its `_fill` runs
    the estimator guard on the rows it folds, with each round's drawn basis
    index, so the guard checks each round once, when its row is folded.
    `max_error` is the largest estimator enumeration error over every round
    stepped so far (NaN once any round's error was NaN); `min_perturbed` is
    the smallest entry of any perturbed play f - delta |u| over every round
    stepped so far, both of each round's basis rows (NaN once any was NaN;
    inf before the first round).
    """

    max_error = _read_folded("max_error")
    min_perturbed = _read_folded("min_perturbed")

    def __init__(self, own_dim: int, opp_dim: int, T: int, delta: float, rng):
        # the step rule's constants, read by _eta(), so set before the
        # learner's constructor
        self.opp = opp_dim
        self.cap = bandit_cap(own_dim, opp_dim, T)
        self._root_log = math.sqrt(math.log(own_dim * T))
        _Learner.__init__(self, own_dim, T, 1.0 / (T * T))
        _SideRows.__init__(self, own_dim, _GUARD_BLOCK)
        self.delta = delta
        self._scale = own_dim / (2.0 * delta)  # the estimate's n / (2 delta)
        self.basis = basis = tangent_basis(own_dim)
        a, b = basis[:, 0], np.diagonal(basis, 1)
        self._a, self._b = a.tolist(), b.tolist()
        self._delta_a, self._delta_b = delta * np.abs(a), delta * np.abs(b)
        self.rng = rng
        self.prev_index = int(rng.integers(own_dim - 1))
        # the coming rounds' basis indices, drawn a block at a time: the
        # generator gives the same indices as one draw a round
        self._draws = []
        self._drawn = 0
        # the last estimate est_bar, as a multiple of basis row prev_index
        self._c_last = 0.0
        # the basis indices row k used at k and k + 1
        self._index = np.empty(_GUARD_BLOCK + 1, dtype=np.intp)
        self._max_error = 0.0
        self._min_perturbed = math.inf

    def _eta(self) -> float:
        return _bandit_eta(self.sums, self.h_last, self._root_log, self.cap)

    def step(self, payoff_vector: np.ndarray) -> float:
        """One round given this side's loss direction w (own loss = play @ w).

        Observes four scalars at plays perturbed along the previous and the
        freshly drawn basis directions, forms the two estimates, and updates.
        Returns eta_t.
        The round's row is filled before the learner steps, so a round whose
        step rule raises is checked too; its eta column reads NaN.
        """
        k = self._row()
        f = self.play.weights
        # ndarray.dot is the same BLAS dot as @ on two vectors, called faster
        base = float(f.dot(payoff_vector))
        j = self.prev_index
        d = self._drawn
        if d == len(self._draws):
            self._draws = self.rng.integers(self.n - 1, size=_GUARD_BLOCK).tolist()
            d = 0
        new_index = self._draws[d]
        self._drawn = d + 1
        self._obs[k] = payoff_vector
        self._play[k] = f
        self._index[k] = j
        self._index[k + 1] = new_index
        self._columns[0, k] = math.nan  # until the learner has stepped
        self._rows = k + 1

        u_prev = self.basis[j]
        u_new = self.basis[new_index]
        # payoffs regrouped as base +- delta*(u @ w): the difference cancels
        # the base exactly, which the estimate's 1/delta amplification needs
        d_prev = self.delta * float(u_prev.dot(payoff_vector))
        d_new = self.delta * float(u_new.dot(payoff_vector))
        # the estimates (n / 2 delta)(r+ - r-) u are these multiples of their rows
        c_hat = self._scale * ((base + d_prev) - (base - d_prev))
        c_bar = self._scale * ((base + d_new) - (base - d_new))
        # the last est_bar lies along row j as well, so |est_hat - est_bar|
        # has two nonzero values; the larger, squared, or NaN if either is
        a, b, c_last = self._a[j], self._b[j], self._c_last
        x = abs(c_hat * a - c_last * a)
        y = abs(c_hat * b - c_last * b)
        increment = (x if x >= y else y if y >= x else math.nan) ** 2
        self._advance(increment, c_hat * u_prev, c_bar * u_new)
        self.prev_index = new_index
        self._c_last = c_bar
        self._columns[0, k] = self.eta
        return self.eta

    def _fill(self, s: int, k: int, columns: np.ndarray) -> None:
        """Check rows s..k-1 with the estimator guard, the enumeration
        identity and the perturbed plays, then fold them.

        Averaging the estimate over every basis index must reproduce
        (n/(n-1)) * the tangent projection of the payoff vector. Each row
        enumerates one round, the regrouped difference (base + d) - (base - d)
        and its n / (2 delta) amplification included; the sums over the basis
        run as one matrix product per block, whose summation order differs
        from a product per round by about n 2^-53 times terms of size O(n)
        in the error. `_estimator_tol` bounds the regrouping
        term n 2^-53 (1 + delta sqrt(n)) / delta, at least 1e6 times larger
        for the default delta <= 1e-6, and is floored at 1e-9, which the
        summation term stays below up to n of a few thousand; so the
        tolerance is unchanged.

        The smallest entry of f - delta |u_j| is that of its three parts,
        each exact from the play's prefix and suffix minima: subtracting a
        constant is monotone under rounding, so it is the least of
        min(f_0..f_j) - delta |a_j|, f_(j+1) - delta |b_j| and
        min(f_(j+2)..).
        """
        n = self.n
        w, f = self._obs[s:k], self._play[s:k]
        # each round's base payoff f @ w, with the bits of the one its step took
        b = _row_dots(f, w)[:, None]
        # the formula (n / 2 delta)((b + d) - (b - d)) @ basis with
        # d = delta (w @ basis.T), each step in place where it can be: the
        # same bits in fewer arrays
        d = w @ self.basis.T
        d *= self.delta
        diff = b + d
        np.subtract(b, d, out=d)
        diff -= d
        ests = diff @ self.basis
        ests *= self._scale
        del d, diff  # a block's peak memory holds at most three such arrays
        target = w - np.add.reduce(w, axis=1, keepdims=True) / n
        target *= n / (n - 1.0)
        ests /= n - 1.0
        ests -= target
        err = float(np.maximum.reduce(np.abs(ests, out=ests), axis=None))
        # np.maximum keeps a NaN from either side, so a NaN error fails the
        # guard and no later block's finite error replaces it
        self._max_error = float(np.maximum(self._max_error, err))

        # target and ests are free now: they take the plays' prefix and
        # suffix minima
        prefix, suffix = target, ests
        np.minimum.accumulate(f, axis=1, out=prefix)
        np.minimum.accumulate(f[:, ::-1], axis=1, out=suffix[:, ::-1])
        drawn = self._index[s : k + 1]
        rows = np.stack((drawn[:-1], drawn[1:]))  # each round's two rows j
        at = np.arange(k - s)
        low = np.minimum(prefix[at, rows] - self._delta_a[rows], f[at, rows + 1] - self._delta_b[rows])
        # for j = n - 2 the suffix is empty; its stand-in f_(n-1) is the
        # middle part's f_(j+1), which the subtraction only lowers
        np.minimum(low, suffix[at, np.minimum(rows + 2, n - 1)], out=low)
        # the same NaN rule as the guard's
        self._min_perturbed = float(np.minimum(self._min_perturbed, np.minimum.reduce(low, axis=None)))
        super()._fill(s, k, columns)
        columns[1] = columns[0]
        columns[2] = self.cap


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
        "estimator_ok": row.max_error <= estimator_tol and col.max_error <= estimator_tol,
        "cap_row": row.cap,
        "cap_col": col.cap,
        "min_perturbed_play": float(np.minimum(row.min_perturbed, col.min_perturbed)),
    }
    return result
