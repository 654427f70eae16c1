"""Reference computations made apart from omdkit.

Nothing here imports omdkit: each function recomputes, from the benchmark's
own inputs, a number that omdkit's output is checked against.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np

# Known optima of the bundled instances, from their closed forms: the
# offline instances put their minimizer inside the feasible set, so the
# optimum is the value 0 there; the cvxprog optima are the LP optima of the
# five hand-built programs (`inactive` has zero constraints and is unbounded).
OFFLINE_OPTIMUM = {"quad-ball": 0.0, "half-ball": 0.0, "vertex-pull": 0.0}
# quad-ball: G(f) = 1/2 (f-p)^T diag(w) (f-p) on the unit ball, started at 0,
# so H = max(w) and R^2 = |p|^2 / 2.
QUAD_BALL_W = (1.0, 0.4, 0.1, 0.7)
QUAD_BALL_P = (0.3, -0.4, 0.1, 0.2)
CVXPROG_OPTIMUM = {
    "interval": 1.0,
    "box": 3.0,
    "simplex-capped": 2.0,
    "inactive": math.inf,
    "tied": 1.5,
}
CVXPROG_TARGET_MARGIN = {
    "interval": (0.5, 1.0),
    "box": (2.4, 1.0),
    "simplex-capped": (1.5, 2.0 / 3.0),
    "inactive": (1.0, 1.0),
    "tied": (1.2, 1.0),
}


def quad_ball_bound(T: int) -> float:
    """H R^2 / T for the quad-ball instance."""
    h = max(QUAD_BALL_W)
    r_sq = 0.5 * sum(p * p for p in QUAD_BALL_P)
    return h * r_sq / T


def lp_game_value(a) -> float:
    """Minimax value min_f max_x f^T A x of a zero-sum matrix game, by LP."""
    from scipy.optimize import linprog

    a = np.asarray(a, dtype=float)
    n, m = a.shape
    # variables (f_1..f_n, v): minimize v subject to A^T f <= v, sum f = 1
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.hstack([a.T, -np.ones((m, 1))])
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    bounds = [(0, None)] * n + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=[1.0], bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"LP for the game value failed: {res.message}")
    return float(res.fun)


def unit_max_flow(nodes: int, edges, source: int, sink: int) -> int:
    """Exact max flow of an undirected unit-capacity graph, by BFS augmenting paths."""
    cap: dict[tuple[int, int], int] = {}
    adj: list[set[int]] = [set() for _ in range(nodes)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
        cap[(u, v)] = cap.get((u, v), 0) + 1
        cap[(v, u)] = cap.get((v, u), 0) + 1
    adj_sorted = [sorted(s) for s in adj]
    flow = 0
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adj_sorted[u]:
                if v not in parent and cap[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            return flow
        v = sink
        while parent[v] is not None:
            u = parent[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        flow += 1


def adaptive_regret_bound(losses, r_max: float) -> float:
    """3.5 R (sqrt(V) + 1), V the sup-norm variation of the stream against
    its one-step-behind prediction (zero before the first loss)."""
    losses = np.asarray(losses, dtype=float)
    prev = np.vstack([np.zeros((1, losses.shape[1])), losses[:-1]])
    v = math.fsum(float(x) ** 2 for x in np.max(np.abs(losses - prev), axis=1))
    return 3.5 * r_max * (math.sqrt(v) + 1.0)


def self_play_gap_bound(n: int, m: int, T: int) -> float:
    """(6 + 22 log(n m T^4) + 40/T) / T, the self-play rate with its constants."""
    return (6.0 + 22.0 * math.log(n * m * T**4) + 40.0 / T) / T


def bandit_cap(opp: int, T: int) -> float:
    """Step-size cap 1 / (28 opp sqrt(log(opp T))) of a bandit player."""
    return 1.0 / (28.0 * opp * math.sqrt(math.log(opp * T)))


def hand_checks() -> None:
    """Each oracle on a case whose answer is known by hand; raises on a miss."""
    if abs(lp_game_value([[1.0, -1.0], [-1.0, 1.0]])) > 1e-9:
        raise AssertionError("LP oracle: matching pennies must have value 0")
    if abs(lp_game_value([[0.5]]) - 0.5) > 1e-9:
        raise AssertionError("LP oracle: a 1x1 game has its entry as value")
    two_paths = [(0, 1), (1, 3), (0, 2), (2, 3)]
    if unit_max_flow(4, two_paths, 0, 3) != 2:
        raise AssertionError("flow oracle: two disjoint unit paths must carry 2")
    if unit_max_flow(4, two_paths + [(1, 2)], 0, 3) != 2:
        raise AssertionError("flow oracle: a cross edge must not raise the 2-cut")
    if unit_max_flow(3, [(0, 1)], 0, 2) != 0:
        raise AssertionError("flow oracle: a disconnected sink must carry 0")
    stream = [[1.0, 0.0], [1.0, 0.0]]
    if abs(adaptive_regret_bound(stream, 1.0) - 3.5 * 2.0) > 1e-12:
        raise AssertionError("regret bound: variation of a constant stream is its first step")
