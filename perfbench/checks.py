"""Checks of each operation's output against the references of inputs.py.

`check(op, output)` returns (failed, problems). `failed` says the operation
failed as the program reports it (nonzero status); `problems` lists wrong
outputs. Problems of an operation that did not fail make the run incorrect;
an operation with a known fault that fails must fail for that fault alone.
"""
from __future__ import annotations

import csv

import numpy as np

import oracles

TOL = 1e-9


def _certified(summary, problems):
    if summary["cert_failures"] != 0:
        problems.append(f"{summary['cert_failures']} certificate rows failed")


def _game(op, res, problems):
    s = res.summary
    _certified(s, problems)
    if abs(s["value_estimate"] - op["value"]) > s["gap"] + TOL:
        problems.append(f"value {s['value_estimate']!r} is farther than gap {s['gap']!r} from the LP value {op['value']!r}")
    if op["kind"] == "game":
        bound = oracles.self_play_gap_bound(op["rows"], op["cols"], op["rounds"])
        if s["gap"] > bound:
            problems.append(f"gap {s['gap']!r} above the self-play bound {bound!r}")
        return
    cap_row = oracles.bandit_cap(op["cols"], op["rounds"])
    cap_col = oracles.bandit_cap(op["rows"], op["rounds"])
    over = sum(1 for r in res.trace_rows if r[1] > cap_row * (1 + 1e-12) or r[2] > cap_col * (1 + 1e-12))
    if over:
        problems.append(f"{over} trace rows with a step size above its cap")
    if not s["min_perturbed_play"] > 0:
        problems.append(f"perturbed play left the simplex: {s['min_perturbed_play']!r}")


def _offline(op, res, problems):
    s = res.summary
    _certified(s, problems)
    subopt = s["suboptimality"]
    if subopt < -TOL:
        problems.append(f"suboptimality {subopt!r} below the known optimum {oracles.OFFLINE_OPTIMUM[op['instance']]}")
    if op["instance"] == "quad-ball" and subopt > oracles.quad_ball_bound(op["rounds"]):
        problems.append(f"suboptimality {subopt!r} above H R^2 / T")


def _saddle(op, res, problems, captured):
    s = res.summary
    _certified(s, problems)
    a = np.loadtxt(op["inputs"]["matrix"], delimiter=",", ndmin=2)
    f, x = captured.f_average, captured.x_average
    gap = float(np.max(f @ a) - np.min(a @ x))
    if abs(gap - s["gap"]) > TOL:
        problems.append(f"reported gap {s['gap']!r} differs from the recomputed {gap!r}")
    if abs(float(f @ a @ x) - op["value"]) > gap + TOL:
        problems.append("averaged value is farther than the gap from the LP value")
    if gap > s["certificate_bound"] + TOL:
        problems.append(f"gap {gap!r} above the certificate bound {s['certificate_bound']!r}")


def _maxflow(op, res, problems):
    s = res.summary
    _certified(s, problems)
    with open(res.extra_paths["flows.csv"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    flows = np.array([float(r["flow"]) for r in rows])
    ends = [(int(r["u"]) - 1, int(r["v"]) - 1) for r in rows]
    if [list(e) for e in ends] != op["edges"]:
        problems.append("flows.csv does not list the input edges in order")
        return
    net = np.zeros(op["nodes"])
    np.add.at(net, [u for u, _ in ends], flows)
    np.subtract.at(net, [v for _, v in ends], flows)
    interior = [w for w in range(op["nodes"]) if w not in (op["source"], op["sink"])]
    excess = max(0.0, float(np.max(np.abs(flows))) - 1.0)
    residual = float(np.max(np.abs(net[interior]))) if interior else 0.0
    value = float(net[op["source"]])
    if excess > 1e-7 or residual > 1e-7:
        problems.append(f"capacity excess {excess:.3e} or conservation residual {residual:.3e} above 1e-7")
    if abs(value - s["value"]) > 1e-7:
        problems.append(f"reported value {s['value']!r} differs from flows.csv's {value!r}")
    exact, eps = op["exact"], op["epsilon"]
    # a flow within capacity (1 + excess) and residual r per interior node
    # crosses any cut by at most (1 + excess) |cut| + r |interior|
    ceiling = (1.0 + excess) * exact + residual * len(interior) + TOL
    if not (1.0 - eps) * exact - TOL <= value <= ceiling:
        problems.append(f"value {value!r} outside [(1-eps) exact, {ceiling!r}] for exact {exact}")


def _cvxprog(op, res, problems):
    s = res.summary
    _certified(s, problems)
    if s["target"] != op["target"]:
        problems.append(f"instance target {s['target']!r} is not the known {op['target']!r}")
    if not s["feasible"] or s["max_constraint"] > 1.0 + TOL:
        problems.append(f"infeasible: max constraint {s['max_constraint']!r}")
    floor = (1.0 - op["epsilon"] / op["margin"]) * op["target"] - TOL
    if s["objective_value"] < floor:
        problems.append(f"objective {s['objective_value']!r} below (1 - eps/margin) target {floor!r}")
    if s["objective_value"] > op["optimum"] + TOL:
        problems.append(f"objective {s['objective_value']!r} above the known optimum {op['optimum']!r}")


def _adaptive(op, out, problems):
    if out["regret"] > op["bound"]:
        problems.append(f"regret {out['regret']!r} above 3.5 R (sqrt V + 1) = {op['bound']!r}")
    if out["simplex_error"] > 1e-9:
        problems.append(f"plays left the simplex by {out['simplex_error']:.3e}")


def check(op: dict, output, captured=None) -> tuple[bool, list[str]]:
    problems: list[str] = []
    kind = op["kind"]
    if kind == "adaptive-loop":
        _adaptive(op, output, problems)
        return False, problems
    failed = output.status != 0
    if kind in ("game", "game-bandit"):
        _game(op, output, problems)
    elif kind in ("mirror-prox", "holder"):
        _offline(op, output, problems)
    elif kind == "saddle":
        _saddle(op, output, problems, captured)
    elif kind == "maxflow":
        _maxflow(op, output, problems)
    elif kind == "cvxprog":
        _cvxprog(op, output, problems)
    if failed and op.get("known_fault") == "estimator-guard" and output.summary.get("estimator_ok", True):
        problems.append(f"status {output.status}, but not from the estimator guard")
    return failed, problems
