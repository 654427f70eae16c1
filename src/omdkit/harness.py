"""Experiment front end: configs in, deterministic CSV traces and summaries out.

Seven experiment kinds share one entry point. Each run writes trace.csv (one
row per round, or per search candidate for the flow kind) and summary.txt
(key=value lines) into the output directory; the flow kind adds flows.csv.
Numeric output uses round-trip decimal formatting, and trace files are
bit-identical across reruns with the same inputs; wall time appears only in
the summary. The maxflow trace's `rounds` column counts the rounds each
candidate actually ran, and its `stop` column says why it stopped:
`accepted-early` when the blended running average met every capacity before
the auto horizon, `horizon` otherwise; `early_stops` in the summary counts
the former.

Exit status (returned by `cli.main`):
  0  every per-round certificate and run-level guarantee held;
  1  a certificate or run-level guarantee failed;
  2  unusable input (ConfigError: a bad flag, config line or instance file);
  3  internal numeric fault inside a solver (ProjectionError), reported with
     its residual; the input was accepted but the run could not finish.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .convexprog import (
    FlowNetwork,
    builtin_cp_instances,
    max_flow,
    psi_optimum,
    solve_cp,
)
from .games import PayoffMatrix, run_bandit_match, run_full_info_match
from .offline import builtin_problems, holder_optimize, mirror_prox
from .saddle import bilinear_problem, saddle_solve

KINDS = ("mirror-prox", "holder", "saddle", "game", "game-bandit", "cvxprog", "maxflow")
CERT_TOL = 1e-9

_DEFAULT_ROUNDS = {
    "mirror-prox": 200,
    "holder": 200,
    "saddle": 1000,
    "game": 1000,
    "game-bandit": 1000,
}


class ConfigError(ValueError):
    """Unusable config, flag value, or instance file (exit status 2)."""


@dataclass
class ExperimentConfig:
    kind: str
    matrix: str | None = None
    graph: str | None = None
    rounds: int | None = None
    seed: int = 0
    delta: float | None = None
    epsilon: float = 0.1
    instance: str | None = None
    mixing: bool = True
    out: str = "runs"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}; choose from {', '.join(KINDS)}")
        if self.rounds is not None and self.rounds < 1:
            raise ConfigError(f"rounds must be at least 1, got {self.rounds}")
        for key, value in (("delta", self.delta), ("epsilon", self.epsilon)):
            # written so that NaN fails the check too
            if value is not None and not 0.0 < value < math.inf:
                raise ConfigError(f"{key} must be positive and finite, got {value!r}")


@dataclass
class ExperimentResult:
    status: int
    out_dir: Path
    trace_path: Path
    summary_path: Path
    summary: dict
    trace_header: list[str]
    # one tuple per trace.csv row; for the kinds whose solver keeps a
    # RowTable, a read-only view over its columns that builds rows on access
    trace_rows: Sequence[tuple]
    extra_paths: dict[str, Path] = field(default_factory=dict)


# ---------------------------------------------------------------- parsing

_CONFIG_KEYS = (
    "kind",
    "matrix",
    "graph",
    "rounds",
    "seed",
    "delta",
    "epsilon",
    "instance",
    "no-mixing",
    "out",
)


def load_config(path) -> dict[str, str]:
    """Read key=value lines; blank lines and # comments are skipped."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in mapping:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def _parse_bool(value: str, context: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{context}: expected a boolean, got {value!r}")


def _parse_number(value: str, context: str, caster):
    try:
        return caster(value)
    except ValueError:
        raise ConfigError(f"{context}: expected a number, got {value!r}") from None


def config_from_sources(kind: str, file_map: dict | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from a parsed file mapping plus flag overrides.

    Overrides win key by key; a `kind` entry in the file must agree with the
    requested kind (it guards against pointing one subcommand at another
    experiment's config).
    """
    merged: dict[str, str] = dict(file_map or {})
    if "kind" in merged:
        if merged["kind"] != kind:
            raise ConfigError(f"config is for kind {merged['kind']!r}, requested {kind!r}")
        del merged["kind"]
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    kwargs: dict = {"kind": kind}
    for key, value in merged.items():
        if isinstance(value, str):
            context = f"key {key!r}"
            if key == "rounds":
                kwargs["rounds"] = _parse_number(value, context, int)
            elif key == "seed":
                kwargs["seed"] = _parse_number(value, context, int)
            elif key == "delta":
                kwargs["delta"] = _parse_number(value, context, float)
            elif key == "epsilon":
                kwargs["epsilon"] = _parse_number(value, context, float)
            elif key == "no-mixing":
                kwargs["mixing"] = not _parse_bool(value, context)
            else:
                kwargs[key] = value
        elif key == "no-mixing":
            kwargs["mixing"] = not bool(value)
        else:
            kwargs[key] = value
    return ExperimentConfig(**kwargs)


def parse_matrix(text: str, name: str = "matrix") -> PayoffMatrix:
    """One comma-separated row per line; entries must lie in [-1, 1]."""
    rows: list[list[float]] = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entries = []
        for piece in line.split(","):
            try:
                entries.append(float(piece))
            except ValueError:
                raise ConfigError(f"{name}:{lineno}: bad entry {piece.strip()!r}") from None
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ConfigError(
                f"{name}:{lineno}: row has {len(entries)} entries, expected {width}"
            )
        for j, v in enumerate(entries):
            if not math.isfinite(v) or abs(v) > 1.0:
                raise ConfigError(
                    f"{name}:{lineno}: entry {j + 1} is {v!r}, outside [-1, 1]"
                )
        rows.append(entries)
    if not rows:
        raise ConfigError(f"{name}: no matrix rows found")
    return PayoffMatrix(np.array(rows))


def parse_graph(text: str, name: str = "graph") -> FlowNetwork:
    """`p <nodes> <edges> <source> <sink>` then one `e <u> <v>` per edge, 1-indexed."""
    header = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise ConfigError(f"{name}:{lineno}: duplicate problem line")
            if len(parts) != 5:
                raise ConfigError(
                    f"{name}:{lineno}: problem line must be `p <nodes> <edges> <source> <sink>`"
                )
            try:
                header = tuple(int(x) for x in parts[1:])
            except ValueError:
                raise ConfigError(f"{name}:{lineno}: non-integer field in problem line") from None
        elif parts[0] == "e":
            if header is None:
                raise ConfigError(f"{name}:{lineno}: edge listed before the problem line")
            if len(parts) != 3:
                raise ConfigError(f"{name}:{lineno}: edge line must be `e <u> <v>`")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ConfigError(f"{name}:{lineno}: non-integer edge endpoint") from None
            if not (1 <= u <= header[0] and 1 <= v <= header[0]):
                raise ConfigError(
                    f"{name}:{lineno}: endpoint outside 1..{header[0]}"
                )
            if u == v:
                raise ConfigError(f"{name}:{lineno}: self-loop on node {u}")
            edges.append((u - 1, v - 1))
        else:
            raise ConfigError(f"{name}:{lineno}: unknown line type {parts[0]!r}")
    if header is None:
        raise ConfigError(f"{name}: missing problem line")
    nodes, declared, source, sink = header
    if len(edges) != declared:
        raise ConfigError(
            f"{name}: problem line declares {declared} edges, found {len(edges)}"
        )
    if not (1 <= source <= nodes and 1 <= sink <= nodes):
        raise ConfigError(f"{name}: source/sink outside 1..{nodes}")
    try:
        return FlowNetwork(nodes, tuple(edges), source - 1, sink - 1)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


# ---------------------------------------------------------------- rate fitting

def fit_rate(horizons: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of log(value) against log(horizon).

    A clean c/T series fits -1; c/sqrt(T) fits -0.5. Needs at least three
    points, all horizons and values positive.
    """
    h = np.asarray(horizons, dtype=float)
    v = np.asarray(values, dtype=float)
    if h.ndim != 1 or h.shape != v.shape or h.size < 3:
        raise ValueError("need at least three matching horizon/value pairs")
    if np.any(h <= 0) or np.any(v <= 0):
        raise ValueError("horizons and values must be positive")
    return float(np.polyfit(np.log(h), np.log(v), 1)[0])


def _slope_or_nan(ts, values) -> float:
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > 0
    if np.count_nonzero(keep) < 3:
        return math.nan
    return fit_rate(ts[keep], values[keep])


def _cert_failures(table, *sides: tuple[str, str]) -> int:
    """Rows of a RowTable where some (lhs, rhs) column pair misses
    lhs <= rhs + CERT_TOL; a NaN misses."""
    ok = np.ones(len(table), dtype=bool)
    for lhs, rhs in sides:
        ok &= table.column(lhs) <= table.column(rhs) + CERT_TOL
    return len(table) - int(np.count_nonzero(ok))


# ---------------------------------------------------------------- runners

def _read_instance(path_str: str | None, flag: str, kind: str) -> str:
    if path_str is None:
        raise ConfigError(f"kind {kind!r} needs {flag}")
    path = Path(path_str)
    try:
        return path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _rounds_for(config: ExperimentConfig) -> int:
    if config.rounds is not None:
        return config.rounds
    return _DEFAULT_ROUNDS[config.kind]


def _run_game(config: ExperimentConfig):
    payoff = parse_matrix(_read_instance(config.matrix, "--matrix", config.kind), name=str(config.matrix))
    T = _rounds_for(config)
    if config.kind == "game":
        res = run_full_info_match(payoff, T, mixing=config.mixing)
        header = ["t", "eta_row", "eta_col", "gap", "cert_lhs_row", "cert_rhs_row", "cert_lhs_col", "cert_rhs_col"]
        rows = res.trace.rows(*header)
    else:
        res = run_bandit_match(payoff, T, delta=config.delta, seed=config.seed)
        # the bandit certificate is the step discipline: each eta against its cap
        header = ["t", "eta_row", "eta_col", "gap", "cap_row", "cap_col"]
        rows = res.trace.rows("t", "eta_row", "eta_col", "gap", "cert_rhs_row", "cert_rhs_col")
    summary = {
        "actions_row": payoff.n,
        "actions_col": payoff.m,
        "rounds": T,
        "gap": res.gap,
        "value_estimate": float(res.f_average @ payoff.entries @ res.x_average),
        "fitted_slope": _slope_or_nan(res.trace.column("t"), res.trace.column("gap")),
        "cert_checks": len(rows),
        "cert_failures": _cert_failures(
            res.trace, ("cert_lhs_row", "cert_rhs_row"), ("cert_lhs_col", "cert_rhs_col")
        ),
    }
    run_ok = True
    if config.kind == "game":
        summary["mixing"] = config.mixing
    else:
        # run-level guard: the tangent estimates must enumerate back to the
        # true projected payoffs on every round
        est_row = res.summary["estimator_error_row"]
        est_col = res.summary["estimator_error_col"]
        est_tol = res.summary["estimator_tol"]
        summary.update(
            delta=res.summary["delta"],
            estimator_error_row=est_row,
            estimator_error_col=est_col,
            estimator_tol=est_tol,
            min_perturbed_play=res.summary["min_perturbed_play"],
            estimator_ok=bool(est_row <= est_tol and est_col <= est_tol),
        )
        run_ok = summary["estimator_ok"]
    return header, rows, summary, {}, run_ok


def _run_saddle(config: ExperimentConfig):
    payoff = parse_matrix(_read_instance(config.matrix, "--matrix", config.kind), name=str(config.matrix))
    T = _rounds_for(config)
    res = saddle_solve(bilinear_problem(payoff.entries), T)
    rows = res.trace.rows("t", "eta", "value", "gap", "bound")
    summary = {
        "actions_row": payoff.n,
        "actions_col": payoff.m,
        "rounds": T,
        "eta": res.eta,
        "gap": res.gap,
        "certificate_bound": res.certificate_bound,
        "fitted_slope": _slope_or_nan(res.trace.column("t"), res.trace.column("gap")),
        "cert_checks": len(rows),
        "cert_failures": _cert_failures(res.trace, ("gap", "bound")),
    }
    return ["t", "eta", "value", "gap", "bound"], rows, summary, {}, True


def _run_offline(config: ExperimentConfig):
    instances = builtin_problems()
    name = config.instance or ("quad-ball" if config.kind == "mirror-prox" else "half-ball")
    if name not in instances:
        raise ConfigError(
            f"unknown instance {name!r}; choose from {', '.join(sorted(instances))}"
        )
    problem, optimum = instances[name]
    if config.kind == "mirror-prox" and problem.alpha != 1.0:
        raise ConfigError(
            f"instance {name!r} has exponent {problem.alpha}; mirror-prox needs 1.0"
        )
    T = _rounds_for(config)
    res = mirror_prox(problem, T) if config.kind == "mirror-prox" else holder_optimize(problem, T)

    eta = res.eta
    rows = res.rounds.rows(
        "t", "value", "cert_lhs", "cert_rhs",
        build=lambda t, value, lhs, rhs: (t, eta, value - optimum, lhs, rhs),
    )
    summary = {
        "instance": name,
        "rounds": T,
        "eta": eta,
        "suboptimality": rows[-1][2],
        "fitted_slope": _slope_or_nan(res.rounds.column("t"), res.rounds.column("value") - optimum),
        "cert_checks": len(rows),
        "cert_failures": _cert_failures(res.rounds, ("cert_lhs", "cert_rhs")),
    }
    return ["t", "eta", "suboptimality", "cert_lhs", "cert_rhs"], rows, summary, {}, True


def _run_cvxprog(config: ExperimentConfig):
    instances = builtin_cp_instances()
    name = config.instance or "interval"
    if name not in instances:
        raise ConfigError(
            f"unknown instance {name!r}; choose from {', '.join(sorted(instances))}"
        )
    problem = instances[name]
    # the per-round bound on max G of the running average is 1 + psi/t
    psi = psi_optimum(problem.radius, problem.d, problem.smoothness)

    trace_acc: list[tuple[int, float]] = []

    def record(t: int, f_bar: np.ndarray) -> bool:
        trace_acc.append((t, float(np.max(np.asarray(problem.values(f_bar), dtype=float)))))
        return False

    _, report = solve_cp(problem, config.epsilon, rounds=config.rounds, stop_when=record)

    rows = []
    failures = 0
    for t, max_avg in trace_acc:
        bound = 1.0 + psi / t
        failures += 0 if max_avg <= bound + CERT_TOL else 1
        rows.append((t, report.eta, max_avg, bound))
    summary = {
        "instance": name,
        "epsilon": config.epsilon,
        "rounds": report.rounds,
        "eta": report.eta,
        "eta_prime": report.eta_prime,
        "alpha": report.alpha,
        "max_constraint": report.max_constraint,
        "objective_value": report.objective_value,
        "target": report.target,
        "feasible": report.feasible,
        "objective_ok": report.objective_ok,
        "max_slice_residual": report.max_slice_residual,
        "fitted_slope": _slope_or_nan(
            [row[0] for row in rows], [max(row[2] - 1.0, 0.0) for row in rows]
        ),
        "cert_checks": len(rows),
        "cert_failures": failures,
    }
    run_ok = report.feasible and report.objective_ok
    return ["t", "eta", "max_constraint_avg", "bound"], rows, summary, {}, run_ok


def _run_maxflow(config: ExperimentConfig):
    network = parse_graph(_read_instance(config.graph, "--graph", config.kind), name=str(config.graph))
    sol = max_flow(network, config.epsilon)
    rows = []
    failures = 0
    for idx, cand in enumerate(sol.stats["candidates"], start=1):
        # accepted candidates must actually meet the capacity certificate;
        # rejected ones carry no claim
        ok = (not cand["accepted"]) or cand["max_constraint"] <= 1.0 + 2 * CERT_TOL
        failures += 0 if ok else 1
        rows.append(
            (
                idx,
                cand["target"],
                cand["rounds"],
                cand["max_constraint"],
                int(cand["accepted"]),
                cand["stop"],
            )
        )
    flows_lines = ["edge_index,u,v,flow"]
    for idx, ((u, v), flow) in enumerate(zip(network.edges, sol.flows), start=1):
        flows_lines.append(f"{idx},{u + 1},{v + 1},{float(flow)!r}")
    summary = {
        "nodes": network.nodes,
        "edges": network.edge_count,
        "epsilon": config.epsilon,
        "value": sol.value,
        "max_violation": sol.max_violation,
        "conservation_residual": sol.conservation_residual,
        "solves": sol.stats["solves"],
        "total_rounds": sol.stats["total_rounds"],
        "early_stops": sol.stats["early_stops"],
        "accepted_target": sol.stats["accepted_target"],
        "cert_checks": len(rows),
        "cert_failures": failures,
    }
    run_ok = sol.max_violation <= 1e-7 and sol.conservation_residual <= 1e-7
    extras = {"flows.csv": flows_lines}
    header = ["candidate", "target", "rounds", "max_constraint", "accepted", "stop"]
    return header, rows, summary, extras, run_ok


_RUNNERS = {
    "game": _run_game,
    "game-bandit": _run_game,
    "saddle": _run_saddle,
    "mirror-prox": _run_offline,
    "holder": _run_offline,
    "cvxprog": _run_cvxprog,
    "maxflow": _run_maxflow,
}


# ---------------------------------------------------------------- output

def _format_cell(value) -> str:
    if type(value) is float:  # most cells; repr is the round-trip form
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_fresh(path: Path, lines: Iterable[str]) -> None:
    """Write `lines` (each without its newline) to `path` as they come."""
    # rewriting an existing file in place forces a flush when it is closed
    # (ext4 does this); unlinking it first makes the write a new file
    path.unlink(missing_ok=True)
    with path.open("w") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    lines = (",".join(map(_format_cell, row)) for row in rows)
    _write_fresh(path, itertools.chain([",".join(header)], lines))


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Dispatch to the configured kind, write the trace and summary files."""
    started = time.perf_counter()
    try:
        header, rows, summary, extras, run_ok = _RUNNERS[config.kind](config)
    except ConfigError:
        raise
    except ValueError as exc:
        # invalid horizon/delta/epsilon surfaced by the underlying module
        raise ConfigError(str(exc)) from exc
    elapsed = time.perf_counter() - started

    status = 0 if summary["cert_failures"] == 0 and run_ok else 1
    full_summary = {"kind": config.kind, "seed": config.seed}
    full_summary.update(summary)
    full_summary["status"] = status
    full_summary["wall_time_s"] = elapsed

    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.csv"
    summary_path = out_dir / "summary.txt"
    _write_csv(trace_path, header, rows)
    _write_fresh(summary_path, (f"{key}={_format_cell(value)}" for key, value in full_summary.items()))
    extra_paths = {}
    for filename, lines in extras.items():
        extra_paths[filename] = out_dir / filename
        _write_fresh(extra_paths[filename], lines)
    return ExperimentResult(
        status=status,
        out_dir=out_dir,
        trace_path=trace_path,
        summary_path=summary_path,
        summary=full_summary,
        trace_header=list(header),
        trace_rows=rows,
        extra_paths=extra_paths,
    )
