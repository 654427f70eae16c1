"""Experiment front end: configs in, deterministic CSV traces and summaries out.

Seven experiment kinds share one entry point. Each run writes trace.csv (one
row per round, or per search candidate for the flow kind) and summary.txt
(key=value lines) into the output directory; the flow kind adds flows.csv.
A runner hands over every CSV as a `Rows` view of its columns, and one
column writer, `_write_csv`, writes them all. Numeric output uses
round-trip decimal formatting, and trace files are bit-identical across
reruns with the same inputs; wall time appears only in the summary. The
maxflow trace's `rounds` column counts the rounds each candidate actually
ran, and its `stop` column says why it stopped: `accepted-early` when the
blended running average met every capacity before the auto horizon,
`horizon` otherwise; `early_stops` in the summary counts the former.

Each config key is named once: an ExperimentConfig field whose metadata gives
the key, the parser of its text and its flag's help (CONFIG_KEYS collects
them). Each kind is named once, in KINDS, with its runner and help text. The
CLI builds its subcommands and flags from these two tables, and a flag value
is parsed from its text like a config file line.

The harness evaluates no inequality of its own. Each solver folds its
certificate into its rows, as an lhs and an rhs column or as a per-row
verdict, and states its run-level verdicts. A runner counts the failed rows
(lhs above rhs + CERT_TOL in `_checks`, or a false verdict); the run fails if
any row or run-level verdict does. `_checks` also makes `fitted_slope`, a
streamed least-squares fit of log value against log t over the rows with a
positive value; it folds both from column views a block of rows at a time,
so a run's checks take memory independent of T.

Exit status (returned by `cli.main`):
  0  every per-round certificate and run-level guarantee held;
  1  a certificate or run-level guarantee failed;
  2  unusable input (ConfigError: a bad flag value or config line, naming its
     key; an unreadable or malformed instance file, naming its line; an
     output directory that cannot be made, found before the solver runs,
     or written);
  3  internal numeric fault inside a solver: a ProjectionError, reported
     with its residual, or any other ValueError that is not a ConfigError;
     the input was accepted but the run could not finish, and no --out
     directory the run made is left behind.
"""
from __future__ import annotations

import math
import time
from array import array
from contextlib import suppress
from dataclasses import dataclass, field, fields
from itertools import takewhile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._rows import Constant, Rows
from .convexprog import FlowNetwork, builtin_cp_instances, max_flow, solve_cp
from .games import PayoffMatrix, _bandit_delta, run_bandit_match, run_full_info_match
from .offline import builtin_problems, holder_optimize, mirror_prox
from .saddle import bilinear_problem, saddle_solve

CERT_TOL = 1e-9


class ConfigError(ValueError):
    """Unusable config, flag value, instance file or output directory (exit status 2)."""


def _parse_number(caster):
    def parse(text: str):
        try:
            return caster(text)
        except ValueError:
            raise ConfigError(f"expected a number, got {text!r}") from None
    return parse


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _key(parse, help: str, default=None, key: str | None = None, switch: bool = False):
    """A config key: its field's default, the parser of its text and its flag's
    help. `key` names it where the field name does not; a `switch` flag takes
    no value and sets the key to true."""
    return field(default=default, metadata={"key": key, "parse": parse, "help": help, "switch": switch})


@dataclass
class ExperimentConfig:
    kind: str
    matrix: str | None = _key(str, "payoff matrix file, one comma-separated row per line")
    graph: str | None = _key(str, "graph file: `p <nodes> <edges> <source> <sink>` then `e <u> <v>` lines")
    rounds: int | None = _key(_parse_number(int), "horizon T")
    seed: int = _key(_parse_number(int), "seed for the bandit kind's draws", default=0)
    delta: float | None = _key(_parse_number(float), "bandit perturbation size")
    epsilon: float = _key(_parse_number(float), "accuracy for cvxprog/maxflow", default=0.1)
    instance: str | None = _key(str, "bundled instance name for offline/cvxprog kinds")
    mixing: bool = _key(lambda text: not _parse_bool(text), "disable the uniform mixing step of the game update",
                        default=True, key="no-mixing", switch=True)
    out: str = _key(str, "output directory (default: runs)", default="runs")

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}; choose from {', '.join(KINDS)}")
        # the self-play and saddle step sizes need a second round
        least = 2 if self.kind in ("game", "game-bandit", "saddle") else 1
        if self.rounds is not None and self.rounds < least:
            raise ConfigError(f"rounds must be at least {least}, got {self.rounds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        for key, value in (("delta", self.delta), ("epsilon", self.epsilon)):
            # written so that NaN fails the check too
            if value is not None and not 0.0 < value < math.inf:
                raise ConfigError(f"{key} must be positive and finite, got {value!r}")
        if self.kind == "maxflow" and not self.epsilon < 1.0:
            raise ConfigError(f"epsilon must be below 1 for maxflow, got {self.epsilon!r}")


# every config key but `kind`, which the subcommand names: key -> field
CONFIG_KEYS = {f.metadata["key"] or f.name: f for f in fields(ExperimentConfig) if f.metadata}
KIND_KEY = "kind"


@dataclass
class ExperimentResult:
    status: int
    out_dir: Path
    trace_path: Path
    summary_path: Path
    summary: dict
    trace_header: list[str]
    # the trace.csv rows: a read-only view of the columns the writer wrote,
    # which builds one tuple per row on access
    trace_rows: Rows
    extra_paths: dict[str, Path] = field(default_factory=dict)


# ---------------------------------------------------------------- parsing

def _content_lines(text: str):
    """(line number from 1, stripped line) of each line of `text` that is
    neither blank nor a # comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def load_config(path) -> dict[str, str]:
    """Read key=value lines; blank lines and # comments are skipped."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    mapping: dict[str, str] = {}
    for lineno, line in _content_lines(text):
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key not in CONFIG_KEYS and key != KIND_KEY:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in mapping:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def config_from_sources(kind: str, file_map: dict | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from a parsed file mapping plus flag overrides.

    Overrides win key by key, and a None override is no override. Every value
    is parsed from its text, str(value), so a flag and a file line take the
    same path. A `kind` entry in the file must agree with the requested kind
    (it guards against pointing one subcommand at another experiment's
    config).
    """
    merged = dict(file_map or {})
    file_kind = merged.pop(KIND_KEY, kind)
    if file_kind != kind:
        raise ConfigError(f"config is for kind {file_kind!r}, requested {kind!r}")
    merged.update((key, value) for key, value in (overrides or {}).items() if value is not None)

    kwargs: dict = {}
    for key, value in merged.items():
        spec = CONFIG_KEYS.get(key)
        if spec is None:
            raise ConfigError(f"unknown key {key!r}")
        try:
            kwargs[spec.name] = spec.metadata["parse"](str(value))
        except ConfigError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None
    return ExperimentConfig(kind, **kwargs)


def parse_matrix(text: str, name: str = "matrix") -> PayoffMatrix:
    """One comma-separated row per line; entries must lie in [-1, 1].

    The entries go into one flat array('d') as they are parsed, 8 bytes
    each, and the matrix is made from it once."""
    entries = array("d")
    width = None
    for lineno, line in _content_lines(text):
        pieces = line.split(",")
        try:
            row = array("d", map(float, pieces))
        except ValueError:
            for piece in pieces:
                try:
                    float(piece)
                except ValueError:
                    raise ConfigError(f"{name}:{lineno}: bad entry {piece.strip()!r}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ConfigError(
                f"{name}:{lineno}: row has {len(row)} entries, expected {width}"
            )
        within = np.abs(np.frombuffer(row)) <= 1.0  # NaN is not
        if not within.all():
            j = int(within.argmin())
            raise ConfigError(
                f"{name}:{lineno}: entry {j + 1} is {row[j]!r}, outside [-1, 1]"
            )
        entries += row
    if width is None:
        raise ConfigError(f"{name}: no matrix rows found")
    return PayoffMatrix(np.frombuffer(entries).reshape(-1, width))


def parse_graph(text: str, name: str = "graph") -> FlowNetwork:
    """`p <nodes> <edges> <source> <sink>` then one `e <u> <v>` per edge, 1-indexed."""
    header = None
    edges: list[tuple[int, int]] = []
    for lineno, line in _content_lines(text):
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

_CHECK_ROWS = 1024  # rows a fit or a failure count reads at a time


class _LogLogFit:
    """A least-squares line through (log t, log value), streamed a block of
    points at a time: the count, the means of x = log t and y = log value,
    and the co-moments C_xx and C_xy. Each block's own means and centred
    co-moments are merged into the running ones as in Chan, Golub & LeVeque
    (1979), so no sum of large terms cancels and memory is one block's."""

    def __init__(self):
        self.n = 0
        self.mean_x = self.mean_y = self.c_xx = self.c_xy = 0.0

    def add(self, t: np.ndarray, value: np.ndarray) -> None:
        """Fold the points (t[i], value[i]), all positive."""
        k = len(t)
        if not k:
            return
        x = np.log(np.asarray(t, dtype=float))
        y = np.log(value)
        mean_x, mean_y = float(x.mean()), float(y.mean())
        x -= mean_x
        y -= mean_y
        n = self.n + k
        d_x, d_y = mean_x - self.mean_x, mean_y - self.mean_y
        weight = self.n * k / n
        self.c_xx += float(x @ x) + d_x * d_x * weight
        self.c_xy += float(x @ y) + d_x * d_y * weight
        self.mean_x += d_x * k / n
        self.mean_y += d_y * k / n
        self.n = n

    @property
    def slope(self) -> float:
        """C_xy / C_xx; NaN below three points or when every t is the same."""
        return self.c_xy / self.c_xx if self.n >= 3 and self.c_xx > 0 else math.nan


def fit_rate(horizons: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of log(value) against log(horizon).

    A clean c/T series fits -1; c/sqrt(T) fits -0.5. Needs at least three
    points, all horizons and values positive. The fit is streamed, a block
    of points at a time (`_LogLogFit`), as `fitted_slope` is; it is NaN
    when every horizon is the same.
    """
    h = np.asarray(horizons, dtype=float)
    v = np.asarray(values, dtype=float)
    if h.ndim != 1 or h.shape != v.shape or h.size < 3:
        raise ValueError("need at least three matching horizon/value pairs")
    if np.any(h <= 0) or np.any(v <= 0):
        raise ValueError("horizons and values must be positive")
    fit = _LogLogFit()
    for start in range(0, h.size, _CHECK_ROWS):
        fit.add(h[start:start + _CHECK_ROWS], v[start:start + _CHECK_ROWS])
    return fit.slope


def _checks(table, values, *pairs: tuple[str, str]) -> dict:
    """A run's certificate keys from its RowTable and `values`, folded
    `_CHECK_ROWS` rows at a time from column views, so that memory does not
    grow with the rows: `fitted_slope`, the streamed least-squares fit
    (`_LogLogFit`) of log value against log t over the rows with a positive
    value (NaN below three such rows); `cert_checks`, the rows; and
    `cert_failures`, the rows where some (lhs, rhs) column pair misses
    lhs <= rhs + CERT_TOL (a NaN misses)."""
    ts = table.column("t")
    columns = [(table.column(lhs), table.column(rhs)) for lhs, rhs in pairs]
    fit = _LogLogFit()
    failures = 0
    for start in range(0, len(table), _CHECK_ROWS):
        block = slice(start, start + _CHECK_ROWS)
        v = values[block]
        keep = v > 0
        fit.add(ts[block][keep], v[keep])
        ok = np.ones(len(v), dtype=bool)
        for lhs, rhs in columns:
            ok &= lhs[block] <= rhs[block] + CERT_TOL
        failures += len(v) - int(np.count_nonzero(ok))
    return {"fitted_slope": fit.slope, "cert_checks": len(table), "cert_failures": failures}


# ---------------------------------------------------------------- runners

def _read_instance(path_str: str | None, flag: str, kind: str) -> str:
    if path_str is None:
        raise ConfigError(f"kind {kind!r} needs {flag}")
    path = Path(path_str)
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _read_matrix(config: ExperimentConfig) -> PayoffMatrix:
    return parse_matrix(_read_instance(config.matrix, "--matrix", config.kind), name=str(config.matrix))


def _builtin(instances: dict, name: str):
    if name not in instances:
        raise ConfigError(
            f"unknown instance {name!r}; choose from {', '.join(sorted(instances))}"
        )
    return instances[name]


def _run_game(config: ExperimentConfig):
    payoff = _read_matrix(config)
    T = config.rounds or 1000
    if config.kind == "game":
        res = run_full_info_match(payoff, T, mixing=config.mixing)
        header = ["t", "eta_row", "eta_col", "gap", "cert_lhs_row", "cert_rhs_row", "cert_lhs_col", "cert_rhs_col"]
        rows = res.trace.rows(*header)
    else:
        # the two bandit checks that are bad input, made before the match
        try:
            delta = _bandit_delta(payoff.n, payoff.m, T, config.delta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        res = run_bandit_match(payoff, T, delta=delta, seed=config.seed)
        # the bandit certificate is the step discipline: each eta against its cap
        header = ["t", "eta_row", "eta_col", "gap", "cap_row", "cap_col"]
        caps = (Constant(res.summary["cap_row"], T), Constant(res.summary["cap_col"], T))
        rows = Rows((*res.trace.rows(*header[:4]).columns, *caps))
    summary = {
        "actions_row": payoff.n,
        "actions_col": payoff.m,
        "rounds": T,
        "gap": res.gap,
        "value_estimate": float(res.f_average @ payoff.entries @ res.x_average),
        **_checks(res.trace, res.trace.column("gap"),
                  ("cert_lhs_row", "cert_rhs_row"), ("cert_lhs_col", "cert_rhs_col")),
    }
    if config.kind == "game":
        summary["mixing"] = config.mixing
        return header, rows, summary, {}, ()
    for key in ("delta", "estimator_error_row", "estimator_error_col", "estimator_tol",
                "min_perturbed_play", "estimator_ok"):
        summary[key] = res.summary[key]
    return header, rows, summary, {}, (res.summary["estimator_ok"],)


def _run_saddle(config: ExperimentConfig):
    payoff = _read_matrix(config)
    T = config.rounds or 1000
    res = saddle_solve(bilinear_problem(payoff.entries), T)
    t, value, gap, bound = res.trace.rows("t", "value", "gap", "bound").columns
    rows = Rows((t, Constant(res.eta, T), value, gap, bound))
    summary = {
        "actions_row": payoff.n,
        "actions_col": payoff.m,
        "rounds": T,
        "eta": res.eta,
        "gap": res.gap,
        "certificate_bound": res.certificate_bound,
        **_checks(res.trace, res.trace.column("gap"), ("gap", "bound")),
    }
    return ["t", "eta", "value", "gap", "bound"], rows, summary, {}, ()


def _run_offline(config: ExperimentConfig):
    name = config.instance or ("quad-ball" if config.kind == "mirror-prox" else "half-ball")
    problem, optimum = _builtin(builtin_problems(), name)
    if config.kind == "mirror-prox" and problem.alpha != 1.0:
        raise ConfigError(
            f"instance {name!r} has exponent {problem.alpha}; mirror-prox needs 1.0"
        )
    T = config.rounds or 200
    res = mirror_prox(problem, T) if config.kind == "mirror-prox" else holder_optimize(problem, T)

    eta = res.eta
    suboptimality = array("d", [0.0]) * T
    subopt = np.frombuffer(suboptimality)  # written through, no copy
    np.subtract(res.rounds.column("value"), optimum, out=subopt)
    t, lhs, rhs = res.rounds.rows("t", "cert_lhs", "cert_rhs").columns
    rows = Rows((t, Constant(eta, T), suboptimality, lhs, rhs))
    summary = {
        "instance": name,
        "rounds": T,
        "eta": eta,
        "suboptimality": rows[-1][2],
        **_checks(res.rounds, subopt, ("cert_lhs", "cert_rhs")),
    }
    return ["t", "eta", "suboptimality", "cert_lhs", "cert_rhs"], rows, summary, {}, ()


def _run_cvxprog(config: ExperimentConfig):
    name = config.instance or "interval"
    # no default horizon: solve_cp derives one from epsilon
    _, report = solve_cp(_builtin(builtin_cp_instances(), name), config.epsilon, rounds=config.rounds)
    eta = report.eta
    t, max_avg, bound = report.trace.rows("t", "max_constraint_avg", "bound").columns
    rows = Rows((t, Constant(eta, len(t)), max_avg, bound))
    summary = {
        "instance": name,
        "epsilon": config.epsilon,
        "rounds": report.rounds,
        "eta": eta,
        "eta_prime": report.eta_prime,
        "alpha": report.alpha,
        "max_constraint": report.max_constraint,
        "objective_value": report.objective_value,
        "target": report.target,
        "feasible": report.feasible,
        "objective_ok": report.objective_ok,
        "max_slice_residual": report.max_slice_residual,
        **_checks(report.trace, report.trace.column("max_constraint_avg") - 1.0,
                  ("max_constraint_avg", "bound")),
    }
    header = ["t", "eta", "max_constraint_avg", "bound"]
    return header, rows, summary, {}, (report.feasible, report.objective_ok)


def _run_maxflow(config: ExperimentConfig):
    network = parse_graph(_read_instance(config.graph, "--graph", config.kind), name=str(config.graph))
    sol = max_flow(network, config.epsilon)
    cands = sol.candidates
    rows = Rows((range(1, len(cands) + 1), [c.target for c in cands], [c.rounds for c in cands],
                 [c.max_constraint for c in cands], [int(c.accepted) for c in cands], [c.stop for c in cands]))
    edges = network.edges
    flows = Rows((range(1, len(edges) + 1), [u + 1 for u, _ in edges], [v + 1 for _, v in edges], sol.flows))
    summary = {
        "nodes": network.nodes,
        "edges": network.edge_count,
        "epsilon": config.epsilon,
        "value": sol.value,
        "max_violation": sol.max_violation,
        "conservation_residual": sol.conservation_residual,
        "solves": sol.solves,
        "total_rounds": sol.total_rounds,
        "early_stops": sol.early_stops,
        "accepted_target": sol.accepted_target,
        "cert_checks": len(rows),
        "cert_failures": sum(not c.holds for c in cands),
    }
    header = ["candidate", "target", "rounds", "max_constraint", "accepted", "stop"]
    return header, rows, summary, {"flows.csv": (["edge_index", "u", "v", "flow"], flows)}, (sol.clean,)


# each kind: its runner and its help text; the runner reads the solvers
# through this module's globals when it runs, so patching one takes effect
KINDS = {
    "mirror-prox": (_run_offline, "smooth offline minimization of a bundled instance"),
    "holder": (_run_offline, "offline minimization with a Holder-smooth gradient"),
    "saddle": (_run_saddle, "bilinear saddle point via coupled mirror updates"),
    "game": (_run_game, "strongly uncoupled zero-sum self-play, full payoff vectors"),
    "game-bandit": (_run_game, "zero-sum self-play from four scalar payoffs per round"),
    "cvxprog": (_run_cvxprog, "approximate smooth convex programming on a bundled instance"),
    "maxflow": (_run_maxflow, "approximate max flow on a unit-capacity graph file"),
}


# ---------------------------------------------------------------- output

def _cell_rule(value):
    """How a cell is written; the rule depends on the cell's type alone."""
    cls = type(value)
    if cls is float:  # most cells; repr is the round-trip form
        return repr
    if cls is int:
        return str
    if isinstance(value, (bool, np.bool_)):
        return lambda v: "true" if v else "false"
    if isinstance(value, (int, np.integer)):
        return lambda v: str(int(v))
    if isinstance(value, (float, np.floating)):
        return lambda v: repr(float(v))
    return str


def _format_cell(value) -> str:
    return _cell_rule(value)(value)


def _write_fresh(path: Path, lines: Iterable[str]) -> None:
    """Write `lines` (each without its newline) to `path` as they come."""
    # rewriting an existing file in place forces a flush when it is closed
    # (ext4 does this); unlinking it first makes the write a new file
    path.unlink(missing_ok=True)
    with path.open("w") as fh:
        for line in lines:
            fh.write(line + "\n")


_BLOCK_ROWS = 64  # rows formatted at a time


def _column_cells(column):
    """cells(start, stop): the text of column[start:stop]. A Constant is
    formatted once; cells of one type (a typed array's always are) take
    that type's rule, and mixed cells go one by one."""
    if isinstance(column, Constant):
        cell = _format_cell(column.value)
        return lambda start, stop: [cell] * (stop - start)
    one_type = isinstance(column, array) or len(set(map(type, column))) == 1
    rule = _cell_rule(column[0]) if one_type and len(column) else _format_cell
    return lambda start, stop: list(map(rule, column[start:stop]))


def _write_csv(path: Path, header: Sequence[str], rows: Rows) -> None:
    """Write `header` and the columns of `rows`, a block of rows at a time:
    the text _format_cell gives cell by cell, a Constant column formatted
    once."""
    columns = [_column_cells(column) for column in rows.columns]
    n = len(rows)

    def lines():
        yield ",".join(header)
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            yield "\n".join(map(",".join, zip(*(cells(start, stop) for cells in columns))))

    _write_fresh(path, lines())


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Make the output directory, dispatch to the configured kind, and write
    the trace and summary files into it.

    The directory comes first, so an unusable `out` fails before round 1.
    An exception from the runner, raised before any file is written, removes
    the directories this call made (a directory that existed before stays)
    and passes on unchanged: a `ConfigError` is bad input, anything else a
    fault inside the solver.
    """
    out_dir = Path(config.out)
    made = list(takewhile(lambda path: not path.exists(), (out_dir, *out_dir.parents)))  # innermost first
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc}") from None
    started = time.perf_counter()
    try:
        header, rows, summary, extras, verdicts = KINDS[config.kind][0](config)
    except BaseException:
        for directory in made:
            with suppress(OSError):
                directory.rmdir()
        raise
    elapsed = time.perf_counter() - started

    # the solvers' run-level verdicts: the bandit estimator guard, cvxprog's
    # feasibility and objective, max flow's clean final flow
    status = 0 if summary["cert_failures"] == 0 and all(verdicts) else 1
    full_summary = {"kind": config.kind, "seed": config.seed}
    full_summary.update(summary)
    full_summary["status"] = status
    full_summary["wall_time_s"] = elapsed

    trace_path = out_dir / "trace.csv"
    summary_path = out_dir / "summary.txt"
    extra_paths = {filename: out_dir / filename for filename in extras}
    try:
        _write_csv(trace_path, header, rows)
        _write_fresh(summary_path, (f"{key}={_format_cell(value)}" for key, value in full_summary.items()))
        for filename, (extra_header, extra_rows) in extras.items():
            _write_csv(extra_paths[filename], extra_header, extra_rows)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc}") from None
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
