"""Experiment front end: parsing, rate fitting, trace emission, exit codes."""
import argparse
import dataclasses
from array import array
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import exact_log_slope, reference_checks, reference_write_csv
from omdkit import cli
from omdkit import harness
from omdkit._rows import Constant, RowTable, Rows
from omdkit._linalg import ProjectionError
from omdkit.convexprog import CpRound, FlowSolution
from omdkit.games import TraceRow, bandit_cap
from omdkit.harness import (
    ConfigError,
    ExperimentConfig,
    config_from_sources,
    fit_rate,
    load_config,
    parse_graph,
    parse_matrix,
    run_experiment,
)
from omdkit.mirror import RegretCertificate
from omdkit.offline import OfflineRound, builtin_problems, mirror_prox, trajectory
from omdkit.saddle import SaddleRound


# ---------------------------------------------------------------- fit_rate

def test_fit_rate_exact_power_laws():
    horizons = [50.0, 100.0, 200.0, 400.0, 800.0]
    assert fit_rate(horizons, [3.0 / t for t in horizons]) == pytest.approx(-1.0, abs=1e-9)
    assert fit_rate(horizons, [3.0 / math.sqrt(t) for t in horizons]) == pytest.approx(-0.5, abs=1e-9)
    assert fit_rate(horizons, [7.0] * 5) == pytest.approx(0.0, abs=1e-9)


def test_fit_rate_noisy_t_inverse():
    rng = np.random.default_rng(4)
    horizons = np.array([50.0, 100.0, 200.0, 400.0, 800.0, 1600.0])
    values = (2.0 / horizons) * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=6))
    assert -1.2 <= fit_rate(horizons, values) <= -0.8


def test_fit_rate_rejections():
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0], [1.0, 0.5])
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0, 3.0], [1.0, -0.5, 0.1])
    with pytest.raises(ValueError):
        fit_rate([0.0, 2.0, 3.0], [1.0, 0.5, 0.1])
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0, 3.0], [1.0, 0.5])


def test_fit_rate_is_nan_when_every_horizon_is_the_same():
    assert math.isnan(fit_rate([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))


@dataclasses.dataclass
class _CheckRow:
    t: int
    value: float
    lhs: float
    rhs: float


def _check_table(t, value, lhs, rhs) -> RowTable:
    table = RowTable(_CheckRow)
    table.extend(t, value, lhs, rhs)
    return table


_BLOCK_EDGES = [k * harness._CHECK_ROWS + d for k in (1, 2, 3) for d in (-1, 0, 1)]


@st.composite
def _check_rows(draw):
    """Rows t = 1..n whose values mix positive ones (about c t^-a, with
    noise), zeros, negatives and NaN, and whose (lhs, rhs) pairs hold, miss,
    sit at the tolerance or are NaN."""
    n = draw(st.sampled_from([3, 4, *_BLOCK_EDGES]) | st.integers(3, 3 * harness._CHECK_ROWS + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positive = draw(st.sampled_from([0.0, 2.0 / n, 0.05, 0.5, 1.0]))
    noise = draw(st.sampled_from([0.0, 1e-6, 0.1, 3.0]))
    t = np.arange(1, n + 1)
    value = np.exp(np.log(rng.uniform(0.1, 10.0)) - rng.uniform(0.0, 2.0) * np.log(t) + noise * rng.normal(size=n))
    other = rng.choice(np.array([0.0, -0.0, -0.5, math.nan]), size=n)
    value = np.where(rng.uniform(size=n) < positive, value, other)
    rhs = rng.normal(size=n)
    lhs = rhs + rng.choice(np.array([-1.0, 0.0, 1e-9, 2e-9, 1.0, math.nan]), size=n)
    rhs[rng.uniform(size=n) < 0.01] = math.nan
    return _check_table(t, value, lhs, rhs)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_check_rows())
def test_checks_fold_against_the_whole_column_reference(table):
    # cert_failures and the NaN of fewer than three positive rows exactly as
    # the frozen whole-column code; fitted_slope within 1e-12 (absolute or
    # relative) of its np.polyfit slope, and of the exact slope of the same
    # logs: polyfit itself misses that by up to about 1e-10 on a few
    # adjacent rows at large t, where only the exact slope decides
    values = table.column("value")
    got = harness._checks(table, values, ("lhs", "rhs"))
    want = reference_checks(table, values, ("lhs", "rhs"))
    assert got["cert_checks"] == want["cert_checks"] == len(table)
    assert got["cert_failures"] == want["cert_failures"]
    slope, polyfit = got["fitted_slope"], want["fitted_slope"]
    if math.isnan(polyfit):
        assert math.isnan(slope)
        return
    exact = exact_log_slope(table.column("t"), values)
    assert abs(slope - exact) <= 1e-12 * max(1.0, abs(exact))
    assert abs(slope - polyfit) <= 1e-12 * max(1.0, abs(polyfit)) or abs(polyfit - exact) > 1e-12 * max(1.0, abs(exact))


def test_checks_take_memory_independent_of_the_rows():
    # the fold reads column views a block at a time; the whole-column code
    # this replaces took about 89 B a row more at T=20000 than at T=2000
    peaks = []
    for T in (2000, 20000):
        t = np.arange(1, T + 1)
        table = _check_table(t, 1.0 / t, np.zeros(T), np.ones(T))
        values = table.column("value")
        gc.collect()
        tracemalloc.start()
        try:
            checks = harness._checks(table, values, ("lhs", "rhs"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert checks["cert_failures"] == 0 and checks["fitted_slope"] == pytest.approx(-1.0)
    assert peaks[1] - peaks[0] < 18000


# ---------------------------------------------------------------- parsers

def test_parse_matrix_pennies():
    payoff = parse_matrix("1,-1\n-1,1\n")
    assert payoff.n == 2 and payoff.m == 2
    assert np.array_equal(payoff.entries, [[1.0, -1.0], [-1.0, 1.0]])


def test_parse_matrix_skips_comments_and_blanks():
    payoff = parse_matrix("# payoffs\n\n0.5,0\n0,0.5\n")
    assert payoff.entries[0, 0] == 0.5


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("1,2.0\n-1,1\n", ":1: entry 2 is 2.0"),
        ("1,-1\n-1\n", ":2: row has 1 entries, expected 2"),
        ("1,x\n", ":1: bad entry 'x'"),
        ("", "no matrix rows"),
    ],
)
def test_parse_matrix_rejections_name_lines(text, fragment):
    with pytest.raises(ConfigError, match="matrix"):
        try:
            parse_matrix(text)
        except ConfigError as exc:
            assert fragment in str(exc)
            raise


def test_parse_graph_parallel_edges():
    net = parse_graph("p 2 2 1 2\ne 1 2\ne 1 2\n")
    assert net.nodes == 2
    assert net.edges == ((0, 1), (0, 1))
    assert net.source == 0 and net.sink == 1


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("e 1 2\n", ":1: edge listed before"),
        ("p 2 1\n", ":1: problem line must be"),
        ("p 2 1 1 2\ne 1 3\n", ":2: endpoint outside 1..2"),
        ("p 2 1 1 2\ne 1 1\n", ":2: self-loop"),
        ("p 2 2 1 2\ne 1 2\n", "declares 2 edges, found 1"),
        ("p 2 1 1 2\nq 1 2\n", ":2: unknown line type 'q'"),
        ("p 2 1 1 2\ne 1 two\n", ":2: non-integer edge endpoint"),
        ("p 2 1 1 1\ne 1 2\n", "source and sink must differ"),
        ("", "missing problem line"),
    ],
)
def test_parse_graph_rejections_name_lines(text, fragment):
    with pytest.raises(ConfigError) as info:
        parse_graph(text)
    assert fragment in str(info.value)


# ---------------------------------------------------------------- config

def test_load_config_and_merge(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# demo\nkind=game\nrounds=10\nno-mixing=true\nout=somewhere\n")
    mapping = load_config(path)
    config = config_from_sources("game", mapping, {"rounds": 25, "out": None})
    assert config.rounds == 25  # flag wins
    assert config.mixing is False
    assert config.out == "somewhere"


def test_config_kind_mismatch_and_bad_values(tmp_path):
    with pytest.raises(ConfigError, match="kind 'maxflow'"):
        config_from_sources("game", {"kind": "maxflow"})
    with pytest.raises(ConfigError, match="expected a number"):
        config_from_sources("game", {"rounds": "soon"})
    with pytest.raises(ConfigError, match="expected a boolean"):
        config_from_sources("game", {"no-mixing": "maybe"})
    with pytest.raises(ConfigError, match="unknown key 'mixing'"):
        config_from_sources("game", {}, {"mixing": False})  # a field name, not a key
    with pytest.raises(ConfigError, match="unknown kind"):
        ExperimentConfig(kind="tictactoe")
    with pytest.raises(ConfigError, match="seed must be nonnegative, got -1"):
        config_from_sources("game", {"seed": "-1"})
    path = tmp_path / "bad.cfg"
    path.write_text("rounds=5\nwidgets=3\n")
    with pytest.raises(ConfigError, match=r"bad.cfg:2: unknown key 'widgets'"):
        load_config(path)
    path.write_text("rounds=5\nrounds=6\n")
    with pytest.raises(ConfigError, match=r":2: duplicate key"):
        load_config(path)
    path.write_text("just words\n")
    with pytest.raises(ConfigError, match=r":1: expected key=value"):
        load_config(path)


# text near the parsers' grammar, so that most draws get past the first line
_PARSER_TOKENS = st.sampled_from(
    ["p", "e", " ", ",", "\n", "#", "=", "-", ".", "0", "1", "2", "7", "1e308", "1e999",
     "nan", "inf", "-1", "0.5", "kind", "rounds", "no-mixing", "\t", "\r", "\x00", "é"]
)
_PARSER_TEXT = st.one_of(st.text(), st.lists(_PARSER_TOKENS, max_size=40).map("".join))


@settings(max_examples=400, deadline=1000)
@given(text=_PARSER_TEXT)
def test_instance_parsers_raise_only_config_error(text):
    for parse in (parse_matrix, parse_graph):
        try:
            parse(text)
        except ConfigError:
            pass


@settings(max_examples=200, deadline=1000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(st.binary(), _PARSER_TEXT.map(lambda t: t.encode("utf-8", "surrogatepass"))))
def test_load_config_raises_only_config_error(tmp_path, data):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(data)
    try:
        load_config(path)
    except ConfigError:
        pass


def test_undecodable_config_and_matrix_are_config_errors(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"rounds=5\nout=caf\xe9\n")
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(path)
    path.write_bytes(b"1,-1\n\xff,1\n")
    with pytest.raises(ConfigError, match="cannot read"):
        run_experiment(ExperimentConfig(kind="game", matrix=str(path), out=str(tmp_path / "x")))


# each key's text drawn from values that parse; the path-like keys take any
# text without surrounding blanks or a line break, except "--", which
# argparse drops even from `--out=--`
_WORD = st.text(alphabet="ab/._-=#0 ", min_size=1, max_size=12).map(str.strip).filter(lambda w: w not in ("", "--"))
_KEY_TEXT = {
    "matrix": _WORD,
    "graph": _WORD,
    "rounds": st.integers(1, 10**6).map(str),
    "seed": st.integers(0, 10**6).map(str),
    "delta": st.floats(1e-9, 1.0).map(repr),
    "epsilon": st.floats(1e-6, 100.0).map(str),
    "instance": _WORD,
    "no-mixing": st.sampled_from(["true", "false", "True", "NO", "1", "0", "on", "off", "yes"]),
    "out": _WORD,
}


def test_key_table_is_the_config_fields():
    assert set(harness.CONFIG_KEYS) == set(_KEY_TEXT)
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
        "kind", "matrix", "graph", "rounds", "seed", "delta", "epsilon", "instance", "mixing", "out",
    ]
    assert ExperimentConfig("game") == ExperimentConfig(
        "game", matrix=None, graph=None, rounds=None, seed=0, delta=None,
        epsilon=0.1, instance=None, mixing=True, out="runs",
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(list(harness.KINDS)),
    values=st.fixed_dictionaries({}, optional=_KEY_TEXT),
    kind_line=st.booleans(),
)
def test_file_overrides_and_flags_build_one_config(tmp_path, kind, values, kind_line):
    # the three sources build one config, or fail with one message (a
    # horizon or epsilon out of range for the kind)
    def build(file_map, overrides=None):
        try:
            return config_from_sources(kind, file_map, overrides)
        except ConfigError as exc:
            return str(exc)

    path = tmp_path / "run.cfg"
    lines = [f"kind={kind}"] if kind_line else []
    path.write_text("".join(f"{line}\n" for line in lines + [f"{k}={v}" for k, v in values.items()]))
    from_file = build(load_config(path))

    from_overrides = build({}, values)

    switch = values.get("no-mixing", "false").lower() in ("true", "1", "yes", "on")
    argv = [kind] + [f"--{k}={v}" for k, v in values.items() if k != "no-mixing"]
    args = vars(cli.build_parser().parse_args(argv + (["--no-mixing"] if switch else [])))
    assert args.pop(harness.KIND_KEY) == kind and args.pop("config") is None
    from_flags = build({}, args)

    assert from_file == from_overrides == from_flags
    if isinstance(from_flags, str):
        assert from_flags.startswith(("rounds must be at least 2", "epsilon must be below 1"))
        return
    assert from_flags.rounds == (int(values["rounds"]) if "rounds" in values else None)
    assert from_flags.epsilon == (float(values["epsilon"]) if "epsilon" in values else 0.1)
    assert from_flags.mixing is not switch


# ---------------------------------------------------------------- experiments

def _matrix_file(tmp_path, text="1,-1\n-0.5,1\n"):
    path = tmp_path / "payoff.txt"
    path.write_text(text)
    return str(path)


def _graph_file(tmp_path, text="p 2 2 1 2\ne 1 2\ne 1 2\n"):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    return str(path)


def test_zero_matrix_game_gap_zero_status_zero(tmp_path):
    config = ExperimentConfig(
        kind="game",
        matrix=_matrix_file(tmp_path, "0,0\n0,0\n"),
        rounds=10,
        out=str(tmp_path / "run"),
    )
    result = run_experiment(config)
    assert result.status == 0
    assert result.summary["gap"] == 0.0
    assert result.summary["cert_checks"] == 10
    assert result.summary["cert_failures"] == 0
    lines = result.trace_path.read_text().splitlines()
    assert lines[0] == "t,eta_row,eta_col,gap,cert_lhs_row,cert_rhs_row,cert_lhs_col,cert_rhs_col"
    assert len(lines) == 11
    assert "status=0" in result.summary_path.read_text().splitlines()
    # on equal entries the running sums cancel exactly; the gap of the
    # averages, taken apart from them, once read -4.440892098500626e-16 here
    ones = _matrix_file(tmp_path, "1,1,1\n1,1,1\n")
    for kind in ("game", "game-bandit"):
        result = run_experiment(ExperimentConfig(kind=kind, matrix=ones, rounds=40, out=str(tmp_path / kind)))
        assert "gap=0.0" in result.summary_path.read_text().splitlines(), kind


def test_maxflow_parallel_edges(tmp_path):
    config = ExperimentConfig(
        kind="maxflow",
        graph=_graph_file(tmp_path),
        epsilon=0.1,
        out=str(tmp_path / "run"),
    )
    result = run_experiment(config)
    assert result.status == 0
    assert result.summary["value"] >= 1.8
    flow_lines = result.extra_paths["flows.csv"].read_text().splitlines()
    assert flow_lines[0] == "edge_index,u,v,flow"
    assert len(flow_lines) == 3
    assert flow_lines[1].startswith("1,1,2,")


def test_maxflow_trace_says_why_each_candidate_stopped(tmp_path):
    graph = _graph_file(tmp_path, "p 4 5 1 4\ne 1 2\ne 2 4\ne 1 3\ne 3 4\ne 2 3\n")
    result = run_experiment(
        ExperimentConfig(kind="maxflow", graph=graph, epsilon=0.1, out=str(tmp_path / "run"))
    )
    assert result.status == 0
    assert result.trace_header[-1] == "stop"
    stops = [row[-1] for row in result.trace_rows]
    assert set(stops) <= {"accepted-early", "horizon"}
    assert result.summary["early_stops"] == stops.count("accepted-early") >= 1
    assert result.summary["total_rounds"] == sum(row[2] for row in result.trace_rows)
    lines = result.trace_path.read_text().splitlines()
    assert lines[0] == "candidate,target,rounds,max_constraint,accepted,stop"
    assert all(line.rsplit(",", 1)[1] in ("accepted-early", "horizon") for line in lines[1:])


@pytest.mark.parametrize("fault", ["objective", "violation"])
def test_maxflow_fails_on_the_solvers_verdicts(tmp_path, monkeypatch, fault):
    # an accepted candidate whose blend misses (1 - eps/2) * target fails its
    # row; a final flow off by more than 1e-7 fails the run
    real = harness.max_flow

    def faulty(network, epsilon):
        sol = real(network, epsilon)
        if fault == "objective":
            sol.candidates[0] = dataclasses.replace(sol.candidates[0], accepted=True, objective_ok=False)
            return sol
        return FlowSolution(sol.flows, sol.value, 2e-7, 0.0, sol.candidates)

    monkeypatch.setattr(harness, "max_flow", faulty)
    config = ExperimentConfig(kind="maxflow", graph=_graph_file(tmp_path), epsilon=0.2, out=str(tmp_path / "run"))
    result = run_experiment(config)
    assert result.status == 1
    assert result.summary["cert_failures"] == (1 if fault == "objective" else 0)


def test_summary_counters_match_trace_rows(tmp_path):
    configs = [
        ExperimentConfig(kind="game", matrix=_matrix_file(tmp_path), rounds=12, out=str(tmp_path / "a")),
        ExperimentConfig(kind="game-bandit", matrix=_matrix_file(tmp_path), rounds=12, out=str(tmp_path / "b")),
        ExperimentConfig(kind="saddle", matrix=_matrix_file(tmp_path), rounds=12, out=str(tmp_path / "c")),
        ExperimentConfig(kind="mirror-prox", rounds=12, out=str(tmp_path / "d")),
        ExperimentConfig(kind="holder", instance="vertex-pull", rounds=12, out=str(tmp_path / "e")),
        ExperimentConfig(kind="cvxprog", instance="box", epsilon=0.2, out=str(tmp_path / "f")),
        ExperimentConfig(kind="maxflow", graph=_graph_file(tmp_path), epsilon=0.2, out=str(tmp_path / "g")),
    ]
    for config in configs:
        result = run_experiment(config)
        assert result.status == 0, config.kind
        assert result.summary["cert_failures"] == 0, config.kind
        rows = result.trace_path.read_text().splitlines()[1:]
        assert result.summary["cert_checks"] == len(rows), config.kind


def test_reruns_bit_identical(tmp_path):
    for kind, extra in [
        ("game", {"matrix": _matrix_file(tmp_path), "rounds": 30}),
        ("game-bandit", {"matrix": _matrix_file(tmp_path), "rounds": 30, "seed": 5}),
        ("saddle", {"matrix": _matrix_file(tmp_path), "rounds": 30}),
        ("holder", {"rounds": 30}),
        ("cvxprog", {"epsilon": 0.2}),
        ("maxflow", {"graph": _graph_file(tmp_path), "epsilon": 0.2}),
    ]:
        first = run_experiment(ExperimentConfig(kind=kind, out=str(tmp_path / f"{kind}1"), **extra))
        second = run_experiment(ExperimentConfig(kind=kind, out=str(tmp_path / f"{kind}2"), **extra))
        assert first.trace_path.read_bytes() == second.trace_path.read_bytes(), kind


def test_offline_trace_final_row_matches_certificate(tmp_path):
    config = ExperimentConfig(kind="mirror-prox", rounds=40, out=str(tmp_path / "run"))
    result = run_experiment(config)
    problem, _ = builtin_problems()["quad-ball"]
    res = mirror_prox(problem, 40)
    cert = RegretCertificate(problem.mirror_map, res.eta, problem.minimizer)
    for log in trajectory(problem, 40, res.eta):
        cert.update(log)
    last = result.trace_rows[-1]
    assert last[3] == pytest.approx(cert.lhs, rel=1e-12, abs=1e-12)
    assert last[4] == pytest.approx(cert.rhs, rel=1e-12, abs=1e-12)


def test_unknown_instance_and_missing_inputs(tmp_path):
    with pytest.raises(ConfigError, match="unknown instance"):
        run_experiment(ExperimentConfig(kind="holder", instance="nope", out=str(tmp_path / "x")))
    with pytest.raises(ConfigError, match="needs --matrix"):
        run_experiment(ExperimentConfig(kind="game", out=str(tmp_path / "x")))
    with pytest.raises(ConfigError, match="exponent 0.5"):
        run_experiment(
            ExperimentConfig(kind="mirror-prox", instance="half-ball", out=str(tmp_path / "x"))
        )
    with pytest.raises(ConfigError, match="cannot read"):
        run_experiment(
            ExperimentConfig(kind="game", matrix=str(tmp_path / "ghost.txt"), out=str(tmp_path / "x"))
        )
    # horizon errors surface as config errors, not tracebacks
    with pytest.raises(ConfigError, match="rounds must be at least 1, got 0"):
        ExperimentConfig(kind="holder", rounds=0)
    with pytest.raises(ConfigError, match="rounds must be at least 2, got 0"):
        ExperimentConfig(kind="game", rounds=0)
    with pytest.raises(ConfigError, match="rounds must be at least 2, got 1"):
        ExperimentConfig(kind="game", matrix=_matrix_file(tmp_path), rounds=1, out=str(tmp_path / "x"))


def test_certificate_failure_sets_status_one(tmp_path, monkeypatch):
    def broken(config):
        header = ["t", "cert_lhs", "cert_rhs"]
        return header, Rows(([1], [2.0], [1.0])), {"cert_checks": 1, "cert_failures": 1}, {}, (True,)

    monkeypatch.setitem(harness.KINDS, "game", (broken, "a runner whose certificate fails"))
    result = run_experiment(
        ExperimentConfig(kind="game", matrix=_matrix_file(tmp_path), out=str(tmp_path / "x"))
    )
    assert result.status == 1
    assert "status=1" in result.summary_path.read_text()


def test_long_bandit_match_passes_estimator_guard(tmp_path):
    # at T=10000 the estimator's rounding alone exceeds 1e-9; the tolerance
    # derived from delta and the basis must still accept the run
    a = np.random.default_rng(20).uniform(-1, 1, size=(20, 20))
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in a) + "\n"
    config = ExperimentConfig(
        kind="game-bandit",
        matrix=_matrix_file(tmp_path, text),
        rounds=10000,
        seed=0,
        out=str(tmp_path / "run"),
    )
    result = run_experiment(config)
    assert result.summary["estimator_ok"] is True
    assert result.status == 0
    assert result.summary["estimator_error_row"] > 1e-9
    tol = result.summary["estimator_tol"]
    assert f"estimator_tol={tol!r}" in result.summary_path.read_text().splitlines()


def test_bandit_trace_columns(tmp_path):
    config = ExperimentConfig(
        kind="game-bandit", matrix=_matrix_file(tmp_path), rounds=12, out=str(tmp_path / "run")
    )
    result = run_experiment(config)
    lines = result.trace_path.read_text().splitlines()
    assert lines[0] == "t,eta_row,eta_col,gap,cap_row,cap_col"
    cap = bandit_cap(2, 2, 12)
    for row in result.trace_rows:
        assert row[4] == row[5] == cap
        assert row[1] <= cap and row[2] <= cap
    # one value each, stored once, so the writer formats each once
    assert all(isinstance(column, Constant) for column in result.trace_rows.columns[4:])


def test_rerun_into_same_out_keeps_only_new_output(tmp_path):
    matrix = _matrix_file(tmp_path)
    out = str(tmp_path / "run")
    run_experiment(ExperimentConfig(kind="game", matrix=matrix, rounds=30, out=out))
    second = run_experiment(ExperimentConfig(kind="game", matrix=matrix, rounds=10, out=out))
    fresh = run_experiment(
        ExperimentConfig(kind="game", matrix=matrix, rounds=10, out=str(tmp_path / "fresh"))
    )
    assert len(second.trace_path.read_text().splitlines()) == 11
    assert second.trace_path.read_bytes() == fresh.trace_path.read_bytes()
    keys = [line.split("=")[0] for line in second.summary_path.read_text().splitlines()]
    assert keys == list(fresh.summary)


def _parse_cell(cell: str):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


# kind -> (solver the harness calls, the solver row a trace.csv line was made from)
_SOLVER_ROWS = {
    "game": ("run_full_info_match", lambda t, *rest: TraceRow(t, *rest)),
    # the bandit rows' lhs columns are the step sizes themselves
    "game-bandit": (
        "run_bandit_match",
        lambda t, eta_row, eta_col, gap, cap_row, cap_col: TraceRow(
            t, eta_row, eta_col, gap, eta_row, cap_row, eta_col, cap_col
        ),
    ),
    "saddle": ("saddle_solve", lambda t, eta, value, gap, bound: SaddleRound(t, value, eta, gap, bound)),
    # the bundled instances' optimum is 0.0, so the suboptimality is the value
    "mirror-prox": ("mirror_prox", lambda t, eta, sub, lhs, rhs: OfflineRound(t, sub, lhs, rhs)),
    "holder": ("holder_optimize", lambda t, eta, sub, lhs, rhs: OfflineRound(t, sub, lhs, rhs)),
    "cvxprog": ("solve_cp", lambda t, eta, max_avg, bound: CpRound(t, max_avg, bound)),
}


def test_trace_rows_are_the_file_and_solver_rows_are_built_on_access(tmp_path, monkeypatch):
    solved = {}
    for solver, _ in _SOLVER_ROWS.values():
        def capture(*args, _real=getattr(harness, solver), _name=solver, **kwargs):
            solved[_name] = _real(*args, **kwargs)
            return solved[_name]

        monkeypatch.setattr(harness, solver, capture)
    matrix = _matrix_file(tmp_path, "0.5,-1,0.25\n-0.5,1,0\n")
    for kind, extra in [
        ("game", {"matrix": matrix, "rounds": 40}),
        ("game-bandit", {"matrix": matrix, "rounds": 40, "seed": 4}),
        ("saddle", {"matrix": matrix, "rounds": 40}),
        ("mirror-prox", {"rounds": 40}),
        ("holder", {"instance": "vertex-pull", "rounds": 40}),
        ("cvxprog", {"instance": "tied", "epsilon": 0.2}),
        ("maxflow", {"graph": _graph_file(tmp_path), "epsilon": 0.2}),
    ]:
        result = run_experiment(ExperimentConfig(kind=kind, out=str(tmp_path / kind), **extra))
        lines = result.trace_path.read_text().splitlines()
        rows = result.trace_rows
        assert [",".join(map(harness._format_cell, row)) for row in rows] == lines[1:], kind
        # a kind whose trace carries its headline writes the last cell's text
        headline = {"mirror-prox": "suboptimality", "holder": "suboptimality"}.get(kind, "gap")
        if headline in result.trace_header:
            cell = lines[-1].split(",")[result.trace_header.index(headline)]
            assert f"{headline}={cell}" in result.summary_path.read_text().splitlines(), kind
        assert len(rows) == len(lines) - 1 == result.summary["cert_checks"], kind
        assert rows[-1] == tuple(rows)[-1], kind
        if kind not in _SOLVER_ROWS:
            continue
        solver, solver_row = _SOLVER_ROWS[kind]
        res = solved.pop(solver)
        if kind == "cvxprog":
            res = res[1]  # solve_cp returns (f_hat, report)
        table = res.rounds if kind in ("mirror-prox", "holder") else res.trace
        fresh = [solver_row(*map(_parse_cell, line.split(","))) for line in lines[1:]]
        assert list(table) == fresh, kind
        assert len(table) == len(fresh) and table[-1] == fresh[-1], kind
        assert type(table[-1]) is type(fresh[-1]), kind


@pytest.mark.parametrize("kind", ["mirror-prox", "saddle", "game", "game-bandit"])
def test_trace_memory_per_round_stays_small(tmp_path, kind):
    # each round keeps a handful of scalars: 8 bytes each in the solver's
    # columns, plus what the slope fit and the failure count allocate for a
    # moment; a per-round Python object (a row, a tuple, a line) costs more
    if kind == "mirror-prox":
        extra = {"instance": "quad-ball"}
    else:
        a = np.random.default_rng(10).uniform(-1, 1, size=(10, 10))
        extra = {"matrix": _matrix_file(tmp_path, "\n".join(",".join(map(repr, row)) for row in a.tolist()))}
    peaks = []
    for T in (2000, 20000):
        config = ExperimentConfig(kind=kind, rounds=T, out=str(tmp_path / f"run{T}"), **extra)
        gc.collect()
        tracemalloc.start()
        try:
            result = run_experiment(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.status == 0
        del result
    assert (peaks[1] - peaks[0]) / 18000 <= 200


# ---------------------------------------------------------------- cli

def test_cli_game_roundtrip(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(
        ["game", "--matrix", _matrix_file(tmp_path), "--rounds", "15", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "status=0" in captured.out
    assert (out / "trace.csv").exists()


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"matrix={_matrix_file(tmp_path)}\nrounds=10\n")
    code = cli.main(
        ["game", "--config", str(cfg), "--rounds", "20", "--out", str(tmp_path / "run")]
    )
    assert code == 0
    assert "rounds=20" in capsys.readouterr().out


def test_cli_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1,2.0\n-1,1\n")
    code = cli.main(["game", "--matrix", str(bad), "--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert code == 2
    assert "outside [-1, 1]" in captured.err


def test_cli_no_mixing_flag(tmp_path, capsys):
    code = cli.main(
        [
            "game",
            "--matrix",
            _matrix_file(tmp_path),
            "--rounds",
            "12",
            "--no-mixing",
            "--out",
            str(tmp_path / "run"),
        ]
    )
    assert code == 0
    assert "mixing=false" in capsys.readouterr().out


@pytest.mark.parametrize(
    "fault, message",
    [
        (ProjectionError("affine projection residual 5.000e-01 exceeds tolerance", 0.5),
         "internal error: affine projection residual 5.000e-01 exceeds tolerance (residual 0.5)"),
        # a solver's own check on accepted input once exited 2, as bad input
        (ValueError("step size must be positive and finite, got nan"),
         "internal error: step size must be positive and finite, got nan"),
    ],
    ids=["projection", "value-error"],
)
def test_cli_numeric_fault_exit_three(tmp_path, capsys, monkeypatch, fault, message):
    def faulty_max_flow(network, epsilon):
        raise fault

    monkeypatch.setattr(harness, "max_flow", faulty_max_flow)
    code = cli.main(
        ["maxflow", "--graph", _graph_file(tmp_path), "--epsilon", "0.2", "--out", str(tmp_path / "run")]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == message + "\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["game-bandit", "--delta", "nan"], "delta must be positive and finite"),
        (["game-bandit", "--delta", "inf"], "delta must be positive and finite"),
        (["cvxprog", "--epsilon", "inf"], "epsilon must be positive and finite"),
        (["cvxprog", "--epsilon", "nan"], "epsilon must be positive and finite"),
        (["maxflow", "--epsilon=-inf"], "epsilon must be positive and finite"),
        (["maxflow", "--epsilon", "0"], "epsilon must be positive and finite"),
        (["maxflow", "--epsilon", "1"], "epsilon must be below 1 for maxflow, got 1.0"),
        (["maxflow", "--epsilon", "1.5"], "epsilon must be below 1 for maxflow, got 1.5"),
        *(([kind, "--rounds", "1"], "rounds must be at least 2, got 1") for kind in ("game", "game-bandit", "saddle")),
        *(([kind, "--rounds", "0"], "rounds must be at least 1, got 0") for kind in ("mirror-prox", "cvxprog")),
        *(([kind, "--seed=-1"], "seed must be nonnegative, got -1") for kind in harness.KINDS),
    ],
)
def test_cli_out_of_range_values_exit_two(tmp_path, capsys, argv, message):
    matrix, graph = ["--matrix", _matrix_file(tmp_path)], ["--graph", _graph_file(tmp_path)]
    inputs = {"game": matrix, "game-bandit": matrix, "saddle": matrix, "maxflow": graph}
    code = cli.main(argv + inputs.get(argv[0], []) + ["--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {message}")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "kind, matrix, flags, message",
    [
        # the bound depends on the matrix and the horizon, so only the runner checks it
        ("game-bandit", "1,-1\n-0.5,1\n", ["--delta", "10"], "delta 10 exceeds the mixing-floor bound"),
        ("game-bandit", "1,-1\n", [], "bandit dynamics need at least two actions per side"),
        ("game", "1,x\n", [], ":1: bad entry 'x'"),
    ],
)
@pytest.mark.parametrize("existed", [False, True])
def test_bad_input_found_by_the_runner_leaves_no_out_it_made(tmp_path, capsys, kind, matrix, flags, message, existed):
    made = tmp_path / "a"
    out = made / "b" / "run"
    if existed:
        out.mkdir(parents=True)
        (out / "kept.txt").write_text("an earlier run's file\n")
    code = cli.main([kind, "--matrix", _matrix_file(tmp_path, matrix), *flags, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and message in captured.err
    if existed:
        assert [p.name for p in out.iterdir()] == ["kept.txt"]
    else:
        assert not made.exists()


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_cli_flags_are_the_key_table():
    subcommands = _subcommands(cli.build_parser())
    assert list(subcommands) == list(harness.KINDS)
    for kind, parser in subcommands.items():
        flags = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
        assert flags - {"--help", "--config"} == {f"--{key}" for key in harness.CONFIG_KEYS}, kind


@pytest.mark.parametrize("flag, text", [("--rounds", "x"), ("--seed", "1.5"), ("--delta", "tiny")])
def test_cli_bad_flag_value_exit_two_names_the_key(tmp_path, capsys, flag, text):
    code = cli.main(["game-bandit", "--matrix", _matrix_file(tmp_path), flag, text, "--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: key {flag[2:]!r}: expected a number, got {text!r}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("blocker", ["out", "out/trace.csv"])
def test_cli_unusable_out_exit_two(tmp_path, capsys, blocker):
    # a regular file where the directory should be (making the directory
    # fails before the solver runs), or a directory where trace.csv should
    # be (the solver runs, the writing fails)
    out = tmp_path / "out"
    if blocker == "out":
        out.write_text("not a directory\n")
    else:
        (tmp_path / blocker).mkdir(parents=True)
    code = cli.main(["game", "--matrix", _matrix_file(tmp_path), "--rounds", "5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in captured.err and captured.out == ""


def test_unusable_out_fails_before_the_solver_runs(tmp_path, capsys, monkeypatch):
    def never(config):
        raise AssertionError("the solver ran")

    monkeypatch.setitem(harness.KINDS, "game", (never, harness.KINDS["game"][1]))
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    code = cli.main(["game", "--matrix", _matrix_file(tmp_path), "--rounds", "5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("kind", ["mirror-prox", "game"])
def test_cli_flag_value_of_bare_dashes_exit_two_names_the_key(tmp_path, capsys, monkeypatch, kind):
    # argparse drops the value "--" even from --out=-- and hands over [];
    # that once ran into a directory named "[]"
    monkeypatch.chdir(tmp_path)
    inputs = ["--matrix", _matrix_file(tmp_path)] if kind == "game" else []
    code = cli.main([kind, *inputs, "--rounds", "5", "--out=--"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: key 'out': ")
    assert {p.name for p in tmp_path.iterdir()} <= {"payoff.txt"}


# ---------------------------------------------------------------- trace writer

_SPECIAL_FLOATS = (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5)


@st.composite
def _trace_columns(draw):
    """Columns of one length: floats over the special values, a Constant,
    ints, bools, and a list mixing cell types."""
    n = draw(st.integers(0, 3 * harness._BLOCK_ROWS + 1))
    cells = st.sampled_from(_SPECIAL_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)
    kinds = draw(st.lists(st.sampled_from(["float", "constant", "int", "bool", "mixed"]), min_size=1, max_size=6))
    columns = []
    for kind in kinds:
        if kind == "float":
            columns.append(array("d", draw(st.lists(cells, min_size=n, max_size=n))))
        elif kind == "constant":
            columns.append(Constant(draw(cells | st.integers() | st.booleans()), n))
        elif kind == "int":
            columns.append(array("q", draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n))))
        elif kind == "bool":
            columns.append(draw(st.lists(st.booleans() | st.just(np.bool_(True)), min_size=n, max_size=n)))
        else:
            mixed = cells | st.integers() | st.booleans() | st.just("horizon") | st.just(np.float64(-0.0)) | st.just(np.int64(7))
            columns.append(draw(st.lists(mixed, min_size=n, max_size=n)))
    return columns


@settings(max_examples=80, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_trace_columns())
# equal values of two bit patterns, one column each
@example(columns=[array("d", [0.0] * 70 + [-0.0]), array("d", [math.nan] * 70 + [-math.nan])])
def test_column_writer_is_the_row_writer(tmp_path, columns):
    # byte for byte against the writer as it was, cell by cell, for a
    # Rows view over columns
    header = [f"c{k}" for k in range(len(columns))]
    rows = Rows(columns)
    expected, got = tmp_path / "expected.csv", tmp_path / "got.csv"
    reference_write_csv(expected, header, rows)
    harness._write_csv(got, header, rows)
    assert got.read_bytes() == expected.read_bytes()
