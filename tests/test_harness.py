"""Experiment front end: parsing, rate fitting, trace emission, exit codes."""
import gc
import math
import tracemalloc

import numpy as np
import pytest

from omdkit import cli
from omdkit import harness
from omdkit._linalg import ProjectionError
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
    with pytest.raises(ConfigError, match="unknown kind"):
        ExperimentConfig(kind="tictactoe")
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
    with pytest.raises(ConfigError, match="at least 1"):
        ExperimentConfig(kind="game", rounds=0)
    with pytest.raises(ConfigError, match="T must be at least 2"):
        run_experiment(
            ExperimentConfig(kind="game", matrix=_matrix_file(tmp_path), rounds=1, out=str(tmp_path / "x"))
        )


def test_certificate_failure_sets_status_one(tmp_path, monkeypatch):
    def broken(config):
        header = ["t", "cert_lhs", "cert_rhs"]
        return header, [(1, 2.0, 1.0)], {"cert_checks": 1, "cert_failures": 1}, {}, True

    monkeypatch.setitem(harness._RUNNERS, "game", broken)
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
        assert len(rows) == len(lines) - 1 == result.summary["cert_checks"], kind
        assert rows[-1] == tuple(rows)[-1], kind
        if kind not in _SOLVER_ROWS:
            continue
        solver, solver_row = _SOLVER_ROWS[kind]
        res = solved.pop(solver)
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


def test_cli_numeric_fault_exit_three(tmp_path, capsys, monkeypatch):
    def faulty_max_flow(network, epsilon):
        raise ProjectionError("affine projection residual 5.000e-01 exceeds tolerance", 0.5)

    monkeypatch.setattr(harness, "max_flow", faulty_max_flow)
    code = cli.main(
        ["maxflow", "--graph", _graph_file(tmp_path), "--epsilon", "0.2", "--out", str(tmp_path / "run")]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("internal error: affine projection residual")
    assert "(residual 0.5)" in captured.err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["game-bandit", "--delta", "nan"], "delta"),
        (["game-bandit", "--delta", "inf"], "delta"),
        (["cvxprog", "--epsilon", "inf"], "epsilon"),
        (["cvxprog", "--epsilon", "nan"], "epsilon"),
        (["maxflow", "--epsilon=-inf"], "epsilon"),
        (["maxflow", "--epsilon", "0"], "epsilon"),
    ],
)
def test_cli_non_finite_delta_epsilon_exit_two(tmp_path, capsys, argv, key):
    inputs = {"game-bandit": ["--matrix", _matrix_file(tmp_path)], "maxflow": ["--graph", _graph_file(tmp_path)]}
    code = cli.main(argv + inputs.get(argv[0], []) + ["--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {key} must be positive and finite")
    assert not (tmp_path / "run").exists()
