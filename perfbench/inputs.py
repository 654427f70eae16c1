"""Workload inputs, generated from the benchmark seed.

`build(workload, seed, directory)` writes the input files omdkit reads
(matrix files, graph files, key=value run configs, the adaptive loop's loss
stream) and returns the operations of one pass, each with the reference
figures its output is checked against. Sizes, horizons and graph shapes are
fixed; the seed draws only entries, edges and bandit draws, so every seed
gives the same amount of work.
"""
from __future__ import annotations

import json
import math
import zlib
from pathlib import Path

import numpy as np

import oracles

WORKLOADS = ("selfplay", "bandit", "horizon", "flow")

# (rows, cols, rounds) of each matrix game
SELFPLAY_WIDE = (300, 200, 2000)
SELFPLAY_NARROW = (10, 10, 20000)
BANDIT_WIDE = (200, 150, 300)
# The narrow bandit match does not depend on the seed: its matrix and draws
# are fixed, because it fails the estimator guard every time (see README).
BANDIT_NARROW = (20, 20, 10000)
BANDIT_NARROW_MATRIX_SEED = 20
BANDIT_NARROW_DRAW_SEED = 0
OFFLINE_RUNS = (("mirror-prox", "quad-ball", 20000), ("holder", "half-ball", 20000), ("holder", "vertex-pull", 20000))
SADDLE = (8, 8, 10000)
ADAPTIVE = (8, 3000)  # actions, rounds
# (nodes, edges, source degree) of the small random flow graphs
FLOW_SMALL = ((6, 9, 2), (9, 14, 3), (12, 20, 3), (15, 28, 4))
FLOW_GRID = (5, 10, 5)  # rows, columns, extra diagonals
FLOW_LAYERED = (6, 5, 100)  # layers, width, total edges
FLOW_EPSILON = 0.2
CVXPROG_EPSILON = 0.01


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _write_matrix(path: Path, a: np.ndarray) -> None:
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in a) + "\n")


def _write_graph(path: Path, nodes: int, edges, source: int, sink: int) -> None:
    lines = [f"p {nodes} {len(edges)} {source + 1} {sink + 1}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")


def _write_config(path: Path, **entries) -> None:
    path.write_text("".join(f"{k}={v}\n" for k, v in entries.items()))


def _small_graph(rng, nodes: int, edges: int, source_degree: int):
    """Connected graph with exactly `edges` edges and a source of fixed degree."""
    source, sink = 0, nodes - 1
    rest = list(range(1, nodes))
    order = [rest[i] for i in rng.permutation(len(rest))]
    chosen = set()
    for i in range(1, len(order)):
        u, v = order[i], order[int(rng.integers(0, i))]
        chosen.add((min(u, v), max(u, v)))
    for v in rng.choice(rest, size=source_degree, replace=False):
        chosen.add((source, int(v)))
    free = [(u, v) for u in rest for v in rest if u < v and (u, v) not in chosen]
    need = edges - len(chosen)
    if need < 0 or need > len(free):
        raise ValueError("graph slot cannot hold the requested edge count")
    for k in rng.choice(len(free), size=need, replace=False):
        chosen.add(free[int(k)])
    return sorted(chosen), source, sink


def _grid_graph(rng, rows: int, cols: int, diagonals: int):
    """rows x cols grid; the source feeds the left column, the sink drains the
    right one; `diagonals` random cell diagonals are added."""
    node = lambda r, c: 1 + r * cols + c  # noqa: E731
    nodes = rows * cols + 2
    source, sink = 0, nodes - 1
    edges = set()
    for r in range(rows):
        edges.add((source, node(r, 0)))
        edges.add((node(r, cols - 1), sink))
        for c in range(cols):
            if c + 1 < cols:
                edges.add((node(r, c), node(r, c + 1)))
            if r + 1 < rows:
                edges.add((node(r, c), node(r + 1, c)))
    cells = [(r, c) for r in range(rows - 1) for c in range(cols - 1)]
    for k in rng.choice(len(cells), size=diagonals, replace=False):
        r, c = cells[int(k)]
        u, v = (node(r, c), node(r + 1, c + 1)) if rng.integers(2) else (node(r, c + 1), node(r + 1, c))
        edges.add((min(u, v), max(u, v)))
    return nodes, sorted(edges), source, sink


def _layered_graph(rng, layers: int, width: int, total: int):
    """source -> layer 1 -> ... -> layer L -> sink; consecutive layers joined by
    a random perfect matching plus random extra edges up to `total`."""
    nodes = layers * width + 2
    source, sink = 0, nodes - 1
    layer = lambda i: [1 + i * width + k for k in range(width)]  # noqa: E731
    edges = {(source, v) for v in layer(0)} | {(u, sink) for u in layer(layers - 1)}
    free = []
    for i in range(layers - 1):
        a, b = layer(i), layer(i + 1)
        perm = rng.permutation(width)
        matched = {(a[k], b[int(perm[k])]) for k in range(width)}
        edges |= matched
        free += [(u, v) for u in a for v in b if (u, v) not in matched]
    need = total - len(edges)
    for k in rng.choice(len(free), size=need, replace=False):
        edges.add(free[int(k)])
    return nodes, sorted(edges), source, sink


def _game_op(directory: Path, name: str, kind: str, a: np.ndarray, rounds: int, **extra):
    matrix = directory / f"{name}.matrix.txt"
    config = directory / f"{name}.cfg"
    _write_matrix(matrix, a)
    _write_config(config, kind=kind, matrix=matrix, rounds=rounds, out=directory.parent / "runs" / name, **extra)
    n, m = a.shape
    return {
        "name": name,
        "kind": kind,
        "config": str(config),
        "inputs": {"matrix": str(matrix)},
        "rows": n,
        "cols": m,
        "rounds": rounds,
        "value": oracles.lp_game_value(a),
    }


def _selfplay(rng, directory: Path):
    ops = []
    for tag, (n, m, T) in (("wide", SELFPLAY_WIDE), ("narrow", SELFPLAY_NARROW)):
        a = rng.uniform(-1.0, 1.0, size=(n, m))
        ops.append(_game_op(directory, f"selfplay.{tag}", "game", a, T))
    return ops


def _bandit(rng, directory: Path):
    n, m, T = BANDIT_WIDE
    wide = _game_op(
        directory, "bandit.wide", "game-bandit", rng.uniform(-1.0, 1.0, size=(n, m)), T,
        seed=int(rng.integers(2**31)),
    )
    n, m, T = BANDIT_NARROW
    fixed = np.random.default_rng(BANDIT_NARROW_MATRIX_SEED).uniform(-1.0, 1.0, size=(n, m))
    narrow = _game_op(directory, "bandit.narrow", "game-bandit", fixed, T, seed=BANDIT_NARROW_DRAW_SEED)
    narrow["known_fault"] = "estimator-guard"
    return [wide, narrow]


def _horizon(rng, directory: Path):
    ops = []
    for kind, instance, T in OFFLINE_RUNS:
        name = f"horizon.{instance}"
        config = directory / f"{name}.cfg"
        _write_config(config, kind=kind, instance=instance, rounds=T, out=directory.parent / "runs" / name)
        ops.append({"name": name, "kind": kind, "config": str(config), "inputs": {},
                    "instance": instance, "rounds": T})
    n, m, T = SADDLE
    ops.append(_game_op(directory, "horizon.saddle", "saddle", rng.uniform(-1.0, 1.0, size=(n, m)), T))
    n, T = ADAPTIVE
    losses = rng.uniform(-1.0, 1.0, size=(T, n))
    stream = directory / "horizon.adaptive.losses.npy"
    np.save(stream, losses)
    r_max = math.sqrt(math.log(n))
    ops.append({"name": "horizon.adaptive", "kind": "adaptive-loop", "losses": str(stream), "inputs": {},
                "rounds": T, "r_max": r_max, "bound": oracles.adaptive_regret_bound(losses, r_max)})
    return ops


def _flow(rng, directory: Path):
    graphs = []
    for k, (nodes, edges, degree) in enumerate(FLOW_SMALL):
        e, s, t = _small_graph(rng, nodes, edges, degree)
        graphs.append((f"flow.small{k + 1}", nodes, e, s, t))
    graphs.append(("flow.grid",) + _grid_graph(rng, *FLOW_GRID))
    graphs.append(("flow.layered",) + _layered_graph(rng, *FLOW_LAYERED))
    ops = []
    for name, nodes, edges, s, t in graphs:
        graph = directory / f"{name}.graph.txt"
        config = directory / f"{name}.cfg"
        _write_graph(graph, nodes, edges, s, t)
        _write_config(config, kind="maxflow", graph=graph, epsilon=FLOW_EPSILON, out=directory.parent / "runs" / name)
        ops.append({"name": name, "kind": "maxflow", "config": str(config), "inputs": {"graph": str(graph)},
                    "nodes": nodes, "edges": [list(e) for e in edges], "source": s, "sink": t,
                    "epsilon": FLOW_EPSILON, "exact": oracles.unit_max_flow(nodes, edges, s, t)})
    for instance in sorted(oracles.CVXPROG_OPTIMUM):
        name = f"flow.cvxprog.{instance}"
        config = directory / f"{name}.cfg"
        _write_config(config, kind="cvxprog", instance=instance, epsilon=CVXPROG_EPSILON,
                      out=directory.parent / "runs" / name)
        target, margin = oracles.CVXPROG_TARGET_MARGIN[instance]
        ops.append({"name": name, "kind": "cvxprog", "config": str(config), "inputs": {}, "instance": instance,
                    "epsilon": CVXPROG_EPSILON, "target": target, "margin": margin,
                    "optimum": oracles.CVXPROG_OPTIMUM[instance]})
    return ops


_GENERATORS = {"selfplay": _selfplay, "bandit": _bandit, "horizon": _horizon, "flow": _flow}


def build(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write the inputs of one workload under `directory`; return its operations."""
    directory.mkdir(parents=True, exist_ok=True)
    ops = _GENERATORS[workload](_rng(workload, seed), directory)
    (directory / "ops.json").write_text(json.dumps(ops, indent=1))
    return ops
