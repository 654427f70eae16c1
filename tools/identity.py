"""Byte-identity check of two source trees: python tools/identity.py PARENT CHANGE

Runs the case list below through `omdkit.cli.main` once for each tree, each
tree in a fresh interpreter that imports omdkit from that tree's `src`, and
compares what every case wrote: `trace.csv`, `flows.csv` and `summary.txt`
(less its `wall_time_s` line) byte for byte, and the exit status. Both
trees read the same input files, written once, before either runs, from the
fixed matrices and graphs below and from the benchmark's own generator
(`perfbench/inputs.py` of the tree holding this file) at seeds 0, 1 and 7.
Besides the runs, the cases cover a config file of each kind (a `kind=`
line, a comment, a blank line and an indented `key = value`), a value out
of range for its kind, which exits 2, and a graph with no path from source
to sink, which no candidate searches.

A case whose outputs are meant to change is declared, by name, in the
change tree's `tools/identity_breaks.txt`: one case name a line, `#`
comments and blank lines allowed. Prints one line per difference, which
names what differs (`describe`: the summary keys, the first CSV line), and
one per failure, and exits 1 if any case fails the verdict (`verdict`),
else 0.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import zip_longest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
HORIZONS = (2, 63, 64, 65, 129, 200)
MATRICES = {"300x200": (300, 200), "10x10": (10, 10), "1x5": (1, 5), "7x3": (7, 3)}
BANDIT_SEEDS = (0, 3, 7)
OFFLINE = (("mirror-prox", "quad-ball"), ("holder", "quad-ball"), ("holder", "half-ball"), ("holder", "vertex-pull"))
CVXPROG = ("box", "inactive", "interval", "simplex-capped", "tied")
BENCH_SEEDS = (0, 1, 7)
# 4 nodes, 5 edges, source 1, sink 4
SMALL_GRAPH = "p 4 5 1 4\ne 1 2\ne 1 3\ne 2 3\ne 2 4\ne 3 4\n"
# 4 nodes, source 1, sink 4, one edge: no path, so no candidate
DISCONNECTED_GRAPH = "p 4 1 1 4\ne 1 2\n"
OUTPUTS = ("trace.csv", "flows.csv", "summary.txt")
BREAKS = Path("tools") / "identity_breaks.txt"


def write_inputs(directory: Path) -> list[tuple[str, list[str]]]:
    """Write every input file under `directory`; return the cases as
    (name, argv without --out)."""
    cases = []
    for name, shape in MATRICES.items():
        a = np.random.default_rng(list(shape)).uniform(-1.0, 1.0, size=shape)
        matrix = directory / f"{name}.txt"
        matrix.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in a) + "\n")
        for T in HORIZONS:
            rounds = ["--matrix", str(matrix), "--rounds", str(T)]
            cases.append((f"game-{name}-T{T}", ["game", *rounds]))
            cases.append((f"game-{name}-T{T}-no-mixing", ["game", *rounds, "--no-mixing"]))
            cases.append((f"saddle-{name}-T{T}", ["saddle", *rounds]))
            cases += [(f"game-bandit-{name}-T{T}-seed{seed}", ["game-bandit", *rounds, "--seed", str(seed)])
                      for seed in BANDIT_SEEDS]
    for kind, instance in OFFLINE:
        cases.append((f"{kind}-{instance}", [kind, "--instance", instance]))
        cases += [(f"{kind}-{instance}-T{T}", [kind, "--instance", instance, "--rounds", str(T)]) for T in HORIZONS]
    for instance in CVXPROG:
        cases.append((f"cvxprog-{instance}", ["cvxprog", "--instance", instance]))
        cases += [(f"cvxprog-{instance}-T{T}", ["cvxprog", "--instance", instance, "--rounds", str(T)])
                  for T in HORIZONS]
    graph = directory / "small.graph.txt"
    graph.write_text(SMALL_GRAPH)
    cases.append(("maxflow-small", ["maxflow", "--graph", str(graph)]))
    disconnected = directory / "disconnected.graph.txt"
    disconnected.write_text(DISCONNECTED_GRAPH)
    cases.append(("maxflow-disconnected", ["maxflow", "--graph", str(disconnected)]))
    matrix = directory / "7x3.txt"
    cases.append(("game-7x3-T1", ["game", "--matrix", str(matrix), "--rounds", "1"]))
    cases.append(("maxflow-small-epsilon1", ["maxflow", "--graph", str(graph), "--epsilon", "1"]))
    for kind, line in (("mirror-prox", "rounds = 65"), ("holder", "instance = vertex-pull"),
                       ("saddle", f"matrix = {matrix}"), ("game", f"matrix = {matrix}"),
                       ("game-bandit", f"matrix = {matrix}"), ("cvxprog", "instance = tied"),
                       ("maxflow", f"graph = {graph}")):
        config = directory / f"{kind}.cfg"
        config.write_text(f"kind={kind}\n# a comment, then a blank line\n\n    {line}\n")
        cases.append((f"config-{kind}", [kind, "--config", str(config)]))

    sys.path.insert(0, str(HERE / "perfbench"))
    import inputs  # the benchmark's generator; it does not import omdkit

    for workload in inputs.WORKLOADS:
        for seed in BENCH_SEEDS:
            for op in inputs.build(workload, seed, directory / f"bench-{workload}-{seed}"):
                if "config" in op:  # the adaptive loop is no CLI kind
                    cases.append((f"bench-{seed}-{op['name']}", [op["kind"], "--config", op["config"]]))
    return cases


def run_cases(cases_file: Path, out: Path) -> None:
    """Run every case through the omdkit of the working directory's `src`;
    record the statuses."""
    from omdkit import cli

    if Path.cwd() / "src" not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"omdkit comes from {cli.__file__}, not from {Path.cwd() / 'src'}")
    statuses = {}
    for name, argv in json.loads(cases_file.read_text()):
        with open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
            try:
                statuses[name] = cli.main([*argv, "--out", str(out / name)])
            except SystemExit as exc:  # argparse rejects a flag
                statuses[name] = exc.code
    (out / "status.json").write_text(json.dumps(statuses))


def outputs(directory: Path) -> dict[str, bytes]:
    found = {}
    for name in OUTPUTS:
        path = directory / name
        if path.is_file():
            data = path.read_bytes()
            if name == "summary.txt":
                data = b"".join(line for line in data.splitlines(True) if not line.startswith(b"wall_time_s="))
            found[name] = data
    return found


def describe(file: str, before: bytes | None, after: bytes | None) -> str:
    """What differs in one output of a case, as its difference line says it:
    the summary keys whose lines differ, in the parent's key order and then
    the change's (`key order` when only the order moved); the first line of
    a CSV that differs, the header being line 1; or the side that alone
    wrote the file."""
    if before is None or after is None:
        return f"{file} written by the {'change' if before is None else 'parent'} only"
    old, new = before.splitlines(keepends=True), after.splitlines(keepends=True)
    if file == "summary.txt":
        old_keys, new_keys = (dict(line.partition(b"=")[::2] for line in lines) for lines in (old, new))
        keys = [key.decode() for key in {**old_keys, **new_keys} if old_keys.get(key) != new_keys.get(key)]
        return f"{file} differs: {', '.join(keys) or 'key order'}"
    line = next(i for i, pair in enumerate(zip_longest(old, new), start=1) if pair[0] != pair[1])
    return f"{file} differs from line {line}"


def read_breaks(text: str) -> list[str]:
    """The case names a breaks file declares: one a line, less `#` comments
    and blank lines."""
    return [name for line in text.splitlines() if (name := line.split("#", 1)[0].strip())]


def verdict(cases: list[str], differences: dict[str, list[str]], declared: list[str]) -> list[str]:
    """The failures of a comparison, one line each: a difference in a case
    not declared; a declared case whose outputs and exit status did not
    change; and a declared name that is not a case. `differences` maps a
    case to its difference lines; a case it leaves out did not change."""
    failures = []
    for name in cases:
        if name in declared:
            if not differences.get(name):
                failures.append(f"{name}: declared as a break, but its outputs and exit status did not change")
        else:
            failures += differences.get(name, [])
    failures += [f"{name}: declared as a break, but no case has this name" for name in declared if name not in cases]
    return failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--run"]:  # one tree's side, in its own interpreter
        run_cases(Path(argv[1]), Path(argv[2]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the tree to compare against")
    parser.add_argument("change", type=Path, help="the tree under test")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="omdkit-identity-") as tmp:
        work = Path(tmp)
        (work / "inputs").mkdir()
        cases = write_inputs(work / "inputs")
        cases_file = work / "cases.json"
        cases_file.write_text(json.dumps(cases))
        runs = {}
        for label, tree in (("parent", args.parent), ("change", args.change)):
            out = runs[label] = work / label
            out.mkdir()
            env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")
            subprocess.run([sys.executable, __file__, "--run", str(cases_file), str(out)],
                           env=env, cwd=tree.resolve(), check=True)
        status = {label: json.loads((out / "status.json").read_text()) for label, out in runs.items()}
        differences = {}
        for name, _ in cases:
            before, after = (outputs(runs[label] / name) for label in ("parent", "change"))
            differ = differences[name] = []
            if status["parent"][name] != status["change"][name]:
                differ.append(f"{name}: exit status {status['parent'][name]} -> {status['change'][name]}")
            for file in sorted(before.keys() | after.keys()):
                if before.get(file) != after.get(file):
                    differ.append(f"{name}: {describe(file, before.get(file), after.get(file))}")
    breaks = args.change / BREAKS
    declared = read_breaks(breaks.read_text()) if breaks.is_file() else []
    names = [name for name, _ in cases]
    failures = verdict(names, differences, declared)
    for name in names:
        for line in differences[name]:
            print(line + (" (declared)" if name in declared else ""))
    for line in failures:
        print(f"FAILED {line}")
    counts = {code: list(status["change"].values()).count(code) for code in sorted(set(status["change"].values()))}
    changed = sum(1 for lines in differences.values() if lines)
    print(f"{len(cases)} cases, by exit status {counts}; {changed} changed, {len(declared)} declared as breaks;"
          f" {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
