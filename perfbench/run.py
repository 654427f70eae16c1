"""omdkit benchmark: four workloads, timed untraced, then traced per layer.

    python3 perfbench/run.py --workload selfplay --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py            # every workload untraced, then traced

Run from the repository root. One workload runs in its own child process
(worker.py), which imports omdkit from ./src; set-up is timed in fresh
interpreters (setup_probe.py). The last line printed is one JSON object:
correct, attempted, failed, and the end-to-end metrics of BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1). See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import oracles  # noqa: E402
import timing  # noqa: E402

SETUP_PROBES = 21
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    # no workload starts threads: keep BLAS single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(args, root: Path, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *map(str, args)], cwd=root, env=_child_env(root),
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(args[0])).name} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc


def _setup_s(ops_path: Path, root: Path) -> float:
    """Median, over fresh interpreters, of import plus input validation."""
    probe = BENCH / "setup_probe.py"
    _child([probe, ops_path], root, CHILD_TIMEOUT_S)  # fills the bytecode cache
    ratios = [json.loads(_child([probe, ops_path], root, CHILD_TIMEOUT_S).stdout)["ratio"]
              for _ in range(SETUP_PROBES)]
    return timing.seconds(ratios)


def run_workload(workload: str, seed: int, seconds: int, trace: int, root: Path) -> dict:
    out = (BENCH / "out" / workload).relative_to(root)
    inputs.build(workload, seed, out / "inputs")
    ops_path = out / "inputs" / "ops.json"
    result_path = out / f"result-trace{trace}.json"
    setup_s = _setup_s(ops_path, root) if trace == 0 else None
    _child([BENCH / "worker.py", ops_path, seconds, trace, result_path, out / "spans.npz"],
           root, seconds + CHILD_TIMEOUT_S)
    result = json.loads((root / result_path).read_text())
    result["setup_s"] = setup_s
    return result


def _metrics(result: dict, trace: int, spec: dict) -> dict:
    if trace == 0:
        values = {"run_s": result["run_s"], "setup_s": result["setup_s"], "peak_rss_mb": result["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    else:
        values = result["layers"]
        wanted = spec["per_layer"]
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def _line(result: dict, trace: int, spec: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": _metrics(result, trace, spec),
    }


def _report(workload: str, trace: int, result: dict) -> None:
    print(f"# {workload} trace={trace}: {result['passes']} passes, {result['attempted']} ops, "
          f"{result['failed']} failed, correct={result['correct']}", file=sys.stderr)
    for text in result["problems"] + result["notes"]:
        print(f"#   {text}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    try:
        if not (root / "src" / "omdkit" / "__init__.py").is_file():
            raise BenchError(f"no omdkit sources under {root / 'src'}; run from the repository root")
        spec = json.loads((root / "BENCHMARK.json").read_text())
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        oracles.hand_checks()
        if args.workload != "all":
            trace = args.trace or 0
            result = run_workload(args.workload, args.seed, seconds, trace, root)
            _report(args.workload, trace, result)
            print(json.dumps(_line(result, trace, spec)))
            return 0
        traces = (0, 1) if args.trace is None else (args.trace,)
        lines: dict[str, dict] = {}
        results: dict[tuple[str, int], dict] = {}
        for trace in traces:
            for workload in inputs.WORKLOADS:
                result = run_workload(workload, args.seed, seconds, trace, root)
                _report(workload, trace, result)
                results[workload, trace] = result
                line = _line(result, trace, spec)
                lines[f"{workload}/trace{trace}"] = line
                print(f"{workload} trace={trace} attempted={line['attempted']} failed={line['failed']} "
                      f"correct={line['correct']}")
                for name, m in line["metrics"].items():
                    print(f"  {name} = {m['value']:.6g} {m['unit']}")
        for workload in inputs.WORKLOADS:
            if (workload, 0) in results and (workload, 1) in results:
                untraced = results[workload, 0]["run_s"]
                traced = results[workload, 1]["run_s"]
                print(f"{workload} tracing overhead: run_s {untraced:.4f} s untraced, {traced:.4f} s traced "
                      f"({traced / untraced - 1:+.1%})")
        print(json.dumps(lines))
        return 0
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
