"""Runs one workload's operations in passes and times them; a child of run.py.

Usage: python3 worker.py <ops.json> <seconds> <trace 0|1> <result.json> <spans.npz>

Each pass runs every operation once, timed against the reference kernel
(see timing.py), then checks its output. Passes repeat while another one
fits in <seconds>. With trace 1 every pass runs with spans on and the
per-layer figures are computed from them. The result goes to <result.json>.
"""
from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import omdkit.harness as harness
import omdkit.mirror as mirror

import checks
import timing
import tracing


def adaptive_loop(losses: np.ndarray, r_max: float) -> dict:
    """omd_round with the adaptive step size, predicting the previous loss."""
    n = losses.shape[1]
    m = mirror.MirrorMap.entropy_simplex(n)
    state = mirror.OmdState.initial(m, r_max=r_max)
    prediction = np.zeros(n)
    played = 0.0
    simplex_error = 0.0
    for loss in losses:
        eta = mirror.adaptive_eta(state.sq_diff_history, r_max)
        f, state = mirror.omd_round(state, m, prediction, lambda _f, g=loss: g, eta)
        w = mirror.point_weights(f)
        played += float(w @ loss)
        simplex_error = max(simplex_error, abs(float(w.sum()) - 1.0), -float(w.min()))
        prediction = loss
    return {"regret": played - float(losses.sum(axis=0).min()), "simplex_error": simplex_error}


class _Capture:
    """Keeps the last result of a callable bound in the harness (the saddle
    kind reports no averaged strategies, which the checks need)."""

    def __init__(self, attr: str):
        self.attr = attr
        self.original = getattr(harness, attr)
        self.last = None

        def capture(*args, **kwargs):
            self.last = self.original(*args, **kwargs)
            return self.last

        setattr(harness, attr, capture)


def _operation(op: dict):
    """(call to time, untimed preparation) of one operation."""
    if op["kind"] == "adaptive-loop":
        losses = np.load(op["losses"])
        return (lambda: adaptive_loop(losses, op["r_max"])), (lambda: None)
    config = harness.config_from_sources(op["kind"], harness.load_config(op["config"]))
    # Output files are written fresh each time: rewriting an existing file
    # on ext4 forces a flush on close (about 0.13 s a file on the host of
    # README.md's figures), a cost of the disk, not of omdkit, and the
    # largest source of noise in a run.
    return (lambda: harness.run_experiment(config)), (lambda: shutil.rmtree(config.out, ignore_errors=True))


def _peak_rss_bytes() -> int:
    """High-water RSS of this process (VmHWM). ru_maxrss would not do: Linux
    carries the parent's RSS at fork into the child's ru_maxrss."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _written_bytes(output) -> int:
    if isinstance(output, dict):
        return 0
    return sum(os.path.getsize(p) for p in [output.trace_path, *output.extra_paths.values()])


def main(argv) -> int:
    ops = json.loads(Path(argv[1]).read_text())
    budget = float(argv[2])
    traced = argv[3] == "1"
    result_path, spans_path = Path(argv[4]), Path(argv[5])

    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    saddle = _Capture("saddle_solve")
    runs = [(op, _operation(op)) for op in ops]
    sampler = timing.Sampler()

    samples = {op["name"]: [] for op in ops}  # (seconds less kernel time, kernel mean s)
    written = {}
    attempted = failed = passes = 0
    problems: list[str] = []
    notes: list[str] = []
    started = time.perf_counter()
    while True:
        for op, (run, prepare) in runs:
            prepare()
            gc.collect()
            call = run if tracer is None else lambda: tracer.span(tracing.OP, run)
            attempted += 1
            try:
                output, elapsed, kernel = sampler.time(call)
            except Exception as exc:  # an operation that raises has failed
                failed += 1
                notes.append(f"{op['name']}: raised {type(exc).__name__}: {exc}")
                continue
            samples[op["name"]].append((elapsed, kernel))
            op_failed, op_problems = checks.check(op, output, saddle.last)
            failed += op_failed
            if op_problems and (not op_failed or op.get("known_fault")):
                problems += [f"{op['name']}: {p}" for p in op_problems]
            elif op_problems:
                notes += [f"{op['name']} (failed): {p}" for p in op_problems]
            written.setdefault(op["name"], _written_bytes(output))
        passes += 1
        now = time.perf_counter()
        if now + (now - started) / passes > started + budget:
            break

    timed = {name: s for name, s in samples.items() if s}
    run_s = sum(timing.seconds([e / k for e, k in s]) for s in timed.values())
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "problems": problems[:20],
        "notes": notes[:20],
        "run_s": run_s,
        "raw_run_s": sum(statistics.median(e for e, _ in s) for s in timed.values()),
        "peak_rss_mb": _peak_rss_bytes() / 1e6,
        "trace_mb": sum(written.values()) / 1e6,
        "samples": samples,
    }
    if tracer is not None:
        tracer.uninstall()
        a = tracer.arrays()
        op_time = float(np.sum((a["end"] - a["start"])[a["kind"] == 0]))
        layers = tracing.layer_metrics(tracer, passes, op_time)
        layers["harness.trace_mb"] = result["trace_mb"]
        layers["bench.traced_run_s"] = run_s
        result["layers"] = layers
        tracer.save(spans_path)
    result_path.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
