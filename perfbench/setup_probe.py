"""One set-up of a workload, timed in a fresh interpreter.

Usage: python3 setup_probe.py <ops.json>

Times `import omdkit` plus reading and validating every input file of the
workload through omdkit (run configs, matrices, graphs), and prints the
ratio of that time to the reference kernel's (see timing.py) as one JSON
line. numpy is imported before the clock starts: the timer's kernel needs
it, and its import is the same for every version of omdkit.
"""
import json
import sys
from pathlib import Path

import timing


def setup(ops) -> None:
    import omdkit.harness as harness

    for op in ops:
        if "config" in op:
            harness.config_from_sources(op["kind"], harness.load_config(op["config"]))
        if "matrix" in op["inputs"]:
            harness.parse_matrix(Path(op["inputs"]["matrix"]).read_text(), name=op["inputs"]["matrix"])
        if "graph" in op["inputs"]:
            harness.parse_graph(Path(op["inputs"]["graph"]).read_text(), name=op["inputs"]["graph"])


def main(argv) -> int:
    ops = json.loads(Path(argv[1]).read_text())
    _, elapsed, kernel = timing.Sampler().time(lambda: setup(ops))
    print(json.dumps({"ratio": elapsed / kernel}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
