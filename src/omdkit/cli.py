"""Command-line entry point: one subcommand per experiment kind.

Values come from an optional key=value config file plus flags; flags win.
The run writes trace.csv and summary.txt (and flows.csv for maxflow) into
--out, prints the summary, and exits 0 when every certificate held, 1 on a
certificate violation, 2 on unusable input, 3 on a numeric fault inside a
solver (see the harness module for the full table).
"""
from __future__ import annotations

import argparse
import sys

from ._linalg import ProjectionError
from .harness import KINDS, ConfigError, config_from_sources, load_config, run_experiment

_KIND_HELP = {
    "mirror-prox": "smooth offline minimization of a bundled instance",
    "holder": "offline minimization with a Holder-smooth gradient",
    "saddle": "bilinear saddle point via coupled mirror updates",
    "game": "strongly uncoupled zero-sum self-play, full payoff vectors",
    "game-bandit": "zero-sum self-play from four scalar payoffs per round",
    "cvxprog": "approximate smooth convex programming on a bundled instance",
    "maxflow": "approximate max flow on a unit-capacity graph file",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omdkit",
        description="Run a predictable-sequence experiment and emit CSV traces.",
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="kind")
    for kind in KINDS:
        p = sub.add_parser(kind, help=_KIND_HELP[kind])
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--matrix", help="payoff matrix file, one comma-separated row per line")
        p.add_argument("--graph", help="graph file: `p <nodes> <edges> <source> <sink>` then `e <u> <v>` lines")
        p.add_argument("--rounds", type=int, help="horizon T")
        p.add_argument("--seed", type=int, help="seed for the bandit kind's draws")
        p.add_argument("--delta", type=float, help="bandit perturbation size")
        p.add_argument("--epsilon", type=float, help="accuracy for cvxprog/maxflow")
        p.add_argument("--out", help="output directory (default: runs)")
        p.add_argument(
            "--no-mixing",
            action="store_true",
            default=None,
            help="disable the uniform mixing step of the game update",
        )
        p.add_argument("--instance", help="bundled instance name for offline/cvxprog kinds")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_map = load_config(args.config) if args.config else {}
        overrides = {
            "matrix": args.matrix,
            "graph": args.graph,
            "rounds": args.rounds,
            "seed": args.seed,
            "delta": args.delta,
            "epsilon": args.epsilon,
            "instance": args.instance,
            "no-mixing": args.no_mixing,
            "out": args.out,
        }
        config = config_from_sources(args.kind, file_map, overrides)
        result = run_experiment(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProjectionError as exc:
        print(f"internal error: {exc} (residual {exc.residual!r})", file=sys.stderr)
        return 3
    sys.stdout.write(result.summary_path.read_text())
    print(f"trace={result.trace_path}")
    for path in result.extra_paths.values():
        print(f"extra={path}")
    print(f"summary={result.summary_path}")
    return result.status


if __name__ == "__main__":
    raise SystemExit(main(argv=sys.argv[1:]))
