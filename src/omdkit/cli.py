"""Command-line entry point: one subcommand per experiment kind.

Values come from an optional key=value config file plus flags; flags win.
The subcommands and their flags come from the harness's KINDS and
CONFIG_KEYS tables, and a flag's text is parsed like a config file value.
The run writes trace.csv and summary.txt (and flows.csv for maxflow) into
--out, prints the summary, and exits 0 when every certificate held, 1 on a
certificate violation, 2 on unusable input, 3 on a numeric fault inside a
solver (see the harness module for the full table).
"""
from __future__ import annotations

import argparse
import sys

from ._linalg import ProjectionError
from .harness import CONFIG_KEYS, KIND_KEY, KINDS, ConfigError, config_from_sources, load_config, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omdkit",
        description="Run a predictable-sequence experiment and emit CSV traces.",
    )
    sub = parser.add_subparsers(dest=KIND_KEY, required=True, metavar=KIND_KEY)
    for kind, (_, kind_help) in KINDS.items():
        p = sub.add_parser(kind, help=kind_help)
        p.add_argument("--config", help="key=value config file; flags override it")
        for key, f in CONFIG_KEYS.items():
            # every flag keeps its text, for config_from_sources to parse
            switch = {"action": "store_const", "const": "true"} if f.metadata["switch"] else {}
            p.add_argument(f"--{key}", dest=key, help=f.metadata["help"], **switch)
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    kind, config_path = args.pop(KIND_KEY), args.pop("config")
    try:
        for key, value in args.items():
            # argparse drops a value of exactly "--", even from --out=--,
            # and hands over [] in its place
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"key {key!r}: no usable flag value (a value of exactly '--' is dropped)")
        file_map = load_config(config_path) if config_path else {}
        config = config_from_sources(kind, file_map, args)
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
