"""``bench`` command line: reproducible experiment runs from flat configs.

Usage::

    bench optimize --config exp.cfg [--seed N] [--out DIR] [--svg]
    bench lpreg    --config exp.cfg [--seed N] [--out DIR] [--svg]
    bench vmv      --config exp.cfg [--seed N] [--out DIR] [--svg]
    bench scores   --config exp.cfg [--seed N] [--out DIR] [--svg]

``--seed`` and ``--out`` override the config's ``seed`` and ``out`` keys;
``--svg`` additionally renders plots from the values just written to the
CSVs.  Every failure exits nonzero after printing a single line
``ERROR <code>: <message>`` to stderr; success prints the written file paths
to stdout.
"""

from __future__ import annotations

import argparse
import sys

from .config import SUBCOMMANDS, BenchError, parse_config
from .runners import run_lpreg, run_optimize, run_scores, run_vmv

__all__ = ["main", "build_parser"]

_RUNNERS = {"optimize": run_optimize, "lpreg": run_lpreg, "vmv": run_vmv,
            "scores": run_scores}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Reproducible sketching/optimization experiment runner.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} experiment grid")
        cmd.add_argument("--config", required=True,
                         help="flat key=value experiment config file")
        cmd.add_argument("--seed", type=int, default=None,
                         help="master seed (overrides the config)")
        cmd.add_argument("--out", default=None,
                         help="output directory (overrides the config)")
        cmd.add_argument("--svg", action="store_true",
                         help="also render SVG plots from the CSVs")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; normalize to nonzero int
        return int(exc.code or 0)

    try:
        config = parse_config(args.config, args.subcommand)
        # read even when overridden, so no run reports them as unread
        seed, out_dir, svg = config.seed, config.out, config.svg
        if args.seed is not None:  # --seed replaces the key, under its floor
            config.options["seed"] = str(args.seed)
            seed = config.seed
        written = _RUNNERS[args.subcommand](
            config, seed, out_dir if args.out is None else args.out,
            svg=args.svg or svg)
    except BenchError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"ERROR RUN_FAILED: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1

    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
