"""Command-line experiment runner.

    pdhyp run <config.json | preset-name> [--set key=value ...]
    pdhyp presets list
    pdhyp verify <criterion-id | all>

A copy of a preset's own file is a config file.  The --set pairs merge in
turn: `--set key=<JSON object>` merges into that section, as a file does.
Exit codes for `run`: 0 completed, 2 config error, 3 blow-up guard
triggered.  `verify` exits 0 when the criterion passes, 1 otherwise, and
2 for an unknown or malformed criterion id.
"""

import argparse
import sys

from . import acceptance, experiments
from .errors import ConfigError


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pdhyp",
        description="pseudo-spectral decay harness for partially "
                    "dissipative hyperbolic systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config or preset")
    p_run.add_argument("config", help="path to a JSON config or a preset name")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="dotted config override, e.g. time.dt=0.5")

    p_presets = sub.add_parser("presets", help="preset operations")
    p_presets.add_argument("action", choices=["list"])

    p_verify = sub.add_parser("verify", help="run an acceptance criterion")
    p_verify.add_argument("criterion", help="criterion id 1..10 or 'all'")

    args = parser.parse_args(argv)     # a required subcommand
    return {"run": _cmd_run, "presets": _cmd_presets,
            "verify": _cmd_verify}[args.command](args)


def _cmd_run(args):
    try:
        config = experiments.load_config(args.config)
        if args.overrides:
            config = config.override(args.overrides)
        return experiments.run(config, log=print).exit_code
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2


def _cmd_presets(args):
    for name, description in experiments.list_presets().items():
        print(f"{name:24s} {description}")
    return 0


def _cmd_verify(args):
    if args.criterion == "all":
        ids = sorted(acceptance.CRITERIA)
    else:
        try:
            ids = [int(args.criterion)]
        except ValueError:
            print(f"invalid criterion {args.criterion!r}; use 1..10 or 'all'",
                  file=sys.stderr)
            return 2
    all_ok = True
    for cid in ids:
        try:
            result = acceptance.run_criterion(cid)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        print(result.summary_line())
        for line in result.details:
            print(line)
        all_ok = all_ok and result.passed
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
