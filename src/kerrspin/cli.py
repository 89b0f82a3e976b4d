"""Command-line entry point.

Exit codes: 0 when every check in the run's report passed, 1 when any
check failed or the configured drive is unstable, 2 for usage and
configuration errors (unknown scenario, unknown key, bad value, an
unreadable config file, an output root that cannot hold the run).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import (
    ConfigError,
    echo,
    load_config_file,
    parse_set_value,
    resolve,
    schema_document,
)
from .dynamics import DiagnosticsError, StepSizeError
from .hamiltonians import InstabilityError
from .scenarios import SCENARIOS, list_scenarios, run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrspin",
        description="Driven-mode spin interface: reproducible scenario runner.",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run one scenario and write its artifacts")
    run_p.add_argument("scenario", help="scenario id (see `kerrspin list`)")
    run_p.add_argument("--out", help="output directory root (overrides KERRSPIN_OUT)")
    run_p.add_argument("--config", help="JSON configuration file")
    run_p.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable); VALUE parses as JSON",
    )
    # Text: _cmd_run converts it (_number), so that the schema refuses a bad
    # value in the same one line as a bad --set value, with no usage block.
    run_p.add_argument("--cutoff", help="bosonic mode truncation dimension")
    run_p.add_argument("--step", help="dissipative substep in seconds")
    run_p.add_argument(
        "--from-device",
        action="store_true",
        help="derive the interaction frame from device geometry, bias, and drive",
    )
    run_p.add_argument(
        "--angular",
        action="store_true",
        help="treat *_hz inputs as angular rates (rad/s)",
    )

    sub.add_parser("list", help="list scenario ids with one-line descriptions")

    val_p = sub.add_parser("validate", help="validate a configuration file and print it resolved")
    val_p.add_argument("config", help="JSON configuration file")

    sub.add_parser("schema", help="print the configuration schema as JSON")
    return parser


def _cmd_list() -> int:
    for info in list_scenarios():
        print(f"{info.id:18s} {info.summary}")
        print(f"{'':18s} {info.reference}")
    return 0


def _cmd_validate(path: str) -> int:
    try:
        values = load_config_file(path)
        cfg = resolve("(validate)", file_values=values)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(cfg.values, indent=2, sort_keys=True))
    return 0


def _number(text: str | None, parse: type) -> object:
    """A flag's text as parse(text) (int or float, accepting what argparse's
    type= did); None, for a flag not given, and a text that does not parse
    are passed on unchanged, for the schema to skip or refuse."""
    try:
        return parse(text)
    except (TypeError, ValueError):
        return text


def _cmd_run(args: argparse.Namespace) -> int:
    if args.scenario not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        print(f"error: unknown scenario {echo(args.scenario)} (known: {known})", file=sys.stderr)
        return 2

    try:
        file_values = load_config_file(args.config) if args.config else None
        set_pairs = []
        for item in args.sets:
            key, sep, raw = item.partition("=")
            if not sep:
                raise ConfigError(f"--set expects KEY=VALUE, got {echo(item)}")
            set_pairs.append((key.strip(), parse_set_value(raw)))
        flag_values = {
            "run.out_dir": args.out,
            "run.cutoff": _number(args.cutoff, int),
            "run.step": _number(args.step, float),
            "run.from_device": True if args.from_device else None,
            "frame.angular": True if args.angular else None,
        }
        cfg = resolve(
            args.scenario,
            file_values=file_values,
            set_pairs=set_pairs,
            flag_values=flag_values,
        )
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    root = cfg["run.out_dir"] or os.environ.get("KERRSPIN_OUT") or "runs"
    out_dir = Path(root) / args.scenario

    try:
        report = run_scenario(args.scenario, cfg, out_dir)
    except InstabilityError as err:
        print(
            "error: configured drive point is unstable "
            f"(stability margin {err.margin:.6g}); {err}",
            file=sys.stderr,
        )
        return 1
    except (StepSizeError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DiagnosticsError as err:
        print(f"error: integration diagnostics failed: {err}", file=sys.stderr)
        return 1
    except OSError as err:  # the root is a regular file, say
        # The error's own text repeats the path; its strerror does not.
        print(
            f"error: cannot write artifacts under {echo(str(root))}: {err.strerror or err}",
            file=sys.stderr,
        )
        return 2

    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        observed = check.observed
        if isinstance(observed, float):
            observed = f"{observed:.9g}"
        print(
            f"[{status}] {check.name}: observed={observed} "
            f"expected {check.expected} [{check.provenance}]"
        )
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{args.scenario}: {verdict} (artifacts in {out_dir})")
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "validate":
        return _cmd_validate(args.config)
    if args.command == "schema":
        print(json.dumps(schema_document(), indent=2, sort_keys=True))
        return 0
    if args.command == "run":
        return _cmd_run(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
