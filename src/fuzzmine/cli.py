"""Command-line driver for the mining pipeline.

Two subcommands: ``mine`` runs ingestion, mining, and rendering end to
end; ``validate`` runs the config and input validators and lists their
findings. Reports go to standard output (or ``--out``), diagnostics to
standard error. Exit codes: 0 success, 1 usage error, 2 input error
(also a report that cannot be written), 3 configuration error (for
``validate``, also any error-severity finding).
"""

import argparse
import os
import sys

from .config import config_findings, load_config, parse_config_dict, read_config_file
from .errors import ConfigError, InputError
from .mining import mine
from .report import render_json, render_table
from .streams import parse_streams, parse_streams_csv, validate_bundle, validate_stream
from .tree import build_tree, render_ascii, render_dot
from .validation import ERROR, Finding, has_errors

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this CLI reserves 2 for
    input problems, so remap usage errors to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="fuzzmine",
        description="Mine time-lagged association rules from event streams "
                    "using fuzzy linguistic labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{mine,validate}")

    mine_cmd = sub.add_parser(
        "mine", help="run the full pipeline and print the rule report")
    mine_cmd.add_argument("--input", required=True, metavar="CSV",
                          help="event streams, long or wide CSV layout")
    mine_cmd.add_argument("--config", required=True, metavar="JSON",
                          help="pipeline configuration file")
    mine_cmd.add_argument("--format", choices=("table", "json"), default="table",
                          help="report format (default: table)")
    mine_cmd.add_argument("--tree", choices=("ascii", "dot"),
                          help="append the rule tree to the report; in json "
                               "format the tree is embedded structurally")
    mine_cmd.add_argument("--out", metavar="PATH",
                          help="write the report to a file instead of stdout")
    mine_cmd.set_defaults(func=cmd_mine)

    validate_cmd = sub.add_parser(
        "validate", help="check a config file and/or an input file")
    validate_cmd.add_argument("--config", metavar="JSON")
    validate_cmd.add_argument("--input", metavar="CSV")
    validate_cmd.set_defaults(func=cmd_validate)
    return parser


def cmd_mine(args):
    try:
        cfg = load_config(args.config)
        bundle = parse_streams_csv(_read_text(args.input), cfg.roles)
    except InputError as exc:
        print(f"fuzzmine: {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as exc:
        print(f"fuzzmine: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    ruleset = mine(bundle, cfg.mining)
    if args.format == "json":
        text = render_json(ruleset, build_tree(ruleset) if args.tree else None)
    else:
        text = render_table(ruleset)
        if args.tree == "ascii":
            text += "\n" + render_ascii(build_tree(ruleset))
        elif args.tree == "dot":
            text += "\n" + render_dot(build_tree(ruleset))

    try:
        _write_output(text, args.out)
    except OSError as exc:
        print(f"fuzzmine: cannot write {args.out or 'standard output'}: {exc}",
              file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def cmd_validate(args):
    if not args.config and not args.input:
        print("fuzzmine validate: provide --config and/or --input",
              file=sys.stderr)
        return EXIT_USAGE

    findings = []
    cfg = None
    if args.config:
        try:
            cfg = parse_config_dict(read_config_file(args.config))
            findings.extend(config_findings(cfg))
        except ConfigError as exc:
            findings.append(Finding(ERROR, "config", str(exc)))
    if args.input:
        try:
            text = _read_text(args.input)
            if cfg is not None:
                try:
                    findings.extend(validate_bundle(parse_streams_csv(text, cfg.roles)))
                except ConfigError as exc:
                    findings.append(Finding(ERROR, "roles", str(exc)))
            else:
                streams = parse_streams(text)
                for name in sorted(streams):
                    findings.extend(validate_stream(streams[name]))
        except InputError as exc:
            print(f"fuzzmine: {args.input}: {exc}", file=sys.stderr)
            return EXIT_INPUT

    if findings:
        for finding in findings:
            print(finding)
    else:
        print("no findings")
    return EXIT_CONFIG if has_errors(findings) else EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def _read_text(path):
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not valid UTF-8: {exc}") from None


def _write_output(text, path):
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return
    out = sys.stdout
    if not hasattr(out, "buffer"):   # a text-only stand-in for standard output
        out.write(text)
        return
    try:   # every byte, now: a short write or the flush at exit must lose none
        out.flush()
        data = memoryview(text.encode(out.encoding, out.errors))
        while data:
            data = data[out.buffer.write(data) or 0:]   # None: would block, retry
        out.buffer.flush()
    except OSError:
        # Python flushes standard output again at exit: drop what it holds.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        raise


if __name__ == "__main__":
    sys.exit(main())
