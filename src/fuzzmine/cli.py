"""Command-line driver for the mining pipeline.

Two subcommands: ``mine`` runs ingestion, mining, and rendering end to
end; ``validate`` runs the config and input validators and lists their
findings. Reports go to standard output (or ``--out``) and the listing
to standard output, always as UTF-8 whatever the locale; diagnostics go
to standard error. Exit codes: 0 success, 1 usage error, 2 input error
(also a report or listing that cannot be written), 3 configuration
error (for ``validate``, also any error-severity finding).
"""

import argparse
import errno
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
    validate_cmd.set_defaults(func=cmd_validate, out=None)
    return parser


def cmd_mine(args):
    """The report for ``mine``, with its exit code."""
    cfg = load_config(args.config)
    ruleset = mine(parse_streams_csv(_read_text(args.input), cfg.roles), cfg.mining)
    if args.format == "json":
        return EXIT_OK, render_json(ruleset, build_tree(ruleset) if args.tree else None)
    text = render_table(ruleset)
    if args.tree == "ascii":
        text += "\n" + render_ascii(build_tree(ruleset))
    elif args.tree == "dot":
        text += "\n" + render_dot(build_tree(ruleset))
    return EXIT_OK, text


def cmd_validate(args):
    """The findings listing for ``validate``, with its exit code (no
    listing on a usage error)."""
    if not args.config and not args.input:
        print("fuzzmine validate: provide --config and/or --input",
              file=sys.stderr)
        return EXIT_USAGE, None

    findings = []
    cfg = None
    if args.config:
        try:
            cfg = parse_config_dict(read_config_file(args.config))
            findings.extend(config_findings(cfg))
        except ConfigError as exc:
            findings.append(Finding(ERROR, "config", str(exc)))
    if args.input:
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

    listing = "".join(f"{finding}\n" for finding in findings) or "no findings\n"
    return (EXIT_CONFIG if has_errors(findings) else EXIT_OK), listing


def main(argv=None):
    """Run one subcommand and write what it returns to standard output
    (or ``--out``), the only place the CLI writes either."""
    args = build_parser().parse_args(argv)
    try:
        code, text = args.func(args)
    except InputError as exc:
        print(f"fuzzmine: {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as exc:
        print(f"fuzzmine: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if text is None:
        return code
    try:
        _write_output(text, args.out)
    except OSError as exc:
        print(f"fuzzmine: cannot write {args.out or 'standard output'}: {exc}",
              file=sys.stderr)
        return EXIT_INPUT
    return code


def _read_text(path):
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not valid UTF-8: {exc}") from None


def _write_output(text, path):
    """Write ``text`` as UTF-8 to ``path``, or to standard output if None.
    A file name Python decoded with surrogateescape goes back to its bytes."""
    data = text.encode("utf-8", "surrogateescape")
    if path is not None:
        with open(path, "wb") as handle:
            handle.write(data)
        return
    out = sys.stdout
    if out is None:   # standard output was closed before the run
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:   # every byte, now: a short write or the flush at exit must lose none
        out.flush()
        data = memoryview(data)
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
