"""Command-line driver for the mining pipeline.

Two subcommands: ``mine`` runs ingestion, mining, and rendering end to
end; ``validate`` lists the findings of :func:`fuzzmine.validate`.
Reports go to standard output (or ``--out``) and the listing to
standard output, always as UTF-8 whatever the locale; diagnostics go to
standard error. Exit codes: 0 success, 1 usage error, 2 input error
(also a report or listing that cannot be written), 3 configuration
error (for ``validate``, also any error-severity finding).
"""

import argparse
import errno
import os
import sys

from .config import load_config, validate
from .mining import mine
from .report import build_tree, render_ascii, render_dot, render_json, render_table
from .streams import open_input, parse_streams_csv
from .validation import ERROR, ConfigError, InputError, shown_path

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
    validate_cmd.set_defaults(func=cmd_validate, out=None, usage_error=validate_cmd.error)
    return parser


def cmd_mine(args):
    """The report for ``mine``, with its exit code: a function of a writer,
    to which it passes the report in pieces, as the renderers do."""
    cfg = load_config(args.config)
    with open_input(args.input) as handle:
        streams = parse_streams_csv(handle, cfg.roles)
    ruleset = mine(streams, cfg.mining)
    tree = build_tree(ruleset) if args.tree else None
    if args.format == "json":
        return EXIT_OK, lambda write: render_json(ruleset, tree, write)

    def report(write):
        render_table(ruleset, write)
        if tree is not None:
            write("\n")
            {"ascii": render_ascii, "dot": render_dot}[args.tree](tree, write)
    return EXIT_OK, report


def cmd_validate(args):
    """The findings listing for ``validate``, with its exit code: a function
    of a writer, as for ``mine``. Neither file to check is a usage error."""
    if args.config is None and args.input is None:
        args.usage_error("provide --config and/or --input")
    findings = validate(args.config, args.input)
    code = EXIT_CONFIG if any(f.severity == ERROR for f in findings) else EXIT_OK
    return code, lambda write: write("".join(f"{f}\n" for f in findings) or "no findings\n")


def main(argv=None):
    """Run one subcommand and write what it returns to standard output
    (or ``--out``), the only place the CLI writes either."""
    args = build_parser().parse_args(argv)
    try:
        code, report = args.func(args)
    except InputError as exc:
        print(f"fuzzmine: {shown_path(args.input)}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConfigError as exc:
        print(f"fuzzmine: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        _write_output(report, args.out)
    except OSError as exc:
        where = "standard output" if args.out is None else shown_path(args.out)
        print(f"fuzzmine: cannot write {where}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


def _write_output(report, path):
    """Write ``report``'s text as UTF-8 to ``path``, or to standard output if
    None. A file name Python decoded with surrogateescape goes back to its bytes."""
    if path is not None:
        with open(path, "wb") as handle:
            _send(report, handle)
        return
    out = sys.stdout
    if out is None:   # standard output was closed before the run
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    try:   # every byte, now: a short write or the flush at exit must lose none
        out.flush()
        _send(report, out.buffer)
        out.buffer.flush()
    except OSError:
        # Python flushes standard output again at exit: drop what it holds.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        raise


def _send(report, sink):
    """Write to the binary ``sink`` what the function ``report`` passes to
    the writer it is given (in pieces, each ending on a whole character)."""
    def write(text):
        data = memoryview(text.encode("utf-8", "surrogateescape"))
        while data:
            data = data[sink.write(data) or 0:]   # None: would block, retry
    report(write)
