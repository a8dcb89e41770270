"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each listed function, in every loaded module
of the package that refers to it by name, with a wrapper that times the
call. The program itself is not changed. Calls are folded per (name,
parent): a function called once is an ordinary span, a function called
per triple (``fuzzify``) becomes one span carrying its call count and
summed busy time, so the trace stays small. Recursive calls of a traced
function are timed once, at the outermost call.

Run as a script, this module is the child process that takes one
in-process measurement (see ``probe``), so that no measurement shares
an interpreter, or its heap, with the benchmark.
"""

import contextlib
import gc
import json
import sys
import time
import tracemalloc

# Public function -> span name. A function the program no longer has is
# skipped, and its layer then reads as zero time.
SPANS = {
    "load_config": "config.load",
    "parse_streams_csv": "streams.parse",
    "mine": "mining.mine",
    "extract_numerical": "mining.extract",
    "fuzzify": "mining.fuzzify",
    "aggregate": "mining.aggregate",
    "apply_thresholds": "mining.threshold",
    "ruleset_to_report": "report.render",
    "render_json": "report.render",
    "render_table": "report.render",
    "build_tree": "tree.build",
    "tree_to_structured": "tree.render",
    "render_dot": "tree.render",
    "render_ascii": "tree.render",
}

PACKAGE = "fuzzmine"


class Tracer:
    def __init__(self, workload):
        self.workload = workload
        self.spans = {}        # (name, parent) -> [calls, busy, first start, last end]
        self.stack = ["root"]
        self._patched = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        if name in self.stack:
            return fn(*args, **kwargs)
        parent = self.stack[-1]
        self.stack.append(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            rec = self.spans.get((name, parent))
            if rec is None:
                self.spans[(name, parent)] = [1, end - start, start, end]
            else:
                rec[0] += 1
                rec[1] += end - start
                rec[3] = end

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        wrappers = {}
        for module in modules:
            for attr, name in SPANS.items():
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn)
                self._patched.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def busy(self, name):
        """Summed time in spans called ``name``, over all parents."""
        return sum(rec[1] for (n, _), rec in self.spans.items() if n == name)

    def records(self, origin):
        """Spans as dicts, times in seconds from ``origin``."""
        return [
            {"name": name, "parent": parent, "workload": self.workload,
             "start": rec[2] - origin, "end": rec[3] - origin,
             "calls": rec[0], "busy_s": rec[1]}
            for (name, parent), rec in sorted(self.spans.items(), key=lambda kv: kv[1][2])
        ]


def _run_cli(main, argv, out_path):
    with open(out_path, "w", encoding="utf-8", newline="") as out, \
            contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = main(argv)
        return code, time.perf_counter() - start


def probe(mode, workload, out_path, argv):
    """One measurement inside a fresh interpreter, as the CLI child has.

    ``untraced`` and ``traced`` run the CLI's ``main`` on ``argv``,
    without and with spans; ``classify`` times classifying every event
    value once; ``alloc`` is the ``tracemalloc`` pass over ``mine()``,
    which slows it several times over and so shares no run with a timing.
    """
    import fuzzmine
    import fuzzmine.cli

    if mode in ("untraced", "traced"):
        tracer = Tracer(workload)
        origin = time.perf_counter()
        if mode == "traced":
            tracer.install()
        try:
            code, wall = _run_cli(fuzzmine.cli.main, argv, out_path)
        finally:
            tracer.uninstall()
        return {"code": code, "wall_s": wall, "spans": tracer.records(origin),
                "busy": {name: tracer.busy(name) for name in set(SPANS.values())}}

    opts = dict(zip(argv[1::2], argv[2::2]))
    cfg = fuzzmine.load_config(opts["--config"])
    with open(opts["--input"], encoding="utf-8") as handle:
        bundle = fuzzmine.parse_streams_csv(handle.read(), cfg.roles)
    m = cfg.mining
    if mode == "classify":
        pairs = ((m.vocab_t1, bundle.trigger1), (m.vocab_t2, bundle.trigger2),
                 (m.vocab_c, bundle.consequence))
        start = time.perf_counter()
        for vocab, stream in pairs:
            for event in stream.events:
                fuzzmine.classify(vocab, event.value)
        return {"classify_s": time.perf_counter() - start}
    gc.collect()
    tracemalloc.start()
    try:
        fuzzmine.mine(bundle, m)
        return {"peak_alloc_mb": tracemalloc.get_traced_memory()[1] / 1e6}
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    # tracing.py MODE WORKLOAD RESULT_JSON REPORT_OUT mine --input ... --config ...
    mode, workload, result_path, report_path, *cli_argv = sys.argv[1:]
    result = probe(mode, workload, report_path, cli_argv)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
