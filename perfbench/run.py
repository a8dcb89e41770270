#!/usr/bin/env python3
"""End-to-end benchmark of ``python -m fuzzmine mine`` on seeded workloads.

Usage, from the root of a checkout of the repository::

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload

Each run generates its workload from ``--seed`` into a temporary
directory under ``.perfbench_work/``, checks the program's output with the
correctness gate (see gate.py), then runs the CLI as a child process, one
at a time (a closed loop with one client), for ``--seconds``, alternating
full runs with set-up runs on a header-only CSV and with runs of a fixed
reference task. End-to-end metrics are medians over those runs.

Times are reported at reference speed: each full or set-up run's time is
divided by that of the reference run next to it and multiplied by
``REFERENCE_S``. On a shared host the speed of every run drifts by tens
of percent over minutes; the reference, which the program cannot change,
drifts with it, so the ratio stays steady where raw wall time does not.
The raw wall times are recorded beside them in the result file.

``--trace 1`` adds the per-layer breakdown: an in-process run of the
same CLI with spans around the public functions of each module (see
tracing.py), an untraced in-process run to measure the tracing overhead,
a pass that classifies every event value once, and a separate
``tracemalloc`` pass over ``mine()`` that shares no run with any timing.
Spans and the full result set are written to ``.perfbench_work/results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import sys

sys.dont_write_bytecode = True  # leave no caches in the tree, the oracle's included

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import gate
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle.py"
TRACING = Path(__file__).resolve().parent / "tracing.py"
SPAWN = Path(__file__).resolve().parent / "spawn.py"
WORK = ROOT / ".perfbench_work"

MIN_SAMPLES = 5          # timed runs per workload, whatever --seconds says
CHILD_TIMEOUT_S = 60     # a child taking longer is killed and counts as failed

# A fixed task, independent of the program, that does the kind of work the
# CLI does (float parsing, dict updates) in a fresh interpreter.
REFERENCE = """
d = {}
for i in range(200000):
    k = float(str(i % 997) + ".25")
    d[k] = d.get(k, 0.0) + k * 0.5
"""
REFERENCE_S = 0.25   # about the reference's wall time on the 2-vCPU host used

END_TO_END_UNITS = {
    "mine_s": "s", "cpu_s": "s", "triples_per_s": "1/s",
    "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER_UNITS = {
    "config.load_s": "s",
    "streams.parse_s": "s", "streams.events": "count", "streams.events_per_s": "1/s",
    "mining.mine_s": "s", "mining.extract_s": "s", "mining.fuzzify_s": "s",
    "mining.aggregate_s": "s", "mining.threshold_s": "s",
    "mining.triples": "count", "mining.pairs12": "count", "mining.pairs23": "count",
    "mining.instances": "count", "mining.fanout": "ratio",
    "mining.zero_weight_triples": "count", "mining.rules": "count",
    "mining.peak_alloc_mb": "MB",
    "fuzzy.classify_s": "s", "fuzzy.labels_per_value": "ratio",
    "report.render_s": "s", "report.bytes": "bytes",
    "tree.build_s": "s", "tree.render_s": "s", "tree.nodes": "count",
    "cli.overhead_s": "s", "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}
# Layers whose spans make up the traced CLI run; the rest is cli.overhead_s.
LAYER_SPANS = ("config.load", "streams.parse", "mining.mine",
               "report.render", "tree.build", "tree.render")


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: bytes
    err: bytes


class Runner:
    """Runs child interpreters, one at a time, in a scratch directory.

    Each child is started by the launcher in spawn.py, which times it and
    reports its own resource usage, unmixed with this process's memory.
    """

    def __init__(self, scratch):
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(scratch))

    def mine(self, *args):
        return self.run("-m", "fuzzmine", "mine", *args)

    def run(self, *args):
        """Run the interpreter on ``args`` through the launcher (spawn.py)."""
        out_path = self.scratch / "stdout.txt"
        err_path = self.scratch / "stderr.txt"
        proc = subprocess.Popen(
            [sys.executable, SPAWN, str(CHILD_TIMEOUT_S), out_path, err_path,
             sys.executable, *map(str, args)],
            cwd=self.scratch, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, start_new_session=True)
        try:
            report = proc.communicate()[0]
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)  # the launcher and its child
            proc.wait()
            raise
        usage = json.loads(report)
        return Child(usage["code"], usage["wall_s"], usage["cpu_s"],
                     usage["maxrss_kb"] * 1024 / 1e6, out_path.read_bytes(),
                     err_path.read_bytes())


def exit_problems(child):
    if child.code == 0:
        return []
    tail = child.err.decode("utf-8", "replace").strip().splitlines()[-1:]
    return [f"exit code {child.code}" + (f" ({tail[0]})" if tail else "")]


def parse_report(child):
    """(document, problems) for a JSON report."""
    problems = exit_problems(child)
    if problems:
        return None, problems
    try:
        return json.loads(child.out), []
    except ValueError as exc:
        return None, [f"report is not valid JSON: {exc}"]


def load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_inputs(streams, spec):
    """Plain attribute objects for the oracle, built without the package."""
    bundle = SimpleNamespace(**{
        role: SimpleNamespace(events=[SimpleNamespace(timestamp=t, value=v)
                                      for t, v in events])
        for role, events in zip(workloads.ROLES, streams)})
    vocabs = workloads.config_doc(spec)["vocabularies"]

    def vocab(key):
        return SimpleNamespace(intervals=[SimpleNamespace(**iv) for iv in vocabs[key]])

    cfg = SimpleNamespace(
        windows=SimpleNamespace(trigger_window=workloads.WINDOW,
                                consequence_window=workloads.WINDOW),
        vocab_t1=vocab("trigger1"), vocab_t2=vocab("trigger2"),
        vocab_dt=vocab("delta_t"), vocab_c=vocab("consequence"))
    return bundle, cfg


class Workload:
    """One generated workload: its files on disk and the counts that define it."""

    def __init__(self, spec, seed, scratch):
        self.spec = spec
        self.seed = seed
        self.streams = workloads.generate(spec, seed)
        self.counts = workloads.load_counts(self.streams)
        self.csv = scratch / "events.csv"
        self.empty_csv = scratch / "header_only.csv"
        self.slice_csv = scratch / "slice.csv"
        self.config = scratch / "config.json"
        self.missing = scratch / "missing.csv"
        workloads.write_csv(self.csv, self.streams, spec.layout)
        workloads.write_header_only(self.empty_csv, spec.layout)
        workloads.write_config(self.config, spec)
        self.format = spec.cli_args[spec.cli_args.index("--format") + 1]

    def args(self, csv, report_args=None):
        return ("--input", csv, "--config", self.config,
                *(self.spec.cli_args if report_args is None else report_args))


def verify(wl, runner, tally):
    """Gate the first full run, the oracle slice and the gate itself.

    Returns the first run (the reference every timed run must match
    byte for byte), the full-precision JSON report of the workload, and
    the tally of the gate's self-check.
    """
    triples = wl.counts.triples if wl.spec.ruspini else None
    first = runner.mine(*wl.args(wl.csv))
    if wl.format == "json":
        reference = first
        doc, problems = parse_report(first)
        tally.record("first run", problems or gate.check_report(doc, triples))
    else:
        reference = runner.mine(*wl.args(wl.csv, ("--format", "json")))
        doc, problems = parse_report(reference)
        tally.record("json run", problems or gate.check_report(doc, triples))
        tally.record("first run", exit_problems(first) or (
            gate.check_table(first.out.decode("utf-8"), doc) if doc else []))

    oracle = load_oracle()
    part = workloads.time_slice(wl.streams, wl.spec, wl.seed)
    workloads.write_csv(wl.slice_csv, part, wl.spec.layout)
    sliced, problems = parse_report(runner.mine(*wl.args(wl.slice_csv, ("--format", "json"))))
    if not problems:
        expected = oracle.brute_force_rule_table(*oracle_inputs(part, wl.spec))
        problems = gate.check_oracle(sliced, expected)
    tally.record("oracle slice", problems)

    # The gate must count as failed a JSON report with its largest weight
    # off by 1e-6 relative, fed both as a repeat of the reference run and
    # as a report on its own, and a run that exits non-zero.
    demo = gate.Tally()
    if doc and doc["rules"]:
        weight = doc["rules"][0]["weight"]
        bad = reference.out.replace(f'"weight": {weight!r}'.encode(),
                                    f'"weight": {weight * (1 + 1e-6)!r}'.encode(), 1)
        if bad != reference.out:
            demo.record("perturbed repeat", gate.check_repeat(bad, reference.out))
            demo.record("perturbed report", gate.check_report(json.loads(bad), triples))
    demo.record("forced failure", exit_problems(runner.mine(*wl.args(wl.missing))))
    if not demo.failed == demo.attempted == 3:
        tally.record("gate self-check",
                     [f"gate counted {demo.failed} of {demo.attempted} bad inputs"])
    return first, doc, demo


def measure(wl, runner, tally, first, seconds):
    """Full, set-up and reference runs in turn, for ``seconds``.

    Returns the samples of the end-to-end metrics, at reference speed,
    and of the raw wall times.
    """
    samples = {name: [] for name in END_TO_END_UNITS}
    wall = {"mine_wall_s": [], "setup_wall_s": [], "reference_s": []}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(samples["mine_s"]) < MIN_SAMPLES:
        run = runner.mine(*wl.args(wl.csv))
        tally.record("timed run", exit_problems(run) or gate.check_repeat(run.out, first.out))
        setup = runner.mine(*wl.args(wl.empty_csv))
        tally.record("set-up run", exit_problems(setup) or gate.check_empty(
            setup.out.decode("utf-8"), wl.format))
        ref = runner.run("-c", REFERENCE)
        if ref.code != 0:
            raise SystemExit(f"perfbench: the reference task failed: {exit_problems(ref)}")

        scale = REFERENCE_S / ref.wall_s
        samples["mine_s"].append(run.wall_s * scale)
        samples["cpu_s"].append(run.cpu_s * REFERENCE_S / ref.cpu_s)
        samples["triples_per_s"].append(wl.counts.triples / (run.wall_s * scale))
        samples["peak_rss_mb"].append(run.rss_mb)
        samples["setup_s"].append(setup.wall_s * scale)
        wall["mine_wall_s"].append(run.wall_s)
        wall["setup_wall_s"].append(setup.wall_s)
        wall["reference_s"].append(ref.wall_s)
    return samples, wall


def traced_pass(wl, runner, tally, first):
    """Per-layer measurements, each in its own fresh interpreter.

    Untraced and traced runs alternate, twice each, and the faster run of
    each kind is kept: their difference, the tracing overhead, is smaller
    than the noise of a single run.
    """
    argv = ["mine", *wl.args(wl.csv)]
    results = {}
    for mode in ("untraced", "traced", "untraced", "traced", "classify", "alloc"):
        result_path = runner.scratch / f"probe-{mode}.json"
        report_path = runner.scratch / f"probe-{mode}.txt"
        child = runner.run(TRACING, mode, wl.spec.name, result_path, report_path, *argv)
        problems = exit_problems(child)
        if not problems:
            result = json.loads(result_path.read_text())
            if mode in ("untraced", "traced"):
                problems = gate.check_repeat(report_path.read_bytes(), first.out)
                if mode in results and results[mode]["wall_s"] < result["wall_s"]:
                    result = results[mode]
            results[mode] = result
        tally.record(f"{mode} probe", problems)
    return results


def tree_nodes(doc):
    tree = (doc or {}).get("tree")
    if tree is None:
        return 0
    return 1 + sum(tree_nodes({"tree": child}) for child in tree["children"])


def layer_metrics(wl, doc, first, mine_s, probes):
    spec, counts = wl.spec, wl.counts
    oracle = load_oracle()
    instances, weighted, labels = workloads.fanout_counts(
        wl.streams, spec, oracle.trapezoid_degree)
    busy = probes["traced"]["busy"].get
    parse_s = busy("streams.parse")
    layers_s = sum(busy(name) for name in LAYER_SPANS)
    overhead = probes["traced"]["wall_s"] - probes["untraced"]["wall_s"]
    return {
        "config.load_s": busy("config.load"),
        "streams.parse_s": parse_s,
        "streams.events": counts.events,
        "streams.events_per_s": counts.events / parse_s if parse_s else 0.0,
        "mining.mine_s": busy("mining.mine"),
        "mining.extract_s": busy("mining.extract"),
        "mining.fuzzify_s": busy("mining.fuzzify"),
        "mining.aggregate_s": busy("mining.aggregate"),
        "mining.threshold_s": busy("mining.threshold"),
        "mining.triples": counts.triples,
        "mining.pairs12": counts.pairs12,
        "mining.pairs23": counts.pairs23,
        "mining.instances": instances,
        "mining.fanout": instances / counts.triples,
        "mining.zero_weight_triples": counts.triples - weighted,
        "mining.rules": len(doc["rules"]) if doc else 0,
        "mining.peak_alloc_mb": probes["alloc"]["peak_alloc_mb"],
        "fuzzy.classify_s": probes["classify"]["classify_s"],
        "fuzzy.labels_per_value": labels / counts.events,
        "report.render_s": busy("report.render"),
        "report.bytes": len(first.out),
        "tree.build_s": busy("tree.build"),
        "tree.render_s": busy("tree.render"),
        "tree.nodes": tree_nodes(doc),
        "cli.overhead_s": mine_s - layers_s,
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / mine_s,
    }


def summarize(values, unit):
    """Median, quartiles and sample count of one metric."""
    entry = {"value": statistics.median(values), "unit": unit, "samples": len(values)}
    if len(values) > 1:
        entry["q1"], _, entry["q3"] = statistics.quantiles(values, n=4)
    return entry


def git_commit():
    """The checked-out commit, or "unknown" outside a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    with contextlib.suppress(OSError):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    return "unknown"


def run_workload(name, seed, seconds, trace):
    """Generate, gate, measure and (with ``trace``) break down one workload."""
    spec = workloads.SPECS[name]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tally = gate.Tally()
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        scratch = Path(tmp)
        wl = Workload(spec, seed, scratch)
        runner = Runner(scratch)
        first, doc, demo = verify(wl, runner, tally)
        samples, wall = measure(wl, runner, tally, first, seconds)
        end_to_end = {key: summarize(values, END_TO_END_UNITS[key])
                      for key, values in samples.items()}
        wall = {key: summarize(values, "s") for key, values in wall.items()}
        summary = end_to_end
        if trace:
            probes = traced_pass(wl, runner, tally, first)
            if len(probes) < 4:
                raise SystemExit(f"perfbench: a probe failed: {tally.failures}")
            layers = layer_metrics(wl, doc, first, wall["mine_wall_s"]["value"], probes)
            summary = {key: summarize([value], PER_LAYER_UNITS[key])
                       for key, value in layers.items()}
            spans_path = results / f"{name}-seed{seed}-spans.json"
            spans_path.write_text(json.dumps(probes["traced"]["spans"], indent=1) + "\n")

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(), "shape": {
            "events_per_stream": spec.events_per_stream,
            "events_per_window": workloads.WINDOW / spec.spacing,
            "labels_per_dimension": len(spec.vocab[0]),
            "layout": spec.layout, "cli_args": list(spec.cli_args),
            **vars(wl.counts)},
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed, "failures": tally.failures,
        "gate_self_check": demo.failures, "metrics": summary, "wall": wall,
    }
    if trace:
        record["untraced"] = end_to_end
    suffix = "-trace" if trace else ""
    (results / f"{name}-seed{seed}{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def print_record(record):
    print(f"# {record['workload']} seed={record['seed']} python={record['python']} "
          f"nproc={record['nproc']} commit={record['commit']}")
    entries = {**record.get("untraced", {}), **record["metrics"], **record["wall"]}
    for key, entry in entries.items():
        if key in record["wall"]:
            key = f"({key}, unscaled)"
        spread = (f"  q1={entry['q1']:.6g} q3={entry['q3']:.6g}" if "q1" in entry else "")
        print(f"{key:28s} {entry['value']:14.6g} {entry['unit']:6s} "
              f"n={entry['samples']}{spread}")
    print(f"{'error_rate':28s} {record['failed'] / record['attempted']:14.6g} ratio  "
          f"({record['failed']} failed of {record['attempted']} runs)")
    if "untraced" in record:
        metrics = {key: entry["value"] for key, entry in record["metrics"].items()}
        metrics["tree_s"] = metrics["tree.build_s"] + metrics["tree.render_s"]
        mine_s = record["wall"]["mine_wall_s"]["value"]
        print("share of the CLI's wall time: " + ", ".join(
            f"{key.split('_s')[0]} {metrics[key] / mine_s:.1%}"
            for key in ("config.load_s", "streams.parse_s", "mining.mine_s",
                        "report.render_s", "tree_s", "cli.overhead_s")))
    print(f"gate self-check: {len(record['gate_self_check'])} of 3 bad inputs "
          "(perturbed repeat, perturbed report, non-zero exit) counted as failed")
    for failure in record["failures"]:
        print(f"FAILED {failure}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.SPECS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p) for p in (SRC / "fuzzmine" / "__init__.py", ORACLE) if not p.is_file()]
    if missing:
        print(f"perfbench: not a checkout of the repository, missing {missing}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    names = list(workloads.SPECS) if args.workload == "all" else [args.workload]
    records = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    for record in records:
        print_record(record)
    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{key}" if prefix else key):
                {"value": entry["value"], "unit": entry["unit"]}
            for r in records for key, entry in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
