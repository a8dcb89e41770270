"""The exact standard output, standard error and exit code of
``fuzzmine validate`` and ``fuzzmine mine``, pinned case by case.

Each case runs ``cli.main`` in-process from one directory that holds the
quickstart files, each benchmark workload at seeds 1 and 2 (generated by
``perfbench/workloads.py``, imported without writing bytecode), copies of
the quickstart and ``wide-vocab`` configs with thresholds set, and a few
faulty configs and CSVs. Every path is relative to that directory, so a
listing or message names the same path on every machine.

``validate_listings.json`` holds what each case gave when it was pinned:
the exit code, standard error and, for a ``validate`` listing, standard
output, or for a ``mine`` report the sha256 of its UTF-8 bytes. To record
it again from the current code, run
``PYTHONPATH=src python tests/test_validate_listings.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from fuzzmine.cli import main

from common import QUICKSTART_CONFIG, QUICKSTART_CSV, load_workloads

PINNED = Path(__file__).with_name("validate_listings.json")

WORKLOADS = ("quickstart", "dense", "sparse", "wide-vocab")
BAD_CONFIGS = ("bad-vocabulary", "bad-roles", "not-json", "missing")
BAD_INPUTS = ("empty", "duplicate-event", "unparseable", "missing")
SEED_CSVS = {1: "streams.csv", 2: "streams2.csv"}   # each workload's CSV at each seed
# Copies of a config with thresholds set, as (min_support, min_confidence):
# wide-vocab keeps 2,843 of its 6,445 rules at seed 1, and the quickstart 2
# of its 4, one of them at a confidence of exactly 0.5.
THRESHOLDED = {"quickstart": (0, 0.5), "wide-vocab": (1e-4, 0.01)}
PRUNED_REPORTS = {"json-dot": ["--format", "json", "--tree", "dot"],
                  "table-ascii": ["--format", "table", "--tree", "ascii"]}
REPORTS = {f"{fmt}{tree and '-' + tree}": ["--format", fmt, *(tree and ["--tree", tree])]
           for fmt in ("table", "json") for tree in ("", "ascii", "dot")}

CASES = {
    **{f"{name}-{mode}": ["validate", *argv] for name in WORKLOADS for mode, argv in (
        ("config-input", ["--config", f"{name}/config.json", "--input", f"{name}/streams.csv"]),
        ("input", ["--input", f"{name}/streams.csv"]),
        ("config", ["--config", f"{name}/config.json"]),
    )},
    **{f"config-{name}{mode}": ["validate", "--config", f"bad/{name}.json", *argv]
       for name in BAD_CONFIGS
       for mode, argv in (("", []), ("-with-input", ["--input", "quickstart/streams.csv"]))},
    **{f"input-{name}{mode}": ["validate", *argv, "--input", f"bad/{name}.csv"]
       for name in BAD_INPUTS
       for mode, argv in (("", []), ("-with-config", ["--config", "quickstart/config.json"]))},
    **{f"mine-quickstart-{report}": ["mine", "--config", "quickstart/config.json",
                                     "--input", "quickstart/streams.csv", *argv]
       for report, argv in REPORTS.items()},
    **{f"mine-{name}-{seed}-{report}": ["mine", "--config", f"{name}/config.json",
                                        "--input", f"{name}/{csv_name}", *argv]
       for name in WORKLOADS[1:] for seed, csv_name in SEED_CSVS.items()
       for report, argv in REPORTS.items()},
    **{f"mine-quickstart-thresholded-{report}": ["mine", "--config", "quickstart/thresholded.json",
                                                 "--input", "quickstart/streams.csv", *argv]
       for report, argv in PRUNED_REPORTS.items()},
    **{f"mine-wide-vocab-thresholded-{seed}-{report}": [
        "mine", "--config", "wide-vocab/thresholded.json", "--input", f"wide-vocab/{csv_name}",
        *argv] for seed, csv_name in SEED_CSVS.items() for report, argv in PRUNED_REPORTS.items()},
    **{f"mine-config-{name}": ["mine", "--config", f"bad/{name}.json",
                               "--input", "quickstart/streams.csv"] for name in BAD_CONFIGS},
    **{f"mine-input-{name}": ["mine", "--config", "quickstart/config.json",
                              "--input", f"bad/{name}.csv"] for name in BAD_INPUTS},
}


def write_inputs(root):
    """Write every file the cases read into the directory ``root``."""
    workloads = load_workloads()
    (root / "quickstart").mkdir()
    shutil.copy(QUICKSTART_CONFIG, root / "quickstart" / "config.json")
    shutil.copy(QUICKSTART_CSV, root / "quickstart" / "streams.csv")
    for name, spec in workloads.SPECS.items():
        (root / name).mkdir()
        for seed, csv_name in SEED_CSVS.items():
            workloads.write_csv(root / name / csv_name, workloads.generate(spec, seed),
                                spec.layout)
        workloads.write_config(root / name / "config.json", spec)
    for name, (min_support, min_confidence) in THRESHOLDED.items():
        doc = json.loads((root / name / "config.json").read_text(encoding="utf-8"))
        doc["min_support"], doc["min_confidence"] = min_support, min_confidence
        (root / name / "thresholded.json").write_text(json.dumps(doc), encoding="utf-8")

    bad = root / "bad"
    bad.mkdir()
    doc = json.loads(QUICKSTART_CONFIG.read_text(encoding="utf-8"))
    doc["vocabularies"]["delta_t"][0]["b"] = -5
    (bad / "bad-vocabulary.json").write_text(json.dumps(doc), encoding="utf-8")
    doc = json.loads(QUICKSTART_CONFIG.read_text(encoding="utf-8"))
    doc["roles"]["trigger1"] = "stream9"
    (bad / "bad-roles.json").write_text(json.dumps(doc), encoding="utf-8")
    (bad / "not-json.json").write_text("roles: stream1\n", encoding="utf-8")
    (bad / "empty.csv").write_text("timestamp,stream1,stream2,stream3\n", encoding="utf-8")
    (bad / "duplicate-event.csv").write_text(
        "timestamp,stream,value\n1,stream1,2\n1,stream1,2\n3,stream2,8\n"
        "7,stream3,10.5\n7,stream3,10.5\n1,stream1,2\n", encoding="utf-8")
    (bad / "unparseable.csv").write_text("timestamp,stream1\n1,zap\n", encoding="utf-8")


def run(argv):
    """``cli.main(argv)`` as (exit code, standard output, standard error),
    the two streams decoded from the UTF-8 the CLI writes."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.getvalue()


def outcome(case):
    """What ``CASES[case]`` gives, as its table entry records it."""
    code, out, err = run(CASES[case])
    if CASES[case][0] == "mine":
        return {"code": code, "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
                "stderr": err}
    return {"code": code, "stdout": out, "stderr": err}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("validate-listings")
    write_inputs(root)
    return root


def test_every_case_is_pinned():
    assert sorted(json.loads(PINNED.read_text(encoding="utf-8"))) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_listing_bytes(inputs, monkeypatch, case):
    monkeypatch.chdir(inputs)
    assert outcome(case) == json.loads(PINNED.read_text(encoding="utf-8"))[case]


@pytest.mark.parametrize("case", sorted(case for case, argv in CASES.items()
                                        if argv[0] == "mine" and "json" in argv))
def test_json_report_has_the_stdlib_encoder_bytes(inputs, monkeypatch, case):
    # render_json writes the bytes itself; they must be the json module's.
    monkeypatch.chdir(inputs)
    code, out, _ = run(CASES[case])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        write_inputs(Path(scratch))
        here = os.getcwd()
        os.chdir(scratch)
        try:
            table = {case: outcome(case) for case in sorted(CASES)}
        finally:
            os.chdir(here)
    PINNED.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
