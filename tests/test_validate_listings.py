"""The exact standard output, standard error and exit code of
``fuzzmine validate``, pinned case by case.

Each case runs ``cli.main`` in-process from one directory that holds the
quickstart files, each benchmark workload at seed 1 (generated by
``perfbench/workloads.py``, imported without writing bytecode) and a few
faulty configs and CSVs. Every path is relative to that directory, so a
listing or message names the same path on every machine.

``validate_listings.json`` holds what each case gave when it was pinned.
To record it again from the current code, run
``PYTHONPATH=src python tests/test_validate_listings.py``.
"""

import contextlib
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from fuzzmine.cli import main

from common import QUICKSTART_CONFIG, QUICKSTART_CSV, REPO_ROOT

PINNED = Path(__file__).with_name("validate_listings.json")

WORKLOADS = ("quickstart", "dense", "sparse", "wide-vocab")
BAD_CONFIGS = ("bad-vocabulary", "bad-roles", "not-json", "missing")
BAD_INPUTS = ("empty", "duplicate-event", "unparseable", "missing")

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
}


def load_workloads():
    """``perfbench/workloads.py`` as a module, no ``__pycache__`` written."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def write_inputs(root):
    """Write every file the cases read into the directory ``root``."""
    workloads = load_workloads()
    (root / "quickstart").mkdir()
    shutil.copy(QUICKSTART_CONFIG, root / "quickstart" / "config.json")
    shutil.copy(QUICKSTART_CSV, root / "quickstart" / "streams.csv")
    for name, spec in workloads.SPECS.items():
        (root / name).mkdir()
        workloads.write_csv(root / name / "streams.csv", workloads.generate(spec, 1),
                            spec.layout)
        workloads.write_config(root / name / "config.json", spec)

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
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))[case]
    assert run(CASES[case]) == (pinned["code"], pinned["stdout"], pinned["stderr"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        write_inputs(Path(scratch))
        here = os.getcwd()
        os.chdir(scratch)
        try:
            table = {case: dict(zip(("code", "stdout", "stderr"), run(argv)))
                     for case, argv in sorted(CASES.items())}
        finally:
            os.chdir(here)
    PINNED.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
