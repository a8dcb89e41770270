"""The part of the API the benchmark reads, exercised the way it reads it.

``perfbench/tracing.py`` finds the program's functions by name and calls
``classify(vocab, value)``, ``stream.events`` and ``mine`` directly, so a
change to any of them would otherwise show only in a traced benchmark run.
"""

import importlib.util

import pytest

from common import QUICKSTART_CONFIG, QUICKSTART_CSV, REPO_ROOT

ARGV = ["mine", "--input", str(QUICKSTART_CSV), "--config", str(QUICKSTART_CONFIG),
        "--format", "json", "--tree", "dot"]

# The spans whose functions every run above calls.
LAYERS = ("config.load", "streams.parse", "mining.mine", "report.render", "tree.build")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_times_every_layer_and_keeps_the_report(tracing, tmp_path):
    untraced, traced = tmp_path / "untraced.json", tmp_path / "traced.json"
    plain = tracing.probe("untraced", "quickstart", untraced, ARGV)
    spans = tracing.probe("traced", "quickstart", traced, ARGV)
    assert plain["code"] == spans["code"] == 0
    assert all(spans["busy"][layer] > 0 for layer in LAYERS), spans["busy"]
    assert traced.read_bytes() == untraced.read_bytes()


def test_classify_and_alloc_probes(tracing, tmp_path):
    assert tracing.probe("classify", "quickstart", tmp_path / "out", ARGV)["classify_s"] > 0
    assert tracing.probe("alloc", "quickstart", tmp_path / "out", ARGV)["peak_alloc_mb"] > 0
