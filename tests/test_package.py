"""Tests for the package surface and for the README's worked example."""

import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzmine
from fuzzmine import (
    Event,
    EventStream,
    Finding,
    FuzzyInterval,
    FuzzyRule,
    PipelineConfig,
    RuleSet,
    StreamBundle,
    Vocabulary,
    WindowConfig,
)
from fuzzmine.cli import main

from common import QUICKSTART_CONFIG, QUICKSTART_CSV, REPO_ROOT, quickstart_mining_config

PUBLIC_NAMES = [
    "ConfigError", "Event", "EventStream", "Finding", "FuzzmineError",
    "FuzzyInterval", "FuzzyRule", "InputError", "MiningConfig",
    "PipelineConfig", "RuleSet", "StreamBundle", "Vocabulary", "WindowConfig",
    "build_tree", "classify", "config_findings", "has_errors", "load_config",
    "membership", "mine", "parse_config_dict", "parse_streams",
    "parse_streams_csv", "render_ascii", "render_dot", "render_json",
    "render_table", "validate_bundle", "validate_stream", "validate_vocabulary",
]

# Names deleted because a surviving public name or form does their job.
REMOVED_NAMES = [
    "Classification", "NumericalAssociation", "ParseError", "RuleInstance",
    "StreamDataError", "TreeNode", "UndefinedMetricError", "aggregate",
    "apply_thresholds", "bundle_to_long_csv", "confidence", "extract_numerical",
    "fuzzify", "ruleset_to_report", "support", "tree_from_structured",
    "tree_to_structured",
]


class TestPublicSurface:
    def test_exports_exactly_the_listed_names(self):
        assert sorted(fuzzmine.__all__) == sorted(PUBLIC_NAMES)

    def test_every_listed_name_resolves(self):
        for name in PUBLIC_NAMES:
            assert getattr(fuzzmine, name) is not None, name

    def test_removed_names_are_gone(self):
        for name in REMOVED_NAMES:
            assert name not in fuzzmine.__all__
            assert not hasattr(fuzzmine, name), name


STREAM = EventStream("a", (0.0, 1.0), (2.0, 3.0))
RULE = FuzzyRule("S", "M", "Soon", "L", 1.0, 1.0, 1.0)

# Every public record, with one of its fields.
RECORDS = pytest.mark.parametrize("record, field", [
    (Event(0.0, 2.0), "value"),
    (STREAM, "timestamps"),
    (StreamBundle(STREAM, STREAM, STREAM), "trigger1"),
    (Finding("info", "code", "message"), "severity"),
    (FuzzyInterval("S", 0, 1, 2, 3), "d"),
    (Vocabulary("v", [FuzzyInterval("S", 0, 1, 2, 3)]), "intervals"),
    (WindowConfig(10, 10), "trigger_window"),
    (quickstart_mining_config(), "min_support"),
    (PipelineConfig({"trigger1": "a"}, quickstart_mining_config()), "roles"),
    (RULE, "weight"),
    (RuleSet((RULE,), 1.0, {("S", "M"): 1.0}), "rules"),
], ids=lambda value: value if isinstance(value, str) else type(value).__name__)


class TestRecords:
    @RECORDS
    def test_fields_are_read_only(self, record, field):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = None
        assert getattr(record, field) is before

    @RECORDS
    def test_pickle_round_trip(self, record, field):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record

    def test_unknown_severity_raises(self):
        with pytest.raises(ValueError, match="unknown severity 'fatal'"):
            Finding("fatal", "code", "message")

    def test_named_tuple_records_unpack_and_equal_plain_tuples(self):
        label, *corners = FuzzyInterval("S", 0, 1, 2, 3)
        assert (label, corners) == ("S", [0, 1, 2, 3])
        assert WindowConfig(2, 3) == (2, 3)
        assert Vocabulary("v", [("S", 0, 1, 2, 3)]).intervals == (("S", 0, 1, 2, 3),)

    def test_cli_imports_neither_dataclasses_nor_inspect(self):
        # dataclasses also loads inspect, ast, dis and tokenize: about 10 ms
        # of start-up on every CLI run, which fuzzmine does not need.
        code = ("import fuzzmine.cli, sys; "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=str(Path(fuzzmine.__file__).parents[1]))
        child = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                               capture_output=True, text=True, check=True)
        assert child.stdout == "[]\n"


class TestReadme:
    def test_quickstart_output_matches_the_cli(self, capsys):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        command = ("fuzzmine mine --input quickstart/streams.csv "
                   "--config quickstart/config.json --tree ascii")
        block = re.search(re.escape(command) + r"\n```\n\n```\n(.*?)```", readme, re.S)
        assert block is not None
        code = main(["mine", "--input", str(QUICKSTART_CSV),
                     "--config", str(QUICKSTART_CONFIG), "--tree", "ascii"])
        assert code == 0
        assert capsys.readouterr().out == block.group(1)
