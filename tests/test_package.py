"""Tests for the package surface and for the README's worked examples."""

import ast
import inspect
import json
import os
import pickle
import re
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import fuzzmine
from fuzzmine import (
    EventStream,
    Finding,
    FuzzyInterval,
    FuzzyRule,
    RuleSet,
    StreamBundle,
    Vocabulary,
    mine,
    render_json,
)
from fuzzmine.cli import main
from fuzzmine.config import PipelineConfig
from fuzzmine.streams import Event

from common import (
    QUICKSTART_CONFIG,
    QUICKSTART_CSV,
    REPO_ROOT,
    quickstart_bundle,
    quickstart_mining_config,
)

PUBLIC_NAMES = [
    "ConfigError", "EventStream", "Finding", "FuzzyInterval", "FuzzyRule",
    "InputError", "MiningConfig", "RuleSet", "StreamBundle", "Vocabulary",
    "classify", "load_config", "mine", "parse_streams_csv", "render_ascii",
    "render_dot", "render_json", "render_table", "validate", "validate_vocabulary",
]

# The fields of every public record, in order: adding or removing one is
# a change to the surface, as a public name is.
RECORD_FIELDS = {
    "EventStream": ("name", "timestamps", "values"),
    "StreamBundle": ("trigger1", "trigger2", "consequence"),
    "FuzzyInterval": ("label", "a", "b", "c", "d"),
    "Vocabulary": ("name", "intervals"),
    "FuzzyRule": ("l1", "l2", "l_dt", "l3", "weight", "support", "confidence"),
    "RuleSet": ("rules", "total_weight"),
    "MiningConfig": ("trigger_window", "consequence_window", "vocab_t1", "vocab_t2",
                     "vocab_dt", "vocab_c", "min_support", "min_confidence"),
    "Finding": ("severity", "code", "message"),
}

# Names the package no longer exports because a surviving public name or
# form does their job. Most were deleted; parse_streams, parse_config_dict
# and PipelineConfig remain in their modules for validate() and load_config,
# Event for EventStream.events, and build_tree for the renderers, which
# draw the tree one level at a time through it.
REMOVED_NAMES = [
    "Classification", "Event", "FuzzmineError", "NumericalAssociation", "ParseError",
    "PipelineConfig", "RuleInstance", "StreamDataError", "TreeNode",
    "UndefinedMetricError", "WindowConfig", "aggregate", "apply_thresholds",
    "build_tree", "bundle_to_long_csv", "confidence", "config_findings",
    "extract_numerical", "fuzzify", "has_errors", "membership", "parse_config_dict",
    "parse_streams", "ruleset_to_report", "support", "tree_from_structured",
    "tree_to_structured", "validate_bundle", "validate_stream",
]


class TestPublicSurface:
    def test_exports_exactly_the_listed_names(self):
        assert sorted(fuzzmine.__all__) == sorted(PUBLIC_NAMES)

    def test_public_records_have_exactly_the_listed_fields(self):
        fields = {name: getattr(fuzzmine, name)._fields for name in fuzzmine.__all__
                  if hasattr(getattr(fuzzmine, name), "_fields")}
        assert fields == RECORD_FIELDS

    def test_every_listed_name_resolves(self):
        for name in PUBLIC_NAMES:
            assert getattr(fuzzmine, name) is not None, name

    def test_removed_names_are_gone(self):
        for name in REMOVED_NAMES:
            assert name not in fuzzmine.__all__
            assert not hasattr(fuzzmine, name), name

    def test_render_json_has_one_form(self):
        # The report always goes to ``write``; no argument has a default.
        parameters = inspect.signature(render_json).parameters.values()
        assert [(p.name, p.default) for p in parameters] == [
            (name, inspect.Parameter.empty) for name in ("ruleset", "tree", "write")]


STREAM = EventStream("a", (0.0, 1.0), (2.0, 3.0))
RULE = FuzzyRule("S", "M", "Soon", "L", 1.0, 1.0, 1.0)

# Every record, with one of its fields.
RECORDS = pytest.mark.parametrize("record, field", [
    (Event(0.0, 2.0), "value"),
    (STREAM, "timestamps"),
    (StreamBundle(STREAM, STREAM, STREAM), "trigger1"),
    (Finding("info", "code", "message"), "severity"),
    (FuzzyInterval("S", 0, 1, 2, 3), "d"),
    (Vocabulary("v", [FuzzyInterval("S", 0, 1, 2, 3)]), "intervals"),
    (quickstart_mining_config(), "trigger_window"),
    (quickstart_mining_config(), "min_support"),
    (PipelineConfig({"trigger1": "a"}, quickstart_mining_config()), "roles"),
    (RULE, "weight"),
    (RuleSet((RULE,), 1.0), "rules"),
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

    @RECORDS
    def test_every_record_is_a_slotted_named_tuple(self, record, field):
        kind = type(record)
        assert isinstance(record, tuple) and field in kind._fields
        assert kind.__slots__ == ()
        assert not {"__iter__", "__len__"} & set(vars(kind))

    def test_named_tuple_records_unpack_and_equal_plain_tuples(self):
        label, *corners = FuzzyInterval("S", 0, 1, 2, 3)
        assert (label, corners) == ("S", [0, 1, 2, 3])
        assert Finding("info", "code", "text") == ("info", "code", "text")
        assert Vocabulary("v", [("S", 0, 1, 2, 3)]).intervals == (("S", 0, 1, 2, 3),)
        rules, total = mine(quickstart_bundle(), quickstart_mining_config())
        assert (len(rules), total) == (4, 3.0)
        name, times, values = EventStream("s", (2, 1), (20, 10))
        assert (name, times, values) == ("s", array("d", (1, 2)), array("d", (10, 20)))

    def test_cli_imports_neither_dataclasses_nor_inspect(self):
        # dataclasses also loads inspect, ast, dis and tokenize: about 10 ms
        # of start-up on every CLI run, which fuzzmine does not need; nor
        # does it need the unicodedata extension or the old errors module.
        code = ("import fuzzmine.cli, sys; print(sorted({'dataclasses', 'inspect', "
                "'unicodedata', 'fuzzmine.errors'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=str(Path(fuzzmine.__file__).parents[1]))
        child = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                               capture_output=True, text=True, check=True)
        assert child.stdout == "[]\n"


class TestLeftFolds:
    def test_no_module_sums_but_by_a_left_fold(self):
        # sum() compensates on Python 3.12+, and fsum and statistics round
        # otherwise too, so a total could differ by Python version; the
        # package adds in order from 0.0.
        found = []
        for path in sorted((REPO_ROOT / "src" / "fuzzmine").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in ("sum", "fsum"):
                        found.append(f"{path.name}:{node.lineno} calls {name}")
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = {alias.name for alias in node.names} | {getattr(node, "module", None)}
                    if names & {"statistics", "fsum"}:
                        found.append(f"{path.name}:{node.lineno} imports {sorted(names - {None})}")
        assert found == []


def library_use_blocks():
    """The Python blocks of the README's "Library use" section, in order."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"\n## Library use\n(.*?)\n## ", readme, re.S)
    assert section is not None
    return re.findall(r"```python\n(.*?)```", section.group(1), re.S)


class TestReadme:
    def test_library_use_block_runs(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)   # the block opens the quickstart files by relative path
        exec(compile(library_use_blocks()[0], "<README: Library use>", "exec"), {})
        lines = capsys.readouterr().out.splitlines()
        # One line per quickstart rule, its label tuple first, then the tree.
        assert [line.startswith("('") for line in lines[:5]] == [True] * 4 + [False]
        assert lines[4] == "(root)"

    def test_render_json_examples_run(self, monkeypatch, tmp_path):
        first, to_file, to_string = library_use_blocks()
        namespace = {}
        monkeypatch.chdir(REPO_ROOT)
        exec(compile(first, "<README: Library use>", "exec"), namespace)
        monkeypatch.chdir(tmp_path)   # the file example writes rules.json here
        exec(compile(to_file, "<README: render_json to a file>", "exec"), namespace)
        exec(compile(to_string, "<README: render_json to a string>", "exec"), namespace)
        written = (tmp_path / "rules.json").read_text(encoding="utf-8")
        report = json.loads(written)
        assert len(report["rules"]) == len(namespace["ruleset"].rules) == 4
        assert report["tree"]["level"] == "root"
        assert namespace["report"] == written

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
