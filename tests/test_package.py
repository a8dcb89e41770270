"""Tests for the package surface and for the README's worked example."""

import re

import fuzzmine
from fuzzmine.cli import main

from common import QUICKSTART_CONFIG, QUICKSTART_CSV, REPO_ROOT

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
