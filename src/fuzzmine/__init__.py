"""Mining of time-lagged association rules from event streams.

Given three timestamped streams (two triggers and one consequence), the
pipeline extracts every event triple allowed by a pair of time windows,
classifies the values and the elapsed time into fuzzy linguistic labels,
and aggregates the weighted readings into rules of the form
(trigger1, trigger2) => (elapsed-time, consequence) scored by support
and confidence. The rule set can be rendered as a table, a JSON report,
or a decision tree (text or DOT) whose JSON document the report embeds.
"""

from .config import PipelineConfig, config_findings, load_config, parse_config_dict
from .errors import ConfigError, FuzzmineError, InputError
from .fuzzy import (
    FuzzyInterval,
    Vocabulary,
    classify,
    membership,
    validate_vocabulary,
)
from .mining import (
    FuzzyRule,
    MiningConfig,
    RuleSet,
    WindowConfig,
    mine,
)
from .report import render_json, render_table
from .streams import (
    Event,
    EventStream,
    StreamBundle,
    parse_streams,
    parse_streams_csv,
    validate_bundle,
    validate_stream,
)
from .tree import build_tree, render_ascii, render_dot
from .validation import Finding, has_errors

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Event",
    "EventStream",
    "Finding",
    "FuzzmineError",
    "FuzzyInterval",
    "FuzzyRule",
    "InputError",
    "MiningConfig",
    "PipelineConfig",
    "RuleSet",
    "StreamBundle",
    "Vocabulary",
    "WindowConfig",
    "build_tree",
    "classify",
    "config_findings",
    "has_errors",
    "load_config",
    "membership",
    "mine",
    "parse_config_dict",
    "parse_streams",
    "parse_streams_csv",
    "render_ascii",
    "render_dot",
    "render_json",
    "render_table",
    "validate_bundle",
    "validate_stream",
    "validate_vocabulary",
]
