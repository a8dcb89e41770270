"""Mining of time-lagged association rules from event streams.

Given three timestamped streams (two triggers and one consequence), the
pipeline extracts every event triple allowed by a pair of time windows,
classifies the values and the elapsed time into fuzzy linguistic labels,
and aggregates the weighted readings into rules of the form
(trigger1, trigger2) => (elapsed-time, consequence) scored by support
and confidence. The rule set can be rendered as a table, a JSON report,
or a decision tree (text or DOT), which the JSON report can also embed.
"""

from .config import load_config, validate
from .fuzzy import (
    FuzzyInterval,
    Vocabulary,
    classify,
    validate_vocabulary,
)
from .mining import (
    FuzzyRule,
    MiningConfig,
    RuleSet,
    mine,
)
from .report import render_ascii, render_dot, render_json, render_table
from .streams import EventStream, StreamBundle, parse_streams_csv
from .validation import ConfigError, Finding, InputError

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EventStream",
    "Finding",
    "FuzzyInterval",
    "FuzzyRule",
    "InputError",
    "MiningConfig",
    "RuleSet",
    "StreamBundle",
    "Vocabulary",
    "classify",
    "load_config",
    "mine",
    "parse_streams_csv",
    "render_ascii",
    "render_dot",
    "render_json",
    "render_table",
    "validate",
    "validate_vocabulary",
]
