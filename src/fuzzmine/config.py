"""Pipeline configuration: JSON schema, loading, and validation.

A config file names the stream for each role, sets the two time
windows, defines the four vocabularies, and optionally sets metric
thresholds::

    {
      "roles": {"trigger1": "s1", "trigger2": "s2", "consequence": "s3"},
      "windows": {"trigger": 10, "consequence": 10},
      "vocabularies": {
        "trigger1": [{"label": "Small", "a": 0, "b": 0, "c": 3, "d": 6}, ...],
        "trigger2": [...], "delta_t": [...], "consequence": [...]
      },
      "min_support": 0,
      "min_confidence": 0
    }

``min_support`` and ``min_confidence`` default to 0.
"""

import json
import unicodedata
from dataclasses import dataclass
from math import isfinite

from .errors import ConfigError
from .fuzzy import FuzzyInterval, Vocabulary, validate_vocabulary
from .mining import MiningConfig, WindowConfig
from .streams import ROLES, role_names
from .validation import ERROR, has_errors

VOCABULARY_KEYS = ("trigger1", "trigger2", "delta_t", "consequence")

_TOP_LEVEL_KEYS = ("roles", "windows", "vocabularies", "min_support", "min_confidence")


@dataclass(frozen=True)
class PipelineConfig:
    """Role bindings plus everything the miner needs."""

    roles: dict
    mining: MiningConfig


def load_config(path):
    """Read, parse, and validate a config file.

    Raises ConfigError on an unreadable file, malformed JSON, a schema
    violation, or any error-severity validator finding. Warnings and
    informational findings do not block loading.
    """
    cfg = parse_config_dict(read_config_file(path))
    findings = config_findings(cfg)
    if has_errors(findings):
        detail = "\n".join(f"  {f}" for f in findings if f.severity == ERROR)
        raise ConfigError(f"invalid configuration in {path}:\n{detail}")
    return cfg


def read_config_file(path):
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None


def parse_config_dict(doc):
    """Turn a decoded JSON document into a PipelineConfig.

    Raises ConfigError naming the offending field on any schema
    violation. Vocabulary-content problems beyond shape (corner
    ordering etc.) are left to the validators; see config_findings.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key in doc:
        if key not in _TOP_LEVEL_KEYS:
            raise ConfigError(f"unknown config key {key!r}")

    roles = dict(zip(ROLES, role_names(_require(doc, "roles", dict))))
    windows = _parse_windows(_require(doc, "windows", dict))
    vocabs = _parse_vocabularies(_require(doc, "vocabularies", dict))
    min_support = _parse_threshold(doc, "min_support")
    min_confidence = _parse_threshold(doc, "min_confidence")

    mining = MiningConfig(
        windows=windows,
        vocab_t1=vocabs["trigger1"],
        vocab_t2=vocabs["trigger2"],
        vocab_dt=vocabs["delta_t"],
        vocab_c=vocabs["consequence"],
        min_support=min_support,
        min_confidence=min_confidence,
    )
    return PipelineConfig(roles=roles, mining=mining)


def config_findings(cfg):
    """All validator findings for a parsed config (any severity)."""
    m = cfg.mining
    return [finding for vocab in (m.vocab_t1, m.vocab_t2, m.vocab_dt, m.vocab_c)
            for finding in validate_vocabulary(vocab)]


def _require(doc, key, kind):
    if key not in doc:
        raise ConfigError(f"missing config key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ConfigError(f"config key {key!r} must be a JSON "
                          f"{'object' if kind is dict else 'array'}")
    return value


def _parse_windows(doc):
    if set(doc) != {"trigger", "consequence"}:
        raise ConfigError("'windows' must have exactly the keys "
                          f"'trigger' and 'consequence'; got {sorted(doc)}")
    values = {}
    for key in ("trigger", "consequence"):
        value = _number(doc[key], f"windows.{key}")
        if not (isfinite(value) and value > 0):
            raise ConfigError(f"'windows.{key}' must be a positive finite number, "
                              f"got {doc[key]!r}")
        values[key] = value
    return WindowConfig(trigger_window=values["trigger"],
                        consequence_window=values["consequence"])


def _parse_vocabularies(doc):
    if set(doc) != set(VOCABULARY_KEYS):
        raise ConfigError("'vocabularies' must have exactly the keys "
                          f"{', '.join(VOCABULARY_KEYS)}; got {sorted(doc)}")
    vocabs = {}
    for key in VOCABULARY_KEYS:
        entries = doc[key]
        if not isinstance(entries, list) or not entries:
            raise ConfigError(f"'vocabularies.{key}' must be a non-empty array")
        intervals = []
        for i, entry in enumerate(entries):
            where = f"vocabularies.{key}[{i}]"
            if not isinstance(entry, dict):
                raise ConfigError(f"'{where}' must be an object with "
                                  "label, a, b, c, d")
            extra = set(entry) - {"label", "a", "b", "c", "d"}
            if extra:
                raise ConfigError(f"'{where}' has unknown keys {sorted(extra)}")
            label = entry.get("label")
            if not isinstance(label, str) or not label:
                raise ConfigError(f"'{where}.label' must be a non-empty string")
            try:   # JSON can escape a lone surrogate; UTF-8 cannot encode it
                label.encode("utf-8")
            except UnicodeEncodeError:
                raise ConfigError(f"'{where}.label' has an unpaired surrogate: "
                                  f"{label!r}") from None
            if any(unicodedata.category(char) == "Cc" for char in label):
                # a newline or tab would split the table row or tree line
                raise ConfigError(f"'{where}.label' has a control character: "
                                  f"{label!r}")
            corners = {corner: _number(entry.get(corner), f"{where}.{corner}")
                       for corner in ("a", "b", "c", "d")}
            intervals.append(FuzzyInterval(label=label, **corners))
        vocabs[key] = Vocabulary(name=key, intervals=tuple(intervals))
    return vocabs


def _parse_threshold(doc, key):
    value = _number(doc.get(key, 0), key)
    if not 0 <= value <= 1:
        raise ConfigError(f"'{key}' must be a number in [0, 1], got {doc[key]!r}")
    return value


def _number(value, where):
    """A JSON number as a float, or ConfigError naming ``where``.

    Non-finite floats pass: each caller decides whether they are legal.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"'{where}' is too large for a float") from None
    raise ConfigError(f"'{where}' must be a number, got {value!r}")
