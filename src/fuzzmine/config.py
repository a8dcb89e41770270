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

``min_support`` and ``min_confidence`` default to 0. The loader checks the
JSON's shape, :class:`~fuzzmine.mining.MiningConfig` the windows and
thresholds, and :func:`~fuzzmine.fuzzy.validate_vocabulary` what a vocabulary holds.

:func:`load_config` gives the config a run mines; :func:`validate` lists
the findings of ``fuzzmine validate`` about a config file and an input.
"""

import json
from collections import namedtuple

from .fuzzy import Vocabulary, validate_vocabulary
from .mining import MiningConfig
from .streams import (ROLES, open_input, parse_streams, parse_streams_csv, role_names,
                      stream_findings)
from .validation import ERROR, ConfigError, Finding, shown_path

VOCABULARY_KEYS = ("trigger1", "trigger2", "delta_t", "consequence")

_TOP_LEVEL_KEYS = ("roles", "windows", "vocabularies", "min_support", "min_confidence")

# The JSON key of each number field of MiningConfig, in field order.
_NUMBER_KEYS = {"trigger_window": "windows.trigger", "consequence_window": "windows.consequence",
                "min_support": "min_support", "min_confidence": "min_confidence"}


class PipelineConfig(namedtuple("PipelineConfig", "roles mining")):
    """Role bindings plus everything the miner needs."""

    __slots__ = ()


def load_config(path):
    """Read, parse, and validate a config file.

    Raises ConfigError on an unreadable file, malformed JSON, a schema
    violation, or any error-severity validator finding. Warnings and
    informational findings do not block loading.
    """
    cfg = parse_config_dict(read_config_file(path))
    errors = [f"  {f}" for f in _config_findings(cfg) if f.severity == ERROR]
    if errors:
        raise ConfigError(f"invalid configuration in {path}:\n" + "\n".join(errors))
    return cfg


def validate(config=None, input=None):
    """The findings of the config file at path ``config`` and then of each
    stream of the input at path ``input``; None leaves either out.

    A config that cannot be read or parsed is one ``config`` error finding.
    Streams are located by role if the config parsed, else by sorted name;
    roles the input does not match are one ``roles`` error finding in their
    place. The input file is opened in binary and decoded by the parser, as
    by the CLI. Raises InputError if the input cannot be read or parsed.
    """
    findings, cfg = [], None
    if config is not None:
        try:
            cfg = parse_config_dict(read_config_file(config))
        except ConfigError as exc:
            findings.append(Finding(ERROR, "config", str(exc)))
        else:
            findings += _config_findings(cfg)
    if input is None:
        return findings
    with open_input(input) as handle:
        try:
            parsed = parse_streams(handle) if cfg is None else parse_streams_csv(handle, cfg.roles)
        except ConfigError as exc:
            return findings + [Finding(ERROR, "roles", str(exc))]
    if cfg is None:
        located = [(repr(name), parsed[name]) for name in sorted(parsed)]
    else:
        located = [(f"{role} ({stream.name!r})", stream) for role, stream in zip(ROLES, parsed)]
    return findings + [f for where, stream in located for f in stream_findings(where, stream)]


def read_config_file(path):
    """The decoded JSON document of a UTF-8 config file, an optional BOM
    dropped; ConfigError if unreadable, not UTF-8 or not JSON."""
    what = f"config file {shown_path(path)}"
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} is not valid UTF-8: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def parse_config_dict(doc):
    """Turn a decoded JSON document into a PipelineConfig.

    Raises ConfigError naming the offending field on any schema
    violation, including a window or threshold that MiningConfig
    rejects. What a vocabulary holds is left to validate_vocabulary; see
    _config_findings.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key in doc:
        if key not in _TOP_LEVEL_KEYS:
            raise ConfigError(f"unknown config key {key!r}")

    roles = dict(zip(ROLES, role_names(_require(doc, "roles"))))
    windows = _require(doc, "windows")
    if set(windows) != {"trigger", "consequence"}:
        raise ConfigError("'windows' must have exactly the keys "
                          f"'trigger' and 'consequence'; got {sorted(windows)}")
    vocabs = _parse_vocabularies(_require(doc, "vocabularies"))
    given = dict(doc, **{f"windows.{key}": value for key, value in windows.items()})
    raw = {key: given.get(key, 0) for key in _NUMBER_KEYS.values()}
    w12, w23, support, confidence = (_number(value, key) for key, value in raw.items())
    try:
        mining = MiningConfig(w12, w23, *vocabs, support, confidence)
    except ValueError as exc:
        # The record names the field and the rule, not the JSON key and value.
        field, _, rule = str(exc).partition(" ")
        key = _NUMBER_KEYS[field]
        raise ConfigError(f"'{key}' {rule}, got {raw[key]!r}") from None
    return PipelineConfig(roles=roles, mining=mining)


def _config_findings(cfg):
    """All validator findings for a parsed config (any severity)."""
    m = cfg.mining
    return [finding for vocab in (m.vocab_t1, m.vocab_t2, m.vocab_dt, m.vocab_c)
            for finding in validate_vocabulary(vocab)]


def _require(doc, key):
    if key not in doc:
        raise ConfigError(f"missing config key {key!r}")
    if not isinstance(doc[key], dict):
        raise ConfigError(f"config key {key!r} must be a JSON object")
    return doc[key]


def _parse_vocabularies(doc):
    """The four vocabularies, in VOCABULARY_KEYS order; labels pass unchecked."""
    if set(doc) != set(VOCABULARY_KEYS):
        raise ConfigError("'vocabularies' must have exactly the keys "
                          f"{', '.join(VOCABULARY_KEYS)}; got {sorted(doc)}")
    vocabs = []
    for key in VOCABULARY_KEYS:
        entries = doc[key]
        if not isinstance(entries, list):
            raise ConfigError(f"'vocabularies.{key}' must be an array")
        intervals = []
        for i, entry in enumerate(entries):
            where = f"vocabularies.{key}[{i}]"
            if not isinstance(entry, dict):
                raise ConfigError(f"'{where}' must be an object with "
                                  "label, a, b, c, d")
            extra = set(entry) - {"label", "a", "b", "c", "d"}
            if extra:
                raise ConfigError(f"'{where}' has unknown keys {sorted(extra)}")
            intervals.append((entry.get("label"), *(
                _number(entry.get(corner), f"{where}.{corner}") for corner in "abcd")))
        vocabs.append(Vocabulary(key, intervals))
    return vocabs


def _number(value, where):
    """A JSON number as a float, or ConfigError naming ``where``.

    Non-finite floats pass: MiningConfig and validate_vocabulary decide
    whether they are legal.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"'{where}' is too large for a float") from None
    raise ConfigError(f"'{where}' must be a number, got {value!r}")
