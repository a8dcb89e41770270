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

:func:`load_config` gives the config a run mines; :func:`validate` lists
the findings of ``fuzzmine validate`` about a config file and an input.
"""

import json
from collections import namedtuple

from .fuzzy import FuzzyInterval, Vocabulary, validate_vocabulary
from .mining import MiningConfig, WindowConfig
from .streams import ROLES, parse_streams, parse_streams_csv, role_names, stream_findings
from .validation import ERROR, ConfigError, Finding, InputError, read_text

VOCABULARY_KEYS = ("trigger1", "trigger2", "delta_t", "consequence")

_TOP_LEVEL_KEYS = ("roles", "windows", "vocabularies", "min_support", "min_confidence")

# Unicode category Cc, which the stability policy fixes at these 65 code points.
_CONTROL = frozenset(map(chr, (*range(0x20), *range(0x7F, 0xA0))))


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
    place. Raises InputError if the input cannot be read or parsed.
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
    text = read_text(input, InputError, "input file")
    if cfg is None:
        streams = parse_streams(text)
        located = [(repr(name), streams[name]) for name in sorted(streams)]
    else:
        try:
            bundle = parse_streams_csv(text, cfg.roles)
        except ConfigError as exc:
            return findings + [Finding(ERROR, "roles", str(exc))]
        located = [(f"{role} ({stream.name!r})", stream) for role, stream in zip(ROLES, bundle)]
    return findings + [f for where, stream in located for f in stream_findings(where, stream)]


def read_config_file(path):
    """The decoded JSON document of a config file, read as by
    :func:`~fuzzmine.validation.read_text`; ConfigError if unreadable or
    not JSON."""
    text = read_text(path, ConfigError, f"config file {path}")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits or too deep
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None


def parse_config_dict(doc):
    """Turn a decoded JSON document into a PipelineConfig.

    Raises ConfigError naming the offending field on any schema
    violation, including a window or threshold that its record's
    constructor rejects. Vocabulary-content problems beyond shape (corner
    ordering etc.) are left to the validators; see _config_findings.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key in doc:
        if key not in _TOP_LEVEL_KEYS:
            raise ConfigError(f"unknown config key {key!r}")

    roles = dict(zip(ROLES, role_names(_require(doc, "roles", dict))))
    windows = _parse_windows(_require(doc, "windows", dict))
    vocabs = _parse_vocabularies(_require(doc, "vocabularies", dict))
    thresholds = {key: (key, doc.get(key, 0)) for key in ("min_support", "min_confidence")}
    mining = _build(MiningConfig, thresholds, windows, *(vocabs[key] for key in VOCABULARY_KEYS),
                    *(_number(raw, key) for key, raw in thresholds.values()))
    return PipelineConfig(roles=roles, mining=mining)


def _config_findings(cfg):
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
    keys = {f"{key}_window": (f"windows.{key}", doc[key]) for key in ("trigger", "consequence")}
    return _build(WindowConfig, keys, *(_number(raw, key) for key, raw in keys.values()))


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
            if not _CONTROL.isdisjoint(label):
                # a newline or tab would split the table row or tree line
                raise ConfigError(f"'{where}.label' has a control character: "
                                  f"{label!r}")
            corners = {corner: _number(entry.get(corner), f"{where}.{corner}")
                       for corner in ("a", "b", "c", "d")}
            intervals.append(FuzzyInterval(label=label, **corners))
        vocabs[key] = Vocabulary(name=key, intervals=tuple(intervals))
    return vocabs


def _build(record, keys, *fields):
    """``record(*fields)``, its ValueError turned into a ConfigError.

    The record's constructor names the field it rejects first and the
    rule that field breaks, not its value; ``keys`` maps the field to its
    JSON key and raw JSON value, which the ConfigError names in its place.
    """
    try:
        return record(*fields)
    except ValueError as exc:
        field, _, rule = str(exc).partition(" ")
        key, raw = keys[field]
        raise ConfigError(f"'{key}' {rule}, got {raw!r}") from None


def _number(value, where):
    """A JSON number as a float, or ConfigError naming ``where``.

    Non-finite floats pass: the record constructors decide whether they
    are legal.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"'{where}' is too large for a float") from None
    raise ConfigError(f"'{where}' must be a number, got {value!r}")
