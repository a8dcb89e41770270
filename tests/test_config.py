"""Tests for config parsing, schema checks, and validator wiring."""

import json
import re
import sys
import unicodedata

import pytest

from fuzzmine import ConfigError, load_config, validate
from fuzzmine.cli import main
from fuzzmine.config import parse_config_dict
from fuzzmine.fuzzy import _CONTROL
from fuzzmine.validation import ERROR, INFO

from common import QUICKSTART_CONFIG, QUICKSTART_CSV


def quickstart_doc():
    return json.loads(QUICKSTART_CONFIG.read_text(encoding="utf-8"))


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def config_text(key, literal):
    """The quickstart config as JSON text, with the number at the dotted
    ``key`` spelled as the JSON ``literal``."""
    doc = quickstart_doc()
    *parents, last = key.split(".")
    parent = doc
    for name in parents:
        parent = parent[name]
    parent[last] = "@"
    return json.dumps(doc).replace('"@"', literal)


class TestLoadConfig:
    def test_quickstart_config_loads(self):
        cfg = load_config(QUICKSTART_CONFIG)
        assert cfg.roles == {"trigger1": "stream1", "trigger2": "stream2",
                             "consequence": "stream3"}
        assert cfg.mining.trigger_window == 10
        assert cfg.mining.consequence_window == 10
        assert cfg.mining.min_support == 0
        assert cfg.mining.min_confidence == 0
        assert cfg.mining.vocab_t1.labels == (
            "Small Volume", "Medium Volume", "Large Volume")
        assert cfg.mining.vocab_dt.labels == (
            "Immediately After", "Short Time After", "Long Time After")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_integer_beyond_digit_limit(self, tmp_path):
        # json rejects integers past the interpreter's digit limit with a
        # bare ValueError; without that limit the window is too large a float.
        path = tmp_path / "digits.json"
        path.write_text(QUICKSTART_CONFIG.read_text(encoding="utf-8").replace(
            '"trigger": 10', '"trigger": ' + "1" * 5000), encoding="utf-8")
        with pytest.raises(ConfigError, match="trigger|JSON"):
            load_config(path)

    def test_vocabulary_error_blocks_loading(self, tmp_path):
        doc = quickstart_doc()
        doc["vocabularies"]["trigger1"][0] = {
            "label": "bad", "a": 5, "b": 3, "c": 9, "d": 12}
        with pytest.raises(ConfigError, match="a <= b <= c <= d"):
            load_config(write_config(tmp_path, doc))


class TestSchema:
    def test_control_characters_are_unicode_category_cc(self):
        # A label may hold no character of category Cc; fuzzy.py spells the
        # set out rather than load unicodedata on every run.
        chars = map(chr, range(sys.maxunicode + 1))
        assert _CONTROL == {char for char in chars if unicodedata.category(char) == "Cc"}

    def test_thresholds_default_to_zero(self):
        doc = quickstart_doc()
        del doc["min_support"]
        del doc["min_confidence"]
        cfg = parse_config_dict(doc)
        assert cfg.mining.min_support == 0.0
        assert cfg.mining.min_confidence == 0.0

    def test_out_of_range_support_names_field(self):
        doc = quickstart_doc()
        doc["min_support"] = 1.5
        with pytest.raises(ConfigError, match="min_support"):
            parse_config_dict(doc)

    def test_out_of_range_confidence_names_field(self):
        doc = quickstart_doc()
        doc["min_confidence"] = -0.25
        with pytest.raises(ConfigError, match="min_confidence"):
            parse_config_dict(doc)

    def test_non_object_document(self):
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config_dict(["nope"])

    def test_unknown_top_level_key(self):
        doc = quickstart_doc()
        doc["windoes"] = doc["windows"]
        with pytest.raises(ConfigError, match="windoes"):
            parse_config_dict(doc)

    def test_missing_roles(self):
        doc = quickstart_doc()
        del doc["roles"]
        with pytest.raises(ConfigError, match="roles"):
            parse_config_dict(doc)

    def test_roles_must_be_complete(self):
        doc = quickstart_doc()
        del doc["roles"]["trigger2"]
        with pytest.raises(ConfigError, match="trigger2"):
            parse_config_dict(doc)

    def test_roles_must_be_distinct(self):
        doc = quickstart_doc()
        doc["roles"]["trigger2"] = "stream1"
        with pytest.raises(ConfigError, match="distinct"):
            parse_config_dict(doc)

    def test_role_name_must_be_string(self):
        doc = quickstart_doc()
        doc["roles"]["trigger1"] = 7
        with pytest.raises(ConfigError, match="trigger1"):
            parse_config_dict(doc)

    @pytest.mark.parametrize("value", [0, -1, "ten", None, True,
                                       pytest.param(10**400, id="10**400")])
    def test_bad_window_values(self, value):
        doc = quickstart_doc()
        doc["windows"]["trigger"] = value
        with pytest.raises(ConfigError, match="windows.trigger"):
            parse_config_dict(doc)

    def test_windows_require_both_keys(self):
        doc = quickstart_doc()
        del doc["windows"]["consequence"]
        with pytest.raises(ConfigError, match="windows"):
            parse_config_dict(doc)

    def test_vocabularies_require_all_dimensions(self):
        doc = quickstart_doc()
        del doc["vocabularies"]["delta_t"]
        with pytest.raises(ConfigError, match="delta_t"):
            parse_config_dict(doc)

    def test_vocabulary_must_not_be_empty(self, tmp_path):
        doc = quickstart_doc()
        doc["vocabularies"]["trigger1"] = []
        with pytest.raises(ConfigError, match=r"\n  error: \[vocabulary-empty\] "
                                              r"vocabulary 'trigger1' has no intervals$"):
            load_config(write_config(tmp_path, doc))

    def test_vocabulary_entry_must_be_object(self):
        doc = quickstart_doc()
        doc["vocabularies"]["trigger1"][0] = [0, 0, 3, 6]
        with pytest.raises(ConfigError, match=r"trigger1\[0\]"):
            parse_config_dict(doc)

    def test_vocabulary_entry_unknown_key(self):
        doc = quickstart_doc()
        doc["vocabularies"]["trigger1"][0]["e"] = 9
        with pytest.raises(ConfigError, match=r"trigger1\[0\]"):
            parse_config_dict(doc)

    def test_vocabulary_corner_must_be_numeric(self):
        doc = quickstart_doc()
        doc["vocabularies"]["consequence"][1]["c"] = "nine"
        with pytest.raises(ConfigError, match=r"consequence\[1\]\.c"):
            parse_config_dict(doc)

    def test_vocabulary_corner_beyond_float_range(self):
        doc = quickstart_doc()
        doc["vocabularies"]["delta_t"][2]["d"] = 10**400
        with pytest.raises(ConfigError, match=r"delta_t\[2\]\.d"):
            parse_config_dict(doc)

    def test_vocabulary_label_required(self, tmp_path):
        doc = quickstart_doc()
        del doc["vocabularies"]["trigger2"][0]["label"]
        with pytest.raises(ConfigError, match=r"\n  error: \[interval-label\] trigger2\[0\]: "
                                              r"label must be a non-empty string, got None$"):
            load_config(write_config(tmp_path, doc))

    def test_vocabulary_label_must_encode_as_utf8(self, tmp_path):
        # JSON's "\ud800" decodes to a lone surrogate, which no report can
        # write; a surrogate pair is one character and passes.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(quickstart_doc())
                        .replace('"Small Volume"', '"\\ud83d\\ude00 Small"', 1)
                        .replace('"Large Volume"', '"Large \\ud800"', 1), encoding="utf-8")
        finding = ("error: [interval-label] trigger1[2]: label has an unpaired surrogate, "
                   "got 'Large \\ud800'")
        with pytest.raises(ConfigError, match=re.escape(f"\n  {finding}") + "$"):
            load_config(path)
        assert [str(f) for f in validate(path) if f.severity == ERROR] == [finding]


class TestConfigFindings:
    def test_quickstart_reports_partitions(self):
        findings = validate(QUICKSTART_CONFIG)
        ruspini = [f for f in findings if f.code == "ruspini"]
        assert len(ruspini) == 4
        assert all(f.severity == INFO for f in ruspini)

    def test_infinite_corner_reaches_vocabulary_validator(self, tmp_path):
        # JSON ``Infinity`` passes the schema; the validator rejects it.
        doc = quickstart_doc()
        doc["vocabularies"]["trigger2"][2]["d"] = float("inf")
        with pytest.raises(ConfigError, match="corners must be finite"):
            load_config(write_config(tmp_path, doc))


# Each single fault in a window or a threshold, as (key, JSON literal), and
# the exact ConfigError text of parse_config_dict.
NUMBER_FAULTS = {
    (key, literal): message
    for key, rule, out_of_range in (
        ("windows.trigger", "a positive finite number", ("0", "-1")),
        ("windows.consequence", "a positive finite number", ("0", "-1")),
        ("min_support", "a number in [0, 1]", ("1.5", "-0.1")),
        ("min_confidence", "a number in [0, 1]", ("1.5", "-0.1")),
    )
    for literal, message in (
        *((value, f"'{key}' must be {rule}, got {value}") for value in out_of_range),
        ('"ten"', f"'{key}' must be a number, got 'ten'"),
        ("true", f"'{key}' must be a number, got True"),
        ("null", f"'{key}' must be a number, got None"),
        ("1e999", f"'{key}' must be {rule}, got inf"),
        ("NaN", f"'{key}' must be {rule}, got nan"),
        ("9" * 400, f"'{key}' is too large for a float"),
    )
}


class TestNumberMessages:
    """The message of each single fault in a window or a threshold, through
    the loader, ``fuzzmine mine`` and ``fuzzmine validate``."""

    @pytest.mark.parametrize("key, literal, message", [
        pytest.param(key, literal, message,
                     id=f"{key}={literal if len(literal) < 9 else 'digits'}")
        for (key, literal), message in NUMBER_FAULTS.items()])
    def test_single_fault_message(self, key, literal, message):
        with pytest.raises(ConfigError) as exc:
            parse_config_dict(json.loads(config_text(key, literal)))
        assert str(exc.value) == message

    def test_mine_exits_3_with_the_message(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(config_text("windows.trigger", "0"), encoding="utf-8")
        code = main(["mine", "--input", str(QUICKSTART_CSV), "--config", str(path)])
        assert (code, *capsys.readouterr()) == (
            3, "", "fuzzmine: 'windows.trigger' must be a positive finite number, got 0\n")

    def test_validate_lists_the_message(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(config_text("min_confidence", "NaN"), encoding="utf-8")
        code = main(["validate", "--config", str(path)])
        assert (code, *capsys.readouterr()) == (
            3, "error: [config] 'min_confidence' must be a number in [0, 1], got nan\n", "")
