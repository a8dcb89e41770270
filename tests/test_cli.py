"""Tests for the command-line driver: flags, exit codes, report formats."""

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from functools import reduce
from operator import getitem

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzzmine.cli import main
from fuzzmine.streams import parse_streams

from common import QUICKSTART_CONFIG, QUICKSTART_CSV, REPO_ROOT, write_workload
from dot_grammar import check_dot

CSV = str(QUICKSTART_CSV)
CONFIG = str(QUICKSTART_CONFIG)
BOM = b"\xef\xbb\xbf"

TINY = {"label": "Tiny", "a": 0, "b": 1, "c": 2, "d": 3}
BIG = {"label": "Big", "a": 10, "b": 10, "c": 20, "d": 20}
ANY = {"label": "Any", "a": 0, "b": 0, "c": 100, "d": 100}

# Fields the csv module itself rejects: one past its 131,072-character field
# limit, and a NUL (rejected before Python 3.11, a non-numeric value after).
UNREADABLE_FIELDS = pytest.mark.parametrize(
    "cell", ["9" * 200_000, "1\x00"], ids=["oversized", "nul"])
# Config files json cannot decode: bad UTF-8, and nesting past the recursion limit.
UNDECODABLE_CONFIGS = pytest.mark.parametrize("content, reason", [
    (b'{"roles": "\xff"}', "UTF-8"),
    (b"[" * 200_000, "recursion"),
], ids=["non-utf8", "too-deep"])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_case(tmp_path, csv_text, vocabularies):
    """Write a long-layout CSV and a config over the quickstart roles."""
    doc = json.loads(QUICKSTART_CONFIG.read_text())
    doc["vocabularies"] = vocabularies
    csv_path, config_path = tmp_path / "streams.csv", tmp_path / "config.json"
    csv_path.write_text("timestamp,stream,value\n" + csv_text)
    config_path.write_text(json.dumps(doc))
    return str(csv_path), str(config_path)


class TestMineCommand:
    def test_table_report(self, capsys):
        code, out, err = run(capsys, "mine", "--input", CSV, "--config", CONFIG,
                             "--format", "table")
        assert code == 0
        assert err == ""
        assert "4 rules, total weight 3" in out
        assert "Short Time After" in out
        assert "0.166667" in out and "0.333333" in out

    def test_json_report(self, capsys):
        code, out, err = run(capsys, "mine", "--input", CSV, "--config", CONFIG,
                             "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["total_weight"] == 3.0
        assert len(report["rules"]) == 4
        rule = {(r["trigger1"], r["trigger2"], r["delta_t"], r["consequence"]): r
                for r in report["rules"]}
        fullest = rule[("Medium Volume", "Small Volume", "Long Time After",
                        "Medium Volume")]
        assert fullest["confidence"] == 1.0
        assert fullest["weight"] == 1.0

    def test_json_rule_count_matches_table_rows(self, capsys):
        _, json_out, _ = run(capsys, "mine", "--input", CSV, "--config", CONFIG,
                             "--format", "json")
        _, table_out, _ = run(capsys, "mine", "--input", CSV, "--config", CONFIG,
                              "--format", "table")
        rules = json.loads(json_out)["rules"]
        header, separator, *rest = table_out.splitlines()
        rows = [line for line in rest if line and not line.startswith(("-", " "))
                and "rules," not in line]
        assert len(rules) == len(rows)

    def test_table_with_ascii_tree(self, capsys):
        code, out, _ = run(capsys, "mine", "--input", CSV, "--config", CONFIG,
                           "--tree", "ascii")
        assert code == 0
        assert "4 rules" in out
        assert "(root)" in out
        assert "Medium Volume [sup=0.3333, conf=1.0000]" in out

    def test_table_with_dot_tree(self, capsys):
        code, out, _ = run(capsys, "mine", "--input", CSV, "--config", CONFIG,
                           "--tree", "dot")
        assert code == 0
        dot_text = out[out.index("digraph"):]
        assert check_dot(dot_text)

    def test_json_with_tree_embeds_structure(self, capsys):
        code, out, _ = run(capsys, "mine", "--input", CSV, "--config", CONFIG,
                           "--format", "json", "--tree", "ascii")
        assert code == 0
        report = json.loads(out)
        assert report["tree"]["level"] == "root"
        assert len(report["tree"]["children"]) == 2

    def test_json_without_tree_flag_omits_tree(self, capsys):
        _, out, _ = run(capsys, "mine", "--input", CSV, "--config", CONFIG,
                        "--format", "json")
        assert "tree" not in json.loads(out)

    def test_out_writes_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run(capsys, "mine", "--input", CSV, "--config", CONFIG,
                             "--format", "json", "--out", str(target))
        assert code == 0
        assert out == "" and err == ""
        assert json.loads(target.read_text())["total_weight"] == 3.0

    def test_zero_rules_is_still_success(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("timestamp,stream1,stream2,stream3\n")
        code, out, err = run(capsys, "mine", "--input", str(empty),
                             "--config", CONFIG, "--format", "json")
        assert code == 0
        assert json.loads(out)["rules"] == []

    def test_underflowing_total_weight_mines_zero_rules(self, capsys, tmp_path):
        # Every degree is 1e-120, so each triple's weight product is 0.0.
        csv_path, config_path = write_case(
            tmp_path, "0,stream1,1e-120\n0,stream2,1e-120\n1e-120,stream3,1e-120\n",
            {key: [TINY] for key in ("trigger1", "trigger2", "delta_t", "consequence")})
        code, out, err = run(capsys, "mine", "--input", csv_path,
                             "--config", config_path)
        assert code == 0 and err == ""
        assert "0 rules, total weight 0" in out

    def test_underflowing_trigger_pair_is_left_out(self, capsys, tmp_path):
        # (Tiny, Tiny) weighs 1e-200 * 1e-200 == 0.0; (Big, Tiny) stays positive.
        csv_path, config_path = write_case(
            tmp_path, "0,stream1,1e-200\n0,stream1,15\n1,stream2,1e-200\n2,stream3,5\n",
            {"trigger1": [TINY, BIG], "trigger2": [TINY, BIG],
             "delta_t": [ANY], "consequence": [ANY]})
        code, out, err = run(capsys, "mine", "--input", csv_path,
                             "--config", config_path, "--format", "json")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert [(r["trigger1"], r["trigger2"]) for r in report["rules"]] == [
            ("Big", "Tiny")]
        assert report["rules"][0]["support"] == 1.0
        assert report["rules"][0]["confidence"] == 1.0

    def test_csv_with_bom_gives_same_report(self, capsys, tmp_path):
        bom_csv = tmp_path / "bom.csv"
        bom_csv.write_bytes(BOM + QUICKSTART_CSV.read_bytes())
        _, plain, _ = run(capsys, "mine", "--input", CSV, "--config", CONFIG)
        code, out, err = run(capsys, "mine", "--input", str(bom_csv),
                             "--config", CONFIG)
        assert code == 0 and err == ""
        assert out == plain

    def test_config_with_bom_gives_same_report(self, capsys, tmp_path):
        bom_config = tmp_path / "bom.json"
        bom_config.write_bytes(BOM + QUICKSTART_CONFIG.read_bytes())
        _, plain, _ = run(capsys, "mine", "--input", CSV, "--config", CONFIG,
                          "--format", "json")
        code, out, err = run(capsys, "mine", "--input", CSV,
                             "--config", str(bom_config), "--format", "json")
        assert code == 0 and err == ""
        assert out == plain

    @UNDECODABLE_CONFIGS
    def test_undecodable_config_exits_3(self, capsys, tmp_path, content, reason):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, out, err = run(capsys, "mine", "--input", CSV, "--config", str(bad))
        assert code == 3 and out == ""
        assert err.startswith("fuzzmine:") and reason in err

    @UNREADABLE_FIELDS
    def test_unreadable_csv_field_exits_2(self, capsys, tmp_path, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"timestamp,stream,value\n0,s,{cell}\n")
        code, out, err = run(capsys, "mine", "--input", str(bad), "--config", CONFIG)
        assert code == 2 and out == ""
        assert "line 2:" in err

    def test_failed_stdout_write_names_standard_output(self, capsys, monkeypatch):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as broken:
            monkeypatch.setattr(sys, "stdout", broken)
            code, _, err = run(capsys, "mine", "--input", CSV, "--config", CONFIG)
        assert code == 2
        assert err == "fuzzmine: cannot write standard output: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("kind", ["empty", "directory"])
    def test_failed_out_write_names_the_path(self, capsys, tmp_path, kind):
        path = "" if kind == "empty" else str(tmp_path)
        code, out, err = run(capsys, "mine", "--input", CSV, "--config", CONFIG,
                             "--out", path)
        assert (code, out) == (2, "")
        if kind == "empty":
            assert err == ("fuzzmine: cannot write '': "
                           "[Errno 2] No such file or directory: ''\n")
        else:
            assert err.startswith(f"fuzzmine: cannot write {path}: [Errno ")

    def test_missing_input_exits_2(self, capsys):
        code, out, err = run(capsys, "mine", "--input", "missing.csv",
                             "--config", CONFIG)
        assert code == 2
        assert out == ""
        assert "missing.csv" in err

    def test_non_utf8_input_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("timestamp,stream,value\n1,stream1,2 \u00b0C\n".encode("latin-1"))
        err = (f"fuzzmine: {bad}: input file is not valid UTF-8: 'utf-8' codec can't "
               "decode byte 0xb0 in position 35: invalid start byte\n")
        assert run(capsys, "mine", "--input", str(bad), "--config", CONFIG) == (2, "", err)
        assert run(capsys, "validate", "--input", str(bad)) == (2, "", err)

    # A bad byte, a surrogate encoded in UTF-8 and a cut-off sequence, at
    # file offsets on both sides of the 8 KiB chunks the parser decodes.
    @pytest.mark.parametrize("bom", [b"", BOM], ids=["plain", "bom"])
    @pytest.mark.parametrize("bad, offset", [
        *(pytest.param(b"\xb0", n, id=f"byte-{n}") for n in (35, 8191, 8192, 20000)),
        *(pytest.param(b"\xed\xa0\x80", n, id=f"surrogate-{n}") for n in (8190, 20000)),
        pytest.param(b"\xe2\x82", 8191, id="cut-off-8191"),
    ])
    def test_non_utf8_input_names_the_position_in_the_file(self, capsys, tmp_path,
                                                             bom, bad, offset):
        head = bom + b'timestamp,stream,value\n1,"'
        data = head + b"x" * (offset - len(head)) + bad + b'",2\n'
        with pytest.raises(UnicodeDecodeError) as exc:
            data.decode("utf-8-sig")
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        err = f"fuzzmine: {path}: input file is not valid UTF-8: {exc.value}\n"
        assert run(capsys, "mine", "--input", str(path), "--config", CONFIG) == (2, "", err)
        assert run(capsys, "validate", "--input", str(path)) == (2, "", err)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_non_utf8_pipe_names_the_position_in_the_stream(self, capsys):
        # A pipe cannot tell its position, so the parser counts what it reads.
        data = BOM + b"timestamp,stream,value\n" + b"1,s,2\n" * 3000 + b"1,s,\xb0\n"
        with pytest.raises(UnicodeDecodeError) as exc:
            data.decode("utf-8-sig")
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, data)   # less than a pipe's 64 KiB buffer
            os.close(write_end)
            path = f"/dev/fd/{read_end}"
            assert run(capsys, "validate", "--input", path) == (
                2, "", f"fuzzmine: {path}: input file is not valid UTF-8: {exc.value}\n")
        finally:
            os.close(read_end)

    def test_cut_off_sequence_at_the_end_names_its_position(self, capsys, tmp_path):
        data = b"timestamp,stream,value\n" + b"1,s,2\n" * 2000 + b"1,s,\xe2\x82"
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        assert run(capsys, "validate", "--input", str(path)) == (2, "", (
            f"fuzzmine: {path}: input file is not valid UTF-8: 'utf-8' codec can't decode "
            "bytes in position 12027-12028: unexpected end of data\n"))

    def test_bad_row_a_chunk_before_a_bad_byte_is_reported_first(self, capsys, tmp_path):
        # The parser decodes the file 8 KiB at a time, ahead of the rows it
        # reads: a bad row in an earlier chunk than a bad byte is reported,
        # while the bad byte wins in the bad row's own chunk.
        head = b"timestamp,stream,value\n1,s,zap\n"
        path = tmp_path / "bad.csv"
        for filler, message in [
            (b"1,s,2\n" * 2000, "line 2: non-numeric value: 'zap'"),
            (b"", "input file is not valid UTF-8: 'utf-8' codec can't decode byte 0xb0 "
                  "in position 35: invalid start byte"),
        ]:
            path.write_bytes(head + filler + b"1,s,\xb0\n")
            assert run(capsys, "validate", "--input", str(path)) == (
                2, "", f"fuzzmine: {path}: {message}\n")

    def test_malformed_csv_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,stream1,stream2,stream3\n1,2\n")
        code, _, err = run(capsys, "mine", "--input", str(bad), "--config", CONFIG)
        assert code == 2
        assert "line 2" in err

    def test_missing_config_exits_3(self, capsys):
        code, _, err = run(capsys, "mine", "--input", CSV,
                           "--config", "missing.json")
        assert code == 3
        assert "missing.json" in err

    def test_invalid_vocabulary_exits_3(self, capsys, tmp_path):
        doc = json.loads(QUICKSTART_CONFIG.read_text())
        doc["vocabularies"]["trigger1"][0]["a"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "mine", "--input", CSV, "--config", str(bad))
        assert code == 3
        assert "a <= b <= c <= d" in err

    def test_ramp_wider_than_float_range_exits_3(self, capsys, tmp_path):
        # b - a overflows: classify() would drop the label inside the ramp.
        doc = json.loads(QUICKSTART_CONFIG.read_text())
        doc["vocabularies"]["trigger1"].append(
            {"label": "Huge", "a": -1.5e308, "b": 1.5e308, "c": 1.6e308, "d": 1.7e308})
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "mine", "--input", CSV, "--config", str(bad))
        assert code == 3 and out == ""
        assert "interval-span" in err

    def test_role_selecting_absent_stream_exits_3(self, capsys, tmp_path):
        doc = json.loads(QUICKSTART_CONFIG.read_text())
        doc["roles"]["consequence"] = "stream9"
        bad = tmp_path / "roles.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "mine", "--input", CSV, "--config", str(bad))
        assert code == 3
        assert "stream9" in err

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mine", "--input", CSV])
        assert exc.value.code == 1

    def test_bad_format_choice_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mine", "--input", CSV, "--config", CONFIG, "--format", "xml"])
        assert exc.value.code == 1

    def test_no_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1


class TestValidateCommand:
    def test_config_only(self, capsys):
        code, out, err = run(capsys, "validate", "--config", CONFIG)
        assert code == 0
        assert err == ""
        assert out.count("ruspini") == 4

    def test_input_only(self, capsys):
        code, out, _ = run(capsys, "validate", "--input", CSV)
        assert code == 0

    def test_config_and_input(self, capsys):
        code, out, _ = run(capsys, "validate", "--config", CONFIG, "--input", CSV)
        assert code == 0
        assert "error" not in out

    def test_quoted_crlf_survives_as_in_the_library(self, capsys, tmp_path):
        # A CR LF inside a quoted name is kept through the CLI, as through the
        # library's parse of the same file's text.
        path = tmp_path / "crlf.csv"
        path.write_bytes(b'timestamp,stream,value\r\n1,"a\r\nb",2\r\n1,"a\r\nb",2\r\n')
        (name,) = parse_streams(path.read_bytes().decode("utf-8"))
        assert name == "a\r\nb"
        assert run(capsys, "validate", "--input", str(path)) == (
            0, f"info: [duplicate-event] {name!r}: repeated event (timestamp 1, value 2)\n", "")

    def test_bad_config_exits_3(self, capsys, tmp_path):
        doc = json.loads(QUICKSTART_CONFIG.read_text())
        doc["vocabularies"]["delta_t"][0]["b"] = -5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--config", str(bad))
        assert code == 3
        assert "error" in out

    def test_every_label_error_is_listed_at_once(self, capsys, tmp_path):
        doc = json.loads(QUICKSTART_CONFIG.read_text())
        doc["vocabularies"]["trigger1"][0]["label"] = "Small\nVolume"
        doc["vocabularies"]["consequence"][1]["label"] = 7
        bad = tmp_path / "labels.json"
        bad.write_text(json.dumps(doc))
        assert run(capsys, "validate", "--config", str(bad)) == (3, (
            "error: [interval-label] trigger1[0]: label has a control character, "
            "got 'Small\\nVolume'\n"
            "info: [ruspini] trigger2: memberships sum to 1 over [0, 15] (Ruspini partition)\n"
            "info: [ruspini] delta_t: memberships sum to 1 over [0, 10] (Ruspini partition)\n"
            "error: [interval-label] consequence[1]: label must be a non-empty string, "
            "got 7\n"), "")

    def test_warnings_do_not_affect_exit(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("timestamp,stream1,stream2,stream3\n")
        code, out, _ = run(capsys, "validate", "--config", CONFIG,
                           "--input", str(empty))
        assert code == 0
        assert "warning" in out

    @UNDECODABLE_CONFIGS
    def test_undecodable_config_exits_3(self, capsys, tmp_path, content, reason):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, out, _ = run(capsys, "validate", "--config", str(bad))
        assert code == 3
        assert "error: [config]" in out and reason in out

    @UNREADABLE_FIELDS
    def test_unreadable_csv_field_exits_2(self, capsys, tmp_path, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"timestamp,stream,value\n0,s,{cell}\n")
        code, out, err = run(capsys, "validate", "--input", str(bad))
        assert code == 2 and out == ""
        assert "line 2:" in err

    def test_role_mismatch_exits_3(self, capsys, tmp_path):
        doc = json.loads(QUICKSTART_CONFIG.read_text())
        doc["roles"]["trigger1"] = "stream9"
        bad = tmp_path / "roles.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--config", str(bad),
                           "--input", CSV)
        assert code == 3

    def test_unparseable_input_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,a\n1,zap\n")
        code, _, err = run(capsys, "validate", "--input", str(bad))
        assert code == 2
        assert "zap" in err

    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: fuzzmine validate")
        assert "--config and/or --input" in err

    # An empty path names no file; it is read, and fails, as under mine.
    def test_empty_config_path_is_a_config_error(self, capsys):
        message = "cannot read config file '': [Errno 2] No such file or directory: ''"
        assert run(capsys, "mine", "--input", CSV, "--config", "") == (
            3, "", f"fuzzmine: {message}\n")
        for argv in (["--config", ""], ["--input", CSV, "--config", ""]):
            assert run(capsys, "validate", *argv) == (3, f"error: [config] {message}\n", "")

    def test_empty_input_path_is_an_input_error(self, capsys):
        err = "fuzzmine: '': cannot read input file: [Errno 2] No such file or directory: ''\n"
        for command in ("mine", "validate"):
            assert run(capsys, command, "--input", "", "--config", CONFIG) == (2, "", err)


LONG_HEADER = "timestamp,stream,value\n"
WIDE_HEADER = "timestamp,stream1,stream2,stream3\n"
HUGE = "9" * 5000   # a valid float literal that overflows to inf

# Each input body (after its header) and what `mine` answers: the exit code
# and the standard-error text after "fuzzmine: <path>: ", "" when it mines.
# Within a row the cells are read left to right and the first fault wins;
# across rows the first faulty row wins.
INPUT_CASES = {
    "long-columns-short": (LONG_HEADER, "1,stream1\n", 2,
                           "line 2: expected 3 columns, got 2"),
    "long-columns-long": (LONG_HEADER, "0,stream1,2\n1,stream1,2,3\n", 2,
                          "line 3: expected 3 columns, got 4"),
    "long-padded-timestamp": (LONG_HEADER, " noon ,stream1,2\n", 2,
                              "line 2: non-numeric timestamp: 'noon'"),
    "long-padded-value": (LONG_HEADER, "1,stream1, zap \n", 2,
                          "line 2: non-numeric value: 'zap'"),
    "long-separator-padded-timestamp": (LONG_HEADER, "\x1c1,stream1,2\n", 0, ""),
    "long-separator-padded-value": (LONG_HEADER, "1,stream1,\x1c5\n", 0, ""),
    "long-separator-padded-non-numeric-value": (LONG_HEADER, "1,stream1,\x1czap\n", 2,
                                                "line 2: non-numeric value: 'zap'"),
    "long-nan-timestamp": (LONG_HEADER, "nan,stream1,2\n", 2,
                           "line 2: timestamp must be finite, got nan"),
    "long-inf-timestamp": (LONG_HEADER, "inf,stream1,2\n", 2,
                           "line 2: timestamp must be finite, got inf"),
    "long-1e309-timestamp": (LONG_HEADER, "1e309,stream1,2\n", 2,
                             "line 2: timestamp must be finite, got inf"),
    "long-huge-timestamp": (LONG_HEADER, f"{HUGE},stream1,2\n", 2,
                            "line 2: timestamp must be finite, got inf"),
    "long-negative-timestamp": (LONG_HEADER, "-1,stream1,2\n", 2,
                                "line 2: timestamp must be non-negative, got -1"),
    "long-padded-negative-timestamp": (
        LONG_HEADER, " -2.5 ,stream1,2\n", 2,
        "line 2: timestamp must be non-negative, got -2.5"),
    "long-negative-zero-timestamp": (LONG_HEADER, "-0,stream1,2\n", 0, ""),
    "long-nan-value": (LONG_HEADER, "1,stream1,nan\n", 2,
                       "line 2: value must be finite, got nan"),
    "long-inf-value": (LONG_HEADER, "1,stream1,-inf\n", 2,
                       "line 2: value must be finite, got -inf"),
    "long-1e309-value": (LONG_HEADER, "1,stream1,1e309\n", 2,
                         "line 2: value must be finite, got inf"),
    "long-negative-value": (LONG_HEADER, "1,stream1,-1\n", 0, ""),
    "long-negative-zero-value": (LONG_HEADER, "1,stream1,-0\n", 0, ""),
    "long-empty-name": (LONG_HEADER, "1, ,2\n", 2, "line 2: stream name is empty"),
    "long-blank-rows": (LONG_HEADER, "\n0,stream1,2\n\n3,stream2,8\n\n", 0, ""),
    "long-crlf": (LONG_HEADER, "0,stream1,2\r\n3,stream2,8\r\n7,stream3,10.5\r\n", 0, ""),
    "long-crlf-bad-row": (LONG_HEADER, "0,stream1,2\r\n\r\n3,stream2,x\r\n", 2,
                          "line 4: non-numeric value: 'x'"),
    "long-first-bad-row-wins": (LONG_HEADER, "0,stream1,2\n-1,stream1,2\n3,stream2,8\n"
                                "4,stream2,zap\n", 2,
                                "line 3: timestamp must be non-negative, got -1"),
    "long-quoted-newline": (LONG_HEADER, '0,"str\neam",2\n-1,stream1,2\n', 2,
                            "line 4: timestamp must be non-negative, got -1"),
    "long-timestamp-before-name": (LONG_HEADER, "zap,,nan\n", 2,
                                   "line 2: non-numeric timestamp: 'zap'"),
    "long-name-before-value": (LONG_HEADER, "-1,,zap\n", 2,
                               "line 2: stream name is empty"),
    "long-value-before-range": (LONG_HEADER, "nan,stream1,zap\n", 2,
                                "line 2: non-numeric value: 'zap'"),
    "long-timestamp-range-first": (LONG_HEADER, "-1,stream1,nan\n", 2,
                                   "line 2: timestamp must be non-negative, got -1"),
    "long-finite-before-sign": (LONG_HEADER, "nan,stream1,inf\n", 2,
                                "line 2: timestamp must be finite, got nan"),
    "wide-columns-short": (WIDE_HEADER, "1,2\n", 2, "line 2: expected 4 columns, got 2"),
    "wide-columns-long": (WIDE_HEADER, "0,2,-,-\n1,-,-,-,-\n", 2,
                          "line 3: expected 4 columns, got 5"),
    "wide-padded-timestamp": (WIDE_HEADER, " noon ,1,-,-\n", 2,
                              "line 2: non-numeric timestamp: 'noon'"),
    "wide-padded-value": (WIDE_HEADER, "1, zap ,-,-\n", 2,
                          "line 2: non-numeric value for 'stream1': 'zap'"),
    "wide-separator-padded-timestamp": (WIDE_HEADER, "\x1c1,2,-,-\n", 0, ""),
    "wide-nan-timestamp": (WIDE_HEADER, "nan,1,-,-\n", 2,
                           "line 2: timestamp must be finite, got nan"),
    "wide-inf-timestamp": (WIDE_HEADER, "inf,-,1,-\n", 2,
                           "line 2: timestamp must be finite, got inf"),
    "wide-1e309-timestamp": (WIDE_HEADER, "1e309,-,-,1\n", 2,
                             "line 2: timestamp must be finite, got inf"),
    "wide-huge-timestamp": (WIDE_HEADER, f"{HUGE},1,-,-\n", 2,
                            "line 2: timestamp must be finite, got inf"),
    "wide-negative-timestamp": (WIDE_HEADER, "-1,-,2,-\n", 2,
                                "line 2: timestamp must be non-negative, got -1"),
    "wide-negative-zero-timestamp": (WIDE_HEADER, "-0,2,-,-\n", 0, ""),
    "wide-nan-value": (WIDE_HEADER, "1,-,nan,-\n", 2,
                       "line 2: value must be finite, got nan"),
    "wide-inf-value": (WIDE_HEADER, "1,-,-,inf\n", 2,
                       "line 2: value must be finite, got inf"),
    "wide-1e309-value": (WIDE_HEADER, "1,-1e309,-,-\n", 2,
                         "line 2: value must be finite, got -inf"),
    "wide-negative-value": (WIDE_HEADER, "1,-1,-,-\n", 0, ""),
    "wide-negative-zero-value": (WIDE_HEADER, "1,-0,-,-\n", 0, ""),
    "wide-empty-name": ("timestamp,stream1,,stream3\n", "1,2,-,3\n", 2,
                        "line 1: wide layout requires a non-empty name per stream column"),
    "wide-blank-rows": (WIDE_HEADER, "\n0,2,-,-\n\n3,-,8,-\n\n", 0, ""),
    "wide-crlf": (WIDE_HEADER, "0,2,-,-\r\n3,-,8,\r\n7,,,10.5\r\n", 0, ""),
    "wide-crlf-bad-row": (WIDE_HEADER, "0,2,-,-\r\n\r\n3,-,x,-\r\n", 2,
                          "line 4: non-numeric value for 'stream2': 'x'"),
    "wide-first-bad-row-wins": (WIDE_HEADER, "0,2,-,-\n-1,-,5,-\n3,-,8,-\n4,zap,-,-\n",
                                2, "line 3: timestamp must be non-negative, got -1"),
    "wide-negative-timestamp-without-events": (
        WIDE_HEADER, "-1,-,-,-\n-2,, - ,\n0,2,-,-\n", 2,
        "line 2: timestamp must be non-negative, got -1"),
    "wide-nan-timestamp-without-events": (WIDE_HEADER, "nan,-,-,-\n0,2,-,-\n", 2,
                                          "line 2: timestamp must be finite, got nan"),
    "wide-timestamp-before-cells": (WIDE_HEADER, "zap,-,-,-\n", 2,
                                    "line 2: non-numeric timestamp: 'zap'"),
    "wide-cells-left-to-right": (WIDE_HEADER, "1,5,zap,nan\n", 2,
                                 "line 2: non-numeric value for 'stream2': 'zap'"),
    "wide-range-before-later-cell": (WIDE_HEADER, "1,nan,zap,-\n", 2,
                                     "line 2: value must be finite, got nan"),
    "wide-value-before-range": (WIDE_HEADER, "-1,zap,-,-\n", 2,
                                "line 2: non-numeric value for 'stream1': 'zap'"),
    "wide-timestamp-range-first": (WIDE_HEADER, "-1,-,nan,-\n", 2,
                                   "line 2: timestamp must be non-negative, got -1"),
}


class TestInputErrors:
    """Pins what each malformed (or oddly formed) CSV answers: the line,
    the message and the exit code, for `mine` and for `validate`."""

    @pytest.mark.parametrize("case", INPUT_CASES.values(), ids=INPUT_CASES.keys())
    def test_exit_code_and_message(self, capsys, tmp_path, case):
        header, body, expected_code, message = case
        path = tmp_path / "streams.csv"
        path.write_bytes((header + body).encode("utf-8"))
        code, out, err = run(capsys, "mine", "--input", str(path), "--config", CONFIG)
        expected_err = f"fuzzmine: {path}: {message}\n" if message else ""
        assert (code, err) == (expected_code, expected_err)
        assert (out == "") == bool(message)
        if message:
            code, out, err = run(capsys, "validate", "--input", str(path))
            assert (code, out, err) == (expected_code, "", expected_err)


# A small grammar of hostile CSV text: headers of both layouts and broken
# ones, long-, wide- and ragged-shaped rows of mostly numeric but sometimes
# adversarial cells, blank rows, and mixed line ends.
NUMBERS = st.one_of(
    st.integers(0, 30).map(str),
    st.integers(0, 60).map(lambda k: f"{k / 4:g}"),
    st.sampled_from(["-0", "  3 ", "1e-400", "1_0", "0." + "0" * 400 + "1"]))
ODD_CELLS = st.sampled_from([
    "-2.5", "nan", "NaN", "inf", "-inf", "Infinity", "1e309", "-1e309", "0x10", "zap",
    "9" * 400, "-" + "9" * 400, "9" * 200_000, "\ufeff1", "\x00", "1\x00",
    '"', '"1"', '"1,2"', '"a\nb"', 'a"b', "timestamp"])
CELLS = st.one_of(NUMBERS, st.sampled_from(["-", "", " - "]), ODD_CELLS)
NAMES = st.sampled_from(["stream1", "stream2", "stream3", " stream2 ", "other", ""])
RAGGED = st.lists(CELLS, max_size=6)
LONG_ROWS = st.one_of(*[st.tuples(NUMBERS, NAMES, NUMBERS).map(list)] * 12,
                      st.tuples(CELLS, NAMES, CELLS).map(list), RAGGED)
WIDE_ROWS = st.one_of(
    *[st.tuples(NUMBERS, *[st.one_of(NUMBERS, st.just("-"))] * 3).map(list)] * 12,
    st.lists(CELLS, min_size=4, max_size=4), RAGGED)
LONG_HEADERS = st.one_of(*[st.just("timestamp,stream,value")] * 4, st.sampled_from([
    " Timestamp , Stream , Value ", "\ufefftimestamp,stream,value",
    "time,stream,value", "timestamp", ""]))
WIDE_HEADERS = st.one_of(*[st.just("timestamp,stream1,stream2,stream3")] * 4,
                         st.sampled_from(["timestamp,stream3,stream1,other",
                                          "timestamp,stream1,stream2,",
                                          "timestamp,stream1,stream1,stream3"]))


def csv_text(headers, rows):
    return st.builds(
        lambda header, rows, eol: eol.join([header, *map(",".join, rows)]) + eol,
        headers, st.lists(rows, max_size=8), st.sampled_from(["\n", "\r\n", "\r"]))


HOSTILE_CSV = st.one_of(csv_text(LONG_HEADERS, LONG_ROWS),
                        csv_text(WIDE_HEADERS, WIDE_ROWS))


def quiet_main(*argv):
    """main(argv) with standard output and error captured and dropped.
    Standard output is bytes underneath and declares ASCII, as it does
    under PYTHONIOENCODING=ascii."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


class TestInputBoundary:
    @settings(max_examples=150, deadline=2000,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=HOSTILE_CSV, bom=st.booleans())
    def test_mine_exits_with_a_documented_code(self, tmp_path_factory, text, bom):
        path = tmp_path_factory.getbasetemp() / "hostile.csv"
        path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
        code = quiet_main("mine", "--input", str(path), "--config", CONFIG)
        assert code in (0, 2, 3)
        if quiet_main("validate", "--input", str(path), "--config", CONFIG) == 0:
            assert code == 0


# Hostile config documents, written as JSON text so that they can hold what
# json.dumps cannot: NaN, Infinity, 1e400, integers of 5,000 digits, and
# arrays nested deeper than json decodes.
ODD_TOKENS = st.one_of(st.integers(-2, 16).map(str), st.sampled_from([
    "0.5", "-0", "-0.0", "1e-400", "5e-324", "1e308", "1e400", "-1e400", "NaN",
    "Infinity", "-Infinity", "1" + "0" * 5000, "-" + "9" * 5000, "true", "false",
    "null", '"3"', '""', '"\\ud800"', "[]", "{}"]))
HOSTILE_TOKENS = st.one_of(ODD_TOKENS, st.builds(
    lambda token, depth: "[" * depth + token + "]" * depth,
    ODD_TOKENS, st.sampled_from([1, 40, 5_000, 100_000])))
# Labels a config may use (a repeat within one vocabulary is a finding),
# written as JSON strings.
LABELS = st.sampled_from([
    '"Small"', '"Medium"', '"Large"', '" "', '"\\""', '"a/b"', '"a\\\\b"',
    '"a\\nb"', '"x,y"', '"-"', '"Größe klein"', '"\\u00e9t\\u00e9"',
    '"\\ud83d\\ude00"'])
ORDERED_CORNERS = st.lists(st.integers(0, 16).map(str), min_size=4, max_size=4).map(
    lambda corners: sorted(corners, key=int))


def json_text(node):
    """``node`` as JSON text: dicts and lists of JSON text tokens."""
    if isinstance(node, dict):
        return "{" + ", ".join(f'"{key}": {json_text(value)}'
                               for key, value in node.items()) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(json_text, node)) + "]"
    return node


def node_paths(node, path=()):
    """The path of every value under ``node``, containers included."""
    if path:
        yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from node_paths(child, path + (key,))


@st.composite
def hostile_configs(draw):
    """A sound config over the quickstart streams with up to three of its
    values, or one unknown key, set to hostile tokens; now and then no
    object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(HOSTILE_TOKENS)
    doc = {
        "roles": {"trigger1": '"stream1"', "trigger2": '"stream2"',
                  "consequence": '"stream3"'},
        "windows": {"trigger": draw(st.integers(1, 12).map(str)),
                    "consequence": draw(st.integers(1, 12).map(str))},
        "vocabularies": {key: [{"label": draw(LABELS), **dict(zip("abcd", corners))}
                               for corners in draw(st.lists(ORDERED_CORNERS, min_size=1,
                                                            max_size=3))]
                         for key in ("trigger1", "trigger2", "delta_t", "consequence")},
    }
    thresholds = st.sampled_from(["min_support", "min_confidence"])
    for key in draw(st.lists(thresholds, unique=True)):
        doc[key] = draw(st.sampled_from(["0", "0.1", "1"]))
    for _ in range(draw(st.integers(0, 3))):
        *keys, last = draw(st.sampled_from([*node_paths(doc), ("unknown",)]))
        reduce(getitem, keys, doc)[last] = draw(HOSTILE_TOKENS)
    return json_text(doc)


REPORTS = st.sampled_from([("--format", "table"), ("--tree", "ascii"), ("--tree", "dot"),
                           ("--format", "json", "--tree", "dot")])


class TestConfigBoundary:
    @settings(max_examples=60, deadline=2000,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=hostile_configs(), report=REPORTS)
    def test_mine_and_validate_exit_with_documented_codes(self, tmp_path_factory,
                                                          text, report):
        path = tmp_path_factory.getbasetemp() / "hostile.json"
        path.write_text(text, encoding="utf-8")
        code = quiet_main("mine", "--input", CSV, "--config", str(path), *report)
        assert code in (0, 2, 3)
        checked = quiet_main("validate", "--input", CSV, "--config", str(path))
        assert checked in (0, 2, 3)
        if checked == 0:
            assert code == 0


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_repeated_runs_are_byte_identical(self, capsys, fmt):
        _, first, _ = run(capsys, "mine", "--input", CSV, "--config", CONFIG,
                          "--format", fmt, "--tree", "ascii")
        _, second, _ = run(capsys, "mine", "--input", CSV, "--config", CONFIG,
                           "--format", fmt, "--tree", "ascii")
        assert first == second


def seeded_wide_case(tmp_path, seed=6):
    """60 events per stream, about 10 per window, and 9 overlapping labels
    per dimension that do not sum to 1, as CSV and config files."""
    rng = random.Random(seed)
    rows = ["timestamp,stream,value"]
    for name in ("stream1", "stream2", "stream3"):
        rows += [f"{i + rng.random():.3f},{name},{rng.uniform(0, 15):.2f}"
                 for i in range(60)]

    def labels(prefix, top):
        step = top / 8
        return [{"label": f"{prefix}{k}", "a": round(step * (k - 1.05), 4),
                 "b": round(step * (k - 0.2 * (k % 2 == 0)), 4),
                 "c": round(step * (k + 0.2 * (k % 2 == 0)), 4),
                 "d": round(step * (k + 1.05), 4)} for k in range(9)]

    doc = json.loads(QUICKSTART_CONFIG.read_text())
    doc["vocabularies"] = {"trigger1": labels("v", 15), "trigger2": labels("v", 15),
                           "delta_t": labels("dt", 8.8), "consequence": labels("v", 15)}
    csv_path, config_path = tmp_path / "wide.csv", tmp_path / "wide.json"
    csv_path.write_text("\n".join(rows) + "\n")
    config_path.write_text(json.dumps(doc))
    return str(csv_path), str(config_path)


# The JSON report with its tree of seeded_wide_case at seed 6, taken from the
# triple-at-a-time miner (extract, then aggregate) whose sums mine() must match.
PINNED_RULES = 6318
PINNED_SHA256 = "10e4851522e9450bbaa92da3c8d75c00b34730abc62c2e5676499f1cb7f13995"
# The table report of seeded_wide_layout_case at seed 7 over the quickstart
# config, taken from the row-at-a-time parser that built one Event per cell.
PINNED_WIDE_LAYOUT_SHA256 = (
    "be526376d292f3f66a69fc80f672014b12c64844cb27c130004d5672662d8ced")
# The quickstart JSON report without a tree, taken from json.dumps(indent=2).
PINNED_QUICKSTART_JSON_SHA256 = (
    "f4a0b5c0d815e1be8d68d4289907c9243b8917a67610be900147aba754d44f03")
# The table report of seeded_wide_case at seed 6 with each text tree, taken
# when render_ascii and render_dot each walked the tree on their own.
PINNED_TEXT_TREE_SHA256 = {
    "ascii": "96853485a4df9aad888ff31ecc502b24e336a6e37f7d68cb18fed8dc981e264d",
    "dot": "779685a7936d10c1827ebda99da9ed810f51d40949589400b1b68d49f418aca0",
}


# Trigger-1 labels B and Z nearly tie: B's rule weights 0.7, 0.1, 0.1 and
# 0.1 add one after another to 0.9999999999999999, under Z's 1.0. A
# compensated sum (sum() of floats on Python 3.12+) gives 1.0, a tie that
# the label order breaks, and lists B first.
NEAR_TIE_CSV = """0,stream1,0.5
1,stream2,0.5
2,stream3,77
3,stream3,11
4,stream3,31
5,stream3,51
1000,stream1,2.5
1001,stream2,0.5
1002,stream3,80
"""
NEAR_TIE_VOCABULARIES = {
    "trigger1": [{"label": "B", "a": 0, "b": 0, "c": 1, "d": 1},
                 {"label": "Z", "a": 2, "b": 2, "c": 3, "d": 3}],
    "trigger2": [{"label": "x", "a": 0, "b": 0, "c": 1, "d": 1}],
    "delta_t": [{"label": "t", "a": 0, "b": 0, "c": 10, "d": 10}],
    "consequence": [{"label": f"c{i}", "a": a, "b": a + 10, "c": a + 10, "d": a + 10}
                    for i, a in enumerate((70, 10, 30, 50))],
}
NEAR_TIE_REPORT = """\
trigger1  trigger2  delta_t  consequence  weight  support  confidence
--------  --------  -------  -----------  ------  -------  ----------
Z         x         t        c0           1       0.5      1
B         x         t        c0           0.7     0.35     0.7
B         x         t        c1           0.1     0.05     0.1
B         x         t        c2           0.1     0.05     0.1
B         x         t        c3           0.1     0.05     0.1

5 rules, total weight 2

(root)
  Z
    x
      t
        c0 [sup=0.5000, conf=1.0000]
  B
    x
      t
        c0 [sup=0.3500, conf=0.7000]
        c1 [sup=0.0500, conf=0.1000]
        c2 [sup=0.0500, conf=0.1000]
        c3 [sup=0.0500, conf=0.1000]
"""


def seeded_wide_layout_case(tmp_path, seed=7):
    """90 wide-layout rows in random time order with CRLF line ends.
    Timestamps lie on a quarter grid, so many repeat across and within
    streams, and each cell is a value, a dash or blank."""
    rng = random.Random(seed)
    rows = ["timestamp,stream1,stream2,stream3"]
    for _ in range(90):
        cells = [f"{rng.uniform(0, 15):.2f}" if rng.random() < 0.5
                 else rng.choice(("-", "", " - ")) for _ in range(3)]
        rows.append(",".join([f"{rng.randrange(120) / 4:g}", *cells]))
    path = tmp_path / "wide-layout.csv"
    path.write_bytes(("\r\n".join(rows) + "\r\n").encode("utf-8"))
    return str(path)


class TestPinnedReport:
    def test_seeded_wide_vocabulary_report_bytes(self, tmp_path):
        # Any change in the float order of the mining sums changes low bits
        # of the weights and metrics, and so the hash.
        csv_path, config_path = seeded_wide_case(tmp_path)
        out = tmp_path / "report.json"
        code = main(["mine", "--input", csv_path, "--config", config_path,
                     "--format", "json", "--tree", "dot", "--out", str(out)])
        assert code == 0
        report = out.read_bytes()
        assert len(json.loads(report)["rules"]) == PINNED_RULES
        assert hashlib.sha256(report).hexdigest() == PINNED_SHA256

    @pytest.mark.parametrize("tree", sorted(PINNED_TEXT_TREE_SHA256))
    def test_seeded_wide_vocabulary_text_tree_bytes(self, tmp_path, tree):
        csv_path, config_path = seeded_wide_case(tmp_path)
        out = tmp_path / "report.txt"
        code = main(["mine", "--input", csv_path, "--config", config_path,
                     "--format", "table", "--tree", tree, "--out", str(out)])
        assert code == 0
        report = out.read_bytes()
        assert f"{PINNED_RULES} rules, total weight".encode() in report
        assert hashlib.sha256(report).hexdigest() == PINNED_TEXT_TREE_SHA256[tree]

    def test_seeded_wide_layout_table_bytes(self, tmp_path):
        # Equal timestamps must keep their input order, within a stream and
        # across streams, however the rows arrive.
        out = tmp_path / "report.txt"
        code = main(["mine", "--input", seeded_wide_layout_case(tmp_path),
                     "--config", CONFIG, "--format", "table", "--out", str(out)])
        assert code == 0
        report = out.read_bytes()
        assert b"81 rules, total weight 7213" in report
        assert hashlib.sha256(report).hexdigest() == PINNED_WIDE_LAYOUT_SHA256

    def test_near_tie_tree_bytes_on_every_python(self, tmp_path, capsys):
        csv_path, config_path = write_case(tmp_path, NEAR_TIE_CSV, NEAR_TIE_VOCABULARIES)
        assert run(capsys, "mine", "--input", csv_path, "--config", config_path,
                   "--tree", "ascii") == (0, NEAR_TIE_REPORT, "")

    def test_quickstart_json_report_bytes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["mine", "--input", CSV, "--config", CONFIG,
                     "--format", "json", "--out", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            PINNED_QUICKSTART_JSON_SHA256)


def run_child(stdout, unbuffered, *argv, **options):
    """``python -m fuzzmine`` with the given standard output, buffered or
    not; returns the child process, started."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "fuzzmine", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env, **options)


# Both subcommands write standard output the same way, buffered or not.
OUTPUT_RUNS = pytest.mark.parametrize(
    "command, unbuffered",
    [("mine", False), ("mine", True), ("validate", False), ("validate", True)],
    ids=["buffered", "unbuffered", "validate-buffered", "validate-unbuffered"])


class TestStandardOutput:
    """A report or listing standard output does not take is an input error
    (exit 2) with one message, whatever the buffering, and never a silent
    exit 0."""

    @OUTPUT_RUNS
    def test_closed_pipe_exits_2(self, command, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        child = run_child(write_end, unbuffered, command,
                          "--input", CSV, "--config", CONFIG)
        os.close(write_end)
        _, err = child.communicate(timeout=60)
        assert child.returncode == 2
        assert err == b"fuzzmine: cannot write standard output: [Errno 32] Broken pipe\n"

    @OUTPUT_RUNS
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_exits_2(self, command, unbuffered):
        with open("/dev/full", "wb") as full:
            child = run_child(full, unbuffered, command,
                              "--input", CSV, "--config", CONFIG)
            _, err = child.communicate(timeout=60)
        assert child.returncode == 2
        assert err == (b"fuzzmine: cannot write standard output: "
                       b"[Errno 28] No space left on device\n")

    @pytest.mark.parametrize("command", ["mine", "validate"])
    @pytest.mark.skipif(os.name != "posix", reason="closes a descriptor in the child")
    def test_closed_standard_output_exits_2(self, command):
        # Started with descriptor 1 closed, Python sets sys.stdout to None.
        child = run_child(None, False, command, "--input", CSV, "--config", CONFIG,
                          preexec_fn=lambda: os.close(1))
        _, err = child.communicate(timeout=60)
        assert child.returncode == 2
        assert err == (b"fuzzmine: cannot write standard output: "
                       b"[Errno 9] Bad file descriptor\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_report_in_many_pieces_reaches_a_pipe_intact(self, tmp_path, unbuffered):
        # The wide-vocab report with its tree is about 52 pieces of 64 KiB;
        # unbuffered, each goes to the pipe's raw FileIO, which may take part.
        csv_path, config_path = write_workload(tmp_path, "wide-vocab", 1)
        child = run_child(subprocess.PIPE, unbuffered, "mine", "--input", csv_path,
                          "--config", config_path, "--format", "json", "--tree", "dot")
        out, err = child.communicate(timeout=120)
        assert (child.returncode, err) == (0, b"")
        pinned = json.loads((REPO_ROOT / "tests" / "validate_listings.json").read_text())
        assert hashlib.sha256(out).hexdigest() == (
            pinned["mine-wide-vocab-1-json-dot"]["stdout_sha256"])

    def test_reader_closing_mid_report_exits_2(self, tmp_path):
        # A report of about 240 KB overfills the pipe; once the reader has
        # taken 10 bytes and gone, an unbuffered write returns short, and the
        # rest must not be dropped silently.
        doc = json.loads(QUICKSTART_CONFIG.read_text())
        for intervals in doc["vocabularies"].values():
            for interval in intervals:
                interval["label"] += "." * 12_000
        config = tmp_path / "long-labels.json"
        config.write_text(json.dumps(doc))
        child = run_child(subprocess.PIPE, True, "mine", "--input", CSV,
                          "--config", str(config))
        assert len(child.stdout.read(10)) == 10
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 2
        assert err == b"fuzzmine: cannot write standard output: [Errno 32] Broken pipe\n"


def traced_peak(argv):
    """``main(argv)``'s exit code and the peak of the memory Python
    allocated while it ran, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        return main(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReportMemory:
    """Every report is written while it is rendered, so ``mine`` never
    holds all of its text or of its bytes, and the tree is drawn from the
    rule set one level at a time, with no document or index of its own. On
    ``wide-vocab`` (a 3.3 MB JSON report) the traced peak is the rule set
    and mining's own working memory, about 0.72 times the report. One more
    copy of the report, as text or as bytes, would take it past 1.7 times."""

    @pytest.fixture(scope="class")
    def argv(self, tmp_path_factory):
        csv_path, config_path = write_workload(tmp_path_factory.mktemp("wide-vocab"),
                                               "wide-vocab", 1)
        return ["mine", "--input", csv_path, "--config", config_path,
                "--format", "json", "--tree", "dot"]

    def test_out_file(self, argv, tmp_path):
        out = tmp_path / "report.json"
        code, peak = traced_peak([*argv, "--out", str(out)])
        assert code == 0
        assert peak < 1.5 * out.stat().st_size

    def test_standard_output(self, argv, capsys):
        code, peak = traced_peak(argv)
        report = capsys.readouterr().out.encode("utf-8")
        assert code == 0
        # capsys keeps every byte written; the CLI does not.
        assert peak - len(report) < 1.5 * len(report)

    def test_text_report_peaks_near_the_json_report(self, argv):
        # The table (505 KB) and the DOT tree peak at about 1.25 times the
        # JSON report with its tree. Held whole as texts, and joined into
        # one more, they took it to 2.3 times.
        json_code, json_peak = traced_peak([*argv, "--out", os.devnull])
        text_code, text_peak = traced_peak([*argv[:5], "--format", "table", "--tree", "dot",
                                            "--out", os.devnull])
        assert json_code == text_code == 0
        assert text_peak <= 2 * json_peak

    def test_text_tree_adds_nothing_to_the_tables_peak(self, argv):
        # The table's cells (3.0 MB traced) peak above the groups the tree
        # holds, so a tree after the table leaves the peak where the table
        # put it. Built as a document of one dict per node, the tree took
        # it to 1.61 times.
        table = [*argv[:5], "--format", "table", "--out", os.devnull]
        tree_code, tree_peak = traced_peak([*table, "--tree", "dot"])
        table_code, table_peak = traced_peak(table)
        assert tree_code == table_code == 0
        assert tree_peak <= 1.1 * table_peak

    def test_json_tree_adds_nothing_to_the_reports_peak(self, argv):
        # The tree holds only the groups on the path it is drawing, below
        # mining's own peak. An index with an entry per rule (0.92 MB
        # traced for 6,445 rules) took it to 1.44 times.
        code, tree_peak = traced_peak([*argv, "--out", os.devnull])
        json_code, json_peak = traced_peak([*argv[:7], "--out", os.devnull])
        assert code == json_code == 0
        assert tree_peak <= 1.1 * json_peak


UMLAUT = "Größe klein"


def umlaut_config(tmp_path, repeat):
    """The quickstart config with "Small Volume" renamed to a non-ASCII
    label, and with that label repeated in trigger1 if ``repeat``."""
    doc = json.loads(QUICKSTART_CONFIG.read_text())
    for intervals in doc["vocabularies"].values():
        for interval in intervals:
            if interval["label"] == "Small Volume":
                interval["label"] = UMLAUT
    if repeat:
        doc["vocabularies"]["trigger1"][1]["label"] = UMLAUT
    path = tmp_path / "umlaut.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    return str(path)


def run_encoded(encoding, *argv):
    """``python -m fuzzmine`` under PYTHONIOENCODING=``encoding``, finished."""
    return subprocess.run([sys.executable, "-m", "fuzzmine", *argv],
                          capture_output=True, timeout=60,
                          env={**os.environ, "PYTHONIOENCODING": encoding})


ENCODINGS = pytest.mark.parametrize("encoding", ["ascii", "latin-1"])


class TestOutputEncoding:
    """Reports and listings are UTF-8 whatever encoding standard output
    declares, so standard output and ``--out`` get the same bytes."""

    @ENCODINGS
    def test_mine_stdout_equals_out_file(self, tmp_path, encoding):
        argv = ["mine", "--input", CSV, "--config", umlaut_config(tmp_path, False),
                "--tree", "ascii"]
        out = tmp_path / "report.txt"
        to_file = run_encoded(encoding, *argv, "--out", str(out))
        to_stdout = run_encoded(encoding, *argv)
        assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
        assert (to_stdout.returncode, to_stdout.stderr) == (0, b"")
        assert to_stdout.stdout == out.read_bytes()
        assert UMLAUT.encode("utf-8") in to_stdout.stdout

    @ENCODINGS
    @pytest.mark.parametrize("repeat, expected_code", [(False, 0), (True, 3)],
                             ids=["unique", "repeated"])
    def test_validate_lists_in_utf8(self, capsys, tmp_path, encoding, repeat,
                                    expected_code):
        argv = ["validate", "--input", CSV, "--config", umlaut_config(tmp_path, repeat)]
        code, listing, _ = run(capsys, *argv)
        child = run_encoded(encoding, *argv)
        assert code == child.returncode == expected_code
        assert child.stdout == listing.encode("utf-8")
        assert (f"duplicate label {UMLAUT!r}" in listing) == repeat

    def test_json_report_has_the_stdlib_encoder_bytes(self, capsys, tmp_path):
        code, out, err = run(capsys, "mine", "--input", CSV, "--config",
                             umlaut_config(tmp_path, False), "--format", "json",
                             "--tree", "ascii")
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert '"Gr\\u00f6\\u00dfe klein"' in out

    def test_unpaired_surrogate_label_is_a_config_error(self, capsys, tmp_path):
        path = tmp_path / "surrogate.json"
        path.write_text(QUICKSTART_CONFIG.read_text().replace(
            '"Large Volume"', '"Large \\ud800"', 1))
        finding = ("error: [interval-label] trigger1[2]: label has an unpaired surrogate, "
                   "got 'Large \\ud800'")
        assert run(capsys, "mine", "--input", CSV, "--config", str(path)) == (
            3, "", f"fuzzmine: invalid configuration in {path}:\n  {finding}\n")
        code, listing, err = run(capsys, "validate", "--config", str(path))
        assert (code, err) == (3, "")
        assert listing.startswith(f"{finding}\n") and listing.count("error") == 1

    @pytest.mark.parametrize("char", ["\n", "\t", "\x00", "\x7f", "\x85"],
                             ids=["newline", "tab", "nul", "del", "nel"])
    def test_control_character_label_is_a_config_error(self, capsys, tmp_path, char):
        # It would split the table row and the tree line that carry it.
        doc = json.loads(QUICKSTART_CONFIG.read_text())
        doc["vocabularies"]["trigger1"][0]["label"] = f"Small{char}Volume"
        path = tmp_path / "control.json"
        path.write_text(json.dumps(doc))
        finding = ("error: [interval-label] trigger1[0]: label has a control character, "
                   f"got {f'Small{char}Volume'!r}")
        assert run(capsys, "mine", "--input", CSV, "--config", str(path),
                   "--tree", "ascii") == (
            3, "", f"fuzzmine: invalid configuration in {path}:\n  {finding}\n")
        code, listing, err = run(capsys, "validate", "--input", CSV, "--config", str(path))
        assert (code, err) == (3, "")
        assert listing.startswith(f"{finding}\n") and listing.count("error") == 1

    def test_non_breaking_space_label_mines(self, capsys, tmp_path):
        # Only control characters are refused, not every non-printable one.
        doc = json.loads(QUICKSTART_CONFIG.read_text())
        doc["vocabularies"]["trigger1"][0]["label"] = "Small\u00a0Volume"
        path = tmp_path / "nbsp.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "mine", "--input", CSV, "--config", str(path))
        assert code == 0
        assert "Small\u00a0Volume" in out

    @pytest.mark.skipif(os.name != "posix", reason="needs a non-UTF-8 file name")
    def test_undecodable_config_path_is_listed_as_its_bytes(self, tmp_path):
        # Python decodes the name with surrogateescape; the listing gives
        # back the bytes it was called with.
        path = os.fsencode(tmp_path) + b"/bad\xff.json"
        child = subprocess.run([sys.executable, "-m", "fuzzmine", "validate",
                                "--config", path], capture_output=True, timeout=60)
        assert child.returncode == 3
        assert child.stderr == b""
        assert child.stdout.startswith(b"error: [config] cannot read config file "
                                       + path + b": ")


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "fuzzmine", "mine",
             "--input", CSV, "--config", CONFIG, "--format", "table"],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0
        assert "4 rules, total weight 3" in result.stdout
