"""Tests for the command-line driver: flags, exit codes, report formats."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from fuzzmine.cli import main

from common import QUICKSTART_CONFIG, QUICKSTART_CSV
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
        class BrokenStdout:
            def write(self, text):
                raise OSError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenStdout())
        code, _, err = run(capsys, "mine", "--input", CSV, "--config", CONFIG)
        assert code == 2
        assert err == "fuzzmine: cannot write standard output: [Errno 32] Broken pipe\n"

    def test_missing_input_exits_2(self, capsys):
        code, out, err = run(capsys, "mine", "--input", "missing.csv",
                             "--config", CONFIG)
        assert code == 2
        assert out == ""
        assert "missing.csv" in err

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
        # b - a overflows: membership() would read nan or 0 inside the ramp.
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

    def test_bad_config_exits_3(self, capsys, tmp_path):
        doc = json.loads(QUICKSTART_CONFIG.read_text())
        doc["vocabularies"]["delta_t"][0]["b"] = -5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--config", str(bad))
        assert code == 3
        assert "error" in out

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
        code, _, err = run(capsys, "validate")
        assert code == 1
        assert "--config" in err


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


def run_child(stdout, unbuffered, *argv):
    """``python -m fuzzmine mine`` with the given standard output, buffered
    or not; returns the child process, started."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "fuzzmine", "mine", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


BUFFERING = pytest.mark.parametrize("unbuffered", [False, True],
                                    ids=["buffered", "unbuffered"])


class TestStandardOutput:
    """A report standard output does not take is an input error (exit 2)
    with one message, whatever the buffering, and never a silent exit 0."""

    @BUFFERING
    def test_closed_pipe_exits_2(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        child = run_child(write_end, unbuffered, "--input", CSV, "--config", CONFIG)
        os.close(write_end)
        _, err = child.communicate(timeout=60)
        assert child.returncode == 2
        assert err == b"fuzzmine: cannot write standard output: [Errno 32] Broken pipe\n"

    @BUFFERING
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_exits_2(self, unbuffered):
        with open("/dev/full", "wb") as full:
            child = run_child(full, unbuffered, "--input", CSV, "--config", CONFIG)
            _, err = child.communicate(timeout=60)
        assert child.returncode == 2
        assert err == (b"fuzzmine: cannot write standard output: "
                       b"[Errno 28] No space left on device\n")

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
        child = run_child(subprocess.PIPE, True, "--input", CSV, "--config", str(config))
        assert len(child.stdout.read(10)) == 10
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 2
        assert err == b"fuzzmine: cannot write standard output: [Errno 32] Broken pipe\n"


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "fuzzmine", "mine",
             "--input", CSV, "--config", CONFIG, "--format", "table"],
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0
        assert "4 rules, total weight 3" in result.stdout
