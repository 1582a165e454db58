import json

import pytest
import yaml
from click.testing import CliRunner

from mobyreg.cli import main


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def test_run_writes_artifacts_and_exits_zero(tmp_path):
    result = invoke("run", "--model", "garay", "--n", "7", "--f", "2",
                    "--rounds", "30", "--seed", "4",
                    "--out-dir", str(tmp_path))
    assert result.exit_code == 0, result.output
    for name in ("trace.jsonl", "history.jsonl", "probe_report.json",
                 "verdicts.json"):
        assert (tmp_path / name).exists()
    verdicts = json.loads((tmp_path / "verdicts.json").read_text())
    assert all(v["passed"] for v in verdicts.values())
    report = json.loads((tmp_path / "probe_report.json").read_text())
    assert report["min_support"] >= 7 - 2 and report["violations"] == []


def test_run_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"model": "bonnet", "n": 9, "f": 2,
                                   "rounds": 20, "seed": 1}))
    result = invoke("run", "--config", str(cfg), "--rounds", "10",
                    "--out-dir", str(tmp_path))
    assert result.exit_code == 0, result.output
    assert "over 10 rounds" in result.output


def test_run_rejects_inadmissible_config(tmp_path):
    result = invoke("run", "--model", "garay", "--n", "6", "--f", "2",
                    "--out-dir", str(tmp_path))
    assert result.exit_code == 2
    assert "configuration error" in result.output


def test_run_scripted_workload(tmp_path):
    wl = tmp_path / "wl.yaml"
    wl.write_text(yaml.safe_dump([
        {"round": 1, "client": 0, "op": "write", "value": "a"},
        {"round": 2, "client": 1, "op": "read"},
    ]))
    result = invoke("run", "--model", "sasaki", "--n", "9", "--f", "2",
                    "--rounds", "5", "--workload", str(wl),
                    "--out-dir", str(tmp_path))
    assert result.exit_code == 0, result.output
    history = [json.loads(line)
               for line in (tmp_path / "history.jsonl").read_text().splitlines()]
    assert [h["kind"] for h in history] == ["write", "read"]
    assert history[1]["result"] == "a"


def test_tightness_exit_codes_and_report(tmp_path):
    out = tmp_path / "demo.json"
    result = invoke("tightness", "--model", "m4", "--report-out", str(out))
    assert result.exit_code == 0, result.output
    assert "protocol failure emitted: yes" in result.output
    report = json.loads(out.read_text())
    assert report["top_two_support"] == [2, 2]


def test_tightness_bad_model_is_config_error():
    assert invoke("tightness", "--model", "nonsense").exit_code == 2


def test_sweep_table_and_exit_code(tmp_path):
    out = tmp_path / "table.tsv"
    result = invoke("sweep", "--models", "garay", "--f-values", "1",
                    "--seeds", "0,1", "--rounds", "30", "--out", str(out))
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0].split("\t")[0] == "model"
    assert len(lines) == 3


def test_sweep_empty_lists_are_config_error():
    assert invoke("sweep", "--seeds", "").exit_code == 2


def test_check_command_roundtrip(tmp_path):
    hist = tmp_path / "h.jsonl"
    records = [
        {"op_id": 0, "client": 0, "kind": "write", "argument": 5,
         "result": "write_confirmation", "invoke_round": 1,
         "response_round": 1, "failed": False},
        {"op_id": 1, "client": 1, "kind": "read", "argument": None,
         "result": 5, "invoke_round": 2, "response_round": 3, "failed": False},
    ]
    hist.write_text("".join(json.dumps(r) + "\n" for r in records))
    result = invoke("check", str(hist))
    assert result.exit_code == 0, result.output

    records[1]["result"] = 7  # never written
    hist.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert invoke("check", str(hist)).exit_code == 1


def assert_config_error(result, *fragments):
    """Exit 2 with a one-line message, and no traceback."""
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("configuration error: ")
    assert result.output.count("\n") == 1, result.output
    for fragment in fragments:
        assert fragment in result.output


def test_run_repeated_written_value_is_config_error(tmp_path):
    wl = tmp_path / "dup.yaml"
    wl.write_text(yaml.safe_dump([
        {"round": 1, "client": 0, "op": "write", "value": 5},
        {"round": 3, "client": 1, "op": "write", "value": 5},
    ]))
    result = invoke("run", "--model", "sasaki", "--n", "9", "--f", "2",
                    "--rounds", "5", "--workload", str(wl),
                    "--out-dir", str(tmp_path))
    assert_config_error(result, "duplicate written value 5")


@pytest.mark.parametrize("spec, fragment", [
    ("random:abc", "'abc' is not a number"),
    ("random:1.5:0.5", "op_rate 1.5 outside [0, 1]"),
    ("random:0.5:-0.1", "read_ratio -0.1 outside [0, 1]"),
])
def test_run_bad_random_workload_is_config_error(tmp_path, spec, fragment):
    result = invoke("run", "--rounds", "5", "--workload", spec,
                    "--out-dir", str(tmp_path))
    assert_config_error(result, fragment)


@pytest.mark.parametrize("text, fragment", [
    ('[{"round": 1, "op": "read"}]', "KeyError: 'client'"),
    ('[{"round": "one", "client": 0, "op": "read"}]', "ValueError"),
    ("[5]", "bad directive 5"),
    ("- {round: 1\n- x", "is not valid YAML"),
])
def test_run_malformed_directives_are_config_error(tmp_path, text, fragment):
    wl = tmp_path / "wl.yaml"
    wl.write_text(text)
    result = invoke("run", "--rounds", "5", "--workload", str(wl),
                    "--out-dir", str(tmp_path))
    assert_config_error(result, fragment)


def test_sweep_out_creates_missing_directories(tmp_path):
    out = tmp_path / "new" / "dir" / "table.tsv"
    result = invoke("sweep", "--models", "buhrman", "--f-values", "1",
                    "--seeds", "0", "--rounds", "10", "--out", str(out))
    assert result.exit_code == 0, result.output
    assert out.read_text().splitlines()[0].startswith("model\t")


@pytest.mark.parametrize("line, fragment", [
    ("{not json", "line 2: not JSON"),
    ('{"op_id": 1, "client": 1}', "line 2: record lacks key 'kind'"),
    ("[1, 2]", "line 2: not a JSON object"),
])
def test_check_malformed_line_is_config_error(tmp_path, line, fragment):
    write = {"op_id": 0, "client": 0, "kind": "write", "argument": 5,
             "result": "write_confirmation", "invoke_round": 1,
             "response_round": 1, "failed": False}
    hist = tmp_path / "h.jsonl"
    hist.write_text(json.dumps(write) + "\n" + line + "\n")
    assert_config_error(invoke("check", str(hist)), fragment)
