import json
import os

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mobyreg.adversary import make_strategy
from mobyreg.cli import main
from mobyreg.engine import RandomWorkload, run
from mobyreg.model import make_config
from mobyreg.protocol import ComputeNote
from oracles import trace_text


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


def test_run_exits_one_when_a_property_fails(tmp_path, monkeypatch):
    # servers that adopt nothing keep every passing agent's corruption, so the
    # agreement probe fails from round 2 on, and so does termination
    monkeypatch.setattr("mobyreg.engine.server_compute",
                        lambda writes, echo_counts, s: ComputeNote())
    result = invoke("run", "--model", "garay", "--n", "7", "--f", "2",
                    "--rounds", "30", "--seed", "0", "--out-dir", str(tmp_path))
    assert result.exit_code == 1, result.output
    lines = result.output.splitlines()
    assert "termination: FAIL" in lines
    assert "agreement probe: FAIL (29 rounds)" in lines
    report = json.loads((tmp_path / "probe_report.json").read_text())
    assert len(report["violations"]) == 29
    assert {(v["kind"], v["required"]) for v in report["violations"]} == {
        ("agreement_probe", 5)}


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_is_config_error(jobs, monkeypatch):
    cells = []
    monkeypatch.setattr("mobyreg.cli._sweep_cell", cells.append)
    result = invoke("sweep", "--models", "garay", "--f-values", "1", "--seeds", "0",
                    "--rounds", "5", "--jobs", jobs)
    assert_config_error(result, f"--jobs must be >= 1, got {jobs}")
    assert cells == []


class RecordingPool:
    """An executor that records its size and runs every cell in this process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, seeds, workers", [
    ("64", "0,1", [2]), ("3", "0,1,2,3", [3]), ("8", "0", []),
], ids=["more-jobs-than-cells", "fewer-jobs-than-cells", "one-cell"])
def test_sweep_pool_has_no_more_workers_than_cells(jobs, seeds, workers, monkeypatch):
    sizes = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(sizes, max_workers))
    result = invoke("sweep", "--models", "buhrman", "--f-values", "1", "--seeds", seeds,
                    "--rounds", "5", "--jobs", jobs)
    assert result.exit_code == 0, result.output
    assert sizes == workers
    assert len(result.output.splitlines()) == 1 + len(seeds.split(","))


@pytest.mark.parametrize("option, value, message", [
    ("--rounds", "-1", "--rounds must be >= 0, got -1"),
    ("--clients", "0", "--clients: need at least one client, got 0"),
    ("--f-values", "1,-1", "f must be >= 0, got -1"),
], ids=["rounds", "clients", "f-values"])
def test_sweep_bad_cell_option_fails_before_any_cell_or_worker(option, value, message,
                                                               monkeypatch):
    cells, sizes = [], []
    monkeypatch.setattr("mobyreg.cli._sweep_cell", cells.append)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(sizes, max_workers))
    result = invoke("sweep", "--models", "garay", "--f-values", "1", "--seeds", "0,1",
                    "--rounds", "5", "--jobs", "2", option, value)
    assert_config_error(result, message)
    assert cells == [] and sizes == []


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
    ("random:0.5:0.5:9", "'random:0.5:0.5:9' is not random[:rate[:read_ratio]]"),
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
    ('[{"round": 1, "client": 0, "op": "write", "value": [1, 2]}]',
     "value must be a scalar"),
    ('[{"round": .inf, "client": 0, "op": "read"}]', "OverflowError"),
    ('[{"round": 1, "client": 0, "op": "read", "value": 5}]',
     "a read directive takes no value, got 5"),
    ("5", "must hold a list of directives"),
    ("[{round: 1, client: 0, op: write, value: !!set {a}}]", "value must be a scalar"),
    ('[{"round": 1, "client": 0, "op": "jump"}]', "unknown workload op 'jump'"),
    ('[{"round": 6, "client": 0, "op": "write", "value": 1}]',
     "directive round 6 outside 1..5"),
    ('[{"round": 1, "client": 3, "op": "read"}]', "directive client 3 outside 0..2"),
])
def test_run_malformed_directives_are_config_error(tmp_path, text, fragment):
    wl = tmp_path / "wl.yaml"
    wl.write_text(text)
    result = invoke("run", "--rounds", "5", "--workload", str(wl),
                    "--out-dir", str(tmp_path))
    assert_config_error(result, fragment)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("option, value, fragment", [
    ("--rounds", "-1", "rounds must be >= 0, got -1"),
    ("--clients", "0", "need at least one client, got 0"),
    ("--f-values", "1,x", "--f-values entry 'x' is not an integer"),
], ids=["rounds", "clients", "f-values"])
def test_sweep_bad_cell_option_is_config_error(option, value, fragment, jobs):
    result = invoke("sweep", "--models", "garay,buhrman", "--f-values", "1",
                    "--seeds", "0,1", "--rounds", "5", "--jobs", jobs, option, value)
    assert_config_error(result, fragment)


@pytest.mark.parametrize("args, fragment", [
    (("tightness", "--model", "garay", "--f", "-1"), "needs f >= 1, got f=-1"),
    (("tightness", "--model", "buhrman", "--f", "0"), "needs f >= 1, got f=0"),
    (("sweep", "--models", "garay", "--f-values", "-1", "--seeds", "0", "--rounds", "5"),
     "f must be >= 0, got -1"),
    (("run", "--n", "0", "--f", "-1", "--rounds", "5"), "f must be >= 0, got -1"),
], ids=["tightness-negative", "tightness-zero", "sweep", "run"])
def test_bad_fault_budget_is_named_not_a_derived_n(tmp_path, args, fragment):
    result = invoke(*args, *(("--out-dir", str(tmp_path)) if args[0] == "run" else ()))
    assert_config_error(result, fragment)
    assert "n must be" not in result.output


def test_sweep_out_creates_missing_directories(tmp_path):
    out = tmp_path / "new" / "dir" / "table.tsv"
    result = invoke("sweep", "--models", "buhrman", "--f-values", "1",
                    "--seeds", "0", "--rounds", "10", "--out", str(out))
    assert result.exit_code == 0, result.output
    assert out.read_text().splitlines()[0].startswith("model\t")


def test_run_artifact_paths_in_missing_directories_are_created(tmp_path):
    trace = tmp_path / "new" / "trace.jsonl"
    report = tmp_path / "other" / "dir" / "verdicts.json"
    result = invoke("run", "--rounds", "5", "--out-dir", str(tmp_path / "out"),
                    "--trace-out", str(trace), "--report-out", str(report))
    assert result.exit_code == 0, result.output
    assert trace.read_text().endswith("\n")
    assert set(json.loads(report.read_text())) == {"termination", "validity", "ordering"}


@pytest.mark.parametrize("option, target", [
    ("--out-dir", "file"),                # an existing file
    ("--trace-out", "file/trace.jsonl"),  # a parent that is a file
    ("--report-out", "."),                # an existing directory
])
def test_run_unwritable_artifact_path_is_config_error(tmp_path, option, target):
    (tmp_path / "file").write_text("")
    args = ["run", "--rounds", "5", option, str(tmp_path / target)]
    if option != "--out-dir":
        args += ["--out-dir", str(tmp_path / "out")]
    result = invoke(*args)
    assert_config_error(result, "cannot write artifacts")


@pytest.mark.parametrize("rounds", [12, 0])
def test_run_trace_on_disk_is_the_rendered_trace(tmp_path, rounds):
    result = invoke("run", "--model", "bonnet", "--n", "9", "--f", "2",
                    "--rounds", str(rounds), "--seed", "3", "--clients", "4",
                    "--workload", "random:0.5:0.8", "--trace-messages",
                    "--out-dir", str(tmp_path))
    assert result.exit_code == 0, result.output
    res = run(make_config("bonnet", 9, 2), make_strategy("random"),
              RandomWorkload(0.5, 0.8), rounds=rounds, seed=3, n_clients=4,
              record_messages=True)
    assert len({ev.round for ev in res.trace}) == rounds
    assert (tmp_path / "trace.jsonl").read_bytes() == trace_text(res).encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [
    ("--rounds", "1"),                         # fits the buffer: fails at the close
    ("--rounds", "20", "--trace-messages"),    # a round's write fails
])
def test_run_failed_trace_write_is_config_error(tmp_path, args):
    result = invoke("run", *args, "--trace-out", "/dev/full", "--out-dir", str(tmp_path))
    assert_config_error(result, "cannot write artifacts")


def test_tightness_report_in_missing_directories_is_created(tmp_path):
    report = tmp_path / "new" / "dir" / "r.json"
    result = invoke("tightness", "--model", "garay", "--f", "1",
                    "--report-out", str(report))
    assert result.exit_code == 0, result.output
    assert json.loads(report.read_text())["failure_emitted"] is True


@pytest.mark.parametrize("args, fragment", [
    (["check", "."], "cannot read history"),
    (["sweep", "--models", "buhrman", "--f-values", "1", "--seeds", "0",
      "--rounds", "5", "--out", "."], "cannot write table"),
    (["tightness", "--model", "garay", "--f", "1", "--report-out", "."],
     "cannot write report"),
    (["tightness", "--model", "garay", "--f", "1", "--report-out", "file/r.json"],
     "cannot write report"),
    (["run", "--workload", "."], "cannot read YAML file"),
    (["run", "--config", "."], "cannot read YAML file"),
])
def test_unreadable_or_unwritable_path_is_config_error(tmp_path, monkeypatch,
                                                       args, fragment):
    # "." is an existing directory; "file" is an existing file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    assert_config_error(invoke(*args), fragment)


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


WRITE_RECORD = {"op_id": 0, "client": 0, "kind": "write", "argument": 5,
                "result": "write_confirmation", "invoke_round": 1,
                "response_round": 1, "failed": False}
READ_RECORD = {"op_id": 1, "client": 1, "kind": "read", "argument": None,
               "result": 5, "invoke_round": 2, "response_round": 3, "failed": False}


@pytest.mark.parametrize("field, value, fragment", [
    ("write.argument", [1, 2], "line 1: argument [1, 2] is not a scalar"),
    ("read.result", {"a": 1}, "line 2: result {'a': 1} is not a scalar"),
    ("write.invoke_round", "1", "line 1: invoke_round '1' is not an integer"),
    ("read.response_round", 2.5, "line 2: response_round 2.5 is not an integer"),
    ("read.client", [1], "line 2: client [1] is not an integer"),
    ("read.kind", "scan", "line 2: kind 'scan' is neither"),
    ("read.response_round", 1, "line 2: response_round 1 is before invoke_round 2"),
    ("read.failed", "yes", "line 2: failed 'yes' is not a boolean"),
    ("write.argument", None, "line 1: a write's argument is null"),
])
def test_check_mistyped_field_is_config_error(tmp_path, field, value, fragment):
    records = {"write": dict(WRITE_RECORD), "read": dict(READ_RECORD)}
    which, key = field.split(".")
    records[which][key] = value
    hist = tmp_path / "h.jsonl"
    hist.write_text("".join(json.dumps(r) + "\n" for r in records.values()))
    assert_config_error(invoke("check", str(hist)), fragment)


def test_check_bad_crashed_ids_and_bad_bytes_are_config_error(tmp_path):
    hist = tmp_path / "h.jsonl"
    hist.write_text(json.dumps(WRITE_RECORD) + "\n")
    assert_config_error(invoke("check", str(hist), "--crashed", "0,x"),
                        "--crashed id 'x' is not an integer")
    hist.write_bytes(b'{"op_id": "\xff"}\n')
    assert_config_error(invoke("check", str(hist)), "is not UTF-8 text")


@pytest.mark.parametrize("text, fragment", [
    ("n: [1]", "n [1] is not an integer"),
    ("rounds: abc", "rounds 'abc' is not an integer"),
    ("model: 5", "model 5 is not a string"),
    ("- {round: 1\n- x", "is not valid YAML"),
    ("rounds: -1", "rounds must be >= 0, got -1"),
    ("clients: 0", "need at least one client, got 0"),
    ("- model: garay\n- n: 7", "must hold a mapping"),
])
def test_run_mistyped_config_file_is_config_error(tmp_path, text, fragment):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    result = invoke("run", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert_config_error(result, fragment)


def test_run_missing_workload_file_is_config_error(tmp_path):
    missing = tmp_path / "missing.yaml"
    result = invoke("run", "--rounds", "5", "--workload", str(missing),
                    "--out-dir", str(tmp_path))
    assert_config_error(result, f"workload file {missing} does not exist")


@pytest.mark.parametrize("text, fragment", [
    ("n: 7.9", "n 7.9 is not an integer"),
    ("rounds: true", "rounds True is not an integer"),
    ("clients: 2.0", "clients 2.0 is not an integer"),
    ("seed: false", "seed False is not an integer"),
])
def test_run_config_integers_are_not_truncated(tmp_path, text, fragment):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    result = invoke("run", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert_config_error(result, fragment)


@pytest.mark.parametrize("key, value", [
    ("round", 1.9), ("round", True), ("client", 0.5), ("client", False),
])
def test_run_directive_integers_are_not_truncated(tmp_path, key, value):
    directive = {"round": 1, "client": 0, "op": "write", "value": 5, key: value}
    wl = tmp_path / "wl.yaml"
    wl.write_text(yaml.safe_dump([directive]))
    result = invoke("run", "--rounds", "5", "--workload", str(wl),
                    "--out-dir", str(tmp_path))
    assert_config_error(result, f"{key} {value!r} is not an integer")


def test_run_integer_strings_still_count_as_integers(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text('rounds: "5"\n')
    wl = tmp_path / "wl.yaml"
    wl.write_text('[{"round": "1", "client": "0", "op": "write", "value": 5}]')
    result = invoke("run", "--config", str(cfg), "--workload", str(wl),
                    "--out-dir", str(tmp_path))
    assert result.exit_code == 0, result.output
    assert "1 operations over 5 rounds" in result.output


@pytest.mark.parametrize("value", ['"false"', "0", "1", "null", "[]"])
def test_run_non_boolean_allow_inadmissible_is_config_error(tmp_path, value):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"allow_inadmissible: {value}\n")
    result = invoke("run", "--config", str(cfg), "--n", "6", "--rounds", "5",
                    "--out-dir", str(tmp_path))
    assert_config_error(result, "allow_inadmissible", "is not a boolean")


def test_run_boolean_allow_inadmissible_still_runs_the_bound(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("allow_inadmissible: true\n")
    result = invoke("run", "--config", str(cfg), "--n", "6", "--rounds", "5",
                    "--out-dir", str(tmp_path))
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("text, key", [
    ("round: 5", "'round'"),
    ("model: sasaki\nnodes: 9", "'nodes'"),
    ("1: 2", "1"),
])
def test_run_unknown_config_key_is_config_error(tmp_path, text, key):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    result = invoke("run", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert_config_error(result, f"unknown key {key};")


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.sampled_from(["write", "read", "x"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
# a valid record with some fields replaced by arbitrary JSON and some removed
RECORDS = st.builds(
    lambda base, changes, dropped: {k: v for k, v in {**base, **changes}.items()
                                    if k not in dropped},
    st.sampled_from([WRITE_RECORD, READ_RECORD]),
    st.dictionaries(st.sampled_from(sorted(WRITE_RECORD)), JSON, max_size=3),
    st.sets(st.sampled_from(sorted(WRITE_RECORD)), max_size=2))
HISTORY_LINES = st.lists(
    RECORDS.map(json.dumps) | JSON.map(json.dumps) | st.text(max_size=8), max_size=4)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=HISTORY_LINES)
def test_check_never_ends_in_a_traceback(tmp_path, lines):
    hist = tmp_path / "h.jsonl"
    hist.write_text("".join(line.replace("\n", " ") + "\n" for line in lines))
    result = invoke("check", str(hist))
    assert result.exit_code in (0, 1, 2), result.output
    assert isinstance(result.exception, (SystemExit, type(None))), repr(result.exception)
    assert "Traceback" not in result.output
