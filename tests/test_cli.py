import contextlib
import datetime
import io
import json
import math
import os
import pathlib
import stat
import subprocess
import sys
import tempfile
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import mobyreg
from mobyreg.adversary import STRATEGIES, RandomWalk, SplitVote, make_strategy
from mobyreg.checker import check_all, history_from_records
from mobyreg.cli import _write_artifacts, main
from mobyreg.engine import FAKE_VALUE, MAX_DEMO_F, Directive, RandomWorkload, run
from mobyreg.model import ModelId, lookup, make_config
from mobyreg.protocol import ComputeNote
from oracles import per_server_run, trace_events, trace_line, trace_text


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr together
    exception: BaseException | None


def invoke(*args):
    """Run ``mobyreg *args`` in this process; an uncaught exception exits 1."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            main(list(args))
        except SystemExit as exc:
            return Result(exc.code, out.getvalue(), exc)
        except Exception as exc:
            return Result(1, out.getvalue(), exc)
    return Result(0, out.getvalue(), None)


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
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "bonnet", "n": 9, "f": 2, "rounds": 20, "seed": 1}))
    result = invoke("run", "--config", str(cfg), "--rounds", "10",
                    "--out-dir", str(tmp_path))
    assert result.exit_code == 0, result.output
    assert "over 10 rounds" in result.output


def test_run_rejects_inadmissible_config(tmp_path):
    result = invoke("run", "--model", "garay", "--n", "6", "--f", "2",
                    "--out-dir", str(tmp_path))
    assert result.exit_code == 2
    assert "configuration error" in result.output


def test_run_fault_budget_above_server_count_is_config_error(tmp_path):
    # the random adversary would sample f agents' hosts from n servers
    result = invoke("run", "--n", "2", "--f", "3", "--allow-inadmissible",
                    "--out-dir", str(tmp_path))
    assert_config_error(result, "f must be <= n")
    result = invoke("run", "--n", "2", "--f", "2", "--allow-inadmissible",
                    "--rounds", "5", "--out-dir", str(tmp_path))
    assert result.exit_code == 0, result.output  # f == n is a bound demo


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


@pytest.mark.parametrize("value, written", [
    ("1e3", 1000.0), ('"\\ud83d\\ude00"', "\U0001F600"),
], ids=["exponent", "surrogate-pair"])
def test_run_reads_a_json_workload_as_json(tmp_path, value, written):
    # an exponent makes a float, and a surrogate pair escape one character
    wl = tmp_path / "wl.json"
    wl.write_text('[{"round": 1, "client": 0, "op": "write", "value": %s},'
                  ' {"round": 2, "client": 1, "op": "read"}]' % value)
    result = invoke("run", "--model", "garay", "--n", "7", "--f", "2", "--rounds", "3",
                    "--workload", str(wl), "--out-dir", str(tmp_path))
    assert result.exit_code == 0, result.output
    write, read = [json.loads(line)
                   for line in (tmp_path / "history.jsonl").read_text().splitlines()]
    assert write["argument"] == read["result"] == written
    assert type(write["argument"]) is type(written)


def test_run_scripted_workload(tmp_path):
    wl = tmp_path / "wl.json"
    wl.write_text(json.dumps([
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


@pytest.mark.parametrize("model,adversary", [
    pytest.param(m.value, adversary,
                 id=m.value if adversary == "collude-random" else f"{m.value}-{adversary}")
    for adversary in ("collude-random", "collude-sweep") for m in ModelId])
def test_run_collude_random_fails_at_the_bound_and_passes_above(tmp_path, model, adversary):
    # the agents' one planted value outvotes the honest one at n = alpha*f,
    # never at alpha*f + 1
    alpha = lookup(ModelId.parse(model)).alpha
    args = ("run", "--model", model, "--f", "1", "--rounds", "40",
            "--adversary", adversary, "--out-dir", str(tmp_path))
    result = invoke(*args, "--n", str(alpha + 1))
    assert result.exit_code == 0 and "FAIL" not in result.output, result.output
    result = invoke(*args, "--n", str(alpha), "--allow-inadmissible")
    assert result.exit_code == 0 and ": FAIL" in result.output, result.output


def test_tightness_exit_codes_and_report(tmp_path):
    out = tmp_path / "demo.json"
    result = invoke("tightness", "--model", "m4", "--report-out", str(out))
    assert result.exit_code == 0, result.output
    assert "protocol failure emitted: yes" in result.output
    report = json.loads(out.read_text())
    assert report["top_two_support"] == [2, 2]


def test_tightness_bad_model_is_config_error():
    assert invoke("tightness", "--model", "nonsense").exit_code == 2


def test_tightness_takes_no_seed():
    # the demo's schedule is scripted and its workload fixed: nothing draws
    result = invoke("tightness", "--model", "m3", "--seed", "1")
    assert result.exit_code == 2 and "unrecognized arguments: --seed" in result.output


@pytest.mark.parametrize("args", [
    ["tightness", "--model", "m3", "--seed", "1"],
    ["run", "--n", "abc"],
    ["run", "--round", "5"],
    ["tightness"],
    ["check"],
    ["run", "--config", "missing.json"],
    ["run", "--config", ""],
    ["run", "--model", "--", "--rounds", "2"],
    [],
], ids=["unknown-option", "not-an-integer", "abbreviation", "missing-option",
        "missing-argument", "missing-config-file", "empty-config-path", "lone-dashes-value",
        "no-command"])
def test_usage_error_is_one_stderr_line(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit:
        main(args)
    out, err = capsys.readouterr()
    assert exit.value.code == 2 and out == ""
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err


def test_an_option_value_may_start_with_a_dash(tmp_path):
    result = invoke("sweep", "--models", "garay", "--f-values", "1", "--seeds", "-1,0",
                    "--rounds", "5")
    assert result.exit_code == 0, result.output
    assert [row.split("\t")[3] for row in result.output.splitlines()[1:]] == ["-1", "0"]
    result = invoke("run", "--rounds", "5", "--workload", "-x", "--out-dir", str(tmp_path))
    assert_config_error(result, "workload file -x does not exist")


@pytest.mark.parametrize("args, code", [
    (["--rounds", "5"], 0), (["--n", "2", "--f", "3"], 2),
], ids=["good-run", "fault-budget-above-n"])
def test_the_benchmarks_call_form_ends_in_system_exit(tmp_path, args, code):
    # bench/run.py calls main(args, standalone_mode=False) and reads the exit code
    with pytest.raises(SystemExit) as exit:
        main(["run", *args, "--out-dir", str(tmp_path)], standalone_mode=False)
    assert exit.value.code == code


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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_rows_are_those_of_traced_runs_of_each_cell(jobs, monkeypatch):
    # --jobs 2 runs its cells through the pool, here one in this process
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        lambda max_workers: RecordingPool([], max_workers))
    result = invoke("sweep", "--models", "garay,buhrman", "--f-values", "1,2",
                    "--seeds", "3,0", "--rounds", "40", "--clients", "2", "--jobs", jobs)
    assert result.exit_code == 0, result.output
    rows = []
    for model in ("garay", "buhrman"):
        for f in (1, 2):
            config = make_config(model, lookup(ModelId.parse(model)).alpha * f + 1, f)
            for seed in (3, 0):
                res = run(config, RandomWalk(), RandomWorkload(), rounds=40, seed=seed,
                          n_clients=2)
                verdicts = check_all(history_from_records(res.history),
                                     res.crashed_clients)
                ok = not res.violations and all(v.passed for v in verdicts.values())
                rows.append([model, f, config.n, seed, ok, res.min_support,
                             len(res.violations), len(res.history)])
    assert result.output.splitlines()[1:] == ["\t".join(map(str, row)) for row in rows]


def test_importing_the_cli_loads_neither_click_nor_yaml_nor_a_process_pool():
    code = ("import sys, mobyreg.cli; print(sorted("
            "{'click', 'yaml', 'concurrent.futures', 'dataclasses'} & sys.modules.keys()))")
    src = os.path.dirname(os.path.dirname(mobyreg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_the_package_runs_on_the_standard_library_alone(tmp_path):
    (tmp_path / "c.json").write_text('{"model": "bonnet", "n": 9, "f": 2, "rounds": 20}')
    (tmp_path / "w.json").write_text('[{"round": 1, "client": 0, "op": "write", "value": "a"},'
                                     ' {"round": 3, "client": 1, "op": "read"}]')
    code = ("import sys\n"
            "sys.modules['yaml'] = None\n"  # an import of yaml fails
            "before, codes = set(sys.modules), []\n"
            "from mobyreg.cli import main\n"
            "for args in (['run', '--config', 'c.json', '--workload', 'w.json'],\n"
            "             ['check', 'history.jsonl']):\n"
            "    try:\n"
            "        main(args)\n"
            "    except SystemExit as exc:\n"
            "        codes.append(exc.code)\n"
            "print(codes, sorted({name.partition('.')[0] for name in sys.modules.keys() - before}\n"
            "                    - sys.stdlib_module_names - {'mobyreg'}))\n")
    src = os.path.dirname(os.path.dirname(mobyreg.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         cwd=tmp_path, check=True, capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[0, 0] []", out
    assert "history: 2 operations over 20 rounds" in out


@pytest.mark.parametrize("option, value, message", [
    ("--rounds", "-1", "--rounds must be >= 0, got -1"),
    ("--clients", "0", "--clients: need at least one client, got 0"),
    ("--f-values", "1,-1", "f must be >= 0, got -1"),
    ("--f-values", "99999999999999999999",
     f"--f-values entry 99999999999999999999 is too large: garay's n = 3f + 1 would "
     f"exceed {sys.maxsize}"),
    ("--clients", str(sys.maxsize + 1), f"--clients: need at most {sys.maxsize} clients"),
], ids=["rounds", "clients", "f-values", "f-values-unindexable", "clients-unindexable"])
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
    wl = tmp_path / "dup.json"
    wl.write_text(json.dumps([
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
    ('[{"round": "one", "client": 0, "op": "read"}]', "(round 'one' is not an integer)"),
    ("[5]", "bad directive 5"),
    ('[{"round": 1', ": not valid JSON"),
    ("[{round: 1, client: 0, op: write, value: 1}]", ": not valid JSON"),
    ('[{"round": 1, "client": 0, "op": "write", "value": [1, 2]}]',
     "value must be a scalar"),
    ('[{"round": 1e0, "client": 0, "op": "read"}]', "(round 1.0 is not an integer)"),
    ('[{"round": 1, "client": 0, "op": "read", "value": 5}]',
     "a read directive takes no value, got 5"),
    ("5", "must hold a list of directives"),
    ('[{"round": 1, "client": 0, "op": "write", "value": {"a": 1}}]',
     "value must be a scalar"),
    ('[{"round": 1, "client": 1, "op": "write", "value": "x", "clinet": 2}]',
     "(unknown key 'clinet'; expected one of round, client, op, value)"),
    ('[{"round": 1, "client": 0, "op": "jump"}]', "unknown workload op 'jump'"),
    ('[{"round": 6, "client": 0, "op": "write", "value": 1}]',
     "directive round 6 outside 1..5"),
    ('[{"round": 1, "client": 3, "op": "read"}]', "directive client 3 outside 0..2"),
])
def test_run_malformed_directives_are_config_error(tmp_path, text, fragment):
    wl = tmp_path / "wl.json"
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
    (("tightness", "--model", "garay", "--f", "9999999999999999999"),
     f"--f 9999999999999999999 is too large: a tightness demo lists at most {MAX_DEMO_F}"),
    (("tightness", "--model", "buhrman", "--f", "4611686018427387903"),
     f"--f 4611686018427387903 is too large: a tightness demo lists at most {MAX_DEMO_F}"),
], ids=["tightness-negative", "tightness-zero", "sweep", "run", "tightness-unindexable",
        "tightness-unlistable"])
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
    assert len({ev.round for ev in trace_events(res)}) == rounds
    assert (tmp_path / "trace.jsonl").read_bytes() == trace_text(res).encode()


# text that json escapes: quotes, backslashes, control, non-ASCII and
# non-BMP characters, and the separators U+2028/U+2029
TEXT = st.text(st.sampled_from('"\\\x00\x1f\x7f\n\té☃值\u2028\u2029\U0001f600\U0010ffff')
               | st.characters(), max_size=6)
SCALARS = (TEXT | st.integers() | st.floats() | st.booleans()
           | st.sampled_from([math.nan, math.inf, -math.inf, -0.0,
                              datetime.date(2026, 10, 19)]))
WRITTEN = SCALARS | st.lists(SCALARS, max_size=3).map(tuple)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(WRITTEN, min_size=1, max_size=5))
def test_history_and_op_lines_are_the_per_record_encoding(values):
    # at n = alpha*f a split vote fails client 1's first read; client 2
    # crashes with its read running; client 0 writes the other values later
    assume(values[0] != FAKE_VALUE)
    rounds = 4 + len(values)
    workload = [Directive(1, 0, "write", values[0]), Directive(2, 1, "read"),
                Directive(3, 2, "read"), Directive(4, 2, "crash"), Directive(4, 1, "read"),
                *(Directive(2 + k, 0, "write", v) for k, v in enumerate(values[1:], 1))]

    def make(run):
        return run(make_config("garay", 3, 1), SplitVote(FAKE_VALUE, {1: {0}, 3: {1}}),
                   workload, rounds=rounds, seed=0, n_clients=3, allow_inadmissible=True)

    res = make(run)
    assert any(rec.failed for rec in res.history)
    assert any(rec.response_round is None and not rec.failed for rec in res.history)
    with tempfile.TemporaryDirectory() as out:
        _write_artifacts(res, {}, out, None, None)
        with open(os.path.join(out, "history.jsonl"), encoding="utf-8") as fh:
            history = fh.read().split("\n")
        with open(os.path.join(out, "trace.jsonl"), encoding="utf-8") as fh:
            trace = fh.read().split("\n")
    assert history == [json.dumps(rec.as_dict(), sort_keys=True, default=str)
                       for rec in res.history] + [""]
    assert [line for line in trace[:-1] if json.loads(line)["kind"].startswith("op_")] == [
        trace_line(ev) for ev in make(per_server_run).trace if ev.kind.startswith("op_")]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [
    ("--rounds", "1"),                         # fits the buffer: fails at the close
    ("--rounds", "20", "--trace-messages"),    # a round's write fails
])
def test_run_failed_trace_write_is_config_error(tmp_path, args):
    result = invoke("run", *args, "--trace-out", "/dev/full", "--out-dir", str(tmp_path))
    assert_config_error(result, "cannot write artifacts")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("device, code", [("/dev/null", 0), ("/dev/full", 2)])
def test_run_trace_out_to_a_device_leaves_it_a_device(tmp_path, device, code):
    result = invoke("run", "--rounds", "5", "--trace-out", device, "--out-dir", str(tmp_path))
    assert result.exit_code == code, result.output
    assert stat.S_ISCHR(os.stat(device).st_mode)


def test_run_trace_out_writes_through_a_symlink(tmp_path):
    target, link, out = tmp_path / "target.jsonl", tmp_path / "link.jsonl", tmp_path / "out"
    target.write_text("x" * 100_000)  # longer than the trace
    link.symlink_to(target)
    args = ("run", "--rounds", "5", "--out-dir", str(out))
    assert invoke(*args, "--trace-out", str(link)).exit_code == 0
    assert link.is_symlink()
    assert invoke(*args).exit_code == 0
    assert target.read_bytes() == (out / "trace.jsonl").read_bytes()


def test_run_rewriting_shorter_artifacts_keeps_no_stale_tail(tmp_path):
    def artifacts(out_dir, rounds):
        result = invoke("run", "--rounds", rounds, "--trace-messages", "--out-dir", str(out_dir))
        assert result.exit_code == 0, result.output
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    longer = artifacts(tmp_path / "out", "20")
    shorter = artifacts(tmp_path / "out", "2")
    assert shorter == artifacts(tmp_path / "fresh", "2")
    assert len(shorter["trace.jsonl"]) < len(longer["trace.jsonl"])
    assert len(shorter["history.jsonl"]) < len(longer["history.jsonl"])


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
    (["run", "--workload", "."], "cannot read JSON file"),
    (["run", "--config", "."], "cannot read JSON file"),
])
def test_unreadable_or_unwritable_path_is_config_error(tmp_path, monkeypatch,
                                                       args, fragment):
    # "." is an existing directory; "file" is an existing file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    assert_config_error(invoke(*args), fragment)


@pytest.mark.parametrize("line, fragment", [
    pytest.param("{not json", "line 2: not valid JSON", id="{not json-line 2: not JSON"),
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
    # each id names the key and value that a row sets
    pytest.param('{"n": [1]}', "n [1] is not an integer", id="n: [1]-n [1] is not an integer"),
    pytest.param('{"rounds": "abc"}', "rounds 'abc' is not an integer",
                 id="rounds: abc-rounds 'abc' is not an integer"),
    pytest.param('{"model": 5}', "model 5 is not a string", id="model: 5-model 5 is not a string"),
    ('{"round": 1', ": not valid JSON"),
    pytest.param('{"rounds": -1}', "rounds must be >= 0, got -1",
                 id="rounds: -1-rounds must be >= 0, got -1"),
    pytest.param('{"clients": 0}', "need at least one client, got 0",
                 id="clients: 0-need at least one client, got 0"),
    pytest.param('[{"model": "garay"}, {"n": 7}]', "must hold a mapping",
                 id="- model: garay\n- n: 7-must hold a mapping"),
    pytest.param("[" * 10_000, "nests too deeply", id="deep-nesting"),
])
def test_run_mistyped_config_file_is_config_error(tmp_path, text, fragment):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    result = invoke("run", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert_config_error(result, fragment)


def test_check_deeply_nested_line_is_config_error(tmp_path):
    hist = tmp_path / "h.jsonl"
    hist.write_text(json.dumps(WRITE_RECORD) + "\n" + "[" * 100_000 + "\n")
    assert_config_error(invoke("check", str(hist)), "line 2: nests too deeply")


# an input of each kind that runs, with %s for one of its values
INPUTS = {
    "config": '{"rounds": 5, "seed": %s}',
    "directives": '[{"round": 1, "client": 0, "op": "write", "value": %s}]',
    "history": json.dumps({**WRITE_RECORD, "argument": "%s"}).replace('"%s"', "%s"),
}
COMMANDS = {"config": ("run", "--config"), "directives": ("run", "--rounds", "5", "--workload"),
            "history": ("check",)}


@pytest.mark.parametrize("kind", sorted(INPUTS))
@pytest.mark.parametrize("value, reason", [
    pytest.param("1", None, id="finite"),
    *(pytest.param(v, f"not valid JSON ({v} is not a finite number)", id=v)
      for v in ("NaN", "Infinity", "-Infinity", "1e400", "-1e400")),
    pytest.param("[" * 10_000, "nests too deeply", id="deep-nesting"),
    pytest.param(None, "not valid JSON (Expecting property name", id="yaml-only"),
])
def test_input_that_is_not_strict_json_is_config_error(tmp_path, kind, value, reason):
    # the yaml-only input is the one that runs with its quotes dropped: a
    # YAML flow mapping
    text = INPUTS[kind].replace('"', "") % 1 if value is None else INPUTS[kind] % value
    path = tmp_path / "input"
    path.write_text(text + "\n")
    result = invoke(*COMMANDS[kind], str(path),
                    *(("--out-dir", str(tmp_path / "out")) if kind != "history" else ()))
    if reason is None:
        assert result.exit_code == 0, result.output
    else:
        where = f"{path} line 1" if kind == "history" else str(path)
        assert_config_error(result, f"{where}: {reason}")


def test_run_missing_workload_file_is_config_error(tmp_path):
    missing = tmp_path / "missing.json"
    result = invoke("run", "--rounds", "5", "--workload", str(missing),
                    "--out-dir", str(tmp_path))
    assert_config_error(result, f"workload file {missing} does not exist")


@pytest.mark.parametrize("text, fragment", [
    # each id names the key and value that a row sets
    pytest.param('{"n": 7.9}', "n 7.9 is not an integer", id="n: 7.9-n 7.9 is not an integer"),
    pytest.param('{"rounds": true}', "rounds True is not an integer",
                 id="rounds: true-rounds True is not an integer"),
    pytest.param('{"clients": 2.0}', "clients 2.0 is not an integer",
                 id="clients: 2.0-clients 2.0 is not an integer"),
    pytest.param('{"seed": false}', "seed False is not an integer",
                 id="seed: false-seed False is not an integer"),
])
def test_run_config_integers_are_not_truncated(tmp_path, text, fragment):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    result = invoke("run", "--config", str(cfg), "--out-dir", str(tmp_path))
    assert_config_error(result, fragment)


@pytest.mark.parametrize("text, flag, fragment", [
    ('{"n": 2.0}', ["--n", "9"], "n 2.0 is not an integer"),
    ('{"seed": "abc"}', ["--seed", "1"], "seed 'abc' is not an integer"),
], ids=["n", "seed"])
def test_a_flag_does_not_hide_a_bad_config_integer(tmp_path, capsys, text, flag, fragment):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exit:
        main(["run", "--config", str(cfg), *flag, "--rounds", "3", "--out-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert exit.value.code == 2 and out == ""
    assert err == f"configuration error: config file {cfg}: {fragment}\n"


@pytest.mark.parametrize("key, value", [
    ("round", 1.9), ("round", True), ("client", 0.5), ("client", False),
])
def test_run_directive_integers_are_not_truncated(tmp_path, key, value):
    directive = {"round": 1, "client": 0, "op": "write", "value": 5, key: value}
    wl = tmp_path / "wl.json"
    wl.write_text(json.dumps([directive]))
    result = invoke("run", "--rounds", "5", "--workload", str(wl),
                    "--out-dir", str(tmp_path))
    assert_config_error(result, f"{key} {value!r} is not an integer")


def test_run_integer_strings_still_count_as_integers(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"rounds": "5"}\n')
    wl = tmp_path / "wl.json"
    wl.write_text('[{"round": "1", "client": "0", "op": "write", "value": 5}]')
    result = invoke("run", "--config", str(cfg), "--workload", str(wl),
                    "--out-dir", str(tmp_path))
    assert result.exit_code == 0, result.output
    assert "1 operations over 5 rounds" in result.output


@pytest.mark.parametrize("value", ['"false"', "0", "1", "null", "[]"])
def test_run_non_boolean_allow_inadmissible_is_config_error(tmp_path, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"allow_inadmissible": {value}}}\n')
    result = invoke("run", "--config", str(cfg), "--n", "6", "--rounds", "5",
                    "--out-dir", str(tmp_path))
    assert_config_error(result, "allow_inadmissible", "is not a boolean")


def test_run_boolean_allow_inadmissible_still_runs_the_bound(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"allow_inadmissible": true}\n')
    result = invoke("run", "--config", str(cfg), "--n", "6", "--rounds", "5",
                    "--out-dir", str(tmp_path))
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("text, key", [
    # each id names the keys and values that a row sets
    pytest.param('{"round": 5}', "'round'", id="round: 5-'round'"),
    pytest.param('{"model": "sasaki", "nodes": 9}', "'nodes'",
                 id="model: sasaki\nnodes: 9-'nodes'"),
    pytest.param('{"1": 2}', "'1'", id="1: 2-1"),
])
def test_run_unknown_config_key_is_config_error(tmp_path, text, key):
    cfg = tmp_path / "cfg.json"
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


def fresh_path(directory, name):
    """``name`` in a new directory under ``directory``: a fuzzer's examples share
    one ``tmp_path``, and on ext4 rewriting a file waits for the flush of what
    it held."""
    return pathlib.Path(tempfile.mkdtemp(dir=directory)) / name


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=HISTORY_LINES)
def test_check_never_ends_in_a_traceback(tmp_path, lines):
    hist = fresh_path(tmp_path, "h.jsonl")
    hist.write_text("".join(line.replace("\n", " ") + "\n" for line in lines))
    result = invoke("check", str(hist))
    assert result.exit_code in (0, 1, 2), result.output
    assert isinstance(result.exception, (SystemExit, type(None))), repr(result.exception)
    assert "Traceback" not in result.output


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=st.sampled_from([m.value for m in ModelId]), n=st.integers(-1, 6),
       f=st.integers(-1, 5), rounds=st.integers(-1, 4), clients=st.integers(-1, 3),
       adversary=st.sampled_from(sorted(STRATEGIES)),
       flags=st.sets(st.sampled_from(["--allow-inadmissible", "--trace-messages"])))
@example(model="garay", n=2, f=3, rounds=4, clients=3, adversary="random",
         flags={"--allow-inadmissible"})
# sizes no list or range can index (never a large indexable one: it allocates)
@example(model="garay", n=sys.maxsize + 1, f=1, rounds=4, clients=3, adversary="random",
         flags=set())
@example(model="garay", n=7, f=2, rounds=4, clients=sys.maxsize + 1, adversary="random",
         flags=set())
def test_run_never_ends_in_a_traceback(tmp_path, model, n, f, rounds, clients,
                                       adversary, flags):
    result = invoke("run", "--model", model, "--n", str(n), "--f", str(f),
                    "--rounds", str(rounds), "--clients", str(clients),
                    "--adversary", adversary, *sorted(flags), "--out-dir", str(tmp_path))
    assert result.exit_code in (0, 1, 2), result.output
    assert isinstance(result.exception, (SystemExit, type(None))), repr(result.exception)
    assert "Traceback" not in result.output


SWEEP_OPTIONS = ["--models", "--f-values", "--seeds", "--rounds", "--clients", "--jobs"]


# a valid sweep, with at most one option given again as text that may be bad
@settings(max_examples=100, deadline=None)
@given(models=st.lists(st.sampled_from([m.value for m in ModelId] + ["m2", " M4"]),
                       min_size=1, max_size=3),
       f_values=st.lists(st.integers(0, 3), min_size=1, max_size=3),
       seeds=st.lists(st.integers(-1, 5), min_size=1, max_size=3),
       rounds=st.integers(0, 4), clients=st.integers(1, 3), jobs=st.integers(1, 2),
       bad=st.none() | st.tuples(st.sampled_from(SWEEP_OPTIONS), st.sampled_from(
           ["", " ", ",", "x", "1.5", "-1", "0", "True", "1,,x", "garay,x"])))
def test_sweep_never_ends_in_a_traceback(models, f_values, seeds, rounds, clients, jobs,
                                         bad):
    result = invoke("sweep", "--models", ",".join(models),
                    "--f-values", ",".join(map(str, f_values)),
                    "--seeds", ",".join(map(str, seeds)), "--rounds", str(rounds),
                    "--clients", str(clients), "--jobs", str(jobs), *(bad or ()))
    assert result.exit_code in (0, 1, 2), result.output
    assert isinstance(result.exception, (SystemExit, type(None))), repr(result.exception)
    assert "Traceback" not in result.output


# small integers, their strings, and values that no integer field takes
INTS = (st.integers(0, 9) | st.integers(0, 9).map(str)
        | st.sampled_from([-1, 2.0, 2.5, True, None, "x", "", [1], {"a": 1}]))
CONFIG_VALUES = {
    "model": st.sampled_from(["garay", "m2", " Sasaki", "buhrman", "nonsense", "", 5, None]),
    "n": INTS, "f": INTS, "rounds": INTS, "seed": INTS, "clients": INTS,
    "workload": st.sampled_from(["random", "random:0.5:0.5", "random:x", "random:1:0:1", 3]),
    "adversary": st.sampled_from([*STRATEGIES, " Sweep", "nonsense", [], None]),
    "allow_inadmissible": st.sampled_from([True, False, "true", 1, None]),
}
# the flags that a config key stands for, with text a flag may carry
RUN_FLAGS = {
    "--model": st.sampled_from(["garay", "m3", "bonnet", "--", "nonsense", ""]),
    **{flag: st.sampled_from([*map(str, range(10)), "-1", "x", "2.0", "", "--"])
       for flag in ("--n", "--f", "--rounds", "--seed", "--clients")},
    "--workload": st.sampled_from(["random", "random:0.2:0.9", "random:-1"]),
    "--adversary": st.sampled_from([*STRATEGIES, "nonsense"]),
    "--allow-inadmissible": st.none(),
}


def assert_no_traceback(result):
    assert result.exit_code in (0, 1, 2), result.output
    assert isinstance(result.exception, (SystemExit, type(None))), repr(result.exception)
    assert "Traceback" not in result.output


def as_flags(options):
    """Command-line arguments for a mapping of flag to value (None for a flag alone)."""
    return [arg for flag, value in options.items()
            for arg in ((flag,) if value is None else (flag, value))]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=st.fixed_dictionaries({}, optional=CONFIG_VALUES),
       flags=st.fixed_dictionaries({}, optional=RUN_FLAGS))
# keys that a flag default other than None would override
@example(config={"rounds": 3, "n": 9, "model": "bonnet"}, flags={"--f": "2"})
@example(config={"model": "m2"}, flags={})  # bonnet needs n > 4f
@example(config={"allow_inadmissible": True, "n": 6}, flags={})
@example(config={"workload": "random:0.5:0.5"}, flags={})
def test_run_config_file_never_ends_in_a_traceback(tmp_path, config, flags):
    # a key means what its flag means, and a flag given wins over the key
    config.setdefault("rounds", 4)
    cfg = fresh_path(tmp_path, "cfg.json")
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    result = invoke("run", "--config", str(cfg), *as_flags(flags), "--out-dir", str(out))
    assert_no_traceback(result)
    if str(cfg) in result.output:  # the file is malformed, whatever the flags
        return
    history = (out / "history.jsonl").read_bytes() if result.exit_code != 2 else None
    keys = {f"--{key.replace('_', '-')}": None if value is True else str(value)
            for key, value in config.items() if value is not False}
    again = invoke("run", *as_flags({**keys, **flags}), "--out-dir", str(out))
    assert again.exit_code == result.exit_code, again.output
    if history is not None:  # an error's message names a key or a flag
        assert again.output == result.output
        assert (out / "history.jsonl").read_bytes() == history


# a directive that often fits a run of 4 or more rounds and 3 clients, or not
DIRECTIVE = st.fixed_dictionaries(
    {"round": st.integers(1, 4) | INTS, "client": st.integers(0, 2) | INTS,
     "op": st.sampled_from(["write", "read", "crash", "jump", 1, None])},
    optional={"value": SCALARS | st.lists(st.integers(), max_size=2) | st.just({"a": 1})})
DIRECTIVES = (st.lists(DIRECTIVE, max_size=4)
              | st.lists(DIRECTIVE | st.sampled_from([5, "x", [1], None]), max_size=4)
              | st.sampled_from([5, "x", {"round": 1}, None]))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(directives=DIRECTIVES, flags=st.fixed_dictionaries({}, optional={
           "--rounds": st.integers(0, 6).map(str), "--clients": st.integers(1, 3).map(str),
           "--seed": st.integers(0, 9).map(str),
           "--adversary": st.sampled_from(sorted(STRATEGIES)),
           "--allow-inadmissible": st.none()}))
def test_run_directives_file_never_ends_in_a_traceback(tmp_path, directives, flags):
    wl = fresh_path(tmp_path, "wl.json")
    try:
        wl.write_text(json.dumps(directives))
    except TypeError:  # a value that JSON cannot hold, such as a date
        assume(False)
    result = invoke("run", "--workload", str(wl), *as_flags(flags),
                    "--out-dir", str(tmp_path / "out"))
    assert_no_traceback(result)
