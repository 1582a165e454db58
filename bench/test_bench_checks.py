"""The benchmark's independent checks accept real artifacts and reject planted faults.

    PYTHONPATH=src python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

import checks
from workloads import ALPHA, Workload

N, F = 9, 2
SMALL = Workload("small", "run", (), "bonnet", N, F, messages=True)


@pytest.fixture
def artifacts(tmp_path):
    """A real bonnet run with per-message trace events."""
    from mobyreg import cli
    args = ["run", "--model", "bonnet", "--n", str(N), "--f", str(F), "--clients", "4",
            "--workload", "random:0.6:0.5", "--rounds", "40", "--seed", "3",
            "--trace-messages", "--out-dir", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exit:
        cli.main(args, standalone_mode=False)
    assert exit.value.code == 0
    return tmp_path


def rewrite_history(path, edit):
    history = checks.read_jsonl(path / "history.jsonl")
    edit(history)
    (path / "history.jsonl").write_text("".join(json.dumps(op) + "\n" for op in history))


def test_real_run_passes_every_check(artifacts):
    faults, history = checks.run_faults(artifacts, SMALL)
    assert faults == []
    assert len(history) > 20


def test_stale_read_is_rejected(artifacts):
    def plant(history):
        writes = [op for op in history if op["kind"] == "write"]
        for r in (op for op in history if op["kind"] == "read"):
            for w in writes:
                if any(w["response_round"] < w2["invoke_round"]
                       and w2["response_round"] < r["invoke_round"] for w2 in writes):
                    r["result"] = w["argument"]
                    return
        raise AssertionError("no read with an overwritten earlier write")

    rewrite_history(artifacts, plant)
    faults, _ = checks.run_faults(artifacts, SMALL)
    assert any("overwritten" in fault for fault in faults)


def test_one_round_read_is_rejected(artifacts):
    def plant(history):
        read = next(op for op in history if op["kind"] == "read")
        read["response_round"] = read["invoke_round"]

    rewrite_history(artifacts, plant)
    faults, _ = checks.run_faults(artifacts, SMALL)
    assert any("(read)" in fault and "responded in" in fault for fault in faults)


def test_dropped_deliver_line_is_rejected(artifacts):
    lines = (artifacts / "trace.jsonl").read_text().splitlines(keepends=True)
    drop = next(i for i, line in enumerate(lines) if '"kind":"deliver"' in line)
    (artifacts / "trace.jsonl").write_text("".join(lines[:drop] + lines[drop + 1:]))
    faults, _ = checks.run_faults(artifacts, SMALL)
    assert any("deliver events" in fault for fault in faults)


def test_support_dip_below_n_minus_f_is_rejected(artifacts):
    path = artifacts / "probe_report.json"
    report = json.loads(path.read_text())
    report["probes"][7]["support"] = N - F - 1
    path.write_text(json.dumps(report))
    faults, _ = checks.run_faults(artifacts, SMALL)
    assert faults == [f"round 8: support {N - F - 1} below n - f = {N - F}"]


def test_grid_cell_off_the_alpha_table_is_rejected(tmp_path):
    table = tmp_path / "table.tsv"
    header = "model\tf\tn\tseed\tpass\tmin_support\tprobe_violations\tops\n"
    good = f"garay\t2\t{ALPHA['garay'] * 2 + 1}\t1\tTrue\t5\t0\t0\n"
    table.write_text(header + good)
    assert checks.grid_faults(table, [[]], {("garay", 2)}) == []
    table.write_text(header + f"garay\t2\t{ALPHA['garay'] * 2}\t1\tTrue\t5\t0\t0\n")
    assert any("alpha*f + 1" in fault
               for fault in checks.grid_faults(table, [[]], {("garay", 2)}))


def random_history(rng):
    """Writes of unique values and reads of any written value, on few rounds."""
    ops, values = [], [None]
    for op_id in range(rng.randint(1, 12)):
        start = rng.randint(1, 8)
        end = start + rng.randint(0, 2)
        if rng.random() < 0.5:
            value = f"v{op_id}"
            values.append(value)
            ops.append({"op_id": op_id, "client": 0, "kind": "write", "argument": value,
                        "result": "write_confirmation", "invoke_round": start,
                        "response_round": end, "failed": False})
        else:
            ops.append({"op_id": op_id, "client": 1, "kind": "read", "argument": None,
                        "result": None, "invoke_round": start,
                        "response_round": end, "failed": False})
    for op in ops:
        if op["kind"] == "read":
            op["result"] = rng.choice(values)
    return ops


def test_validity_agrees_with_the_program_on_random_histories():
    from mobyreg import checker
    rng = random.Random(7)
    verdicts = set()
    for _ in range(2000):
        history = random_history(rng)
        expected = checker.check_validity(checker.history_from_records(history)).passed
        assert (checks.validity_faults(history) == []) == expected, history
        verdicts.add(expected)
    assert verdicts == {True, False}
