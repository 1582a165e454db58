"""Correctness checks on `mobyreg` artifacts, computed apart from the program.

Nothing here imports `mobyreg`: each property is recomputed from the
paper's definitions over the JSON the CLI wrote.  Every check returns a
list of faults, one readable line each; an empty list means it holds.
"""

from __future__ import annotations

import bisect
import csv
import json
import pathlib

from workloads import ALPHA

INF = float("inf")


def read_jsonl(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def failed_ops(history) -> int:
    """Operations that returned no value: a failed read or a missing response."""
    return sum(1 for op in history if op["failed"] or op["response_round"] is None)


def latency_faults(history) -> list[str]:
    """A write responds in its invoke round, a read in the round after."""
    faults = []
    for op in history:
        if op["failed"]:
            continue
        want = op["invoke_round"] + (1 if op["kind"] == "read" else 0)
        if op["response_round"] != want:
            faults.append(f"op {op['op_id']} ({op['kind']}) invoked in round "
                          f"{op['invoke_round']} responded in {op['response_round']}, "
                          f"not {want}")
    return faults


def validity_faults(history) -> list[str]:
    """Every read returns the initial value or a write's value that is not stale.

    A read r may return the value of a write w unless r precedes w or some
    write w' lies wholly between them (w precedes w' precedes r), where
    ``a precedes b`` means a responded in a round before b was invoked.
    It may return the initial value (``null``) only if no write precedes it.
    Writes are sorted by invoke round; a suffix minimum of response rounds
    answers "does a write invoked after w respond before r?" by bisection.
    """
    writes = sorted((op for op in history if op["kind"] == "write"),
                    key=lambda op: op["invoke_round"])
    invokes = [w["invoke_round"] for w in writes]
    responses = [INF if w["response_round"] is None else w["response_round"]
                 for w in writes]
    first_response = sorted(responses)
    suffix_min = responses + [INF]
    for i in range(len(writes) - 1, -1, -1):
        suffix_min[i] = min(responses[i], suffix_min[i + 1])
    by_value = {}
    faults = []
    for i, w in enumerate(writes):
        if w["argument"] in by_value:
            faults.append(f"value {w['argument']!r} written twice")
        by_value[w["argument"]] = i

    for r in history:
        if r["kind"] != "read" or r["failed"] or r["response_round"] is None:
            continue
        start, end, value = r["invoke_round"], r["response_round"], r["result"]
        if value is None:
            if bisect.bisect_left(first_response, start) > 0:
                faults.append(f"read {r['op_id']} returned the initial value after a "
                              f"completed write")
            continue
        i = by_value.get(value)
        if i is None:
            faults.append(f"read {r['op_id']} returned {value!r}, never written")
            continue
        if end < invokes[i]:
            faults.append(f"read {r['op_id']} finished before its write "
                          f"{writes[i]['op_id']} started")
            continue
        later = bisect.bisect_right(invokes, responses[i])
        if suffix_min[later] < start:
            faults.append(f"read {r['op_id']} returned {value!r}, overwritten before "
                          f"round {start}")
    return faults


def agreement_faults(supports, n: int, f: int) -> list[str]:
    """At the end of every round at least n - f correct servers agree."""
    return [f"round {rnd}: support {s} below n - f = {n - f}"
            for rnd, s in supports if s < n - f]


def delivery_faults(trace_path, n: int, history_ops: int) -> list[str]:
    """Reliable channels: n deliveries per broadcast, one per point-to-point send.

    Also the trace's operation invocations must match the history.
    """
    expected = delivered = invoked = 0
    with open(trace_path) as fh:
        for line in fh:
            event = json.loads(line)
            kind = event["kind"]
            if kind == "send":
                expected += n if event["payload"]["dest"] == "servers" else 1
            elif kind == "deliver":
                delivered += 1
            elif kind == "op_invoke" and event["payload"].get("kind") != "crash":
                invoked += 1
    faults = []
    if delivered != expected:
        faults.append(f"{delivered} deliver events, but the sends call for {expected}")
    if invoked != history_ops:
        faults.append(f"{invoked} op_invoke events, but the history has "
                      f"{history_ops} operations")
    return faults


def history_faults(history) -> list[str]:
    return latency_faults(history) + validity_faults(history)


def run_faults(check_dir: pathlib.Path, wl) -> tuple[list[str], list]:
    """Faults in the artifacts of one `mobyreg run`, and its history."""
    history = read_jsonl(check_dir / "history.jsonl")
    faults = history_faults(history)
    report = json.loads((check_dir / "probe_report.json").read_text())
    probes = report["probes"]
    if len(probes) != report["rounds"]:
        faults.append(f"{len(probes)} probes for {report['rounds']} rounds")
    faults += agreement_faults(((p["round"], p["support"]) for p in probes), wl.n, wl.f)
    if report["violations"] or report["protocol_failures"]:
        faults.append("the probe report lists violations or protocol failures")
    verdicts = json.loads((check_dir / "verdicts.json").read_text())
    faults += [f"the program's own {name} verdict failed"
               for name, v in verdicts.items() if not v["passed"]]
    if wl.messages:
        faults += delivery_faults(check_dir / "trace.jsonl", wl.n, len(history))
    return faults, history


def grid_faults(table_path: pathlib.Path, histories: list, cells: set) -> list[str]:
    """Faults in a `mobyreg sweep` table and the histories of its cells.

    ``cells`` holds the (model, f) pairs the sweep was asked for.
    """
    with open(table_path) as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    faults = []
    if {(row["model"], int(row["f"])) for row in rows} != cells:
        faults.append("the table does not cover the requested models and f values")
    if len(rows) != len(histories):
        faults.append(f"{len(rows)} table rows but {len(histories)} simulated runs")
    for row, history in zip(rows, histories):
        model, n, f = row["model"], int(row["n"]), int(row["f"])
        cell = f"{model} f={f}"
        if n != ALPHA[model] * f + 1:
            faults.append(f"{cell}: n = {n}, not alpha*f + 1 = {ALPHA[model] * f + 1}")
        faults += [f"{cell}: {x}" for x in agreement_faults(
            [("min", int(row["min_support"]))], n, f)]
        if row["pass"] != "True" or row["probe_violations"] != "0":
            faults.append(f"{cell}: the program reports a failed check")
        if int(row["ops"]) != len(history):
            faults.append(f"{cell}: {row['ops']} ops in the table, {len(history)} run")
        faults += [f"{cell}: {x}" for x in history_faults(history)]
    return faults
