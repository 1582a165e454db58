"""Steadiness mode: repeat every workload and compare the spread with the bounds.

    python3 bench/steady.py [--runs 10] [--trace 0|1] [--json-out PATH]
                            [--baseline PATH]

Runs ``run.py`` once per seed (1..runs) on every workload, one process at a
time and for BENCHMARK.json's ``run_seconds``, and prints for each metric its
median, quartiles and interquartile spread as a share of the median, beside
the bound set in BENCHMARK.json.  ``--runs 1`` is the quick way to see every
metric of every workload once.  ``--json-out`` writes the values and
summaries for the per-change record; ``--baseline`` reads such a file and
flags every median that is worse than the baseline's by more than its bound.
Exits 1 when a run fails or has not ended RUN_MARGIN_S seconds after its
measuring time, an output is incorrect, a spread exceeds its bound, or a
median regressed against the baseline.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

from workloads import WORKLOADS

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_MARGIN_S = 160


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(new, old, better):
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json-out", default=None)
    ap.add_argument("--baseline", default=None)
    opts = ap.parse_args()

    declared = spec["per_layer" if opts.trace else "end_to_end"]
    bounds = {m["name"]: m for m in declared}
    baseline = json.loads(pathlib.Path(opts.baseline).read_text()) if opts.baseline else {}
    seconds = spec["run_seconds"]
    record, ok = {}, True
    for name in WORKLOADS:
        values: dict[str, list] = {}
        units, failed_shares, attempted, failed = {}, set(), 0, 0
        for seed in range(1, opts.runs + 1):
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(opts.trace)],
                    cwd=ROOT, capture_output=True, text=True,
                    timeout=seconds + RUN_MARGIN_S)
            except subprocess.TimeoutExpired:
                print(f"{name} seed {seed}: no result after {seconds + RUN_MARGIN_S} s")
                ok = False
                continue
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: INCORRECT\n{proc.stderr}")
                ok = False
            attempted += result["attempted"]
            failed += result["failed"]
            failed_shares.add(result["failed"] / result["attempted"])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
        print(f"\n{name}: {opts.runs} runs of {seconds} s, {attempted} operations "
              f"attempted, {failed} failed, failed shares {sorted(failed_shares)}")
        print(f"  {'metric':32s} {'unit':9s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        summary = {}
        for metric, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(metric, {}).get("bound")
            note = ""
            if bound is not None:
                note = ("steady" if spread <= bound / 3 else "ok" if spread <= bound
                        else "WIDE")
                if note == "WIDE":
                    ok = False
                old = baseline.get(name, {}).get(metric, {}).get("median")
                if old:
                    worse = worse_by(med, old, bounds[metric]["better"])
                    note += f", worse than baseline by {worse:+.1%}"
                    if worse > bound:
                        note += " REGRESSED"
                        ok = False
            print(f"  {metric:32s} {units[metric]:9s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.1%} {'' if bound is None else f'{bound:.0%}':>6s}  {note}")
            summary[metric] = {"unit": units[metric], "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "values": vals}
        record[name] = summary
    if opts.json_out:
        pathlib.Path(opts.json_out).write_text(json.dumps(record, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
