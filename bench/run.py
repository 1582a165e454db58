"""Benchmark of the `mobyreg` CLI: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout.  The process drives `mobyreg`
in-process: one check pass, whose artifacts are checked by ``checks.py``,
then timed passes of the same command until ``T`` seconds have gone by.
With ``--trace 0`` a set-up probe (a fresh process of this script, with
``--setup-probe``) follows each of the first timed passes, and the
end-to-end metrics are printed; with ``--trace 1`` timed passes alternate
between untraced and traced, and the per-layer metrics and the tracing
overhead are printed.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import checks
from layers import RunTimer, Tracer, layer_metrics, round_metrics
from workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_TIMED_PASSES = 4
SETUP_PROBES = 7
SETUP_PROBE_TIMEOUT_S = 60

# Passes of the same code on a shared machine run at speeds that drift by up
# to 30% over minutes, in CPU time as much as in wall time, because other
# tenants share the cores.  A fixed pure-Python loop, timed between passes,
# measures the speed the run got; ``scale`` converts the run's times to the
# speed at which the loop takes CALIBRATION_REF_S (its time on an idle
# 2-core machine with Python 3.11).
CALIBRATION_REF_S = 0.300
CALIBRATION_LOOPS = 1_800_000

UNITS = {"setup_s": "s", "wall_s": "s", "sim_rounds_per_s": "rounds/s",
         "verified_ops_per_s": "ops/s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ms_p50") or name.endswith("_ms_tail"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("ops_per_s"):
        return "ops/s"
    return "s" if name.endswith("_s") else "count"


def call_cli(args: list[str]) -> int:
    """Run one `mobyreg` command in this process; return its exit code.

    An uncaught exception counts as exit code 1, as it would for the command
    run on its own, and its traceback goes to stderr.
    """
    import mobyreg.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            traceback.print_exc()
            return 1
    return 0


def artifacts(out_dir: pathlib.Path) -> tuple[str, int]:
    """Digest and total size of every file the command wrote."""
    digest = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
                size += len(chunk)
    return digest.hexdigest(), size


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now."""
    t0 = time.perf_counter()
    table = {}
    for i in range(CALIBRATION_LOOPS):
        table[i % 1000] = (i, str(i))
    return time.perf_counter() - t0


def setup_probe(opts, probe_dir: pathlib.Path) -> float:
    """Seconds from starting a fresh ``--setup-probe`` process to its first round."""
    argv = [sys.executable, __file__, "--workload", opts.workload, "--seed",
            str(opts.seed), "--seconds", "0", "--setup-probe", str(probe_dir)]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=SETUP_PROBE_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])["setup_end"] - started


def stamp_and_exit():
    # call_cli has redirected sys.stdout; the stamp goes to the real one
    sys.__stdout__.write(json.dumps({"setup_end": time.monotonic()}) + "\n")
    sys.__stdout__.flush()
    os._exit(0)


def measure(wl, opts, out: pathlib.Path) -> dict:
    """The check pass into ``out/check``, then timed passes; raw per-pass figures."""
    check_dir, pass_dir = out / "check", out / "pass"
    for d in (check_dir, pass_dir, out / "probe"):
        d.mkdir(parents=True, exist_ok=True)

    kept: list = []
    timer = RunTimer(keep=kept)
    codes = [call_cli(wl.cli_args(opts.seed, check_dir))]
    timer.keep = None
    reference, _ = artifacts(check_dir)
    # as the program writes them to history.jsonl: JSON values, no objects
    histories = json.loads(json.dumps([[r.as_dict() for r in h] for h in kept],
                                      default=str))
    del kept
    rounds, ops = timer.rounds, timer.ops

    args = wl.cli_args(opts.seed, pass_dir)
    untraced, traced, round_ms, absent = [], [], [], set()
    mismatched = 0
    setup_s: list[float] = []
    probes = 0 if opts.trace else SETUP_PROBES
    speed = [calibrate()]
    deadline = time.perf_counter() + opts.seconds
    while (len(untraced) + len(traced) < MIN_TIMED_PASSES or len(setup_s) < probes
           or time.perf_counter() < deadline):
        timer.reset()
        if opts.trace and len(untraced) > len(traced):
            tracer = Tracer()
            try:
                codes.append(tracer.command(call_cli, args))
            finally:
                tracer.uninstall()
            digest, size = artifacts(pass_dir)
            traced.append({"wall_s": tracer.incl_s["cli.command"],
                           "layers": layer_metrics(tracer, size)})
            round_ms.extend(tracer.round_ms)
            absent.update(tracer.absent)
        else:
            t0 = time.perf_counter()
            codes.append(call_cli(args))
            untraced.append({"wall_s": time.perf_counter() - t0, "run_s": timer.run_s})
            digest, _ = artifacts(pass_dir)
        if len(setup_s) < probes:
            setup_s.append(setup_probe(opts, out / "probe"))
        speed.append(calibrate())
        mismatched += digest != reference
        if (timer.rounds, timer.ops) != (rounds, ops):
            mismatched += 1

    return {
        "rounds": rounds, "ops": ops, "histories": histories,
        "exit_codes": sorted(set(codes)), "passes": len(codes),
        "mismatched": mismatched, "untraced": untraced, "traced": traced,
        "round_ms": round_ms, "absent": sorted(absent), "setup_s": setup_s,
        "scale": CALIBRATION_REF_S / statistics.mean(speed),
        # taken before the checks read the artifacts
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def correctness(wl, check_dir: pathlib.Path, histories: list) -> tuple[list[str], int]:
    """Independent checks of the check pass; returns faults and failed ops."""
    if wl.command == "sweep":
        opts = dict(zip(wl.options[::2], wl.options[1::2]))
        cells = {(m, int(f)) for m in opts["--models"].split(",")
                 for f in opts["--f-values"].split(",")}
        faults = checks.grid_faults(check_dir / "table.tsv", histories, cells)
    else:
        faults, history = checks.run_faults(check_dir, wl)
        histories = [history]
    return faults, sum(checks.failed_ops(h) for h in histories)


def end_to_end(result) -> dict:
    """Means over the untraced passes, scaled to the calibration loop's speed.

    The means match the calibration loop's mean time over the same run, so
    that their ratio cancels the share of the run the machine ran slow.
    """
    scale, passes = result["scale"], result["untraced"]
    wall_s = scale * statistics.mean(p["wall_s"] for p in passes)
    return {
        "setup_s": scale * statistics.median(result["setup_s"]),
        "wall_s": wall_s,
        "sim_rounds_per_s": result["rounds"] / (scale * statistics.mean(
            p["run_s"] for p in passes)),
        "verified_ops_per_s": result["ops"] / wall_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result) -> dict:
    """Medians over the traced passes; times scaled like the end-to-end ones."""
    traced = result["traced"]
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]}
    metrics.update(round_metrics(result["round_ms"]))
    metrics["trace.overhead_s"] = (
        statistics.mean(p["wall_s"] for p in traced)
        - statistics.mean(p["wall_s"] for p in result["untraced"]))
    scale = result["scale"]
    for name in metrics:
        unit = per_layer_unit(name)
        if unit in ("s", "ms"):
            metrics[name] *= scale
        elif unit == "ops/s":
            metrics[name] /= scale
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR",
                    help="stop at the first simulated round and print the clock there")
    opts = ap.parse_args()

    if not (SRC / "mobyreg" / "cli.py").is_file():
        print(f"no mobyreg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[opts.workload]

    if opts.setup_probe:
        RunTimer(on_first_call=stamp_and_exit)
        call_cli(wl.cli_args(opts.seed, pathlib.Path(opts.setup_probe)))
        return 1  # the stamp exits the process; reaching here means no round ran

    out = ROOT / ".bench_out" / f"{wl.name}-{os.getpid()}"
    try:
        wl.write_inputs(opts.seed, out / "check")
        result = measure(wl, opts, out)
        try:
            faults, failed_per_pass = correctness(wl, out / "check", result["histories"])
        except (OSError, KeyError, ValueError) as exc:
            faults, failed_per_pass = [f"unreadable artifacts: {exc!r}"], 0
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            out.parent.rmdir()

    if result["exit_codes"] != [0]:
        faults.append(f"mobyreg exit codes {result['exit_codes']}, expected only 0")
    if result["mismatched"]:
        faults.append(f"{result['mismatched']} passes differ from the first pass "
                      f"with the same seed")
    for fault in faults:
        print(f"FAULT {wl.name}: {fault}", file=sys.stderr)
    for name in result["absent"]:
        print(f"absent layer function: {name}", file=sys.stderr)

    if opts.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in per_layer(result).items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in end_to_end(result).items()}
    for name, m in metrics.items():
        print(f"{wl.name}  {name:34s} {m['value']:14.6g} {m['unit']}")
    passes = result["passes"]
    print(json.dumps({"correct": not faults, "attempted": result["ops"] * passes,
                      "failed": failed_per_pass * passes, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
