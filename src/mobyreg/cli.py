"""Experiment runner.

Exit codes: 0 all checked properties pass, 1 a property was violated in an
admissible run, 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import stat
import sys

from . import checker as hc
from .adversary import STRATEGIES, RandomWalk, make_strategy
from .engine import (MAX_DEMO_F, Directive, IdTexts, RandomWorkload, RunResult, probe_text,
                     run, tightness_demo, value_text)
from .model import ConfigError, ModelId, is_int, lookup, make_config

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2


# json.dumps(value, sort_keys=True, default=str), for a history line's values
# and the probe report's
_ENCODE = json.JSONEncoder(sort_keys=True, default=str).encode


def _history_line(rec) -> str:
    """``json.dumps(rec.as_dict(), sort_keys=True, default=str)`` and a newline;
    ``run`` makes each other field an int, a bool, None or a kind."""
    response = "null" if rec.response_round is None else rec.response_round
    return (f'{{"argument": {value_text(rec.argument, _ENCODE)}, '
            f'"client": {rec.client}, "failed": {"true" if rec.failed else "false"}, '
            f'"invoke_round": {rec.invoke_round}, "kind": "{rec.kind}", '
            f'"op_id": {rec.op_id}, "response_round": {response}, '
            f'"result": {value_text(rec.result, _ENCODE)}}}\n')


def _finite_float(text):
    """A JSON number's float, or ``ValueError`` for one that is not finite:
    ``NaN``, ``Infinity`` or one that overflows, such as ``1e400``."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text} is not a finite number")
    return x


def _parse_json(text, where):
    """The one RFC 8259 JSON value in ``text``, its numbers all finite;
    anything else is a configuration error whose message starts with ``where``."""
    try:
        return json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
    except RecursionError:
        raise ConfigError(f"{where}: nests too deeply") from None
    except ValueError as exc:
        raise ConfigError(f"{where}: not valid JSON ({exc})") from None


def _load_json(path):
    """The JSON value that the file at ``path`` holds."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read JSON file: {exc}") from None
    return _parse_json(data, path)  # json detects the encoding


def _refuse_unknown_keys(data, keys):
    for key in data:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r}; expected one of {', '.join(keys)}")


_MODEL_HELP = f"{'|'.join(m.value for m in ModelId)} (or m1..m{len(ModelId)})"

# each ``run`` setting, a config file key and a flag: its default, whose type
# is the setting's, and its help text
_RUN_SETTINGS = {
    "model": (ModelId.GARAY.value, _MODEL_HELP),
    "n": (7, "server count"),
    "f": (2, "fault budget per round"),
    "rounds": (100, "rounds to simulate"),
    "seed": (0, "seed of the adversary's and the workload's draws"),
    "clients": (3, "client count"),
    "workload": ("random", "'random[:rate[:ratio]]' or a directives file"),
    "adversary": ("random", "|".join(STRATEGIES)),
    "allow_inadmissible": (False, "run a config with n <= alpha*f, below the model's bound"),
}
_TYPE_NAMES = {str: "a string", bool: "a boolean"}


def _load_config_file(path):
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    try:
        _refuse_unknown_keys(data, _RUN_SETTINGS)
        # checked whatever the flags, so that a flag hides no bad key; the
        # string and boolean keys before the integer ones
        for key, (default, _) in sorted(_RUN_SETTINGS.items(), key=lambda kv: is_int(kv[1][0])):
            if key not in data:
                continue
            if is_int(default):
                data[key] = _config_int(data[key], key)
            elif not isinstance(data[key], type(default)):
                raise ConfigError(f"{key} {data[key]!r} is not {_TYPE_NAMES[type(default)]}")
    except ConfigError as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    return data


def _config_int(value, key):
    """An int that is not a bool, or an integer string; nothing is truncated."""
    if is_int(value):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{key} {value!r} is not an integer")


def _fraction(text, name):
    try:
        x = float(text)
    except ValueError:
        raise ConfigError(f"workload {name} {text!r} is not a number") from None
    if not 0.0 <= x <= 1.0:
        raise ConfigError(f"workload {name} {x} outside [0, 1]")
    return x


def _load_workload(workload_spec):
    """'random[:rate[:read_ratio]]' or a JSON file of directives."""
    if workload_spec == "random" or workload_spec.startswith("random:"):
        parts = workload_spec.split(":")
        if len(parts) > 3:
            raise ConfigError(
                f"workload {workload_spec!r} is not random[:rate[:read_ratio]]")
        rate = _fraction(parts[1], "op_rate") if len(parts) > 1 else 0.2
        ratio = _fraction(parts[2], "read_ratio") if len(parts) > 2 else 0.5
        return RandomWorkload(op_rate=rate, read_ratio=ratio)
    path = pathlib.Path(workload_spec)
    if not path.exists():
        raise ConfigError(f"workload file {workload_spec} does not exist")
    entries = _load_json(path)
    if not isinstance(entries, list):
        raise ConfigError(f"workload file {workload_spec} must hold a list of directives")
    directives = []
    for e in entries:
        try:
            if not isinstance(e, dict):
                raise ConfigError("not a mapping")
            _refuse_unknown_keys(e, Directive._fields)
            directives.append(Directive(
                round=_config_int(e["round"], "round"),
                client=_config_int(e["client"], "client"), op=e["op"], value=e.get("value")))
        except ConfigError as exc:
            raise ConfigError(f"workload file {workload_spec}: bad directive {e!r} "
                              f"({exc})") from None
        except KeyError as exc:
            raise ConfigError(f"workload file {workload_spec}: bad directive {e!r} "
                              f"(KeyError: {exc})") from None
    return directives


def _derived_n(model: ModelId, f: int) -> int:
    """A sweep cell's n = alpha*f + 1 in ``model``; an ``f`` that takes n past
    ``sys.maxsize`` is refused as the entry the user gave, not as an n they
    never gave."""
    alpha = lookup(model).alpha
    if alpha * f + 1 > sys.maxsize:
        raise ConfigError(f"--f-values entry {f} is too large: {model}'s n = {alpha}f + 1 "
                          f"would exceed {sys.maxsize}")
    return alpha * f + 1


def _write_file(path, write, what):
    """Open ``path`` for text, creating missing parents, and call ``write`` on it.

    A regular file is truncated after the last write, not at the open: on
    ext4, a write after truncating at the open waits for the old contents'
    flush.  An ``OSError`` at the open, at any write or at the flush on close
    is a configuration error naming ``what``.
    """
    path = pathlib.Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as out:
            write(out)
            if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate()  # at the position the writes ended
    except OSError as exc:
        raise ConfigError(f"cannot write {what}: {exc}") from None


def _text(text):
    """A writer for ``_write_file`` that writes ``text``."""
    return lambda out: out.write(text)


def _write_artifacts(result: RunResult, verdicts, out_dir, trace_out, report_out):
    """Write a run's trace, history, probe report and verdicts.

    ``probe_report.json`` is ``json.dumps(report, sort_keys=True,
    default=str)`` of its keys, each written by ``_ENCODE`` but "probes",
    whose records ``probe_text`` writes from one table of server-id texts.
    No indent: with one, json falls back to its pure-Python encoder.
    """
    out = pathlib.Path(out_dir)
    _write_file(trace_out or out / "trace.jsonl", result.trace_lines, "artifacts")
    _write_file(out / "history.jsonl", lambda fh: fh.writelines(
        map(_history_line, result.history)), "artifacts")
    texts = IdTexts()
    report = {key: _ENCODE(value) for key, value in (
        ("rounds", result.rounds), ("seed", result.seed), ("min_support", result.min_support),
        ("violations", result.violations), ("protocol_failures", result.protocol_failures))}
    report["probes"] = "[" + ", ".join(
        probe_text(p, texts, _ENCODE, ", ", ": ") for p in result.probes) + "]"
    _write_file(out / "probe_report.json", _text(
        "{" + ", ".join(f'"{key}": {report[key]}' for key in sorted(report)) + "}\n"),
        "artifacts")
    _write_file(report_out or out / "verdicts.json", _text(json.dumps(
        {name: {"passed": v.passed, "witness": v.witness}
         for name, v in verdicts.items()},
        indent=2, sort_keys=True, default=str) + "\n"), "artifacts")


def _run_one(config, strategy, workload, *, rounds, seed, clients,
             allow_inadmissible=False, record_messages=False):
    result = run(config, strategy, workload, rounds=rounds, seed=seed,
                 n_clients=clients, allow_inadmissible=allow_inadmissible,
                 record_messages=record_messages)
    ops = hc.history_from_records(result.history)
    return result, hc.check_all(ops, result.crashed_clients)


def cmd_run(config_file, trace_out, report_out, out_dir, trace_messages, **settings):
    """Run one simulation, write artifacts, and check the register properties."""
    file_cfg = {} if config_file is None else _load_config_file(config_file)
    s = {key: file_cfg.get(key, default) if settings[key] is None else settings[key]
         for key, (default, _) in _RUN_SETTINGS.items()}
    result, verdicts = _run_one(
        make_config(s["model"], s["n"], s["f"]), make_strategy(s["adversary"]),
        _load_workload(s["workload"]), rounds=s["rounds"], seed=s["seed"],
        clients=s["clients"], allow_inadmissible=s["allow_inadmissible"],
        record_messages=trace_messages)
    _write_artifacts(result, verdicts, out_dir, trace_out, report_out)

    failed = list(result.violations)
    for name, v in verdicts.items():
        status = "pass" if v.passed else "FAIL"
        print(f"{name}: {status}")
        if not v.passed:
            failed.append(name)
    if result.violations:
        print(f"agreement probe: FAIL ({len(result.violations)} rounds)")
    elif result.probes:
        print(f"agreement probe: pass (min support {result.min_support})")
    print(f"history: {len(result.history)} operations over {result.rounds} rounds")
    sys.exit(EXIT_VIOLATION if (failed and result.config.admissible) else EXIT_OK)


def cmd_tightness(model, f, report_out):
    """Reproduce the boundary indistinguishability scenario for one model."""
    model = ModelId.parse(model)
    if f > MAX_DEMO_F:
        raise ConfigError(f"--f {f} is too large: a tightness demo lists at most "
                          f"{MAX_DEMO_F} servers a wave")
    report = tightness_demo(model, f)
    if report_out:
        _write_file(report_out,
                    _text(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"),
                    "report")
    print(f"model {report['model']}: n={report['n']} f={report['f']} "
          f"(boundary, threshold {report['threshold']})")
    print(f"reader reply support: "
          + ", ".join(f"{v!r}x{c}" for v, c in report["reply_counts"])
          + (f", {report['silent']} silent" if report["silent"] else ""))
    print("protocol failure emitted: " + ("yes" if report["failure_emitted"] else "NO"))
    sys.exit(EXIT_OK)


_SWEEP_COLUMNS = ("model", "f", "n", "seed", "pass", "min_support", "probe_violations", "ops")


def _sweep_cell(args):
    """One table row, in ``_SWEEP_COLUMNS``' order: a run of a seed's expanded
    random workload; no trace is written."""
    model, config, seed, rounds, clients, directives = args
    result, verdicts = _run_one(config, RandomWalk(), directives, rounds=rounds,
                                seed=seed, clients=clients)
    ok = not result.violations and all(v.passed for v in verdicts.values())
    return (model, config.f, config.n, seed, ok, result.min_support, len(result.violations),
            len(result.history))


def cmd_sweep(models, f_values, seeds, rounds, clients, jobs, out_path):
    """Run a models x f x seeds grid at n = alpha*f + 1; emit a summary table."""
    model_list = [m.strip() for m in models.split(",") if m.strip()]
    f_list = [_config_int(x, "--f-values entry") for x in f_values.split(",") if x.strip()]
    seed_list = [_config_int(x, "--seeds entry") for x in seeds.split(",") if x.strip()]
    if not model_list or not f_list or not seed_list:
        raise ConfigError("models, f-values, and seeds must all be nonempty")
    # every cell's config, built before the first cell runs, rejects a bad f
    configs = {(m, f): make_config(m, _derived_n(ModelId.parse(m), f), f)
               for m in model_list for f in f_list}
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    if rounds < 0:
        raise ConfigError(f"--rounds must be >= 0, got {rounds}")
    if clients < 1:
        raise ConfigError(f"--clients: need at least one client, got {clients}")
    if clients > sys.maxsize:  # expanded below, before any run() checks it
        raise ConfigError(f"--clients: need at most {sys.maxsize} clients, got {clients}")

    # a seed's cells all run the same directives: expand them once per seed
    directives = {s: RandomWorkload().expand(rounds, clients, s) for s in seed_list}
    cells = [(m, configs[m, f], s, rounds, clients, directives[s])
             for m in model_list for f in f_list for s in seed_list]
    # a fork-started pool starts all its workers at the first submit
    workers = min(jobs, len(cells))
    if workers > 1:
        import concurrent.futures  # only a pool needs it

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(c) for c in cells]

    table = "".join("\t".join(map(str, row)) + "\n" for row in [_SWEEP_COLUMNS, *rows])
    if out_path:
        _write_file(out_path, _text(table), "table")
    sys.stdout.write(table)
    passed = _SWEEP_COLUMNS.index("pass")
    sys.exit(EXIT_OK if all(row[passed] for row in rows) else EXIT_VIOLATION)


def _record_type_error(record):
    """What the checker cannot use in a history record's fields, or None."""
    if record["kind"] not in ("write", "read"):
        return f"kind {record['kind']!r} is neither 'write' nor 'read'"
    for key in ("op_id", "client", "invoke_round", "response_round"):
        x = record.get(key)
        if not (is_int(x) or (x is None and key == "response_round")):
            return f"{key} {x!r} is not an integer"
    response = record.get("response_round")
    if response is not None and response < record["invoke_round"]:
        return f"response_round {response} is before invoke_round {record['invoke_round']}"
    if not isinstance(record.get("failed", False), bool):
        return f"failed {record['failed']!r} is not a boolean"
    for key in ("argument", "result"):
        if isinstance(record.get(key), (list, dict)):
            return f"{key} {record[key]!r} is not a scalar"
    if record["kind"] == "write" and record["argument"] is None:
        return "a write's argument is null, the register's initial value"
    return None


def _read_history(path):
    """Checker operations from a file of JSON operation records, one a line."""
    ops = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                record = _parse_json(line, f"{path} line {lineno}")
                if not isinstance(record, dict):
                    raise ConfigError(f"{path} line {lineno}: not a JSON object")
                try:
                    ops += hc.history_from_records([record])
                except KeyError as exc:
                    raise ConfigError(
                        f"{path} line {lineno}: record lacks key {exc}") from None
                problem = _record_type_error(record)
                if problem:
                    raise ConfigError(f"{path} line {lineno}: {problem}")
    except UnicodeDecodeError:
        raise ConfigError(f"{path} is not UTF-8 text") from None
    except OSError as exc:
        raise ConfigError(f"cannot read history: {exc}") from None
    return ops


def cmd_check(history_file, crashed):
    """Check a standalone history file (one JSON operation record per line)."""
    crashed_ids = {_config_int(x, "--crashed id") for x in crashed.split(",")
                   if x.strip()}
    verdicts = hc.check_all(_read_history(history_file), crashed_ids)
    ok = True
    for name, v in verdicts.items():
        print(f"{name}: {'pass' if v.passed else 'FAIL'}")
        if not v.passed:
            ok = False
            print(f"  witness: {json.dumps(v.witness, default=str)}")
    sys.exit(EXIT_OK if ok else EXIT_VIOLATION)


class _Parser(argparse.ArgumentParser):
    """A parser whose usage error is one stderr line and exit 2."""

    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_CONFIG)


_TEXT = {"metavar": "TEXT"}
_INT = {"type": int, "metavar": "INTEGER"}


def _build_parser():
    """The ``mobyreg`` parser, and the option strings that take a value."""
    def parser(**kwargs):
        p = _Parser(add_help=False, allow_abbrev=False, **kwargs)
        p.add_argument("--help", action="help", help="Show this message and exit.")
        return p

    top = parser(prog="mobyreg",
                 description="Mobile-Byzantine-tolerant atomic register simulator and checker.")
    commands = top.add_subparsers(title="commands", metavar="COMMAND", required=True,
                                  parser_class=parser)
    takes_value = set()

    def command(fn):
        """Add ``fn`` as a command named after it; return its option adder."""
        sub = commands.add_parser(fn.__name__.removeprefix("cmd_"), help=fn.__doc__,
                                  description=fn.__doc__)
        sub.set_defaults(command=fn)

        def option(*names, **kwargs):
            action = sub.add_argument(*names, **kwargs)
            if action.nargs is None:
                takes_value.update(action.option_strings)
        return option

    option = command(cmd_run)
    option("--config", dest="config_file", metavar="PATH",
           help="JSON config; flags override its keys.")
    for key, (default, text) in _RUN_SETTINGS.items():
        # None, so that cmd_run sees which flags were given
        kind = {bool: {"action": "store_true"}, int: _INT, str: _TEXT}[type(default)]
        option("--" + key.replace("_", "-"), **kind, default=None,
               help=f"{text} (default {default})")
    option("--trace-out", **_TEXT, help="trace path (default trace.jsonl in --out-dir)")
    option("--report-out", **_TEXT, help="verdicts.json path (default in --out-dir); "
                                         "probe_report.json stays in --out-dir")
    option("--out-dir", **_TEXT, default=".", help="directory for the artifacts")
    option("--trace-messages", action="store_true", help="record per-message send/deliver events")

    option = command(cmd_tightness)
    option("--model", **_TEXT, required=True, help=_MODEL_HELP)
    option("--f", **_INT, default=2)
    option("--report-out", **_TEXT)

    option = command(cmd_sweep)
    option("--models", **_TEXT, default=",".join(m.value for m in ModelId),
           help="comma-separated model names")
    option("--f-values", **_TEXT, default="1,2", help="comma-separated fault budgets")
    option("--seeds", **_TEXT, default="0,1,2,3,4", help="comma-separated seeds")
    option("--rounds", **_INT, default=_RUN_SETTINGS["rounds"][0])
    option("--clients", **_INT, default=_RUN_SETTINGS["clients"][0])
    option("--jobs", **_INT, default=1)
    option("--out", dest="out_path", **_TEXT, help="write the TSV table here")

    option = command(cmd_check)
    option("history_file", metavar="HISTORY_FILE")
    option("--crashed", **_TEXT, default="", help="comma-separated crashed client ids")
    return top, frozenset(takes_value)


_PARSER, _TAKES_VALUE = _build_parser()


def _attach_values(args):
    """``args`` with each value that starts with "-" attached to its option.

    ``--seeds -1,2`` becomes ``--seeds=-1,2``: argparse would read a
    separate such token as an option, not as the value.  A lone "--" is
    left alone: argparse drops it from any value it is in.
    """
    args = list(args)
    i = 0
    while i < len(args) - 1 and args[i] != "--":
        if args[i] in _TAKES_VALUE and args[i + 1].startswith("-") and args[i + 1] != "--":
            args[i:i + 2] = [f"{args[i]}={args[i + 1]}"]
        i += 1
    return args


def main(args=None, standalone_mode=True):
    """Run the command that ``args`` (default ``sys.argv[1:]``) name.

    Every command ends by raising ``SystemExit`` with its exit code; a usage,
    configuration or checker input error exits 2 with one stderr line.
    ``standalone_mode`` is accepted for callers written against click's
    ``main`` and changes nothing.
    """
    opts = vars(_PARSER.parse_args(_attach_values(sys.argv[1:] if args is None else args)))
    command = opts.pop("command")
    try:
        command(**opts)
    except (ConfigError, hc.CheckerInputError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)


if __name__ == "__main__":
    main()
