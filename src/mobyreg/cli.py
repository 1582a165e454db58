"""Experiment runner.

Exit codes: 0 all checked properties pass, 1 a property was violated in an
admissible run, 2 configuration or usage error.
"""

from __future__ import annotations

import json
import pathlib
import sys

import click

from . import checker as hc
from .adversary import STRATEGIES, RandomWalk, make_strategy
from .engine import Directive, RandomWorkload, RunResult, run, tightness_demo, value_text
from .model import ConfigError, ModelId, is_int, lookup, make_config

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2


# json.dumps(value, sort_keys=True, default=str), for a value in a history line
_HISTORY_ENCODE = json.JSONEncoder(sort_keys=True, default=str).encode


def _history_line(rec) -> str:
    """``json.dumps(rec.as_dict(), sort_keys=True, default=str)`` and a newline;
    ``run`` makes each other field an int, a bool, None or a kind."""
    response = "null" if rec.response_round is None else rec.response_round
    return (f'{{"argument": {value_text(rec.argument, _HISTORY_ENCODE)}, '
            f'"client": {rec.client}, "failed": {"true" if rec.failed else "false"}, '
            f'"invoke_round": {rec.invoke_round}, "kind": "{rec.kind}", '
            f'"op_id": {rec.op_id}, "response_round": {response}, '
            f'"result": {value_text(rec.result, _HISTORY_ENCODE)}}}\n')


def _refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number")


_MAX_YAML_DEPTH = 100  # directive files nest 2 deep


def _load_yaml(path):
    """A config or directives file: read as JSON if it parses as JSON, else as YAML.

    YAML 1.1 misreads some JSON (``1e3`` is a string to it, and a surrogate
    pair escape an error).  JSON's ``NaN`` and ``Infinity`` are refused, so a
    file holding them is read as YAML, which reads them as strings.  YAML
    nested deeper than ``_MAX_YAML_DEPTH`` is refused before libyaml's loader,
    which would overflow the C stack on it, sees it; its parser streams it.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read YAML file: {exc}") from None
    try:
        return json.loads(data, parse_constant=_refuse_constant)  # detects the encoding
    except RecursionError:  # libyaml would overflow the C stack on it
        raise ConfigError(f"{path} nests too deeply") from None
    except ValueError:
        pass
    import yaml  # only a file that is not JSON needs it

    # libyaml's loader where PyYAML was built with it; same results, far faster
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        depth = 0
        for event in yaml.parse(data, Loader=loader):  # detects the encoding
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > _MAX_YAML_DEPTH:
                    raise ConfigError(f"{path} nests too deeply")
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
        return yaml.load(data, Loader=loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path} is not valid YAML: {' '.join(str(exc).split())}") from None


_CONFIG_KEYS = ("model", "n", "f", "rounds", "seed", "clients", "workload", "adversary",
                "allow_inadmissible")


def _load_config_file(path):
    data = _load_yaml(path) or {}
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    for key in data:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config file {path}: unknown key {key!r}; "
                              f"expected one of {', '.join(_CONFIG_KEYS)}")
    for key in ("model", "workload", "adversary"):
        if not isinstance(data.get(key, ""), str):
            raise ConfigError(f"config file {path}: {key} {data[key]!r} is not a string")
    if not isinstance(data.get("allow_inadmissible", False), bool):
        raise ConfigError(f"config file {path}: allow_inadmissible "
                          f"{data['allow_inadmissible']!r} is not a boolean")
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
    """'random[:rate[:read_ratio]]' or a YAML/JSON file of directives."""
    if (workload_spec is None or workload_spec == "random"
            or workload_spec.startswith("random:")):
        parts = workload_spec.split(":") if workload_spec else []
        if len(parts) > 3:
            raise ConfigError(
                f"workload {workload_spec!r} is not random[:rate[:read_ratio]]")
        rate = _fraction(parts[1], "op_rate") if len(parts) > 1 else 0.2
        ratio = _fraction(parts[2], "read_ratio") if len(parts) > 2 else 0.5
        return RandomWorkload(op_rate=rate, read_ratio=ratio)
    path = pathlib.Path(workload_spec)
    if not path.exists():
        raise ConfigError(f"workload file {workload_spec} does not exist")
    entries = _load_yaml(path) or []
    if not isinstance(entries, list):
        raise ConfigError(f"workload file {workload_spec} must hold a list of directives")
    directives = []
    for e in entries:
        try:
            d = Directive(round=int(e["round"]), client=int(e["client"]),
                          op=e["op"], value=e.get("value"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"workload file {workload_spec}: bad directive {e!r} "
                              f"({type(exc).__name__}: {exc})") from None
        for key in ("round", "client"):
            # int() accepted it; a bool or a float such as 1.9 it truncated
            if not (is_int(e[key]) or isinstance(e[key], str)):
                raise ConfigError(f"workload file {workload_spec}: bad directive {e!r} "
                                  f"({key} {e[key]!r} is not an integer)")
        directives.append(d)
    return directives


def _write_file(path, write, what):
    """Open ``path`` for text, creating missing parents, and call ``write`` on it.

    An ``OSError`` at the open, at any write or at the flush on close is a
    configuration error naming ``what``.
    """
    path = pathlib.Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            write(out)
    except OSError as exc:
        raise ConfigError(f"cannot write {what}: {exc}") from None


def _text(text):
    """A writer for ``_write_file`` that writes ``text``."""
    return lambda out: out.write(text)


def _write_artifacts(result: RunResult, verdicts, out_dir, trace_out, report_out):
    out = pathlib.Path(out_dir)
    _write_file(trace_out or out / "trace.jsonl", result.trace_lines, "artifacts")
    _write_file(out / "history.jsonl", lambda fh: fh.writelines(
        map(_history_line, result.history)), "artifacts")
    probe_report = {
        "rounds": result.rounds,
        "seed": result.seed,
        "min_support": result.min_support,
        "violations": result.violations,
        "protocol_failures": result.protocol_failures,
        "probes": result.probes,
    }
    # compact: with an indent, json falls back to its pure-Python encoder
    _write_file(out / "probe_report.json",
                _text(json.dumps(probe_report, sort_keys=True, default=str) + "\n"),
                "artifacts")
    if verdicts is not None:
        _write_file(report_out or out / "verdicts.json", _text(json.dumps(
            {name: {"passed": v.passed, "witness": v.witness}
             for name, v in verdicts.items()},
            indent=2, sort_keys=True, default=str) + "\n"), "artifacts")


def _run_one(config, strategy, workload, *, rounds, seed, clients,
             allow_inadmissible=False, record_trace=True, record_messages=False,
             do_check=True):
    result = run(config, strategy, workload, rounds=rounds, seed=seed,
                 n_clients=clients, allow_inadmissible=allow_inadmissible,
                 record_trace=record_trace, record_messages=record_messages)
    verdicts = None
    if do_check:
        ops = hc.history_from_records(result.history)
        verdicts = hc.check_all(ops, result.crashed_clients)
    return result, verdicts


class _Main(click.Group):
    """The command group: malformed input ends any command with exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ConfigError, hc.CheckerInputError) as exc:
            click.echo(f"configuration error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)


@click.group(cls=_Main)
def main():
    """Mobile-Byzantine-tolerant atomic register simulator and checker."""


@main.command("run")
@click.option("--config", "config_file", type=click.Path(exists=True),
              help="YAML config; flags override its keys.")
@click.option("--model", default=None, help="garay|bonnet|sasaki|buhrman (or m1..m4)")
@click.option("--n", "n", type=int, default=None, help="server count")
@click.option("--f", "f", type=int, default=None, help="fault budget per round")
@click.option("--rounds", type=int, default=None, help="rounds to simulate (default 100)")
@click.option("--seed", type=int, default=None,
              help="seed of the adversary's and the workload's draws (default 0)")
@click.option("--clients", type=int, default=None, help="client count (default 3)")
@click.option("--workload", default=None,
              help="'random[:rate[:ratio]]' or a directives file")
@click.option("--adversary", default=None, help="|".join(STRATEGIES))
@click.option("--allow-inadmissible", is_flag=True, default=False)
@click.option("--trace-out", default=None,
              help="trace path (default trace.jsonl in --out-dir)")
@click.option("--report-out", default=None,
              help="verdicts.json path (default in --out-dir); probe_report.json "
                   "stays in --out-dir")
@click.option("--out-dir", default=".", help="directory for the artifacts")
@click.option("--check/--no-check", "do_check", default=True)
@click.option("--trace-messages", is_flag=True, default=False,
              help="record per-message send/deliver events")
def cmd_run(config_file, model, n, f, rounds, seed, clients, workload, adversary,
            allow_inadmissible, trace_out, report_out, out_dir, do_check,
            trace_messages):
    """Run one simulation, write artifacts, and check the register properties."""
    def pick(flag, key, default):
        return flag if flag is not None else file_cfg.get(key, default)

    file_cfg = _load_config_file(config_file) if config_file else {}
    model = pick(model, "model", "garay")
    n = _config_int(pick(n, "n", 7), "n")
    f = _config_int(pick(f, "f", 2), "f")
    rounds = _config_int(pick(rounds, "rounds", 100), "rounds")
    seed = _config_int(pick(seed, "seed", 0), "seed")
    clients = _config_int(pick(clients, "clients", 3), "clients")
    workload = pick(workload, "workload", "random")
    adversary = pick(adversary, "adversary", "random")
    allow_inadmissible = allow_inadmissible or file_cfg.get("allow_inadmissible", False)
    result, verdicts = _run_one(
        make_config(model, n, f), make_strategy(adversary), _load_workload(workload),
        rounds=rounds, seed=seed, clients=clients, allow_inadmissible=allow_inadmissible,
        record_messages=trace_messages, do_check=do_check)
    _write_artifacts(result, verdicts, out_dir, trace_out, report_out)

    failed = list(result.violations)
    if verdicts:
        for name, v in verdicts.items():
            status = "pass" if v.passed else "FAIL"
            click.echo(f"{name}: {status}")
            if not v.passed:
                failed.append(name)
    if result.violations:
        click.echo(f"agreement probe: FAIL ({len(result.violations)} rounds)")
    elif result.probes:
        click.echo(f"agreement probe: pass (min support {result.min_support})")
    click.echo(f"history: {len(result.history)} operations over {rounds} rounds")
    sys.exit(EXIT_VIOLATION if (failed and result.config.admissible) else EXIT_OK)


@main.command("tightness")
@click.option("--model", required=True, help="garay|bonnet|sasaki|buhrman (or m1..m4)")
@click.option("--f", "f", type=int, default=2)
@click.option("--seed", type=int, default=0)
@click.option("--report-out", default=None)
def cmd_tightness(model, f, seed, report_out):
    """Reproduce the boundary indistinguishability scenario for one model."""
    report = tightness_demo(ModelId.parse(model), f, seed=seed)
    if report_out:
        _write_file(report_out,
                    _text(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"),
                    "report")
    click.echo(f"model {report['model']}: n={report['n']} f={report['f']} "
               f"(boundary, threshold {report['threshold']})")
    click.echo(f"reader reply support: "
               + ", ".join(f"{v!r}x{c}" for v, c in report["reply_counts"])
               + (f", {report['silent']} silent" if report["silent"] else ""))
    click.echo("protocol failure emitted: "
               + ("yes" if report["failure_emitted"] else "NO"))
    sys.exit(EXIT_OK)


def _sweep_cell(args):
    """One table row: a run of a seed's expanded random workload, untraced."""
    model, config, seed, rounds, clients, directives = args
    result, verdicts = _run_one(config, RandomWalk(), directives, rounds=rounds,
                                seed=seed, clients=clients, record_trace=False)
    ok = not result.violations and all(v.passed for v in verdicts.values())
    return {"model": model, "f": config.f, "n": config.n, "seed": seed,
            "pass": ok, "min_support": result.min_support,
            "probe_violations": len(result.violations),
            "ops": len(result.history)}


@main.command("sweep")
@click.option("--models", default="garay,bonnet,sasaki,buhrman",
              help="comma-separated model names")
@click.option("--f-values", default="1,2", help="comma-separated fault budgets")
@click.option("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
@click.option("--rounds", type=int, default=100)
@click.option("--clients", type=int, default=3)
@click.option("--jobs", type=int, default=1)
@click.option("--out", "out_path", default=None, help="write the TSV table here")
def cmd_sweep(models, f_values, seeds, rounds, clients, jobs, out_path):
    """Run a models x f x seeds grid at n = alpha*f + 1; emit a summary table."""
    model_list = [m.strip() for m in models.split(",") if m.strip()]
    f_list = [_config_int(x, "--f-values entry") for x in f_values.split(",") if x.strip()]
    seed_list = [_config_int(x, "--seeds entry") for x in seeds.split(",") if x.strip()]
    if not model_list or not f_list or not seed_list:
        raise ConfigError("models, f-values, and seeds must all be nonempty")
    # every cell's config, built before the first cell runs, rejects a bad f
    configs = {(m, f): make_config(m, lookup(ModelId.parse(m)).alpha * f + 1, f)
               for m in model_list for f in f_list}
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    if rounds < 0:
        raise ConfigError(f"--rounds must be >= 0, got {rounds}")
    if clients < 1:
        raise ConfigError(f"--clients: need at least one client, got {clients}")

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

    header = ["model", "f", "n", "seed", "pass", "min_support",
              "probe_violations", "ops"]
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(str(row[h]) for h in header))
    table = "\n".join(lines) + "\n"
    if out_path:
        _write_file(out_path, _text(table), "table")
    click.echo(table, nl=False)
    sys.exit(EXIT_OK if all(r["pass"] for r in rows) else EXIT_VIOLATION)


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
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ConfigError(
                        f"{path} line {lineno}: not JSON ({exc.msg})") from None
                except RecursionError:
                    raise ConfigError(f"{path} line {lineno}: nests too deeply") from None
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


@main.command("check")
@click.argument("history_file", type=click.Path(exists=True))
@click.option("--crashed", default="", help="comma-separated crashed client ids")
def cmd_check(history_file, crashed):
    """Check a standalone history file (one JSON operation record per line)."""
    crashed_ids = {_config_int(x, "--crashed id") for x in crashed.split(",")
                   if x.strip()}
    verdicts = hc.check_all(_read_history(history_file), crashed_ids)
    ok = True
    for name, v in verdicts.items():
        click.echo(f"{name}: {'pass' if v.passed else 'FAIL'}")
        if not v.passed:
            ok = False
            click.echo(f"  witness: {json.dumps(v.witness, default=str)}")
    sys.exit(EXIT_OK if ok else EXIT_VIOLATION)


if __name__ == "__main__":
    main()
