"""Timing of `mobyreg` from outside, by wrapping functions where they are called.

Two instruments live here:

* ``RunTimer`` -- the only instrumentation of an untraced pass: one timer
  around each ``engine.run()`` call as the CLI sees it (``mobyreg.cli.run``).
* ``Tracer`` -- the traced pass: a span around every public function of the
  six layers at the point where the calling layer looks it up.  A span's
  self time is its duration minus the time of the spans it encloses.

Both patch module or class attributes and put the originals back on
``uninstall``.  A name that the program no longer has is recorded as absent
and skipped, so a refactor that removes a function does not crash the run.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import Counter, defaultdict

perf = time.perf_counter

# (metric, module, owner attribute or None for a module function, name).
# The metric names are those reported by the traced run; several functions
# can feed one metric.
LEAVES = (
    ("engine.probe", "mobyreg.engine", None, "probe_agreement"),
    ("protocol.server_begin_round", "mobyreg.engine", None, "server_begin_round"),
    ("protocol.server_send", "mobyreg.engine", None, "server_send"),
    ("protocol.server_receive", "mobyreg.engine", None, "server_receive"),
    ("protocol.server_compute", "mobyreg.engine", None, "server_compute"),
    ("protocol.client", "mobyreg.engine", None, "client_invoke_write"),
    ("protocol.client", "mobyreg.engine", None, "client_invoke_read"),
    ("protocol.client", "mobyreg.engine", None, "stamp_client_id"),
    ("protocol.client", "mobyreg.engine", None, "client_send"),
    ("protocol.client", "mobyreg.engine", None, "client_receive"),
    ("protocol.client", "mobyreg.engine", None, "client_compute"),
    ("adversary.rng_stream", "mobyreg.engine", None, "rng_stream"),
    ("adversary.occupancy", "mobyreg.adversary", "RandomWalk", "occupancy"),
    ("adversary.corrupt", "mobyreg.adversary", "RandomWalk", "corrupt_state"),
    ("adversary.corrupt", "mobyreg.adversary", "RandomWalk", "corrupt_value"),
    ("adversary.byzantine_outgoing", "mobyreg.adversary", "RandomWalk",
     "byzantine_outgoing"),
    ("checker.history_from_records", "mobyreg.checker", None, "history_from_records"),
    ("checker.check_all", "mobyreg.checker", None, "check_all"),
    ("checker.termination", "mobyreg.checker", None, "check_termination"),
    ("checker.validity", "mobyreg.checker", None, "check_validity"),
    ("checker.ordering", "mobyreg.checker", None, "check_ordering"),
    ("cli.trace_lines", "mobyreg.engine", "RunResult", "trace_lines"),
)
RUN = ("engine.run", "mobyreg.cli", None, "run")

# Which metrics add up to each layer's share of a pass.
LAYER_PARTS = {
    "engine": ("engine.run", "engine.probe"),
    "protocol": tuple(sorted({m for m, *_ in LEAVES if m.startswith("protocol.")})),
    "adversary": ("adversary.rng_stream", "adversary.occupancy", "adversary.corrupt",
                  "adversary.byzantine_outgoing"),
    "checker": ("checker.history_from_records", "checker.check_all",
                "checker.termination", "checker.validity", "checker.ordering"),
    "cli": ("cli.command", "cli.trace_lines"),
}


class _Patches:
    """Attribute replacements that can be undone."""

    def __init__(self):
        self._undo = []
        self.absent: list[str] = []

    def replace(self, module_name, owner_name, name, make_wrapper) -> bool:
        label = ".".join(p for p in (module_name, owner_name, name) if p)
        try:
            target = importlib.import_module(module_name)
            if owner_name:
                target = getattr(target, owner_name)
            original = getattr(target, name)
        except (ImportError, AttributeError):
            self.absent.append(label)
            return False
        had_own = name in vars(target)
        own = vars(target).get(name)
        setattr(target, name, make_wrapper(original))
        self._undo.append((target, name, had_own, own))
        return True

    def uninstall(self):
        for target, name, had_own, own in reversed(self._undo):
            if had_own:
                setattr(target, name, own)
            else:
                delattr(target, name)
        self._undo.clear()


class RunTimer(_Patches):
    """Times each ``engine.run()`` call made by the CLI, and nothing else.

    ``on_first_call`` runs once, before the first simulated round; the setup
    probes use it to stamp the end of setup.  ``keep`` collects every
    RunResult's history for the independent checks.
    """

    def __init__(self, on_first_call=None, keep=None):
        super().__init__()
        self.on_first_call = on_first_call
        self.keep = keep
        self.reset()
        if not self.replace(*RUN[1:], self._wrap):
            raise RuntimeError("mobyreg.cli.run is missing; nothing to time")

    def reset(self):
        self.run_s = 0.0
        self.rounds = 0
        self.ops = 0

    def _wrap(self, original):
        def run(*args, **kwargs):
            if self.on_first_call is not None:
                self.on_first_call()
                self.on_first_call = None
            t0 = perf()
            result = original(*args, **kwargs)
            self.run_s += perf() - t0
            self.rounds += kwargs.get("rounds", 0)
            self.ops += len(result.history)
            if self.keep is not None:
                self.keep.append(result.history)
            return result
        return run


class Tracer(_Patches):
    """Spans around every layer function; self time and call counts per metric."""

    def __init__(self):
        super().__init__()
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.round_ms: list[float] = []
        self._stack: list[float] = []      # child time of each open span
        self._marks: list[float] = []      # round starts of the current run()
        for metric, module, owner, name in LEAVES:
            self.replace(module, owner, name, lambda orig, metric=metric, name=name:
                         self._span(metric, orig, name))
        self.replace(*RUN[1:], lambda orig: self._span(RUN[0], orig, "run"))

    def command(self, fn, *args):
        """Call ``fn`` as the root span, ``cli.command``: one whole pass."""
        return self._span("cli.command", fn, "command")(*args)

    def _span(self, metric, original, name):
        stack = self._stack
        after = getattr(self, f"_after_{name}", None)
        before = self._marks.append if name == "occupancy" else None

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            if before is not None:
                before(t0)
            try:
                result = original(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                self.self_s[metric] += dt - child
                self.incl_s[metric] += dt
                self.calls[metric] += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, result, t0 + dt)
            return result
        return span

    def _after_run(self, args, result, end):
        marks = self._marks + [end]
        self.round_ms.extend(1000.0 * (b - a) for a, b in zip(marks, marks[1:]))
        self._marks.clear()
        self.counts["engine.trace_events"] += len(getattr(result, "trace", ()))

    def _after_server_receive(self, args, result, end):
        self.counts["engine.deliveries"] += len(args[1])

    _after_client_receive = _after_server_receive

    def _after_history_from_records(self, args, result, end):
        self.counts["checker.ops"] += len(result)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an already sorted list."""
    k = max(0, min(len(sorted_values) - 1, int(round(q / 100 * len(sorted_values))) - 1))
    return sorted_values[k]


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it (else 50)."""
    for q in TAIL_LADDER:
        if n * (1 - q / 100) >= 10:
            return q
    return 50.0


def layer_metrics(tracer: Tracer, artifact_bytes: int) -> dict:
    """Per-layer figures of one traced pass, as {metric: value}."""
    s = tracer.self_s
    busy = {layer: sum(s[m] for m in parts) for layer, parts in LAYER_PARTS.items()}
    out = {
        "engine.run_s": tracer.incl_s["engine.run"],
        "engine.self_s": s["engine.run"],
        "engine.probe_s": s["engine.probe"],
        "engine.deliveries": tracer.counts["engine.deliveries"],
        "engine.trace_events": tracer.counts["engine.trace_events"],
        "protocol.server_begin_round_s": s["protocol.server_begin_round"],
        "protocol.server_send_s": s["protocol.server_send"],
        "protocol.server_receive_s": s["protocol.server_receive"],
        "protocol.server_compute_s": s["protocol.server_compute"],
        "protocol.client_s": s["protocol.client"],
        "protocol.calls": sum(tracer.calls[m] for m in LAYER_PARTS["protocol"]),
        "adversary.rng_stream_s": s["adversary.rng_stream"],
        "adversary.rng_streams": tracer.calls["adversary.rng_stream"],
        "adversary.occupancy_s": s["adversary.occupancy"],
        "adversary.corrupt_s": s["adversary.corrupt"],
        "adversary.byzantine_outgoing_s": s["adversary.byzantine_outgoing"],
        "checker.history_from_records_s": s["checker.history_from_records"],
        "checker.termination_s": s["checker.termination"],
        "checker.validity_s": s["checker.validity"],
        "checker.ordering_s": s["checker.ordering"],
        "checker.ops": tracer.counts["checker.ops"],
        "checker.ops_per_s": (tracer.counts["checker.ops"] / busy["checker"]
                              if busy["checker"] > 0 else 0.0),
        "cli.self_s": s["cli.command"],
        "cli.trace_lines_s": s["cli.trace_lines"],
        "cli.artifact_bytes": artifact_bytes,
    }
    wall_s = tracer.incl_s["cli.command"]
    out.update({f"{layer}.share_pct": 100.0 * t / wall_s for layer, t in busy.items()})
    return out


def round_metrics(round_ms: list[float]) -> dict:
    """Median and tail of per-round times pooled over a run's traced passes."""
    if not round_ms:
        return {"engine.round_ms_p50": 0.0, "engine.round_ms_tail": 0.0}
    ordered = sorted(round_ms)
    return {"engine.round_ms_p50": statistics.median(ordered),
            "engine.round_ms_tail": percentile(ordered, tail_percentile(len(ordered)))}
