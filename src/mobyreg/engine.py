"""Synchronous round loop: send, receive, compute, with fault injection.

One run executes a fixed number of rounds over n servers and a set of
clients.  All messages sent in a round are delivered in that round's receive
phase (channels are reliable and authenticated).  The adversary relocates its
agents per the fault model, corrupts occupied servers, and substitutes their
outgoing messages.  The run records an operation history, per-round agreement
probes, an event trace, and any property violations.

Servers receive only broadcasts, so every server gets the same inbox, and
each enters the receive phase with empty round buffers: an agent corrupts its
host before ``server_begin_round`` empties ``echo_vals`` and
``current_writes``, and the send phase empties ``current_reads`` on every
branch.  So the engine sorts and tallies that one inbox, and decides
adoption, once per round: O(n) work, not n inbox copies and n tallies.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .adversary import SplitVote, Strategy, rng_stream
from .model import ConfigError, ModelId, SystemConfig, lookup
from .protocol import (BOTTOM, SERVERS, ClientState, Echo, Read, ReadFailed,
                       ReadOk, Reply, ServerState, WriteAck, client_compute,
                       client_invoke_read, client_invoke_write, client_receive,
                       client_send, server_begin_round, server_compute,
                       server_receive, server_send, value_key)

# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

OPS = ("write", "read", "crash")


@dataclass(frozen=True)
class Directive:
    """One scripted client action; ``round`` is the round its message is sent."""

    round: int
    client: int
    op: str
    value: object = None


@dataclass(frozen=True)
class RandomWorkload:
    """Per-round, per-idle-client operation generator.

    ``op_rate`` is the chance an idle client starts an operation in a round;
    ``read_ratio`` splits those between reads and writes.  Written values
    embed (client id, counter) so they are globally unique, which the history
    checker requires.
    """

    op_rate: float = 0.2
    read_ratio: float = 0.5


Workload = Union[Sequence[Directive], RandomWorkload]


def validate_directives(directives: Sequence[Directive], rounds: int,
                        n_clients: int) -> list[Directive]:
    """Reject overlapping or out-of-range directives before round 1."""
    busy_until: dict[int, int] = {}
    crashed: set[int] = set()
    ordered = sorted(directives, key=lambda d: (d.round, d.client))
    for d in ordered:
        if d.op not in OPS:
            raise ConfigError(f"unknown workload op {d.op!r}")
        if not 1 <= d.round <= rounds:
            raise ConfigError(f"directive round {d.round} outside 1..{rounds}")
        if not 0 <= d.client < n_clients:
            raise ConfigError(f"directive client {d.client} outside 0..{n_clients - 1}")
        if d.client in crashed:
            raise ConfigError(f"client {d.client} acts after crashing")
        if d.op == "crash":
            crashed.add(d.client)
            continue
        if busy_until.get(d.client, 0) >= d.round:
            raise ConfigError(
                f"client {d.client} starts a {d.op} in round {d.round} while busy")
        if d.op == "write":
            if d.value is BOTTOM:
                raise ConfigError("a write directive needs a non-default value")
            busy_until[d.client] = d.round
        else:  # read
            if d.round + 1 > rounds:
                raise ConfigError(
                    f"read at round {d.round} cannot finish within {rounds} rounds")
            busy_until[d.client] = d.round + 1
    return ordered


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

@dataclass
class OpRecord:
    op_id: int
    client: int
    kind: str                      # "write" | "read"
    argument: object = None        # written value, None for reads
    result: object = None          # returned value for reads
    invoke_round: int = 0          # round the first message was sent
    response_round: Optional[int] = None
    failed: bool = False           # read finished with no unique value

    def as_dict(self) -> dict:
        return {
            "op_id": self.op_id, "client": self.client, "kind": self.kind,
            "argument": self.argument, "result": self.result,
            "invoke_round": self.invoke_round,
            "response_round": self.response_round, "failed": self.failed,
        }


@dataclass(slots=True)
class TraceEvent:
    round: int
    phase: str
    kind: str
    actor: str
    payload: dict


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str).encode


@dataclass
class RunResult:
    config: SystemConfig
    rounds: int
    seed: int
    history: list = field(default_factory=list)       # OpRecord
    trace: list = field(default_factory=list)         # TraceEvent
    probes: list = field(default_factory=list)        # per-round dicts
    violations: list = field(default_factory=list)    # agreement-probe dips etc.
    protocol_failures: list = field(default_factory=list)
    realized_workload: list = field(default_factory=list)  # Directive
    crashed_clients: frozenset = frozenset()

    def trace_lines(self) -> str:
        """The trace as JSON lines: each event's five fields, keys sorted, compact.

        Sorted, the keys come as actor, kind, payload, phase, round, so a line
        is spliced from a cached head, the encoded payload and a cached tail.
        A payload object is encoded once per round however many events share
        it (a server-inbox entry has one ``deliver`` event per server); every
        event stays alive in ``self.trace``, so an ``id`` is not reused here.
        """
        heads: dict = {}
        payloads: dict = {}
        tails: dict = {}
        lines = []
        round_no = None
        for ev in self.trace:
            if ev.round != round_no:
                round_no = ev.round
                round_text = _ENCODE(round_no)
                payloads.clear()
                tails.clear()
            key = ev.actor, ev.kind
            head = heads.get(key)
            if head is None:
                head = heads[key] = (
                    f'{{"actor":{_ENCODE(ev.actor)},"kind":{_ENCODE(ev.kind)},"payload":')
            payload = payloads.get(id(ev.payload))
            if payload is None:
                payload = payloads[id(ev.payload)] = _ENCODE(ev.payload)
            tail = tails.get(ev.phase)
            if tail is None:
                tail = tails[ev.phase] = (
                    f',"phase":{_ENCODE(ev.phase)},"round":{round_text}}}')
            lines.append(head + payload + tail)
        lines.append("")  # the last line's newline, without copying the text
        return "\n".join(lines)

    @property
    def min_support(self) -> Optional[int]:
        if not self.probes:
            return None
        return min(p["support"] for p in self.probes)


# ---------------------------------------------------------------------------
# Agreement probe
# ---------------------------------------------------------------------------

def probe_agreement(server_states: dict, faulty: frozenset) -> tuple[object, int]:
    """Modal value among non-faulty servers and its support.

    In admissible runs the support must reach n - f at the end of every
    round; the caller records a violation otherwise.
    """
    values = [st.value for sid, st in server_states.items() if sid not in faulty]
    if not values:
        return BOTTOM, 0
    counts = Counter(values)
    best = min(counts.items(), key=lambda kv: (-kv[1], value_key(kv[0])))
    return best[0], best[1]


# ---------------------------------------------------------------------------
# Message helpers
# ---------------------------------------------------------------------------

def _msg_payload(msg, sender: int) -> dict:
    """A message as traces show it: its type, its value, and the sender the
    channel supplied, under "server" (Echo, Reply) or "client" (Write, Read)."""
    d = {"type": type(msg).__name__.lower(),
         "server" if isinstance(msg, (Echo, Reply)) else "client": sender}
    if not isinstance(msg, Read):
        d["value"] = msg.value
    return d


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def run(config: SystemConfig, strategy: Strategy, workload: Workload, *,
        rounds: int, seed: int = 0, n_clients: int = 3,
        allow_inadmissible: bool = False,
        record_messages: bool = False) -> RunResult:
    """Execute one deterministic simulation.

    Raises ConfigError before round 1 on malformed input or when the
    configuration is inadmissible and ``allow_inadmissible`` is not set.
    """
    if rounds < 0:
        raise ConfigError(f"rounds must be >= 0, got {rounds}")
    if n_clients < 1:
        raise ConfigError(f"need at least one client, got {n_clients}")
    if not config.admissible and not allow_inadmissible:
        raise ConfigError(
            f"n={config.n} <= alpha*f={config.params.alpha * config.f} for model "
            f"{config.params.model}; pass allow_inadmissible to run a bound demo")

    oracle_enabled = config.params.oracle_enabled
    cured_byzantine = config.params.cured_byzantine
    s_threshold = config.selection_threshold
    n, f = config.n, config.f

    scripted: Optional[list[Directive]] = None
    generator: Optional[RandomWorkload] = None
    if isinstance(workload, RandomWorkload):
        generator = workload
    else:
        scripted = validate_directives(list(workload), rounds, n_clients)

    result = RunResult(config=config, rounds=rounds, seed=seed)
    servers = {i: ServerState() for i in range(n)}
    clients = {c: ClientState() for c in range(n_clients)}
    restored = {i: True for i in range(n)}   # state known-good (cure oracle input)
    crashed: set[int] = set()
    pending_op: dict[int, OpRecord] = {}     # client -> outstanding operation
    write_counter: dict[int, int] = {c: 0 for c in range(n_clients)}
    occupied: frozenset = frozenset()        # end-of-previous-round agent positions
    op_seq = 0

    def trace(round_no, phase, kind, actor, payload):
        result.trace.append(TraceEvent(round_no, phase, kind, actor, payload))

    def invoke(round_no: int, d: Directive) -> None:
        nonlocal op_seq
        cst = clients[d.client]
        if d.op == "write":
            clients[d.client] = client_invoke_write(cst, d.value)
        else:
            clients[d.client] = client_invoke_read(cst)
        rec = OpRecord(op_id=op_seq, client=d.client, kind=d.op,
                       argument=d.value if d.op == "write" else None,
                       invoke_round=round_no)
        op_seq += 1
        pending_op[d.client] = rec
        result.history.append(rec)
        result.realized_workload.append(d)
        trace(round_no, "send", "op_invoke", f"c{d.client}",
              {"op_id": rec.op_id, "kind": d.op, "value": d.value})

    for r in range(1, rounds + 1):
        # --- agent movement (at round start, or during send: moves_in_send) ---
        occ = strategy.occupancy(config, r, occupied, rng_stream(seed, "sched", r))
        pre_send = occ.pre_send
        cured_now = occupied - pre_send      # vacated at this round's start
        for i in cured_now:
            restored[i] = False
        trace(r, "round_start", "fault_move", "adversary",
              {"occupied": sorted(pre_send),
               "cured": sorted(cured_now),
               "planned_moves": [list(m) for m in occ.moves]})

        # occupied servers send as Byzantine ones in every model
        byzantine = pre_send | cured_now if cured_byzantine else pre_send

        # --- begin round -------------------------------------------------
        # corrupt first: begin_round then empties the buffers (module docstring)
        for i in range(n):
            if i in pre_send:
                servers[i] = strategy.corrupt_state(
                    r, i, rng_stream(seed, "corrupt", r, i), servers[i])
                restored[i] = False
            report = oracle_enabled and not restored[i] and i not in pre_send
            servers[i] = server_begin_round(servers[i], report)

        # --- operation injection (queued at the previous compute) --------
        if scripted is not None:
            todays = [d for d in scripted if d.round == r]
        else:
            todays = []
            rng_w = rng_stream(seed, "workload", r)
            for c in range(n_clients):
                cst = clients[c]
                if c in crashed or cst.reading or cst.writing:
                    continue
                if rng_w.random() >= generator.op_rate:
                    continue
                if rng_w.random() < generator.read_ratio and r + 1 <= rounds:
                    todays.append(Directive(r, c, "read"))
                else:
                    write_counter[c] += 1
                    todays.append(Directive(r, c, "write", f"c{c}w{write_counter[c]}"))
        for d in sorted(todays, key=lambda d: d.client):
            if d.op == "crash":
                crashed.add(d.client)
                trace(r, "round_start", "op_invoke", f"c{d.client}", {"kind": "crash"})
                result.realized_workload.append(d)
                continue
            invoke(r, d)

        # --- send phase ---------------------------------------------------
        outbox: list[tuple[str, int, object, object]] = []  # (kind, id, dest, msg)
        for c in range(n_clients):
            if c in crashed:
                continue
            cst, out = client_send(clients[c], r)
            clients[c] = cst
            for dest, msg in out:
                outbox.append(("client", c, dest, msg))
        for i in range(n):
            if i in byzantine:
                out_msgs = strategy.byzantine_outgoing(
                    config, r, i, servers[i], rng_stream(seed, "byz", r, i))
                st = servers[i]
                servers[i] = ServerState(st.value, st.echo_vals, st.current_writes,
                                         frozenset(), st.cured)
                for dest, msg in out_msgs:
                    if not isinstance(msg, (Echo, Reply)):
                        # authenticated channels: a server cannot pose as a client
                        trace(r, "send", "violation", f"s{i}",
                              {"reason": "forged sender rejected"})
                        continue
                    outbox.append(("server", i, dest, msg))
            else:
                st, out = server_send(servers[i])
                servers[i] = st
                for dest, msg in out:
                    outbox.append(("server", i, dest, msg))
        if record_messages:
            for skind, sid, dest, msg in outbox:
                trace(r, "send", "send", f"{skind[0]}{sid}",
                      {"dest": dest, "msg": _msg_payload(msg, sid)})

        # --- in-send movement (moves_in_send models) ---------------------------
        post_occupied = pre_send
        if occ.moves:
            moved = set(pre_send)
            for src, dst in occ.moves:
                moved.discard(src)
                moved.add(dst)
                # Departing host: its round buffers are still empty, the
                # register value keeps the agent's corruption.
                st = servers[src]
                servers[src] = ServerState(
                    strategy.corrupt_value(r, src, rng_stream(seed, "corrupt-leave", r, src),
                                           st.value),
                    st.echo_vals, st.current_writes, st.current_reads, st.cured)
                restored[src] = False
                trace(r, "send", "fault_move", "adversary", {"from": src, "to": dst})
            post_occupied = frozenset(moved)

        # --- receive phase --------------------------------------------------
        # one inbox, tally and adoption decision for all servers (module docstring)
        server_inbox: list = []
        client_inbox: dict[int, list] = {c: [] for c in range(n_clients)}
        for skind, sid, dest, msg in outbox:
            if dest == SERVERS:
                server_inbox.append((skind, sid, msg))
            elif dest in client_inbox:
                client_inbox[dest].append((skind, sid, msg))

        def sorted_inbox(entries):
            entries.sort(key=lambda e: (e[0], e[1]))
            return [(sid, msg) for _, sid, msg in entries]

        inbox = sorted_inbox(server_inbox)
        if record_messages:
            delivered = [{"from": sid, "msg": _msg_payload(msg, sid)} for sid, msg in inbox]
            for i in range(n):
                for payload in delivered:
                    trace(r, "receive", "deliver", f"s{i}", payload)
        tally = server_receive(ServerState(), inbox)
        for c in range(n_clients):
            if c in crashed:
                continue
            inbox = sorted_inbox(client_inbox[c])
            if record_messages:
                for sid, msg in inbox:
                    trace(r, "receive", "deliver", f"c{c}",
                          {"from": sid, "msg": _msg_payload(msg, sid)})
            clients[c] = client_receive(clients[c], inbox)

        # --- compute phase ---------------------------------------------------
        tally, note = server_compute(tally, s_threshold)
        for i in range(n):
            st = servers[i]
            servers[i] = ServerState(
                tally.value if note.adopted else st.value, tally.echo_vals,
                tally.current_writes, tally.current_reads, st.cured)
            if note.tied_values:
                trace(r, "compute", "state_transition", f"s{i}",
                      {"diagnostic": "echo threshold tie",
                       "tied": list(note.tied_values)})
            if note.adopted and i not in post_occupied:
                restored[i] = True
        for i in sorted(post_occupied):
            servers[i] = strategy.corrupt_state(
                r, i, rng_stream(seed, "corrupt-compute", r, i), servers[i])
            restored[i] = False
        for c in range(n_clients):
            if c in crashed:
                continue
            cst, response = client_compute(clients[c], r, s_threshold)
            clients[c] = cst
            if response is None:
                continue
            rec = pending_op.pop(c, None)
            if rec is None:
                continue
            if isinstance(response, WriteAck):
                rec.response_round = r
                rec.result = "write_confirmation"
                trace(r, "compute", "op_response", f"c{c}",
                      {"op_id": rec.op_id, "kind": "write"})
            elif isinstance(response, ReadOk):
                rec.response_round = r
                rec.result = response.value
                trace(r, "compute", "op_response", f"c{c}",
                      {"op_id": rec.op_id, "kind": "read", "value": response.value})
            elif isinstance(response, ReadFailed):
                rec.failed = True
                failure = {"round": r, "client": c, "op_id": rec.op_id,
                           "reply_counts": [[v, cnt] for v, cnt in response.counts],
                           "qualifying": list(response.qualifying),
                           "threshold": s_threshold}
                result.protocol_failures.append(failure)
                trace(r, "compute", "violation", f"c{c}",
                      dict(failure, reason="protocol_failure"))

        # --- end-of-round probe -----------------------------------------------
        modal, support = probe_agreement(servers, post_occupied)
        probe = {"round": r, "modal": modal, "support": support,
                 "non_faulty": n - len(post_occupied),
                 "pre_send_occupied": sorted(pre_send),
                 "byzantine_senders": sorted(byzantine),
                 "end_occupied": sorted(post_occupied)}
        result.probes.append(probe)
        trace(r, "end", "probe", "engine", dict(probe))
        if config.admissible and support < n - f:
            violation = {"round": r, "kind": "agreement_probe", "modal": modal,
                         "support": support, "required": n - f}
            result.violations.append(violation)
            trace(r, "end", "violation", "engine", dict(violation))

        occupied = post_occupied

    result.crashed_clients = frozenset(crashed)
    return result


# ---------------------------------------------------------------------------
# Tightness demonstrations
# ---------------------------------------------------------------------------

HONEST_VALUE = "written-value"
FAKE_VALUE = "planted-value"


def tightness_demo(model: ModelId, f: int = 2, *, seed: int = 0) -> dict:
    """Reproduce the boundary (n = alpha*f) indistinguishability scenario.

    A value is written, then read; the scripted split-vote schedule balances
    the reader's reply multiset between the written and a planted value, so
    no selection rule can be correct and the read fails.
    """
    params = lookup(model)
    n = params.alpha * f
    config = SystemConfig(n=n, f=f, params=params)
    first_wave = frozenset(range(f))
    second_wave = frozenset(range(f, 2 * f))
    if params.moves_in_send:
        # Buhrman: with n = 2f the f occupied servers already balance the f
        # correct ones at the reader; the agents need not move at all.
        schedule = {1: first_wave}
    else:
        # Occupy one set while the value is written and the read requested,
        # then jump: the vacated servers are cured (silent, constrained, or
        # still Byzantine, per model) exactly when the replies go out.
        schedule = {1: first_wave, 3: second_wave}
    strategy = SplitVote(FAKE_VALUE, schedule)
    workload = [Directive(1, 0, "write", HONEST_VALUE), Directive(2, 1, "read")]
    res = run(config, strategy, workload, rounds=3, seed=seed, n_clients=2,
              allow_inadmissible=True)

    failure = res.protocol_failures[0] if res.protocol_failures else None
    counts = {v: c for v, c in (failure["reply_counts"] if failure else [])}
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], value_key(kv[0])))
    top_two = [c for _, c in ranked[:2]]
    repliers = sum(counts.values())
    return {
        "model": model.value,
        "n": n,
        "f": f,
        "threshold": config.selection_threshold,
        "reply_counts": ranked,
        "top_two_support": top_two,
        "silent": n - repliers,
        "failure_emitted": failure is not None,
        "history": [rec.as_dict() for rec in res.history],
    }
