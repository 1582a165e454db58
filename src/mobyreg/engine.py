"""Synchronous round loop: send, receive, compute, with fault injection.

One run executes a fixed number of rounds over n servers and a set of
clients.  All messages sent in a round are delivered in that round's receive
phase (channels are reliable and authenticated).  The adversary relocates its
agents per the fault model, corrupts occupied servers, and substitutes their
outgoing messages.  The run records an operation history, per-round agreement
probes and any property violations, and, unless ``record_trace`` is off, an
event trace; with it off no event or payload is built at all.  A directive's
round and client, and the run's rounds and clients, must be integers.

Servers receive only broadcasts, so every server gets the same inbox, and a
server keeps only its register value from one round to the next.  A round's
echoes and requests are collected in a fresh ``Tally``; the readers every
server answers in the next send are that tally's ``current_reads``, and in a
model with a cure oracle the servers that know they are cured are the
unrestored ones no agent holds.  So one tally and one adoption decision serve
every server, and a round that adopts a value ends its compute phase with
every server holding it.

The engine therefore keeps one ``shared`` value for all servers and an
``own`` value only for those that may differ.  Invariant: at every round
boundary a server outside ``own`` holds ``shared``, and ``own``'s keys are
the unrestored servers, those an agent has held since the last adoption.  A
send runs once per ``own`` or Byzantine server, and once for ``shared`` only
to trace it; a round adopting a value makes it ``shared``, empties ``own``,
and lets the agents corrupt their hosts again.  A round routes the messages
of the ``own`` and Byzantine servers once, into one server inbox and one
inbox per client, traced or not; the echo tally and each read's replies are
counted from them.  The shared servers count once, with their number, at
the lowest shared id (``count_servers``): in the echo tally, in each read's
replies and in the agreement probe.  A client's state is its running
operation: a write is broadcast and confirmed in one round, and a read is
decided from the replies of the round after its request.  So a round's
work, and its events in memory, grow with f and the running operations, not
with n.  An event with actor ``servers`` stands for every server: the
echo-tie diagnostic is one event, and ``trace_lines`` writes it once per
server, s0 to s(n-1).  With ``record_messages`` a round's messages are two
``RoundMessages`` records, for its send and its receive phase.  Each holds
the round's sends and its open clients: the deliveries follow from them by
``_route``.  ``trace_lines`` writes a record from one list of its senders, in
inbox order, the sends a line per sender and message and the deliveries
``_route`` over the same list; each message is rendered once a round, with
``"\\0"`` for its sender's id.  It writes each ``OpEvent``, an operation's
invocation or response, from a template filled from its ``OpRecord``, and
writes to a stream a round at a time, one write per round, so the most trace
text held at once is one round's.

An agent corrupts the server it leaves during the send and each server it
holds when the compute phase ends; the one it holds when the send starts
sends as a Byzantine server, so nothing reads its value then.
"""

from __future__ import annotations

import json
from itertools import groupby
from operator import attrgetter
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

from .adversary import SplitVote, Strategy, rng_stream
from .model import ConfigError, ModelId, SystemConfig, is_int, lookup
from .protocol import (BOTTOM, SERVERS, Echo, Read, ReadOk, Reply, Tally, Write,
                       client_compute, server_compute, server_receive, server_send,
                       value_key)

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

    def expand(self, rounds: int, n_clients: int, seed: int) -> list[Directive]:
        """The directives this workload draws in a run, before round 1.

        Round r draws from the stream ``("workload", r)``, client by client,
        for each client idle in that round.  A write takes one round and a
        read two, whatever the servers do, so when a client is next idle is
        known as soon as its operation is drawn.
        """
        directives = []
        idle_from = [1] * n_clients
        writes = [0] * n_clients
        for r in range(1, rounds + 1):
            rng = rng_stream(seed, "workload", r)
            for c in range(n_clients):
                if idle_from[c] > r or rng.random() >= self.op_rate:
                    continue
                if rng.random() < self.read_ratio and r < rounds:
                    directives.append(Directive(r, c, "read"))
                    idle_from[c] = r + 2
                else:
                    writes[c] += 1
                    directives.append(Directive(r, c, "write", f"c{c}w{writes[c]}"))
                    idle_from[c] = r + 1
        return directives


Workload = Union[Sequence[Directive], RandomWorkload]


def validate_directives(directives: Sequence[Directive], rounds: int,
                        n_clients: int) -> list[Directive]:
    """Reject overlapping or out-of-range directives before round 1."""
    for d in directives:
        for key in ("round", "client"):
            if not is_int(getattr(d, key)):
                raise ConfigError(f"directive {key} {getattr(d, key)!r} is not an integer")
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
        if d.op != "write" and d.value is not BOTTOM:
            raise ConfigError(f"a {d.op} directive takes no value, got {d.value!r}")
        if d.op == "crash":
            crashed.add(d.client)
            continue
        if busy_until.get(d.client, 0) >= d.round:
            raise ConfigError(
                f"client {d.client} starts a {d.op} in round {d.round} while busy")
        if d.op == "write":
            if d.value is BOTTOM:
                raise ConfigError("a write directive needs a non-default value")
            try:
                hash(d.value)  # servers and readers count values as dict keys
            except TypeError:
                raise ConfigError(
                    f"a written value must be a scalar, got {d.value!r}") from None
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


class OpEvent(NamedTuple):
    """An "op_invoke" (phase "send") or "op_response" ("compute") of ``rec``."""

    round: int
    phase: str
    kind: str
    rec: OpRecord


class RoundMessages(NamedTuple):
    """A round's messages, for its send (kind "send") or deliver lines.

    ``clients`` holds the clients' ``(client, msg)`` broadcasts, ``own_out``
    the listed (own or Byzantine) servers' output by id, ``shared_out`` each
    other server's, and ``open_clients`` the clients a message can reach.
    Channels are reliable, so the deliveries are ``_route`` over the sends.
    """

    round: int
    phase: str
    kind: str
    clients: list
    own_out: dict
    shared_out: tuple
    open_clients: tuple


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str).encode
_ENCODE_STR = json.encoder.encode_basestring_ascii


def value_text(value, encode) -> str:
    """``encode(value)``, for an ASCII-escaping ``encode``; no call for a str or None."""
    if isinstance(value, str):
        return _ENCODE_STR(value)
    return "null" if value is None else encode(value)


@dataclass
class RunResult:
    config: SystemConfig
    rounds: int
    seed: int
    history: list = field(default_factory=list)       # OpRecord
    trace: list = field(default_factory=list)         # TraceEvent, OpEvent, RoundMessages
    probes: list = field(default_factory=list)        # per-round dicts
    violations: list = field(default_factory=list)    # agreement-probe dips etc.
    protocol_failures: list = field(default_factory=list)
    crashed_clients: frozenset = frozenset()

    def trace_lines(self, out) -> None:
        """Write the trace to the text stream ``out`` as JSON lines, a round at a time.

        Each line is an event's five fields, keys sorted, compact.  A round's
        lines are rendered, joined and written with one ``out.write``, each
        ending in a newline, so the most trace text held at once is one
        round's.  Sorted, the keys come as actor, kind, payload, phase, round;
        every actor, kind and phase is an identifier the engine chooses, so a
        line is an f-string head, the payload and the phase's tail.  An event
        with actor ``servers`` stands for every server: it is written once per
        server, s0 to s(n-1).  An ``OpEvent``'s payload is a fixed template
        filled from its record's fields.

        A ``RoundMessages`` record is written from one list of senders in
        inbox order: each client with its broadcast, then each server in id
        order with its ``own_out`` entry or ``shared_out``.  The send lines are
        a line per sender and message; the deliver lines are ``_route`` over
        the same list, the server row once per server and then each open
        client's.  Each message is rendered once a round (cache keyed by
        ``id``: the records hold their messages for the call), with ``"\\0"``
        for its sender's id, which each line replaces.
        """
        servers = [f"s{i}" for i in range(self.config.n)]
        bodies: dict = {}  # id(msg) -> _message_body(msg), for this round
        for round_no, events in groupby(self.trace, attrgetter("round")):
            bodies.clear()  # messages are built per round
            lines = []
            for phase, events in groupby(events, attrgetter("phase")):
                tail = f',"phase":"{phase}","round":{round_no}}}'
                for ev in events:
                    if type(ev) is OpEvent:
                        lines.append(_joined(f"c{ev.rec.client}", ev.kind,
                                             (_op_payload(ev) + tail,)))
                        continue
                    if type(ev) is TraceEvent:
                        text = _ENCODE(ev.payload) + tail
                        actors = servers if ev.actor == SERVERS else (ev.actor,)
                        lines += [_joined(actor, ev.kind, (text,)) for actor in actors]
                        continue
                    # (actor, id, output) of each sender, in inbox order
                    senders = [(f"c{c}", str(c), ((SERVERS, msg),)) for c, msg in ev.clients]
                    senders += [(name, str(i), ev.own_out.get(i, ev.shared_out))
                                for i, name in enumerate(servers)]
                    if ev.kind == "send":
                        lines += [_joined(actor, "send",
                                          [f'{{"dest":{_party(dest)}' + _body(bodies, msg, sid)
                                           + tail for dest, msg in out_msgs])
                                  for actor, sid, out_msgs in senders if out_msgs]
                        continue
                    to_servers, to_clients = [], {c: [] for c in ev.open_clients}
                    _route([sender[1:] for sender in senders], to_servers, to_clients)
                    row = [f'{{"from":{sid}' + _body(bodies, msg, sid) + tail
                           for sid, msg in to_servers]
                    lines += [_joined(name, "deliver", row) for name in servers if row]
                    lines += [_joined(f"c{c}", "deliver",
                                      [f'{{"from":{sid}' + _body(bodies, msg, sid) + tail
                                       for sid, msg in pairs])
                              for c, pairs in to_clients.items() if pairs]
            lines.append("")  # the last line's newline, without copying the text
            out.write("\n".join(lines))

    @property
    def min_support(self) -> Optional[int]:
        if not self.probes:
            return None
        return min(p["support"] for p in self.probes)


# ---------------------------------------------------------------------------
# Agreement probe
# ---------------------------------------------------------------------------

def count_servers(values: dict, listed: Sequence[int], shared_value: object,
                  n: int) -> dict:
    """Value -> number of the servers 0..n-1 that hold or send it.

    ``listed`` are the ids, in order, outside the shared block; each counts
    its value in ``values``, if it has one.  The other n - len(listed) count
    ``shared_value`` once, at the lowest of their ids: a ``Counter`` over all
    n in id order, down to which of equal values (1, True, 1.0) is the key.
    """
    counts: dict = {}
    shared = n - len(listed)
    for k, sid in enumerate(listed):
        if shared and sid != k:     # ids 0..k-1 are listed: k is the lowest shared
            counts[shared_value] = counts.get(shared_value, 0) + shared
            shared = 0
        if sid in values:
            counts[values[sid]] = counts.get(values[sid], 0) + 1
    if shared:
        counts[shared_value] = counts.get(shared_value, 0) + shared
    return counts


def probe_agreement(values: dict, faulty: frozenset,
                    shared_value: object, n: int) -> tuple[object, int]:
    """Modal value among non-faulty servers and its support.

    Each of the servers 0..n-1 that ``values`` leaves out holds
    ``shared_value``.  In admissible runs the support must reach n - f at the
    end of every round; the caller records a violation otherwise.
    """
    counts = count_servers({i: v for i, v in values.items() if i not in faulty},
                           sorted(values), shared_value, n)
    return min(counts.items(), key=lambda kv: (-kv[1], value_key(kv[0])),
               default=(BOTTOM, 0))


# ---------------------------------------------------------------------------
# Message helpers
# ---------------------------------------------------------------------------

def _route(senders, server_inbox: list, client_inbox: dict) -> None:
    """Append each ``(sender, ((dest, msg), ...))``'s messages to the inboxes
    they reach.  Every server gets the same inbox.  Only an int naming an open
    client, a key of ``client_inbox``, reaches one: True equals 1 but names
    no client."""
    for i, out_msgs in senders:
        for dest, msg in out_msgs:
            if dest == SERVERS:
                server_inbox.append((i, msg))
            elif type(dest) is int and dest in client_inbox:
                client_inbox[dest].append((i, msg))


def _message_body(msg) -> str:
    """A message's trace text from ``,"msg":`` on, with ``"\\0"`` for its
    sender's id: its type, its value, and the sender the channel supplied,
    under "server" (Echo, Reply) or "client" (Write, Read), keys sorted."""
    role = "server" if isinstance(msg, (Echo, Reply)) else "client"
    text = f',"msg":{{"{role}":\0,"type":{_ENCODE(type(msg).__name__.lower())}'
    if not isinstance(msg, Read):
        text += f',"value":{_ENCODE(msg.value)}'
    return text + "}}"


def _body(bodies: dict, msg, sender: str) -> str:
    """``_message_body(msg)`` with ``sender`` for its sender's id, cached in
    ``bodies`` by ``id(msg)``: clear it before a message it holds can go."""
    body = bodies.get(id(msg))
    if body is None:
        body = bodies[id(msg)] = _message_body(msg)
    return body.replace("\0", sender)


def _joined(actor: str, kind: str, texts) -> str:
    """``texts``, each a payload and its tail, as ``actor``'s lines of ``kind``."""
    head = f'{{"actor":"{actor}","kind":"{kind}","payload":'
    return head + ("\n" + head).join(texts)


def _op_payload(ev: OpEvent) -> str:
    """An operation's invocation or response payload as ``json`` writes it."""
    rec = ev.rec
    if ev.kind == "op_response" and rec.kind == "write":
        return f'{{"kind":"write","op_id":{rec.op_id}}}'
    value = value_text(rec.argument if ev.kind == "op_invoke" else rec.result, _ENCODE)
    return f'{{"kind":"{rec.kind}","op_id":{rec.op_id},"value":{value}}}'


def _party(dest) -> str:
    """A destination as ``json`` writes it."""
    return str(dest) if type(dest) is int else _ENCODE(dest)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def run(config: SystemConfig, strategy: Strategy, workload: Workload, *,
        rounds: int, seed: int = 0, n_clients: int = 3,
        allow_inadmissible: bool = False, record_trace: bool = True,
        record_messages: bool = False) -> RunResult:
    """Execute one deterministic simulation.

    With ``record_trace`` off the result's ``trace`` stays empty and no
    event or payload is built; its history, probes, violations and protocol
    failures are the same.  ``record_messages`` adds each round's messages
    to the trace, as two ``RoundMessages`` records, so it needs
    ``record_trace``.

    Raises ConfigError before round 1 on malformed input or when the
    configuration is inadmissible and ``allow_inadmissible`` is not set.
    """
    if record_messages and not record_trace:
        raise ConfigError("record_messages needs record_trace")
    for name, x in (("rounds", rounds), ("n_clients", n_clients)):
        if not is_int(x):
            raise ConfigError(f"{name} {x!r} is not an integer")
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

    if isinstance(workload, RandomWorkload):
        workload = workload.expand(rounds, n_clients, seed)
    by_round: dict[int, list[Directive]] = {}  # round -> its directives, by client
    for d in validate_directives(list(workload), rounds, n_clients):
        by_round.setdefault(d.round, []).append(d)

    result = RunResult(config=config, rounds=rounds, seed=seed)
    shared: object = BOTTOM                  # the value of every server not in own
    own: dict[int, object] = {}              # the unrestored servers (module docstring)
    readers: frozenset = frozenset()         # last round's tally.current_reads
    crashed: set[int] = set()
    pending_op: dict[int, OpRecord] = {}     # client -> running operation
    occupied: frozenset = frozenset()        # end-of-previous-round agent positions

    def trace(round_no, phase, kind, actor, payload):
        result.trace.append(TraceEvent(round_no, phase, kind, actor, payload))

    for r in range(1, rounds + 1):
        # --- agent movement (at round start, or during send: moves_in_send) ---
        occ = strategy.occupancy(config, r, occupied, rng_stream(seed, "sched", r))
        pre_send, moves = occ.pre_send, occ.moves
        cured_now = occupied - pre_send      # vacated at this round's start
        if record_trace:
            trace(r, "round_start", "fault_move", "adversary",
                  {"occupied": sorted(pre_send),
                   "cured": sorted(cured_now),
                   "planned_moves": [list(m) for m in moves]})

        # occupied servers send as Byzantine ones in every model
        byzantine = pre_send | cured_now if cured_byzantine else pre_send

        # the cure oracle tells each unrestored server no agent holds
        cured = own.keys() - pre_send if oracle_enabled else frozenset()

        # --- operation injection ------------------------------------------
        invoked = []
        for d in by_round.get(r, ()):
            if d.op == "crash":
                # a crashed client never sends or responds again
                crashed.add(d.client)
                pending_op.pop(d.client, None)
                if record_trace:
                    trace(r, "round_start", "op_invoke", f"c{d.client}", {"kind": "crash"})
                continue
            rec = pending_op[d.client] = OpRecord(
                op_id=len(result.history), client=d.client, kind=d.op,
                argument=d.value if d.op == "write" else None, invoke_round=r)
            invoked.append(rec)
            result.history.append(rec)
            if record_trace:
                result.trace.append(OpEvent(r, "send", "op_invoke", rec))

        # --- send phase ---------------------------------------------------
        # a client broadcasts each operation it starts; the server inbox
        # lists them first, in client order
        client_out = [(rec.client, Write(rec.argument) if rec.kind == "write" else Read())
                      for rec in invoked if rec.client not in crashed]
        # the servers outside own_out send server_send(shared, readers, False),
        # an Echo of shared and a Reply of it to each reader
        own_out: dict[int, tuple] = {}
        for i in sorted(own.keys() | byzantine):
            if i in byzantine:
                out_msgs = strategy.byzantine_outgoing(config, r, i, readers)
                kept = []
                for dest, msg in out_msgs:
                    if not isinstance(msg, (Echo, Reply)):
                        # authenticated channels: a server cannot pose as a client
                        if record_trace:
                            trace(r, "send", "violation", f"s{i}",
                                  {"reason": "forged sender rejected"})
                        continue
                    kept.append((dest, msg))
                own_out[i] = tuple(kept)
            else:
                own_out[i] = server_send(own[i], readers, i in cured)

        # Route each message once.  Inboxes list senders in id order, clients
        # before servers.  Only servers send to clients, and only own_out's
        # servers route: count_servers counts the others, and trace_lines
        # writes their messages from shared_out.
        server_inbox = list(client_out)
        client_inbox: dict[int, list] = {c: [] for c in range(n_clients)
                                         if c not in crashed}
        _route(own_out.items(), server_inbox, client_inbox)
        if record_messages:
            messages = (client_out, own_out, server_send(shared, readers, False),
                        tuple(client_inbox))
            result.trace.append(RoundMessages(r, "send", "send", *messages))

        # --- in-send movement (moves_in_send models) ---------------------------
        post_occupied = occ.post_send
        for src, dst in moves:
            # Departing host: the register value keeps the agent's corruption.
            own[src] = strategy.corrupt_value(r, src, "leave")
            if record_trace:
                trace(r, "send", "fault_move", "adversary", {"from": src, "to": dst})

        # --- receive phase --------------------------------------------------
        if record_messages:
            result.trace.append(RoundMessages(r, "receive", "deliver", *messages))
        listed = list(own_out)  # in id order
        tally = server_receive(Tally(), server_inbox)
        echo_counts = count_servers(tally.echo_vals, listed, shared, n)

        # --- compute phase ---------------------------------------------------
        note = server_compute(tally.current_writes, echo_counts, s_threshold)
        readers = tally.current_reads
        if note.tied_values and record_trace:
            trace(r, "compute", "state_transition", SERVERS,
                  {"diagnostic": "echo threshold tie", "tied": list(note.tied_values)})
        # a write is confirmed in its round; a read is decided from the
        # replies of its reply round, the round after its request, and no other
        for c in sorted(pending_op):
            rec = pending_op[c]
            if rec.kind == "read" and rec.invoke_round == r:
                continue
            del pending_op[c]
            if rec.kind == "write":
                rec.response_round = r
                rec.result = "write_confirmation"
                if record_trace:
                    result.trace.append(OpEvent(r, "compute", "op_response", rec))
                continue
            # a reader counts each server's first Reply to it; shared is
            # still the value the servers outside listed sent
            replies = {i: msg.value for i, msg in reversed(client_inbox[c])
                       if isinstance(msg, Reply)}
            response = client_compute(count_servers(replies, listed, shared, n),
                                      s_threshold)
            if isinstance(response, ReadOk):
                rec.response_round = r
                rec.result = response.value
                if record_trace:
                    result.trace.append(OpEvent(r, "compute", "op_response", rec))
            else:
                rec.failed = True
                failure = {"round": r, "client": c, "op_id": rec.op_id,
                           "reply_counts": [[v, cnt] for v, cnt in response.counts],
                           "qualifying": list(response.qualifying),
                           "threshold": s_threshold}
                result.protocol_failures.append(failure)
                if record_trace:
                    trace(r, "compute", "violation", f"c{c}",
                          dict(failure, reason="protocol_failure"))

        if note.adopted:
            # every server holds the adopted value; the agents' hosts lose it again
            shared = note.value
            own.clear()
        for i in post_occupied:
            own[i] = strategy.corrupt_value(r, i, "compute")

        # --- end-of-round probe -----------------------------------------------
        modal, support = probe_agreement(own, post_occupied, shared, n)
        probe = {"round": r, "modal": modal, "support": support,
                 "non_faulty": n - len(post_occupied),
                 "pre_send_occupied": sorted(pre_send),
                 "byzantine_senders": sorted(byzantine),
                 "end_occupied": sorted(post_occupied)}
        result.probes.append(probe)
        if record_trace:
            trace(r, "end", "probe", "engine", dict(probe))
        if config.admissible and support < n - f:
            violation = {"round": r, "kind": "agreement_probe", "modal": modal,
                         "support": support, "required": n - f}
            result.violations.append(violation)
            if record_trace:
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
    if f < 1:
        raise ConfigError(f"a tightness demo needs f >= 1, got f={f}")
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
              allow_inadmissible=True, record_trace=False)

    failure = res.protocol_failures[0] if res.protocol_failures else None
    ranked = failure["reply_counts"] if failure else []   # ranked by client_compute
    top_two = [c for _, c in ranked[:2]]
    repliers = sum(c for _, c in ranked)
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
