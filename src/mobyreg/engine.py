"""Synchronous round loop: send, receive, compute, with fault injection.

One run executes a fixed number of rounds over n servers and a set of
clients.  All messages sent in a round are delivered in that round's receive
phase (channels are reliable and authenticated).  The adversary relocates its
agents per the fault model, corrupts occupied servers, and substitutes their
outgoing messages.  The run records an operation history, per-round agreement
probes, an event trace, and any property violations.

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
and lets the agents corrupt their hosts again.  A round routes its messages
once, into one server inbox and one inbox per client: those of the ``own``
and Byzantine servers, or with ``record_messages`` those of every server.
The traced deliveries are those inboxes, and the echo tally and each read's
replies are counted from them.  The shared servers count once, with their
number, at the lowest shared id (``count_servers``): in the echo tally, in
each read's replies and in the agreement probe.  A client's state is its
running operation: a write is broadcast and confirmed in one round, and a
read is decided from the replies of the round after its request.  So a
round's work grows with f and the running operations, not with n; only
``--trace-messages`` events do.  An event with actor ``servers`` stands for
every server, whatever its kind: a broadcast's delivery, or the echo-tie
diagnostic, is one event in memory, and ``trace_lines`` writes it once per
server, s0 to s(n-1).  A send or delivery is a ``MessageEvent`` that holds
the message and builds no payload dict: ``trace_lines`` splices its line
from the message, and its ``payload`` is built only when read.
``trace_lines`` writes to a stream a round at a time, one write per round,
so the most trace text held at once is one round's.

An agent corrupts the server it leaves during the send and each server it
holds when the compute phase ends; the one it holds when the send starts
sends as a Byzantine server, so nothing reads its value then.  A corruption
is drawn when a correct party first reads it: ``own`` holds a marker naming
the draw's stream, and the send of a server that is neither Byzantine nor
cured, or the end-of-round probe of a server no agent holds, draws it with
the same call and the same stream name.  Streams are keyed, so a draw made
late, in another order or not at all changes no other draw.  Most
corruptions are overwritten unread, by the next adoption.  In admissible
garay, sasaki and buhrman runs no corruption is drawn at all; in bonnet,
only those its cured servers send.
"""

from __future__ import annotations

import json
from itertools import groupby
from operator import attrgetter
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

from .adversary import SplitVote, Strategy, rng_stream
from .model import ConfigError, ModelId, SystemConfig, lookup
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


class MessageEvent(NamedTuple):
    """A send or delivery: the message itself, not its payload dict.

    ``key`` is ``"dest"`` for a send and ``"from"`` for a delivery, ``party``
    the destination or the sender under that key, and ``sender`` the id the
    channel supplied.  ``payload`` builds the ``TraceEvent`` payload when read.
    """

    round: int
    phase: str
    kind: str
    actor: str
    key: str
    party: object
    sender: int
    msg: object

    @property
    def payload(self) -> dict:
        return {self.key: self.party, "msg": _msg_payload(self.msg, self.sender)}


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str).encode


@dataclass
class RunResult:
    config: SystemConfig
    rounds: int
    seed: int
    history: list = field(default_factory=list)       # OpRecord
    trace: list = field(default_factory=list)         # TraceEvent, MessageEvent
    probes: list = field(default_factory=list)        # per-round dicts
    violations: list = field(default_factory=list)    # agreement-probe dips etc.
    protocol_failures: list = field(default_factory=list)
    crashed_clients: frozenset = frozenset()

    def trace_lines(self, out) -> None:
        """Write the trace to the text stream ``out`` as JSON lines, a round at a time.

        Each line is an event's five fields, keys sorted, compact.  A round's
        lines are rendered, joined and written with one ``out.write``, each
        ending in a newline, so the most trace text held at once is one
        round's.  Sorted, the keys come as actor, kind, payload, phase, round,
        so a line is spliced from a cached head, the encoded payload and the
        phase's tail.  A ``MessageEvent``'s payload is spliced too, as
        ``json`` would write its ``payload`` dict: ``{"<key>":<party>,"msg":
        {"<role>":<sender>`` and the rest of the message, which is encoded
        once per message object in a round (cache keyed by ``id``; every
        event holds its message for the call).  A party that is not a plain
        ``int`` goes through the encoder.  An event with actor ``servers``
        stands for every server, whatever its kind: a row of such events of
        one kind, round and phase is written server by server, s0 to s(n-1),
        each server's lines in event order, each payload encoded once.
        """
        heads: dict = {}
        bodies: dict = {}  # id(msg) -> (text before the sender, text after it)
        server_names = [f"s{i}" for i in range(self.config.n)]

        def head(actor, kind):
            text = heads.get((actor, kind))
            if text is None:
                text = heads[actor, kind] = (
                    f'{{"actor":{_ENCODE(actor)},"kind":{_ENCODE(kind)},"payload":')
            return text

        def payload(ev):
            if type(ev) is not MessageEvent:
                return _ENCODE(ev.payload)
            body = bodies.get(id(ev.msg))
            if body is None:
                # the sender is the first key, so sender 0's text frames any sender's
                before, _, after = _ENCODE(_msg_payload(ev.msg, 0)).partition(":0")
                body = bodies[id(ev.msg)] = (f',"msg":{before}:', after + "}")
            party = ev.party
            if type(party) is not int:
                party = _ENCODE(party)
            return f'{{"{ev.key}":{party}{body[0]}{ev.sender}{body[1]}'

        for round_no, events in groupby(self.trace, attrgetter("round")):
            round_text = _ENCODE(round_no)
            bodies.clear()  # messages are built per round
            lines = []
            for phase, events in groupby(events, attrgetter("phase")):
                tail = f',"phase":{_ENCODE(phase)},"round":{round_text}}}'
                # rows of "servers" events of one kind, and of other events
                for kind, row in groupby(events,
                                         lambda ev: ev.actor == SERVERS and ev.kind):
                    if kind:
                        row = [payload(ev) + tail for ev in row]
                        for name in server_names:
                            server_head = head(name, kind)
                            lines.append(server_head + ("\n" + server_head).join(row))
                    else:
                        lines += [head(ev.actor, ev.kind) + payload(ev) + tail
                                  for ev in row]
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

class _Unread:
    """A corruption not yet drawn: the ``(kind, round)`` of its stream.

    The server is the key it is stored under in ``own``, so one marker
    stands for every server the agents hold when a round's compute ends.
    """

    __slots__ = ("kind", "round")

    def __init__(self, kind: str, round_no: int):
        self.kind = kind
        self.round = round_no


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

    if record_messages:
        events = result.trace
        server_names = [f"s{i}" for i in range(n)]
        client_names = [f"c{c}" for c in range(n_clients)]

    def read(i):
        """Server i's own value, drawing an agent's corruption when first read."""
        value = own[i]
        if type(value) is _Unread:
            value = own[i] = strategy.corrupt_value(
                value.round, i, rng_stream(seed, value.kind, value.round, i))
        return value

    for r in range(1, rounds + 1):
        # --- agent movement (at round start, or during send: moves_in_send) ---
        occ = strategy.occupancy(config, r, occupied, rng_stream(seed, "sched", r))
        pre_send, moves = occ.pre_send, occ.moves
        cured_now = occupied - pre_send      # vacated at this round's start
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
                trace(r, "round_start", "op_invoke", f"c{d.client}", {"kind": "crash"})
                continue
            rec = pending_op[d.client] = OpRecord(
                op_id=len(result.history), client=d.client, kind=d.op,
                argument=d.value if d.op == "write" else None, invoke_round=r)
            invoked.append(rec)
            result.history.append(rec)
            trace(r, "send", "op_invoke", f"c{d.client}",
                  {"op_id": rec.op_id, "kind": d.op, "value": d.value})

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
                out_msgs = strategy.byzantine_outgoing(
                    config, r, i, readers, rng_stream(seed, "byz", r, i))
                kept = []
                for dest, msg in out_msgs:
                    if not isinstance(msg, (Echo, Reply)):
                        # authenticated channels: a server cannot pose as a client
                        trace(r, "send", "violation", f"s{i}",
                              {"reason": "forged sender rejected"})
                        continue
                    kept.append((dest, msg))
                own_out[i] = tuple(kept)
            elif i in cured:
                own_out[i] = server_send(own[i], readers, True)  # reads no value
            else:
                own_out[i] = server_send(read(i), readers, False)

        # Route each message once.  Inboxes list senders in id order, clients
        # before servers, and every server gets the same inbox.  Only servers
        # send to clients, and a destination reaches a client only if it is an
        # int: True equals 1 but names no client.  Untraced, only own_out's
        # servers route; count_servers counts the others.
        server_inbox = list(client_out)
        client_inbox: dict[int, list] = {c: [] for c in range(n_clients)
                                         if c not in crashed}
        senders = own_out.items()
        if record_messages:
            shared_out = server_send(shared, readers, False)
            senders = [(i, own_out.get(i, shared_out)) for i in range(n)]
            for c, msg in client_out:
                events.append(MessageEvent(r, "send", "send", client_names[c],
                                           "dest", SERVERS, c, msg))
        for i, out_msgs in senders:
            for dest, msg in out_msgs:
                if record_messages:
                    events.append(MessageEvent(r, "send", "send", server_names[i],
                                               "dest", dest, i, msg))
                if dest == SERVERS:
                    server_inbox.append((i, msg))
                elif type(dest) is int and dest in client_inbox:
                    client_inbox[dest].append((i, msg))

        # --- in-send movement (moves_in_send models) ---------------------------
        post_occupied = occ.post_send
        for src, dst in moves:
            # Departing host: the register value keeps the agent's corruption.
            own[src] = _Unread("corrupt-leave", r)
            trace(r, "send", "fault_move", "adversary", {"from": src, "to": dst})

        # --- receive phase --------------------------------------------------
        if record_messages:
            for i, msg in server_inbox:
                events.append(MessageEvent(r, "receive", "deliver", SERVERS,
                                           "from", i, i, msg))
            for c, inbox in client_inbox.items():
                for i, msg in inbox:
                    events.append(MessageEvent(r, "receive", "deliver", client_names[c],
                                               "from", i, i, msg))
        listed = list(own_out)  # in id order
        tally = server_receive(Tally(), server_inbox)
        echo_counts = count_servers(tally.echo_vals, listed, shared, n)

        # --- compute phase ---------------------------------------------------
        note = server_compute(tally.current_writes, echo_counts, s_threshold)
        readers = tally.current_reads
        if note.tied_values:
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
                trace(r, "compute", "op_response", f"c{c}",
                      {"op_id": rec.op_id, "kind": "write"})
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
                trace(r, "compute", "op_response", f"c{c}",
                      {"op_id": rec.op_id, "kind": "read", "value": response.value})
            else:
                rec.failed = True
                failure = {"round": r, "client": c, "op_id": rec.op_id,
                           "reply_counts": [[v, cnt] for v, cnt in response.counts],
                           "qualifying": list(response.qualifying),
                           "threshold": s_threshold}
                result.protocol_failures.append(failure)
                trace(r, "compute", "violation", f"c{c}",
                      dict(failure, reason="protocol_failure"))

        if note.adopted:
            # every server holds the adopted value; the agents' hosts lose it again
            shared = note.value
            own.clear()
        own.update(dict.fromkeys(post_occupied, _Unread("corrupt-compute", r)))

        # --- end-of-round probe -----------------------------------------------
        for i, value in own.items():
            if type(value) is _Unread and i not in post_occupied:
                read(i)
        modal, support = probe_agreement(own, post_occupied, shared, n)
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
              allow_inadmissible=True)

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
