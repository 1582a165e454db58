"""Synchronous round loop: send, receive, compute, with fault injection.

One run executes a fixed number of rounds over n servers and a set of
clients.  All messages sent in a round are delivered in that round's receive
phase (channels are reliable and authenticated).  The adversary relocates its
agents per the fault model, corrupts occupied servers, and substitutes their
outgoing messages; the channel drops each ``Write`` or ``Read`` in them and
records each drop, since a server cannot pose as a client.  The run records
an operation history, per-round agreement probes, any property violations
and failed reads, and the few facts the trace shows that none of those hold
(``RunResult``); it builds no trace event.  ``RunResult.trace_lines``
renders the trace from these records after the run.  A directive's round and
client, and the run's rounds and clients, must be integers.  ``run``
validates the directives it is handed, not those a ``RandomWorkload`` draws,
which are valid as drawn.

A ``Directive`` and a ``RoundMessages`` are NamedTuples.  An ``OpRecord`` and
the ``RunResult``, which ``run`` fills in as it goes, are plain ``__slots__``
classes, and so is a ``RandomWorkload``, which ``run`` tells from a directive
sequence by its type.

Servers receive only broadcasts, so every server gets the same inbox, and a
server keeps only its register value from one round to the next.  A round's
echoes and requests are collected in a fresh ``Tally``; the readers every
server answers in the next send are that tally's ``current_reads``, and in a
model with a cure oracle the servers that know they are cured are the
unrestored ones no agent holds.  So one tally and one adoption decision serve
every server, and a round that adopts a value ends its compute phase with
every server holding it.

The engine therefore keeps one ``shared`` value for all servers and an
``own`` value only for those that may differ.  Invariant: at the end of
round r each server in ``occupied``, the agents' hosts, holds its compute
token ``corrupt_value(r, i, "compute")`` by name, not stored; ``own`` maps
the other unrestored servers, those an agent has left since the last
adoption, to the tokens they were left with; every other server holds
``shared``.  A token is a pure function of its round, server and kind, so
the engine asks for one only where a correct party reads it: when a host
left at round start sends without being Byzantine, and when a round that
adopts nothing writes each host the agents leave into ``own`` and drops the
ones they hold from it.  A round adopting a value makes it ``shared`` and
empties ``own``.  The probe counts the hosts as faulty without their values.
Servers send in classes of one output, each counted (``count_servers``)
once, at its lowest id and with its size: the shared servers, each ``own``
one and each cured host not Byzantine, and the classes of the round's one
``Strategy.byzantine_outgoing`` call; each but the shared class routes once.
A token class, whose servers each send their own token, is routed a class
per server, and only where one of its tokens could count (listed there).  A
client's state is its running operation.  So a round's work, and its
records, grow with ``own``, the classes and the running operations, not
with n, and its corruptions with the cured hosts that send, not with f.
A round's echo tie is one record, and ``trace_lines`` writes it once per
server, s0 to s(n-1).  ``record_messages`` changes what is recorded, not
what is counted: a round's messages are one ``RoundMessages`` record holding
the round's sends (a class member's are its head's, an unlisted token
class is its ids) and its open clients; the deliveries follow from them by
``_route``, and ``trace_lines`` writes both, rendering each distinct output
once a round (``_plan``), so that its text work grows with a round's
outputs and its bytes with its lines.

An agent corrupts each server it holds when the compute phase ends; the one
it holds when the send starts sends as a Byzantine server, so nothing reads
its value then.  Nor is the host it leaves during the send (buhrman)
corrupted: ``own`` and the hosts then lie within the round's Byzantine
senders, so the n - f >= s others echo ``shared`` and the round adopts.  A
view that lets a departing host skip adoption (ROADMAP item 12, stage B)
must store its "leave" token in ``own``.
"""

from __future__ import annotations

import json
import sys
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence, Union

from .adversary import (TOKENS, SplitVote, Strategy, default_token, is_send_token,
                        rng_stream)
from .model import ConfigError, ModelId, SystemConfig, is_int, lookup
from .protocol import (BOTTOM, SERVERS, Echo, Read, ReadOk, Reply, Tally, Write,
                       client_compute, server_compute, server_receive, server_send,
                       value_key)

# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

OPS = ("write", "read", "crash")


class Directive(NamedTuple):
    """One scripted client action; ``round`` is the round its message is sent."""

    round: int
    client: int
    op: str
    value: object = None


class RandomWorkload:
    """Per-round, per-idle-client operation generator.

    ``op_rate`` is the chance an idle client starts an operation in a round;
    ``read_ratio`` splits those between reads and writes.  Written values
    embed (client id, counter) so they are globally unique, which the history
    checker requires.  Not a tuple: ``run`` tells it from a directive
    sequence by its type.
    """

    __slots__ = ("op_rate", "read_ratio")

    def __init__(self, op_rate: float = 0.2, read_ratio: float = 0.5) -> None:
        self.op_rate, self.read_ratio = op_rate, read_ratio

    def __repr__(self):
        return f"RandomWorkload(op_rate={self.op_rate!r}, read_ratio={self.read_ratio!r})"

    def expand(self, rounds: int, n_clients: int, seed: int) -> list[Directive]:
        """The directives this workload draws in a run, before round 1.

        Round r draws from the stream ``("workload", r)``, client by client,
        for each client idle in that round.  A write takes one round and a
        read two, whatever the servers do, so when a client is next idle is
        known as soon as its operation is drawn.  The draws are valid
        directives for ``rounds`` and ``n_clients`` whatever the rates, in
        ``validate_directives``' order, so ``run`` does not check them again.
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

class OpRecord:
    """One operation of ``kind`` "write" or "read".

    ``argument`` is the written value (None for a read), ``result`` a read's
    returned value, ``invoke_round`` the round its first message was sent,
    and ``failed`` whether a read finished with no unique value.  A plain
    ``__slots__`` class: ``run`` fills in the response fields later.
    """

    __slots__ = ("op_id", "client", "kind", "argument", "result", "invoke_round",
                 "response_round", "failed")

    def __init__(self, op_id: int, client: int, kind: str, argument: object = None,
                 result: object = None, invoke_round: int = 0,
                 response_round: Optional[int] = None, failed: bool = False) -> None:
        self.op_id, self.client, self.kind = op_id, client, kind
        self.argument, self.result, self.invoke_round = argument, result, invoke_round
        self.response_round, self.failed = response_round, failed

    def as_dict(self) -> dict:
        return {
            "op_id": self.op_id, "client": self.client, "kind": self.kind,
            "argument": self.argument, "result": self.result,
            "invoke_round": self.invoke_round,
            "response_round": self.response_round, "failed": self.failed,
        }

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    __hash__ = None  # equal by its fields, which run() assigns

    def __repr__(self):
        return f"OpRecord({', '.join(f'{k}={v!r}' for k, v in self.as_dict().items())})"


class RoundMessages(NamedTuple):
    """A round's messages, from which its send and deliver lines are written.

    ``clients`` holds the clients' ``(client, msg)`` broadcasts, ``own_out``
    the own and Byzantine servers' output by id, ``tokens`` the unlisted
    token class's ids, ``shared_out`` each other server's output, and
    ``open_clients`` the clients a message can reach.  Channels are
    reliable, so the deliveries are ``_route`` over the sends.
    """

    round: int
    clients: list
    own_out: dict
    shared_out: tuple
    open_clients: tuple
    tokens: tuple


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str).encode
_ENCODE_STR = json.encoder.encode_basestring_ascii


def value_text(value, encode) -> str:
    """``encode(value)``, for an ASCII-escaping ``encode``; no call for a str or None."""
    if isinstance(value, str):
        return _ENCODE_STR(value)
    return "null" if value is None else encode(value)


class RunResult:
    """What ``run`` records, filled in round by round: a plain ``__slots__`` class.

    ``trace_lines`` renders the trace from these records; the last four hold
    what the trace shows and no other record does.
    """

    __slots__ = ("config", "rounds", "seed", "history", "probes", "violations",
                 "protocol_failures", "crash_rounds", "forged_drops", "echo_ties",
                 "messages")

    def __init__(self, config: SystemConfig, rounds: int, seed: int) -> None:
        self.config, self.rounds, self.seed = config, rounds, seed
        self.history = []            # OpRecord, in invoke order
        self.probes = []             # per-round dicts
        self.violations = []         # agreement-probe dips
        self.protocol_failures = []
        self.crash_rounds = {}       # client -> the round it crashed in
        self.forged_drops = {}       # round -> a server id per message dropped, sorted
        self.echo_ties = {}          # round -> the values tied at the echo threshold
        self.messages = []           # a RoundMessages a round, with record_messages

    @property
    def crashed_clients(self) -> frozenset:
        return frozenset(self.crash_rounds)

    def trace_lines(self, out) -> None:
        """Write the trace, rendered from the records, to the text stream ``out``.

        Each line is an event's five fields, keys sorted, compact: actor,
        kind, payload, phase, round.  Every actor, kind and phase is an
        identifier, so a line is an f-string head, the payload and the
        phase's tail.  A round's lines are joined and written with one
        ``out.write``, each ending in a newline, so the most trace text held
        at once is one round's.  A round, from its probe and the other
        records, is: the hosts, cured servers and planned moves
        (``fault_move``, derived from this probe's and the last one's hosts);
        each client's ``op_invoke``, or its crash after any operation it
        started; the forged-sender drops, the send lines, each planned move
        and the deliver lines; the echo tie, once per server, s0 to s(n-1);
        each client's ``op_response`` or failed read; the probe and its
        violation.  The servers' names are built only for a trace with a tie
        or messages, so a trace that names no server costs nothing in n.

        A ``RoundMessages`` is written by ``_message_lines``, senders in
        inbox order: each client with its broadcast, then each server in id
        order with its ``own_out`` entry, token or ``shared_out``.  The send
        lines are a line per sender and message; the deliver lines are
        ``_route`` over the same outputs, the server row once per server and
        then each open client's.  Each distinct output is rendered once a
        round, as a ``_plan`` with ``"\\0"`` for its sender's id, and each
        sender then replaces the id in its plan's texts.  The token class's
        plan is ``shared_out``'s with the token, its server a ``"\\0"`` too,
        written for every value.
        """
        # every server's name, built only for a trace with a line per server
        ids = ([str(i) for i in range(self.config.n)]
               if self.messages or self.echo_ties else [])
        servers = ["s" + sid for sid in ids]
        starts: dict = {}  # round -> [(client, OpRecord, or None for a crash)]
        ends: dict = {}    # round -> [(client, responding OpRecord or failure)]
        for rec in self.history:
            starts.setdefault(rec.invoke_round, []).append((rec.client, rec))
            if rec.response_round is not None:
                ends.setdefault(rec.response_round, []).append((rec.client, rec))
        for client, round_no in self.crash_rounds.items():
            starts.setdefault(round_no, []).append((client, None))
        for failure in self.protocol_failures:
            ends.setdefault(failure["round"], []).append((failure["client"], failure))
        violations = {v["round"]: v for v in self.violations}
        left = []  # the last round's end_occupied
        for probe in self.probes:
            round_no = probe["round"]
            start, send, receive, compute, end = (
                f',"phase":"{phase}","round":{round_no}}}'
                for phase in ("round_start", "send", "receive", "compute", "end"))
            hosts, kept = probe["pre_send_occupied"], probe["end_occupied"]
            cured = [] if left == hosts else sorted(set(left).difference(hosts))
            moves = [] if kept == hosts else list(zip(
                sorted(set(hosts).difference(kept)), sorted(set(kept).difference(hosts))))
            lines = [_joined("adversary", "fault_move", (_ENCODE(
                {"cured": cured, "occupied": hosts, "planned_moves": moves}) + start,))]
            # a client's crash follows an operation it started in the round
            for client, rec in sorted(starts.get(round_no, ()), key=itemgetter(0)):
                lines.append(_joined(f"c{client}", "op_invoke", (
                    '{"kind":"crash"}' + start if rec is None
                    else _op_payload(rec, rec.argument) + send,)))
            lines += [_joined(f"s{i}", "violation",
                              ('{"reason":"forged sender rejected"}' + send,))
                      for i in self.forged_drops.get(round_no, ())]
            sent, delivered = (_message_lines(self.messages[round_no - 1], ids, servers,
                                              send, receive)
                               if self.messages else ((), ()))
            lines += sent
            lines += [_joined("adversary", "fault_move", (f'{{"from":{a},"to":{b}}}' + send,))
                      for a, b in moves]
            lines += delivered
            tied = self.echo_ties.get(round_no)
            if tied:
                text = _ENCODE({"diagnostic": "echo threshold tie", "tied": tied}) + compute
                lines += [_joined(name, "state_transition", (text,)) for name in servers]
            for client, ev in sorted(ends.get(round_no, ()), key=itemgetter(0)):
                if type(ev) is dict:  # a failed read
                    kind, payload = "violation", _ENCODE(dict(ev, reason="protocol_failure"))
                elif ev.kind == "write":
                    kind, payload = "op_response", f'{{"kind":"write","op_id":{ev.op_id}}}'
                else:
                    kind, payload = "op_response", _op_payload(ev, ev.result)
                lines.append(_joined(f"c{client}", kind, (payload + compute,)))
            lines.append(_joined("engine", "probe", (_ENCODE(probe) + end,)))
            if round_no in violations:
                lines.append(_joined("engine", "violation",
                                     (_ENCODE(violations[round_no]) + end,)))
            lines.append("")  # the last line's newline, without copying the text
            out.write("\n".join(lines))
            left = kept

    @property
    def min_support(self) -> Optional[int]:
        if not self.probes:
            return None
        return min(p["support"] for p in self.probes)


# ---------------------------------------------------------------------------
# Agreement probe
# ---------------------------------------------------------------------------

def count_servers(values: dict, votes: dict) -> dict:
    """Value -> number of the servers that hold or send it.

    ``values`` maps the lowest id of each class of servers to the class's
    value, which counts ``votes.get(id, 1)`` times: a ``Counter`` over the
    servers in id order, down to which of equal values (1, True, 1.0) is the
    key."""
    counts: dict = {}
    for sid in sorted(values):
        counts[values[sid]] = counts.get(values[sid], 0) + votes.get(sid, 1)
    return counts


def probe_agreement(values: dict, faulty: frozenset,
                    shared_value: object, n: int) -> tuple[object, int]:
    """Modal value among non-faulty servers and its support.

    Every ``faulty`` server counts as listed, whether or not ``values``
    names it, and each of the servers 0..n-1 that neither lists holds
    ``shared_value``.  So the cost grows with ``values``' entries, not with
    ``faulty``.  In admissible runs the support must reach n - f at the end
    of every round; the caller records a violation otherwise.
    """
    at = 0  # the lowest of the others, which count as one class
    while at in values or at in faulty:
        at += 1
    counted = {i: v for i, v in values.items() if i not in faulty}
    others = n - len(faulty) - len(counted)
    if at < n:
        counted[at] = shared_value
    counts = count_servers(counted, {at: others})
    if len(counts) == 1:
        (modal,) = counts.items()
        return modal
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


def _message_head(cls) -> str:
    """A message type's trace text from ``,"msg":`` to its value, with
    ``"\\0"`` for its sender's id: the sender under "server" (Echo, Reply)
    or "client" (Write, Read), then its type, keys sorted."""
    role = "server" if issubclass(cls, (Echo, Reply)) else "client"
    return f',"msg":{{"{role}":\0,"type":{_ENCODE(cls.__name__.lower())}'


_HEADS = {cls: _message_head(cls) for cls in (Echo, Write, Read, Reply)}


def _body(msg, value: Optional[str] = None) -> str:
    """A message's trace text from ``,"msg":`` on, with ``"\\0"`` for its
    sender's id; ``value``, if given, is the text written for its value."""
    head = _HEADS.get(type(msg)) or _message_head(type(msg))
    if isinstance(msg, Read):
        return head + "}}"
    return f'{head},"value":{value_text(msg.value, _ENCODE) if value is None else value}}}}}'


def _plan(actor: str, out_msgs, inbox: dict, send: str, receive: str,
          value: Optional[str] = None) -> tuple:
    """A sender's output as text, with ``"\\0"`` for its id: its send lines
    as ``actor``, its deliver texts for the servers, and a ``(client, text)``
    for each client it reaches, routed by ``_route`` with ``"\\0"`` as
    sender; ``inbox`` is ``_route``'s client inbox, left empty.  ``value``,
    if given, is written for every message's value (``_body``)."""
    routed, texts = [], []
    for dest, msg in out_msgs:
        body = _body(msg, value)
        routed.append((dest, body))
        texts.append(f'{{"dest":{_party(dest)}{body}{send}')
    to_servers, to_clients = [], []
    _route((("\0", routed),), to_servers, inbox)
    for c, pairs in inbox.items():
        if pairs:
            for i, body in pairs:
                to_clients.append((c, f'{{"from":{i}{body}{receive}'))
            pairs.clear()
    return (_joined(actor + "\0", "send", texts),
            [f'{{"from":{i}{body}{receive}' for i, body in to_servers], to_clients)


def _message_lines(msgs: RoundMessages, ids: list, servers: list, send: str,
                   receive: str):
    """A round's send lines and deliver lines, from one ``_plan`` per output.

    The senders come in inbox order: each client with its broadcast, then
    each server in id order with its ``own_out`` entry, token or
    ``shared_out``.  A server's plan is keyed by its output's ``id`` (the
    record holds it for the call), so a class's members share one; the token
    class's, ``shared_out``'s with the token for every value, by its ids'
    tuple; and a client's by its message's text, so the readers share one.
    Each sender then costs one ``str.replace`` for its send lines and one
    per message.  The server row is written once per server, then each open
    client's.
    """
    plans: dict = {}   # id(output), or a client message's text -> its _plan
    inbox = {c: [] for c in msgs.open_clients}  # _plan's, left empty, then each client's deliveries
    senders = []       # (id, plan) of each sender, in inbox order
    for c, msg in msgs.clients:
        body = _body(msg)
        plan = plans.get(body)
        if plan is None:
            plan = plans[body] = _plan("c", ((SERVERS, msg),), inbox, send, receive)
        senders.append((str(c), plan))
    own_out, shared_out = msgs.own_out, msgs.shared_out
    if msgs.tokens:  # the token's "\0" kept raw, where json writes \u0000
        token = _ENCODE_STR(default_token(msgs.round, "\0", "send")).replace(r"\u0000", "\0")
        plans[id(msgs.tokens)] = _plan("s", shared_out, inbox, send, receive, token)
        own_out = dict.fromkeys(msgs.tokens, msgs.tokens) | own_out
    for i, sid in enumerate(ids):
        out_msgs = own_out.get(i, shared_out)
        if out_msgs:
            plan = plans.get(id(out_msgs))
            if plan is None:
                plan = plans[id(out_msgs)] = _plan("s", out_msgs, inbox, send, receive)
            senders.append((sid, plan))
    sent, to_servers = [], []
    for sid, (block, server_texts, client_texts) in senders:
        sent.append(block.replace("\0", sid))
        for text in server_texts:
            to_servers.append(text.replace("\0", sid))
        for c, text in client_texts:
            inbox[c].append(text.replace("\0", sid))
    delivered = [_joined(name, "deliver", to_servers) for name in servers] if to_servers else []
    delivered += [_joined(f"c{c}", "deliver", texts) for c, texts in inbox.items() if texts]
    return sent, delivered


def _joined(actor: str, kind: str, texts) -> str:
    """``texts``, each a payload and its tail, as ``actor``'s lines of ``kind``."""
    head = f'{{"actor":"{actor}","kind":"{kind}","payload":'
    return head + ("\n" + head).join(texts)


def _op_payload(rec: OpRecord, value) -> str:
    """An invocation's payload, or a read's response's, as ``json`` writes it:
    ``value`` is the operation's argument or the read's result."""
    return (f'{{"kind":"{rec.kind}","op_id":{rec.op_id},'
            f'"value":{value_text(value, _ENCODE)}}}')


def _party(dest) -> str:
    """A destination as ``json`` writes it."""
    return str(dest) if type(dest) is int else _ENCODE(dest)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def run(config: SystemConfig, strategy: Strategy, workload: Workload, *,
        rounds: int, seed: int = 0, n_clients: int = 3,
        allow_inadmissible: bool = False, record_messages: bool = False) -> RunResult:
    """Execute one deterministic simulation.

    The result holds records, not a trace: ``RunResult.trace_lines``
    renders the trace from them.  ``record_messages`` adds each round's
    messages to the records, as one ``RoundMessages``; nothing else it
    records or counts changes.

    Raises ConfigError before round 1 on malformed input or when the
    configuration is inadmissible and ``allow_inadmissible`` is not set.
    """
    for name, x in (("rounds", rounds), ("n_clients", n_clients)):
        if not is_int(x):
            raise ConfigError(f"{name} {x!r} is not an integer")
    if rounds < 0:
        raise ConfigError(f"rounds must be >= 0, got {rounds}")
    if n_clients < 1:
        raise ConfigError(f"need at least one client, got {n_clients}")
    if n_clients > sys.maxsize:
        raise ConfigError(f"need at most {sys.maxsize} clients, got {n_clients}")
    if not config.admissible and not allow_inadmissible:
        raise ConfigError(
            f"n={config.n} <= alpha*f={config.params.alpha * config.f} for model "
            f"{config.params.model}; pass allow_inadmissible to run a bound demo")

    oracle_enabled = config.params.oracle_enabled
    cured_byzantine = config.params.cured_byzantine
    s_threshold = config.selection_threshold
    n, f = config.n, config.f

    if isinstance(workload, RandomWorkload):
        directives = workload.expand(rounds, n_clients, seed)  # valid as drawn
    else:
        directives = validate_directives(list(workload), rounds, n_clients)
    by_round: dict[int, list[Directive]] = {}  # round -> its directives, by client
    for d in directives:
        by_round.setdefault(d.round, []).append(d)

    result = RunResult(config=config, rounds=rounds, seed=seed)
    shared: object = BOTTOM                  # the value of every server not in own
    own: dict[int, object] = {}              # the unrestored non-hosts (module docstring)
    readers: frozenset = frozenset()         # last round's tally.current_reads
    crashed = result.crash_rounds            # client -> the round it crashed
    pending_op: dict[int, OpRecord] = {}     # client -> running operation
    occupied: frozenset = frozenset()        # end-of-previous-round hosts, tokens by name

    for r in range(1, rounds + 1):
        # --- agent movement (at round start, or during send: moves_in_send) ---
        occ = strategy.occupancy(config, r, occupied, rng_stream(seed, "sched", r))
        pre_send = occ.pre_send
        cured_now = occupied - pre_send      # vacated at this round's start

        # occupied servers send as Byzantine ones in every model
        byzantine = pre_send | cured_now if cured_byzantine else pre_send

        # --- operation injection ------------------------------------------
        invoked = []
        for d in by_round.get(r, ()):
            if d.op == "crash":
                # a crashed client never sends or responds again
                crashed[d.client] = r
                pending_op.pop(d.client, None)
                continue
            rec = pending_op[d.client] = OpRecord(
                op_id=len(result.history), client=d.client, kind=d.op,
                argument=d.value if d.op == "write" else None, invoke_round=r)
            invoked.append(rec)
            result.history.append(rec)

        # --- send phase ---------------------------------------------------
        # a client broadcasts each operation it starts; the server inbox
        # lists them first, in client order
        client_out = [(rec.client, Write(rec.argument) if rec.kind == "write" else Read())
                      for rec in invoked if rec.client not in crashed]
        # each class of one output counts at its lowest id with its size, the
        # shared servers' from sharing; with an oracle an own sender is cured,
        # and so is a host left at round start, which is silent then and
        # else sends last round's token
        out = {i: server_send(own[i], readers, oracle_enabled) for i in own.keys() - byzantine}
        out.update((i, () if oracle_enabled else server_send(
            strategy.corrupt_value(r - 1, i, "compute"), readers, False))
            for i in cured_now - byzantine)
        busy = own.keys() | occupied | byzantine
        at = 0  # the lowest of the others, which hold shared: their class
        while at in busy:
            at += 1
        votes, sharing = {at: n - len(busy)}, {at: shared} if at < n else {}
        senders = sorted(byzantine)
        classes = strategy.byzantine_outgoing(config, r, senders, readers) if senders else ()
        tokens, forged = [], []
        for ids, msgs in classes:
            if msgs is TOKENS:
                tokens += ids
                continue
            # authenticated channels: a server cannot pose as a client
            kept = tuple(pair for pair in msgs if isinstance(pair[1], (Echo, Reply)))
            forged += [i for i in ids for _ in range(len(msgs) - len(kept))]
            out[min(ids)], votes[min(ids)] = kept, len(ids)
        # own's values are compute corruptions, never a send token
        if tokens and (s_threshold <= 1 or len(tokens) < len(senders)
                       or is_send_token(shared, r)):
            out.update((i, server_send(strategy.corrupt_value(r, i, "send"), readers, False))
                       for i in tokens)
            tokens = []
        if forged:
            result.forged_drops[r] = sorted(forged)

        # route each class's messages once, clients' first (count_servers sorts)
        server_inbox = list(client_out)
        client_inbox = {c: [] for c in range(n_clients) if c not in crashed}
        _route(out.items(), server_inbox, client_inbox)
        if record_messages:  # each server's output, its class head's; token senders' ids
            own_out = out | {i: out[min(ids)] for ids, msgs in classes
                             if msgs is not TOKENS for i in ids}
            result.messages.append(RoundMessages(r, client_out, own_out,
                                                 server_send(shared, readers, False),
                                                 tuple(client_inbox), tuple(tokens)))

        # --- in-send movement (moves_in_send models: no leave corruption) ------
        post_occupied = occ.post_send

        # --- receive phase --------------------------------------------------
        tally = server_receive(Tally(), server_inbox)
        echo_counts = count_servers({**tally.echo_vals, **sharing}, votes)

        # --- compute phase ---------------------------------------------------
        note = server_compute(tally.current_writes, echo_counts, s_threshold)
        readers = tally.current_reads
        if note.tied_values:
            result.echo_ties[r] = note.tied_values
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
                continue
            # a reader counts each server's first Reply to it, and a failed
            # read lists every value: each token sender replied its token
            replies = {i: msg.value for i, msg in reversed(client_inbox[c])
                       if isinstance(msg, Reply)}
            replies.update(sharing)
            response = client_compute(count_servers(replies, votes), s_threshold)
            if tokens and not isinstance(response, ReadOk):
                replies.update((i, strategy.corrupt_value(r, i, "send")) for i in tokens)
                response = client_compute(count_servers(replies, votes), s_threshold)
            if isinstance(response, ReadOk):
                rec.response_round = r
                rec.result = response.value
            else:
                rec.failed = True
                result.protocol_failures.append(
                    {"round": r, "client": c, "op_id": rec.op_id,
                     "reply_counts": [[v, cnt] for v, cnt in response.counts],
                     "qualifying": list(response.qualifying),
                     "threshold": s_threshold})

        if note.adopted:
            # every server holds the adopted value; the agents' hosts lose it again
            shared = note.value
            own.clear()
        else:
            # a host the agents leave keeps the token they named it by
            for i in occupied - post_occupied:
                own[i] = strategy.corrupt_value(r - 1, i, "compute")
            for i in post_occupied:
                own.pop(i, None)

        # --- end-of-round probe -----------------------------------------------
        modal, support = probe_agreement(own, post_occupied, shared, n)
        result.probes.append({"round": r, "modal": modal, "support": support,
                              "non_faulty": n - len(post_occupied),
                              "pre_send_occupied": sorted(pre_send),
                              "byzantine_senders": senders,
                              "end_occupied": sorted(post_occupied)})
        if config.admissible and support < n - f:
            result.violations.append({"round": r, "kind": "agreement_probe", "modal": modal,
                                      "support": support, "required": n - f})

        occupied = post_occupied

    return result


# ---------------------------------------------------------------------------
# Tightness demonstrations
# ---------------------------------------------------------------------------

HONEST_VALUE = "written-value"
FAKE_VALUE = "planted-value"
MAX_DEMO_F = 100_000  # the largest f a demo lists: about 1 s and 120 MB at n = 4f


def tightness_demo(model: ModelId, f: int = 2) -> dict:
    """Reproduce the boundary (n = alpha*f) indistinguishability scenario.

    A value is written, then read; the scripted split-vote schedule balances
    the reader's reply multiset between the written and a planted value, so
    the count-based read finds no unique value and fails.  It draws nothing.
    Each wave lists its f servers, so f is at most ``MAX_DEMO_F``.
    """
    if not is_int(f):
        raise ConfigError(f"f {f!r} is not an integer")
    if f < 1:
        raise ConfigError(f"a tightness demo needs f >= 1, got f={f}")
    if f > MAX_DEMO_F:
        raise ConfigError(f"a tightness demo lists at most {MAX_DEMO_F} servers a wave, "
                          f"got f={f}")
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
    res = run(config, strategy, workload, rounds=3, n_clients=2,
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
