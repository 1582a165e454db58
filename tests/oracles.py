"""Reference checkers that the fast ones in ``mobyreg.checker`` are tested against.

``cluster_graph_ordering`` builds the precedence graph of write clusters pair
by pair and searches it for a cycle, in O(ops²) time and memory.
``validity_by_definition`` transcribes the validity definition, testing every
write against every read.  Both assume unique written values.
``brute_force_linearizable`` enumerates every precedence-respecting total
order of a small history.
``trace_line`` encodes one ``TraceEvent`` on its own, the reference for
``RunResult.trace_lines``, which renders a run's trace from its records;
``trace_text`` is what a result's ``trace_lines`` writes, as a string, and
``trace_events`` the events it writes, one per line.
``per_server_run`` is the round loop that ``mobyreg.engine.run`` replaced:
a value, pending reads and a cure flag kept for each server, every protocol
phase called for each of them, the agreement probe counted server by server,
a state machine for each client that queues, sends, collects replies and
finishes its operations in every round, and a random workload drawn inside
the round loop from each client's state, where ``run`` expands it before
round 1.  It asks the Byzantine hook once a round and gives each sender of
a class its own output, where ``run`` counts a class once.  It appends each
event to its result's own list as it happens, and its ``trace_lines`` writes
that list a ``trace_line`` per event.  ``run`` keeps
only a server's value and a client's running operation, and takes the
readers, cure flags and a read's reply-round inbox as round data; it must
give the same artifacts, byte for byte.
``mt_rng_stream`` is the reference stream derivation: the first 8 bytes of
the SHA-256 of the stream's name seed a ``random.Random``.  The golden
digests were recorded with these streams, and ``mobyreg.adversary.rng_stream``
must return a generator in the same state for every name.
``send_moves`` pairs an ``Occupancy``'s in-send relocations, which ``run``
and ``RunResult.trace_lines`` derive for themselves.
``probe_report`` is the text ``json.dumps`` writes for a run's
``probe_report.json``, the reference for the CLI's own rendering.
"""

import hashlib
import io
import itertools
import json
import random
from collections import Counter
from typing import Mapping, NamedTuple, Optional

from mobyreg.adversary import TOKENS, Strategy, rng_stream
from mobyreg.checker import CheckerInputError, Verdict, precedes
from mobyreg.engine import (Directive, OpRecord, RandomWorkload, RunResult, Workload,
                            validate_directives)
from mobyreg.model import ConfigError, SystemConfig
from mobyreg.protocol import (BOTTOM, SERVERS, Echo, Read, ReadFailed, ReadOk, Reply,
                              Tally, Write, server_compute, server_receive, server_send,
                              value_key)

_INIT = object()  # cluster of the fictional initial write of the default value


def _completed_and_writes(history):
    ops = [op for op in history if op.complete]
    return ops, {op.value: op for op in ops if op.kind == "write"}


class OracleRefusal(RuntimeError):
    """The brute-force oracle does not scale to this history."""


BRUTE_FORCE_CAP = 9


def brute_force_linearizable(history):
    """Enumerate every precedence-respecting total order; independent oracle."""
    ops, writes = _completed_and_writes(history)
    if len(ops) > BRUTE_FORCE_CAP:
        raise OracleRefusal(f"{len(ops)} operations exceed the "
                            f"{BRUTE_FORCE_CAP}-operation oracle cap")
    if len(writes) < sum(op.kind == "write" for op in ops):
        raise CheckerInputError("duplicate written value; the oracle needs unique values")
    for perm in itertools.permutations(ops):
        ok = True
        for i, a in enumerate(perm):
            for b in perm[i + 1:]:
                if precedes(b, a):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        last = BOTTOM
        for op in perm:
            if op.kind == "write":
                last = op.value
            elif op.value is not last and op.value != last:
                break
        else:
            return Verdict(True)
    return Verdict(False, [{"reason": "no precedence-respecting order explains the reads"}])


def validity_by_definition(history):
    """A read may return w unless it precedes w or a write lies wholly
    between w and the read; it may return the default value unless some
    write precedes it.  ``newer_write`` names the first such write."""
    ops, writes = _completed_and_writes(history)
    witnesses = []
    for read in ops:
        if read.kind != "read":
            continue
        preceding = [w for w in writes.values() if precedes(w, read)]
        if read.value is BOTTOM:
            if preceding:
                witnesses.append({"op_id": read.op_id, "returned": None,
                                  "reason": "default value after a completed write"})
            continue
        w = writes.get(read.value)
        if w is None:
            witnesses.append({"op_id": read.op_id, "returned": read.value,
                              "reason": "value never written"})
            continue
        if precedes(read, w):
            witnesses.append({"op_id": read.op_id, "returned": read.value,
                              "reason": "read precedes its write"})
            continue
        stale = [w2 for w2 in preceding if precedes(w, w2)]
        if stale:
            witnesses.append({"op_id": read.op_id, "returned": read.value,
                              "reason": "overwritten value",
                              "newer_write": stale[0].op_id})
    return Verdict(not witnesses, witnesses)


def cluster_graph_ordering(history):
    """Is the precedence relation, lifted to write clusters, acyclic?

    A cluster is a write with the reads that returned its value; the reads
    of the default value form the initial cluster, which precedes every
    write.  Cluster A has an edge to cluster B when some op of A precedes
    some op of B.
    """
    ops, writes = _completed_and_writes(history)
    cluster = {}
    for op in ops:
        if op.kind == "write":
            cluster[op.op_id] = op.value
        elif op.value is BOTTOM:
            cluster[op.op_id] = _INIT
        elif op.value in writes:
            cluster[op.op_id] = op.value
        else:
            return Verdict(False, [{"op_id": op.op_id, "returned": op.value,
                                    "reason": "value never written"}])
    for op in ops:
        if op.kind == "read" and cluster[op.op_id] is not _INIT:
            w = writes[op.value]
            if precedes(op, w):
                return Verdict(False, [{"op_id": op.op_id, "read_from": w.op_id,
                                        "reason": "read precedes its write"}])
    keys = [_INIT] + list(writes)
    edges = {k: set() for k in keys}
    edge_witness = {}
    for k in writes:
        edges[_INIT].add(k)
        edge_witness[(_INIT, k)] = {"reason": "initial value precedes every write"}
    for a, b in itertools.permutations(ops, 2):
        ca, cb = cluster[a.op_id], cluster[b.op_id]
        if ca != cb and precedes(a, b) and cb not in edges[ca]:
            edges[ca].add(cb)
            edge_witness[(ca, cb)] = {"before_op": a.op_id, "after_op": b.op_id}
    cycle = _find_cycle(keys, edges)
    if cycle is None:
        return Verdict(True)
    return Verdict(False, [
        {"from_write": None if src is _INIT else writes[src].op_id,
         "to_write": None if dst is _INIT else writes[dst].op_id,
         **edge_witness[(src, dst)]}
        for src, dst in zip(cycle, cycle[1:] + cycle[:1])])


def _find_cycle(keys, edges):
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {k: WHITE for k in keys}
    parent = {}
    for start in keys:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(sorted(edges[start], key=repr)))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    cycle = [nxt]
                    cur = node
                    while cur != nxt:
                        cycle.append(cur)
                        cur = parent[cur]
                    cycle.reverse()
                    return cycle
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, iter(sorted(edges[nxt], key=repr))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


class TraceEvent(NamedTuple):
    """One line of a trace: its five fields."""

    round: int
    phase: str
    kind: str
    actor: str
    payload: dict


def trace_line(ev):
    """One trace event as ``json.dumps`` writes it, without its newline."""
    return json.dumps(
        {"round": ev.round, "phase": ev.phase, "kind": ev.kind,
         "actor": ev.actor, "payload": ev.payload},
        sort_keys=True, separators=(",", ":"), default=str)


def trace_text(result):
    """The text ``result.trace_lines`` writes, rendered into an ``io.StringIO``."""
    out = io.StringIO()
    result.trace_lines(out)
    return out.getvalue()


def trace_events(result):
    """The events ``result.trace_lines`` writes, one ``TraceEvent`` per line."""
    return [TraceEvent(**json.loads(line)) for line in trace_text(result).splitlines()]


def probe_report(result):
    """``probe_report.json``'s text for ``result``: ``json.dumps`` of the report."""
    return json.dumps({"rounds": result.rounds, "seed": result.seed,
                       "min_support": result.min_support, "violations": result.violations,
                       "protocol_failures": result.protocol_failures,
                       "probes": result.probes}, sort_keys=True, default=str) + "\n"


def _msg_payload(msg, sender: int) -> dict:
    """A message as traces show it: its type, its value, and the sender the
    channel supplied, under "server" (Echo, Reply) or "client" (Write, Read)."""
    d = {"type": type(msg).__name__.lower(),
         "server" if isinstance(msg, (Echo, Reply)) else "client": sender}
    if not isinstance(msg, Read):
        d["value"] = msg.value
    return d


def send_moves(occ) -> tuple:
    """An ``Occupancy``'s (src, dst) relocations during the send phase, paired
    in id order."""
    if occ.pre_send is occ.post_send:
        return ()
    return tuple(zip(sorted(occ.pre_send - occ.post_send),
                     sorted(occ.post_send - occ.pre_send)))


def mt_rng_stream(seed, *key):
    """``random.Random`` seeded with the first 8 bytes of the stream name's SHA-256."""
    digest = hashlib.sha256(repr((seed,) + key).encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _counter_probe(values, faulty):
    """Modal value among non-faulty servers, counted in server-id order."""
    values = [v for sid, v in values.items() if sid not in faulty]
    if not values:
        return BOTTOM, 0
    counts = Counter(values)
    best = min(counts.items(), key=lambda kv: (-kv[1], value_key(kv[0])))
    return best[0], best[1]


class _ClientState(NamedTuple):
    """A client between rounds: its queued requests, its operation, its replies."""

    to_send: tuple = ()
    reading: bool = False
    writing: bool = False
    op_start: Optional[int] = None
    replies: Mapping = {}  # server id -> value; replaced, never mutated


_WRITE_ACK = object()


def _client_invoke(state: _ClientState, d: Directive) -> _ClientState:
    assert not (state.reading or state.writing), "one operation at a time"
    if d.op == "write":
        assert d.value is not BOTTOM, "the default value cannot be written"
        return state._replace(to_send=state.to_send + (Write(d.value),), writing=True)
    return state._replace(to_send=state.to_send + (Read(),), reading=True)


def _client_send(state: _ClientState, round_no: int) -> tuple[_ClientState, tuple]:
    """Broadcast queued requests; remember the round an operation started."""
    op_start = state.op_start
    if op_start is None and (state.reading or state.writing):
        op_start = round_no
    return (state._replace(to_send=(), op_start=op_start),
            tuple((SERVERS, m) for m in state.to_send))


def _client_receive(state: _ClientState, inbox, round_no: int) -> _ClientState:
    """A read's replies, one per server, taken in its reply round only."""
    if not (state.reading and state.op_start == round_no - 1):
        return state
    replies = dict(state.replies)
    for sender, msg in inbox:
        if isinstance(msg, Reply):
            replies.setdefault(sender, msg.value)
    return state._replace(replies=replies)


def _client_compute(state: _ClientState, round_no: int, s_threshold: int):
    """Finish operations: a write lasts one round, a read exactly two."""
    if state.writing and state.op_start == round_no:
        return state._replace(writing=False, op_start=None), _WRITE_ACK
    if state.reading and state.op_start == round_no - 1:
        counts = Counter(state.replies.values())
        qualifying = sorted((v for v, c in counts.items() if c >= s_threshold),
                            key=value_key)
        done = state._replace(reading=False, op_start=None, replies={})
        if len(qualifying) == 1:
            return done, ReadOk(qualifying[0])
        ranked = tuple(sorted(counts.items(), key=lambda kv: (-kv[1], value_key(kv[0]))))
        return done, ReadFailed(counts=ranked, qualifying=tuple(qualifying))
    return state, None


class EventResult(RunResult):
    """A ``RunResult`` that holds its trace as a list of ``TraceEvent``s."""

    __slots__ = ("trace",)

    def __init__(self, config, rounds, seed):
        super().__init__(config, rounds, seed)
        self.trace = []

    def trace_lines(self, out):
        out.writelines(trace_line(ev) + "\n" for ev in self.trace)


def per_server_run(config: SystemConfig, strategy: Strategy, workload: Workload, *,
                   rounds: int, seed: int = 0, n_clients: int = 3,
                   allow_inadmissible: bool = False,
                   record_messages: bool = False) -> EventResult:
    """``mobyreg.engine.run`` with each server's value, reads and cure flag, and
    each client's state machine, every round."""
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

    result = EventResult(config=config, rounds=rounds, seed=seed)
    values = {i: BOTTOM for i in range(n)}
    reads = {i: frozenset() for i in range(n)}  # readers to answer in the next send
    cured = {i: False for i in range(n)}
    clients = {c: _ClientState() for c in range(n_clients)}
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
        clients[d.client] = _client_invoke(clients[d.client], d)
        rec = OpRecord(op_id=op_seq, client=d.client, kind=d.op,
                       argument=d.value if d.op == "write" else None,
                       invoke_round=round_no)
        op_seq += 1
        pending_op[d.client] = rec
        result.history.append(rec)
        trace(round_no, "send", "op_invoke", f"c{d.client}",
              {"op_id": rec.op_id, "kind": d.op, "value": d.value})

    for r in range(1, rounds + 1):
        # --- agent movement (at round start, or during send: moves_in_send) ---
        occ = strategy.occupancy(config, r, occupied, rng_stream(seed, "sched", r))
        pre_send, moves = occ.pre_send, send_moves(occ)
        cured_now = occupied - pre_send      # vacated at this round's start
        for i in cured_now:
            restored[i] = False
        trace(r, "round_start", "fault_move", "adversary",
              {"occupied": sorted(pre_send),
               "cured": sorted(cured_now),
               "planned_moves": [list(m) for m in moves]})

        # occupied servers send as Byzantine ones in every model
        byzantine = pre_send | cured_now if cured_byzantine else pre_send

        # --- begin round -------------------------------------------------
        for i in range(n):
            if i in pre_send:
                values[i] = strategy.corrupt_value(r, i, "send")
                restored[i] = False
            cured[i] = oracle_enabled and not restored[i] and i not in pre_send

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
                result.crash_rounds[d.client] = r
                trace(r, "round_start", "op_invoke", f"c{d.client}", {"kind": "crash"})
                continue
            invoke(r, d)

        # --- send phase ---------------------------------------------------
        outbox: list[tuple[str, int, object, object]] = []  # (kind, id, dest, msg)
        for c in range(n_clients):
            if c in crashed:
                continue
            cst, out = _client_send(clients[c], r)
            clients[c] = cst
            for dest, msg in out:
                outbox.append(("client", c, dest, msg))
        # the hook answers once a round for all Byzantine servers, which have
        # the same readers: each sends its class's output, or its own token
        byzantine_out = {}
        if byzantine:
            for ids, msgs in strategy.byzantine_outgoing(config, r, sorted(byzantine),
                                                         reads[min(byzantine)]):
                byzantine_out.update((i, server_send(
                    strategy.corrupt_value(r, i, "send"), reads[i], False)
                    if msgs is TOKENS else msgs) for i in ids)
        for i in range(n):
            if i in byzantine:
                out_msgs = byzantine_out[i]
                reads[i] = frozenset()
                for dest, msg in out_msgs:
                    if not isinstance(msg, (Echo, Reply)):
                        # authenticated channels: a server cannot pose as a client
                        trace(r, "send", "violation", f"s{i}",
                              {"reason": "forged sender rejected"})
                        continue
                    outbox.append(("server", i, dest, msg))
            else:
                out = server_send(values[i], reads[i], cured[i])
                reads[i] = frozenset()
                for dest, msg in out:
                    outbox.append(("server", i, dest, msg))
        if record_messages:
            for skind, sid, dest, msg in outbox:
                trace(r, "send", "send", f"{skind[0]}{sid}",
                      {"dest": dest, "msg": _msg_payload(msg, sid)})

        # --- in-send movement (moves_in_send models) ---------------------------
        post_occupied = pre_send
        if moves:
            moved = set(pre_send)
            for src, dst in moves:
                moved.discard(src)
                moved.add(dst)
                # Departing host: the register value keeps the agent's corruption.
                values[src] = strategy.corrupt_value(r, src, "leave")
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
            elif type(dest) is int and dest in client_inbox:
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
        tally = server_receive(Tally(), inbox)
        for c in range(n_clients):
            if c in crashed:
                continue
            inbox = sorted_inbox(client_inbox[c])
            if record_messages:
                for sid, msg in inbox:
                    trace(r, "receive", "deliver", f"c{c}",
                          {"from": sid, "msg": _msg_payload(msg, sid)})
            clients[c] = _client_receive(clients[c], inbox, r)

        # --- compute phase ---------------------------------------------------
        note = server_compute(tally.current_writes,
                              Counter(tally.echo_vals.values()), s_threshold)
        for i in range(n):
            if note.adopted:
                values[i] = note.value
            reads[i] = tally.current_reads
            if note.tied_values:
                trace(r, "compute", "state_transition", f"s{i}",
                      {"diagnostic": "echo threshold tie",
                       "tied": list(note.tied_values)})
            if note.adopted and i not in post_occupied:
                restored[i] = True
        for i in sorted(post_occupied):
            values[i] = strategy.corrupt_value(r, i, "compute")
            restored[i] = False
        for c in range(n_clients):
            if c in crashed:
                continue
            cst, response = _client_compute(clients[c], r, s_threshold)
            clients[c] = cst
            if response is None:
                continue
            rec = pending_op.pop(c, None)
            if rec is None:
                continue
            if response is _WRITE_ACK:
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
        modal, support = _counter_probe(values, post_occupied)
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

    return result
