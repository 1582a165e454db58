"""Reference checkers that the fast ones in ``mobyreg.checker`` are tested against.

``cluster_graph_ordering`` builds the precedence graph of write clusters pair
by pair and searches it for a cycle, in O(ops²) time and memory.
``validity_by_definition`` transcribes the validity definition, testing every
write against every read.  Both assume unique written values.
``brute_force_linearizable`` enumerates every precedence-respecting total
order of a small history.
``trace_line`` encodes one trace event on its own, the reference for
``RunResult.trace_lines``.
``mt_rng_stream`` is the Mersenne Twister stream derivation that
``mobyreg.adversary.rng_stream`` replaced: the same key, a seeded
``random.Random``.  Injected as ``mobyreg.engine.rng_stream``, it reproduces
the traces recorded before the change, so the rest of the engine can be
checked byte for byte.
"""

import hashlib
import itertools
import json
import random

from mobyreg.checker import CheckerInputError, Verdict, precedes
from mobyreg.protocol import BOTTOM

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
            return Verdict("ordering_oracle", True)
    return Verdict("ordering_oracle", False,
                   [{"reason": "no precedence-respecting order explains the reads"}])


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
    return Verdict("validity", not witnesses, witnesses)


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
            return Verdict("ordering", False,
                           [{"op_id": op.op_id, "returned": op.value,
                             "reason": "value never written"}])
    for op in ops:
        if op.kind == "read" and cluster[op.op_id] is not _INIT:
            w = writes[op.value]
            if precedes(op, w):
                return Verdict("ordering", False,
                               [{"op_id": op.op_id, "read_from": w.op_id,
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
        return Verdict("ordering", True)
    return Verdict("ordering", False, [
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


def trace_line(ev):
    """One trace event as ``json.dumps`` writes it, without its newline."""
    return json.dumps(
        {"round": ev.round, "phase": ev.phase, "kind": ev.kind,
         "actor": ev.actor, "payload": ev.payload},
        sort_keys=True, separators=(",", ":"), default=str)


def mt_rng_stream(seed, *key):
    """``random.Random`` seeded with the first 8 bytes of the stream name's SHA-256."""
    digest = hashlib.sha256(repr((seed,) + key).encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))
