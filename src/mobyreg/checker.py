"""Termination, Validity, and Ordering checks over operation histories.

Time is round-granular: an operation's invocation time is the round its first
message was sent and its response time is the round of its response event.
``op precedes op'`` iff response(op) < invoke(op'), so operations that share a
round are concurrent.  Written values must be unique.

Validity sorts the writes by invoke and keeps, for each suffix of that order,
the write that responds first.  A read of w's value is stale iff, among the
writes invoked after w responds (found by bisection), the first to respond
does so before the read is invoked; a read of the default value is invalid iff
some write responds before the read is invoked.

Ordering uses the zone characterisation of atomicity for unique-value
histories (Gibbons & Korach, SIAM J. Comput. 1997; Anderson et al., HotDep
2010).  A cluster is a write with the reads that returned its value; the reads
of the default value form the initial cluster.  A cluster's zone runs from
``lo``, its earliest response (-inf for the initial cluster, whose fictional
write precedes every operation), to ``hi``, its latest invoke.  In an
explaining total order each cluster is a contiguous block, and cluster A must
come before cluster B iff lo(A) < hi(B).  Such an order exists iff that
relation is acyclic, and it has a cycle only if two clusters must each come
before the other: a shortest cycle A0 -> A1 -> ... of length >= 3 has no
chord A(i-1) -> A(i+1), so lo(Ai) < hi(A(i+1)) <= lo(A(i-1)) for every i, and
lo would fall strictly all the way round.  One sweep over the clusters sorted
by ``lo`` finds such a pair.

Both checks take O(ops log ops) time and O(ops) memory.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .protocol import BOTTOM


class CheckerInputError(ValueError):
    """The history violates a checker precondition (e.g. duplicate values)."""


@dataclass(frozen=True)
class Op:
    op_id: int
    client: int
    kind: str                    # "write" | "read"
    value: object                # written value, or the value a read returned
    invoke: int
    response: Optional[int]

    @property
    def complete(self) -> bool:
        return self.response is not None


@dataclass
class Verdict:
    prop: str
    passed: bool
    witness: list = field(default_factory=list)


def precedes(a: Op, b: Op) -> bool:
    """Strict real-time precedence; incomplete operations precede nothing."""
    return a.response is not None and a.response < b.invoke


def history_from_records(records: Iterable) -> list[Op]:
    """Adapt engine OpRecords (or their dict form) to checker operations."""
    ops = []
    for rec in records:
        d = rec if isinstance(rec, dict) else rec.as_dict()
        value = d["argument"] if d["kind"] == "write" else d["result"]
        response = d["response_round"] if not d.get("failed") else None
        ops.append(Op(op_id=d["op_id"], client=d["client"], kind=d["kind"],
                      value=value, invoke=d["invoke_round"], response=response))
    return ops


def _completed(history: Sequence[Op]) -> list[Op]:
    return [op for op in history if op.complete]


def _writes_by_value(ops: Sequence[Op]) -> dict:
    writes = {}
    for op in ops:
        if op.kind != "write":
            continue
        if op.value in writes:
            raise CheckerInputError(
                f"duplicate written value {op.value!r} (ops {writes[op.value].op_id} "
                f"and {op.op_id}); the checker needs unique values")
        writes[op.value] = op
    return writes


def check_termination(history: Sequence[Op],
                      crashed_clients: Iterable[int] = ()) -> Verdict:
    """Every operation of a non-crashed client must have a response."""
    crashed = set(crashed_clients)
    witnesses = [op for op in history
                 if not op.complete and op.client not in crashed]
    return Verdict("termination", not witnesses,
                   [{"op_id": op.op_id, "client": op.client, "kind": op.kind}
                    for op in witnesses])


def check_validity(history: Sequence[Op]) -> Verdict:
    """Each read returns a non-overwritten preceding or concurrent write.

    A value is allowed for a read exactly when its write w satisfies: the
    read does not precede w, and no other write w' sits wholly between w and
    the read.  The default value is allowed only when no write precedes the
    read.
    """
    ops = _completed(history)
    writes = _writes_by_value(ops)
    by_invoke = sorted(writes.values(), key=lambda w: w.invoke)
    invokes = [w.invoke for w in by_invoke]
    # first_done[i]: the write that responds first among by_invoke[i:]
    first_done = by_invoke[:]
    for i in range(len(first_done) - 2, -1, -1):
        if first_done[i + 1].response < first_done[i].response:
            first_done[i] = first_done[i + 1]
    witnesses = []
    for read in ops:
        if read.kind != "read":
            continue
        if read.value is BOTTOM:
            if first_done and precedes(first_done[0], read):
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
        # the writes invoked after w responded; the first of them to respond
        # overwrites w for this read if it responds before the read starts
        later = bisect.bisect_right(invokes, w.response)
        if later < len(first_done) and precedes(first_done[later], read):
            witnesses.append({"op_id": read.op_id, "returned": read.value,
                              "reason": "overwritten value",
                              "newer_write": first_done[later].op_id})
    return Verdict("validity", not witnesses, witnesses)


def check_ordering(history: Sequence[Op]) -> Verdict:
    """Does a precedence-respecting total order explain every read?

    In any explaining order, a write and its readers form a contiguous block
    (the initial-value block first), so one exists iff no two blocks must
    each come before the other; see the module docstring.
    """
    ops = _completed(history)
    writes = _writes_by_value(ops)
    for op in ops:
        if op.kind == "read" and op.value is not BOTTOM and op.value not in writes:
            return Verdict("ordering", False,
                           [{"op_id": op.op_id, "returned": op.value,
                             "reason": "value never written"}])
    # a read must not finish before the write it observed starts
    for op in ops:
        if op.kind == "read" and op.value is not BOTTOM:
            w = writes[op.value]
            if precedes(op, w):
                return Verdict("ordering", False,
                               [{"op_id": op.op_id, "read_from": w.op_id,
                                 "reason": "read precedes its write"}])
    # cluster 0 is the initial value's (no write, lo = -inf: its fictional
    # write responds before every operation), cluster k the k-th write's;
    # lo/hi hold each cluster's earliest response and latest invoke, and
    # lo_op/hi_op the operations that set them
    cluster_write = [None, *writes.values()]
    index = {value: k for k, value in enumerate(writes, 1)}
    size = len(cluster_write)
    lo, lo_op = [math.inf] * size, [None] * size
    hi, hi_op = [-math.inf] * size, [None] * size
    lo[0] = -math.inf
    for op in ops:
        k = 0 if op.kind == "read" and op.value is BOTTOM else index[op.value]
        if op.response < lo[k]:
            lo[k], lo_op[k] = op.response, op
        if op.invoke > hi[k]:
            hi[k], hi_op[k] = op.invoke, op
    pair = _mutual_pair(lo, hi)
    if pair is None:
        return Verdict("ordering", True)

    def edge(src: int, dst: int) -> dict:
        return {"from_write": None if src == 0 else cluster_write[src].op_id,
                "to_write": None if dst == 0 else cluster_write[dst].op_id,
                **({"reason": "initial value precedes every write"}
                   if src == 0 else
                   {"before_op": lo_op[src].op_id, "after_op": hi_op[dst].op_id})}

    a, b = pair
    return Verdict("ordering", False, [edge(a, b), edge(b, a)])


def _mutual_pair(lo: list, hi: list) -> Optional[tuple[int, int]]:
    """Two clusters A != B with lo(A) < hi(B) and lo(B) < hi(A), or None.

    With the clusters sorted by ``lo``, those that must precede B form a
    prefix; the largest ``hi`` in it (or the runner-up, when the largest is
    B's own) says whether one of them must also follow B.
    """
    order = sorted(range(len(lo)), key=lo.__getitem__)
    los = [lo[k] for k in order]
    # best[i], second[i]: the clusters of the two largest hi in order[:i + 1]
    best, second = [], []
    top = runner_up = None
    for k in order:
        if top is None or hi[k] > hi[top]:
            top, runner_up = k, top
        elif runner_up is None or hi[k] > hi[runner_up]:
            runner_up = k
        best.append(top)
        second.append(runner_up)
    for k in order:
        before = bisect.bisect_left(los, hi[k])
        if before == 0:
            continue
        other = second[before - 1] if best[before - 1] == k else best[before - 1]
        if other is not None and lo[k] < hi[other]:
            return other, k
    return None


def check_all(history: Sequence[Op],
              crashed_clients: Iterable[int] = ()) -> dict:
    """Run the three register properties; returns {name: Verdict}."""
    return {
        "termination": check_termination(history, crashed_clients),
        "validity": check_validity(history),
        "ordering": check_ordering(history),
    }
