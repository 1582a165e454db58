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

    def __bool__(self) -> bool:
        return self.passed


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


_INIT = object()  # cluster of the fictional initial write of the default value


@dataclass
class _Zone:
    """A write with its readers: their earliest response and latest invoke.

    The initial-value cluster has no write and ``lo`` = -inf, for the
    fictional initial write that responds before every operation.
    """

    write: Optional[Op]
    lo: float = math.inf
    lo_op: Optional[Op] = None
    hi: float = -math.inf
    hi_op: Optional[Op] = None

    def add(self, op: Op) -> None:
        if op.response < self.lo:
            self.lo, self.lo_op = op.response, op
        if op.invoke > self.hi:
            self.hi, self.hi_op = op.invoke, op


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
    zones = {_INIT: _Zone(None, lo=-math.inf)}
    zones.update((value, _Zone(w)) for value, w in writes.items())
    for op in ops:
        zones[_INIT if op.kind == "read" and op.value is BOTTOM else op.value].add(op)
    pair = _mutual_pair(zones.values())
    if pair is None:
        return Verdict("ordering", True)

    def edge(src: _Zone, dst: _Zone) -> dict:
        return {"from_write": None if src.write is None else src.write.op_id,
                "to_write": None if dst.write is None else dst.write.op_id,
                **({"reason": "initial value precedes every write"}
                   if src.write is None else
                   {"before_op": src.lo_op.op_id, "after_op": dst.hi_op.op_id})}

    a, b = pair
    return Verdict("ordering", False, [edge(a, b), edge(b, a)])


def _mutual_pair(zones: Iterable[_Zone]) -> Optional[tuple[_Zone, _Zone]]:
    """Two clusters A != B with lo(A) < hi(B) and lo(B) < hi(A), or None.

    With the clusters sorted by ``lo``, those that must precede B form a
    prefix; the largest ``hi`` in it (or the runner-up, when the largest is
    B's own) says whether one of them must also follow B.
    """
    zones = sorted(zones, key=lambda z: z.lo)
    los = [z.lo for z in zones]
    top = []  # top[i]: indices of the two largest hi among zones[:i + 1]
    best = second = None
    for i, z in enumerate(zones):
        if best is None or z.hi > zones[best].hi:
            best, second = i, best
        elif second is None or z.hi > zones[second].hi:
            second = i
        top.append((best, second))
    for j, z in enumerate(zones):
        before = bisect.bisect_left(los, z.hi)
        if before == 0:
            continue
        best, second = top[before - 1]
        other = second if best == j else best
        if other is not None and z.lo < zones[other].hi:
            return zones[other], z
    return None


def check_all(history: Sequence[Op],
              crashed_clients: Iterable[int] = ()) -> dict:
    """Run the three register properties; returns {name: Verdict}."""
    return {
        "termination": check_termination(history, crashed_clients),
        "validity": check_validity(history),
        "ordering": check_ordering(history),
    }
