"""Pure state machines for the register servers and clients.

A server keeps only its register value from one round to the next: the
readers it answers and whether it knows it is cured are the round's data,
and a round's echoes and requests are collected in a ``Tally``.  Every phase
is a function from a value, a client state or a tally, and its inputs to new
ones and outputs; nothing here performs I/O or mutates its arguments, so
identical inputs always yield identical outputs.  The simulation engine owns
timing, delivery, and fault injection.

Wire values are opaque, hashable payloads.  ``BOTTOM`` (``None``) is the
register's default content and is representable on the wire like any other
value, but may never be written by a client.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence, Union

BOTTOM = None

# Destination sentinel: deliver to every server.
SERVERS = "servers"


class UsageError(RuntimeError):
    """A client violated the one-operation-at-a-time rule."""


def value_key(v: object) -> tuple:
    """Total, type-stable order over wire values; BOTTOM sorts first."""
    if v is BOTTOM:
        return (0, "", "")
    return (1, type(v).__name__, repr(v))


# ---------------------------------------------------------------------------
# Messages
#
# A message names no sender: the authenticated channel delivers each one as
# a (sender id, message) pair.  A phase's output is a tuple of (destination,
# message) pairs, the destination being SERVERS or a client id.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Echo:
    value: object


@dataclass(frozen=True)
class Write:
    value: object


@dataclass(frozen=True)
class Read:
    pass


@dataclass(frozen=True)
class Reply:
    value: object


Message = Union[Echo, Write, Read, Reply]


# ---------------------------------------------------------------------------
# States
#
# A client state and a round's tally are immutable NamedTuples, built in well
# under half the time of a frozen dataclass, which sets each field through
# ``object.__setattr__``.  The empty default of a mapping field is one shared
# read-only view, so no state can fill another's default in place.  Derive a
# state by ``_replace``.  Messages stay dataclasses: tuples of different
# message types would compare equal.
# ---------------------------------------------------------------------------

_EMPTY: Mapping = MappingProxyType({})


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------

class Tally(NamedTuple):
    """What one round's receive phase collects for its compute phase."""

    # one entry per distinct sender: duplicate messages from a sender in one
    # round are rejected, so a faulty server cannot vote twice
    echo_vals: Mapping = _EMPTY        # server id -> value
    current_writes: Mapping = _EMPTY   # client id -> value
    current_reads: frozenset = frozenset()  # readers to answer in the next send


def server_send(value: object, readers: frozenset, cured: bool) -> tuple:
    """Echo the stored value and answer the reads recorded last round.

    A server that knows it is cured stays silent: readers waiting on it are
    dropped (at most f per round, which the protocol tolerates).
    """
    if cured:
        return ()
    return ((SERVERS, Echo(value)),) + tuple((cid, Reply(value)) for cid in sorted(readers))


def server_receive(tally: Tally, inbox: Sequence[tuple[int, Message]]) -> Tally:
    """Accumulate echoes, write requests, and read requests into ``tally``.

    ``inbox`` holds (authenticated sender id, message) pairs.  Only the first
    message of each kind from a given sender counts.
    """
    echo_vals = dict(tally.echo_vals)
    current_writes = dict(tally.current_writes)
    current_reads = set(tally.current_reads)
    for sender, msg in inbox:
        if isinstance(msg, Echo):
            echo_vals.setdefault(sender, msg.value)
        elif isinstance(msg, Write):
            current_writes.setdefault(sender, msg.value)
        elif isinstance(msg, Read):
            current_reads.add(sender)
        # Reply messages addressed to servers are ignored.
    return Tally(echo_vals, current_writes, frozenset(current_reads))


@dataclass(frozen=True)
class ComputeNote:
    """The compute phase's decision: whether to adopt ``value``, and any tie."""

    adopted: bool = False
    value: object = BOTTOM              # the value to store, when adopted
    tied_values: tuple = ()             # >1 entries only in inadmissible runs


def server_compute(tally: Tally, s_threshold: int) -> ComputeNote:
    """Adopt this round's written value, else a sufficiently echoed one.

    With concurrent writes the value paired with the highest client id wins,
    so every server picks the same one.  Among echoes, a value needs at least
    ``s_threshold`` distinct senders; a tie (impossible in admissible
    configurations) is broken toward the smallest value and reported.  A
    server then holds ``note.value`` if adopted, else keeps its value, and
    answers the tally's ``current_reads`` in the next send.
    """
    if tally.current_writes:
        top_client = max(tally.current_writes)
        return ComputeNote(adopted=True, value=tally.current_writes[top_client])
    counts = Counter(tally.echo_vals.values())
    qualifying = sorted((v for v, c in counts.items() if c >= s_threshold),
                        key=value_key)
    if qualifying:
        return ComputeNote(adopted=True, value=qualifying[0],
                           tied_values=tuple(qualifying) if len(qualifying) > 1 else ())
    return ComputeNote()


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

class ClientState(NamedTuple):
    to_send: tuple = ()
    reading: bool = False
    writing: bool = False
    op_start: Optional[int] = None
    replies: Mapping = _EMPTY  # server id -> value


@dataclass(frozen=True)
class WriteAck:
    pass


@dataclass(frozen=True)
class ReadOk:
    value: object


@dataclass(frozen=True)
class ReadFailed:
    """No unique value reached the selection threshold.

    Expected only in inadmissible configurations; the engine surfaces it as a
    protocol-failure event and never silently retries.
    """

    counts: tuple        # ((value, distinct sender count), ...) sorted desc
    qualifying: tuple    # values at/above threshold (0 or >=2 of them)


def client_invoke_write(state: ClientState, value: object) -> ClientState:
    if state.reading or state.writing:
        raise UsageError("write() invoked while another operation is in progress")
    if value is BOTTOM:
        raise UsageError("the default value cannot be written")
    return ClientState(state.to_send + (Write(value),), state.reading, True,
                       state.op_start, state.replies)


def client_invoke_read(state: ClientState) -> ClientState:
    if state.reading or state.writing:
        raise UsageError("read() invoked while another operation is in progress")
    return ClientState(state.to_send + (Read(),), True, state.writing,
                       state.op_start, state.replies)


def client_send(state: ClientState, round_no: int) -> tuple[ClientState, tuple]:
    """Broadcast queued requests; remember the round an operation started.

    ``op_start`` is only set when empty so a read keeps its start round
    across its two rounds, and only while an operation is actually running.
    """
    outgoing = tuple((SERVERS, m) for m in state.to_send)
    op_start = state.op_start
    if op_start is None and (state.reading or state.writing):
        op_start = round_no
    return ClientState((), state.reading, state.writing, op_start, state.replies), outgoing


def client_receive(state: ClientState, inbox: Sequence[tuple[int, Message]],
                   round_no: int) -> ClientState:
    """Accumulate a read's replies, at most one per distinct server.

    Replies count only in the read's reply round, the round after its
    request: any other reply answers no request of this client, and a
    Byzantine server could plant one early to outvote the honest replies.
    """
    if not (state.reading and state.op_start == round_no - 1):
        return state
    replies = dict(state.replies)
    for sender, msg in inbox:
        if isinstance(msg, Reply):
            replies.setdefault(sender, msg.value)
    return ClientState(state.to_send, state.reading, state.writing, state.op_start,
                       replies)


def client_compute(state: ClientState, round_no: int,
                   s_threshold: int) -> tuple[ClientState, object]:
    """Finish operations: a write lasts one round, a read exactly two."""
    if state.writing and state.op_start == round_no:
        return (ClientState(state.to_send, state.reading, False, None, state.replies),
                WriteAck())
    if state.reading and state.op_start == round_no - 1:
        counts = Counter(state.replies.values())
        qualifying = sorted((v for v, c in counts.items() if c >= s_threshold),
                            key=value_key)
        new_state = ClientState(state.to_send, False, state.writing, None, _EMPTY)
        if len(qualifying) == 1:
            return new_state, ReadOk(qualifying[0])
        ranked = tuple(sorted(counts.items(), key=lambda kv: (-kv[1], value_key(kv[0]))))
        return new_state, ReadFailed(counts=ranked, qualifying=tuple(qualifying))
    return state, None
