"""Pure phase functions for the register servers and clients.

A server keeps only its register value from one round to the next: the
readers it answers and whether it knows it is cured are the round's data,
and a round's echoes and requests are collected in a ``Tally``.  A client
keeps nothing: a write is confirmed in the round it is broadcast, and a read
is decided by ``client_compute`` from the replies of its reply round, the
round after its request.  Both decisions take value counts, the number of
distinct senders of each value, and select with ``qualifying``.  Nothing
here performs I/O or mutates its arguments, so identical inputs always yield
identical outputs.  The simulation engine owns timing, delivery, and fault
injection.

Wire values are opaque, hashable payloads.  ``BOTTOM`` (``None``) is the
register's default content and is representable on the wire like any other
value, but may never be written by a client.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence, Union

BOTTOM = None

# Destination sentinel: deliver to every server.
SERVERS = "servers"


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
# message) pairs, the destination being SERVERS or a client id.  A message is
# a plain ``__slots__`` object: construction sets its one slot directly, where
# a frozen dataclass goes through ``object.__setattr__`` at twice the cost.
# Two messages are equal when they have the same exact type and equal
# values, so ``Echo(1) != Reply(1)``, which tuples would not give.  Nothing
# stops an assignment to ``value``; no phase makes one.
# ---------------------------------------------------------------------------

class _Message:
    """Equal by exact type and value, hashed by value, written ``Echo(value=...)``."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def _key(self) -> tuple:
        return (self.value,)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}({''.join(f'value={v!r}' for v in self._key())})"


class Echo(_Message):
    __slots__ = ()


class Write(_Message):
    __slots__ = ()


class Reply(_Message):
    __slots__ = ()


class Read(_Message):
    """A read request: it carries no value."""

    __slots__ = ()

    def __init__(self):
        pass

    def _key(self) -> tuple:
        return ()


Message = Union[Echo, Write, Read, Reply]


# ---------------------------------------------------------------------------
# States
#
# A round's tally is the only state: an immutable NamedTuple, built in well
# under half the time of a frozen dataclass, which sets each field through
# ``object.__setattr__``.  The empty default of a mapping field is one shared
# read-only view, so no tally can fill another's default in place.  Derive a
# tally by ``_replace``.
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
    echo = ((SERVERS, Echo(value)),)
    if not readers:
        return echo
    return echo + tuple([(cid, Reply(value)) for cid in sorted(readers)])


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


class ComputeNote(NamedTuple):
    """The compute phase's decision: whether to adopt ``value``, and any tie."""

    adopted: bool = False
    value: object = BOTTOM              # the value to store, when adopted
    tied_values: tuple = ()             # >1 entries only in inadmissible runs


def qualifying(counts: Mapping, s_threshold: int) -> list:
    """The values ``counts`` gives at least ``s_threshold`` senders, by ``value_key``.

    Only two or more values need ordering, and only inadmissible runs have
    them; one or none is returned as found."""
    chosen = [v for v, c in counts.items() if c >= s_threshold]
    if len(chosen) > 1:
        chosen.sort(key=value_key)
    return chosen


def server_compute(writes: Mapping, echo_counts: Mapping, s_threshold: int) -> ComputeNote:
    """Adopt this round's written value, else a sufficiently echoed one.

    ``writes`` maps client ids to the values they write this round, and
    ``echo_counts`` each echoed value to its number of distinct senders.
    With concurrent writes the value paired with the highest client id wins,
    so every server picks the same one.  Among echoes, a value needs at least
    ``s_threshold`` senders; a tie (impossible in admissible configurations)
    is broken toward the smallest value and reported.
    """
    if writes:
        return ComputeNote(adopted=True, value=writes[max(writes)])
    chosen = qualifying(echo_counts, s_threshold)
    if chosen:
        return ComputeNote(adopted=True, value=chosen[0],
                           tied_values=tuple(chosen) if len(chosen) > 1 else ())
    return ComputeNote()


# ---------------------------------------------------------------------------
# Client
#
# A read's decision is a ``ReadOk`` or a ``ReadFailed``, each a NamedTuple:
# one is built per finished read, and nothing assigns to it.
# ---------------------------------------------------------------------------

class ReadOk(NamedTuple):
    """The one value that reached the selection threshold."""

    value: object


class ReadFailed(NamedTuple):
    """No unique value reached the selection threshold.

    Expected only in inadmissible configurations; the engine surfaces it as a
    protocol-failure event and never silently retries.
    """

    counts: tuple        # ((value, distinct sender count), ...) sorted desc
    qualifying: tuple    # values at/above threshold (0 or >=2 of them)


def client_compute(reply_counts: Mapping, s_threshold: int) -> Union[ReadOk, ReadFailed]:
    """Decide a read from the replies of its reply round.

    ``reply_counts`` maps each replied value to its number of distinct
    senders.  The read returns the one value with at least ``s_threshold``.
    """
    chosen = qualifying(reply_counts, s_threshold)
    if len(chosen) == 1:
        return ReadOk(chosen[0])
    ranked = tuple(sorted(reply_counts.items(), key=lambda kv: (-kv[1], value_key(kv[0]))))
    return ReadFailed(counts=ranked, qualifying=tuple(chosen))
