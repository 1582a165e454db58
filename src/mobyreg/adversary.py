"""Mobile-agent schedules and Byzantine behavior.

A strategy decides, per round, which servers the agents occupy (and, in the
Buhrman model, how they relocate during the send phase), what a corrupted
server's value becomes, and what messages the fully Byzantine servers emit.
A server keeps nothing but its value across rounds, so ``corrupt_value`` is
the one corruption hook: an agent rewrites the value of each server it holds
or leaves, and answers the pending readers, which every server knows from the
last round's tally, through ``byzantine_outgoing``.

``byzantine_outgoing`` is called once a round, for all the Byzantine
senders, and returns them in classes of senders that send the same output up
to their id.  The protocol tests values only for equality, so it cannot tell
apart two runs that differ by a renaming of values that keeps equality
(data independence: Wolper, *Expressing Interesting Properties of Programs
in Propositional Temporal Logic*, POPL 1986).  A class whose senders send one
output counts once, with its size; a class whose senders each send their own
token adds values of one vote each, which qualify nowhere while the
selection threshold is at least 2.

A decision that draws takes its own random stream, named by the run's seed
and a key such as ``("sched", round)``: ``rng_stream`` hashes the name with
SHA-256 and seeds the stdlib Mersenne Twister (``random.Random``) with the
digest's first 8 bytes, so any counterexample reproduces from its seed.  The
engine makes one ``sched`` and one ``workload`` stream per round.  A corruption
draws nothing: the protocol tests values only for equality, so a token
naming its round, server and kind is as strong as a random one.

Channels stay authenticated: messages carry no sender id, the channel
supplies it, so a strategy cannot forge one.  The engine drops any Write or
Read a Byzantine server emits, and traces a violation for each.
"""

from __future__ import annotations

import hashlib
import random
from typing import NamedTuple

from .model import ConfigError, SystemConfig
from .protocol import Reply, server_send


def rng_stream(seed: int, *key) -> random.Random:
    """Deterministic generator for one named decision stream.

    The stream ``(seed,) + key`` is keyed by the first 8 bytes of the SHA-256
    digest of its ``repr``, and is the stdlib ``random.Random`` seeded with
    that key.  Equal names give equal sequences, in any process.
    """
    digest = hashlib.sha256(repr((seed,) + key).encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class Occupancy(NamedTuple):
    """Agent positions for one round.

    ``pre_send`` is the occupied set when the send phase starts and
    ``post_send`` the one when it ends.  They differ only in a model whose
    agents travel with the messages (``moves_in_send``); ``occupancy``
    passes one set as both otherwise.
    """

    pre_send: frozenset
    post_send: frozenset

    @property
    def moves(self) -> tuple:
        """The (src, dst) relocations during the send phase, paired in id order."""
        if self.pre_send is self.post_send:
            return ()
        return tuple(zip(sorted(self.pre_send - self.post_send),
                         sorted(self.post_send - self.pre_send)))


class Strategy:
    """Base adversary: subclasses pick the per-round target occupation."""

    name = "base"
    fake_value: object = None   # fixed corruption value; None: a token per corruption

    def target_set(self, config: SystemConfig, round_no: int,
                   prev: frozenset, rng: random.Random) -> frozenset:
        raise NotImplementedError

    def occupancy(self, config: SystemConfig, round_no: int,
                  prev: frozenset, rng: random.Random) -> Occupancy:
        """The round's occupation; the one place its rules are enforced.

        The target holds at most f known servers.  Agents take it at round
        start, or in a ``moves_in_send`` model by paired (src, dst) moves
        during the send phase; there, after round 1, the target must have
        as many servers as the current occupation, since an agent that
        travels with the messages can neither appear nor vanish.  The engine
        applies the result as it is, so subclasses override ``target_set``,
        not this.
        """
        target = frozenset(self.target_set(config, round_no, prev, rng))
        if len(target) > config.f:
            raise ConfigError(
                f"strategy {self.name!r} occupies {len(target)} servers in "
                f"round {round_no}, but f={config.f}")
        if target and (min(target) < 0 or max(target) >= config.n):
            raise ConfigError(f"strategy {self.name!r} targets an unknown server")
        if config.params.moves_in_send and round_no > 1:
            # Agents only relocate with the messages: the pre-send set is
            # last round's set and the difference becomes in-send movement.
            if len(target) != len(prev):
                raise ConfigError(
                    f"strategy {self.name!r} moves {len(prev)} agents onto "
                    f"{len(target)} servers in round {round_no}; in model "
                    f"{config.params.model} agents move only with the messages")
            return Occupancy(prev, target)
        return Occupancy(target, target)

    def corrupt_value(self, round_no: int, server: int, kind: str) -> object:
        """The value an agent leaves on, or sends from, a server it corrupts.

        ``kind`` is "send" for a Byzantine server's output, "leave" for the
        host an agent departs during the send (``run`` never asks for it: the
        round adopts, see ``mobyreg.engine``), and "compute" for each host it
        holds when the compute phase ends.  ``run`` asks for a value only
        where a correct party reads it: never, once, later (a compute token
        in the next round) or more than once, so an override must be a pure
        function of its arguments.  Each (round, server, kind) names one
        corruption, so no two corruptions share the default token; and every
        count (the echo tally, a read's replies, the probe) takes one value
        per server, so no token gains a second vote.  Tied
        tokens order by their ``byz-<round>-s<server>`` text first.  The
        default ``byzantine_outgoing`` relies on these tokens: a subclass
        that overrides this overrides that too.
        """
        if self.fake_value is not None:
            return self.fake_value
        return default_token(round_no, server, kind)

    def byzantine_outgoing(self, config: SystemConfig, round_no: int,
                           senders: list, readers: frozenset) -> list:
        """Send-phase output of the round's fully Byzantine servers, ``senders``
        in id order: a list of ``(ids, output)`` classes that cover them.

        Each server in ``ids`` sends ``output``, a tuple of (destination,
        message) pairs, or, for ``TOKENS``, what an honest server holding its
        own token ``corrupt_value(round_no, server, "send")`` sends; that
        needs the default tokens, so a strategy with a ``fake_value`` or its
        own ``corrupt_value`` returns the outputs themselves.  A
        destination is ``SERVERS`` or an integer, and an integer is always
        taken as a client id; one that names no client is dropped, and so is
        any other destination.  A bool is not a client id: ``True`` reaches
        no client, although it equals 1.  So a server can send one echo,
        which every server receives (only a sender's first echo counts),
        while its replies to individual clients may differ.  The channel
        supplies each sender's id, and the engine drops any Write or Read.
        A strategy whose senders differ returns one class per sender.

        The engine counts a class of one output once, with its size, at its
        lowest id: by data independence (module docstring) only the
        equalities between values matter, and every sender of the class
        sends equal values.  A ``TOKENS`` class adds one value of one vote
        per sender, distinct from each other and from every value that is not
        a send token of the round (``is_send_token``), so with a selection
        threshold s >= 2 none of them qualifies and the engine counts none.
        It lists them, one ``corrupt_value`` call per sender, only where
        they could matter: when s <= 1 (only in inadmissible runs), when a
        counted value could equal one of them, and when a read fails (its
        ``reply_counts`` list every value).  A message trace needs the
        default tokens too: it keeps the class's ids and writes their tokens.

        The default pushes one wrong value into the echo exchange and to
        every pending reader in ``readers``: the ``fake_value`` of all the
        colluding senders, or else each sender's own token.
        """
        if self.fake_value is None:
            return [(senders, TOKENS)]
        return [(senders, server_send(self.fake_value, readers, False))]


# A class's output in ``byzantine_outgoing``: each sender sends its own token.
TOKENS = "tokens"


def default_token(round_no: int, server, kind: str) -> str:
    """A corruption's default token; the trace's has ``"\\0"`` for its server."""
    return f"byz-{round_no}-s{server}-{kind}"


# a send token's text around its server's id, the round left to format
_SEND_HEAD, _, _SEND_TAIL = default_token("{}", "\0", "send").partition("\0")


def is_send_token(value: object, round_no: int) -> bool:
    """Whether ``value`` could equal a default send token of round ``round_no``."""
    return (isinstance(value, str) and value.endswith(_SEND_TAIL)
            and value.startswith(_SEND_HEAD.format(round_no)))


class NoFaults(Strategy):
    name = "none"

    def target_set(self, config, round_no, prev, rng):
        return frozenset()


class Stationary(Strategy):
    """Agents sit on a fixed set of servers."""

    name = "stationary"

    def __init__(self, servers=None, fake_value=None):
        self.servers = None if servers is None else frozenset(servers)
        self.fake_value = fake_value

    def target_set(self, config, round_no, prev, rng):
        if self.servers is not None:
            return self.servers
        return frozenset(range(config.f))


class Sweep(Strategy):
    """Agents rotate deterministically through the servers, f at a time."""

    name = "sweep"

    def target_set(self, config, round_no, prev, rng):
        base = (round_no - 1) * config.f
        return frozenset((base + k) % config.n for k in range(config.f))


class RandomWalk(Strategy):
    """Agents jump to a fresh uniformly random set of f servers each round."""

    name = "random"

    def target_set(self, config, round_no, prev, rng):
        return frozenset(rng.sample(range(config.n), config.f))


class RandomColluder(RandomWalk):
    """A random walk whose agents all plant one value, so that its Byzantine
    echoes and replies add up where independent tokens never do."""

    name = "collude-random"
    fake_value = "colluded"


class SweepColluder(Sweep):
    """A sweep whose agents all plant one value, as ``RandomColluder``'s do."""

    name = "collude-sweep"
    fake_value = "colluded"


class Scripted(Strategy):
    """Explicit round -> occupied-set plan (missing rounds: keep the last)."""

    name = "scripted"

    def __init__(self, schedule: dict, fake_value=None):
        self.schedule = {int(r): frozenset(s) for r, s in schedule.items()}
        self.fake_value = fake_value

    def target_set(self, config, round_no, prev, rng):
        applicable = [r for r in self.schedule if r <= round_no]
        if not applicable:
            return frozenset()
        return self.schedule[max(applicable)]


class SplitVote(Scripted):
    """Scripted occupation pushing a single alternative value.

    Every occupied server replies ``fake_value`` to each reader.  In the
    tightness demo, at the resilience boundary, the reader's reply counts
    then tie between the written and the planted value, so this protocol's
    count-based reader fails.  No reader rule does better: the run swapping
    the two values, its agents on the written value's repliers, gives the
    reader the same view (``test_the_bound_is_an_indistinguishable_pair``).
    """

    name = "split_vote"

    def __init__(self, fake_value: object, schedule: dict):
        if fake_value is None:
            raise ConfigError("split_vote needs a non-default fake value")
        super().__init__(schedule, fake_value)

    def byzantine_outgoing(self, config, round_no, senders, readers):
        # Stay silent toward the servers (a Byzantine option): the proof
        # scenarios only need the reader's reply multiset balanced, and at
        # the boundary even f planted echoes would clear the (degenerate)
        # maintenance threshold and disturb correct servers.
        return [(senders, tuple((cid, Reply(self.fake_value)) for cid in sorted(readers)))]


STRATEGIES = {
    "none": NoFaults,
    "stationary": Stationary,
    "sweep": Sweep,
    "random": RandomWalk,
    "collude-random": RandomColluder,
    "collude-sweep": SweepColluder,
}


def make_strategy(name: str) -> Strategy:
    try:
        return STRATEGIES[name.strip().lower()]()
    except KeyError:
        raise ConfigError(f"unknown adversary strategy {name!r} (expected one of "
                          f"{', '.join(STRATEGIES)})") from None
