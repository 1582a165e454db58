import datetime
import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mobyreg.model import ModelId, lookup
from mobyreg.protocol import (SERVERS, ComputeNote, Echo, Read, ReadFailed, ReadOk,
                              Reply, Tally, Write, client_compute, qualifying, server_compute,
                              server_receive, server_send, value_key)

# ----------------------------------------------------------------- server ---

def test_send_echo_and_replies():
    out = server_send("v", frozenset({3, 1}), False)
    assert out == ((SERVERS, Echo("v")), (1, Reply("v")), (3, Reply("v")))


def test_send_cured_is_silent_but_still_drops_reads():
    assert server_send("v", frozenset({3}), True) == ()


def test_send_no_pending_reads():
    assert server_send("v", frozenset(), False) == ((SERVERS, Echo("v")),)


def test_messages_are_equal_by_exact_type_and_value():
    assert Echo(1) == Echo(1) and hash(Echo(1)) == hash(Echo(1))
    assert Echo(1) != Reply(1) and Write(1) != Echo(1)
    assert Read() == Read() and hash(Read()) == hash(Read())
    assert Read() != Echo(None)
    assert repr(Echo("v")) == "Echo(value='v')" and repr(Read()) == "Read()"


def test_receive_accumulates():
    inbox = [(1, Echo(5)), (2, Echo(5)), (7, Write(9))]
    tally = server_receive(Tally(), inbox)
    assert tally.echo_vals == {1: 5, 2: 5}
    assert tally.current_writes == {7: 9}
    more = server_receive(tally, [(3, Echo(6)), (4, Read())])
    assert more == Tally({1: 5, 2: 5, 3: 6}, {7: 9}, frozenset({4}))


def test_receive_reads():
    tally = server_receive(Tally(), [(2, Read()), (4, Read())])
    assert tally.current_reads == frozenset({2, 4})


def test_receive_empty_is_identity():
    tally = Tally(echo_vals={1: "v"}, current_reads=frozenset({3}))
    assert server_receive(tally, []) == tally


def test_receive_rejects_duplicate_senders():
    inbox = [(1, Echo("a")), (1, Echo("b")), (2, Write(1)), (2, Write(2))]
    tally = server_receive(Tally(), inbox)
    assert tally.echo_vals == {1: "a"}
    assert tally.current_writes == {2: 1}


def test_receive_ignores_replies():
    assert server_receive(Tally(), [(1, Reply("v"))]) == Tally()


def test_compute_write_takes_highest_client_id():
    note = server_compute({7: 9, 2: 4}, {}, s_threshold=3)
    assert note.value == 9 and note.adopted


def test_compute_write_selection_is_order_insensitive():
    entries = [(7, 9), (2, 4), (5, 1)]
    for perm in itertools.permutations(entries):
        assert server_compute(dict(perm), {}, s_threshold=3).value == 9


def test_compute_echo_threshold():
    # five servers echo 3
    note = server_compute({}, {3: 5}, s_threshold=5)
    assert note.value == 3 and note.adopted


def test_compute_below_threshold_keeps_value():
    # four servers echo 3; adopting nothing, the server keeps its value
    assert server_compute({}, {3: 4}, s_threshold=5) == ComputeNote()


def test_compute_tie_breaks_to_smallest_and_reports():
    note = server_compute({}, {"b": 2, "a": 2}, s_threshold=2)
    assert note.value == "a" and note.adopted
    assert set(note.tied_values) == {"a", "b"}


# ----------------------------------------------------------------- client ---

def test_compute_read_returns_threshold_value():
    # five servers reply 7
    assert client_compute({7: 5}, s_threshold=5) == ReadOk(7)


def test_client_compute_counts_the_first_reply_of_each_sender():
    # the counts of the replies (1, "v"), (2, "v"), (1, "v"), (3, "w"): the
    # engine counts a sender's first Reply only, so "v" has 2 senders, not 3
    # (test_engine.py::test_run_counts_a_senders_first_echo_and_reply)
    counts = {"v": 2, "w": 1}
    assert client_compute(counts, s_threshold=3) == ReadFailed(
        counts=(("v", 2), ("w", 1)), qualifying=())
    assert client_compute(counts, s_threshold=2) == ReadOk("v")
    # nor does a later reply of another value: (1, "v"), (2, "v"), (1, "w"),
    # (2, "w") count as {"v": 2}
    assert client_compute({"v": 2}, s_threshold=2) == ReadOk("v")


def test_client_compute_ignores_other_messages():
    # the counts of an inbox with one Reply among echoes, a write and a read:
    # the engine counts Reply messages only (test_engine.py::
    # test_run_counts_a_senders_first_echo_and_reply sends a reader an Echo)
    assert client_compute({"v": 1}, s_threshold=1) == ReadOk("v")
    assert client_compute({}, s_threshold=1) == ReadFailed((), ())


def test_compute_read_split_support_is_protocol_failure():
    # 4 servers say 7 and 4 say 9 against threshold 5: no value qualifies.
    # (This is the reply multiset the boundary adversary produces; here the
    # counts are verified directly.)
    resp = client_compute({7: 4, 9: 4}, s_threshold=5)
    assert isinstance(resp, ReadFailed)
    assert resp.qualifying == ()
    assert resp.counts == ((7, 4), (9, 4))


def test_compute_read_two_qualifying_is_protocol_failure():
    # servers 0 to 4 reply "b", "a", "b", "a", "c"
    resp = client_compute({"b": 2, "a": 2, "c": 1}, s_threshold=2)
    assert resp == ReadFailed(counts=(("a", 2), ("b", 2), ("c", 1)),
                              qualifying=("a", "b"))


_WIRE_VALUES = st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=3),
                         st.tuples(st.integers(0, 3), st.text(max_size=2)), st.dates())


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_WIRE_VALUES, st.integers(0, 4), max_size=8), st.integers(0, 4))
@example({}, 1)
@example({None: 3, 2: 1, "v": 0}, 2)  # one qualifies
@example({datetime.date(2015, 1, 1): 3, None: 3, 1.5: 4, 2: 3, "v": 3, (1, "a"): 3}, 3)
def test_qualifying_is_the_qualifying_values_sorted_by_value_key(counts, s_threshold):
    # it sorts only when two or more values qualify
    expected = sorted((v for v, c in counts.items() if c >= s_threshold), key=value_key)
    assert qualifying(counts, s_threshold) == expected


# ----------------------------------------------------------------- states ---

@pytest.mark.parametrize("state", [Tally()])
def test_state_fields_cannot_be_assigned(state):
    for name in state._fields:
        with pytest.raises(AttributeError):
            setattr(state, name, 1)
    with pytest.raises(AttributeError):
        state.extra = 1


@pytest.mark.parametrize("make, name", [(Tally, "echo_vals"), (Tally, "current_writes")])
def test_default_state_mappings_are_read_only(make, name):
    with pytest.raises(TypeError):
        getattr(make(), name)[1] = "planted"
    with pytest.raises(TypeError):
        del getattr(make(), name)[1]
    assert getattr(make(), name) == {}
    assert make() == make()._replace(**{name: {}})


def test_replace_derives_a_new_state():
    tally = Tally(current_reads=frozenset({3}))
    assert tally._replace(echo_vals={1: "v"}) == Tally({1: "v"}, {}, frozenset({3}))
    assert tally == Tally(current_reads=frozenset({3}))


def test_receive_on_default_states_returns_fresh_dicts():
    tally = server_receive(Tally(), [(1, Echo(5)), (7, Write(9))])
    assert type(tally.echo_vals) is dict and tally.echo_vals == {1: 5}
    assert type(tally.current_writes) is dict and tally.current_writes == {7: 9}
    assert Tally().echo_vals == {} and Tally().current_writes == {}


# ------------------------------------------------------------- properties ---

def test_phase_functions_are_deterministic():
    inbox = [(1, Echo("v")), (3, Write(2)), (4, Read())]
    tally = Tally(echo_vals={2: "u"})
    assert server_receive(tally, inbox) == server_receive(tally, inbox)
    readers = frozenset({9})
    assert server_send("u", readers, False) == server_send("u", readers, False)
    received = server_receive(tally, inbox)
    writes, echoes = received.current_writes, Counter(received.echo_vals.values())
    assert server_compute(writes, echoes, 1) == server_compute(writes, echoes, 1)
    replies = {"v": 1, "w": 1}  # of (1, "v"), (2, "w") and an Echo of "w"
    assert client_compute(replies, 1) == client_compute(replies, 1)


def test_at_most_one_value_can_reach_threshold_when_admissible():
    # Two values cannot both reach the selection threshold in any reply set
    # the protocol can actually produce.  The reply set holds at most one
    # entry per server; under the cure-aware silent model (alpha=3) up to f
    # cured servers stay silent, so at most n-f replies arrive, and
    # 2(n - beta*f) > n - f reduces to the admissibility bound n > 3f.  In
    # the other models all n servers may reply and 2(n - beta*f) > n reduces
    # to n > 4f (beta=2) resp. n > 2f (beta=1).
    for mid in ModelId:
        p = lookup(mid)
        for f in range(1, 6):
            for n in range(p.alpha * f + 1, p.alpha * f + 7):
                max_replies = n - f if p.model is ModelId.GARAY else n
                assert 2 * (n - p.beta * f) > max_replies


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_receive_is_inbox_order_insensitive(rnd):
    inbox = [(i, Echo(f"v{i % 3}")) for i in range(6)]
    inbox += [(10 + i, Write(f"w{i}")) for i in range(3)]
    inbox += [(20, Read()), (21, Read())]
    shuffled = list(inbox)
    rnd.shuffle(shuffled)
    base = server_receive(Tally(), inbox)
    other = server_receive(Tally(), shuffled)
    assert base == other
    assert server_compute(base.current_writes, Counter(base.echo_vals.values()), 3) == \
        server_compute(other.current_writes, Counter(other.echo_vals.values()), 3)
