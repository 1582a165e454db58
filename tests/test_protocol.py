import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobyreg.model import ModelId, lookup
from mobyreg.protocol import (BOTTOM, SERVERS, ClientState, ComputeNote, Echo,
                              Read, ReadFailed, ReadOk, Reply, Tally, UsageError,
                              Write, WriteAck, client_compute, client_invoke_read,
                              client_invoke_write, client_receive, client_send,
                              server_compute, server_receive, server_send)

# ----------------------------------------------------------------- server ---

def test_send_echo_and_replies():
    out = server_send("v", frozenset({3, 1}), False)
    assert out == ((SERVERS, Echo("v")), (1, Reply("v")), (3, Reply("v")))


def test_send_cured_is_silent_but_still_drops_reads():
    assert server_send("v", frozenset({3}), True) == ()


def test_send_no_pending_reads():
    assert server_send("v", frozenset(), False) == ((SERVERS, Echo("v")),)


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
    note = server_compute(Tally(current_writes={7: 9, 2: 4}), s_threshold=3)
    assert note.value == 9 and note.adopted


def test_compute_write_selection_is_order_insensitive():
    entries = [(7, 9), (2, 4), (5, 1)]
    for perm in itertools.permutations(entries):
        assert server_compute(Tally(current_writes=dict(perm)), s_threshold=3).value == 9


def test_compute_echo_threshold():
    echo_vals = {i: 3 for i in range(5)}
    note = server_compute(Tally(echo_vals=echo_vals), s_threshold=5)
    assert note.value == 3 and note.adopted


def test_compute_below_threshold_keeps_value():
    echo_vals = {i: 3 for i in range(4)}
    # adopting nothing, the server keeps its value
    assert server_compute(Tally(echo_vals=echo_vals), s_threshold=5) == ComputeNote()


def test_compute_tie_breaks_to_smallest_and_reports():
    echo_vals = {0: "b", 1: "b", 2: "a", 3: "a"}
    note = server_compute(Tally(echo_vals=echo_vals), s_threshold=2)
    assert note.value == "a" and note.adopted
    assert set(note.tied_values) == {"a", "b"}


# ----------------------------------------------------------------- client ---

def test_invoke_write_queues_message():
    st_ = client_invoke_write(ClientState(), 7)
    assert st_.writing and not st_.reading
    assert st_.to_send == (Write(7),)


def test_invoke_write_while_reading_is_usage_error():
    busy = ClientState(reading=True)
    with pytest.raises(UsageError):
        client_invoke_write(busy, 7)


def test_double_invoke_is_usage_error():
    st_ = client_invoke_write(ClientState(), 1)
    with pytest.raises(UsageError):
        client_invoke_write(st_, 2)
    st_ = client_invoke_read(ClientState())
    with pytest.raises(UsageError):
        client_invoke_read(st_)


def test_invoke_write_rejects_default_value():
    with pytest.raises(UsageError):
        client_invoke_write(ClientState(), BOTTOM)


def test_invoke_read_queues_message():
    st_ = client_invoke_read(ClientState())
    assert st_.reading and st_.to_send == (Read(),)


def test_invoke_read_while_writing_is_usage_error():
    with pytest.raises(UsageError):
        client_invoke_read(ClientState(writing=True))


def test_send_sets_op_start_once():
    st_ = client_invoke_read(ClientState())
    st_, out = client_send(st_, round_no=4)
    assert out == ((SERVERS, Read()),)
    assert st_.op_start == 4 and st_.to_send == ()
    # next round: op_start must survive so the read knows its start round
    st_, out = client_send(st_, round_no=5)
    assert out == () and st_.op_start == 4


def test_send_idle_is_noop():
    st_, out = client_send(ClientState(), round_no=3)
    assert out == () and st_.op_start is None


def test_client_receive_accumulates_and_dedupes():
    # a read sent in round 4 takes its replies in round 5
    reading = ClientState(reading=True, op_start=4)
    inbox = [(1, Reply("v")), (2, Reply("w")), (1, Reply("x"))]
    st_ = client_receive(reading, inbox, 5)
    assert st_.replies == {1: "v", 2: "w"}
    assert client_receive(reading, [], 5) == reading


@pytest.mark.parametrize("state,round_no", [
    (ClientState(), 5),                                  # idle
    (ClientState(writing=True, op_start=5), 5),          # writing
    (ClientState(reading=True, op_start=5), 5),          # the read's request round
    (ClientState(reading=True, op_start=3), 5),          # past the reply round
])
def test_client_receive_drops_replies_outside_the_reply_round(state, round_no):
    assert client_receive(state, [(1, Reply("planted"))], round_no) == state


def test_compute_write_confirms_same_round():
    st_ = ClientState(writing=True, op_start=4)
    st_, resp = client_compute(st_, round_no=4, s_threshold=3)
    assert isinstance(resp, WriteAck)
    assert not st_.writing and st_.op_start is None


def test_compute_read_returns_threshold_value():
    replies = {i: 7 for i in range(5)}
    st_ = ClientState(reading=True, op_start=4, replies=replies)
    st_, resp = client_compute(st_, round_no=5, s_threshold=5)
    assert resp == ReadOk(7)
    assert not st_.reading and st_.replies == {}


def test_compute_read_split_support_is_protocol_failure():
    # 4 servers say 7 and 4 say 9 against threshold 5: no value qualifies.
    # (This is the reply multiset the boundary adversary produces; here the
    # counts are verified directly.)
    replies = {i: 7 for i in range(4)} | {i: 9 for i in range(4, 8)}
    st_ = ClientState(reading=True, op_start=4, replies=replies)
    st_, resp = client_compute(st_, round_no=5, s_threshold=5)
    assert isinstance(resp, ReadFailed)
    assert resp.qualifying == ()
    assert dict(resp.counts) == {7: 4, 9: 4}


def test_compute_read_two_qualifying_is_protocol_failure():
    replies = {0: "a", 1: "a", 2: "b", 3: "b"}
    st_ = ClientState(reading=True, op_start=1, replies=replies)
    _, resp = client_compute(st_, round_no=2, s_threshold=2)
    assert isinstance(resp, ReadFailed)
    assert resp.qualifying == ("a", "b")


def test_compute_no_pending_op_is_identity():
    st_ = ClientState()
    assert client_compute(st_, 3, 2) == (st_, None)


# ----------------------------------------------------------------- states ---

@pytest.mark.parametrize("state", [ClientState(), Tally()])
def test_state_fields_cannot_be_assigned(state):
    for name in state._fields:
        with pytest.raises(AttributeError):
            setattr(state, name, 1)
    with pytest.raises(AttributeError):
        state.extra = 1


@pytest.mark.parametrize("make, name", [
    (Tally, "echo_vals"), (Tally, "current_writes"),
    (ClientState, "replies"),
])
def test_default_state_mappings_are_read_only(make, name):
    with pytest.raises(TypeError):
        getattr(make(), name)[1] = "planted"
    with pytest.raises(TypeError):
        del getattr(make(), name)[1]
    assert getattr(make(), name) == {}
    assert make() == make()._replace(**{name: {}})


def test_replace_derives_a_new_state():
    st_ = ClientState(reading=True)
    assert st_._replace(op_start=4) == ClientState((), True, False, 4, {})
    assert st_ == ClientState(reading=True)


def test_receive_on_default_states_returns_fresh_dicts():
    tally = server_receive(Tally(), [(1, Echo(5)), (7, Write(9))])
    assert type(tally.echo_vals) is dict and tally.echo_vals == {1: 5}
    assert type(tally.current_writes) is dict and tally.current_writes == {7: 9}
    cst = client_receive(ClientState(reading=True, op_start=4), [(2, Reply("v"))], 5)
    assert type(cst.replies) is dict and cst.replies == {2: "v"}
    assert Tally().echo_vals == {} and Tally().current_writes == {}
    assert ClientState().replies == {}


# ------------------------------------------------------------- properties ---

def test_phase_functions_are_deterministic():
    inbox = [(1, Echo("v")), (3, Write(2)), (4, Read())]
    tally = Tally(echo_vals={2: "u"})
    assert server_receive(tally, inbox) == server_receive(tally, inbox)
    readers = frozenset({9})
    assert server_send("u", readers, False) == server_send("u", readers, False)
    assert server_compute(server_receive(tally, inbox), 1) == \
        server_compute(server_receive(tally, inbox), 1)


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
    assert server_compute(base, 3) == server_compute(other, 3)
