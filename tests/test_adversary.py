import enum
import random
from collections import Counter

import pytest

from mobyreg.adversary import (TOKENS, NoFaults, Occupancy, RandomWalk, Scripted,
                               SplitVote, Stationary, Sweep, make_strategy, rng_stream)
from mobyreg.engine import Directive, run
from mobyreg.model import ConfigError, ModelId, lookup, make_config
from mobyreg.protocol import SERVERS, Echo, Read, Reply, Write
from oracles import mt_rng_stream, send_moves, trace_events


def cfg(model="garay", n=7, f=2):
    return make_config(model, n, f)


# ------------------------------------------------------------- scheduling ---

def test_stationary_keeps_its_set():
    s = Stationary({1, 2})
    occ = s.occupancy(cfg(), 5, frozenset({1, 2}), rng_stream(0, 5))
    assert occ.pre_send == frozenset({1, 2}) and send_moves(occ) == ()


def test_one_set_before_and_after_the_send_moves_nothing():
    s = frozenset({1, 2})
    assert send_moves(Occupancy(s, s)) == ()
    assert send_moves(Occupancy(s, frozenset({1, 2}))) == ()
    assert send_moves(Occupancy(s, frozenset({1, 4}))) == ((2, 4),)


def test_sweep_rotates_deterministically():
    s = Sweep()
    first = s.occupancy(cfg(), 1, frozenset(), rng_stream(0, 1))
    second = s.occupancy(cfg(), 2, first.pre_send, rng_stream(0, 2))
    assert first.pre_send == frozenset({0, 1})
    assert second.pre_send == frozenset({2, 3})


def test_random_walk_is_seeded_and_bounded():
    s = RandomWalk()
    c = cfg(n=9, f=3)
    for r in range(1, 50):
        a = s.occupancy(c, r, frozenset(), rng_stream(42, "sched", r))
        b = s.occupancy(c, r, frozenset(), rng_stream(42, "sched", r))
        assert a == b
        assert len(a.pre_send) <= c.f


def test_every_strategy_respects_fault_budget():
    c = cfg(model="bonnet", n=9, f=2)
    for strat in (NoFaults(), Stationary(), Sweep(), RandomWalk()):
        prev = frozenset()
        for r in range(1, 30):
            occ = strat.occupancy(c, r, prev, rng_stream(7, r))
            assert len(occ.pre_send) <= c.f
            prev = occ.pre_send  # bonnet moves at round start only


def test_scripted_overbudget_is_config_error():
    s = Scripted({1: {0, 1, 2}})
    with pytest.raises(ConfigError):
        s.occupancy(cfg(f=2), 1, frozenset(), rng_stream(0, 1))


def test_scripted_unknown_server_is_config_error():
    s = Scripted({1: {99}})
    with pytest.raises(ConfigError):
        s.occupancy(cfg(), 1, frozenset(), rng_stream(0, 1))


@pytest.mark.parametrize("server", [True, 1.0, 1.5, None, "1"])
def test_scripted_server_that_is_not_an_int_is_config_error(server):
    # True would pass as server 1, a float would be written as one, and None
    # or "1" would end in a TypeError
    with pytest.raises(ConfigError, match=f"targets server {server!r}, which is not an int"):
        run(cfg(), Scripted({1: {server}}), [], rounds=2, seed=0)


@pytest.mark.parametrize("round_no", [1.7, True, "x", 0])
def test_scripted_round_that_is_not_an_int_from_one_is_config_error(round_no):
    # 1.7 and True would run as round 1, 0 would act in round 1, and "x"
    # would end in a ValueError
    with pytest.raises(ConfigError, match=f"schedules round {round_no!r}, which is not an int"):
        Scripted({round_no: {0}})


def test_buhrman_movement_happens_during_send():
    c = cfg(model="buhrman", n=5, f=2)
    s = Scripted({1: {0, 1}, 2: {0, 4}})
    occ1 = s.occupancy(c, 1, frozenset(), rng_stream(0, 1))
    assert occ1.pre_send == occ1.post_send == frozenset({0, 1}) and send_moves(occ1) == ()
    occ2 = s.occupancy(c, 2, occ1.post_send, rng_stream(0, 2))
    # the pre-send set is still last round's; the change rides on the send
    assert occ2.pre_send == frozenset({0, 1})
    assert occ2.post_send == frozenset({0, 4})
    assert send_moves(occ2) == ((1, 4),)
    probes = run(c, s, [], rounds=2, seed=0).probes
    assert [p["pre_send_occupied"] for p in probes] == [[0, 1], [0, 1]]
    assert [p["end_occupied"] for p in probes] == [[0, 1], [0, 4]]


@pytest.mark.parametrize("schedule,round_no", [
    ({1: set(), 3: {0, 1}}, 3),      # agents would appear from nowhere
    ({1: {0, 1}, 2: {2}}, 2),        # an agent would vanish
])
def test_buhrman_target_of_another_size_is_config_error(schedule, round_no):
    with pytest.raises(ConfigError, match=f"in round {round_no};"):
        run(cfg(model="buhrman", n=5, f=2), Scripted(schedule), [], rounds=4, seed=0)


def test_round_start_models_never_move_mid_send():
    for model in ("garay", "bonnet", "sasaki"):
        c = cfg(model=model, n=9, f=2)
        occ = Sweep().occupancy(c, 3, frozenset({0, 1}), rng_stream(0, 3))
        assert send_moves(occ) == ()


# ----------------------------------------------------------- cured powers ---

class Behavior(enum.Enum):
    BYZANTINE = "byzantine"
    # cured and aware of it (oracle): the protocol's cured branch keeps it silent
    CURED_SILENT_CAPABLE = "cured_silent_capable"
    # cured and unaware: runs the protocol over the state the agent left
    CURED_CONSTRAINED = "cured_constrained"


def cured_power(params):
    """A cured server's power for its first round, read off its model's row."""
    if params.cured_byzantine:
        return Behavior.BYZANTINE
    if params.oracle_enabled:
        return Behavior.CURED_SILENT_CAPABLE
    return Behavior.CURED_CONSTRAINED


@pytest.mark.parametrize("model,expected", [
    (ModelId.GARAY, Behavior.CURED_SILENT_CAPABLE),
    (ModelId.BONNET, Behavior.CURED_CONSTRAINED),
    (ModelId.SASAKI, Behavior.BYZANTINE),   # Byzantine one extra round
    (ModelId.BUHRMAN, Behavior.CURED_SILENT_CAPABLE),
])
def test_cured_behavior_per_model(model, expected):
    assert cured_power(lookup(model)) is expected


def test_faulty_is_byzantine_and_correct_is_honest():
    # occupied servers send as Byzantine ones in every model, servers vacated
    # at round start only where the model's row says so, and no others do
    for model in ModelId:
        c = cfg(model=model.value, n=9, f=2)
        res = run(c, RandomWalk(), [], rounds=30, seed=1)
        moves = [ev.payload for ev in trace_events(res)
                 if (ev.phase, ev.kind) == ("round_start", "fault_move")]
        # in-send movers leave their hosts during send, never at round start
        cured_at_start = any(move["cured"] for move in moves)
        assert cured_at_start != c.params.moves_in_send
        for probe, move in zip(res.probes, moves, strict=True):
            expected = set(move["occupied"])
            if c.params.cured_byzantine:
                expected |= set(move["cured"])
            assert set(probe["byzantine_senders"]) == expected


# -------------------------------------------------------------- corruption ---

def test_split_vote_plants_its_value():
    s = SplitVote("evil", {1: {0}})
    assert s.corrupt_value(3, 0, "send") == "evil"


def test_corruption_token_names_its_round_server_and_kind():
    kinds = ("send", "leave", "compute")
    tokens = [Stationary().corrupt_value(3, 1, k) for k in kinds]
    assert tokens == [f"byz-3-s1-{k}" for k in kinds]
    assert len(set(tokens)) == 3


# ------------------------------------------------------ byzantine sending ---

def test_default_byzantine_output_equivocates_to_readers():
    # the colluders send one output, which the engine counts once; without
    # a fake value each sender sends its own token
    s = Stationary(fake_value="evil")
    out = s.byzantine_outgoing(cfg(), 2, [0, 5], frozenset({3, 1}))
    assert out == [([0, 5], ((SERVERS, Echo("evil")), (1, Reply("evil")),
                             (3, Reply("evil"))))]
    assert s.byzantine_outgoing(cfg(), 2, [0], frozenset()) == [
        ([0], ((SERVERS, Echo("evil")),))]
    assert Stationary().byzantine_outgoing(cfg(), 2, [0, 5], frozenset({1})) == [
        ([0, 5], TOKENS)]


def test_byzantine_output_carries_true_sender_id():
    # authenticated channels: the engine names each message's sender itself,
    # so every send and delivery of an occupied server is under its own id
    res = run(cfg(), Stationary({4}, fake_value="x"),
              [Directive(1, 0, "write", "good"), Directive(2, 1, "read")],
              rounds=3, seed=0, n_clients=2, record_messages=True)
    byzantine = [ev for ev in trace_events(res) if ev.kind in ("send", "deliver")
                 and ev.payload["msg"].get("value") == "x"]
    assert {ev.payload["msg"]["type"] for ev in byzantine} == {"echo", "reply"}
    for ev in byzantine:
        sender = ev.actor if ev.kind == "send" else f"s{ev.payload['from']}"
        assert sender == f"s{ev.payload['msg']['server']}" == "s4"


def test_byzantine_write_and_read_are_dropped():
    # a server may not pose as a client: the engine drops its Write and Read
    class PosesAsClient(Stationary):
        def byzantine_outgoing(self, config, round_no, senders, readers):
            return [(senders, ((SERVERS, Write("x")), (SERVERS, Read())))]

    res = run(cfg(), PosesAsClient({4}), [Directive(2, 0, "read")],
              rounds=4, seed=0, n_clients=1, record_messages=True)
    # honest servers echo their value every round, and the probes cover the
    # last one: no "x" anywhere means no server ever adopted it
    events = trace_events(res)
    sends = [ev for ev in events if ev.kind == "send"]
    assert "x" not in [ev.payload["msg"].get("value") for ev in sends]
    assert "x" not in [p["modal"] for p in res.probes]
    assert "s4" not in {ev.actor for ev in sends}
    rejected = [ev for ev in events if ev.kind == "violation" and ev.actor == "s4"]
    assert [ev.round for ev in rejected] == [1, 1, 2, 2, 3, 3, 4, 4]
    assert {ev.payload["reason"] for ev in rejected} == {"forged sender rejected"}
    assert res.history[0].result is None


def test_split_vote_does_not_echo():
    s = SplitVote("evil", {1: {0}})
    out = s.byzantine_outgoing(cfg(), 1, [0], frozenset({1}))
    assert out == [([0], ((1, Reply("evil")),))]


def test_split_vote_needs_a_fake_value():
    with pytest.raises(ConfigError, match="non-default fake value"):
        SplitVote(None, {1: {0}})


def test_make_strategy_names():
    assert isinstance(make_strategy("none"), NoFaults)
    assert isinstance(make_strategy("random"), RandomWalk)
    with pytest.raises(ConfigError):
        make_strategy("omniscient")


# ---------------------------------------------------------- random streams ---

def test_stream_is_a_random_generator_named_by_its_key():
    assert isinstance(rng_stream(0, "sched", 1), random.Random)
    a = rng_stream(9, "sched", 3, 4)
    b = rng_stream(9, "sched", 3, 4)
    assert [a.getrandbits(64) for _ in range(50)] == [b.getrandbits(64) for _ in range(50)]
    firsts = {rng_stream(seed, kind, r, i).getrandbits(64)
              for seed in (0, 1) for kind in ("sched", "workload") for r in range(1, 20)
              for i in range(10)}
    assert len(firsts) == 2 * 2 * 19 * 10


def test_stream_is_the_reference_mersenne_twister():
    for key in [(0,), (0, "sched", 1), (7, "workload", 60), (-3, "sched", 10**6)]:
        assert rng_stream(*key).getstate() == mt_rng_stream(*key).getstate()


def test_first_draws_of_distinct_streams_are_uniform():
    # each round's streams are fresh and a run draws only a few times from
    # each, so the first draws across streams must be uniform; fixed keys,
    # no flakes
    counts = Counter(rng_stream(77, "corrupt", r, i).randrange(6)
                     for r in range(600) for i in range(100))
    expected = 60_000 / 6
    chi2 = sum((counts[face] - expected) ** 2 / expected for face in range(6))
    assert chi2 < 30.0  # 5 degrees of freedom: p < 2e-5
