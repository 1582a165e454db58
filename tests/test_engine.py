import datetime
import hashlib
import json
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

import mobyreg.cli
import mobyreg.engine
from mobyreg.adversary import (TOKENS, NoFaults, RandomColluder, RandomWalk, Scripted,
                               SplitVote, Stationary, Strategy, Sweep, SweepColluder,
                               default_token)
from mobyreg.checker import check_all, history_from_records
from mobyreg.engine import (FAKE_VALUE, HONEST_VALUE, MAX_DEMO_F, Directive, IdTexts,
                            OpRecord, RandomWorkload, RunResult, probe_agreement, probe_text, run,
                            tightness_demo, validate_directives)
from mobyreg.model import ConfigError, ModelId, lookup, make_config
from mobyreg.protocol import (BOTTOM, SERVERS, ComputeNote, Echo, Read, Reply, Tally,
                              Write, server_compute, server_send)
import oracles
from oracles import TraceEvent, per_server_run, trace_events, trace_line, trace_text


def m1_config(n=7, f=2):
    return make_config("garay", n, f)


# ------------------------------------------------------------ basic runs ---

def test_write_then_read_hand_derived():
    # write sent in round 1 confirms in round 1; read sent in round 2
    # gathers replies in round 3 and returns the written value
    wl = [Directive(1, 0, "write", 5), Directive(2, 1, "read")]
    res = run(m1_config(), NoFaults(), wl, rounds=3, seed=1, n_clients=2)
    write, read = res.history
    assert (write.kind, write.invoke_round, write.response_round) == ("write", 1, 1)
    assert write.result == "write_confirmation"
    assert (read.kind, read.invoke_round, read.response_round) == ("read", 2, 3)
    assert read.result == 5
    assert not res.violations and not res.protocol_failures


def test_empty_workload_is_quiet():
    for model in ("garay", "bonnet", "sasaki", "buhrman"):
        cfg = make_config(model, 9, 2)
        res = run(cfg, RandomWalk(), [], rounds=100, seed=3, n_clients=2)
        assert res.history == []
        assert res.violations == []


def test_zero_rounds():
    res = run(m1_config(), NoFaults(), [], rounds=0, seed=0)
    assert res.history == [] and res.probes == []
    assert trace_text(res) == ""


def test_read_before_any_write_returns_default():
    res = run(m1_config(), NoFaults(), [Directive(1, 0, "read")], rounds=2, seed=0)
    (read,) = res.history
    assert read.result is BOTTOM and read.response_round == 2


class PlantsReplies(Scripted):
    """Each held server sends client 1 a reply it never asked for."""

    def byzantine_outgoing(self, config, round_no, senders, readers):
        return [(senders, ((1, Reply("planted")),))]


class SilentAgents(Scripted):
    """Held servers send nothing; the values agents leave are their tokens."""

    def byzantine_outgoing(self, config, round_no, senders, readers):
        return [(senders, ())]


def test_unsolicited_replies_do_not_decide_a_later_read():
    # the agents visit every server while client 1 is idle; the replies they
    # plant must not outvote the honest replies to its read of round 6
    schedule = {1: {0, 1}, 2: {2, 3}, 3: {4, 5}, 4: {6}, 5: set()}
    wl = [Directive(1, 0, "write", "good"), Directive(6, 1, "read")]
    res = run(m1_config(), PlantsReplies(schedule), wl, rounds=7, seed=0, n_clients=2)
    read = res.history[1]
    assert (read.result, read.response_round) == ("good", 7)
    verdicts = check_all(history_from_records(res.history), res.crashed_clients)
    assert all(v.passed for v in verdicts.values())


def test_replies_planted_in_a_reads_request_round_do_not_count():
    # round 2's planted replies would give "planted" 4 senders and "good" 3,
    # both at least s = 3, and the read would fail; only round 3's count
    schedule = {2: {0, 1}, 3: {2, 3}, 4: set()}
    wl = [Directive(1, 0, "write", "good"), Directive(2, 1, "read")]
    res = run(m1_config(), PlantsReplies(schedule), wl, rounds=3, seed=0, n_clients=2)
    read = res.history[1]
    assert (read.result, read.response_round) == ("good", 3)
    assert not res.protocol_failures


class RepliesToTrue(Stationary):
    """Sends nothing but a reply addressed to ``True``, which equals 1."""

    def byzantine_outgoing(self, config, round_no, senders, readers):
        return [(senders, ((True, Reply("stray")),))]


def test_a_reply_addressed_to_true_reaches_no_client():
    args = (m1_config(), RepliesToTrue({4, 5}), [Directive(2, 1, "read")])
    kwargs = dict(rounds=3, seed=0, n_clients=2, record_messages=True)
    for res in (run(*args, **kwargs), per_server_run(*args, **kwargs)):
        events = trace_events(res)
        assert any(ev.kind == "send" and ev.payload["dest"] is True for ev in events)
        assert not [ev for ev in events if ev.kind == "deliver" and ev.actor == "c1"
                    and ev.payload["msg"].get("value") == "stray"]
        assert res.history[0].result is BOTTOM


class RepeatsItself(Stationary):
    """Echoes "x" then "v"; sends each reader an Echo of "e", then replies
    "x" and "v"."""

    def byzantine_outgoing(self, config, round_no, senders, readers):
        to_readers = tuple(m for c in sorted(readers)
                           for m in ((c, Echo("e")), (c, Reply("x")), (c, Reply("v"))))
        return [(senders, ((SERVERS, Echo("x")), (SERVERS, Echo("v"))) + to_readers)]


def test_run_counts_a_senders_first_echo_and_reply():
    # garay n=3, f=1, s=1: server 0 is Byzantine.  Its first echo, "x",
    # ties with the honest "v" in the rounds without a write (one "servers"
    # diagnostic each, written once per server); its first reply, "x", makes
    # the read fail.  Counting its last messages, "v" would have 3 echoes and
    # replies and no tie; counting the Echo sent to the reader, "e" would
    # take the place of "x".
    args = (make_config("garay", 3, 1), RepeatsItself(),
            [Directive(1, 0, "write", "v"), Directive(2, 1, "read")])
    kwargs = dict(rounds=3, seed=0, n_clients=2, allow_inadmissible=True,
                  record_messages=True)
    res = run(*args, **kwargs)
    assert [f["reply_counts"] for f in res.protocol_failures] == [[["v", 2], ["x", 1]]]
    assert list(res.echo_ties) == [2, 3]
    lines = [json.loads(line) for line in trace_text(res).splitlines()]
    assert [(ev["round"], ev["actor"]) for ev in lines
            if ev["kind"] == "state_transition"] == [(r, f"s{i}") for r in (2, 3)
                                                     for i in range(3)]
    assert run_digest(res) == run_digest(per_server_run(*args, **kwargs))


def test_inadmissible_config_needs_explicit_override():
    cfg = make_config("garay", 6, 2)
    with pytest.raises(ConfigError):
        run(cfg, NoFaults(), [], rounds=5, seed=0)
    res = run(cfg, NoFaults(), [], rounds=5, seed=0, allow_inadmissible=True)
    assert res.rounds == 5


# ------------------------------------------------------- workload checks ---

def test_directive_validation_rejects_overlap():
    with pytest.raises(ConfigError):
        validate_directives([Directive(1, 0, "read"), Directive(2, 0, "write", 1)],
                            rounds=5, n_clients=1)


def test_directive_validation_rejects_act_after_crash():
    with pytest.raises(ConfigError):
        validate_directives([Directive(1, 0, "crash"), Directive(2, 0, "read")],
                            rounds=5, n_clients=1)


@pytest.mark.parametrize("op", ["read", "crash"])
def test_directive_validation_rejects_a_value_on_read_or_crash(op):
    with pytest.raises(ConfigError, match=f"a {op} directive takes no value, got 5"):
        validate_directives([Directive(1, 0, op, 5)], rounds=5, n_clients=1)


def test_directive_validation_rejects_a_write_of_the_default_value():
    with pytest.raises(ConfigError, match="a write directive needs a non-default value"):
        validate_directives([Directive(1, 0, "write", BOTTOM)], rounds=5, n_clients=1)


def test_directive_validation_rejects_unfinishable_read():
    with pytest.raises(ConfigError):
        validate_directives([Directive(5, 0, "read")], rounds=5, n_clients=1)


@pytest.mark.parametrize("workload,options,message", [
    ([Directive(1.5, 0, "write", "x")], {}, "directive round 1.5 is not an integer"),
    ([Directive(2, 0.0, "write", "x")], {}, "directive client 0.0 is not an integer"),
    ([Directive(True, 0, "write", "x")], {}, "directive round True is not an integer"),
    ([Directive(1, False, "read")], {}, "directive client False is not an integer"),
    ([Directive(1, 0, "write", "x"), Directive(None, 1, "read")], {},
     "directive round None is not an integer"),
    ([], {"rounds": 2.5}, "rounds 2.5 is not an integer"),
    ([], {"rounds": True}, "rounds True is not an integer"),
    ([], {"n_clients": 2.0}, "n_clients 2.0 is not an integer"),
    ([], {"n_clients": True}, "n_clients True is not an integer"),
])
def test_run_refuses_a_round_or_client_that_is_not_an_int(workload, options, message):
    # a bool is not an int here.  Unrefused, a round of 1.5 never ran, a
    # client of 0.0 was recorded as a float, a float rounds or n_clients
    # ended in a TypeError and rounds=True ran one round
    kwargs = {"rounds": 3, "n_clients": 2, **options}
    with pytest.raises(ConfigError, match=re.escape(message)):
        run(m1_config(), NoFaults(), workload, **kwargs)


def test_crashed_clients_pending_op_stays_open():
    wl = [Directive(1, 0, "read"), Directive(2, 0, "crash")]
    res = run(m1_config(), NoFaults(), wl, rounds=3, seed=0, n_clients=1)
    (read,) = res.history
    assert read.response_round is None
    assert res.crashed_clients == frozenset({0})
    verdicts = check_all(history_from_records(res.history), res.crashed_clients)
    assert verdicts["termination"].passed  # crashed client is excluded


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.integers(0, 60), st.integers(1, 8),
       st.integers(0, 2**32))
def test_expanded_random_workload_is_valid(op_rate, read_ratio, rounds, n_clients, seed):
    # run() trusts the draws: it validates only the directives it is handed
    directives = RandomWorkload(op_rate, read_ratio).expand(rounds, n_clients, seed)
    assert validate_directives(directives, rounds, n_clients) == directives


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(ModelId), st.floats(0, 1), st.floats(0, 1), st.integers(0, 25),
       st.integers(1, 5), st.integers(0, 2**32))
def test_a_drawn_workload_runs_as_its_draws_handed_as_a_list(model, op_rate, read_ratio,
                                                            rounds, n_clients, seed):
    workload = RandomWorkload(op_rate, read_ratio)
    kwargs = dict(rounds=rounds, seed=seed, n_clients=n_clients, record_messages=True)
    config = make_config(model, lookup(model).alpha + 1, 1)
    drawn = run(config, RandomWalk(), workload, **kwargs)
    handed = run(config, RandomWalk(), workload.expand(rounds, n_clients, seed), **kwargs)
    for field_name in ("history", "probes", "violations"):
        assert getattr(drawn, field_name) == getattr(handed, field_name), field_name
    assert trace_text(drawn) == trace_text(handed)


def test_random_workload_is_drawn_before_round_1(monkeypatch):
    # and a corruption draws nothing: in every model a run builds a round's
    # workload and schedule streams, and no other
    keys = []
    draw = mobyreg.engine.rng_stream
    monkeypatch.setattr(mobyreg.engine, "rng_stream",
                        lambda seed, *key: (keys.append(key), draw(seed, *key))[1])
    for model in ModelId:
        keys.clear()
        res = run(make_config(model, lookup(model).alpha * 2 + 1, 2), RandomWalk(),
                  RandomWorkload(op_rate=0.5), rounds=20, seed=4)
        assert res.history
        assert keys == ([("workload", r) for r in range(1, 21)]
                        + [("sched", r) for r in range(1, 21)]), model


# ----------------------------------------------------------- determinism ---

def test_repeat_run_gives_byte_identical_trace():
    wl = RandomWorkload()
    kwargs = dict(rounds=40, seed=11, n_clients=3, record_messages=True)
    a = run(m1_config(), RandomWalk(), wl, **kwargs)
    b = run(m1_config(), RandomWalk(), wl, **kwargs)
    assert trace_text(a) == trace_text(b)
    assert [r.as_dict() for r in a.history] == [r.as_dict() for r in b.history]


RANDOM_40 = dict(rounds=40, seed=5, n_clients=4)
RANDOM_60 = dict(rounds=60, seed=7, n_clients=3)
# name: (config, strategy, workload, run() keywords)
COUNTED_RUNS = {
    "bonnet-random": (make_config("bonnet", 17, 2), RandomWalk(), RandomWorkload(0.5, 0.5),
                      RANDOM_40),
    "sasaki-inadmissible-random": (make_config("sasaki", 8, 2), RandomWalk(),
                                   RandomWorkload(0.5, 0.5),
                                   dict(RANDOM_40, allow_inadmissible=True)),
    "garay-collude-random": (m1_config(9, 2), RandomColluder(), RandomWorkload(0.5, 0.5),
                             RANDOM_40),
    **{f"{model.value}-minimal": (make_config(model, lookup(model).alpha * 2 + 1, 2),
                                  RandomWalk(), RandomWorkload(op_rate=0.5), RANDOM_60)
       for model in ModelId},
    "garay-inadmissible": (make_config("garay", 6, 2), Stationary(fake_value="evil"),
                           RandomWorkload(op_rate=0.5),
                           dict(RANDOM_60, allow_inadmissible=True)),
    "garay-crashes": (m1_config(), RandomWalk(),
                      [Directive(1, 0, "write", "a"), Directive(2, 1, "read"),
                       Directive(3, 1, "crash"), Directive(4, 0, "read"),
                       Directive(4, 2, "crash")], RANDOM_60),
    "garay-no-adoption": (m1_config(), RandomWalk(), RandomWorkload(op_rate=0.5), RANDOM_60),
}


@pytest.mark.parametrize("name", COUNTED_RUNS)
def test_tracing_does_not_change_what_is_counted(name, monkeypatch):
    # the servers and the readers decide on the same counts, and the run
    # keeps the same records, whether or not it records its messages
    if name == "garay-no-adoption":
        # every round fails the agreement probe
        monkeypatch.setattr("mobyreg.engine.server_compute",
                            lambda writes, echo_counts, s: ComputeNote())
    calls = []
    for fn in ("server_compute", "client_compute"):
        phase = getattr(mobyreg.engine, fn)
        monkeypatch.setattr(mobyreg.engine, fn, lambda *a, fn=fn, phase=phase: (
            calls[-1].append((fn, a)), phase(*a))[1])
    config, strategy, workload, kwargs = COUNTED_RUNS[name]
    results = []
    for options in ({}, dict(record_messages=True)):
        calls.append([])
        results.append(run(config, strategy, workload, **kwargs, **options))
    plain, with_messages = results
    assert any(fn == "client_compute" for fn, _ in calls[0])
    assert calls[0] == calls[1]
    assert plain.messages == [] and len(with_messages.messages) == kwargs["rounds"]
    for field_name in ("history", "probes", "violations", "protocol_failures",
                       "crash_rounds", "forged_drops", "echo_ties"):
        assert getattr(plain, field_name) == getattr(with_messages, field_name), field_name
    # each special run records what it is there for
    if name == "garay-inadmissible":
        assert plain.protocol_failures
    elif name == "garay-crashes":
        assert plain.crash_rounds == {1: 3, 2: 4} and plain.crashed_clients == {1, 2}
    elif name == "garay-no-adoption":
        assert plain.violations


def test_different_seeds_differ():
    wl = RandomWorkload()
    a = run(m1_config(), RandomWalk(), wl, rounds=40, seed=1)
    b = run(m1_config(), RandomWalk(), wl, rounds=40, seed=2)
    assert [r.as_dict() for r in a.history] != [r.as_dict() for r in b.history]


def test_round_local_delivery():
    # every delivered message was sent in the same round
    wl = [Directive(1, 0, "write", 9), Directive(2, 1, "read")]
    res = run(m1_config(), Sweep(), wl, rounds=4, seed=0, n_clients=2,
              record_messages=True)
    events = trace_events(res)
    sent = Counter()
    for ev in events:
        if ev.kind == "send":
            sent[(ev.round, json.dumps(ev.payload["msg"], sort_keys=True))] += 1
    for ev in events:
        if ev.kind == "deliver":
            key = (ev.round, json.dumps(ev.payload["msg"], sort_keys=True))
            assert sent[key] > 0


# ----------------------------------------------------------------- probe ---

def test_probe_agreement_counts_nonfaulty_modal():
    values = {0: 9, 1: 9, 2: 9, 3: 4}
    value, support = probe_agreement(values, frozenset({3}), BOTTOM, 4)
    assert (value, support) == (9, 3)
    assert probe_agreement(values, frozenset(values), 9, 4) == (BOTTOM, 0)


def test_probe_counts_every_faulty_server_as_listed():
    # the agents' hosts are faulty whether or not the values name them: the
    # shared value is held by the n - 2 others
    assert probe_agreement({}, frozenset({0, 1}), "v", 5) == ("v", 3)


def test_probe_initial_rounds_agree_on_default():
    res = run(m1_config(), RandomWalk(), [], rounds=3, seed=5)
    for p in res.probes:
        assert p["modal"] is None  # the default value
        assert p["support"] >= 7 - 2


def test_probe_after_write_supports_new_value():
    wl = [Directive(1, 0, "write", 9)]
    res = run(m1_config(), RandomWalk(), wl, rounds=5, seed=7)
    for p in res.probes[1:]:
        assert p["modal"] == 9
        assert p["support"] >= 7 - 2
    assert res.violations == []


def test_probe_flags_nothing_when_inadmissible():
    cfg = make_config("garay", 6, 2)
    strat = SplitVote("evil", {1: {0, 1}})
    res = run(cfg, strat, [Directive(1, 0, "write", "good")], rounds=4, seed=0,
              allow_inadmissible=True)
    assert res.violations == []  # violations are only meaningful when admissible


def test_probe_flags_support_one_below_the_floor(monkeypatch):
    # servers that adopt nothing keep the agents' tokens: round 1 ends with
    # two held servers and 5 = n - f agreeing, round 2 with one cured server
    # apart from them and 4; only round 2 is flagged
    monkeypatch.setattr(mobyreg.engine, "server_compute", lambda *a: ComputeNote())
    res = run(m1_config(), Scripted({1: {0, 1}, 2: {1, 2}}), [], rounds=2, seed=0)
    assert [p["support"] for p in res.probes] == [5, 4]
    assert [(v["round"], v["required"]) for v in res.violations] == [(2, 5)]


# ----------------------------------------------------------- latency -------

def test_latency_exactness_random_runs():
    res = run(m1_config(), RandomWalk(), RandomWorkload(op_rate=0.5), rounds=60,
              seed=13, n_clients=4)
    assert res.history, "workload generated no operations"
    for rec in res.history:
        assert rec.response_round is not None
        span = rec.response_round - rec.invoke_round
        assert span == (0 if rec.kind == "write" else 1)


# ------------------------------------------------------------ M4 timing ----

def test_buhrman_honest_at_send_start_sent_honest():
    cfg = make_config("buhrman", 7, 3)
    res = run(cfg, RandomWalk(), RandomWorkload(), rounds=120, seed=21, n_clients=3)
    for p in res.probes:
        assert set(p["byzantine_senders"]) <= set(p["pre_send_occupied"])
    assert res.violations == []


def test_buhrman_moved_agents_corrupt_new_host_same_round():
    # an agent hopping 0 -> 2 during round 2's send leaves server 0 able to
    # recover that same round while server 2's compute is already corrupted
    cfg = make_config("buhrman", 5, 2)
    strat = Scripted({1: {0, 1}, 2: {2, 1}}, fake_value="evil")
    res = run(cfg, strat, [Directive(1, 3, "write", "good")], rounds=3, seed=0,
              n_clients=4)
    assert res.probes[1]["end_occupied"] == [1, 2]
    assert res.probes[1]["support"] >= 5 - 2
    assert res.violations == []


# ----------------------------------------------------- tightness demos -----

@pytest.mark.parametrize("model,n,top_two,silent", [
    (ModelId.GARAY, 6, [2, 2], 2),
    (ModelId.BONNET, 8, [4, 4], 0),
    (ModelId.SASAKI, 8, [4, 4], 0),
    (ModelId.BUHRMAN, 4, [2, 2], 0),
])
def test_tightness_demo_counts(model, n, top_two, silent):
    report = tightness_demo(model, 2)
    assert report["n"] == n
    assert report["top_two_support"] == top_two
    assert report["silent"] == silent
    assert report["failure_emitted"]


def test_tightness_reader_sees_written_and_planted_value():
    report = tightness_demo(ModelId.SASAKI, 2)
    values = {v for v, _ in report["reply_counts"]}
    assert values == {"written-value", "planted-value"}


def _split_vote_world(model, n, f, written, planted, schedule):
    return run(make_config(model, n, f), SplitVote(planted, schedule),
               [Directive(1, 0, "write", written), Directive(2, 1, "read")],
               rounds=3, n_clients=2, allow_inadmissible=True, record_messages=True)


def _reader_view(res):
    """Reader 1's round-3 replies, sender -> value, from the trace's deliver lines."""
    return {ev.payload["from"]: ev.payload["msg"]["value"] for ev in trace_events(res)
            if (ev.round, ev.kind, ev.actor) == (3, "deliver", "c1")
            and ev.payload["msg"]["type"] == "reply"}


@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("model", ModelId)
def test_the_bound_is_an_indistinguishable_pair(model, f):
    # world A is the tightness demo's run: A is written, B planted.  World B
    # writes B and plants A, and its agents take the servers that replied A
    # honestly in world A, each in place of one that replied B there (in id
    # order); a host that was silent in A stays one.  At n = alpha*f the
    # reader's views, silent servers included, are equal while the written
    # values differ, so no deterministic reader is right in both worlds.  At
    # alpha*f + 1 one more server replies the written value, and the views of
    # the same construction differ
    written, planted = HONEST_VALUE, FAKE_VALUE
    params = lookup(model)
    waves = {1: range(f)} if params.moves_in_send else {1: range(f), 3: range(f, 2 * f)}
    for n in (params.alpha * f, params.alpha * f + 1):
        a = _split_vote_world(model, n, f, written, planted, waves)
        view = _reader_view(a)
        honest = sorted(i for i, value in view.items() if value == written)
        rename = dict(zip(sorted(view.keys() - honest), honest))
        b = _split_vote_world(model, n, f, planted, written, {
            probe["round"]: {rename.get(i, i) for i in probe["pre_send_occupied"]}
            for probe in a.probes})
        if n == params.alpha * f:
            report = tightness_demo(model, f)
            assert a.protocol_failures[0]["reply_counts"] == report["reply_counts"]
            assert [op.as_dict() for op in a.history] == report["history"]
            assert _reader_view(b) == view
            assert a.history[0].argument != b.history[0].argument
            assert a.history[1].failed and b.history[1].failed
        else:
            assert _reader_view(b) != view


@pytest.mark.parametrize("f", [2.0, 1.5, "2"])
def test_tightness_demo_refuses_an_f_that_is_not_an_int(f):
    # the message names the f given, not the n = alpha * f derived from it
    with pytest.raises(ConfigError, match=re.escape(f"f {f!r} is not an integer")):
        tightness_demo(ModelId.GARAY, f)


def test_tightness_demo_refuses_an_f_it_cannot_list():
    with pytest.raises(ConfigError, match=f"lists at most {MAX_DEMO_F} servers a wave"):
        tightness_demo(ModelId.BUHRMAN, MAX_DEMO_F + 1)


# ----------------------------------------------- checker on real histories -

@pytest.mark.parametrize("model,colluder", [
    pytest.param(model, colluder, id=model.value if colluder is RandomColluder
                 else f"{model.value}-{colluder.name}")
    for colluder in (RandomColluder, SweepColluder) for model in ModelId])
def test_a_colluder_breaks_every_model_at_the_bound_and_none_above(model, colluder):
    # distinct corruption tokens never collude: each wrong value has one
    # sender.  One shared value gathers f of them, which at n = alpha*f is
    # enough to break every run, and at alpha*f + 1 never is
    def breaks(n, seed):
        res = run(make_config(model, n, 1), colluder(), RandomWorkload(0.5, 0.5),
                  rounds=40, seed=seed, allow_inadmissible=True)
        verdicts = check_all(history_from_records(res.history), res.crashed_clients)
        return bool(res.protocol_failures or res.violations
                    or not all(v.passed for v in verdicts.values()))

    alpha = lookup(model).alpha
    assert all(breaks(alpha, seed) for seed in range(5))
    assert not any(breaks(alpha + 1, seed) for seed in range(5))


@pytest.mark.parametrize("model", ["garay", "bonnet", "sasaki", "buhrman"])
def test_random_runs_satisfy_register_properties(model):
    from mobyreg.model import lookup
    f = 2
    n = lookup(ModelId.parse(model)).alpha * f + 1
    cfg = make_config(model, n, f)
    res = run(cfg, RandomWalk(), RandomWorkload(), rounds=100, seed=3, n_clients=3)
    verdicts = check_all(history_from_records(res.history), res.crashed_clients)
    assert all(v.passed for v in verdicts.values()), {
        k: v.witness for k, v in verdicts.items() if not v.passed}
    assert res.violations == []


# ------------------------------------------------- server relabelling -----

@st.composite
def relabelled_schedules(draw):
    """A model, f, n at or just above the bound, a 10-round schedule (buhrman's
    agents move in pairs, so its sets keep one size), an adversary's
    ``fake_value`` (None: each agent's own token) and a permutation of the
    server ids."""
    model = draw(st.sampled_from(ModelId))
    f = draw(st.integers(1, 2))
    params = lookup(model)
    n = params.alpha * f + draw(st.integers(0, 1))
    low, high = (draw(st.integers(0, f)),) * 2 if params.moves_in_send else (0, f)
    hosts = st.sets(st.integers(0, n - 1), min_size=low, max_size=high)
    schedule = dict(enumerate(draw(st.lists(hosts, min_size=10, max_size=10)), 1))
    return (make_config(model, n, f), schedule, draw(st.sampled_from((None, "colluded"))),
            draw(st.permutations(range(n))))


TOKEN = re.compile(r"byz-(\d+)-s(\d+)-(\w+)")


@settings(max_examples=150, deadline=None)
@given(relabelled_schedules(), st.integers(0, 2**32))
def test_server_relabelling_is_a_symmetry(drawn, seed):
    # ROADMAP item 17: renaming the servers changes nothing the register
    # decides, in the history (each token renamed), the support or the failures
    config, schedule, fake_value, perm = drawn

    def replay(schedule):
        return run(config, Scripted(schedule, fake_value), RandomWorkload(0.5, 0.5),
                   rounds=len(schedule), seed=seed, allow_inadmissible=True)

    def renamed(value):
        token = TOKEN.fullmatch(value) if isinstance(value, str) else None
        if token is None:
            return value
        r, i, kind = token.groups()
        return default_token(int(r), perm[int(i)], kind)

    res = replay(schedule)
    moved = replay({r: {perm[i] for i in hosts} for r, hosts in schedule.items()})
    history = [dict(rec.as_dict(), argument=renamed(rec.argument), result=renamed(rec.result))
               for rec in res.history]
    # dicts compare their values by ==: count_servers keys equal values of
    # different types (1, True, 1.0) by the lowest id's object, so a
    # relabelling may change the type a read returns, not its equality class
    assert history == [rec.as_dict() for rec in moved.history]
    assert [p["support"] for p in res.probes] == [p["support"] for p in moved.probes]
    assert len(res.protocol_failures) == len(moved.protocol_failures)


# ------------------------------------------------- shared receive phase ----

def run_digest(res, edit=str):
    """SHA-256 over a run's trace lines, history, probes and failures, each
    text as ``edit`` rewrites it."""
    h = hashlib.sha256(edit(trace_text(res)).encode())
    for part in ([r.as_dict() for r in res.history], res.probes,
                 res.violations, res.protocol_failures):
        h.update(edit(json.dumps(part, sort_keys=True, default=str)).encode())
    return h.hexdigest()


def mask_tokens(text):
    """``text`` with each corruption token cut to ``byz-<round>-s<server>``."""
    return re.sub(r"byz-(\d+)-s(\d+)-[0-9a-z]+", r"byz-\1-s\2", text)


def _exotic_values_run():
    # every written value crosses the wire in shared deliver payloads and
    # comes back in read results and probes; the date needs default=str
    wl = [Directive(1, 0, "write", "naïve ☃ 值"), Directive(1, 1, "write", 'say "hi"'),
          Directive(2, 2, "read"), Directive(2, 0, "write", "back\\slash\n"),
          Directive(3, 1, "write", 2.5), Directive(3, 3, "read"),
          Directive(4, 0, "write", float("nan")), Directive(4, 2, "read"),
          Directive(5, 1, "write", True),
          Directive(6, 3, "write", datetime.date(2026, 10, 18)), Directive(6, 0, "read"),
          Directive(7, 1, "write", float("inf")), Directive(7, 2, "read"),
          Directive(8, 3, "read")]
    return run(make_config("garay", 7, 2),
               Scripted({1: {0, 1}, 4: {5, 6}}, fake_value='ƒake "v" \\'), wl,
               rounds=10, seed=5, n_clients=4, record_messages=True)


def _random_run(model, n, f, **kwargs):
    return run(make_config(model, n, f), RandomWalk(), RandomWorkload(op_rate=0.5),
               rounds=60, seed=7, n_clients=3, **kwargs)


# name: (make, digest).  Each random run's digest was recorded with the
# Mersenne Twister streams of tests/oracles.py, which rng_stream returns.
# Of these runs, only sasaki-inadmissible-messages holds a corruption token;
# MASKED_RUNS keeps its digest from before the tokens ended in their kind.
GOLDEN_RUNS = {
    "garay-random": (
        lambda: _random_run("garay", 7, 2),
        "0f003c0af2e8e4ca1cde4d294591fbc846e3b973620418d02e9b5c312908a7c4"),
    "bonnet-random": (
        lambda: _random_run("bonnet", 9, 2),
        "26d9e7080d6cafc5c76117407ee10f93825af6dfda03521b2cae781cce79e0e8"),
    "sasaki-random": (
        lambda: _random_run("sasaki", 9, 2),
        "376bb195d828bbc0ed99eb3524c6c9d31a84871d4f8e657e207e4aa3c8006dff"),
    "buhrman-random": (
        lambda: _random_run("buhrman", 5, 2),
        "9517df5be510cc3de24170676b64b5cf8c7be358632b8b3e57835bb0c6e52a4c"),
    "sasaki-inadmissible-messages": (
        lambda: _random_run("sasaki", 8, 2, allow_inadmissible=True,
                            record_messages=True),
        "f7b08ddd3e4b320cee18d9d77ff5878069b5c1db7949602846f4065ea97f5df5"),
    "buhrman-in-send-moves": (
        lambda: run(make_config("buhrman", 5, 2),
                    Scripted({1: {0, 1}, 2: {2, 1}, 4: {3, 4}}, fake_value="evil"),
                    [Directive(1, 3, "write", "good"), Directive(2, 0, "read"),
                     Directive(4, 1, "write", "better"), Directive(5, 2, "read")],
                    rounds=6, seed=0, n_clients=4, record_messages=True),
        "7bcd84ab834a9cec586cc45c3ba93a32796de109672a9714971b18b3e273de8a"),
    "garay-inadmissible-echo-ties": (
        lambda: run(make_config("garay", 6, 2), Stationary(fake_value="evil"),
                    RandomWorkload(op_rate=0.5), rounds=30, seed=3, n_clients=3,
                    allow_inadmissible=True, record_messages=True),
        "23851d21e3c1fd90e10872a7a7b18576450b15bd54bfee9836b08b9bc04416cc"),
    "garay-exotic-values-messages": (
        _exotic_values_run,
        "4217070d72fb71993e668ba27b7d02ad499b1d5fe6e48c4bcac05234ec112f1d"),
}

GOLDEN_TIGHTNESS = {
    (ModelId.GARAY, 1): "bd5e7242b085500398e9af8dc93f3bbd8dfed93bcd45842cbba45a89201bc081",
    (ModelId.GARAY, 2): "b943137d6676963cff7373b709e7f0c7656527c3dd56d85e87144773dc9560b5",
    (ModelId.BONNET, 1): "390cbc2d20b2536298c06063b2b84179984d7ecb1f82fedadb0fdbb97e8676c6",
    (ModelId.BONNET, 2): "a1bfcc93acdd080cf2ef738e353f1a24999a414586b3b2f7c505359eab6ed9d7",
    (ModelId.SASAKI, 1): "32656eb60b76dc2ad704c5d4557a1207f8e0a1b2ce1e2be81e8713c8c32511c5",
    (ModelId.SASAKI, 2): "f7a6f55b29317d4872ac3b8f7a0ac1b467f5cd9bb9e1020f2552f40d25b9daac",
    (ModelId.BUHRMAN, 1): "3f12b954743d780005f0b0eada62997be2fc34f6e4c26f6bfaaad57e465c1ae0",
    (ModelId.BUHRMAN, 2): "f276c662c9d141a3153edeaa5477ddfacce2ff4471dcbea444bad4860341f126",
}


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_run_artifacts_match_golden_digest(name):
    # digests recorded with the per-server receive phase (n inbox copies,
    # n tallies), the exotic-values one with a json.dumps call per trace
    # event; the shared tally, the spliced trace and the O(f) fault
    # bookkeeping must reproduce every byte
    make, digest = GOLDEN_RUNS[name]
    assert run_digest(make()) == digest


# digests with each corruption token masked (mask_tokens), recorded with
# Mersenne Twister streams when a token ended in a random draw rather than
# its kind.  A token's last part is all that may differ.
MASKED_RUNS = {
    "sasaki-inadmissible-messages":
        "5eb62440a0475359bf2423ad29b4c20edf7e5eddfa52a57ae4b6981bc20bd80b",
}


@pytest.mark.parametrize("name", MASKED_RUNS)
def test_run_artifacts_match_masked_digest(name):
    make = GOLDEN_RUNS[name][0]
    assert run_digest(make(), mask_tokens) == MASKED_RUNS[name]


def test_verdicts_match_masked_digest():
    # 32 untraced RandomWalk runs on both sides of each bound, recorded with
    # the Mersenne Twister streams of tests/oracles.py: with the tokens
    # masked, every history, probe, violation and protocol failure is the same
    h = hashlib.sha256()
    tokens = failures = 0
    for model in ModelId:
        for f in (1, 2):
            for n in (lookup(model).alpha * f, lookup(model).alpha * f + 1):
                for seed in (0, 1):
                    res = run(make_config(model, n, f), RandomWalk(),
                              RandomWorkload(0.5, 0.5), rounds=60, seed=seed,
                              allow_inadmissible=True)
                    text = json.dumps([[r.as_dict() for r in res.history], res.probes,
                                       res.violations, res.protocol_failures],
                                      sort_keys=True, default=str)
                    tokens += text.count("byz-")
                    failures += len(res.violations) + len(res.protocol_failures)
                    h.update(mask_tokens(text).encode())
    assert (tokens, failures) == (546, 142)
    assert h.hexdigest() == \
        "1351a86d7e5f5b8a48bc38e3aabb25f64ab7814bbaedfd91516fd7a1f9f126a8"


class ForgesWrite(Scripted):
    """Also sends every server a ``Write``, which the channel rejects."""

    def byzantine_outgoing(self, config, round_no, senders, readers):
        return [(ids, out + ((SERVERS, Write("forged")),)) for ids, out
                in super().byzantine_outgoing(config, round_no, senders, readers)]


class ForgesAroundItsMessages(Scripted):
    """Sends a forged ``Write`` first and a forged ``Read`` after its echo."""

    def byzantine_outgoing(self, config, round_no, senders, readers):
        return [(ids, ((SERVERS, Write("forged")), echo, (SERVERS, Read()), *replies))
                for ids, (echo, *replies)
                in super().byzantine_outgoing(config, round_no, senders, readers)]


def test_forged_messages_are_dropped_and_the_rest_keep_their_order():
    # clients 0 and 1 request reads in round 2, so each Byzantine server
    # answers both in round 3: Write, Echo, Read, Reply to 0, Reply to 1
    args = (m1_config(), ForgesAroundItsMessages({1: {0, 1}}, fake_value="evil"),
            [Directive(1, 2, "write", "good"), Directive(2, 0, "read"),
             Directive(2, 1, "read")])
    kwargs = dict(rounds=3, seed=0, n_clients=3, record_messages=True)
    res = run(*args, **kwargs)
    events = trace_events(res)
    for server in ("s0", "s1"):
        sends = [(ev.payload["dest"], ev.payload["msg"]["type"]) for ev in events
                 if ev.round == 3 and ev.kind == "send" and ev.actor == server]
        assert sends == [("servers", "echo"), (0, "reply"), (1, "reply")]
        rejected = [ev.round for ev in events
                    if ev.kind == "violation" and ev.actor == server]
        assert rejected == [1, 1, 2, 2, 3, 3]
    assert [rec.result for rec in res.history] == ["write_confirmation", "good", "good"]
    assert run_digest(res) == run_digest(per_server_run(*args, **kwargs))


def _crash_forgery_dip_run():
    # a crash op_invoke, forged-sender violations, and, with no round
    # adopting, the agreement-probe dip of test_probe_flags_support_one_below_the_floor
    with pytest.MonkeyPatch.context() as patch:
        for module in (mobyreg.engine, oracles):
            patch.setattr(module, "server_compute", lambda *a: ComputeNote())
        return run(m1_config(), ForgesWrite({1: {0, 1}, 2: {1, 2}}, fake_value="evil"),
                   [Directive(1, 0, "write", "good"), Directive(1, 1, "read"),
                    Directive(2, 2, "crash"), Directive(3, 0, "read")],
                   rounds=4, seed=0, n_clients=3, record_messages=True)


def _crash_order_run():
    # round 2: client 1 crashes with its read of round 1 pending, between
    # clients 0's and 2's invocations; round 3: client 3 writes and crashes
    return run(m1_config(), RandomWalk(),
               [Directive(1, 0, "write", "a"), Directive(1, 1, "read"),
                Directive(1, 2, "write", "b"), Directive(2, 0, "read"),
                Directive(2, 1, "crash"), Directive(2, 2, "write", "c"),
                Directive(3, 3, "write", "d"), Directive(3, 3, "crash"),
                Directive(4, 2, "read")],
               rounds=5, seed=2, n_clients=4, record_messages=True)


def _traced_reads_run():
    # the benchmark's traced-reads shape, shortened: many readers, token
    # senders and a shared class in the same round
    return run(make_config("bonnet", 17, 4), RandomWalk(), RandomWorkload(0.5, 0.8),
               rounds=18, seed=7, n_clients=12, record_messages=True)


PLACEHOLDER_TOKENS = [f"byz-{r}-s\0-send" for r in (1, 2, 4)]


def _placeholder_tokens_run():
    # the token class's plan holds "byz-<round>-s\0-send", with a raw "\0"
    # for each sender's id.  A client writes that very text in rounds 1 and
    # 2, whose tokens stay unlisted, and the next round's echoes carry each,
    # as do the replies to the read of round 2.  The write of round 3 could
    # equal a round-4 token, so round 4 lists the tokens
    written = dict(zip((1, 2, 3), PLACEHOLDER_TOKENS))
    return run(m1_config(), Stationary(),
               [Directive(r, 0, "write", value) for r, value in written.items()]
               + [Directive(2, 1, "read"), Directive(4, 1, "read")],
               rounds=5, seed=0, n_clients=2, record_messages=True)


def _selection_threshold_one_run():
    # buhrman at n = 2, f = 1: s = 1, so every round lists its tokens
    return run(make_config("buhrman", 2, 1), RandomWalk(), RandomWorkload(1.0, 0.5),
               rounds=8, seed=1, n_clients=2, allow_inadmissible=True,
               record_messages=True)


def _tokens_beside_a_planted_class_run():
    # a TOKENS class beside a class of one output, which lists the tokens
    return run(make_config("garay", 6, 2), PlantsTheNextToken({1: {0, 1}, 2: {2, 3}}),
               [Directive(1, 0, "read")], rounds=3, seed=0, n_clients=1,
               allow_inadmissible=True, record_messages=True)


class LoudEcho(Echo):
    __slots__ = ()


class LoudReply(Reply):
    __slots__ = ()


class SendsSubclasses(Scripted):
    """Sends its echo as a ``LoudEcho`` and its replies as ``LoudReply``s:
    the channel keeps both, and a trace names each by its own type."""

    def byzantine_outgoing(self, config, round_no, senders, readers):
        return [(ids, tuple((dest, (LoudEcho if dest == SERVERS else LoudReply)(msg.value))
                            for dest, msg in out))
                for ids, out in super().byzantine_outgoing(config, round_no, senders, readers)]


def _message_subclasses_run():
    # message classes outside the four the renderer knows by name
    return run(m1_config(), SendsSubclasses({1: {0, 1}, 3: {2, 3}}, fake_value="loud"),
               [Directive(1, 0, "write", "good"), Directive(2, 1, "read"),
                Directive(3, 2, "read")],
               rounds=4, seed=0, n_clients=3, record_messages=True)


# GOLDEN_RUNS's makers, and runs that hold the events or token classes those lack
TRACE_RUNS = {**{name: make for name, (make, _) in GOLDEN_RUNS.items()},
              "garay-crash-forgery-dip": _crash_forgery_dip_run,
              "garay-crash-order": _crash_order_run,
              "bonnet-traced-reads": _traced_reads_run,
              "garay-placeholder-tokens": _placeholder_tokens_run,
              "buhrman-threshold-one": _selection_threshold_one_run,
              "garay-tokens-beside-a-planted-class": _tokens_beside_a_planted_class_run,
              "garay-message-subclasses": _message_subclasses_run}


@pytest.mark.parametrize("name,phase,kind", [
    ("garay-crash-order", "round_start", "op_invoke"),
    ("sasaki-inadmissible-messages", "receive", "deliver"),
    ("buhrman-in-send-moves", "send", "fault_move"),
    ("garay-inadmissible-echo-ties", "compute", "state_transition"),
    ("garay-exotic-values-messages", "compute", "op_response"),
    ("garay-crash-forgery-dip", "end", "violation"),
    ("bonnet-traced-reads", "receive", "deliver"),
    ("garay-placeholder-tokens", "send", "send"),
    ("buhrman-threshold-one", "send", "fault_move"),
    ("garay-tokens-beside-a-planted-class", "compute", "state_transition"),
    ("garay-message-subclasses", "receive", "deliver"),
])
def test_trace_lines_match_the_per_event_encoding(name, phase, kind, monkeypatch):
    # run() holds a round's messages in two records, and trace_lines writes
    # a line per message and sender or receiver; the per-server loop traces
    # one event per message and server, and each line must be that event's
    # encoding
    make = TRACE_RUNS[name]
    res = make()
    events = trace_events(res)
    assert any((ev.phase, ev.kind) == (phase, kind) for ev in events)

    def messages(events):
        return Counter((ev.round, json.dumps(ev.payload["msg"], sort_keys=True, default=str))
                       for ev in events)

    sent = messages(ev for ev in events
                    if ev.kind == "send" and ev.payload["dest"] == SERVERS)
    delivered = [ev for ev in events if ev.kind == "deliver"]
    assert sent and all(messages(ev for ev in delivered if ev.actor == f"s{i}") == sent
                        for i in range(res.config.n))
    assert all(ev.actor[0] in "sc" for ev in delivered)
    assert [msgs.round for msgs in res.messages] == list(range(1, res.rounds + 1))
    monkeypatch.setitem(globals(), "run", per_server_run)  # what make() calls
    reference = make().trace
    assert not any(ev.actor == SERVERS for ev in reference)
    text = trace_text(res)
    assert text.endswith("\n")
    assert text.split("\n")[:-1] == [trace_line(ev) for ev in reference]


def test_a_written_placeholder_token_keeps_its_json():
    # json writes a "\0" as \u0000: the client's text keeps it, while each
    # token sender's "\0" becomes its id
    res = _placeholder_tokens_run()
    assert [msgs.round for msgs in res.messages if msgs.tokens] == [1, 2, 3, 5]
    text = trace_text(res)
    assert "\0" not in text
    for r, token in zip((1, 2), PLACEHOLDER_TOKENS):
        write = json.dumps({"client": 0, "type": "write", "value": token},
                           separators=(",", ":"))
        assert f'"dest":"servers","msg":{write}}},"phase":"send","round":{r}}}' in text
        assert all(f'"value":"{token.replace(chr(0), str(i))}"' in text for i in (0, 1))


class StrayReplies(Stationary):
    """Also sends replies to an unknown client, to ``True`` and to a string,
    a second echo, and a reply to client 0, which is open but not reading."""

    def byzantine_outgoing(self, config, round_no, senders, readers):
        stray = tuple((dest, Reply("stray")) for dest in (99, True, "elsewhere")) + (
            (SERVERS, Echo("again")), (0, Reply("unread")))
        return [(ids, out + stray) for ids, out
                in super().byzantine_outgoing(config, round_no, senders, readers)]


def test_trace_lines_encode_destinations_that_reach_no_client():
    # a destination is written as json writes it, whatever its type
    def make(run):
        return run(m1_config(), StrayReplies({4}, fake_value="evil"),
                   [Directive(1, 0, "write", "good"), Directive(2, 1, "read")],
                   rounds=3, seed=0, n_clients=2, record_messages=True)

    res, reference = make(run), make(per_server_run)
    lines = trace_text(res).split("\n")[:-1]
    assert lines == [trace_line(ev) for ev in reference.trace]
    for dest in ('99', 'true', '"elsewhere"', '"servers"'):
        assert any(f'"kind":"send","payload":{{"dest":{dest},' in line for line in lines)

    def sends(events):
        return [ev.payload for ev in events if ev.kind == "send"]

    assert sends(trace_events(res)) == sends(trace_events(reference))
    # in each of the 3 rounds, server 4's repeated broadcast reaches every
    # server, and its reply reaches client 0
    delivered = Counter((ev.actor, ev.payload["msg"]["value"]) for ev in trace_events(res)
                        if ev.kind == "deliver" and ev.payload["from"] == 4)
    assert all(delivered[f"s{i}", "again"] == 3 for i in range(res.config.n))
    assert delivered["c0", "unread"] == 3


def test_equal_values_render_apart():
    # round 2 carries the written 1 (echoes, replies), the agents' True
    # (echoes, replies) and a written 1.0, and round 3 the writes of 0.0 and
    # -0.0: equal values, each with its own text
    def make(run):
        return run(m1_config(), Scripted({1: {0, 1}}, fake_value=True),
                   [Directive(1, 0, "write", 1), Directive(1, 1, "read"),
                    Directive(2, 2, "write", 1.0), Directive(3, 0, "write", 0.0),
                    Directive(3, 2, "write", -0.0)],
                   rounds=3, seed=0, n_clients=3, record_messages=True)

    lines = trace_text(make(run)).split("\n")[:-1]
    assert lines == [trace_line(ev) for ev in make(per_server_run).trace]
    for r, kind, value in [(2, "echo", "1"), (2, "echo", "true"), (2, "reply", "1"),
                           (2, "reply", "true"), (2, "write", "1.0"), (3, "write", "0.0"),
                           (3, "write", "-0.0")]:
        assert any(f'"type":"{kind}","value":{value}}}' in line
                   and line.endswith(f'"round":{r}}}') for line in lines), (r, kind, value)


def test_trace_lines_write_each_servers_event_where_it_falls():
    # an echo tie, one record a round, is written once per server, s0 to
    # s(n-1), in its own round and phase
    res = RunResult(config=make_config("garay", 4, 1), rounds=3, seed=0)
    res.echo_ties = {1: ("a", "b"), 3: (1, "1")}
    res.probes = [{"round": r, "modal": None, "support": 4, "non_faulty": 4,
                   "pre_send_occupied": [], "byzantine_senders": [], "end_occupied": []}
                  for r in (1, 2, 3)]
    events = []
    for probe in res.probes:
        r = probe["round"]
        events.append(TraceEvent(r, "round_start", "fault_move", "adversary",
                                 {"cured": [], "occupied": [], "planned_moves": []}))
        events += [TraceEvent(r, "compute", "state_transition", f"s{i}",
                              {"diagnostic": "echo threshold tie", "tied": res.echo_ties[r]})
                   for i in range(4) if r in res.echo_ties]
        events.append(TraceEvent(r, "end", "probe", "engine", probe))
    assert trace_text(res).split("\n")[:-1] == [trace_line(ev) for ev in events]


class CharCount:
    """A text stream that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def read_heavy_run(rounds):
    return run(make_config("bonnet", 17, 4), RandomWalk(), RandomWorkload(0.5, 0.8),
               rounds=rounds, seed=1, n_clients=12, record_messages=True)


def trace_lines_peak(res):
    """Peak bytes traced while ``res``'s trace is written, and its length."""
    sink = CharCount()
    tracemalloc.start()
    try:
        res.trace_lines(sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sink.chars


def test_trace_lines_hold_one_round_of_text_at_a_time():
    # the whole text rendered in one piece peaks at about twice its length
    (peak_40, chars_40), (peak_100, chars_100) = (
        trace_lines_peak(read_heavy_run(rounds)) for rounds in (40, 100))
    assert peak_40 < chars_40 / 4 and peak_100 < chars_100 / 4
    assert peak_100 < 1.5 * peak_40


def test_trace_lines_name_the_servers_only_for_a_line_per_server():
    # no line of this run is a server's, so writing it holds no name of one
    res = run(make_config("garay", 200_000, 1), RandomWalk(), RandomWorkload(),
              rounds=3, seed=0)
    peak, chars = trace_lines_peak(res)
    assert chars and peak < 1_000_000


ID_LISTS = st.lists(st.one_of(st.integers(0, 300), st.integers(0, 2**70)), max_size=8,
                    unique=True).map(sorted)
MODAL_VALUES = st.one_of(
    st.none(), st.text(),
    st.sampled_from(['say "hi"', "\x00\x1f\n\\", "naïve ☃ 值", "\ud800"]),
    st.integers(-2**70, 2**70), st.booleans(), st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
    st.tuples(st.integers(), st.text(max_size=3)), st.dates())


@given(st.data())
def test_probe_text_is_the_json_encoding(data):
    # each id list is empty, drawn on its own, or equal to another one
    lists = [data.draw(ID_LISTS)]
    for _ in range(2):
        lists.append(data.draw(st.one_of(ID_LISTS, st.sampled_from(lists).map(list))))
    pre, byzantine, end = data.draw(st.permutations(lists))
    probe = {"round": data.draw(st.integers(1, 10**6)), "modal": data.draw(MODAL_VALUES),
             "support": data.draw(st.integers(0, 10**6)),
             "non_faulty": data.draw(st.integers(0, 10**6)), "pre_send_occupied": pre,
             "byzantine_senders": byzantine, "end_occupied": end}
    ids = IdTexts()
    trace = json.dumps(probe, sort_keys=True, separators=(",", ":"), default=str)
    assert probe_text(probe, ids, mobyreg.engine._ENCODE) == trace
    assert probe_text(probe, ids, mobyreg.engine._ENCODE, hosts=ids.listed(pre)) == trace
    assert probe_text(probe, ids, mobyreg.cli._ENCODE, ", ", ": ") == json.dumps(
        probe, sort_keys=True, default=str)
    assert set(ids) <= {*pre, *byzantine, *end}


@pytest.mark.parametrize("model,f", GOLDEN_TIGHTNESS)
def test_tightness_report_matches_golden_digest(model, f):
    report = json.dumps(tightness_demo(model, f), sort_keys=True, default=str)
    assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN_TIGHTNESS[(model, f)]


# ------------------------------------------------ shared server state ------

def test_probe_merges_equal_values_of_different_types_in_id_order():
    # 1, True and 1.0 are one Counter key, shown as the lowest id's value;
    # the servers missing from the dict hold the shared value
    own = {0: True, 2: 1.0, 5: "x"}
    value, support = probe_agreement(own, frozenset({5}), 1, 6)
    assert (repr(value), support) == ("True", 5)
    value, support = probe_agreement({2: 1.0}, frozenset(), 1, 3)
    assert (repr(value), support) == ("1", 3)


NAN = float("nan")
# equal across types (1, True, 1.0) or unequal to itself (NaN: one object or
# fresh ones), so that which server's copy is counted first shows
WIRE_VALUES = st.integers(0, 4).map(
    lambda k: (1, True, 1.0, NAN)[k] if k < 4 else float("nan"))
# the send tokens' alphabet: a written or planted value that equals a token
# adds its sender's vote, which run() counts only where a token could matter
TOKEN_VALUES = st.builds("byz-{}-s{}-send".format, st.integers(1, 10), st.integers(0, 8))


@st.composite
def engine_inputs(draw, models=tuple(ModelId)):
    model = draw(st.sampled_from(models))
    f = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(
        ["none", "stationary", "sweep", "random", "scripted", "silent"]))
    if kind == "silent":
        # f + 1 to 2f servers, inadmissible in every model: the silent agents
        # and the servers they just left can then be all of them, which
        # leaves no echo to adopt
        n = draw(st.integers(f + 1, 2 * f))
    else:
        n = lookup(model).alpha * f + draw(st.sampled_from([0, 1, 3]))
    rounds = draw(st.integers(1, 10))
    n_clients = draw(st.integers(1, 3))
    if kind in ("scripted", "silent"):
        if kind == "silent":
            # the whole budget on any servers, so that the agents move often
            sets = st.permutations(range(n)).map(lambda order: order[:f])
        elif lookup(model).moves_in_send:
            # a moves_in_send target keeps the size of the current occupation
            size = draw(st.integers(0, f))
            sets = st.lists(st.integers(0, n - 1), min_size=size, max_size=size,
                            unique=True)
        else:
            sets = st.lists(st.integers(0, n - 1), max_size=f, unique=True)
        later = draw(st.lists(st.integers(2, rounds + 1), unique=True, max_size=4))
        schedule = {r: draw(sets) for r in [1] + later}
        if kind == "silent":
            strategy = SilentAgents(schedule)
        else:
            fake = draw(WIRE_VALUES | TOKEN_VALUES | st.sampled_from([None, "planted"]))
            strategy = Scripted(schedule, fake)
    elif kind == "stationary":
        strategy = Stationary(fake_value=draw(WIRE_VALUES | st.none()))
    else:
        strategy = {"none": NoFaults, "sweep": Sweep, "random": RandomWalk}[kind]()
    if draw(st.integers(0, 2)) == 0:
        workload = RandomWorkload(draw(st.sampled_from([0.3, 1.0])), 0.5)
    else:
        workload = []
        for c in range(n_clients):
            r = 1 + draw(st.integers(0, 2))
            while r <= rounds:
                op = draw(st.sampled_from(["write", "write", "read", "crash"]))
                if op == "read" and r == rounds:
                    break
                value = draw(WIRE_VALUES | TOKEN_VALUES) if op == "write" else None
                workload.append(Directive(r, c, op, value))
                if op == "crash":
                    break
                r += (2 if op == "read" else 1) + draw(st.integers(0, 2))
    return make_config(model, n, f), strategy, workload, dict(
        rounds=rounds, seed=draw(st.integers(0, 3)), n_clients=n_clients,
        allow_inadmissible=True, record_messages=draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(engine_inputs())
@example((make_config("garay", 7, 2), Stationary(fake_value=True),
          [Directive(1, 0, "write", 1)],
          dict(rounds=3, seed=0, n_clients=1, record_messages=False)))
@example((make_config("garay", 7, 2),
          Scripted({1: {0, 1}, 2: {2, 3}, 3: {0, 1}}, "planted"), [],
          dict(rounds=3, seed=0, n_clients=3, record_messages=True)))
@example((make_config("sasaki", 4, 2),
          SilentAgents({1: {0, 1}, 2: {2, 3}, 3: {0, 1}}), [Directive(1, 0, "read")],
          dict(rounds=3, seed=0, n_clients=1, allow_inadmissible=True,
               record_messages=True)))
@example((make_config("bonnet", 9, 2), RandomWalk(),
          [Directive(1, 0, "write", 1), Directive(1, 0, "crash")],
          dict(rounds=2, seed=0, n_clients=2, record_messages=True)))
@example((make_config("garay", 7, 2), Stationary(),
          [Directive(1, 0, "write", "byz-2-s0-send"), Directive(2, 1, "read"),
           Directive(3, 0, "write", "byz-4-s1-send")],
          dict(rounds=4, seed=0, n_clients=2, record_messages=False)))
@example((make_config("sasaki", 9, 2), Scripted({1: {0, 1}, 2: {4, 5}}, 1.0),
          [Directive(1, 0, "write", True), Directive(2, 1, "read"),
           Directive(3, 0, "write", 1), Directive(4, 1, "read")],
          dict(rounds=5, seed=0, n_clients=2, record_messages=False)))
@example((make_config("buhrman", 2, 1), RandomWalk(), RandomWorkload(1.0, 0.5),
          dict(rounds=8, seed=1, n_clients=2, allow_inadmissible=True,
               record_messages=False)))
def test_shared_state_run_matches_the_per_server_loop(inputs):
    # first example: servers 0 and 1 echo True, the others 1, and the servers
    # adopt the one of the lower server id; second: servers 0 and 1 adopt in
    # round 2 while flagged cured, and agents take them again in round 3;
    # third: from round 2 on no server echoes, so nothing is adopted, and the
    # end-of-round probe counts the tokens the agents left on the cured
    # servers; fourth: a client writes and crashes in one round, so its write
    # is neither sent nor confirmed; fifth: the written values equal the
    # tokens servers 0 and 1 send in the next round; sixth: the colluders
    # plant 1.0 against the written True and 1; seventh: at s = 1 every
    # token qualifies, and reads fail
    config, strategy, workload, kwargs = inputs
    assert run_digest(run(config, strategy, workload, **kwargs)) == \
        run_digest(per_server_run(config, strategy, workload, **kwargs))


@pytest.mark.parametrize("seed", [1, 2])
def test_read_heavy_messages_match_the_per_server_loop(seed):
    # bonnet at n = 17 with 12 read-heavy clients: about 10 servers hold
    # shared each round, and each writes its sends, its echo and its reply
    # to each open reader from the round's template
    args = (make_config("bonnet", 17, 4), RandomWalk(), RandomWorkload(0.5, 0.8))
    kwargs = dict(rounds=40, seed=seed, n_clients=12, record_messages=True)
    res = run(*args, **kwargs)
    assert sum(op.kind == "read" for op in res.history) > 100
    assert run_digest(res) == run_digest(per_server_run(*args, **kwargs))


@pytest.mark.parametrize("model", ModelId)
def test_a_reader_crashed_in_its_reply_round_gets_no_reply(model):
    # the shared servers send client 0 a Reply in round 2, the reply round
    # of its read, but it crashed at that round's start: the sends are
    # written, the deliveries are not
    n = lookup(model).alpha * 2 + 1
    args = (make_config(model, n, 2), RandomWalk(),
            [Directive(1, 0, "read"), Directive(1, 1, "write", "v"),
             Directive(2, 0, "crash"), Directive(2, 1, "read")])
    kwargs = dict(rounds=3, seed=0, n_clients=2, record_messages=True)
    res = run(*args, **kwargs)
    events = trace_events(res)
    replies = [ev for ev in events if ev.round == 2 and ev.kind == "send"
               and ev.payload["dest"] == 0]
    assert len(replies) >= n - 2
    assert not [ev for ev in events if ev.kind == "deliver" and ev.actor == "c0"
                and ev.round == 2]
    assert run_digest(res) == run_digest(per_server_run(*args, **kwargs))


def test_message_records_do_not_grow_with_n():
    # a round's messages are one record however many servers send them
    def records(n):
        return len(run(make_config("bonnet", n, 2), RandomWalk(), RandomWorkload(0.5, 0.5),
                       rounds=60, seed=3, n_clients=4, record_messages=True).messages)

    assert records(9) == records(901) == 60


def test_run_without_adoption_keeps_every_server_apart(monkeypatch):
    # garay n=3, f=2 (inadmissible): from round 2 on, two silent Byzantine
    # hosts and one silent cured server leave no echo to adopt, so every
    # server keeps a value of its own.  server_send runs only for the shared
    # value, for each round's message record: the own servers are Byzantine,
    # and the cured server knows it is cured, so it sends nothing and its
    # token is not asked for; the record still lists it, silent
    calls = []
    send = mobyreg.engine.server_send
    monkeypatch.setattr(mobyreg.engine, "server_send",
                        lambda *a: (calls.append(a), send(*a))[1])
    schedule = {r: {(2 * r - 2) % 3, (2 * r - 1) % 3} for r in range(1, 9)}
    args = (make_config("garay", 3, 2), SplitVote("planted", schedule),
            [Directive(1, 0, "read")])
    kwargs = dict(rounds=8, seed=2, n_clients=1, allow_inadmissible=True,
                  record_messages=True)
    res = run(*args, **kwargs)
    assert len(calls) == 8
    cured = [set(p["end_occupied"]) - set(q["pre_send_occupied"])
             for p, q in zip(res.probes, res.probes[1:])]
    assert all(len(servers) == 1 for servers in cured)
    assert all(msgs.own_out[i] == () for msgs, servers in zip(res.messages[1:], cured)
               for i in servers)
    assert run_digest(res) == run_digest(per_server_run(*args, **kwargs))


def test_generated_inputs_reach_rounds_without_adoption(monkeypatch):
    # the differential test above must also see rounds that keep servers
    # apart, where own values diverge and the probe counts the agents' tokens
    adopted = []
    compute = mobyreg.engine.server_compute
    monkeypatch.setattr(mobyreg.engine, "server_compute",
                        lambda *a: (adopted.append(compute(*a)), adopted[-1])[1])

    def keeps_servers_apart(inputs):
        config, strategy, workload, kwargs = inputs
        adopted.clear()
        run(config, strategy, workload, **kwargs)
        return not all(note.adopted for note in adopted)

    config, strategy, workload, kwargs = find(
        engine_inputs(), keeps_servers_apart,
        settings=settings(max_examples=1000, database=None, derandomize=True,
                          phases=[Phase.generate]))
    assert isinstance(strategy, SilentAgents) and not config.admissible
    assert run_digest(run(config, strategy, workload, **kwargs)) == \
        run_digest(per_server_run(config, strategy, workload, **kwargs))


@settings(max_examples=100, deadline=None)
@given(engine_inputs(models=(ModelId.BONNET, ModelId.BUHRMAN)))
def test_bonnet_and_buhrman_rounds_always_adopt(inputs):
    # Every round adopts, by induction: if the last one did, own holds at
    # most the f servers the agents then held.  In bonnet (no cure oracle,
    # so nothing is silent but a Byzantine host) own and this round's
    # Byzantine servers are at most 2f, so at least n - 2f = s servers echo
    # the shared value, and with s <= 0 any one of the n - f >= 1 servers no
    # agent holds echoes a value that qualifies.  In buhrman the agents move
    # only during the send, so own is within this round's Byzantine servers
    # and the other n - f = s echo the shared value.
    notes = []
    compute = mobyreg.engine.server_compute
    config, strategy, workload, kwargs = inputs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mobyreg.engine, "server_compute",
                   lambda *a: (notes.append(compute(*a)), notes[-1])[1])
        run(config, strategy, workload, **kwargs)
    assert len(notes) == kwargs["rounds"] and all(note.adopted for note in notes)


def _entries(arg):
    """How many entries a protocol argument holds; a tally sums its fields'."""
    if isinstance(arg, Tally):
        return sum(len(part) for part in arg)
    return len(arg) if isinstance(arg, (dict, list, tuple)) else 0


def test_protocol_inputs_do_not_grow_with_n(monkeypatch):
    # the shared servers count once, so the counts the protocol decides on
    # have as many entries at n = 901 as at n = 9
    sizes = {}
    for name in ("server_compute", "client_compute"):
        phase = getattr(mobyreg.engine, name)
        monkeypatch.setattr(mobyreg.engine, name, lambda *a, phase=phase: (
            sizes[n].append(sum(map(_entries, a))), phase(*a))[1])
    for n in (9, 901):
        sizes[n] = []
        res = run(make_config("sasaki", n, 2), Sweep(), RandomWorkload(0.5, 0.5),
                  rounds=12, seed=3, n_clients=3)
        assert any(op.kind == "read" and not op.failed for op in res.history)
    assert len(sizes[9]) > 12 and sizes[9] == sizes[901]


class PlantsTheNextToken(Scripted):
    """The lowest Byzantine server sends the highest one's token, and the
    others each their own, so that one token counts twice."""

    def byzantine_outgoing(self, config, round_no, senders, readers):
        token = self.corrupt_value(round_no, senders[-1], "send")
        return [(senders[:1], server_send(token, readers, False)), (senders[1:], TOKENS)]


def test_a_token_that_another_class_sends_counts_twice():
    # garay n=6, f=2, so s=2: in round 1 servers 0 and 1 both echo server 1's
    # token, which ties with the shared servers' default value; run() must
    # list the token class whenever another class could send one of its tokens
    args = (make_config("garay", 6, 2), PlantsTheNextToken({1: {0, 1}, 2: {2, 3}}),
            [Directive(1, 0, "read")])
    kwargs = dict(rounds=3, seed=0, n_clients=1, allow_inadmissible=True)
    res = run(*args, **kwargs)
    assert res.echo_ties[1] == (BOTTOM, "byz-1-s1-send")
    assert run_digest(res) == run_digest(per_server_run(*args, **kwargs))


@pytest.mark.parametrize("written", ["byz-3-s4-send", "good"])
def test_a_lost_adoption_lets_the_tokens_count(written):
    # garay n=7, f=2, s=3, and round 2 adopts nothing, so that in round 3
    # the agents' hosts and the cured servers leave 2 servers holding the
    # written value.  Written as server 4's round-3 token, it has 3 votes and
    # is adopted again; else no value qualifies, and the read's reply counts
    # list the Byzantine servers' tokens
    def make(run):
        calls = []

        def compute(*args):
            calls.append(args)
            return ComputeNote() if len(calls) == 2 else server_compute(*args)

        with pytest.MonkeyPatch.context() as patch:
            for module in (mobyreg.engine, oracles):
                patch.setattr(module, "server_compute", compute)
            return run(m1_config(), Scripted({1: {0, 1}, 2: {2, 3}, 3: {0, 4}}),
                       [Directive(1, 0, "write", written), Directive(2, 1, "read")],
                       rounds=3, seed=0, n_clients=2)

    res = make(run)
    assert run_digest(res) == run_digest(make(per_server_run))
    (read,) = [op for op in res.history if op.kind == "read"]
    if written == "good":
        assert read.failed
        assert {"byz-3-s0-send", "byz-3-s4-send"} <= {
            v for v, _ in res.protocol_failures[0]["reply_counts"]}
    else:
        assert read.result == written and res.probes[2]["support"] == 5


def test_byzantine_work_does_not_grow_with_f(monkeypatch):
    # the Byzantine servers answer in one hook call a round, a run whose
    # reads all succeed lists no send token, and in sasaki no correct server
    # reads a host's compute token: a round's Byzantine work grows with the
    # classes of senders, not with f
    calls, kinds = Counter(), Counter()
    outgoing, corrupt = Strategy.byzantine_outgoing, Strategy.corrupt_value

    def hook(self, config, round_no, *rest):
        calls[round_no] += 1
        return outgoing(self, config, round_no, *rest)

    def corrupt_value(self, round_no, server, kind):
        kinds[kind] += 1
        return corrupt(self, round_no, server, kind)

    monkeypatch.setattr(Strategy, "byzantine_outgoing", hook)
    monkeypatch.setattr(Strategy, "corrupt_value", corrupt_value)
    for strategy in (RandomWalk, RandomColluder):
        for f in (1, 10, 30):
            calls.clear()
            kinds.clear()
            res = run(make_config("sasaki", 4 * f + 1, f), strategy(),
                      RandomWorkload(0.5, 0.5), rounds=20, seed=3, n_clients=3)
            reads = [op for op in res.history if op.kind == "read"]
            assert reads and not any(op.failed for op in reads)
            assert len(calls) == 20 and set(calls.values()) == {1}
            assert kinds["compute"] == 0 and kinds["send"] == 0


def test_a_traced_run_asks_for_no_send_token(monkeypatch):
    # with record_messages, a round whose tokens stay unlisted records the
    # token class's ids, not their outputs, and asks for none of its tokens:
    # the trace writes each from the class's one plan.  So a round's record
    # holds the same outputs at every f
    asked = Counter()
    corrupt = Strategy.corrupt_value

    def corrupt_value(self, round_no, server, kind):
        asked[kind] += 1
        return corrupt(self, round_no, server, kind)

    monkeypatch.setattr(Strategy, "corrupt_value", corrupt_value)
    outputs = {}
    for f in (1, 10, 30):
        asked.clear()
        res = run(make_config("sasaki", 4 * f + 1, f), RandomWalk(),
                  RandomWorkload(0.5, 0.5), rounds=20, seed=3, n_clients=3,
                  record_messages=True)
        reads = [op for op in res.history if op.kind == "read"]
        assert reads and not any(op.failed for op in reads)
        assert asked["send"] == 0
        assert [list(msgs.tokens) for msgs in res.messages] == \
            [probe["byzantine_senders"] for probe in res.probes]
        assert not any(msgs.own_out.keys() & set(msgs.tokens) for msgs in res.messages)
        outputs[f] = [len(msgs.own_out) for msgs in res.messages]
    assert outputs[1] == outputs[10] == outputs[30]


@pytest.mark.parametrize("model", ModelId)
@pytest.mark.parametrize("strategy", [RandomWalk, RandomColluder])
def test_a_host_token_is_asked_for_only_where_a_cured_host_sends(model, strategy,
                                                                 monkeypatch):
    # the hosts hold their compute tokens by name: in an admissible run every
    # round adopts, so a token is asked for only by a cured host that sends,
    # in the round after it was left; in garay a cured host knows it is cured
    # and is silent, in sasaki it is Byzantine and in buhrman no host is left
    # at round start, so no token is asked for.  In bonnet a cured host
    # echoes its token, so some are asked for
    asked = Counter()  # round -> compute tokens asked for in it
    corrupt = Strategy.corrupt_value

    def corrupt_value(self, round_no, server, kind):
        if kind == "compute":
            asked[round_no + 1] += 1
        return corrupt(self, round_no, server, kind)

    monkeypatch.setattr(Strategy, "corrupt_value", corrupt_value)
    f = 3
    res = run(make_config(model, lookup(model).alpha * f + 1, f), strategy(),
              RandomWorkload(0.5, 0.5), rounds=30, seed=4, n_clients=3)
    cured = [set(p["end_occupied"]) - set(q["pre_send_occupied"])
             for p, q in zip(res.probes, res.probes[1:])]
    if model is ModelId.BONNET:
        assert asked and set(asked) <= set(range(2, 31))
        assert all(asked[r] <= len(left) for r, left in enumerate(cured, start=2))
    else:
        assert not asked


class ComputesOne(RandomWalk):
    """Leaves 1 or True, by the round's parity, on every host it holds: a
    value equal to a written one and across hosts, but shown by its type."""

    def corrupt_value(self, round_no, server, kind):
        if kind == "compute":
            return (1, True)[round_no % 2]
        return super().corrupt_value(round_no, server, kind)


@pytest.mark.parametrize("record_messages", [False, True])
def test_deferred_host_tokens_match_the_per_server_loop(record_messages):
    # bonnet at n = 4f: cured hosts send the token they were left in the
    # round before.  Every bonnet round adopts, so both loops drop every
    # third adoption, and the hosts the agents leave then keep their token
    # into later rounds
    def make(run):
        calls = []

        def compute(*args):
            calls.append(args)
            return ComputeNote() if len(calls) % 3 == 0 else server_compute(*args)

        with pytest.MonkeyPatch.context() as patch:
            for module in (mobyreg.engine, oracles):
                patch.setattr(module, "server_compute", compute)
            workload = [Directive(r, 0, "write", (1, True)[r % 2]) for r in range(1, 24, 4)]
            workload += [Directive(r, 1, "read") for r in range(2, 24, 2)]
            res = run(make_config("bonnet", 12, 3), ComputesOne(), workload, rounds=24,
                      seed=6, n_clients=2, allow_inadmissible=True,
                      record_messages=record_messages)
        assert len(calls) == 24
        return res

    assert run_digest(make(run)) == run_digest(make(per_server_run))


@pytest.mark.parametrize("record", [
    OpRecord(0, 1, "write", argument="a", invoke_round=3, response_round=3),
    OpRecord(4, 2, "read", result=None, invoke_round=5, response_round=6, failed=True),
    OpRecord(7, 0, "read", invoke_round=9),
], ids=["write", "failed-read", "pending-read"])
def test_an_op_records_repr_rebuilds_an_equal_record(record):
    rebuilt = eval(repr(record), {"OpRecord": OpRecord})
    assert rebuilt is not record and rebuilt == record
    assert record != record.as_dict()  # a record equals only a record
