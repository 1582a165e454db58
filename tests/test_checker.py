import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobyreg.checker import (CheckerInputError, Op, check_all, check_ordering,
                             check_termination, check_validity,
                             history_from_records, precedes)
from mobyreg.protocol import BOTTOM
from oracles import (BRUTE_FORCE_CAP, OracleRefusal, brute_force_linearizable,
                     cluster_graph_ordering, validity_by_definition)


def W(op_id, value, invoke, response, client=0):
    return Op(op_id, client, "write", value, invoke, response)


def R(op_id, value, invoke, response, client=1):
    return Op(op_id, client, "read", value, invoke, response)


# ------------------------------------------------------------ precedence ---

def test_precedence_is_strict_round_order():
    a, b = W(0, 1, 1, 2), R(1, 1, 3, 4)
    assert precedes(a, b) and not precedes(b, a)
    # overlap in round 2 means neither precedes the other
    c = R(2, 1, 2, 3)
    assert not precedes(a, c) and not precedes(c, a)


def test_incomplete_ops_precede_nothing():
    assert not precedes(W(0, 1, 1, None), R(1, 1, 5, 6))


# ------------------------------------------------------------ termination --

def test_termination_passes_when_all_respond():
    assert check_termination([W(0, 1, 1, 1), R(1, 1, 2, 3)]).passed


def test_termination_fails_on_unresponded_op():
    v = check_termination([W(0, 1, 1, None)])
    assert not v.passed and v.witness[0]["op_id"] == 0


def test_termination_excuses_crashed_clients():
    assert check_termination([R(0, 1, 1, None, client=4)], crashed_clients={4}).passed


# ------------------------------------------------------------ validity -----

def test_validity_read_after_write_must_return_it():
    assert check_validity([W(0, 5, 1, 1), R(1, 5, 2, 3)]).passed
    v = check_validity([W(0, 5, 1, 1), R(1, BOTTOM, 2, 3)])
    assert not v.passed and "default" in v.witness[0]["reason"]


def test_validity_default_value_ok_without_preceding_write():
    assert check_validity([R(0, BOTTOM, 1, 2)]).passed
    # a concurrent write does not forbid the default value
    assert check_validity([W(0, 5, 1, 3), R(1, BOTTOM, 2, 3)]).passed


def test_validity_default_value_after_the_first_write_to_respond():
    # the write invoked first responds last; the other one has completed
    hist = [W(0, 3, 1, 5), W(1, 5, 2, 2, client=2), R(2, BOTTOM, 4, 5)]
    v = check_validity(hist)
    assert not v.passed and "default" in v.witness[0]["reason"]


def test_validity_concurrent_write_offers_either_value():
    base = [W(0, 3, 1, 1), W(1, 5, 2, 4, client=2)]
    assert check_validity(base + [R(2, 3, 3, 4)]).passed
    assert check_validity(base + [R(2, 5, 3, 4)]).passed


def test_validity_rejects_overwritten_value():
    hist = [W(0, 3, 1, 1), W(1, 5, 2, 2, client=2), R(2, 3, 3, 4)]
    v = check_validity(hist)
    assert not v.passed and v.witness[0]["reason"] == "overwritten value"


def test_validity_rejects_never_written_value():
    v = check_validity([R(0, 42, 1, 2)])
    assert not v.passed and v.witness[0]["reason"] == "value never written"


def test_validity_rejects_read_preceding_its_write():
    v = check_validity([R(0, 5, 1, 2), W(1, 5, 3, 3)])
    assert not v.passed and v.witness[0]["reason"] == "read precedes its write"


def test_duplicate_written_values_are_a_usage_error():
    with pytest.raises(CheckerInputError):
        check_validity([W(0, 5, 1, 1), W(1, 5, 2, 2)])
    with pytest.raises(CheckerInputError):
        brute_force_linearizable([W(0, 5, 1, 1), W(1, 5, 2, 2)])


# ------------------------------------------------------------ ordering -----

def test_ordering_passes_on_sequential_history():
    hist = [W(0, 1, 1, 1), R(1, 1, 2, 3), W(2, 2, 4, 4), R(3, 2, 5, 6)]
    assert check_ordering(hist).passed


def test_ordering_passes_on_empty_history():
    assert check_ordering([]).passed


def test_ordering_detects_new_old_inversion():
    # two sequential reads that observe two writes in the reverse order
    hist = [W(0, 1, 1, 3), W(1, 2, 1, 3, client=2),
            R(2, 2, 4, 5), R(3, 1, 6, 7)]
    v = check_ordering(hist)
    assert not v.passed
    oracle = brute_force_linearizable(hist)
    assert not oracle.passed


def test_ordering_fails_on_orphan_read():
    v = check_ordering([R(0, 42, 1, 2)])
    assert not v.passed and v.witness[0]["reason"] == "value never written"


def test_ordering_default_after_observed_write_fails():
    # once some read has returned 5 and finished, a later read of the
    # default value cannot be explained
    hist = [W(0, 5, 1, 4), R(1, 5, 2, 3), R(2, BOTTOM, 5, 6)]
    v = check_ordering(hist)
    assert not v.passed
    assert not brute_force_linearizable(hist).passed


def test_ordering_concurrent_reads_may_disagree():
    hist = [W(0, 1, 1, 1), W(1, 2, 2, 4, client=2),
            R(2, 2, 3, 4), R(3, 1, 3, 4, client=3)]
    assert check_ordering(hist).passed
    assert brute_force_linearizable(hist).passed


def test_ordering_cycle_witness_names_real_ops():
    hist = [W(0, 1, 1, 3), W(1, 2, 1, 3, client=2),
            R(2, 2, 4, 5), R(3, 1, 6, 7)]
    v = check_ordering(hist)
    ids = {op.op_id for op in hist}
    for edge in v.witness:
        for key in ("before_op", "after_op"):
            if key in edge:
                assert edge[key] in ids


# ------------------------------------------------------------ oracle -------

def test_oracle_refuses_large_histories():
    hist = [W(i, i, i, i) for i in range(BRUTE_FORCE_CAP + 1)]
    with pytest.raises(OracleRefusal):
        brute_force_linearizable(hist)


def test_oracle_accepts_single_write_with_concurrent_default_read():
    hist = [W(0, 5, 1, 2), R(1, BOTTOM, 1, 2)]
    assert brute_force_linearizable(hist).passed
    assert check_ordering(hist).passed


# ------------------------------------------------- random cross-checking ---

def random_history(rng, max_ops=7, max_clients=3, horizon=8):
    """A complete history with unique written values and per-client
    non-overlapping operations; reads return any written value or the
    default, so both explainable and inexplicable histories occur."""
    n_ops = rng.randint(0, max_ops)
    next_free = [1] * max_clients
    values = []
    ops = []
    for op_id in range(n_ops):
        client = rng.randrange(max_clients)
        invoke = rng.randint(next_free[client], next_free[client] + 2)
        response = invoke + rng.randint(0, 2)
        if response > horizon:
            continue
        next_free[client] = response + 1
        if rng.random() < 0.5 or not values:
            if rng.random() < 0.3 and values:
                value = rng.choice(values + [BOTTOM])
                ops.append(R(op_id, value, invoke, response, client=client))
                continue
            value = f"v{op_id}"
            values.append(value)
            ops.append(W(op_id, value, invoke, response, client=client))
        else:
            value = rng.choice(values + [BOTTOM])
            ops.append(R(op_id, value, invoke, response, client=client))
    return ops


def test_ordering_check_matches_brute_force_on_random_histories():
    rng = random.Random(424242)
    disagreements = []
    for _ in range(1000):
        hist = random_history(rng)
        fast = check_ordering(hist).passed
        slow = brute_force_linearizable(hist).passed
        if fast != slow:
            disagreements.append((hist, fast, slow))
    assert not disagreements, disagreements[:3]


def test_ordering_implies_validity_on_random_histories():
    # an explaining total order also certifies validity
    rng = random.Random(99)
    for _ in range(500):
        hist = random_history(rng)
        if check_ordering(hist).passed:
            assert check_validity(hist).passed, hist


def build_history(shapes, n_clients, wild=0):
    """Operations from ``(client, gap, span, at, done, is_write, pick)``.

    An operation starts ``gap`` rounds after its client's previous one ends,
    spans ``span`` more rounds, and takes effect in round ``invoke + at``
    (capped at its response), ties going by op id; ``done == 0`` means it
    never responds, and such a write never takes effect.  A read with
    ``pick`` < 48 returns the last value in effect (or the default value),
    so with only such reads the history is linearizable by construction.
    Larger picks return one of the two values in effect before it, or from
    60 on the default value; picks below ``wild`` return a value never
    written or any written value, even a later one.
    """
    next_free = [1] * n_clients
    timed = []
    for op_id, (client, gap, span, at, done, is_write, pick) in enumerate(shapes):
        invoke = next_free[client] + gap
        next_free[client] = invoke + span + 1
        response = invoke + span if done else None
        timed.append((invoke + min(at, span), op_id, client, invoke, response,
                      is_write, pick))
    values = [f"v{t[1]}" for t in timed if t[5]]
    in_effect = []
    ops = []
    for _, op_id, client, invoke, response, is_write, pick in sorted(timed):
        if is_write:
            if response is not None:
                in_effect.append(f"v{op_id}")
            ops.append(W(op_id, f"v{op_id}", invoke, response, client=client))
            continue
        if pick < wild // 2:
            value = "never-written"
        elif pick < wild:
            value = (values + [BOTTOM])[pick % (len(values) + 1)]
        elif pick >= 60:
            value = BOTTOM
        else:
            back = 0 if pick < 48 else 1 if pick < 58 else 2
            value = in_effect[-1 - back] if back < len(in_effect) else BOTTOM
        ops.append(R(op_id, value, invoke, response, client=client))
    return sorted(ops, key=lambda op: op.op_id)


@st.composite
def histories(draw, max_ops):
    """Histories with unique written values, many operations sharing rounds,
    a few incomplete operations, and stale or inexplicable reads."""
    n_clients = draw(st.integers(1, 5))
    n_ops = draw(st.integers(0, max_ops))
    shape = st.tuples(st.integers(0, n_clients - 1), st.integers(0, 2),
                      st.integers(0, 2), st.integers(0, 2), st.integers(0, 9),
                      st.booleans(), st.integers(0, 63))
    shapes = draw(st.lists(shape, min_size=n_ops, max_size=n_ops))
    return build_history(shapes, n_clients, wild=draw(st.sampled_from([0, 2, 8])))


@settings(max_examples=200, deadline=None)
@given(histories(max_ops=40))
def test_ordering_check_agrees_with_cluster_graph_and_brute_force(hist):
    fast = check_ordering(hist)
    assert fast.passed == cluster_graph_ordering(hist).passed
    if sum(op.complete for op in hist) <= BRUTE_FORCE_CAP:
        assert fast.passed == brute_force_linearizable(hist).passed
    if not fast.passed and "from_write" in fast.witness[0]:
        # the witness is a 2-cycle of real precedence edges between clusters
        first, second = fast.witness
        assert (first["to_write"], second["to_write"]) == \
            (second["from_write"], first["from_write"])
        by_id = {op.op_id: op for op in hist}
        for edge in fast.witness:
            if "before_op" in edge:
                assert precedes(by_id[edge["before_op"]], by_id[edge["after_op"]])
            else:
                assert edge["from_write"] is None


@settings(max_examples=60, deadline=None)
@given(histories(max_ops=200))
def test_validity_check_matches_the_definition(hist):
    fast = check_validity(hist)
    slow = validity_by_definition(hist)
    assert fast.passed == slow.passed

    def strip(witness):
        return [{k: v for k, v in w.items() if k != "newer_write"} for w in witness]

    assert strip(fast.witness) == strip(slow.witness)
    by_id = {op.op_id: op for op in hist}
    writes = {op.value: op for op in hist if op.kind == "write"}
    for w in fast.witness:
        if "newer_write" in w:
            read, newer = by_id[w["op_id"]], by_id[w["newer_write"]]
            assert newer.kind == "write"
            assert precedes(writes[read.value], newer) and precedes(newer, read)


def test_check_all_on_a_long_history():
    rng = random.Random(2024)
    shapes = [(op_id % 24, rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2),
               1, rng.random() < 0.5, 0) for op_id in range(20_000)]
    hist = build_history(shapes, 24)
    assert all(v.passed for v in check_all(hist).values())
    # the last read returns the first value written, long overwritten
    first = next(op for op in hist if op.kind == "write")
    k = max(i for i, op in enumerate(hist) if op.kind == "read")
    hist[k] = hist[k]._replace(value=first.value)
    verdicts = check_all(hist)
    assert verdicts["termination"].passed
    assert verdicts["validity"].witness[0]["op_id"] == hist[k].op_id
    assert verdicts["validity"].witness[0]["reason"] == "overwritten value"
    assert len(verdicts["validity"].witness) == 1
    assert not verdicts["ordering"].passed


# ------------------------------------------------------------ adapters -----

def test_history_adapter_accepts_dicts_and_failed_reads():
    recs = [
        {"op_id": 0, "client": 0, "kind": "write", "argument": 5,
         "result": "write_confirmation", "invoke_round": 1,
         "response_round": 1, "failed": False},
        {"op_id": 1, "client": 1, "kind": "read", "argument": None,
         "result": None, "invoke_round": 2, "response_round": 3,
         "failed": True},
    ]
    write, read = history_from_records(recs)
    assert write.value == 5 and write.response == 1
    assert read.response is None  # a failed read never logically responds


def test_check_all_reports_three_properties():
    verdicts = check_all([W(0, 1, 1, 1), R(1, 1, 2, 3)])
    assert set(verdicts) == {"termination", "validity", "ordering"}
    assert all(v.passed for v in verdicts.values())
