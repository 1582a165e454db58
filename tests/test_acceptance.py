"""End-to-end acceptance suite.

Each test prints a single ``ACCEPTANCE <k>: PASS/FAIL`` line so a log scrape
can summarize the run.  The first three criteria share one 120-run grid
(every model, f in {1, 2, 3}, n = alpha*f + 1, ten seeds, 300 rounds of a
random workload against a randomly moving adversary).  The grid reads no
trace, so, as ``mobyreg sweep`` does, it expands each seed's workload once and
runs its cells untraced.
"""

import random

import pytest

from mobyreg.adversary import RandomWalk
from mobyreg.checker import check_all, check_ordering, history_from_records
from mobyreg.engine import RandomWorkload, run, tightness_demo
from mobyreg.model import ModelId, lookup, make_config
from mobyreg.protocol import Echo, Tally, Write, server_receive
from oracles import brute_force_linearizable, trace_text

MODELS = [ModelId.GARAY, ModelId.BONNET, ModelId.SASAKI, ModelId.BUHRMAN]
F_VALUES = [1, 2, 3]
SEEDS = range(10)
ROUNDS = 300
CLIENTS = 3


@pytest.fixture(scope="module")
def grid():
    cells = []
    directives = {seed: RandomWorkload().expand(ROUNDS, CLIENTS, seed) for seed in SEEDS}
    for model in MODELS:
        alpha = lookup(model).alpha
        for f in F_VALUES:
            config = make_config(model, alpha * f + 1, f)
            for seed in SEEDS:
                result = run(config, RandomWalk(), directives[seed], rounds=ROUNDS,
                             seed=seed, n_clients=CLIENTS)
                verdicts = check_all(history_from_records(result.history),
                                     result.crashed_clients)
                cells.append((config, seed, result, verdicts))
    return cells


def report(capsys, number, ok, detail=""):
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}"
              + (f" ({detail})" if detail and not ok else ""))
    assert ok, detail


def test_acceptance_1_register_properties_hold_across_grid(grid, capsys):
    failures = []
    for config, seed, result, verdicts in grid:
        bad = [name for name, v in verdicts.items() if not v.passed]
        if bad or result.protocol_failures:
            failures.append((config.params.model.value, config.f, seed, bad,
                             len(result.protocol_failures)))
        if not result.history:
            failures.append((config.params.model.value, config.f, seed,
                             "empty history", 0))
    report(capsys, 1, not failures, f"failing cells: {failures[:5]}")


def test_acceptance_2_agreement_probe_never_dips(grid, capsys):
    failures = []
    for config, seed, result, _ in grid:
        floor = config.n - config.f
        if result.violations or result.min_support < floor:
            failures.append((config.params.model.value, config.f, seed,
                             result.min_support, floor))
    report(capsys, 2, not failures, f"support dips: {failures[:5]}")


def test_acceptance_3_operation_latency_is_exact(grid, capsys):
    failures = []
    for config, seed, result, _ in grid:
        for rec in result.history:
            span = rec.response_round - rec.invoke_round
            want = 0 if rec.kind == "write" else 1
            if span != want:
                failures.append((config.params.model.value, config.f, seed,
                                 rec.op_id, rec.kind, span))
    report(capsys, 3, not failures, f"wrong spans: {failures[:5]}")


def test_acceptance_4_boundary_configs_break_reads(capsys):
    expected = {
        ModelId.GARAY: ([2, 2], 2),
        ModelId.BONNET: ([4, 4], 0),
        ModelId.SASAKI: ([4, 4], 0),
        ModelId.BUHRMAN: ([2, 2], 0),
    }
    failures = []
    for model, (top_two, silent) in expected.items():
        demo = tightness_demo(model, 2)
        got = (demo["top_two_support"], demo["silent"], demo["failure_emitted"])
        if got != (top_two, silent, True):
            failures.append((model.value, got))
    report(capsys, 4, not failures, f"off-script demos: {failures}")


def test_acceptance_5_ordering_check_agrees_with_enumeration(capsys):
    from test_checker import random_history
    rng = random.Random(20260826)
    disagreements = []
    for i in range(1000):
        hist = random_history(rng, max_ops=7)
        fast = check_ordering(hist).passed
        slow = brute_force_linearizable(hist).passed
        if fast != slow:
            disagreements.append((i, fast, slow))
    report(capsys, 5, not disagreements, f"disagreements: {disagreements[:5]}")


def test_acceptance_6_runs_are_deterministic_and_order_insensitive(capsys):
    config = make_config("sasaki", 9, 2)
    kwargs = dict(rounds=120, seed=77, n_clients=3, record_messages=True)
    first = run(config, RandomWalk(), RandomWorkload(), **kwargs)
    second = run(config, RandomWalk(), RandomWorkload(), **kwargs)
    identical = trace_text(first) == trace_text(second)

    rng = random.Random(6)
    stable = True
    for _ in range(200):
        inbox = []
        for sid in rng.sample(range(9), rng.randint(0, 9)):
            inbox.append((sid, Echo(value=f"v{rng.randint(0, 3)}")))
        for cid in rng.sample(range(4), rng.randint(0, 4)):
            inbox.append((cid, Write(value=f"w{rng.randint(0, 3)}")))
        shuffled = inbox[:]
        rng.shuffle(shuffled)
        a = server_receive(Tally(), inbox)
        b = server_receive(Tally(), shuffled)
        if a != b:
            stable = False
            break
    report(capsys, 6, identical and stable,
           f"identical_trace={identical} inbox_stable={stable}")


def test_acceptance_7_movement_during_send_never_taints_the_new_host(grid, capsys):
    failures = []
    checked = 0
    for config, seed, result, _ in grid:
        if config.params.model is not ModelId.BUHRMAN:
            continue
        for probe in result.probes:
            checked += 1
            if not set(probe["byzantine_senders"]) <= set(probe["pre_send_occupied"]):
                failures.append((config.f, seed, probe["round"]))
    report(capsys, 7, checked > 0 and not failures,
           f"checked={checked} tainted sends: {failures[:5]}")
