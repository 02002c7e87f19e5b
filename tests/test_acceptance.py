"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  The timing-sensitive criteria assert their own wall-clock budgets.
"""

import itertools
import random
import time

import pytest

from conftest import load_program
from progen import gen_program
from mactor import (
    BankTeller,
    EventLog,
    MacActor,
    QueuedMessage,
    SyncEntry,
    enabled_steps,
    explore_all,
    initial_config,
    parse_program,
    pretty_print,
    select,
    step,
)
from mactor.bank import Workload, audit_events, read_jsonl, run_scenario

SEED_COUNT = 20
LIN_WORKLOADS = [
    Workload(accounts=10, requests=10_000, seed=seed) for seed in range(SEED_COUNT)
]


def report(criterion: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: criterion {criterion} - {description}{suffix}")
    assert ok, f"criterion {criterion} failed: {description} {suffix}"


def oracle(supported, held, queue):
    """The selection rule transcribed as written: literal recursion."""
    if not queue:
        return None
    head, rest = queue[0], queue[1:]
    held = frozenset(held)
    if held.isdisjoint(head.sync) and head.signature in supported:
        return head
    return oracle(supported, held | head.sync, rest)


def test_c1_select_matches_literal_oracle():
    started = time.perf_counter()
    entry = SyncEntry
    e11, e12, e21, e22 = entry("l1", 1), entry("l1", 2), entry("l2", 1), entry("l2", 2)
    family = [
        (frozenset(), "s"),
        (frozenset({e11}), "s"),
        (frozenset({e12}), "s"),
        (frozenset({e21}), "s"),
        (frozenset({e11, e12}), "s"),
        (frozenset({e11, e21}), "s"),
        (frozenset({e12, e22}), "s"),
        (frozenset({e11}), "unsup"),
    ]
    helds = [
        frozenset(),
        frozenset({e11}),
        frozenset({e12, e21}),
        frozenset({e11, e12, e21, e22}),
    ]
    supported = frozenset({"s"})
    cases = mismatches = 0
    for length in range(0, 7):
        for shapes in itertools.product(family, repeat=length):
            queue = tuple(
                QueuedMessage(f"m{i}", (), None, sync, sig, i)
                for i, (sync, sig) in enumerate(shapes)
            )
            for held in helds:
                cases += 1
                if select(supported, held, queue) is not oracle(supported, held, queue):
                    mismatches += 1

    # randomized sweep over the full 3-label x 4-value alphabet
    rng = random.Random(20260808)
    alphabet = [entry(label, value) for label in ("l1", "l2", "l3") for value in range(4)]
    for _ in range(30_000):
        queue = tuple(
            QueuedMessage(
                f"m{i}",
                (),
                None,
                frozenset(rng.sample(alphabet, rng.randint(0, 4))),
                rng.choice(("s", "unsup")),
                i,
            )
            for i in range(rng.randint(0, 6))
        )
        held = frozenset(rng.sample(alphabet, rng.randint(0, 4)))
        cases += 1
        if select(supported, held, queue) is not oracle(supported, held, queue):
            mismatches += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        "library select agrees with the literal-definition oracle",
        mismatches == 0 and elapsed < 60,
        f"{cases} cases, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_c2_worked_five_message_queue(worked_queue):
    e = SyncEntry
    msgs = [
        QueuedMessage("m1", (), None, frozenset({e("l", 1)}), "s", 1),
        QueuedMessage("m2", (), None, frozenset({e("lp", 1)}), "s", 2),
        QueuedMessage("m3", (), None, frozenset({e("l", 1), e("l", 2)}), "s", 3),
        QueuedMessage("m4", (), None, frozenset({e("l", 2)}), "s", 4),
        QueuedMessage("m5", (), None, frozenset({e("l", 3)}), "s", 5),
    ]
    sup = {"s"}
    head_first = select(sup, frozenset(), tuple(msgs)) is msgs[0]
    m2_beside_m1 = select(sup, {e("l", 1)}, tuple(msgs[1:])) is msgs[1]
    m5_past_m3_m4 = select(sup, {e("l", 1), e("lp", 1)}, tuple(msgs[2:])) is msgs[4]

    # the same narrative at machine level: two idle objects, m1 first, then m2
    config = initial_config(worked_queue)
    while True:
        labels = enabled_steps(config)
        preferred = [l for l in labels if l.rule != "SCHED-MSG" or l.method == "grow"]
        if not preferred:
            break
        config = step(config, preferred[0])
    offers = sorted((l.obj.id, l.method) for l in enabled_steps(config))
    machine_m1 = offers == [(1, "m1"), (2, "m1")]
    after = step(config, enabled_steps(config)[0])
    follow = [(l.obj.id, l.method) for l in enabled_steps(after) if l.rule == "SCHED-MSG"]
    machine_m2 = follow == [(2, "m2")]

    report(
        2,
        "worked queue: m2 runs beside m1, m3/m4 blocked, m5 runs",
        head_first and m2_beside_m1 and m5_past_m3_m4 and machine_m1 and machine_m2,
    )


def broken_select(supported, held, queue, **_):
    for msg in queue:
        if msg.signature in supported:
            return msg
    return None


def test_c3_exploration_invariants(bank_small):
    started = time.perf_counter()
    clean = explore_all(initial_config(bank_small), 500)
    injected = explore_all(initial_config(bank_small), 500, select_fn=broken_select)
    elapsed = time.perf_counter() - started
    ok = (
        clean.ok
        and not clean.truncated
        and clean.faults == 0
        and not injected.ok
        and len(injected.violations[0].trace) > 0
        and elapsed < 120
    )
    detail = (
        f"{clean.states} states clean, injected fault found "
        f"{injected.violations[0].kind if injected.violations else 'nothing'}, {elapsed:.1f}s"
    )
    report(3, "lock disjointness and dispatch order hold over all interleavings", ok, detail)


def test_c4_scenario_semantics(employee_bank):
    exploration = explore_all(initial_config(employee_bank), 800)
    interp_ok = (
        exploration.ok
        and not exploration.truncated
        and exploration.faults == 0
        and len(exploration.terminals) >= 1
        and all(
            cfg.futures[cfg.main_env()["f2"]] == 100 - 50 for cfg in exploration.terminals
        )
    )
    runtime_ok = True
    for _ in range(100):
        accounts = {}
        actor = MacActor(lambda: BankTeller(accounts), workers=4)
        acc = actor.send("create_account", (0, 100)).get(timeout=10)
        actor.send("withdraw", (acc, 50))
        balance = actor.send("check", (acc,)).get(timeout=10)
        actor.shutdown(drain=True)
        if balance != 50:
            runtime_ok = False
            break
    report(
        4,
        "create/get/withdraw/check resolves to the post-withdrawal balance everywhere",
        interp_ok and runtime_ok,
        f"{len(exploration.terminals)} interpreter terminal(s), 100 runtime runs",
    )


@pytest.fixture(scope="module")
def linearization_logs(tmp_path_factory):
    """Criterion 5's twenty seeded runs; criterion 7 audits their logs."""
    root = tmp_path_factory.mktemp("audit-logs")
    started = time.perf_counter()
    paths = []
    for workload in LIN_WORKLOADS:
        log = EventLog()
        run_scenario(workload, workers=4, event_log=log)  # raises on any divergence
        path = root / f"run-{workload.seed}.jsonl"
        log.write_jsonl(path)
        paths.append(path)
    return paths, time.perf_counter() - started


def test_c5_linearization_against_replay(linearization_logs):
    paths, elapsed = linearization_logs
    report(
        5,
        "20 seeded 10k-request runs match the sequential replay exactly",
        len(paths) == SEED_COUNT and elapsed < 120,
        f"{elapsed:.1f}s",
    )


def test_c6_scaling_trend_and_linearity():
    started = time.perf_counter()
    throughput = {}
    wall = {}
    for workers in (1, 2, 4):
        w = Workload(accounts=64, requests=100_000, seed=42)
        result = run_scenario(w, workers=workers, work_us=100)
        throughput[workers] = result.throughput_mps
        if workers == 4:
            wall[100_000] = result.wall_ms
    for volume in (10_000, 50_000):
        w = Workload(accounts=64, requests=volume, seed=42)
        wall[volume] = run_scenario(w, workers=4, work_us=100).wall_ms
    elapsed = time.perf_counter() - started

    scale2 = throughput[2] / throughput[1]
    scale4 = throughput[4] / throughput[1]
    ratios = [wall[v] / v for v in (10_000, 50_000, 100_000)]
    mean = sum(ratios) / len(ratios)
    deviation = max(abs(r - mean) / mean for r in ratios)
    ok = scale2 >= 1.4 and scale4 >= 1.8 and deviation <= 0.25 and elapsed < 300
    report(
        6,
        "throughput scales with workers and time stays linear in volume",
        ok,
        f"x2={scale2:.2f} x4={scale4:.2f} linearity deviation={deviation:.1%}, {elapsed:.0f}s",
    )


def test_c7_interval_audit_of_linearization_logs(linearization_logs):
    paths, _ = linearization_logs
    total_keys = 0
    violations = []
    for path in paths:
        audit = audit_events(read_jsonl(path))
        total_keys += audit.keys
        violations.extend(audit.violations)
    report(
        7,
        "per-key execution intervals are disjoint and priority-ordered",
        total_keys > 0 and not violations,
        f"{total_keys} keys audited, {len(violations)} violations",
    )


def test_c8_parser_round_trip():
    failures = 0
    for seed in range(1000):
        program = gen_program(random.Random(seed))
        if parse_program(pretty_print(program)) != program:
            failures += 1
    listing = load_program("listing_bank")
    employee = next(i for i in listing.interfaces if i.name == "IEmployee")
    sigs = {s.name: s for s in employee.signatures}
    labels_ok = (
        sigs["withdraw"].param_labels == ("a", None)
        and sigs["withdraw"].params[0].name == "accNumber"
        and sigs["transfer"].param_labels == ("a", "a", None)
        and sigs["createAcc"].param_labels == ("c", None)
    )
    report(
        8,
        "1000 generated programs round-trip; sync labels sit where documented",
        failures == 0 and labels_ok,
        f"{failures} round-trip failures",
    )
