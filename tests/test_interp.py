import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from conftest import load_config, load_program, remaining_stmts
import mactor
from mactor import (
    FuelExhausted,
    FutRef,
    ObjRef,
    PENDING,
    StepLabel,
    StepNotEnabled,
    enabled_steps,
    initial_config,
    parse_program,
    run,
    step,
)
from mactor import interp as interp_module
from mactor.interp import ANONYMOUS, Closure, object_step
from mactor.syntax import Assign, SyncCall, walk_stmts

COUNTER = """
interface IC { Int inc(Int x); }
class K implements IC { Int inc(Int x) { return x + 1; } }
"""


def prog(main: str, decls: str = COUNTER):
    return parse_program(decls + main)


# ---- references: what the state keys rely on


def test_references_differ_by_kind_and_from_numbers():
    # a state holding obj1 must never merge with one holding fut1, 1 or true
    for n in (0, 1):
        assert ObjRef(n) != FutRef(n) and not ObjRef(n) == FutRef(n)
        for ref in (ObjRef(n), FutRef(n)):
            for number in (n, bool(n)):
                assert ref != number and number != ref and not ref == number
    assert len({ObjRef(1): 0, FutRef(1): 0, 1: 0}) == 3


def test_equal_ids_give_equal_references_and_hashes():
    assert ObjRef(3) == ObjRef(3) and hash(ObjRef(3)) == hash(ObjRef(3))
    assert FutRef(3) == FutRef(3) and hash(FutRef(3)) == hash(FutRef(3))
    assert ObjRef(3) != ObjRef(4)


def test_reference_id_and_repr():
    assert ObjRef(7).id == 7 and FutRef(7).id == 7
    assert repr(ObjRef(1)) == "obj1" and repr(FutRef(1)) == "fut1"
    for ref in (ObjRef(2), FutRef(2)):
        for same in (copy.deepcopy(ref), pickle.loads(pickle.dumps(ref))):
            assert same == ref and type(same) is type(ref)


def test_reference_hashes_do_not_depend_on_the_hash_seed():
    src = str(Path(mactor.__file__).resolve().parent.parent)
    code = "from mactor import FutRef, ObjRef; print(hash(ObjRef(3)), hash(FutRef(3)))"
    outs = {
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("1", "2")
    }
    assert len(outs) == 1


# ---- initial configuration

def test_initial_config_single_anonymous_process(employee_bank):
    c = initial_config(employee_bank)
    assert c.groups == ((ANONYMOUS,),)
    assert len(c.threads) == len(c.heap) == 1
    thread = c.threads[ANONYMOUS]
    assert len(thread) == 1
    assert remaining_stmts(thread[0]) == employee_bank.main_body
    assert c.queues == {} and c.futures == ()
    assert c.heap[ANONYMOUS].myactor == ANONYMOUS


def test_initial_config_empty_main_is_terminal():
    c = initial_config(parse_program("{ }"))
    assert enabled_steps(c) == []


def test_declared_variables_get_typed_defaults():
    c = initial_config(
        prog("{ Bool b; Int i; IC o; Fut<Int> f; Actor<IC> a; }")
    )
    env = c.main_env()
    assert env["b"] is False and env["i"] == 0
    assert env["o"] is None and env["f"] is None and env["a"] is None


# ---- running whole programs

def test_scenario_resolves_check_after_withdrawal(employee_bank):
    final, trace = run(initial_config(employee_bank), "fifo", fuel=5000)
    assert final.fault is None
    env = final.main_env()
    assert final.futures[env["f"]] == 1  # first account number
    assert final.futures[env["f3"]] is True
    assert final.futures[env["f2"]] == 100 - 50
    rules = {l.rule for l in trace}
    assert {"NEW-ACTOR", "ASYNC-CALL", "SCHED-MSG", "ASYNC-RETURN", "READ-FUT",
            "SYNC-CALL", "SYNC-RETURN", "NEW-ACTOB"} <= rules


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_scenario_outcome_stable_under_random_policy(employee_bank, seed):
    final, _ = run(initial_config(employee_bank), "random", seed=seed, fuel=5000)
    assert final.fault is None
    env = final.main_env()
    assert final.futures[env["f2"]] == 50


def test_confluence_of_independent_actors():
    p = prog(
        "{ Actor<IC> a; Actor<IC> b; Fut<Int> fa; Fut<Int> fb;"
        " a = new actor K(); b = new actor K(); fa = a!inc(1); fb = b!inc(10); }"
    )
    outcomes = set()
    for policy, seed in (("fifo", None), ("random", 3), ("random", 11)):
        final, _ = run(initial_config(p), policy, seed=seed, fuel=1000)
        env = final.main_env()
        outcomes.add((final.futures[env["fa"]], final.futures[env["fb"]]))
    assert outcomes == {(2, 11)}


def test_fuel_exhausted_at_exact_budget():
    c = load_config("loop")
    with pytest.raises(FuelExhausted) as err:
        run(c, "fifo", fuel=137)
    assert len(err.value.trace) == 137


def test_scripted_policy_replays_and_rejects():
    p = load_program("bank_small")
    final, trace = run(initial_config(p), "fifo", fuel=5000)
    replayed, replay_trace = run(initial_config(p), list(trace), fuel=5000)
    assert replay_trace == trace
    assert replayed == final
    with pytest.raises(StepNotEnabled):
        run(initial_config(p), [trace[-1]], fuel=10)


def test_equality_across_runs_ignores_intern_numbering():
    p = load_program("bank_small")
    final, trace = run(initial_config(p), "fifo", fuel=5000)
    replayed, _ = run(initial_config(p), list(trace), fuel=5000)
    # number the replay's threads in the opposite order first
    for thread in reversed(replayed.threads):
        replayed.index.thread_id(thread)
    assert replayed.canonical()[3] != final.canonical()[3]
    assert replayed == final and hash(replayed) == hash(final)
    assert replayed != run(initial_config(p), list(trace[:-1]), fuel=5000)[0]


def test_resolved_test_and_get_barrier():
    p = prog(
        "{ Actor<IC> a; Fut<Int> f; Int v;"
        " a = new actor K(); f = a!inc(1);"
        " if f? { v = 1; } else { v = 2; } f.get; }"
    )
    final, _ = run(initial_config(p), "fifo", fuel=1000)
    assert final.fault is None
    # under the fifo policy main tests the future before the callee runs
    assert final.main_env()["v"] == 2


def test_get_not_enabled_while_future_pending(employee_bank):
    c = initial_config(employee_bank)
    c = step(c, enabled_steps(c)[0])  # new actor
    c = step(c, enabled_steps(c)[0])  # send addEmp
    labels = enabled_steps(c)
    assert all(l.rule != "READ-FUT" for l in labels)
    assert any(l.rule == "SCHED-MSG" for l in labels)


def test_all_blocked_and_empty_queues_is_deadlock():
    c = initial_config(parse_program("{ Fut<Bool> f; f.get; }"))
    fut = FutRef(0)
    thread = c.threads[ANONYMOUS]
    env = dict(thread[0].env)
    env["f"] = fut
    blocked = c.evolve(
        future=(fut, PENDING),
        thread=(ANONYMOUS, (Closure(env, thread[0].point),)),
    )
    assert enabled_steps(blocked) == []


def test_a_loop_makes_no_new_program_points():
    # A while body goes back to the loop's own point, and a call site
    # resumes at one point per returned value, so a thousand iterations
    # visit no more points than the program has statements and call sites
    # (each with its waiting point and the point of the one value returned),
    # and the end of the main block.
    program = prog(
        "{ IC c; Int i; Int x; c = new K(); while i < 1000 { x = c.inc(0); i = i + x; } }"
    )
    bodies = [program.main_body] + [m.body for c in program.classes for m in c.methods]
    stmts = [s for body in bodies for s in walk_stmts(body)]
    calls = [s for s in stmts if isinstance(s, Assign) and isinstance(s.value, SyncCall)]
    points = set()
    apply = interp_module._apply

    def recorded(config, label):
        after = apply(config, label)
        points.update(closure.point for thread in after.threads for closure in thread)
        return after

    with mock.patch.object(interp_module, "_apply", recorded):
        final, trace = run(initial_config(program), "fifo")
    assert final.main_env()["i"] == 1000 and len(trace) > 4000
    assert len(points) <= len(stmts) + 2 * len(calls) + 1, len(points)


# ---- the worked five-message scenario at machine level

def _drive_until_only_service_dispatch(program):
    c = initial_config(program)
    while True:
        labels = enabled_steps(c)
        preferred = [l for l in labels if l.rule != "SCHED-MSG" or l.method == "grow"]
        if not preferred:
            return c
        c = step(c, preferred[0])


def test_worked_queue_dispatch_narrative(worked_queue):
    c = _drive_until_only_service_dispatch(worked_queue)
    labels = enabled_steps(c)
    # two idle objects, both offered only the first message
    assert sorted((l.obj.id, l.method) for l in labels) == [(1, "m1"), (2, "m1")]
    after_m1 = step(c, labels[0])
    follow = [l for l in enabled_steps(after_m1) if l.rule == "SCHED-MSG"]
    assert [(l.obj.id, l.method) for l in follow] == [(2, "m2")]


def test_sched_msg_takes_locks_and_removes_message(worked_queue):
    c = _drive_until_only_service_dispatch(worked_queue)
    label = enabled_steps(c)[0]
    bank = label.actor
    queue_before = c.queues[bank]
    after = step(c, label)
    assert len(after.queues[bank]) == len(queue_before) - 1
    assert all(m.priority != label.priority for m in after.queues[bank])
    chosen = next(m for m in queue_before if m.priority == label.priority)
    assert after.heap[label.obj].locks == chosen.sync


def test_async_return_writes_future_clears_locks(worked_queue):
    c = _drive_until_only_service_dispatch(worked_queue)
    label = enabled_steps(c)[0]
    c = step(c, label)
    msgs = [m for m in c.queues[label.actor]]
    # run the dispatched body to completion on that object
    while True:
        mine = [l for l in enabled_steps(c) if l.obj == label.obj and l.rule != "SCHED-MSG"]
        if not mine:
            break
        assert mine[-1].rule in ("ASYNC-RETURN",)
        c = step(c, mine[-1])
    assert c.heap[label.obj].locks == frozenset()
    assert c.threads[label.obj] == ()
    resolved = [f for f, v in enumerate(c.futures) if v is not PENDING]
    assert len(resolved) == 2  # grow's future and m1's future


# ---- faults

def test_sync_call_on_null_faults():
    p = prog("{ IC o; Int r; r = o.inc(1); }")
    final, _ = run(initial_config(p), "fifo", fuel=100)
    assert final.fault is not None and "null" in final.fault
    assert enabled_steps(final) == []


def test_sync_call_on_free_object_from_main_works():
    p = prog("{ IC o; Int r; o = new K(); r = o.inc(41); }")
    final, _ = run(initial_config(p), "fifo", fuel=100)
    assert final.fault is None
    assert final.main_env()["r"] == 42


def test_async_call_on_plain_object_faults():
    p = prog("{ IC o; Fut<Int> f; o = new K(); f = o!inc(1); }")
    final, _ = run(initial_config(p), "fifo", fuel=100)
    assert final.fault is not None and "actor" in final.fault


def test_cross_actor_sync_call_faults():
    p = parse_program(
        """
        interface IC { Int inc(Int x); Int poke(IC o); }
        class K implements IC {
          Int inc(Int x) { return x + 1; }
          Int poke(IC o) { Int r; r = o.inc(1); return r; }
        }
        { Actor<IC> a; Actor<IC> b; Fut<Int> f;
          a = new actor K(); b = new actor K(); f = b!poke(a); f.get; }
        """
    )
    final, _ = run(initial_config(p), "fifo", fuel=1000)
    assert final.fault is not None and "actor boundary" in final.fault


def test_bad_guard_faults():
    p = prog("{ Int v; if 3 { v = 1; } else { } }")
    final, _ = run(initial_config(p), "fifo", fuel=100)
    assert final.fault is not None and "guard" in final.fault


def test_equality_needs_matching_types():
    p = prog(
        "{ IC o; IC z; Bool b; Bool c; Bool d; Bool n; Bool m;"
        " b = 1 == true; c = 0 != false; d = 2 == 2;"
        " o = new K(); n = o == null; m = z == null; }"
    )
    final, _ = run(initial_config(p), "fifo", fuel=200)
    assert final.fault is None
    env = final.main_env()
    assert env["b"] is False and env["c"] is True and env["d"] is True
    assert env["n"] is False and env["m"] is True


def test_step_rejects_unenabled_label(employee_bank):
    c = initial_config(employee_bank)
    labels = enabled_steps(c)
    bad = labels[0].__class__("ASYNC-RETURN", labels[0].actor, labels[0].obj)
    with pytest.raises(StepNotEnabled):
        step(c, bad)


def test_step_rejects_a_negative_object_id():
    # obj-1 must not index the heap and the threads from their end, which
    # would apply the label as the step of the last object, the main one
    c = initial_config(prog("{ Int r; r = 1; }"))
    with pytest.raises(StepNotEnabled):
        step(c, StepLabel("ASSIGN-LOCAL", ANONYMOUS, ObjRef(-1)))
    assert enabled_steps(c) == [StepLabel("ASSIGN-LOCAL", ANONYMOUS, ANONYMOUS)]


def test_run_rejects_an_unknown_policy_before_the_first_step():
    # also where no step is enabled, so no policy is ever asked
    for text in ("{ }", "{ Int r; r = 1; }"):
        with pytest.raises(ValueError, match="unknown policy 'bogus'"):
            run(initial_config(prog(text)), "bogus")


RULES = (
    "ASSIGN-LOCAL",
    "ASSIGN-FIELD",
    "COND-TRUE",
    "COND-FALSE",
    "READ-FUT",
    "SYNC-CALL",
    "SYNC-RETURN",
    "ASYNC-CALL",
    "ASYNC-RETURN",
    "NEW-ACTOB",
    "NEW-ACTOR",
    "SCHED-MSG",
)


@pytest.mark.parametrize("name", ["bank_small", "worked_queue"])
def test_step_takes_exactly_the_label_object_step_gives(name):
    # Every rule name, crossed with every method name and queued priority
    # in sight, is refused except the one enabled label; step used to
    # accept ASSIGN-FIELD on a local write and calls naming another method.
    program = load_program(name)
    methods = {None} | {m.sig.name for c in program.classes for m in c.methods}
    frontier = [initial_config(program)]
    seen = {frontier[0].canonical()}
    visited = 0
    while frontier and visited < 300:
        config = frontier.pop(0)
        visited += 1
        faulted = config.evolve(fault="stopped")
        priorities = {None, len(config.futures)} | {
            m.priority for q in config.queues.values() for m in q
        }
        for members in config.groups:
            actor = members[0]
            for obj in members:
                enabled = object_step(config, actor, obj)
                if enabled is not None:
                    succ = step(config, enabled)
                    with pytest.raises(StepNotEnabled):
                        step(faulted, enabled)
                    if succ.canonical() not in seen:
                        seen.add(succ.canonical())
                        frontier.append(succ)
                for rule in RULES:
                    for method in methods:
                        for priority in priorities:
                            label = StepLabel(rule, actor, obj, method, priority)
                            if label != enabled:
                                with pytest.raises(StepNotEnabled):
                                    step(config, label)
    assert visited >= 100


# ---- free objects

def test_free_objects_belong_to_anonymous_group():
    p = prog("{ IC o; IC q; Int r; o = new K(); q = new K(); r = o.inc(1); }")
    final, _ = run(initial_config(p), "fifo", fuel=200)
    assert final.fault is None
    for state in final.heap:
        assert state.myactor == ANONYMOUS
    assert ANONYMOUS not in final.queues
    assert final.groups == (tuple(map(ObjRef, range(len(final.heap)))),)


# ---- frame property: every rule touches only its own components

def _by_ref(slots, ref):
    """A tuple of slots as the dict by reference it holds."""
    return {ref(i): v for i, v in enumerate(slots)}


def _actors(c):
    """The threads as a dict of groups, each a dict of its members'
    threads."""
    return {members[0]: {o: c.threads[o] for o in members} for members in c.groups}


def _diff(d1, d2):
    changed = {k for k in d1 if k in d2 and d1[k] != d2[k]}
    return changed, set(d2) - set(d1), set(d1) - set(d2)


def _fields_only(s1, s2):
    return s1.cls == s2.cls and s1.myactor == s2.myactor and s1.locks == s2.locks


def _locks_only(s1, s2):
    return s1.cls == s2.cls and s1.myactor == s2.myactor and s1.fields == s2.fields


def _assert_frame(c1, label, c2):
    if c2.fault is not None:
        return  # fault states freeze the configuration wholesale
    rule = label.rule
    a1, a2 = _actors(c1), _actors(c2)
    h_chg, h_add, h_rem = _diff(_by_ref(c1.heap, ObjRef), _by_ref(c2.heap, ObjRef))
    q_chg, q_add, q_rem = _diff(c1.queues, c2.queues)
    f_chg, f_add, f_rem = _diff(_by_ref(c1.futures, FutRef), _by_ref(c2.futures, FutRef))
    a_chg, a_add, a_rem = _diff(a1, a2)
    assert not (h_rem or q_rem or f_rem or a_rem), rule
    for fut in f_chg:  # futures write once
        assert c1.futures[fut] is PENDING and c2.futures[fut] is not PENDING

    thread_changes, procs_added = [], []
    for g in a_chg:
        tc, ta, tr = _diff(a1[g], a2[g])
        assert not tr, rule
        thread_changes += [(g, o) for o in tc]
        procs_added += [(g, o) for o in ta]

    me = (label.actor, label.obj)
    if rule in ("ASSIGN-LOCAL", "COND-TRUE", "COND-FALSE", "READ-FUT", "SYNC-CALL", "SYNC-RETURN"):
        assert not (h_chg or h_add or q_chg or q_add or f_chg or f_add or a_add), rule
        assert thread_changes == [me] and not procs_added, rule
    elif rule == "ASSIGN-FIELD":
        assert len(h_chg) == 1 and not h_add, rule
        assert all(_fields_only(c1.heap[o], c2.heap[o]) for o in h_chg), rule
        assert not (q_chg or q_add or f_chg or f_add or a_add), rule
        assert thread_changes == [me] and not procs_added, rule
    elif rule == "NEW-ACTOB":
        assert len(h_add) == 1 and len(h_chg) <= 1, rule
        assert all(_fields_only(c1.heap[o], c2.heap[o]) for o in h_chg), rule
        assert not (q_chg or q_add or f_chg or f_add or a_add), rule
        new = next(iter(h_add))
        assert procs_added == [(label.actor, new)], rule
        assert new == ObjRef(len(c1.heap)), rule
    elif rule == "NEW-ACTOR":
        assert len(h_add) == 1 and len(h_chg) <= 1, rule
        new = next(iter(h_add))
        assert q_add == {new} and c2.queues[new] == (), rule
        assert a_add == {new} and a2[new] == {new: ()}, rule
        assert not (q_chg or f_chg or f_add), rule
        assert new == ObjRef(len(c1.heap)), rule
    elif rule == "ASYNC-CALL":
        assert len(f_add) == 1 and not f_chg, rule
        assert len(q_chg) == 1 and not q_add, rule
        target = next(iter(q_chg))
        assert c2.queues[target][:-1] == c1.queues[target], rule
        assert len(h_chg) <= 1 and not h_add, rule
        assert all(_fields_only(c1.heap[o], c2.heap[o]) for o in h_chg), rule
        assert f_add == {FutRef(len(c1.futures))}, rule
        assert c2.queues[target][-1].priority == len(c1.futures), rule
    elif rule == "ASYNC-RETURN":
        assert len(f_chg) == 1 and not f_add, rule
        # the lock reset is invisible when the message held nothing
        assert h_chg <= {label.obj} and not h_add, rule
        assert _locks_only(c1.heap[label.obj], c2.heap[label.obj]), rule
        assert c2.heap[label.obj].locks == frozenset(), rule
        assert a2[label.actor][label.obj] == (), rule
        assert not (q_chg or q_add or a_add), rule
    elif rule == "SCHED-MSG":
        assert q_chg == {label.actor} and not q_add, rule
        assert len(c2.queues[label.actor]) == len(c1.queues[label.actor]) - 1, rule
        assert h_chg <= {label.obj} and not h_add, rule
        assert _locks_only(c1.heap[label.obj], c2.heap[label.obj]), rule
        assert not (f_chg or f_add or a_add), rule
        assert thread_changes == [me], rule
    else:
        raise AssertionError(f"unexpected rule {rule}")


@pytest.mark.parametrize("name,seed", [("bank_small", 5), ("bank_small", 23), ("employee_bank", 9)])
def test_frame_property_random_runs(name, seed):
    c = load_config(name)
    rng = random.Random(seed)
    for _ in range(3000):
        labels = enabled_steps(c)
        if not labels:
            break
        label = rng.choice(labels)
        nxt = step(c, label)
        _assert_frame(c, label, nxt)
        c = nxt
    assert c.fault is None
