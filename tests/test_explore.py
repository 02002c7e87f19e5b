import random
from collections import Counter, deque

import pytest
from hypothesis import given, strategies as st

from conftest import PROGRAMS, load_config, load_program
from mactor import PENDING, FutRef, explore_all, initial_config, parse_program, run
from mactor.explore import _check_dispatch_order, _check_lock_disjointness
from mactor.interp import ANONYMOUS, Configuration, ObjRef, ValueLit, enabled_steps, step
from mactor.scheduler import QueuedMessage, SyncEntry, select
from mactor.syntax import Assign
from progen import gen_program


UNLABELLED_RACE = """
interface IT { Bool wd(Int acc, Int amount); Int ck(Int acc); Int grow(Int n); }
interface IV { Bool draw(Int acc, Int amount); Int read(Int acc); }
class Boss(Int bal) implements IT, IV {
  Bool draw(Int acc, Int amount) {
    Bool ok;
    ok = false;
    if amount <= bal { bal = bal - amount; ok = true; } else { }
    return ok;
  }
  Int read(Int acc) { return bal; }
  Bool wd(Int acc, Int amount) { Bool ok; ok = this.draw(acc, amount); return ok; }
  Int ck(Int acc) { Int v; v = this.read(acc); return v; }
  Int grow(Int n) {
    IT t; Int m; m = 0;
    while m < n { t = new Teller(this); m = m + 1; }
    return n;
  }
}
class Teller(IV vault) implements IT {
  Bool wd(Int acc, Int amount) { Bool ok; ok = vault.draw(acc, amount); return ok; }
  Int ck(Int acc) { Int v; v = vault.read(acc); return v; }
  Int grow(Int n) {
    IT t; Int m; m = 0;
    while m < n { t = new Teller(vault); m = m + 1; }
    return n;
  }
}
{ Actor<IT> bank; Fut<Int> g; Fut<Bool> w; Fut<Int> c;
  bank = new actor Boss(100); g = bank!grow(1); g.get;
  w = bank!wd(1, 40); c = bank!ck(1); }
"""

# seta stores the Int 1 and setb the Bool 1 == 1 in the same field
BOOL_INT_RACE = """
interface IS { Int seta(); Int setb(); Int grow(); }
interface IV { Int wa(); Int wb(); }
class Boss implements IS, IV {
  Int v;
  Int wa() { v = 1; return 0; }
  Int wb() { v = 1 == 1; return 0; }
  Int seta() { Int r; r = this.wa(); return r; }
  Int setb() { Int r; r = this.wb(); return r; }
  Int grow() { IS t; t = new Teller(this); return 0; }
}
class Teller(IV boss) implements IS {
  Int seta() { Int r; r = boss.wa(); return r; }
  Int setb() { Int r; r = boss.wb(); return r; }
  Int grow() { return 0; }
}
{ Actor<IS> b; Fut<Int> g; Fut<Int> x; Fut<Int> y;
  b = new actor Boss(); g = b!grow(); g.get; x = b!seta(); y = b!setb(); }
"""

# ck reads the field twice; only a write between the reads makes it return 1
TORN_READ = """
interface IS { Int seta(); Int ck(); Int grow(); }
interface IV { Int wa(); Int read(); }
class Boss implements IS, IV {
  Int v;
  Int wa() { v = 1; return 0; }
  Int read() { return v; }
  Int seta() { Int r; r = this.wa(); return r; }
  Int ck() { Int x; Int y; x = this.read(); y = this.read(); return y - x; }
  Int grow() { IS t; t = new Teller(this); return 0; }
}
class Teller(IV boss) implements IS {
  Int seta() { Int r; r = boss.wa(); return r; }
  Int ck() { Int x; Int y; x = boss.read(); y = boss.read(); return y - x; }
  Int grow() { return 0; }
}
{ Actor<IS> b; Fut<Int> g; Fut<Int> s; Fut<Int> c;
  b = new actor Boss(); g = b!grow(); g.get; s = b!seta(); c = b!ck(); }
"""

# the main block's next step and the other object's message fault with
# different diagnostics
TWO_FAULTS = """
interface IB { Bool boom(); }
class K implements IB { Bool boom() { Bool b; b = 1 && true; return b; } }
{ Actor<IB> a; Fut<Bool> f; Int x; a = new actor K(); f = a!boom(); x = 1 + true; }
"""


def broken_select(supported, held, queue, **_):
    """Selection with the conflict checks removed: first supported message
    wins regardless of held locks or earlier conflicting messages."""
    for msg in queue:
        if msg.signature in supported:
            return msg
    return None


def terminal_future_values(report):
    out = set()
    for cfg in report.terminals:
        env = cfg.main_env()
        out.add(
            tuple(
                sorted(
                    (name, repr(cfg.futures[v]))
                    for name, v in env.items()
                    if isinstance(v, FutRef)
                )
            )
        )
    return out


def test_bank_small_explores_clean(bank_small):
    report = explore_all(initial_config(bank_small), 500)
    assert report.ok
    assert not report.truncated
    assert report.faults == 0
    assert report.states > 100
    valuations = terminal_future_values(report)
    assert len(valuations) == 1
    (only,) = valuations
    assert ("c2", "60") in only and ("w3", "True") in only
    for cfg in report.terminals:
        boss = cfg.main_env()["bank"]
        assert cfg.heap[boss].fields == {"bal1": 40, "bal2": 60}


def test_single_object_no_labels_trivially_disjoint():
    p = parse_program(
        "interface IC { Int inc(Int x); } class K implements IC { Int inc(Int x) { return x + 1; } }"
        "{ Actor<IC> a; Fut<Int> f; a = new actor K(); f = a!inc(1); f.get; }"
    )
    report = explore_all(initial_config(p), 200)
    assert report.ok and not report.truncated
    for cfg in report.terminals:
        assert all(state.locks == frozenset() for state in cfg.heap.values())


def test_broken_select_reports_violating_trace(bank_small):
    report = explore_all(initial_config(bank_small), 500, select_fn=broken_select)
    assert not report.ok
    violation = report.violations[0]
    assert violation.kind in ("theorem1", "order")
    assert len(violation.trace) > 0
    assert violation.trace[-1].rule == "SCHED-MSG" or violation.kind == "theorem1"


def test_unlabelled_race_really_branches():
    # without sync labels the check overlaps the withdrawal, so exploration
    # must surface more than one final answer
    p = parse_program(UNLABELLED_RACE)
    report = explore_all(initial_config(p), 400)
    assert report.ok  # no sync sets, so nothing to violate
    checks = {cfg.futures[cfg.main_env()["c"]] for cfg in report.terminals}
    assert checks == {60, 100}


def test_confluent_program_single_terminal_valuation():
    p = parse_program(
        "interface IC { Int inc(Int x); } class K implements IC { Int inc(Int x) { return x + 1; } }"
        "{ Actor<IC> a; Actor<IC> b; Fut<Int> fa; Fut<Int> fb;"
        " a = new actor K(); b = new actor K(); fa = a!inc(1); fb = b!inc(10); }"
    )
    report = explore_all(initial_config(p), 300)
    assert report.ok
    assert len(terminal_future_values(report)) == 1


def test_free_objects_invariant_holds_everywhere():
    p = parse_program(
        "interface IC { Int inc(Int x); } class K implements IC { Int inc(Int x) { return x + 1; } }"
        "{ IC o; IC q; Int r; o = new K(); q = new K(); r = o.inc(1); }"
    )
    config = initial_config(p)
    report = explore_all(config, 100)
    assert report.ok
    for cfg in report.terminals:
        assert ANONYMOUS not in cfg.queues
        for state in cfg.heap.values():
            assert state.myactor == ANONYMOUS


def test_depth_bound_reported_as_truncation():
    p = parse_program("{ Int i; while 0 <= i { i = i + 1; } }")
    report = explore_all(initial_config(p), 10)
    assert report.truncated
    assert report.terminals == []
    assert report.ok


def test_tight_loop_collapses_to_one_state():
    # a body-less loop revisits the same configuration, so the explorer
    # terminates without truncation on an infinite execution
    report = explore_all(load_config("loop"), 10)
    assert report.states == 1
    assert not report.truncated
    assert report.terminals == []


def test_depth_must_be_positive(bank_small):
    with pytest.raises(ValueError):
        explore_all(initial_config(bank_small), 0)


def test_unknown_check_name_is_rejected(bank_small):
    # a misspelt name used to check nothing, so broken_select passed as ok
    with pytest.raises(ValueError, match="'order1'"):
        explore_all(
            initial_config(bank_small), 500, select_fn=broken_select, checks=("theorem1", "order1")
        )


def test_bool_and_int_in_one_slot_stay_distinct():
    # in Python True == 1, and states that differ only there must not merge
    p = parse_program(BOOL_INT_RACE)

    def final_v(cfg):
        return repr(cfg.heap[cfg.main_env()["b"]].fields["v"])

    reached = {final_v(run(initial_config(p), "random", seed=seed)[0]) for seed in range(20)}
    assert reached == {"1", "True"}
    report = explore_all(initial_config(p), 500)
    assert report.ok and not report.truncated
    assert sorted(final_v(cfg) for cfg in report.terminals) == ["1", "True"]


# ---- the interned keys against a plain structural reference


def _ref_value(v):
    if isinstance(v, bool):
        return ("bool", v)
    if isinstance(v, (ObjRef, FutRef)):
        return (type(v).__name__, v.id)
    if v is PENDING:
        return ("pending",)
    return v


def _ref_items(d):
    return tuple(sorted((name, _ref_value(v)) for name, v in d.items()))


def _ref_stmt(s):
    if isinstance(s, Assign) and isinstance(s.value, ValueLit):
        return ("value", s.target, _ref_value(s.value.value))
    return s


def _by_ref(d):
    return sorted(d.items(), key=lambda kv: kv[0].id)


def reference_key(c):
    """Structural state key: every dict sorted, every value tagged."""
    heap = tuple(
        (
            o.id,
            st.cls,
            st.myactor.id,
            st.ifaces,
            frozenset((e.label, _ref_value(e.value)) for e in st.locks),
            _ref_items(st.fields),
        )
        for o, st in _by_ref(c.heap)
    )
    queues = tuple(
        (
            a.id,
            tuple((m.priority, m.method, tuple(map(_ref_value, m.args)), m.future.id) for m in q),
        )
        for a, q in _by_ref(c.queues)
    )
    futures = tuple((f.id, _ref_value(v)) for f, v in _by_ref(c.futures))
    groups = tuple(
        (
            a.id,
            tuple(
                (
                    o.id,
                    tuple((_ref_items(cl.env), tuple(map(_ref_stmt, cl.stmts))) for cl in thread),
                )
                for o, thread in _by_ref(group)
            ),
        )
        for a, group in _by_ref(c.actors)
    )
    return (c.fault, heap, queues, futures, groups, c.next_obj, c.next_fut, c.next_priority)


def reference_explore(config, depth, key=reference_key, select_fn=select):
    """Plain BFS over every enabled step, deduplicating states by ``key``:
    (states, truncated, faults, terminal reference keys, kind of the first
    invariant violation met in BFS order or None).  It does not stop at a
    violation."""
    seen = {key(config)}
    frontier = deque([(config, 0)])
    states, truncated, faults, terminals, violation = 0, False, 0, Counter(), None
    while frontier:
        current, dist = frontier.popleft()
        states += 1
        if violation is None and _check_lock_disjointness(current):
            violation = "theorem1"
        labels = enabled_steps(current, select_fn)
        if not labels:
            terminals[reference_key(current)] += 1
            faults += current.fault is not None
            continue
        if dist >= depth:
            truncated = True
            continue
        for label in labels:
            if violation is None and label.rule == "SCHED-MSG":
                if _check_dispatch_order(current, label):
                    violation = "order"
            succ = step(current, label, select_fn)
            succ_key = key(succ)
            if succ_key not in seen:
                seen.add(succ_key)
                frontier.append((succ, dist + 1))
    return states, truncated, faults, terminals, violation


def _differential_programs():
    for path in sorted(PROGRAMS.glob("*.mac")):
        yield path.stem, load_program(path.stem), 60
    yield "unlabelled race", parse_program(UNLABELLED_RACE), 400
    yield "bool/int race", parse_program(BOOL_INT_RACE), 400
    yield "torn read", parse_program(TORN_READ), 400
    yield "two faults", parse_program(TWO_FAULTS), 60
    for seed in range(150):
        yield f"progen-{seed}", gen_program(random.Random(seed)), 20


def test_interned_keys_explore_like_structural_reference():
    # the full search, keyed once by the interned key and once structurally
    for name, program, depth in _differential_programs():
        interned = reference_explore(initial_config(program), depth, key=Configuration.canonical)
        assert interned == reference_explore(initial_config(program), depth), name


# ---- the reduced search against the full one


def _fault_and_clean_terminals(keys):
    faults = {k[0] for k in keys if k[0] is not None}
    return faults, {k for k in keys if k[0] is None}


def test_reduced_search_keeps_terminals_faults_and_verdict():
    # Faulted terminals hold the other objects' progress, which the
    # reduction may cut short, so for those only the diagnostics compare.
    compared = faulty = violating = 0
    for select_fn in (select, broken_select):
        for name, program, depth in _differential_programs():
            _, truncated, faults, terminals, violation = reference_explore(
                initial_config(program), depth, select_fn=select_fn
            )
            if truncated:
                continue
            report = explore_all(initial_config(program), depth, select_fn=select_fn)
            kind = report.violations[0].kind if report.violations else None
            assert kind == violation, name
            compared += 1
            if kind is not None:
                violating += 1
                continue  # explore_all stopped at the violation
            assert not report.truncated, name
            reduced = Counter(reference_key(cfg) for cfg in report.terminals)
            assert _fault_and_clean_terminals(reduced) == _fault_and_clean_terminals(terminals), name
            faulty += faults > 0
    assert compared >= 300 and faulty >= 200 and violating >= 1


SPIN_AFTER_SEND = """
interface IB { Int boom(); }
class K implements IB { Int boom() { Int x; x = 1 + true; return x; } }
{ Actor<IB> a; Fut<Int> f; a = new actor K(); f = a!boom(); while true { } }
"""


def test_spinning_main_block_does_not_hide_a_fault():
    # the main block's loop step is safe and returns to the same state; only
    # the proviso expands the other object's steps there
    config = initial_config(parse_program(SPIN_AFTER_SEND))
    report = explore_all(config, 50)
    assert {cfg.fault for cfg in report.terminals} == {"'+' applied to non-integer operands"}
    terminals = reference_explore(config, 50)[3]
    assert _fault_and_clean_terminals(terminals)[0] == {"'+' applied to non-integer operands"}


# Both messages start with a field write, which is never safe, so the state
# where both wait to be scheduled and the states after it are fully
# expanded, and the two orders of the SCHED-MSGs meet again.
RECONVERGING = """
interface IW { Int work(Int n); }
class W implements IW { Int v; Int work(Int n) { Int x; v = n; x = n + 1; x = x + 1; return x; } }
{ Actor<IW> a; Actor<IW> b; Fut<Int> fa; Fut<Int> fb;
  a = new actor W(); b = new actor W(); fa = a!work(1); fb = b!work(2); }
"""


def test_reconverging_branches_are_a_diamond_not_a_cycle():
    # A local step whose successor the other branch already reached one
    # layer deeper is still expanded alone.  Expanding fully on every
    # visited successor visited 38 states here.
    report = explore_all(initial_config(parse_program(RECONVERGING)), 100)
    assert report.ok and not report.truncated
    assert report.states < 38
    assert terminal_future_values(report) == {(("fa", "3"), ("fb", "4"))}


_syncs = st.frozensets(st.builds(SyncEntry, st.sampled_from("ab"), st.integers(0, 2)), max_size=2)


@given(
    st.frozensets(st.sampled_from(["s1", "s2"])),
    _syncs,
    st.lists(st.tuples(_syncs, st.sampled_from(["s1", "s2"])), max_size=8),
)
def test_selection_is_prefix_stable(supported, held, shapes):
    # explore_all relies on this: appending to a queue never changes a
    # message the selection already picks
    queue = tuple(QueuedMessage(f"m{i}", (), None, sync, sig, i) for i, (sync, sig) in enumerate(shapes))
    for select_fn in (select, broken_select):
        for cut in range(len(queue)):
            chosen = select_fn(supported, held, queue[:cut])
            if chosen is not None:
                assert select_fn(supported, held, queue) is chosen


@pytest.mark.parametrize(
    "source",
    [load_program("bank_small"), UNLABELLED_RACE, BOOL_INT_RACE],
    ids=["bank_small", "unlabelled race", "bool/int race"],
)
def test_interned_key_equality_is_structural_equality(source):
    # every configuration the explorer keys, duplicates included: equal
    # interned keys exactly when equal reference keys
    program = parse_program(source) if isinstance(source, str) else source
    configs = [initial_config(program)]
    frontier = deque(configs)
    seen = {configs[0].canonical()}
    while frontier:
        current = frontier.popleft()
        for label in enabled_steps(current):
            succ = step(current, label)
            configs.append(succ)
            if succ.canonical() not in seen:
                seen.add(succ.canonical())
                frontier.append(succ)
    pairs = {(cfg.canonical(), reference_key(cfg)) for cfg in configs}
    assert len(configs) > len(pairs) > 100
    assert len({k for k, _ in pairs}) == len({r for _, r in pairs}) == len(pairs)
