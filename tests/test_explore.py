import random
from collections import Counter, deque

import pytest

from conftest import PROGRAMS, load_config, load_program
from mactor import PENDING, FutRef, explore_all, initial_config, parse_program, run
from mactor.interp import ANONYMOUS, ObjRef, ValueLit, enabled_steps, step
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


def reference_explore(config, depth):
    """Plain BFS keyed by reference_key: (states, truncated, faults,
    terminal keys)."""
    seen = {reference_key(config)}
    frontier = deque([(config, 0)])
    states, truncated, faults, terminals = 0, False, 0, Counter()
    while frontier:
        current, dist = frontier.popleft()
        states += 1
        labels = enabled_steps(current)
        if not labels:
            terminals[reference_key(current)] += 1
            faults += current.fault is not None
            continue
        if dist >= depth:
            truncated = True
            continue
        for label in labels:
            succ = step(current, label)
            key = reference_key(succ)
            if key not in seen:
                seen.add(key)
                frontier.append((succ, dist + 1))
    return states, truncated, faults, terminals


def _differential_programs():
    for path in sorted(PROGRAMS.glob("*.mac")):
        yield path.stem, load_program(path.stem), 60
    yield "unlabelled race", parse_program(UNLABELLED_RACE), 400
    yield "bool/int race", parse_program(BOOL_INT_RACE), 400
    for seed in range(150):
        yield f"progen-{seed}", gen_program(random.Random(seed)), 20


def test_interned_keys_explore_like_structural_reference():
    for name, program, depth in _differential_programs():
        report = explore_all(initial_config(program), depth, checks=())
        got = (
            report.states,
            report.truncated,
            report.faults,
            Counter(reference_key(cfg) for cfg in report.terminals),
        )
        assert got == reference_explore(initial_config(program), depth), name


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
