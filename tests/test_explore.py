import itertools
import random
from collections import Counter, defaultdict, deque
from operator import attrgetter
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from conftest import PROGRAMS, load_config, load_program
from mactor import PENDING, FutRef, explore_all, initial_config, parse_program, run
from mactor import explore as explore_module
from mactor import interp as interp_module
from mactor.explore import _check_dispatch_order, _check_started
from mactor.interp import (
    ANONYMOUS,
    Configuration,
    ObjRef,
    ValueLit,
    enabled_steps,
    object_step,
    step,
    stuck,
)
from mactor.scheduler import QueuedMessage, SyncEntry, lock_union, select
from mactor.syntax import Assign, While
from progen import gen_program
from test_bank import SAME_KEY_GET


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

# Workers hired by grow(n) are copies that nothing refers to, until reg()
# hands one to the leader: ask() then answers 1 on that worker and 2 on
# the other, so the two workers are no longer interchangeable.
ESCAPE = """
interface IW { Int reg(); Int ask(); Int grow(Int n); }
interface IL { Int keep(IW w); Bool isLast(IW w); }
class L implements IW, IL {
  IW last;
  Int keep(IW w) { last = w; return 1; }
  Bool isLast(IW w) { return last == w; }
  Int reg() { return 0; }
  Int ask() { return 0; }
  Int grow(Int n) { IW t; Int m; m = 0; while m < n { t = new W(this); m = m + 1; } return n; }
}
class W(IL lead) implements IW {
  Int reg() { Int r; r = lead.keep(this); return r; }
  Int ask() { Bool b; Int r; b = lead.isLast(this); if b { r = 1; } else { r = 2; } return r; }
  Int grow(Int n) { return 0; }
}
{ Actor<IW> b; Fut<Int> g; Fut<Int> f1; Fut<Int> f2;
  b = new actor L(); g = b!grow(2); g.get; f1 = b!reg(); f1.get; f2 = b!ask(); }
"""


def counting_workers(workers: int, hits: int, wait: bool = False) -> str:
    """A leader that answers hit() with 0 and ``workers`` copies that
    answer with the number of hits they served; ``hits`` sends in a row,
    each waited for when ``wait``."""
    futs = " ".join(f"Fut<Int> h{i};" for i in range(1, hits + 1))
    send = "h{0} = b!hit(); h{0}.get;" if wait else "h{0} = b!hit();"
    sends = " ".join(send.format(i) for i in range(1, hits + 1))
    return f"""
interface IH {{ Int hit(); Int grow(Int n); }}
class L implements IH {{
  Int hit() {{ return 0; }}
  Int grow(Int n) {{ IH t; Int m; m = 0; while m < n {{ t = new W(); m = m + 1; }} return n; }}
}}
class W implements IH {{
  Int served;
  Int hit() {{ served = served + 1; return served; }}
  Int grow(Int n) {{ return 0; }}
}}
{{ Actor<IH> b; Fut<Int> g; {futs}
  b = new actor L(); g = b!grow({workers}); g.get; {sends} }}
"""


# after h1, the worker that served it has served = 1 and the other 0
COUNTING = counting_workers(2, 2, wait=True)

# two workers of one class, built with different fields
DISTINCT_FIELDS = """
interface IH { Int hit(); Int grow(); }
class L implements IH {
  Int hit() { return 0; }
  Int grow() { IH t; t = new W(1); t = new W(2); return 0; }
}
class W(Int k) implements IH {
  Int hit() { return k; }
  Int grow() { return 0; }
}
{ Actor<IH> b; Fut<Int> g; Fut<Int> h; b = new actor L(); g = b!grow(); g.get; h = b!hit(); }
"""


# Field-level independence.  In each program below, look() reads fields of
# the Boss twice and returns the difference, which is nonzero only when a
# second writer runs between the two reads.  look() itself sends what leads
# to that writer, just before or between the reads, so a search that
# judges the reads independent of that message never runs the writer
# between them and loses the nonzero answer.

# The relay's group takes (a, 1) while the Boss holds (a, 1) in its own
# group; the relay's go() sends the write back to the Boss's group.
SHARED_ENTRY = """
interface IG { Int look(sync<a> Int k); Int grow(); }
interface IP { Int put(Int x); }
interface IV { Int set(Int x); }
interface IR { Int go(sync<a> Int k, IP g); }
class Boss(IR rel) implements IG, IP, IV {
  Int v;
  Int set(Int x) { v = x; return 0; }
  Int put(Int x) { Int r; r = this.set(x); return r; }
  Int look(sync<a> Int k) {
    Int x; Int y; Fut<Int> f; f = rel!go(k, this); x = v; y = v; return y - x;
  }
  Int grow() { IP t; t = new W(this); return 0; }
}
class W(IV boss) implements IP { Int put(Int x) { Int r; r = boss.set(x); return r; } }
class R implements IR { Int go(sync<a> Int k, IP g) { Fut<Int> f; f = g!put(5); return 0; } }
{ Actor<IR> r; Actor<IG> b; Fut<Int> g; Fut<Int> l;
  r = new actor R(); b = new actor Boss(r); g = b!grow(); g.get; l = b!look(1); }
"""

# The writes sit behind field guards, one in an else branch and one in a
# then branch, in a method the worker reaches by a sync call on its stable
# field.
GUARDED_WRITE = """
interface IG { Int look(); Int grow(); }
interface IP { Int poke(); }
interface IV { Int hit(); }
class Boss implements IG, IP, IV {
  Int v; Int w;
  Int hit() {
    if v == 5 { } else { v = 5; }
    if w == 0 { w = 10; } else { }
    return 0;
  }
  Int poke() { Int r; r = this.hit(); return r; }
  Int look() {
    Int x; Int y; Int p; Int q; Fut<Int> f;
    x = v; p = w; f = this!poke(); y = v; q = w; return (y - x) + (q - p);
  }
  Int grow() { IP t; t = new W(this); return 0; }
}
class W(IV boss) implements IP { Int poke() { Int r; r = boss.hit(); return r; } }
{ Actor<IG> b; Fut<Int> g; Fut<Int> l; b = new actor Boss(); g = b!grow(); g.get; l = b!look(); }
"""

# The write is in a message that a third object, the relay, sends later.
THIRD_SENDER = """
interface IG { Int look(); Int grow(); }
interface IP { Int put(Int x); }
interface IV { Int set(Int x); }
interface IR { Int go(IP g); }
class Boss(IR rel) implements IG, IP, IV {
  Int v;
  Int set(Int x) { v = x; return 0; }
  Int put(Int x) { Int r; r = this.set(x); return r; }
  Int look() { Int x; Int y; Fut<Int> f; x = v; f = rel!go(this); y = v; return y - x; }
  Int grow() { IP t; t = new W(this); return 0; }
}
class W(IV boss) implements IP { Int put(Int x) { Int r; r = boss.set(x); return r; } }
class R implements IR { Int go(IP g) { Fut<Int> f; f = g!put(5); return 0; } }
{ Actor<IR> r; Actor<IG> b; Fut<Int> g; Fut<Int> l;
  r = new actor R(); b = new actor Boss(r); g = b!grow(); g.get; l = b!look(); }
"""

# Only the loop's third iteration writes.
LOOP_WRITE = """
interface IG { Int look(); Int grow(); }
interface IP { Int spin(); }
interface IV { Int set(); }
class Boss implements IG, IP, IV {
  Int v;
  Int set() { v = 5; return 0; }
  Int spin() {
    Int r; Int i; i = 0;
    while i < 3 { if i == 2 { r = this.set(); } else { } i = i + 1; }
    return r;
  }
  Int look() { Int x; Int y; Fut<Int> f; x = v; f = this!spin(); y = v; return y - x; }
  Int grow() { IP t; t = new W(this); return 0; }
}
class W(IV boss) implements IP {
  Int spin() {
    Int r; Int i; i = 0;
    while i < 3 { if i == 2 { r = boss.set(); } else { } i = i + 1; }
    return r;
  }
}
{ Actor<IG> b; Fut<Int> g; Fut<Int> l; b = new actor Boss(); g = b!grow(); g.get; l = b!look(); }
"""

# The write is guarded by a field and by e? on a future of another group.
RESOLVED_GUARD = """
interface IG { Int look(); Int grow(); }
interface IP { Int poke(Fut<Int> h); }
interface IV { Int hit(Fut<Int> h); }
interface IR { Int ping(); }
class Boss(IR rel) implements IG, IP, IV {
  Int v;
  Int hit(Fut<Int> h) { if v == 0 { if h? { v = 5; } else { } } else { } return 0; }
  Int poke(Fut<Int> h) { Int r; r = this.hit(h); return r; }
  Int look() {
    Int x; Int y; Fut<Int> h; Fut<Int> f;
    x = v; h = rel!ping(); f = this!poke(h); y = v; return y - x;
  }
  Int grow() { IP t; t = new W(this); return 0; }
}
class W(IV boss) implements IP { Int poke(Fut<Int> h) { Int r; r = boss.hit(h); return r; } }
class R implements IR { Int ping() { return 1; } }
{ Actor<IR> r; Actor<IG> b; Fut<Int> g; Fut<Int> l;
  r = new actor R(); b = new actor Boss(r); g = b!grow(); g.get; l = b!look(); }
"""

# The write is one level down a recursion.  The walk meets hit inside its
# own call before it reaches the write, and a recursion touches anything.
RECURSIVE_WRITE = """
interface IG { Int look(); Int grow(); }
interface IP { Int poke(); }
interface IV { Int hit(Int n); }
class Boss implements IG, IP, IV {
  Int v;
  Int hit(Int n) { Int r; if n == 0 { v = 5; r = 0; } else { r = this.hit(n - 1); } return r; }
  Int poke() { Int r; r = this.hit(1); return r; }
  Int look() { Int x; Int y; Fut<Int> f; x = v; f = this!poke(); y = v; return y - x; }
  Int grow() { IP t; t = new W(this); return 0; }
}
class W(IV boss) implements IP { Int poke() { Int r; r = boss.hit(1); return r; } }
{ Actor<IG> b; Fut<Int> g; Fut<Int> l; b = new actor Boss(); g = b!grow(); g.get; l = b!look(); }
"""

# The write stores a new object in the field that look() reads.
NEW_WRITE = """
interface IG { Int look(); Int grow(); }
interface IP { Int poke(); }
interface IV { Int hit(); }
interface IK { Int nop(); }
class Boss implements IG, IP, IV {
  IK last;
  Int hit() { last = new K(); return 0; }
  Int poke() { Int r; r = this.hit(); return r; }
  Int look() {
    IK x; IK y; Int r; Fut<Int> f;
    x = last; f = this!poke(); y = last; if x == y { r = 0; } else { r = 5; } return r;
  }
  Int grow() { IP t; t = new W(this); return 0; }
}
class W(IV boss) implements IP { Int poke() { Int r; r = boss.hit(); return r; } }
class K implements IK { Int nop() { return 0; } }
{ Actor<IG> b; Fut<Int> g; Fut<Int> l; b = new actor Boss(); g = b!grow(); g.get; l = b!look(); }
"""

# hit(5) misses the arity of W's hit, the first class that has the method;
# the write is in the Boss's hit, the second.
ARITY_MISS = """
interface IG { Int look(); Int grow(); }
interface IP { Int poke(); }
interface IV { Int hit(Int n); }
class W(IV boss) implements IP {
  Int poke() { Int r; r = boss.hit(5); return r; }
  Int hit(Int a, Int b) { return a; }
}
class Boss implements IG, IP, IV {
  Int v;
  Int hit(Int n) { v = n; return 0; }
  Int poke() { Int r; r = this.hit(5); return r; }
  Int look() { Int x; Int y; Fut<Int> f; x = v; f = this!poke(); y = v; return y - x; }
  Int grow() { IP t; t = new W(this); return 0; }
}
{ Actor<IG> b; Fut<Int> g; Fut<Int> l; b = new actor Boss(); g = b!grow(); g.get; l = b!look(); }
"""

# The write follows a branch that never runs, since nothing sends reset(),
# and whose operator faults.
FAULTING_BRANCH = """
interface IG { Int look(); Int grow(); }
interface IP { Int poke(); }
interface IV { Int hit(); }
class Boss implements IG, IP, IV {
  Int v; Int w;
  Int hit() { Int r; if w == 0 { r = 0; } else { r = 1 + true; } v = 5; return r; }
  Int reset() { w = 1; return 0; }
  Int poke() { Int r; r = this.hit(); return r; }
  Int look() { Int x; Int y; Fut<Int> f; x = v; f = this!poke(); y = v; return y - x; }
  Int grow() { IP t; t = new W(this); return 0; }
}
class W(IV boss) implements IP { Int poke() { Int r; r = boss.hit(); return r; } }
{ Actor<IG> b; Fut<Int> g; Fut<Int> l; b = new actor Boss(); g = b!grow(); g.get; l = b!look(); }
"""


# b counts to 12 in a local loop while a's message faults
LOOP_BESIDE_FAULT = """
interface IB { Int boom(); Int count(); }
class K implements IB {
  Int boom() { Int x; x = 1 + true; return x; }
  Int count() { Int i; i = 0; while i < 12 { i = i + 1; } return i; }
}
{ Actor<IB> a; Actor<IB> b; Fut<Int> f; Fut<Int> c;
  a = new actor K(); b = new actor K(); f = a!boom(); c = b!count(); }
"""


# ASYNC-RETURN alone.  In each program below, a return is raced by a step
# that only the full search takes before it, and a search that takes the
# return alone loses a terminal or a verdict.

# Main gets ping() while op(1) may still hold (k, 1), then sends two(1, 2)
# on the same key and op(2).  Under a selection that ignores the held
# entry or the shadow, the idle worker starts one of them: a violation,
# but only in the orders where op(1) has not returned yet.
SAME_KEY_AFTER_GET = """
interface IW { Int op(sync<k> Int a); Int two(sync<k> Int a, sync<k> Int b); Int ping(); Int grow(); }
class L implements IW {
  Int op(sync<k> Int a) { Int x; x = a + 1; return x; }
  Int two(sync<k> Int a, sync<k> Int b) { return a + b; }
  Int ping() { return 0; }
  Int grow() { IW t; t = new W(); return 0; }
}
class W implements IW {
  Int op(sync<k> Int a) { Int x; x = a + 1; return x; }
  Int two(sync<k> Int a, sync<k> Int b) { return a + b; }
  Int ping() { return 0; }
  Int grow() { return 0; }
}
{ Actor<IW> b; Fut<Int> g; Fut<Int> f; Fut<Int> p; Fut<Int> t; Fut<Int> h;
  b = new actor L(); g = b!grow(); g.get; f = b!op(1); p = b!ping(); p.get;
  t = b!two(1, 2); h = b!op(2); }
"""

# op() has set v but not returned when peek() reads v = 1; main then tests
# f? and finds op() still running: r = 2 with h = 1.
RESOLVED_WHILE_RUNNING = """
interface IS { Int op(); Int peek(); Int grow(); }
interface IV { Int set(); Int read(); }
class Boss implements IS, IV {
  Int v;
  Int set() { v = 1; return 0; }
  Int read() { return v; }
  Int op() { Int r; r = this.set(); return r; }
  Int peek() { Int r; r = this.read(); return r; }
  Int grow() { IS t; t = new Teller(this); return 0; }
}
class Teller(IV boss) implements IS {
  Int op() { Int r; r = boss.set(); return r; }
  Int peek() { Int r; r = boss.read(); return r; }
  Int grow() { return 0; }
}
{ Actor<IS> b; Fut<Int> g; Fut<Int> f; Fut<Int> h; Int r;
  b = new actor Boss(); g = b!grow(); g.get; f = b!op(); h = b!peek(); h.get;
  if f? { r = 1; } else { r = 2; } }
"""

# look()'s return reads v, which the worker's put() writes: 5 only when
# the write comes between the two reads.
RETURN_READS_FIELD = """
interface IG { Int look(); Int put(); Int grow(); }
interface IP { Int put(); }
interface IV { Int set(); }
class Boss implements IG, IP, IV {
  Int v;
  Int set() { v = 5; return 0; }
  Int put() { Int r; r = this.set(); return r; }
  Int look() { Int x; x = v; return v - x; }
  Int grow() { IP t; t = new W(this); return 0; }
}
class W(IV boss) implements IP { Int put() { Int r; r = boss.set(); return r; } }
{ Actor<IG> b; Fut<Int> g; Fut<Int> l; Fut<Int> p;
  b = new actor Boss(); g = b!grow(); g.get; l = b!look(); p = b!put(); }
"""

# fwd() sends op(1) to its own group, the leader through this and the
# worker through its field, while the first op(1) may still hold (k, 1).
SELF_SEND = """
interface IW { Int op(sync<k> Int a); Int fwd(Int a); Int grow(); }
class L implements IW {
  Int op(sync<k> Int a) { Int x; x = a + 1; return x; }
  Int fwd(Int a) { Fut<Int> f; f = this!op(a); return 0; }
  Int grow() { IW t; t = new W(this); return 0; }
}
class W(IW boss) implements IW {
  Int op(sync<k> Int a) { Int x; x = a + 1; return x; }
  Int fwd(Int a) { Fut<Int> f; f = boss!op(a); return 0; }
  Int grow() { return 0; }
}
{ Actor<IW> b; Fut<Int> g; Fut<Int> f; Fut<Int> h;
  b = new actor L(); g = b!grow(); g.get; f = b!op(1); h = b!fwd(1); }
"""

# Both of the group's objects may start an x() and wait on the z() it
# sends, and then nothing is left to start z(): a deadlock in the orders
# where the second x() starts before the first one's z().
SOME_ORDERS_DEADLOCK = """
interface IX { Int x(); Int z(); Int grow(); }
class L implements IX {
  Int x() { Fut<Int> f; f = this!z(); f.get; return 1; }
  Int z() { return 2; }
  Int grow() { IX t; t = new W(this); return 0; }
}
class W(IX boss) implements IX {
  Int x() { Fut<Int> f; f = boss!z(); f.get; return 1; }
  Int z() { return 2; }
  Int grow() { return 0; }
}
{ Actor<IX> b; Fut<Int> g; Fut<Int> f1; Fut<Int> f2;
  b = new actor L(); g = b!grow(); g.get; f1 = b!x(); f2 = b!x(); }
"""


def broken_select(supported, held, queue, **_):
    """Selection with the conflict checks removed: first supported message
    wins regardless of held locks or earlier conflicting messages."""
    for msg in queue:
        if msg.signature in supported:
            return msg
    return None


def shadowless_select(supported, held, queue, **_):
    """``scheduler.select`` without its shadow: the first supported message
    disjoint from the held set.  It is prefix-stable and keeps lock sets
    apart, but a message passed over no longer blocks a later one that
    overlaps it."""
    for msg in queue:
        if held.isdisjoint(msg.sync) and msg.signature in supported:
            return msg
    return None


def _check_lock_disjointness(config):
    """The theorem1 check on a whole state: inside every group, no two
    objects hold intersecting lock sets.  The explorer checks only the
    group and object of each SCHED-MSG (``_check_started``)."""
    for members in config.groups:
        lock_sets = [config.heap[o.id].locks for o in members]
        if len(lock_union(lock_sets)) != sum(map(len, lock_sets)):
            return f"overlapping lock sets inside group {members[0]}"
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
    assert report.states == 37
    valuations = terminal_future_values(report)
    assert len(valuations) == 1
    (only,) = valuations
    assert ("c2", "60") in only and ("w3", "True") in only
    for cfg in report.terminals:
        boss = cfg.main_env()["bank"]
        assert cfg.heap[boss].fields == {"bal1": 40, "bal2": 60}


def future_values(report, *names):
    return {tuple(cfg.futures[cfg.main_env()[n]] for n in names) for cfg in report.terminals}


def test_a_worker_whose_reference_escaped_is_not_cut():
    # (1, 2): one worker registers, the other is asked
    report = explore_all(initial_config(parse_program(ESCAPE)), 400)
    assert report.ok and not report.truncated
    assert future_values(report, "f1", "f2") == {(0, 0), (0, 2), (1, 0), (1, 1), (1, 2)}


def test_workers_with_different_counts_are_not_cut():
    # (1, 1): each worker serves one hit
    report = explore_all(initial_config(parse_program(COUNTING)), 400)
    assert report.ok and not report.truncated
    assert future_values(report, "h1", "h2") == {(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)}


def test_workers_with_different_fields_are_not_cut():
    report = explore_all(initial_config(parse_program(DISTINCT_FIELDS)), 400)
    assert report.ok and not report.truncated
    assert future_values(report, "h") == {(0,), (1,), (2,)}


@pytest.mark.parametrize(
    "source, answers",
    [
        (SHARED_ENTRY, {0, 5}),
        (GUARDED_WRITE, {0, 5, 10, 15}),
        (THIRD_SENDER, {0, 5}),
        (LOOP_WRITE, {0, 5}),
        (RESOLVED_GUARD, {0, 5}),
        (RECURSIVE_WRITE, {0, 5}),
        (NEW_WRITE, {0, 5}),
        (ARITY_MISS, {0, 5}),
        (FAULTING_BRANCH, {0, 5}),
    ],
    ids=[
        "shared entry",
        "guarded write",
        "third sender",
        "loop write",
        "resolved guard",
        "recursive write",
        "new write",
        "arity miss",
        "faulting branch",
    ],
)
def test_a_second_writer_between_two_reads_is_not_cut(source, answers):
    report = explore_all(initial_config(parse_program(source)), 400)
    assert report.ok and not report.truncated and report.faults == 0
    assert {l for (l,) in future_values(report, "l")} == answers


def test_a_return_is_not_taken_before_a_step_that_races_it():
    # each answer or verdict below needs a step taken before a return
    report = explore_all(initial_config(parse_program(RETURN_READS_FIELD)), 400)
    assert {l for (l,) in future_values(report, "l")} == {0, 5}
    report = explore_all(initial_config(parse_program(RESOLVED_WHILE_RUNNING)), 400)
    answers = {(cfg.futures[cfg.main_env()["h"]], cfg.main_env()["r"]) for cfg in report.terminals}
    assert (1, 2) in answers
    for source, select_fn, kind in [
        (SAME_KEY_AFTER_GET, broken_select, "theorem1"),
        (SAME_KEY_AFTER_GET, shadowless_select, "order"),
        (SELF_SEND, broken_select, "theorem1"),
    ]:
        report = explore_all(initial_config(parse_program(source)), 400, select_fn=select_fn)
        assert [v.kind for v in report.violations] == [kind]
        assert explore_all(initial_config(parse_program(source)), 400).ok


def test_states_do_not_grow_with_the_worker_count():
    # Without the cut, every permutation of which worker served which hit
    # is kept: 304 states at 2 workers, 1,815 at 4.
    states = [
        explore_all(initial_config(parse_program(counting_workers(n, 3))), 400).states
        for n in (2, 4)
    ]
    assert states[1] <= 1.5 * states[0], states


def test_single_object_no_labels_trivially_disjoint():
    p = parse_program(
        "interface IC { Int inc(Int x); } class K implements IC { Int inc(Int x) { return x + 1; } }"
        "{ Actor<IC> a; Fut<Int> f; a = new actor K(); f = a!inc(1); f.get; }"
    )
    report = explore_all(initial_config(p), 200)
    assert report.ok and not report.truncated
    for cfg in report.terminals:
        assert all(state.locks == frozenset() for state in cfg.heap)


def test_broken_select_reports_violating_trace(bank_small):
    report = explore_all(initial_config(bank_small), 500, select_fn=broken_select)
    assert not report.ok
    violation = report.violations[0]
    assert violation.kind in ("theorem1", "order")
    assert len(violation.trace) > 0
    assert violation.trace[-1].rule == "SCHED-MSG" or violation.kind == "theorem1"


def test_shadowless_select_reports_an_order_violation(worked_queue):
    # With m1 running, m3 waits on (l,1), and m4 must wait behind m3 on (l,2).
    report = explore_all(initial_config(worked_queue), 400, select_fn=shadowless_select)
    assert [v.kind for v in report.violations] == ["order"]
    trace = report.violations[0].trace
    assert trace[-1].rule == "SCHED-MSG"
    before, _ = run(initial_config(worked_queue), trace[:-1], select_fn=shadowless_select)
    assert _check_dispatch_order(before, trace[-1]) == report.violations[0].detail
    assert _check_lock_disjointness(step(before, trace[-1], shadowless_select)) is None
    verdict = reference_explore(initial_config(worked_queue), 400, select_fn=shadowless_select)[4]
    assert verdict == "order"


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
        for state in cfg.heap:
            assert state.myactor == ANONYMOUS


def test_depth_bound_reported_as_truncation():
    p = parse_program("{ Int i; while 0 <= i { i = i + 1; } }")
    report = explore_all(initial_config(p), 10)
    assert report.truncated
    assert report.terminals == []
    assert report.ok


def test_depth_cut_inside_a_run_of_safe_steps():
    # Every step is safe, so the search takes runs of them, each ending
    # after the loop's COND-TRUE; the last run is the loop exit and the
    # statements after it.  A depth that cuts the program short cuts it
    # inside a run.
    config = initial_config(
        parse_program("{ Int i; Int s; while i < 3 { i = i + 1; s = s + i; } s = s + s; s = s + 1; }")
    )
    final, trace = run(config, "fifo")
    for depth in range(1, len(trace)):
        report = explore_all(config, depth)
        assert report.truncated and report.terminals == [], depth
    report = explore_all(config, 4 * len(trace))
    assert not report.truncated and report.terminals == [final]


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


def reference_key(c, rename=None):
    """Structural state key: every dict sorted, every value tagged.
    ``rename`` maps object ids to the ids to key those objects by."""
    rename = rename or {}

    def obj(ref):
        return rename.get(ref.id, ref.id)

    def value(v):
        if isinstance(v, bool):
            return ("bool", v)
        if isinstance(v, ObjRef):
            return ("ObjRef", obj(v))
        if isinstance(v, FutRef):
            return ("FutRef", v.id)
        if v is PENDING:
            return ("pending",)
        return v

    def items(d):
        return tuple(sorted((name, value(v)) for name, v in d.items()))

    def stmt(s):
        if isinstance(s, Assign) and isinstance(s.value, ValueLit):
            return ("value", s.target, value(s.value.value))
        return s

    def by_obj(pairs):
        return sorted((obj(r), v) for r, v in pairs)

    refs = tuple(map(ObjRef, range(len(c.heap))))  # slot i holds object i

    # The interfaces and the two lengths are derived, not stored; they stay
    # in the key so that scripts/machine_digest.py, which hashes it, keeps
    # its value.
    classes = c.index.classes
    heap = tuple(
        (
            o,
            st.cls,
            obj(st.myactor),
            frozenset(classes[st.cls].implements) if st.cls is not None else frozenset(),
            frozenset((e.label, value(e.value)) for e in st.locks),
            items(st.fields),
        )
        for o, st in by_obj(zip(refs, c.heap))
    )
    queues = tuple(
        (a, tuple((m.priority, m.method, tuple(map(value, m.args)), m.future.id) for m in q))
        for a, q in by_obj(c.queues.items())
    )
    futures = tuple((f, value(v)) for f, v in enumerate(c.futures))
    groups = tuple(
        (
            a,
            tuple(
                (o, tuple((items(cl.env), tuple(map(stmt, cl.stmts))) for cl in thread))
                for o, thread in by_obj(zip(members, map(c.threads.__getitem__, members)))
            ),
        )
        for a, members in by_obj((members[0], members) for members in c.groups)
    )
    # the next object id, the next future id and the next message
    # priority, which is the next future id again
    return (c.fault, heap, queues, futures, groups, len(c.heap), len(c.futures), len(c.futures))


def symmetric_key(c):
    """What ``c`` is up to renaming, inside each group, the objects of one
    class other than the group's first: its fault and the set of its
    ``reference_key``s under every such renaming."""
    alike = defaultdict(list)
    for members in c.groups:
        for o in members[1:]:
            alike[members[0].id, c.heap[o].cls].append(o.id)
    ids = list(alike.values())
    return c.fault, frozenset(
        reference_key(c, {old: new for olds, news in zip(ids, perm) for old, new in zip(olds, news)})
        for perm in itertools.product(*map(itertools.permutations, ids))
    )


def reference_explore(config, depth, key=reference_key, select_fn=select, terminal_key=reference_key):
    """Plain BFS over every enabled step, deduplicating states by ``key``:
    (states, truncated, faults, a Counter of the terminals' ``terminal_key``,
    kind of the first invariant violation met in BFS order or None, the set
    of the deadlocked terminals' ``terminal_key``).  It does not stop at a
    violation."""
    seen = {key(config)}
    frontier = deque([(config, 0)])
    states, truncated, faults, terminals, violation = 0, False, 0, Counter(), None
    deadlocked = set()
    while frontier:
        current, dist = frontier.popleft()
        states += 1
        if violation is None and _check_lock_disjointness(current):
            violation = "theorem1"
        labels = enabled_steps(current, select_fn)
        if not labels:
            terminals[terminal_key(current)] += 1
            faults += current.fault is not None
            if current.fault is None and stuck(current):
                deadlocked.add(terminal_key(current))
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
    return states, truncated, faults, terminals, violation, deadlocked


def _differential_programs():
    for path in sorted(PROGRAMS.glob("*.mac")):
        yield path.stem, load_program(path.stem), 400
    yield "unlabelled race", parse_program(UNLABELLED_RACE), 400
    yield "bool/int race", parse_program(BOOL_INT_RACE), 400
    yield "torn read", parse_program(TORN_READ), 400
    yield "two faults", parse_program(TWO_FAULTS), 60
    yield "escape", parse_program(ESCAPE), 400
    yield "counting workers", parse_program(COUNTING), 400
    yield "distinct fields", parse_program(DISTINCT_FIELDS), 400
    yield "shared entry", parse_program(SHARED_ENTRY), 400
    yield "guarded write", parse_program(GUARDED_WRITE), 400
    yield "third sender", parse_program(THIRD_SENDER), 400
    yield "loop write", parse_program(LOOP_WRITE), 400
    yield "resolved guard", parse_program(RESOLVED_GUARD), 400
    yield "recursive write", parse_program(RECURSIVE_WRITE), 400
    yield "new write", parse_program(NEW_WRITE), 400
    yield "arity miss", parse_program(ARITY_MISS), 400
    yield "faulting branch", parse_program(FAULTING_BRANCH), 400
    yield "loop beside fault", parse_program(LOOP_BESIDE_FAULT), 400
    yield "same key after get", parse_program(SAME_KEY_AFTER_GET), 400
    yield "resolved while running", parse_program(RESOLVED_WHILE_RUNNING), 400
    yield "return reads field", parse_program(RETURN_READS_FIELD), 400
    yield "self send", parse_program(SELF_SEND), 400
    yield "same key get", parse_program(SAME_KEY_GET), 400
    yield "some orders deadlock", parse_program(SOME_ORDERS_DEADLOCK), 400
    for seed in range(150):
        yield f"progen-{seed}", gen_program(random.Random(seed)), 20


def in_id_order(c) -> bool:
    """Whether slot *i* of the heap and of the threads holds object *i*,
    and every future a message names is a slot of the futures: the
    invariant the interned key keys each slot by, in place of sorting.
    Object *i* is the one its group lists as *i*, and a busy thread's
    first frame runs the object of its slot; the groups and the queues
    are in id order."""
    refs = list(map(ObjRef, range(len(c.heap))))
    members = [o for group in c.groups for o in group]
    return (
        len(c.threads) == len(refs)
        and sorted(members) == refs
        and all(c.heap[o].myactor == group[0] for group in c.groups for o in group)
        and all(thread[0].env["this"] == ref for ref, thread in zip(refs, c.threads) if thread)
        and all(m.future.id == m.priority < len(c.futures) for q in c.queues.values() for m in q)
        and all(
            list(d) == sorted(d, key=attrgetter("id"))
            for d in (c.queues, [group[0] for group in c.groups], *c.groups)
        )
    )


def test_interned_keys_explore_like_structural_reference():
    # the full search, keyed once by the interned key and once structurally
    def interned_key(c):
        assert in_id_order(c)
        return c.canonical()

    for name, program, depth in _differential_programs():
        interned = reference_explore(initial_config(program), depth, key=interned_key)
        assert interned == reference_explore(initial_config(program), depth), name


def key_from_nothing(c):
    """``c``'s key built with no keyed ancestor: every slot keyed anew."""
    alone = Configuration(c.index, c.heap, c.threads, c.futures, c.queues, c.groups, c.fault)
    return alone.canonical()


def test_key_from_parent_equals_key_from_nothing():
    # A state's key copies its nearest keyed ancestor's and re-keys only the
    # slots written since.  In every state the reduced and the full search
    # reach, that must be the key built from nothing.
    keyed = Configuration.canonical
    derived = 0

    def canonical(c):
        nonlocal derived
        from_parent = c._canon is None and c._base is not None
        key = keyed(c)
        if from_parent:
            assert key == key_from_nothing(c), (name, select_fn.__name__)
            derived += 1
        return key

    with mock.patch.object(Configuration, "canonical", canonical):
        for select_fn in (select, broken_select):
            for name, program, depth in _differential_programs():
                explore_all(initial_config(program), depth, select_fn=select_fn)
                reference_explore(
                    initial_config(program), depth, key=canonical, select_fn=select_fn
                )
    assert derived > 10_000, derived


def _report_record(report):
    return (
        report.states,
        report.truncated,
        report.faults,
        Counter(reference_key(c) for c in report.terminals),
        [(v.kind, len(v.trace)) for v in report.violations],
    )


def test_every_label_the_explorer_applies_is_enabled():
    # The explorer applies the labels it derived without the public step's
    # check; each must still be the step object_step gives on that state.
    # No successor is made twice, also where a step faults, but for the
    # pick of a state that falls back to full expansion, which that
    # expansion takes again: the first label applied there, a safe one.
    apply = explore_module.step
    retaken = 0
    for select_fn in (select, broken_select):

        def checked(config, label, *rest):
            assert label == object_step(config, label.actor, label.obj, select_fn), label
            applied.setdefault(id(config), (config, []))[1].append(label)
            return apply(config, label, *rest)

        for name, program, depth in _differential_programs():
            plain = explore_all(initial_config(program), depth, select_fn=select_fn)
            applied = {}  # id of a state -> (the state, the labels applied to it)
            with mock.patch.object(explore_module, "step", checked):
                patched = explore_all(initial_config(program), depth, select_fn=select_fn)
            assert _report_record(patched) == _report_record(plain), name
            for config, (pick, *expanded) in applied.values():
                assert len(set(expanded)) == len(expanded), name
                if pick in expanded:
                    assert interp_module.is_safe(config, pick, config.threads[pick.obj.id]), name
                    retaken += 1
    assert retaken > 100, retaken


# ---- selection once per worker class, against asking each object

# IA and IB declare an equal op, which Lead and Side both implement, in
# Lead's group; Loose's op has no sync label and Pair's takes two
# arguments, so neither supports the op sent to Lead.  With size() queued
# first, an idle Lead and an idle Side pick different messages.
EQUAL_SIGNATURES = """
interface IA { Int op(sync<k> Int x); Int size(); }
interface IB { Int op(sync<k> Int x); Int grow(); }
interface IC { Int op(Int x); }
interface ID { Int op(Int x, Int y); }
class Lead implements IA, IB {
  Int n;
  Int op(sync<k> Int x) { n = n + x; return n; }
  Int size() { return n; }
  Int grow() { IB s; IC c; ID d; s = new Side(); c = new Loose(); d = new Pair(); return 0; }
}
class Side implements IB {
  Int op(sync<k> Int x) { return x; }
  Int grow() { return 1; }
}
class Loose implements IC { Int op(Int x) { return x + 10; } }
class Pair implements ID { Int op(Int x, Int y) { return x + y; } }
{ Actor<IA> a; Actor<IC> c; Actor<ID> d;
  Fut<Int> g; Fut<Int> s; Fut<Int> p; Fut<Int> q; Fut<Int> r; Fut<Int> t; Fut<Int> u;
  a = new actor Lead(); c = new actor Loose(); d = new actor Pair();
  g = a!grow(); g.get;
  s = a!size(); p = a!op(1); q = a!op(1); r = a!op(2);
  t = c!op(5); u = d!op(2, 3); }
"""


def _selection_programs():
    yield from _differential_programs()
    yield "equal signatures", parse_program(EQUAL_SIGNATURES), 400


def searched_states(program, depth, select_fn):
    """The states of the reduced search of ``program``, each state a step
    was taken from or reached, then every state of its full search."""
    states = [initial_config(program)]
    taken = explore_module.step

    def recorded(config, label, *rest):
        result = taken(config, label, *rest)
        states.extend((config, result[1], result[2]))
        return result

    with mock.patch.object(explore_module, "step", recorded):
        explore_all(states[0], depth, select_fn=select_fn)
    yield from states
    root = initial_config(program)
    seen = {root.canonical()}
    frontier = deque([(root, 0)])
    while frontier:
        current, dist = frontier.popleft()
        yield current
        if dist < depth:
            for label in enabled_steps(current, select_fn):
                succ = step(current, label, select_fn)
                if succ.canonical() not in seen:
                    seen.add(succ.canonical())
                    frontier.append((succ, dist + 1))


def spec_pick(config, obj, select_fn):
    """What ``select_fn`` picks for the idle ``obj``, asked as the
    selection rule is stated: the group's held set is every lock of the
    heap's objects of the group, and signatures are the parsed
    ``MethodSig``s, a message's being the one its group's first object
    declares for its method and arity."""
    program = config.index.program
    interfaces = {i.name: i for i in program.interfaces}

    def signatures(cls):
        implements = config.index.classes[cls].implements
        return frozenset(sig for name in implements for sig in interfaces[name].signatures)

    actor = config.heap[obj.id].myactor
    first = signatures(config.heap[actor.id].cls)
    queue = tuple(
        m._replace(signature=next(s for s in first if (s.name, s.arity) == (m.method, len(m.args))))
        for m in config.queues.get(actor, ())
    )
    held = lock_union([st.locks for st in config.heap if st.myactor == actor])
    return select_fn(signatures(config.heap[obj.id].cls), held, queue)


@pytest.mark.parametrize("select_fn", [select, broken_select, shadowless_select])
def test_enabled_steps_are_the_steps_each_object_gives(select_fn):
    # enabled_steps asks select_fn once per worker class of a group; in
    # every state of the reduced and the full searches it must give the
    # labels object_step gives each object, in the same order, and each
    # idle object's pick must be the specification's
    states = picks = differing = 0
    for name, program, depth in _selection_programs():
        for config in searched_states(program, depth, select_fn):
            labels = [
                object_step(config, members[0], obj, select_fn)
                for members in config.groups
                for obj in members
            ]
            assert enabled_steps(config, select_fn) == [l for l in labels if l is not None], name
            states += 1
            if config.fault is not None:
                continue
            for members in config.groups:
                idle = {}  # class -> the priorities its idle members start
                for obj, label in zip(members, labels):
                    if not config.threads[obj.id] and config.queues.get(members[0]):
                        want = spec_pick(config, obj, select_fn)
                        assert (label and label.priority) == (want and want.priority), name
                        idle.setdefault(config.heap[obj.id].cls, set()).add(label and label.priority)
                        picks += 1
                differing += len(set().union(*idle.values())) > 1
                labels = labels[len(members) :]
    assert states > 9_000 and picks > 4_000 and differing > 500, (states, picks, differing)


def test_equal_signatures_pick_as_before():
    # The picks, and so the search, do not depend on how signatures are
    # represented: Side takes Lead's op but not its size, and neither
    # Loose nor Pair takes anything queued at Lead.
    report = explore_all(initial_config(parse_program(EQUAL_SIGNATURES)), 400)
    assert report.ok and not report.truncated and report.faults == report.deadlocks == 0
    assert report.states == 213
    assert future_values(report, "s", "p", "q", "r", "t", "u") == {
        (0, 1, 1, 2, 15, 5),
        (0, 1, 1, 3, 15, 5),
        (0, 1, 2, 2, 15, 5),
        (0, 1, 2, 4, 15, 5),
        (0, 1, 3, 2, 15, 5),
    }


@pytest.mark.parametrize("select_fn", [select, broken_select, shadowless_select])
def test_the_started_message_check_is_the_whole_state_check(select_fn):
    # The explorer checks a SCHED-MSG successor's locks only against the
    # started message's sync set.  On every SCHED-MSG successor of a state
    # whose lock sets are disjoint, in the reduced and the full searches,
    # that gives the whole-state check's verdict and detail.
    checked = overlapping = 0
    for name, program, depth in _selection_programs():
        for config in searched_states(program, depth, select_fn):
            if _check_lock_disjointness(config):
                continue
            for label in enabled_steps(config, select_fn):
                if label.rule == "SCHED-MSG":
                    succ = step(config, label, select_fn)
                    problem = _check_lock_disjointness(succ)
                    assert _check_started(succ, label) == problem, (name, label)
                    checked += 1
                    overlapping += problem is not None
    assert checked > 3_000, checked
    if select_fn is broken_select:
        assert overlapping > 500, overlapping


# ---- merged runs taken in place, against stepping them one at a time


def stepped_run(config, label, budget, select_fn):
    """What ``explore.step`` gives, stepped one label at a time: each label
    through ``_apply``, the next one asked of ``object_step`` and judged by
    ``is_safe`` on the state the last one reached.  An object that is idle,
    or has ended the main block, is not asked: its step is never safe."""
    first = interp_module._apply(config, label)
    run, end = [label], first
    while first.fault is None and len(run) < budget:
        thread = end.threads[label.obj.id]
        if not thread or thread[-1].point.head is None:
            break
        after = object_step(end, label.actor, label.obj, select_fn)
        if after is None or not interp_module.is_safe(end, after, thread):
            break
        made = interp_module._apply(end, after)
        if made.fault is not None:
            break
        back = after.rule == "COND-TRUE" and type(thread[-1].point.head) is While
        run.append(after)
        end = made
        if back:
            break
    return tuple(run), first, end


def _run_record(result):
    """A run's labels and the keys of its first successor and end."""
    run, first, end = result
    return run, first.canonical(), end.canonical()


def test_a_run_taken_in_place_is_the_run_stepped_one_label_at_a_time():
    # In every state the reduced search expands, each run it takes, and in
    # every state of the full search, the run each enabled step begins,
    # with the budget the search would give it.
    taken = explore_module.step
    compared = merged = 0
    for select_fn in (select, broken_select):
        for name, program, depth in _differential_programs():
            calls = []

            def recorded(config, label, *rest):
                result = taken(config, label, *rest)
                calls.append((config, label, rest, result))
                return result

            with mock.patch.object(explore_module, "step", recorded):
                explore_all(initial_config(program), depth, select_fn=select_fn)
            if select_fn is select and not name.startswith("progen"):
                root = initial_config(program)
                seen = {root.canonical()}
                frontier = deque([(root, 0)])
                while frontier:
                    current, dist = frontier.popleft()
                    for label in enabled_steps(current, select_fn):
                        rest = (depth - dist,)
                        calls.append((current, label, rest, taken(current, label, *rest)))
                        succ = step(current, label, select_fn)
                        if dist + 1 < depth and succ.canonical() not in seen:
                            seen.add(succ.canonical())
                            frontier.append((succ, dist + 1))
            for config, label, rest, result in calls:
                want = stepped_run(config, label, *rest, select_fn)
                assert _run_record(result) == _run_record(want), (name, label)
                merged += len(result[0]) - 1
            compared += len(calls)
    assert compared > 8_000 and merged > 15_000, (compared, merged)


def test_a_run_of_one_label_ends_at_its_successor():
    # step returns the state its first label reached itself as the end of
    # a run of that label alone, also where the next step is safe but
    # faults: the run then ends before it, at the state its stretch
    # started from, and no copy equal to that state is written.
    taken = explore_module.step
    single = faulting = 0
    for select_fn in (select, broken_select):

        def recorded(config, label, *rest):
            nonlocal single, faulting
            result = labels, succ, end = taken(config, label, *rest)
            if len(labels) == 1:
                assert end is succ, (name, label)
                single += 1
                after = object_step(succ, label.actor, label.obj, select_fn)
                faulting += (
                    after is not None
                    and interp_module.is_safe(succ, after, succ.threads[label.obj.id])
                    and interp_module._apply(succ, after).fault is not None
                )
            return result

        for name, program, depth in _differential_programs():
            with mock.patch.object(explore_module, "step", recorded):
                explore_all(initial_config(program), depth, select_fn=select_fn)
    assert single > 500 and faulting > 20, (single, faulting)


# ---- facts is_safe derives once per value, against a fresh walk

# Two makers race to create an object, so each branch gives the same id
# to an object of another class, and then sends it to the sink.  Sent
# first, the two messages are equal values, but use() calls poke() on
# the object, which writes n of a Hot and m of a Cold.
SAME_MESSAGE_OTHER_CLASS = """
interface IW { Int poke(); }
interface IS { Int use(IW w); }
interface IM { Int make(IS s); }
class Hot implements IW { Int n; Int poke() { n = 1; return 0; } }
class Cold implements IW { Int m; Int poke() { m = 1; return 0; } }
class Sink implements IS { Int use(IW w) { Int r; r = w.poke(); return r; } }
class MakeHot implements IM {
  Int make(IS s) { IW w; Fut<Int> f; Int r; w = new Hot(); f = s!use(w); r = w.poke(); return r; }
}
class MakeCold implements IM {
  Int make(IS s) { IW w; Fut<Int> f; Int r; w = new Cold(); f = s!use(w); r = w.poke(); return r; }
}
{ IS s; IM a; IM b; Fut<Int> fa; Fut<Int> fb;
  s = new actor Sink(); a = new actor MakeHot(); b = new actor MakeCold();
  fa = a!make(s); fb = b!make(s); }
"""


def _forget_head_reads(config):
    """Drop what ``config``'s top points keep of what their heads read."""
    for thread in config.threads:
        for closure in thread:
            closure.point.reads = interp_module._UNSEEN


def test_cached_independence_facts_match_a_fresh_walk():
    # is_safe keeps what a head statement reads per program point, and what a
    # closure or a queued message may access per closure or message
    # object.  In every state of the full searches of the gate programs,
    # it must answer as it does with each of those facts derived again
    # from that state.
    walk = interp_module._AccessWalk
    programs = [(n, p, d) for n, p, d in _differential_programs() if not n.startswith("progen")]
    programs.append(("same message, other class", parse_program(SAME_MESSAGE_OTHER_CLASS), 400))
    judged = unsafe = 0
    for name, program, depth in programs:
        root = initial_config(program)
        asked = []  # (state, label, cached answer)
        seen = {root.canonical()}
        frontier = deque([(root, 0)])
        while frontier:
            current, dist = frontier.popleft()
            for label in enabled_steps(current):
                thread = current.threads[label.obj.id]
                asked.append((current, label, interp_module.is_safe(current, label, thread)))
                succ = step(current, label)
                if dist < depth and succ.canonical() not in seen:
                    seen.add(succ.canonical())
                    frontier.append((succ, dist + 1))
        with mock.patch.object(
            interp_module, "_closure_access", lambda config, c: walk(config).closure(c)
        ), mock.patch.object(
            interp_module, "_message_access", lambda config, m: walk(config).message(m)
        ):
            for config, label, cached in asked:
                _forget_head_reads(config)
                thread = config.threads[label.obj.id]
                assert interp_module.is_safe(config, label, thread) == cached, (name, label)
        judged += len(asked)
        unsafe += sum(not cached for *_, cached in asked)
    assert judged > 8000 and unsafe > 2000, (judged, unsafe)


# ---- the reduced search against the full one


def _fault_and_clean_terminals(keys):
    faults = {k[0] for k in keys if k[0] is not None}
    return faults, {k for k in keys if k[0] is None}


def explore_without_symmetry(config, depth, select_fn):
    """``explore_all`` with the cut of interchangeable objects switched off."""
    with mock.patch.object(explore_module, "_one_per_interchangeable", lambda config, labels: labels):
        return explore_all(config, depth, select_fn=select_fn)


def explore_without_field_rule(config, depth, select_fn):
    """``explore_all`` with no step that reads or writes a field that is
    not stable taken alone."""
    reached = interp_module._reached_first

    def field_reached(config, label, touched):
        # a field's name is an identifier, a pseudo-field's is not
        return any(name.isidentifier() for _, name, _ in touched) or reached(config, label, touched)

    with mock.patch.object(interp_module, "_reached_first", field_reached):
        return explore_all(config, depth, select_fn=select_fn)


def explore_without_return_rule(config, depth, select_fn):
    """``explore_all`` with no ASYNC-RETURN taken alone."""
    safe = interp_module.is_safe

    def is_safe(config, label, thread):
        return label.rule != "ASYNC-RETURN" and safe(config, label, thread)

    with mock.patch.object(explore_module, "is_safe", is_safe):
        return explore_all(config, depth, select_fn=select_fn)


def test_reduced_search_keeps_terminals_faults_and_verdict():
    # Faulted terminals hold the other objects' progress, which the
    # reduction may cut short, so for those only the diagnostics compare.
    # Where the cut of interchangeable objects changes the state count,
    # non-faulted terminals compare up to renaming those objects.
    compared = faulty = violating = symmetric = field_level = return_rule = deadlocking = 0
    for select_fn in (select, broken_select):
        for name, program, depth in _differential_programs():
            _, truncated, faults, terminals, violation, deadlocked = reference_explore(
                initial_config(program), depth, select_fn=select_fn
            )
            if truncated:
                continue
            report = explore_all(initial_config(program), depth, select_fn=select_fn)
            field_level += (
                explore_without_field_rule(initial_config(program), depth, select_fn).states
                != report.states
            )
            return_rule += (
                explore_without_return_rule(initial_config(program), depth, select_fn).states
                != report.states
            )
            kind = report.violations[0].kind if report.violations else None
            assert kind == violation, name
            compared += 1
            if kind is not None:
                violating += 1
                continue  # explore_all stopped at the violation
            assert not report.truncated, name
            key = reference_key
            if explore_without_symmetry(initial_config(program), depth, select_fn).states != report.states:
                symmetric += 1
                key = symmetric_key
                _, _, _, terminals, _, deadlocked = reference_explore(
                    initial_config(program), depth, select_fn=select_fn, terminal_key=key
                )
            reduced = Counter(key(cfg) for cfg in report.terminals)
            assert _fault_and_clean_terminals(reduced) == _fault_and_clean_terminals(terminals), name
            stuck_keys = [key(cfg) for cfg in report.terminals if cfg.fault is None and stuck(cfg)]
            assert report.deadlocks == len(stuck_keys), name
            assert set(stuck_keys) == deadlocked, name
            faulty += faults > 0
            deadlocking += bool(deadlocked)
    assert compared >= 300 and faulty >= 200 and violating >= 1 and symmetric >= 4
    assert deadlocking >= 4, deadlocking
    assert field_level >= 8, field_level
    assert return_rule >= 10, return_rule


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


def test_a_local_loop_runs_beside_a_fault():
    # The loop's steps are taken in runs, each ending after a COND-TRUE of
    # the while; the fault of the other actor's message is still reached,
    # and so is a terminal where the loop finished first.
    report = explore_all(initial_config(parse_program(LOOP_BESIDE_FAULT)), 400)
    assert {cfg.fault for cfg in report.terminals} == {"'+' applied to non-integer operands"}
    assert 12 in {cfg.futures[cfg.main_env()["c"]] for cfg in report.terminals}


@pytest.mark.parametrize("select_fn", [broken_select, shadowless_select])
def test_violation_traces_replay(select_fn):
    # A trace runs through every step, also those a merged run of safe
    # steps took without storing the states between them.
    replayed = 0
    for name, program, depth in _differential_programs():
        for violation in explore_all(initial_config(program), depth, select_fn=select_fn).violations:
            before = initial_config(program)
            for label in violation.trace[:-1]:
                before = step(before, label, select_fn)
            last = violation.trace[-1]
            if violation.kind == "theorem1":
                assert _check_lock_disjointness(step(before, last, select_fn)) == violation.detail, name
            else:
                assert _check_dispatch_order(before, last) == violation.detail, name
            replayed += 1
    assert replayed >= 1


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
    for select_fn in (select, broken_select, shadowless_select):
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
