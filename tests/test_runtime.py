import gc
import json
import math
import queue
import sys
import threading
import time
import weakref
from collections import Counter
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from conftest import CountingSet
from mactor import (
    EventLog,
    Future,
    FutureFailed,
    MacActor,
    SyncEntry,
    synced,
)
from mactor.bank import read_jsonl
from mactor.scheduler import planned_sync_set, sync_plan


def make_actor(*args, **kwargs):
    actor = MacActor(*args, **kwargs)
    return actor


@pytest.fixture
def cleanup():
    actors = []
    yield actors.append
    for actor in actors:
        actor.shutdown(drain=False)


# ---- Future

class _Gated:
    def __init__(self, gate):
        self._gate = gate

    def echo(self, value):
        self._gate.wait(10)
        if isinstance(value, BaseException):
            raise value
        return value


@pytest.fixture
def gated():
    """A one-worker actor whose ``echo`` returns its argument, or raises
    it if it is an exception, once the test sets the gate."""
    gate = threading.Event()
    actor = MacActor(lambda: _Gated(gate), workers=1)
    yield actor, gate
    gate.set()
    actor.shutdown(drain=False)


def test_a_future_is_read_only_and_only_send_makes_one():
    import mactor.runtime as runtime

    with pytest.raises(TypeError, match="made by MacActor.send"):
        Future()
    public = [n for n in dir(Future) if not n.startswith("_") and callable(getattr(Future, n))]
    assert public == ["done", "get"]
    assert not [n for n in ("resolve", "fail", "state") if hasattr(Future, n)]
    assert not [n for n in ("PENDING", "RESOLVED", "FAILED") if hasattr(runtime, n)]
    actor = MacActor(lambda: _Gated(None), workers=1)
    actor.shutdown()
    refused = actor.send("echo", (_Payload(),))
    assert type(refused) is Future and refused.done()
    with pytest.raises(FutureFailed, match="send rejected"):
        refused.get(timeout=0)
    assert refused.args is None and refused.sync is None and refused._latch is None


def test_future_resolve_then_get(gated):
    actor, gate = gated
    f = actor.send("echo", (123,))
    gate.set()
    assert f.get(timeout=5) == 123
    assert f.get() == f.get(timeout=0) == 123


def test_future_failure_propagates_cause(gated):
    actor, gate = gated
    boom = ValueError("boom")
    f = actor.send("echo", (boom,))
    gate.set()
    with pytest.raises(FutureFailed) as err:
        f.get(timeout=5)
    assert err.value.__cause__ is boom
    assert err.value.diagnostic == "ValueError: boom"


def test_future_same_value_across_threads(gated):
    actor, gate = gated
    f = actor.send("echo", ("answer",))
    seen = []
    lock = threading.Lock()

    def reader():
        value = f.get(timeout=5)
        with lock:
            seen.append(value)

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for t in threads:
        t.start()
    gate.set()
    for t in threads:
        t.join()
    assert seen == ["answer"] * 8


def test_future_timeout(gated):
    actor, _ = gated
    f = actor.send("echo", (1,))
    for timeout in (0.05, 0, -1):  # a negative one waits not at all
        with pytest.raises(TimeoutError):
            f.get(timeout=timeout)
    assert not f.done()


@pytest.mark.parametrize("timeout", [math.inf, threading.TIMEOUT_MAX * 2])
def test_future_get_timeout_past_the_platform_limit_waits_like_none(gated, timeout):
    actor, gate = gated
    f = actor.send("echo", ("late",))
    timer = threading.Timer(0.05, gate.set)
    timer.start()
    try:
        assert f.get(timeout=timeout) == "late"
    finally:
        timer.join(timeout=5)


def test_future_get_nan_timeout_raises_naming_the_argument(gated):
    actor, gate = gated
    f = actor.send("echo", (1,))
    yielded = []
    with mock.patch("mactor.runtime._yield_cpu", lambda: yielded.append(1)):
        with pytest.raises(ValueError, match="timeout"):
            f.get(timeout=math.nan)
    assert f._latch is None and not yielded  # raised before yielding or waiting
    gate.set()
    assert f.get(timeout=5) == 1
    assert f.get(timeout=math.nan) == 1  # a settled future waits for nothing


# ---- a pending get yields the CPU once, then parks

def test_a_pending_get_that_finds_its_message_done_after_the_yield_builds_no_latch(gated):
    actor, gate = gated
    f = actor.send("echo", ("value",))
    seen = []

    def worker_runs_meanwhile():
        # what the yield is for: the woken worker finishes the message
        # while the caller is off the CPU
        seen.append(f.done())
        gate.set()
        deadline = time.time() + 5
        while not f.done() and time.time() < deadline:
            time.sleep(0.002)

    with mock.patch("mactor.runtime._yield_cpu", worker_runs_meanwhile):
        assert f.get(timeout=1) == "value"
    assert seen == [False]  # yielded once, while the message was pending
    assert f._latch is None


def test_a_timed_get_on_a_message_that_never_runs_parks_after_the_yield(gated):
    actor, _ = gated
    f = actor.send("echo", (1,))
    yielded = []
    with mock.patch("mactor.runtime._yield_cpu", lambda: yielded.append(f.done())):
        with pytest.raises(TimeoutError):
            f.get(timeout=0.05)
    assert yielded == [False] and f._latch is not None and not f.done()


# ---- behaviors used below

class Recorder:
    """Appends (method, args, instance-tag, start, end) tuples; ``locked``
    optionally blocks on an event to hold its worker busy."""

    def __init__(self, log, tag=0, gate=None):
        self._log = log
        self._tag = tag
        self._gate = gate

    def _note(self, method, args, wait=False):
        start = time.perf_counter_ns()
        if wait and self._gate is not None:
            self._gate.wait(timeout=10)
        end = time.perf_counter_ns()
        self._log.append((method, args, self._tag, start, end))
        return len(self._log)

    @synced("a", None)
    def locked(self, key, payload):
        return self._note("locked", (key, payload), wait=True)

    def free(self, payload):
        return self._note("free", (payload,))


def test_zero_workers_rejected():
    with pytest.raises(ValueError):
        MacActor(lambda: Recorder([]), workers=0)


def test_single_worker_runs_in_send_order(cleanup):
    log = []
    actor = MacActor(lambda: Recorder(log), 1)
    cleanup(actor)
    futures = [actor.send("free", (i,)) for i in range(25)]
    actor.shutdown(drain=True)
    assert [f.get(timeout=1) for f in futures] == list(range(1, 26))
    assert [args[0] for (_, args, _, _, _) in log] == list(range(25))


def test_two_actors_are_isolated(cleanup):
    log_a, log_b = [], []
    a = MacActor(lambda: Recorder(log_a), 2)
    b = MacActor(lambda: Recorder(log_b), 2)
    cleanup(a)
    cleanup(b)
    for i in range(10):
        a.send("free", (i,))
    b.send("free", (99,))
    a.shutdown(drain=True)
    b.shutdown(drain=True)
    assert len(log_a) == 10 and len(log_b) == 1


def test_conflicting_sends_execute_disjoint_and_ordered(cleanup):
    log = []
    actor = MacActor(lambda: Recorder(log), 4)
    cleanup(actor)
    futures = [actor.send("locked", (7, i)) for i in range(3)]
    actor.shutdown(drain=True)
    for f in futures:
        f.get(timeout=1)
    mine = [(args[1], start, end) for (m, args, _, start, end) in log if m == "locked"]
    assert [payload for payload, _, _ in mine] == [0, 1, 2]  # send order
    for (_, _, end1), (_, start2, _) in zip(mine, mine[1:]):
        assert end1 <= start2  # pairwise disjoint intervals


def test_unrelated_message_overtakes_blocked_data(cleanup):
    log = []
    gate = threading.Event()
    actor = MacActor(lambda: Recorder(log, gate=gate), 2)
    cleanup(actor)
    stuck = actor.send("locked", (1, "hold"))
    blocked = actor.send("locked", (1, "wait"))
    free = actor.send("free", ("now",))
    assert free.get(timeout=5) is not None  # ran while the data was locked
    assert not blocked.done()
    gate.set()
    actor.shutdown(drain=True)
    assert stuck.get(timeout=1) and blocked.get(timeout=1)


def test_add_worker_unblocks_independent_message(cleanup):
    log = []
    gate = threading.Event()
    actor = MacActor(lambda: Recorder(log, gate=gate), 1)
    cleanup(actor)
    actor.send("locked", (1, "hold"))
    pending = actor.send("locked", (2, "independent"))
    time.sleep(0.05)
    assert not pending.done()  # no worker free, even though data is free
    actor.add_worker(Recorder(log, tag=1, gate=gate))
    deadline = time.time() + 5
    while not pending.done() and time.time() < deadline:
        gate.set()  # both blocked calls share the gate
        time.sleep(0.005)
    assert pending.done()
    actor.shutdown(drain=True)


def test_add_worker_while_idle_is_quiet(cleanup):
    actor = MacActor(lambda: Recorder([]), 1)
    cleanup(actor)
    actor.add_worker(Recorder([]))
    time.sleep(0.05)
    stats = actor.stats()
    assert stats["busy"] == 0 and stats["executed"] == 0


def _failing_start(name):
    """``threading.Thread.start`` that cannot start the thread ``name``."""
    real_start = threading.Thread.start

    def start(thread):
        if thread.name == name:
            raise RuntimeError("can't start new thread")
        return real_start(thread)

    return mock.patch.object(threading.Thread, "start", start)


def test_a_worker_whose_thread_fails_to_start_is_not_added(cleanup):
    """``add_worker`` raises the thread's error and adds nothing: a message
    sent later waits for the worker that exists, not for one that never
    ran, and shutdown needs no timeout.  The constructor raises the same
    error, having stopped the workers it did start."""
    log = []
    gate = threading.Event()
    actor = MacActor(lambda: Recorder(log, gate=gate), 1, name="spawn")
    cleanup(actor)
    hold = actor.send("locked", (1, "hold"))  # keeps the one worker busy
    with _failing_start("spawn-w1"):
        with pytest.raises(RuntimeError, match="can't start new thread"):
            actor.add_worker(Recorder(log, gate=gate))
    assert actor.stats()["workers"] == 1
    later = actor.send("free", ("later",))
    gate.set()
    assert hold.get(timeout=5) and later.get(timeout=5)
    assert actor.add_worker(Recorder(log)) == 1
    assert actor.shutdown(timeout=5).drained

    with _failing_start("broken-w1"):
        with pytest.raises(RuntimeError, match="can't start new thread"):
            MacActor(lambda: Recorder([]), 3, name="broken")
    deadline = time.time() + 5
    while [t for t in threading.enumerate() if t.name.startswith("broken-")]:
        assert time.time() < deadline, "a started worker was left running"
        time.sleep(0.002)


def test_n_independent_tasks_run_concurrently(cleanup):
    n = 4
    barrier = threading.Barrier(n + 1, timeout=10)

    class Meet:
        def meet(self):
            barrier.wait()
            return True

    actor = MacActor(Meet, workers=n)
    cleanup(actor)
    futures = [actor.send("meet") for _ in range(n)]
    barrier.wait()  # releases only once all n workers are inside
    actor.shutdown(drain=True)
    assert all(f.get(timeout=1) for f in futures)
    assert actor.stats()["max_concurrent"] == n


def test_first_idle_worker_takes_the_message(cleanup):
    log = []
    counter = iter(range(100))
    actor = MacActor(lambda: Recorder(log, tag=next(counter)), 2)
    cleanup(actor)
    actor.send("free", (0,)).get(timeout=5)
    assert log[0][2] == 0  # the first-created worker served it


def test_one_thread_per_worker_and_blocked_messages_start_in_send_order(cleanup):
    log = []
    gate = threading.Event()
    before = set(threading.enumerate())
    actor = MacActor(lambda: Recorder(log, gate=gate), 3, name="threads-probe")
    cleanup(actor)
    started = set(threading.enumerate()) - before
    assert sorted(t.name for t in started) == [f"threads-probe-w{i}" for i in range(3)]
    hold = actor.send("locked", (5, "hold"))
    blocked = [actor.send("locked", (5, i)) for i in range(6)]  # all conflict with it
    time.sleep(0.1)
    assert actor.stats()["busy"] == 1 and not any(f.done() for f in blocked)
    gate.set()
    actor.shutdown(drain=True)
    assert hold.get(timeout=1) and all(f.get(timeout=1) for f in blocked)
    order = [args[1] for (m, args, _, _, _) in log if m == "locked"]
    assert order == ["hold", *range(6)]
    assert all(not t.is_alive() for t in started)


def test_finishing_worker_runs_the_message_it_unblocks(cleanup):
    log = []
    gate = threading.Event()
    tags = iter(range(2))
    actor = MacActor(lambda: Recorder(log, tag=next(tags), gate=gate), 2)
    cleanup(actor)
    hold = actor.send("locked", (5, "hold"))
    blocked = [actor.send("locked", (5, i)) for i in range(6)]
    gate.set()
    actor.shutdown(drain=True)
    assert hold.get(timeout=1) and all(f.get(timeout=1) for f in blocked)
    served = [(args[1], tag) for (m, args, tag, _, _) in log if m == "locked"]
    assert served == [(p, 0) for p in ["hold", *range(6)]]


def test_ready_message_the_finisher_lacks_goes_to_an_idle_worker(cleanup):
    log = []
    gate = threading.Event()

    class Special:
        @synced("a", None)
        def special(self, key, payload):
            log.append(("special", (key, payload), "special", 0, 0))
            return payload

    actor = MacActor(lambda: Recorder(log, tag="recorder", gate=gate), 1)
    cleanup(actor)
    actor.add_worker(Special())
    hold = actor.send("locked", (5, "hold"))
    special = actor.send("special", (5, "x"))
    after = actor.send("locked", (5, "after"))
    assert actor.audit().ok
    gate.set()
    for fut in (hold, special, after):
        fut.get(timeout=5)
        assert actor.audit().ok
    actor.shutdown(drain=True)
    assert actor.audit().ok
    served = [(args[1], tag) for (_, args, tag, _, _) in log]
    assert served == [("hold", "recorder"), ("x", "special"), ("after", "recorder")]


def test_audit_holds_under_load(cleanup):
    accounts = list(range(8))
    actor = MacActor(lambda: Recorder([]), 4)
    cleanup(actor)
    stop = threading.Event()

    def pump():
        i = 0
        while not stop.is_set():
            actor.send("locked", (accounts[i % 8], i))
            i += 1
            if i > 4000:
                break

    feeder = threading.Thread(target=pump)
    feeder.start()
    try:
        for _ in range(300):
            snapshot = actor.audit()
            assert snapshot.ok, snapshot
    finally:
        stop.set()
        feeder.join()
    actor.shutdown(drain=True)
    assert actor.audit().ok


def test_unsupported_method_shadows_conflicting_messages(cleanup):
    """The only worker that supports ``ghost`` is busy, so a ghost on
    account 1 waits although its key is free.  The idle Recorders skip it
    for signature reasons alone, and it still holds back a later message
    on account 1, while a message on another account overtakes both."""
    log = []
    busy = threading.Event()

    class Ghost:
        def hold(self):
            busy.wait(10)
            return "held"

        @synced("a")
        def ghost(self, key):
            return "ghost ran"

    actor = MacActor(lambda: Recorder(log), 2)
    cleanup(actor)
    actor.add_worker(Ghost())
    hold = actor.send("hold")
    ghost = actor.send("ghost", (1,))
    real = actor.send("locked", (1, "after"))
    other = actor.send("locked", (2, "overtakes"))
    assert other.get(timeout=5) is not None
    time.sleep(0.1)
    assert not ghost.done() and not real.done()  # strict rule: the skipped ghost casts a shadow
    assert actor.audit().ok
    busy.set()
    assert hold.get(timeout=5) == "held"
    assert ghost.get(timeout=5) == "ghost ran"
    assert real.get(timeout=5) is not None
    actor.shutdown(drain=True)
    assert [args for (_, args, _, _, _) in log] == [(2, "overtakes"), (1, "after")]


def test_drain_fails_messages_no_worker_can_start(cleanup):
    """A message no worker supports has no sync entries, so it holds back
    nothing, and a draining shutdown fails it with the reason."""
    log = []
    actor = MacActor(lambda: Recorder(log), 2)
    cleanup(actor)
    ghost = actor.send("ghost", (1,))
    after = actor.send("locked", (1, "after"))
    free = actor.send("free", ("runs",))
    closer = threading.Thread(target=actor.shutdown, daemon=True)
    closer.start()
    closer.join(timeout=2)
    assert not closer.is_alive(), "shutdown(drain=True) hung on an unstartable message"
    assert free.get(timeout=1) is not None and after.get(timeout=1) is not None
    with pytest.raises(FutureFailed, match="no worker supports 'ghost'"):
        ghost.get(timeout=1)
    report = actor.shutdown()
    assert report.executed == 2 and report.cancelled == 1


def test_system_exit_in_user_code_fails_future_and_keeps_worker(cleanup):
    class Quitter:
        @synced("a")
        def quit(self, key):
            raise SystemExit("bye")

        @synced("a")
        def poke(self, key):
            return key

    actor = MacActor(Quitter, workers=1)
    cleanup(actor)
    gone = actor.send("quit", (3,))
    after = actor.send("poke", (3,))  # same entry, same and only worker
    assert after.get(timeout=2) == 3
    with pytest.raises(FutureFailed, match="SystemExit: bye") as err:
        gone.get(timeout=1)
    assert isinstance(err.value.__cause__, SystemExit)
    closer = threading.Thread(target=actor.shutdown, daemon=True)
    closer.start()
    closer.join(timeout=2)
    assert not closer.is_alive(), "shutdown(drain=True) hung after a SystemExit"
    assert actor.shutdown().failed == 1


def test_drain_shutdown_counts_everything(cleanup):
    log = []
    actor = MacActor(lambda: Recorder(log), 4)
    cleanup(actor)
    futures = [actor.send("free", (i,)) for i in range(1000)]
    report = actor.shutdown(drain=True)
    assert report.executed == 1000 and report.cancelled == 0 and report.drained
    assert all(f.done() for f in futures)


def test_immediate_shutdown_fails_pending(cleanup):
    log = []
    gate = threading.Event()
    actor = MacActor(lambda: Recorder(log, gate=gate), 1)
    cleanup(actor)
    actor.send("locked", (1, "run"))
    deadline = time.time() + 5
    while actor.stats()["busy"] == 0 and time.time() < deadline:
        time.sleep(0.002)  # wait for the first message to start
    pending = [actor.send("locked", (1, i)) for i in range(5)]
    gate.set()
    report = actor.shutdown(drain=False)
    assert report.cancelled == 5
    for f in pending:
        with pytest.raises(FutureFailed, match="shut down"):
            f.get(timeout=1)


def test_double_shutdown_returns_same_report(cleanup):
    actor = MacActor(lambda: Recorder([]), 1)
    cleanup(actor)
    first = actor.shutdown(drain=True)
    second = actor.shutdown(drain=False)
    assert first is second


def _shutdown_under_way(drain):
    """An actor whose one worker is held in the first of three messages on
    one key, and a thread inside ``shutdown(drain=drain)`` waiting for it;
    the gate lets the worker go."""
    gate = threading.Event()
    actor = MacActor(lambda: Recorder([], gate=gate), 1)
    futures = [actor.send("locked", (1, i)) for i in range(3)]
    reports = []
    first = threading.Thread(target=lambda: reports.append(actor.shutdown(drain=drain)))
    first.start()
    deadline = time.time() + 5
    while not actor._draining and time.time() < deadline:
        time.sleep(0.002)
    return actor, gate, futures, reports, first


@pytest.mark.parametrize("drain", [True, False])
def test_concurrent_shutdowns_return_one_report(drain):
    actor, gate, futures, reports, first = _shutdown_under_way(drain)
    second = threading.Thread(target=lambda: reports.append(actor.shutdown(drain=drain)))
    second.start()
    time.sleep(0.1)  # the second call finds the first under way
    gate.set()
    first.join(timeout=10)
    second.join(timeout=10)
    assert len(reports) == 2 and reports[0] is reports[1]
    assert actor.shutdown() is reports[0]
    assert reports[0].cancelled == (0 if drain else 2)
    assert all(f.done() for f in futures)


def test_a_shutdown_waiting_for_another_keeps_its_timeout():
    actor, gate, _, reports, first = _shutdown_under_way(True)
    try:
        with pytest.raises(TimeoutError, match="under way"):
            actor.shutdown(drain=False, timeout=0.05)
    finally:
        gate.set()
        first.join(timeout=10)
    assert actor.shutdown() is reports[0] and reports[0].drained


def test_a_shutdown_after_an_interrupted_one_stops_the_actor():
    actor = MacActor(lambda: Recorder([]), 1)
    fut = actor.send("free", (1,))
    with mock.patch.object(MacActor, "_close", side_effect=KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            actor.shutdown()
    report = actor.shutdown(timeout=5)
    assert report.drained and report.executed == 1 and fut.get(timeout=1) == 1


def test_send_after_shutdown_rejected(cleanup):
    actor = MacActor(lambda: Recorder([]), 1)
    cleanup(actor)
    actor.shutdown(drain=True)
    fut = actor.send("free", (1,))
    with pytest.raises(FutureFailed, match="rejected"):
        fut.get(timeout=1)
    with pytest.raises(RuntimeError):
        actor.add_worker(Recorder([]))


def test_get_times_out_on_stuck_user_code(cleanup):
    log = []
    gate = threading.Event()  # never set until teardown
    actor = MacActor(lambda: Recorder(log, gate=gate), 1)
    cleanup(actor)
    stuck = actor.send("locked", (1, "never"))
    with pytest.raises(TimeoutError):
        stuck.get(timeout=0.1)
    # a second reader blocks on the latch the first one left behind
    timer = threading.Timer(0.05, gate.set)
    timer.start()
    assert stuck.get(timeout=5) == 1
    timer.join(timeout=5)
    actor.shutdown(drain=True)


def _reentrant(workers: int, locked: bool) -> MacActor:
    """An actor whose ``outer`` sends ``inner`` to the actor itself and
    waits 0.3 s for it on its worker thread; with ``locked`` both methods
    lock one key."""
    mark = synced("k") if locked else (lambda fn: fn)

    class Reentrant:
        @mark
        def outer(self, key):
            return actor.send("inner", (key,)).get(timeout=0.3)

        @mark
        def inner(self, key):
            return 1

    actor = MacActor(Reentrant, workers=workers)
    return actor


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: a get that no worker of the actor can answer waits out its timeout",
)
@pytest.mark.parametrize(
    "workers, locked",
    [
        pytest.param(1, True, id="one-synced-worker"),
        pytest.param(2, True, id="two-synced-workers"),
        pytest.param(1, False, id="one-unsynced-worker"),
    ],
)
def test_a_get_on_its_own_actor_that_can_never_be_answered_fails_at_once(
    cleanup, workers, locked
):
    actor = _reentrant(workers, locked)
    cleanup(actor)
    start = time.monotonic()
    outer = actor.send("outer", (1,))
    with pytest.raises(FutureFailed) as failed:
        outer.get(timeout=5)
    assert time.monotonic() - start < 0.1
    assert failed.value.diagnostic != "TimeoutError: future not resolved within 0.3s"


def test_a_get_on_its_own_actor_returns_when_another_worker_is_free(cleanup):
    actor = _reentrant(2, False)
    cleanup(actor)
    assert actor.send("outer", (1,)).get(timeout=5) == 1


class _Payload:
    """An argument a weakref can follow."""


class _Keeper:
    def __init__(self, gate):
        self._gate = gate

    def hold(self):
        self._gate.wait(timeout=10)

    @synced("k", None)
    def keep(self, key, payload):
        return "kept"

    def spill(self, payload):
        raise RuntimeError("spilled")


def test_a_settled_future_keeps_neither_its_arguments_nor_its_sync_set(cleanup):
    actor = MacActor(lambda: _Keeper(None), workers=1)
    cleanup(actor)
    key, payload = _Payload(), _Payload()  # one in the sync set, one only in the arguments
    refs = weakref.ref(key), weakref.ref(payload)
    fut = actor.send("keep", (key, payload))
    del key, payload
    assert fut.get(timeout=5) == "kept"
    actor.stats()  # takes the actor lock, so the completion has left its critical section
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert fut.done()


def test_an_idle_worker_keeps_nothing_of_its_last_failed_message(cleanup):
    """The exception's traceback holds the behavior's frame and with it the
    arguments; once the caller drops the future, the worker that ran the
    message must not keep them alive while it waits for the next one."""
    actor = MacActor(lambda: _Keeper(None), workers=1)
    cleanup(actor)
    payload = _Payload()
    ref = weakref.ref(payload)
    fut = actor.send("spill", (payload,))
    del payload
    try:
        fut.get(timeout=5)
    except FutureFailed as exc:
        assert exc.diagnostic == "RuntimeError: spilled"
    else:
        pytest.fail("the raising method resolved its future")
    del fut
    # the worker lets go of the message after releasing the future's readers
    deadline = time.time() + 2
    gc.collect()
    while ref() is not None and time.time() < deadline:
        time.sleep(0.002)
        gc.collect()
    assert ref() is None
    assert actor.stats()["busy"] == 0


class _Unprintable(Exception):
    def __str__(self):
        raise RuntimeError("no text for this exception")


class _Raiser:
    def boom(self):
        raise _Unprintable()

    def ok(self):
        return 1


def test_an_exception_whose_str_raises_fails_only_its_own_message():
    """The worker formats a failed message's diagnostic itself; when the
    exception cannot say what it is, its type name stands in, and the
    worker goes on to its next message instead of dying with the first
    one's entries held."""
    actor = MacActor(_Raiser, workers=1)
    f = actor.send("boom")
    g = actor.send("ok")
    try:
        with pytest.raises(FutureFailed) as failed:
            f.get(timeout=5)
        assert failed.value.diagnostic == "_Unprintable"
        assert g.get(timeout=5) == 1
    finally:
        report = actor.shutdown(timeout=5)
    assert report.drained and report.executed == 2 and report.failed == 1


def test_a_future_cancelled_by_shutdown_keeps_neither_its_arguments_nor_its_sync_set():
    gate = threading.Event()
    actor = MacActor(lambda: _Keeper(gate), workers=1)
    held = actor.send("hold")
    deadline = time.time() + 5
    while actor.stats()["busy"] == 0 and time.time() < deadline:
        time.sleep(0.002)  # wait for the one worker to start holding
    key, payload = _Payload(), _Payload()
    refs = weakref.ref(key), weakref.ref(payload)
    fut = actor.send("keep", (key, payload))
    del key, payload
    try:
        report = actor.shutdown(drain=False, timeout=0.05)
    finally:
        gate.set()
    assert report.cancelled == 1
    with pytest.raises(FutureFailed, match="actor shut down"):
        fut.get(timeout=0)
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert held.done()


def test_user_exception_fails_future_and_releases_locks(cleanup):
    class Flaky:
        @synced("a", None)
        def poke(self, key, n):
            if n == 0:
                raise RuntimeError("kaput")
            return n

    actor = MacActor(Flaky, workers=2)
    cleanup(actor)
    bad = actor.send("poke", (9, 0))
    good = actor.send("poke", (9, 5))  # same lock as the failing message
    assert good.get(timeout=5) == 5  # lock was released despite the error
    with pytest.raises(FutureFailed, match="kaput"):
        bad.get(timeout=1)
    report = actor.shutdown(drain=True)
    assert report.failed == 1


def test_sync_derivation_from_annotations(cleanup):
    class Annotated:
        @synced("a", "a", None)
        def move(self, src, dst, amount):
            return (src, dst, amount)

    log = EventLog()
    actor = MacActor(Annotated, workers=1, event_log=log)
    cleanup(actor)
    actor.send("move", (1, 2, 10)).get(timeout=5)
    actor.shutdown(drain=True)
    enq = next(e for e in log.events() if e["event"] == "enqueue")
    assert enq["sync"] == [["a", 1], ["a", 2]]


def test_send_with_wrong_arity_raises_and_queues_nothing(cleanup):
    class Pair:
        @synced("a", None)
        def put(self, key, value):
            return value

    actor = MacActor(Pair, workers=1)
    cleanup(actor)
    with pytest.raises(ValueError, match="arity mismatch"):
        actor.send("put", (1,))
    assert actor.stats()["pending"] == 0
    assert actor.send("put", (1, 7)).get(timeout=5) == 7


class _Enqueued(EventLog):
    """Keeps the sync set of every message ``send`` queues, as queued."""

    def __init__(self):
        super().__init__()
        self.sync = []

    def record(self, event, method, priority, sync, *rest):
        if event == "enqueue":
            self.sync.append(sync)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(["a", "b", None]), max_size=4),
    st.lists(st.integers(0, 2), max_size=5),
)
def test_send_queues_the_sync_set_of_its_labels(labels, args):
    """Whatever the labels (repeated, all None, none at all) and arguments
    (equal or not, of the wrong number), ``send`` queues exactly the entries
    ``planned_sync_set`` builds from the ``sync_plan`` of the method's
    ``@synced`` labels, or raises its ValueError and queues nothing."""

    class Labelled:
        @synced(*labels)
        def call(self, *args):
            return args

    log = _Enqueued()
    actor = MacActor(Labelled, workers=1, event_log=log)
    try:
        try:
            want = planned_sync_set(sync_plan(labels), args)
        except ValueError:
            with pytest.raises(ValueError, match="arity mismatch"):
                actor.send("call", args)
            assert log.sync == []
        else:
            assert actor.send("call", args).get(timeout=5) == tuple(args)
            assert log.sync == [want] and all(type(e) is SyncEntry for e in log.sync[0])
    finally:
        actor.shutdown(drain=False)


def test_event_log_reads_back_in_the_logged_format(cleanup, tmp_path):
    """The log keeps tuples; reading it gives, per event, the dict with the
    keys in this order, sync entries sorted and values that are not JSON
    scalars as their repr, and write_jsonl writes those dicts."""

    class Teller:
        @synced("a", "a", None)
        def move(self, src, dst, amount):
            return amount

        @synced("k")
        def boom(self, key):
            raise ValueError(key)

    log = EventLog()
    actor = MacActor(Teller, workers=1, event_log=log)
    cleanup(actor)
    assert actor.send("move", (2, 1, 5)).get(timeout=5) == 5
    with pytest.raises(FutureFailed):
        actor.send("boom", (("t", 3),)).get(timeout=5)
    actor.shutdown(drain=True)

    events = log.events()
    move = {"method": "move", "priority": 0}
    boom = {"method": "boom", "priority": 1}
    move_sync, boom_sync = [["a", 1], ["a", 2]], [["k", "('t', 3)"]]
    expected = [
        {"event": "enqueue", "t": events[0]["t"], **move, "sync": move_sync},
        {"event": "dispatch", "t": events[1]["t"], **move, "worker": 0, "sync": move_sync},
        {"event": "complete", "t": events[2]["t"], **move, "worker": 0, "sync": move_sync,
         "failed": False},
        {"event": "enqueue", "t": events[3]["t"], **boom, "sync": boom_sync},
        {"event": "dispatch", "t": events[4]["t"], **boom, "worker": 0, "sync": boom_sync},
        {"event": "complete", "t": events[5]["t"], **boom, "worker": 0, "sync": boom_sync,
         "failed": True},
    ]
    assert [list(e.items()) for e in events] == [list(e.items()) for e in expected]
    assert all(isinstance(e["t"], int) for e in events)
    assert [e["t"] for e in events] == sorted(e["t"] for e in events)
    path = tmp_path / "events.jsonl"
    log.write_jsonl(path)
    assert path.read_text().splitlines() == [json.dumps(e) for e in expected]


def test_event_log_reads_back_values_of_one_label_that_do_not_compare(cleanup, tmp_path):
    """One label may lock an int and a str at once; their order in the log
    is numbers first, and reading or writing the log does not raise."""

    class Pair:
        @synced("a", "a")
        def link(self, key, name):
            return key

    log = EventLog()
    actor = MacActor(Pair, workers=1, event_log=log)
    cleanup(actor)
    assert actor.send("link", (1, "x")).get(timeout=5) == 1
    actor.shutdown(drain=True)

    path = tmp_path / "events.jsonl"
    log.write_jsonl(path)
    events = read_jsonl(path)
    assert events == log.events()
    assert [e["event"] for e in events] == ["enqueue", "dispatch", "complete"]
    assert all(e["sync"] == [["a", 1], ["a", "x"]] for e in events)


def test_per_key_results_follow_send_order(cleanup):
    class Adder:
        data = None

        def __init__(self, shared):
            self.shared = shared

        @synced("k", None)
        def bump(self, key, by):
            value = self.shared.get(key, 0) + by
            self.shared[key] = value
            return value

    shared = {}
    actor = MacActor(lambda: Adder(shared), workers=3)
    cleanup(actor)
    futures = [actor.send("bump", (i % 5, 1)) for i in range(500)]
    actor.shutdown(drain=True)
    assert shared == {k: 100 for k in range(5)}
    # per-key results are the running counts, in send order
    per_key = {}
    for i, f in enumerate(futures):
        per_key.setdefault(i % 5, []).append(f.get(timeout=1))
    for key, values in per_key.items():
        assert values == list(range(1, 101))


def test_inline_dispatch_from_many_threads_loses_no_update(cleanup):
    """Senders and completing workers all dispatch; with a short switch
    interval and more workers than CPUs, per-key counts still come out
    exact and each key's results are one running count in send order."""

    class Adder:
        def __init__(self, shared):
            self.shared = shared

        @synced("k", None)
        def bump(self, key, by):
            value = self.shared.get(key, 0) + by
            self.shared[key] = value
            return value

    shared = {}
    actor = MacActor(lambda: Adder(shared), workers=8)
    cleanup(actor)
    results = [[] for _ in range(3)]

    def sender(out):
        out.extend((i % 4, actor.send("bump", (i % 4, 1))) for i in range(600))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        senders = [threading.Thread(target=sender, args=(out,)) for out in results]
        for t in senders:
            t.start()
        for t in senders:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in senders)
        actor.shutdown(drain=True)
    finally:
        sys.setswitchinterval(interval)
    assert shared == {k: 450 for k in range(4)}
    per_key = {}
    for out in results:
        mine = {}
        for key, f in out:
            mine.setdefault(key, []).append(f.get(timeout=1))
        for key, values in mine.items():
            assert values == sorted(values)  # one sender's messages keep send order
            per_key.setdefault(key, []).extend(values)
    assert all(sorted(values) == list(range(1, 451)) for values in per_key.values())
    assert actor.audit().ok


# ---- shutdown with a timeout or from a worker, mismatched labels

@pytest.mark.parametrize("drain", [True, False])
def test_shutdown_timeout_gives_up_on_stuck_user_code(drain):
    release = threading.Event()

    class Stuck:
        @synced("k")
        def hang(self, key):
            release.wait(30)
            return key

    actor = MacActor(Stuck, workers=1)
    try:
        running = actor.send("hang", (1,))
        queued = actor.send("hang", (1,))
        deadline = time.time() + 5
        while actor.stats()["busy"] == 0 and time.time() < deadline:
            time.sleep(0.002)  # wait for the first message to start
        reports = []
        closer = threading.Thread(
            target=lambda: reports.append(actor.shutdown(drain, timeout=0.2)), daemon=True
        )
        closer.start()
        closer.join(timeout=5)
        assert not closer.is_alive(), f"shutdown(drain={drain}, timeout=0.2) hung"
        (report,) = reports
        assert not report.drained and report.running == (("hang", 0),)
        assert report.executed == 0 and report.cancelled == 1
        with pytest.raises(FutureFailed, match=r"gave up after 0.2s with 'hang' \(priority 0\)"):
            running.get(timeout=0)
        with pytest.raises(FutureFailed, match="gave up" if drain else "actor shut down"):
            queued.get(timeout=0)
        assert actor.shutdown() is report
    finally:
        release.set()
    # the given-up message still completes, and its worker still frees it
    deadline = time.time() + 5
    while actor.stats()["executed"] == 0 and time.time() < deadline:
        time.sleep(0.002)
    stats = actor.stats()
    assert stats["executed"] == 1 and stats["busy"] == 0
    # and leaves the outcome shutdown gave its future
    with pytest.raises(FutureFailed, match="gave up"):
        running.get(timeout=0)


@pytest.mark.parametrize("drain", [True, False])
def test_shutdown_from_own_worker_raises(drain):
    holder = {}

    class Stopper:
        def stop(self):
            holder["actor"].shutdown(drain=drain)

    actor = MacActor(Stopper, workers=1)
    holder["actor"] = actor
    with pytest.raises(FutureFailed, match="own worker threads"):
        actor.send("stop").get(timeout=2)
    report = actor.shutdown(drain=True)
    assert report.executed == 1 and report.failed == 1


def test_worker_with_different_sync_labels_rejected(cleanup):
    class ByKey:
        @synced("k", None)
        def bump(self, key, by):
            return by

    class Unlabelled:
        def bump(self, key, by):
            return by

    class Other:
        def audit(self):
            return "ok"

    actor = MacActor(ByKey, workers=1)
    cleanup(actor)
    with pytest.raises(ValueError, match="'bump'"):
        actor.add_worker(Unlabelled())
    assert actor.add_worker(Other()) == 1  # shares no method, so it may join
    assert actor.stats()["workers"] == 2
    assert actor.send("bump", (1, 5)).get(timeout=5) == 5

    kinds = iter([ByKey, Unlabelled])
    with pytest.raises(ValueError, match="'bump'"):
        MacActor(lambda: next(kinds)(), workers=2, name="mixed")
    assert not [t for t in threading.enumerate() if t.name.startswith("mixed-")]


def test_a_send_before_any_worker_has_the_method_fixes_it_unlabelled(cleanup):
    """A message sent while no worker supports its method is queued with an
    empty sync set, so a worker that joins later and labels the method
    would let it overlap a later message on the same data: the join is
    refused instead.  A worker that leaves the method unlabelled may join
    and runs it."""

    class Other:
        def audit(self):
            return "ok"

    class ByAccount:
        @synced("a", None)
        def m(self, account, n):
            return n

    class Unlabelled:
        def m(self, account, n):
            return n

    actor = MacActor(Other, workers=1)
    cleanup(actor)
    first = actor.send("m", (5, 1))
    with pytest.raises(ValueError, match="'m'"):
        actor.add_worker(ByAccount())
    assert actor.stats()["workers"] == 1
    second = actor.send("m", (5, 2))
    actor.add_worker(Unlabelled())
    assert (first.get(timeout=5), second.get(timeout=5)) == (1, 2)


def test_shutdown_timeout_is_checked_before_the_actor_changes(cleanup):
    """A NaN timeout is refused with the actor left running, and an
    infinite one waits like None."""
    release = threading.Event()

    class Slow:
        @synced("k")
        def work(self, key):
            release.wait(5)
            return key

    actor = MacActor(Slow, workers=1)
    cleanup(actor)
    running = actor.send("work", (1,))
    deadline = time.time() + 5
    while actor.stats()["busy"] == 0 and time.time() < deadline:
        time.sleep(0.002)  # shutdown only waits while a message runs
    with pytest.raises(ValueError, match="timeout"):
        actor.shutdown(timeout=math.nan)
    queued = actor.send("work", (2,))  # still accepted
    timer = threading.Timer(0.05, release.set)
    timer.start()
    report = actor.shutdown(timeout=math.inf)
    timer.join(timeout=5)
    assert report.drained and report.executed == 2 and report.cancelled == 0
    assert running.get(timeout=0) == 1 and queued.get(timeout=0) == 2
    assert actor.shutdown(timeout=math.nan) is report


def test_spawning_a_worker_runs_no_property_of_the_behavior(cleanup):
    class Counted:
        reads = 0

        @property
        def total(self):
            type(self).reads += 1
            return len

        @synced("k")
        def work(self, key):
            return key

        @staticmethod
        def double(x):
            return 2 * x

        @classmethod
        def name(cls):
            return cls.__name__

    actor = MacActor(Counted, workers=3)
    cleanup(actor)
    actor.add_worker(Counted())
    assert actor.send("work", (4,)).get(timeout=5) == 4
    assert actor.send("double", (4,)).get(timeout=5) == 8
    assert actor.send("name").get(timeout=5) == "Counted"
    assert Counted.reads == 0
    report = actor.shutdown(drain=True)
    assert report.cancelled == 0


# ---- the future protocol: the actor lock is the claim, the latch is lazy

class _CountingLock:
    """A lock that counts its acquisitions per thread name."""

    def __init__(self, lock):
        self._lock = lock
        self.taken = Counter()

    def acquire(self, blocking=True, timeout=-1):
        self.taken[threading.current_thread().name] += 1
        return self._lock.acquire(blocking, timeout)

    def release(self):
        self._lock.release()

    __enter__ = acquire

    def __exit__(self, *exc):
        self._lock.release()


def test_a_completion_takes_the_actor_lock_once_and_no_other(cleanup):
    """Per completed message a worker acquires the actor lock exactly once,
    and that lock is every future's claim; no future nobody blocked on
    gets a latch.  (No event log is attached, so its lock is not in
    play.)"""
    actor = MacActor(lambda: Recorder([]), workers=2, name="counted")
    cleanup(actor)
    lock = actor._lock = _CountingLock(actor._lock)
    futures = [actor.send("locked", (i % 3, i)) for i in range(60)]
    futures += [actor.send("free", (i,)) for i in range(60)]
    report = actor.shutdown(drain=True)
    assert report.executed == 120
    on_workers = {n: c for n, c in lock.taken.items() if n.startswith("counted-w")}
    assert sum(on_workers.values()) == 120, on_workers
    assert all(f._claim is lock for f in futures)  # the actor lock is their claim
    assert all(f._latch is None for f in futures)
    for f in futures:
        f.get(timeout=0)
    assert all(f._latch is None for f in futures)  # reading a settled future builds none


def test_readers_of_a_settled_future_never_build_a_latch(cleanup):
    actor = MacActor(lambda: Recorder([]), workers=1)
    cleanup(actor)
    fut = actor.send("free", (1,))
    deadline = time.time() + 5
    while not fut.done() and time.time() < deadline:
        time.sleep(0.002)
    assert fut.get() == 1 and fut._latch is None


def test_many_readers_blocked_on_one_actor_future_all_see_the_value(cleanup):
    gate = threading.Event()
    actor = MacActor(lambda: Recorder([], gate=gate), workers=1)
    cleanup(actor)
    fut = actor.send("locked", (1, "x"))
    seen = []
    readers = [
        threading.Thread(target=lambda: seen.append(fut.get(timeout=10))) for _ in range(6)
    ]
    for t in readers:
        t.start()
    deadline = time.time() + 5
    while fut._latch is None and time.time() < deadline:
        time.sleep(0.002)  # the first reader to block installs the latch
    assert fut._latch is not None and not fut.done()
    time.sleep(0.05)  # let the other readers block on it too
    gate.set()
    for t in readers:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in readers)
    assert seen == [1] * 6


def test_audit_holds_after_each_event_on_a_hot_key_with_an_idle_worker(cleanup):
    """Every message locks one key and a second worker stays idle: each
    send and completion leaves nothing startable undispatched, and a free
    message sent meanwhile starts on the idle worker at once."""
    gates = [threading.Event() for _ in range(6)]

    class Hot:
        @synced("k", None)
        def hot(self, key, i):
            gates[i].wait(10)
            return i

        def free(self, x):
            return x

    actor = MacActor(Hot, workers=2)
    cleanup(actor)
    futures = []
    for i in range(len(gates)):
        futures.append(actor.send("hot", (0, i)))
        audit = actor.audit()
        assert audit.ok and len(audit.running) == 1, audit
    assert actor.send("free", ("now",)).get(timeout=5) == "now"
    for i, fut in enumerate(futures):
        gates[i].set()
        assert fut.get(timeout=5) == i
        audit = actor.audit()
        assert audit.ok, audit
        assert len(audit.running) == (1 if i + 1 < len(gates) else 0)
    assert actor.shutdown(drain=True).executed == len(gates) + 1


def test_a_backlog_no_idle_worker_supports_is_not_scanned(cleanup):
    """Worker B is busy and every queued message is one only B supports,
    while worker A stays idle.  Neither the send of A's message, A's own
    completion nor the completions of B's backlog look through that
    backlog: A's supported set is asked at most once per signature with a
    ready message in each of A's two takes."""
    gate = threading.Event()

    class OnlyA:
        def a(self):
            return "a"

    class OnlyB:
        def b(self, i):
            gate.wait(10)
            return i

    actor = MacActor(OnlyB, workers=1)
    cleanup(actor)
    actor.add_worker(OnlyA())
    futures = [actor.send("b", (i,)) for i in range(200)]
    assert actor.audit().ok and actor.stats()["pending"] == 199
    idle = actor._workers[1]  # A, idle since it was added
    idle.supported = supported = CountingSet(idle.supported)
    assert actor.send("a").get(timeout=5) == "a"
    gate.set()
    assert [fut.get(timeout=10) for fut in futures] == list(range(200))
    assert actor.audit().ok
    assert supported.tests <= 4  # two takes, each of at most "a" and "b"


# ---- stateful: the guarantees after every send, completion, failure and
# new worker, then at shutdown

class _Sent:
    __slots__ = ("mid", "keys", "future", "release", "outcome", "ran")

    def __init__(self, mid, keys):
        self.mid = mid  # also its priority: every send is accepted until shutdown
        self.keys = keys
        self.future = None
        self.release = threading.Event()  # the test decides when it completes
        self.outcome = "return"  # or "raise", "exit"
        self.ran = False


class _Probe:
    def __init__(self, machine):
        self._machine = machine


def _runs(keys):
    """A probe method that locks ``keys`` values under the label "k"."""

    @synced(None, *["k"] * keys)
    def run(self, mid, *values):
        return self._machine.run(mid)

    return run


class _WorkOnly(_Probe):
    work0, work1, work2 = map(_runs, range(3))


class _SideOnly(_Probe):
    side0, side1, side2 = map(_runs, range(3))


class _Both(_WorkOnly, _SideOnly):
    pass


class _SlowHandoff(queue.SimpleQueue):
    """A worker inbox whose ``put`` lets go of the GIL for a while after it
    hands the message over, as the dispatcher still holds the actor lock.
    The receiving worker may then start the message before that critical
    section ends, so a completion that releases a message's entries before
    it settles the message's future is seen by the successor's check."""

    def put(self, item, block=True, timeout=None):
        super().put(item)
        time.sleep(0.0005)


def _slow_handoffs():
    """Workers made in this context get a :class:`_SlowHandoff` inbox."""
    return mock.patch.object(queue, "SimpleQueue", _SlowHandoff)


class RuntimeMachine(RuleBasedStateMachine):
    """Every message waits on its own event, so the test decides when each
    one completes and how; after each step the runtime is left to settle
    and the guarantees are checked.  ``drain`` is drawn first and used by
    the shutdown that ends every run.

    The actor starts with one worker of the work methods and one of the
    side methods, so a side message that finds the side worker busy is
    skipped for signature reasons alone, and still holds back later
    messages on its keys.  No worker ever has ``ghost``: it locks nothing
    and never starts."""

    def __init__(self):
        super().__init__()
        self.lock = threading.Lock()  # guards the fields the workers write
        self.msgs: list[_Sent] = []
        self.starts: list[int] = []
        self.inside: set[int] = set()  # started, waiting for their release
        self.returned = 0
        self.released = 0
        self.errors: list[str] = []
        self.workers = 2
        self.drain = False
        kinds = iter([_WorkOnly, _SideOnly])
        with _slow_handoffs():
            self.actor = MacActor(lambda: next(kinds)(self), workers=2, name="stateful")
        self.interval = sys.getswitchinterval()  # restored by teardown
        sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible

    def run(self, mid):
        sent = self.msgs[mid]
        with self.lock:
            for earlier in self.msgs[:mid]:
                if earlier.keys & sent.keys and not earlier.future.done():
                    self.errors.append(f"{mid} started before the future of {earlier.mid}")
            self.starts.append(mid)
            self.inside.add(mid)
        sent.release.wait(10)
        with self.lock:
            self.inside.discard(mid)
            self.returned += 1
            sent.ran = True
        if sent.outcome == "raise":
            raise ValueError(f"boom {mid}")
        if sent.outcome == "exit":
            raise SystemExit(f"exit {mid}")
        return mid

    def settle(self):
        """Wait until every released message has returned and been freed
        and every busy worker is inside a message."""
        deadline = time.monotonic() + 5
        while True:
            with self.lock:
                stats = self.actor.stats()
                if (
                    self.returned == self.released == stats["executed"]
                    and stats["busy"] == len(self.inside)
                ):
                    return
            assert time.monotonic() < deadline, "the runtime did not settle"
            time.sleep(0.001)

    @initialize(drain=st.booleans())
    def choose_shutdown(self, drain):
        self.drain = drain

    @rule(
        method=st.sampled_from(["work", "side", "ghost"]),
        keys=st.sets(st.sampled_from(range(3)), max_size=2),
    )
    def send(self, method, keys):
        values = tuple(sorted(keys))
        if method == "ghost":
            values = ()
        else:
            method = f"{method}{len(values)}"  # the probe method that locks them
        sent = _Sent(len(self.msgs), frozenset(SyncEntry("k", v) for v in values))
        with self.lock:
            self.msgs.append(sent)
        sent.future = self.actor.send(method, (sent.mid, *values))
        assert sent.future.sync == sent.keys  # it cannot complete before its release
        self.settle()

    @precondition(lambda self: self.inside)
    @rule(data=st.data(), outcome=st.sampled_from(["return", "raise", "exit"]))
    def complete(self, data, outcome):
        sent = self.msgs[data.draw(st.sampled_from(sorted(self.inside)))]
        sent.outcome = outcome
        self.released += 1
        sent.release.set()
        self.settle()

    @precondition(lambda self: self.workers < 4)
    @rule(kind=st.sampled_from([_WorkOnly, _SideOnly, _Both]))
    def add_worker(self, kind):
        with _slow_handoffs():
            self.actor.add_worker(kind(self))
        self.workers += 1
        self.settle()

    @invariant()
    def guarantees_hold(self):
        assert self.actor.audit().ok
        assert not self.errors, self.errors
        position = {mid: i for i, mid in enumerate(self.starts)}
        for first, later in combinations(self.msgs, 2):
            if first.keys & later.keys and later.mid in position:
                assert position.get(first.mid, len(position)) < position[later.mid]
        for sent in self.msgs:
            if not sent.ran:
                continue
            if sent.outcome != "return":
                kind = {"raise": "ValueError", "exit": "SystemExit"}
                with pytest.raises(FutureFailed, match=kind[sent.outcome]):
                    sent.future.get(timeout=0)
            else:
                assert sent.future.get(timeout=0) == sent.mid

    def teardown(self):
        try:
            for sent in self.msgs:
                sent.release.set()
            closer = threading.Thread(target=self.actor.shutdown, args=(self.drain,), daemon=True)
            closer.start()
            closer.join(timeout=5)
            assert not closer.is_alive(), f"shutdown(drain={self.drain}) hung"
        finally:
            sys.setswitchinterval(self.interval)
        self.released = len(self.starts)  # the workers have stopped
        self.settle()
        self.guarantees_hold()
        report = self.actor.shutdown()
        assert report.executed == len(self.starts)
        assert report.executed + report.cancelled == len(self.msgs)
        cancelled = "no worker supports 'ghost'" if self.drain else "actor shut down"
        for sent in self.msgs:
            if not sent.ran:
                with pytest.raises(FutureFailed, match=cancelled):
                    sent.future.get(timeout=0)
        with pytest.raises(FutureFailed, match="rejected"):
            self.actor.send("work0", (-1,)).get(timeout=0)


RuntimeMachine.TestCase.settings = settings(
    max_examples=100,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestRuntimeMachine = RuntimeMachine.TestCase
