"""Thread-backed actor groups sharing one synchronized message queue.

A :class:`MacActor` owns a pool of workers (each wrapping one user-supplied
behavior object and one thread) and a queue of pending messages.  ``send``
enqueues a message together with its (label, value) sync entries and returns
a write-once :class:`Future` immediately.  The two are one object: a
``Future`` also holds the method, its arguments, its sync set and its
priority, so the lock table queues, a worker runs and the caller reads the
same object.  Once the message's entries are released (or shutdown cancels
it) its arguments and sync set are dropped: a settled future keeps only its
outcome, method and priority, though the exception a failed one keeps has a
traceback whose frames may still hold arguments.
The entries come from the method's sync plan
(:func:`mactor.scheduler.sync_plan`), made once when the first worker of a
behavior class joins and read under the actor lock.  A method's labels are
fixed by whichever comes first: its first worker, or its first send, which
fixes it unlabelled; a worker that labels it otherwise is refused.  So
every sync entry comes from the labels of a worker, and as workers never
leave, a message no worker supports has none.  The queue is a
:class:`mactor.scheduler.LockTable`, which answers the selection rule of
:func:`mactor.scheduler.select`: a message starts only when its sync entries
are disjoint from everything currently executing and from every earlier
pending message that overlaps it, and only when an idle worker supports it.
A worker that finishes a message first takes the earliest ready message it
supports and runs it itself; other ready messages go to idle workers in FIFO
order of their idleness.

Locking discipline: one mutex, the actor lock, guards the lock table, the
worker sets and the fields of the actor's futures.  There is no dispatcher
thread.  Each message event takes that lock once: ``send`` to queue the
message, and the completion to settle the message's future, release its sync
entries and take the worker's next message, all in one critical section that
the worker loop runs inline, so a completed message costs no call of the
runtime's own beyond the lock table's.  Dispatch to idle workers runs inline
in the same sections, at the end of every ``send``, every completion and
every ``add_worker`` (the only events that can make a message startable).
Dispatch leaves nothing startable, so after a send or a completion only the
messages it made ready can start.  The lock table keeps one heap of ready
messages per worker class (per distinct supported set), so a ``take`` pops
its class's heap whatever the number of methods, and a backlog no idle
worker supports is never scanned.  So an actor runs exactly one thread per
worker and nothing busy-waits.  User code runs on worker threads with no
internal lock held.  A message's future is settled before its sync entries
are released, so a conflicting successor always observes the completed
effects.

A future is written once, by the completion of its message or by shutdown
failing it, and is otherwise read-only: ``get`` and ``done`` are all a
caller can do with it.  Its fields are guarded by its claim, the actor
lock.  Settling checks under the claim that the future is still pending
and writes its fields, so of a completion and a ``shutdown(timeout=...)``
that gives up on the running message exactly one wins.  A reader that
finds the future settled takes no lock at all.  One that finds it pending
yields, then parks.  It first checks its timeout, then yields the CPU once
(``os.sched_yield``, which also lets go of the GIL) and reads the state
again: the worker that ``send`` woke is then waiting for the GIL, and can
finish the message and block on its inbox before the reader is back.
Parking at once instead lets the settler's release wake the reader while
the settler still holds the GIL, which costs two more thread switches per
round trip on one CPU.  A reader that still finds the future pending
installs a latch under the claim, a plain lock held until the future
settles, and blocks on it; later readers share it.  The settler releases
the latch, if there is one, after leaving the claim.  A future that no
reader blocks on never allocates a lock.  Where ``os`` has no
``sched_yield`` (Windows), a reader parks at once.  The reader never runs
a message itself, so a timed ``get`` never waits on user code.

Blocking on a future from a worker thread of the same actor that the awaited
message needs is a deadlock, as with any pool; keep ``Future.get`` on
application threads.
"""

from __future__ import annotations

import json
import math
import os
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .scheduler import (
    EMPTY_LOCKS,
    LockTable,
    SyncEntry,
    SyncPlan,
    planned_sync_set,
    select,
    sync_plan,
)


class FutureFailed(Exception):
    """The message backing a future raised or was cancelled."""

    def __init__(self, diagnostic: str):
        super().__init__(diagnostic)
        self.diagnostic = diagnostic


# A future's states, read on the per-message paths as plain globals.
_PENDING = "pending"
_RESOLVED = "resolved"
_FAILED = "failed"


def _wait_limit(timeout: Optional[float]) -> Optional[float]:
    """``timeout`` in seconds as the lock primitives take it: None waits
    forever, and so does any timeout past ``threading.TIMEOUT_MAX`` (such
    as ``math.inf``), which they would refuse; a negative one waits not at
    all, and NaN raises ValueError."""
    if timeout is None or timeout > threading.TIMEOUT_MAX:
        return None
    if timeout >= 0:
        return timeout
    if math.isnan(timeout):
        raise ValueError("timeout must be a number of seconds or None, not NaN")
    return 0


# Gives up the CPU, and the GIL, once before a pending get parks (see the
# module docstring); where the OS has no such call a get parks at once.
_yield_cpu = getattr(os, "sched_yield", lambda: None)


class Future:
    """Write-once result of an asynchronous send, and the message it
    belongs to: the lock table queues and orders it, a worker runs it and
    the caller reads it.  Only ``MacActor.send`` makes one, with
    ``object.__new__``, setting every field itself; its claim is the actor
    lock.  ``args`` and ``sync`` are dropped once its entries are released
    or shutdown cancels it."""

    __slots__ = (
        "_claim", "_latch", "_state", "_value", "_diagnostic", "_cause",
        "method", "args", "sync", "signature", "priority",
    )

    def __init__(self):
        raise TypeError("futures are made by MacActor.send")

    def done(self) -> bool:
        return self._state != _PENDING

    def get(self, timeout: Optional[float] = None):
        """Block until resolved; every caller sees the same value.

        A ``timeout`` of None, or one too large for the platform's locks
        (``math.inf`` among them), waits forever; NaN raises ValueError.
        Raises TimeoutError if the deadline passes first and FutureFailed
        (with the original exception chained) if the message failed.
        """
        if self._state == _PENDING:
            limit = _wait_limit(timeout)
            _yield_cpu()
            if self._state == _PENDING:
                self._park(limit, timeout)
        if self._state == _FAILED:
            raise FutureFailed(self._diagnostic) from self._cause
        return self._value

    def _park(self, limit: Optional[float], timeout: Optional[float]) -> None:
        with self._claim:
            if self._state != _PENDING:
                return
            latch = self._latch
            if latch is None:
                # held until the settler that wins the claim releases it;
                # each reader takes it and passes it on
                latch = self._latch = threading.Lock()
                latch.acquire()
        if not latch.acquire(timeout=-1 if limit is None else limit):
            raise TimeoutError(f"future not resolved within {timeout}s")
        latch.release()

    def _settle(self, diagnostic: str) -> None:
        """Fail the future unless it is already settled: shutdown cancels
        a queued message or gives up on a running one, whose worker may
        complete it first.  (A worker settles the message it ran in its
        completion's critical section, the same way.)"""
        with self._claim:
            if self._state != _PENDING:
                return
            self._diagnostic = diagnostic
            # written last: a reader that sees a settled state sees the fields
            self._state = _FAILED
        # Readers install a latch only under the claim and while the future
        # is pending, so once it is settled _latch no longer changes.
        if self._latch is not None:
            self._latch.release()


_new_object = object.__new__


# --------------------------------------------------------------------------
# event log

def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


class EventLog:
    """Thread-safe append-only log of enqueue/dispatch/complete events.

    ``record`` keeps a plain tuple; the dicts that ``events`` and
    ``write_jsonl`` give are built only when the log is read.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._events: list[tuple] = []

    def record(
        self,
        event: str,
        method: str,
        priority: int,
        sync: frozenset[SyncEntry],
        worker: Optional[int] = None,
        failed: Optional[bool] = None,
    ) -> None:
        """Log one event of a message; ``worker`` is left out of the read
        form when None (enqueue), and ``failed`` too (all but complete)."""
        entry = (event, time.perf_counter_ns(), method, priority, worker, sync, failed)
        with self._lock:
            self._events.append(entry)

    def events(self) -> list[dict]:
        with self._lock:
            events = list(self._events)
        return [_event_dict(*entry) for entry in events]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self.events():
                fh.write(json.dumps(entry, default=_jsonable) + "\n")


def _event_dict(event, t, method, priority, worker, sync, failed) -> dict:
    entry = {"event": event, "t": t, "method": method, "priority": priority}
    if worker is not None:
        entry["worker"] = worker
    # one label may lock values that do not compare: numbers, strings and
    # None sort apart
    entry["sync"] = sorted(
        [[e.label, _jsonable(e.value)] for e in sync],
        key=lambda p: (p[0], p[1] is None, isinstance(p[1], str), p[1]),
    )
    if failed is not None:
        entry["failed"] = failed
    return entry


# --------------------------------------------------------------------------
# sync annotations on behavior methods

def synced(*labels: Optional[str]) -> Callable:
    """Mark a behavior method's parameters with sync labels, positionally.

    ``@synced("a", None)`` locks label "a" on the first argument and leaves
    the second free, mirroring a ``sync<a>`` annotation in source programs.
    ``send`` derives every message's sync set from these labels.
    """

    def mark(fn):
        fn._sync_labels = tuple(labels)
        return fn

    return mark


# --------------------------------------------------------------------------
# the actor

@dataclass(frozen=True)
class ShutdownReport:
    drained: bool
    executed: int
    failed: int
    cancelled: int  # unstarted messages failed by shutdown
    running: tuple = ()  # (method, priority) of each message still running at the timeout


@dataclass(frozen=True)
class AuditSnapshot:
    busy_data: frozenset  # entries the lock table holds for running messages
    running: tuple  # sync set of each executing message
    startable: tuple  # (idle worker id, priority) pairs that select would start
    ok: bool  # busy_data is the disjoint union of running, and startable is empty


def _methods(cls: type) -> dict[str, Optional[tuple]]:
    """Public method name -> its ``@synced`` labels, or None, for a behavior
    class.  Read from the class dicts along the MRO, so no property getter
    or other descriptor of the behavior runs."""
    attrs: dict = {}
    for klass in cls.__mro__:
        for name, attr in vars(klass).items():
            attrs.setdefault(name, attr)
    methods = {}
    for name, attr in attrs.items():
        if isinstance(attr, (staticmethod, classmethod)):
            attr = attr.__func__
        if not name.startswith("_") and callable(attr):
            methods[name] = getattr(attr, "_sync_labels", None)
    return methods


class _Worker:
    __slots__ = ("id", "behavior", "supported", "inbox", "thread", "current")

    def __init__(self, worker_id: int, behavior, supported: frozenset):
        self.id = worker_id
        self.behavior = behavior
        self.supported = supported  # method names, the key of its class in the lock table
        self.inbox: queue.SimpleQueue = queue.SimpleQueue()
        self.thread: Optional[threading.Thread] = None
        self.current: Optional[Future] = None


class MacActor:
    """A group of workers sharing one message queue and one identity.

    ``behavior_factory`` is called once per initial worker; the instances it
    returns receive the messages.  The actor starts one thread per worker
    and no other: messages are dispatched inline by the thread that sends,
    completes or adds a worker.
    """

    def __init__(
        self,
        behavior_factory: Callable[[], object],
        workers: int = 1,
        *,
        event_log: Optional[EventLog] = None,
        name: str = "mac",
    ):
        if workers < 1:
            raise ValueError("an actor needs at least one worker")
        self._name = name
        self._log = event_log
        self._lock = threading.Lock()
        # signals drain, and the end of a shutdown call to those waiting on it
        self._cond = threading.Condition(self._lock)
        self._table = LockTable()
        self._idle: deque[_Worker] = deque()
        self._busy: dict[int, _Worker] = {}
        self._workers: list[_Worker] = []
        self._plans: dict[str, Optional[SyncPlan]] = {}  # method -> plan of its @synced labels
        self._next_priority = 0
        self._draining = False
        self._closing = False  # a shutdown call is under way
        self._report: Optional[ShutdownReport] = None
        self._executed = 0
        self._failed = 0
        self._rejected = 0
        self._max_concurrent = 0
        try:
            for _ in range(workers):
                self._spawn_worker(behavior_factory())
        except BaseException:
            self.shutdown(drain=False)  # stop the workers already started
            raise

    # ---- public surface

    def send(self, method: str, args: Sequence = ()) -> Future:
        """Queue an invocation and return its future immediately.

        The sync set is derived from the method's ``@synced`` labels (empty
        if it has none, or if no worker has the method yet).  Raises
        ValueError when ``args`` does not fit the labels, before queueing
        anything.  Sending never blocks on execution.  After shutdown the
        returned future is already failed.
        """
        args = tuple(args)
        lock = self._lock
        msg = _new_object(Future)
        msg._claim = lock
        msg._latch = msg._value = msg._diagnostic = msg._cause = None
        msg._state = _PENDING
        msg.method = msg.signature = method
        msg.args = args
        with lock:
            if not self._draining:
                # Read under the lock hold that queues the message, so no
                # worker joins in between.  A method no worker has yet is
                # fixed unlabelled here (see _spawn_worker).
                plan = self._plans.setdefault(method, None)
                sync = msg.sync = EMPTY_LOCKS if plan is None else planned_sync_set(plan, args)
                priority = msg.priority = self._next_priority
                self._next_priority = priority + 1
                ready = self._table.add(msg)
                if self._log:
                    self._log.record("enqueue", method, priority, sync)
                if ready and self._idle:
                    self._dispatch((msg,))
                return msg
            self._rejected += 1
            msg.args = msg.sync = None
            msg._diagnostic = "actor shut down; send rejected"
            msg._state = _FAILED
        return msg

    def add_worker(self, behavior) -> int:
        """Grow the pool by one idle worker; pending messages are re-examined.

        Raises ValueError if the behavior's ``@synced`` labels on a method
        differ from those of a worker already in the pool, or label a
        method that was sent before any worker had it: that message was
        queued with no sync entries.  Raises RuntimeError, and adds nothing,
        when the worker's thread cannot be started.
        """
        with self._lock:
            if self._draining:
                raise RuntimeError("actor shut down")
            worker = self._spawn_worker(behavior)
            self._dispatch(self._table.pending())  # the new worker may start any
            return worker.id

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> ShutdownReport:
        """Stop the actor.  Idempotent: repeated calls return the first report.
        A call made while another is under way waits for that report, at
        most ``timeout``, and raises TimeoutError after that; if the other
        call is interrupted before its report, this one stops the actor.

        drain=True runs everything already queued that can run.  Once no
        message is running nothing left can ever start (sends and new
        workers are refused from here on), so each leftover future fails:
        no worker supports its method.  Such a message has no sync
        entries, so it holds back no other.  drain=False fails every
        pending future at once; running messages finish.

        With a ``timeout`` (seconds), messages still running when it passes
        are given up: their futures and those of every message still queued
        fail with a diagnostic, their worker threads are left to end on
        their own, and the report has ``drained=False`` and lists them in
        ``running``.  Without one, shutdown waits for every message.

        A ``timeout`` too large for the platform's locks (``math.inf``
        among them) waits like None.  Raises ValueError for a NaN timeout,
        and RuntimeError when called from one of this actor's workers, which
        would wait for its own message to finish; either leaves the actor
        as it was.
        """
        with self._lock:
            if any(w.thread is threading.current_thread() for w in self._workers):
                raise RuntimeError(
                    f"{self._name}: shutdown() called from one of the actor's own "
                    "worker threads, which would wait for itself"
                )
            if self._report is not None:
                return self._report
            timeout = _wait_limit(timeout)
            if not self._cond.wait_for(lambda: not self._closing, timeout):
                raise TimeoutError(f"{self._name}: shutdown still under way after {timeout}s")
            if self._report is not None:  # made by the call that was under way
                return self._report
            self._closing = self._draining = True
        try:
            return self._close(drain, timeout)
        finally:
            # a call waiting above takes the report, or closes the actor
            # itself if this call was interrupted before making one
            with self._lock:
                self._closing = False
                self._cond.notify_all()

    def _close(self, drain: bool, timeout: Optional[float]) -> ShutdownReport:
        with self._lock:
            if drain:
                self._cond.wait_for(lambda: not self._busy, timeout)
                gave_up = self._timed_out(timeout) if self._busy else None
                # With every worker idle and nothing startable, what is left
                # is what no worker supports (see the module docstring).
                leftover = [
                    (msg, gave_up or f"no worker supports {msg.method!r}")
                    for msg in self._table.pending()
                ]
            else:
                leftover = [(msg, "actor shut down") for msg in self._table.pending()]
            self._table.drop_pending()
        for msg, diagnostic in leftover:
            msg._settle(diagnostic)
            msg.args = msg.sync = None  # out of the table, so read by no one
        with self._lock:
            if not drain:
                self._cond.wait_for(lambda: not self._busy, timeout)
            stuck = list(self._busy.values())
            running = [w.current for w in stuck]
            gave_up = self._timed_out(timeout) if running else None
        for msg in running:
            msg._settle(gave_up)
        for worker in self._workers:
            worker.inbox.put(None)
        for worker in self._workers:
            if worker not in stuck:
                worker.thread.join()
        with self._lock:
            self._report = ShutdownReport(
                drained=drain and not running,
                executed=self._executed,
                failed=self._failed,
                cancelled=len(leftover),
                running=tuple((msg.method, msg.priority) for msg in running),
            )
            return self._report

    def audit(self) -> AuditSnapshot:
        """Consistent snapshot of the lock aggregate, for invariant checks.

        Besides disjointness it checks that dispatch left nothing undone:
        ``select`` over the pending queue finds no message for any idle
        worker.
        """
        with self._lock:
            running = tuple(w.current.sync for w in self._busy.values() if w.current)
            busy = self._table.held()
            pending = self._table.pending()
            startable = tuple(
                (w.id, msg.priority)
                for w in self._idle
                if (msg := select(w.supported, busy, pending)) is not None
            )
        union = frozenset().union(*running)
        ok = union == busy and len(union) == sum(map(len, running)) and not startable
        return AuditSnapshot(busy_data=busy, running=running, startable=startable, ok=ok)

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": len(self._workers),
                "pending": len(self._table),
                "busy": len(self._busy),
                "executed": self._executed,
                "failed": self._failed,
                "rejected": self._rejected,
                "max_concurrent": self._max_concurrent,
            }

    # ---- internals

    def _spawn_worker(self, behavior) -> _Worker:
        # A behavior class is read once per actor, when its first worker
        # joins; its other workers share that worker's supported set.
        kin = next((w for w in self._workers if type(w.behavior) is type(behavior)), None)
        if kin is not None:
            supported = kin.supported
        else:
            labels = _methods(type(behavior))
            # send derives sync sets from these plans whichever worker runs
            # the message, so workers that share a method must label it
            # alike, and alike with the sends made before any worker had it
            plans = {m: l if l is None else sync_plan(l) for m, l in labels.items()}
            clash = sorted(m for m, plan in plans.items() if self._plans.get(m, plan) != plan)
            if clash:
                raise ValueError(
                    f"@synced labels of {', '.join(map(repr, clash))} differ from "
                    "those of the actor's other workers or earlier sends"
                )
            supported = frozenset(labels)
        worker = _Worker(len(self._workers), behavior, supported)
        worker.thread = threading.Thread(
            target=self._worker_loop,
            args=(worker,),
            name=f"{self._name}-w{worker.id}",
            daemon=True,
        )
        # Started before it is registered: a thread that fails to start
        # leaves no worker that messages would be dispatched to, and fixes
        # no labels.  The new thread only waits on its inbox.
        worker.thread.start()
        if kin is None:
            self._plans.update(plans)
        self._workers.append(worker)
        self._idle.append(worker)
        return worker

    def _dispatch(self, ready: Sequence[Future]) -> None:
        # Runs with the lock held, after a send or a completion made the
        # messages ``ready`` ready (after add_worker, with every pending
        # message).  Dispatch leaves no idle worker a message it could
        # start, and the event made no other message startable (select is
        # prefix-stable), so at most len(ready) workers start here.  Idle
        # workers are asked in FIFO order of idleness; the first whose take
        # finds a message gets the earliest ready one it supports.  A take
        # pops its class's heap of ready messages, so asking a worker that
        # supports none of them costs no scan of the backlog.
        # A finishing worker has already taken its own next message, if any
        # (see _worker_loop).
        table, idle = self._table, self._idle
        for _ in ready:  # each start takes one of them
            for worker in idle:
                msg = table.take(worker.supported)
                if msg is not None:
                    break
            else:
                return
            idle.remove(worker)
            self._busy[worker.id] = worker
            worker.current = msg
            if len(self._busy) > self._max_concurrent:
                self._max_concurrent = len(self._busy)
            worker.inbox.put(msg)

    def _timed_out(self, timeout: Optional[float]) -> str:
        running = ", ".join(
            f"{w.current.method!r} (priority {w.current.priority})" for w in self._busy.values()
        )
        return f"{self._name}: shutdown gave up after {timeout}s with {running} still running"

    def _worker_loop(self, worker: _Worker) -> None:
        """Run the messages given to ``worker`` until shutdown's None.

        A completion is one critical section under the actor lock, which is
        also the message's claim.  It settles the future (unless a
        ``shutdown(timeout=...)`` that gave up on the message failed it
        first), releases the message's entries, drops its arguments and
        sync set (the caller may keep the future), takes the worker's next
        message and dispatches what the release readied to idle workers.
        The outcome is written before the entries are released, so whoever
        runs next on this data can already read it.  A reader's latch is
        released after leaving the lock.  Going on with the worker's own
        next message spares a wake-up and a thread switch per message when
        a completion readies exactly one, as on a hot key."""
        log, behavior, table = self._log, worker.behavior, self._table
        busy, idle, supported = self._busy, self._idle, worker.supported
        next_msg = worker.inbox.get
        msg = next_msg()
        while msg is not None:
            if log:
                log.record("dispatch", msg.method, msg.priority, msg.sync, worker.id)
            try:
                result = getattr(behavior, msg.method)(*msg.args)
                error = None
            except BaseException as exc:
                # Not re-raised: a worker thread receives no interrupts, and a
                # SystemExit here would only end this thread with the
                # message's entries held.  The future carries it instead.
                result, error = None, exc
                try:
                    diagnostic = f"{type(exc).__name__}: {exc}"
                except BaseException:  # the exception's own __str__ raised
                    diagnostic = type(exc).__name__
            if log:
                log.record(
                    "complete", msg.method, msg.priority, msg.sync, worker.id, error is not None
                )
            with self._lock:  # read per message, so a lock swapped in later is used
                assert busy.get(worker.id) is worker and worker.current is msg, (
                    "worker freed twice or with the wrong message"
                )
                latch = None
                if msg._state == _PENDING:
                    if error is None:
                        msg._value = result
                        msg._state = _RESOLVED
                    else:
                        msg._diagnostic = diagnostic
                        msg._cause = error
                        msg._state = _FAILED
                    latch = msg._latch
                readied = table.complete(msg)
                msg.args = msg.sync = None
                if error is not None:
                    self._failed += 1
                self._executed += 1
                # with nothing pending (always, on a lone round trip) there
                # is nothing to take
                msg = worker.current = table.take(supported) if table._pending else None
                if msg is None:
                    del busy[worker.id]
                    idle.append(worker)
                elif msg in readied:
                    readied.remove(msg)
                if readied and idle:
                    self._dispatch(readied)
                if self._draining and not busy:
                    self._cond.notify_all()
            if latch is not None:
                latch.release()
            if msg is None:
                # An idle worker keeps nothing of its last message: a failed
                # one's traceback holds the behavior's frame and arguments.
                result = error = readied = None
                msg = next_msg()
