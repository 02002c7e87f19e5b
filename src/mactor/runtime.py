"""Thread-backed actor groups sharing one synchronized message queue.

A :class:`MacActor` owns a pool of workers (each wrapping one user-supplied
behavior object and one thread) and a queue of pending messages.  ``send``
enqueues a message together with its (label, value) sync entries and returns
a write-once :class:`Future` immediately.  The queue is a
:class:`mactor.scheduler.LockTable`, which answers the selection rule of
:func:`mactor.scheduler.select`: a message starts only when its sync entries
are disjoint from everything currently executing and from every earlier
pending message that overlaps it, and only when an idle worker supports it.
A worker that finishes a message first takes the earliest ready message it
supports and runs it itself; other ready messages go to idle workers in FIFO
order of their idleness.

Locking discipline: one mutex guards the lock table and the worker sets.
There is no dispatcher thread.  Dispatch runs inline, under that mutex, at
the end of every ``send``, every completion and every ``add_worker``, the
only events that can make a message startable, so an actor runs exactly one
thread per worker and nothing busy-waits.  User code runs on worker threads
with no internal lock held.  A message's future is resolved before its sync
entries are released, so a conflicting successor always observes the
completed effects.

Blocking on a future from a worker thread of the same actor that the awaited
message needs is a deadlock, as with any pool; keep ``Future.get`` on
application threads.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .scheduler import LockTable, QueuedMessage, SyncEntry, lock_union, select, sync_set_of


class FutureFailed(Exception):
    """The message backing a future raised or was cancelled."""

    def __init__(self, diagnostic: str):
        super().__init__(diagnostic)
        self.diagnostic = diagnostic


class Future:
    """Write-once result of an asynchronous send."""

    PENDING = "pending"
    RESOLVED = "resolved"
    FAILED = "failed"

    __slots__ = ("_claim", "_latch", "_state", "_value", "_diagnostic", "_cause")

    def __init__(self):
        # Two plain locks cost far less to build than a Condition.  The one
        # call that settles takes ``_claim``; ``_latch`` stays held until
        # then, and each blocked reader takes it and passes it on.
        self._claim = threading.Lock()
        self._latch = threading.Lock()
        self._latch.acquire()
        self._state = Future.PENDING
        self._value = None
        self._diagnostic: Optional[str] = None
        self._cause: Optional[BaseException] = None

    @property
    def state(self) -> str:
        return self._state

    def done(self) -> bool:
        return self._state != Future.PENDING

    def get(self, timeout: Optional[float] = None):
        """Block until resolved; every caller sees the same value.

        Raises TimeoutError if the deadline passes first and FutureFailed
        (with the original exception chained) if the message failed.
        """
        if self._state == Future.PENDING:
            if not self._latch.acquire(timeout=-1 if timeout is None else max(timeout, 0)):
                raise TimeoutError(f"future not resolved within {timeout}s")
            self._latch.release()
        if self._state == Future.FAILED:
            raise FutureFailed(self._diagnostic) from self._cause
        return self._value

    def resolve(self, value) -> None:
        if not self._settle(Future.RESOLVED, value, None, None):
            raise RuntimeError("future already settled")

    def fail(self, diagnostic: str, cause: Optional[BaseException] = None) -> None:
        if not self._settle(Future.FAILED, None, diagnostic, cause):
            raise RuntimeError("future already settled")

    def _settle(self, state: str, value, diagnostic, cause) -> bool:
        """Settle unless already settled; True if this call settled.  The
        actor settles through here, because a caller may have settled the
        future first, and the actor must go on to free the message's
        entries."""
        if not self._claim.acquire(blocking=False):
            return False
        self._value = value
        self._diagnostic = diagnostic
        self._cause = cause
        self._state = state
        self._latch.release()
        return True


# --------------------------------------------------------------------------
# event log

def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


class EventLog:
    """Thread-safe append-only log of enqueue/dispatch/complete events."""

    def __init__(self):
        self._lock = threading.Lock()
        self._events: list[dict] = []

    def record(self, event: str, **fields) -> None:
        entry = {"event": event, "t": time.perf_counter_ns()}
        entry.update(fields)
        with self._lock:
            self._events.append(entry)

    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def write_jsonl(self, path) -> None:
        with self._lock:
            events = list(self._events)
        with open(path, "w", encoding="utf-8") as fh:
            for entry in events:
                fh.write(json.dumps(entry, default=_jsonable) + "\n")


def _sync_payload(sync: frozenset[SyncEntry]) -> list[list]:
    return sorted([e.label, _jsonable(e.value)] for e in sync)


# --------------------------------------------------------------------------
# sync annotations on behavior methods

def synced(*labels: Optional[str]) -> Callable:
    """Mark a behavior method's parameters with sync labels, positionally.

    ``@synced("a", None)`` locks label "a" on the first argument and leaves
    the second free, mirroring a ``sync<a>`` annotation in source programs.
    ``send`` derives the message's sync set from these labels when no
    explicit set is given.
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


class _Worker:
    __slots__ = ("id", "behavior", "labels", "supported", "inbox", "thread", "current")

    def __init__(self, worker_id: int, behavior):
        self.id = worker_id
        self.behavior = behavior
        # public method name -> its @synced labels, or None
        self.labels: dict[str, Optional[tuple]] = {
            name: getattr(method, "_sync_labels", None)
            for name in dir(behavior)
            if not name.startswith("_") and callable(method := getattr(behavior, name))
        }
        self.supported = frozenset(self.labels)
        self.inbox: queue.SimpleQueue = queue.SimpleQueue()
        self.thread: Optional[threading.Thread] = None
        self.current: Optional[QueuedMessage] = None


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
        self._cond = threading.Condition(self._lock)  # signals drain only
        self._table = LockTable()
        self._idle: deque[_Worker] = deque()
        self._busy: dict[int, _Worker] = {}
        self._workers: list[_Worker] = []
        self._sync_specs: dict[str, Optional[tuple]] = {}  # method -> @synced labels
        self._next_priority = 0
        self._next_worker_id = 0
        self._draining = False
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

    def send(
        self,
        method: str,
        args: Sequence = (),
        sync_data: Optional[Iterable[SyncEntry]] = None,
    ) -> Future:
        """Queue an invocation and return its future immediately.

        The sync set is taken from ``sync_data`` when given, otherwise
        derived from the behavior's ``@synced`` annotation (empty if none).
        Sending never blocks on execution.  After shutdown the returned
        future is already failed.
        """
        args = tuple(args)
        if sync_data is not None:
            sync = frozenset(sync_data)
        else:
            labels = self._sync_specs.get(method)
            sync = sync_set_of(labels, args) if labels else frozenset()
        fut = Future()
        with self._lock:
            rejected = self._draining
            if rejected:
                self._rejected += 1
            else:
                msg = QueuedMessage(method, args, fut, sync, method, self._next_priority)
                self._next_priority += 1
                self._table.add(msg)
                if self._log:
                    self._log.record(
                        "enqueue",
                        method=method,
                        priority=msg.priority,
                        sync=_sync_payload(sync),
                    )
                self._dispatch()
        if rejected:
            fut.fail("actor shut down; send rejected")
        return fut

    def add_worker(self, behavior) -> int:
        """Grow the pool by one idle worker; pending messages are re-examined.

        Raises ValueError if the behavior's ``@synced`` labels on a method
        differ from those of a worker already in the pool.
        """
        with self._lock:
            if self._draining:
                raise RuntimeError("actor shut down")
            worker = self._spawn_worker(behavior)
            self._dispatch()
            return worker.id

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> ShutdownReport:
        """Stop the actor.  Idempotent: repeated calls return the first report.

        drain=True runs everything already queued that can run.  Once no
        message is running nothing left can ever start (sends and new
        workers are refused from here on), so each leftover future fails
        with the reason: no worker supports its method, or an earlier
        message that heads one of its keys can never start.  drain=False
        fails every pending future at once; running messages finish.

        With a ``timeout`` (seconds), messages still running when it passes
        are given up: their futures and those of every message still queued
        fail with a diagnostic, their worker threads are left to end on
        their own, and the report has ``drained=False`` and lists them in
        ``running``.  Without one, shutdown waits for every message.

        Raises RuntimeError when called from one of this actor's workers,
        which would wait for its own message to finish.
        """
        with self._lock:
            if any(w.thread is threading.current_thread() for w in self._workers):
                raise RuntimeError(
                    f"{self._name}: shutdown() called from one of the actor's own "
                    "worker threads, which would wait for itself"
                )
            if self._report is not None:
                return self._report
            self._draining = True
            if drain:
                self._cond.wait_for(lambda: not self._busy, timeout)
                gave_up = self._timed_out(timeout) if self._busy else None
                leftover = [(msg, gave_up or self._why_stuck(msg)) for msg in self._table.pending()]
            else:
                leftover = [(msg, "actor shut down") for msg in self._table.pending()]
            self._table.drop_pending()
        for msg, diagnostic in leftover:
            msg.future._settle(Future.FAILED, None, diagnostic, None)
        with self._lock:
            if not drain:
                self._cond.wait_for(lambda: not self._busy, timeout)
            stuck = list(self._busy.values())
            running = [w.current for w in stuck]
            gave_up = self._timed_out(timeout) if running else None
        for msg in running:
            msg.future._settle(Future.FAILED, None, gave_up, None)
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
        union = lock_union(running)
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
        worker = _Worker(self._next_worker_id, behavior)
        # send derives sync sets from these labels whichever worker runs the
        # message, so workers that share a method must label it alike
        labels, specs = worker.labels, self._sync_specs
        if self._workers and not labels.items() <= specs.items():
            clash = sorted(m for m, l in labels.items() if specs.get(m, l) != l)
            if clash:
                raise ValueError(
                    f"@synced labels of {', '.join(map(repr, clash))} differ from "
                    "those of the actor's other workers"
                )
        specs.update(labels)
        self._next_worker_id += 1
        worker.thread = threading.Thread(
            target=self._worker_loop,
            args=(worker,),
            name=f"{self._name}-w{worker.id}",
            daemon=True,
        )
        self._workers.append(worker)
        self._idle.append(worker)
        worker.thread.start()
        return worker

    def _dispatch(self) -> None:
        # Runs with the lock held.  Idle workers are asked in FIFO order of
        # idleness; the first that supports a ready message gets the
        # earliest one it supports.  A finishing worker has already taken
        # its own next message, if any, before this runs (see _free_worker).
        table, idle = self._table, self._idle
        while idle:
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

    def _why_stuck(self, msg: QueuedMessage) -> str:
        # Only called once nothing runs and nothing can start.
        if not any(msg.signature in w.supported for w in self._workers):
            return f"no worker supports {msg.method!r}"
        key, head = self._table.blocker(msg)
        return (
            f"shadowed by priority {head.priority} ({head.method!r}) "
            f"on key ({key.label!r}, {key.value!r}), which can never start"
        )

    def _worker_loop(self, worker: _Worker) -> None:
        msg = worker.inbox.get()
        while msg is not None:
            if self._log:
                self._log.record(
                    "dispatch",
                    method=msg.method,
                    priority=msg.priority,
                    worker=worker.id,
                    sync=_sync_payload(msg.sync),
                )
            error: Optional[BaseException] = None
            result = None
            try:
                result = getattr(worker.behavior, msg.method)(*msg.args)
            except BaseException as exc:
                # Not re-raised: a worker thread receives no interrupts, and a
                # SystemExit here would only end this thread with the
                # message's entries held.  The future carries it instead.
                error = exc
            if self._log:
                self._log.record(
                    "complete",
                    method=msg.method,
                    priority=msg.priority,
                    worker=worker.id,
                    sync=_sync_payload(msg.sync),
                    failed=error is not None,
                )
            # Resolve before releasing the sync entries, so whoever runs next
            # on this data can already read the result.
            if error is None:
                msg.future._settle(Future.RESOLVED, result, None, None)
            else:
                diagnostic = f"{type(error).__name__}: {error}"
                msg.future._settle(Future.FAILED, None, diagnostic, error)
            msg = self._free_worker(worker, msg, failed=error is not None)
            if msg is None:
                msg = worker.inbox.get()

    def _free_worker(
        self, worker: _Worker, msg: QueuedMessage, failed: bool
    ) -> Optional[QueuedMessage]:
        """Release ``msg``'s entries and return the next message the worker
        runs itself, or None once it is idle.  Continuing with local work
        spares a wake-up and a thread switch per message when a completion
        readies exactly one message, as on a hot key."""
        with self._lock:
            assert self._busy.get(worker.id) is worker and worker.current is msg, (
                "worker freed twice or with the wrong message"
            )
            self._table.complete(msg)
            if failed:
                self._failed += 1
            self._executed += 1
            nxt = worker.current = self._table.take(worker.supported)
            if nxt is None:
                del self._busy[worker.id]
                self._idle.append(worker)
            self._dispatch()
            if self._draining and not self._busy:
                self._cond.notify_all()
            return nxt
