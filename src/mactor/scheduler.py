"""Synchronized-data bookkeeping and the message selection rule.

A queued message carries a finite set of (label, value) entries derived
from its signature: one entry per parameter marked ``sync<label>``, paired
with the actual argument at that position.  An idle object may only be
handed the first message in queue order whose entry set is disjoint from
everything currently held by the group *and* from the entries of every
message skipped earlier in the scan, and whose signature the object
supports.  Skipped messages shadow later ones even when they were skipped
for signature reasons alone; that literal reading is what guarantees that
conflicting messages start in their enqueue order.

A signature's :func:`sync_plan` (its arity and labelled positions) says
which argument positions lock what; :func:`planned_sync_set` builds a
message's entries from it.

``select`` is pure and operates on immutable snapshots; it is the one
specification of which message may start, and costs a pass over the queue
up to the message it picks.  :class:`LockTable` keeps the same answer
incrementally for a queue that changes one message at a time; each of its
calls costs the log of the backlog, not the backlog, and the same whatever
the number of signatures (see its docstring).  Neither takes a lock:
callers that share them between threads hold their own lock around every
call.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Container, Hashable, Iterable, NamedTuple, Optional, Sequence


class SyncEntry(NamedTuple):
    """A lock claim on one piece of data under one user-chosen label."""

    label: str
    value: Hashable


EMPTY_LOCKS: frozenset[SyncEntry] = frozenset()

_new_tuple = tuple.__new__


class QueuedMessage(NamedTuple):
    """One pending asynchronous invocation.

    ``signature`` is any hashable token the idle object's supported set can
    be probed with (a parsed method signature in the interpreter, a method
    name in the thread pool).  ``priority`` is the arrival counter: unique
    per queue and strictly increasing with enqueue order.
    """

    method: str
    args: tuple
    future: object
    sync: frozenset[SyncEntry]
    signature: Hashable
    priority: int


# A signature's arity and, in order, the (position, label) of each
# parameter marked with a label.
SyncPlan = tuple[int, tuple[tuple[int, str], ...]]


def sync_plan(labels: Sequence[Optional[str]]) -> SyncPlan:
    """The plan of a signature with ``labels``, one per parameter and None
    where the parameter is not synchronized."""
    # Plain loops here and below skip building a comprehension's function:
    # the interpreter calls this for every message it queues, and the
    # runtime the next function on every send.
    positions = []
    for i, label in enumerate(labels):
        if label is not None:
            positions.append((i, label))
    return len(labels), tuple(positions)


def planned_sync_set(plan: SyncPlan, args: Sequence) -> frozenset[SyncEntry]:
    """The sync set of a call with ``args`` to a signature whose
    :func:`sync_plan` is ``plan``: each labelled position paired with its
    actual argument.  Raises ValueError when ``args`` does not fit."""
    arity, positions = plan
    if len(args) != arity:
        raise ValueError(f"arity mismatch: {arity} parameter(s), {len(args)} argument(s)")
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    entries = []
    for i, label in positions:
        entries.append(_new_tuple(SyncEntry, (label, args[i])))
    return frozenset(entries)


def select(
    supported: Container,
    held: Iterable[SyncEntry],
    queue: Sequence[QueuedMessage],
) -> Optional[QueuedMessage]:
    """Pick the message an idle object may activate, or None.

    Scans ``queue`` in order.  A message is returned when its sync set is
    disjoint from the accumulated set (initially ``held``, the union of
    entries locked across the whole group) and its signature is in
    ``supported``.  Every skipped message's sync set is added to the
    accumulator before moving on, so an ineligible message blocks every
    later message that overlaps it.  The queue is never mutated.
    """
    shadow = set(held)
    for msg in queue:
        if shadow.isdisjoint(msg.sync) and msg.signature in supported:
            return msg
        shadow |= msg.sync
    return None


def lock_union(lock_sets: Iterable[frozenset[SyncEntry]]) -> frozenset[SyncEntry]:
    """Union of per-object lock sets: everything a group currently holds."""
    out: set[SyncEntry] = set()
    for entries in lock_sets:
        out |= entries
    return frozenset(out)


class LockTable:
    """The pending queue of one group, kept so that :func:`select` is cheap.

    Under the strict rule a message may start exactly when it heads the FIFO
    of every one of its sync entries: an earlier message on the same entry,
    running or skipped, would otherwise be in the accumulated set.  So the
    table keeps one FIFO per entry, in priority order, and a running message
    stays at the head of its FIFOs until :meth:`complete`.  A pending
    message counts the entries on which it is not yet at the head; the ones
    at zero are ready.  Nothing but its signature then decides whether an
    object may start a ready message, so each worker class (a distinct
    supported set, a frozenset) has one heap of the priorities of the ready
    messages it supports, and :meth:`take` starts the least of them: what
    ``select`` returns over the same pending queue and held set.  A message
    that becomes ready is pushed onto the heap of every class that supports
    its signature; a class skips, when it meets them, the ones another class
    has started.

    With n pending messages, ``add`` costs O(|sync| + c log n) and
    ``complete`` O(|sync| c log n), where c is the number of classes that
    support the message, and ``take`` O(log n) plus the messages it skips.
    ``supported`` is asked once per signature when a class first takes, and
    once per class when a signature is first added; never per message.  Messages must be added in increasing priority order.
    """

    __slots__ = ("_fifos", "_blocked", "_pending", "_classes", "_heaps")

    def __init__(self):
        self._fifos: dict[SyncEntry, deque[QueuedMessage]] = {}
        self._blocked: dict[int, int] = {}  # priority -> entries not yet at the head
        self._pending: dict[int, QueuedMessage] = {}  # not yet started, in priority order
        # supported set -> heap of the priorities of the ready messages the
        # class supports, some perhaps started by another class since
        self._classes: dict[frozenset, list[int]] = {}
        # signature -> the heaps of the classes that support it
        self._heaps: dict[Hashable, tuple[list[int], ...]] = {}

    def __len__(self) -> int:
        return len(self._pending)

    def pending(self) -> list[QueuedMessage]:
        """Messages not yet started, in priority (queue) order."""
        return list(self._pending.values())

    def held(self) -> frozenset[SyncEntry]:
        """Entries held by running messages (the ``held`` of ``select``)."""
        return frozenset(
            key for key, fifo in self._fifos.items() if fifo[0].priority not in self._pending
        )

    def add(self, msg: QueuedMessage) -> bool:
        """Queue ``msg`` behind every message on its entries; True when it
        is ready, which is when no earlier message holds or waits for one
        of them."""
        blocked = 0
        for key in msg.sync:
            fifo = self._fifos.get(key)
            if fifo is None:
                self._fifos[key] = deque((msg,))
            else:
                fifo.append(msg)
                blocked += 1
        self._pending[msg.priority] = msg
        heaps = self._heaps.get(msg.signature)
        if heaps is None:
            heaps = self._heaps[msg.signature] = tuple(
                heap for supported, heap in self._classes.items() if msg.signature in supported
            )
        if blocked:
            self._blocked[msg.priority] = blocked
            return False
        for heap in heaps:
            heapq.heappush(heap, msg.priority)
        if len(heaps) > 1:
            self._compact(heaps)
        return True

    def _compact(self, heaps: tuple[list[int], ...]) -> None:
        # Only a message that several classes support can be started by
        # another class than the heap's own.  Such priorities are dropped
        # once they fill half a heap, so a class whose workers are all busy
        # does not keep every message the other classes start meanwhile.
        pending = self._pending
        for heap in heaps:
            if len(heap) > 2 * len(pending):
                heap[:] = [p for p in heap if p in pending]
                heapq.heapify(heap)

    def _heap(self, supported: frozenset) -> list[int]:
        """The heap of the class ``supported``, built when the class first
        takes, from the ready messages of the signatures it supports."""
        heap = self._classes.get(supported)
        if heap is None:
            heap = self._classes[supported] = []
            signatures = {signature for signature in self._heaps if signature in supported}
            for signature in signatures:
                self._heaps[signature] += (heap,)
            blocked = self._blocked
            heap.extend(
                p
                for p, msg in self._pending.items()
                if msg.signature in signatures and p not in blocked
            )  # in priority order, so already a heap
        return heap

    def take(self, supported: frozenset) -> Optional[QueuedMessage]:
        """Start and return the message ``select`` picks for an idle object
        supporting ``supported``, or None.  It stays at the head of its
        entries' FIFOs until :meth:`complete`."""
        heap = self._classes.get(supported)
        if heap is None:
            heap = self._heap(supported)
        pending = self._pending
        while heap:
            msg = pending.pop(heapq.heappop(heap), None)
            if msg is not None:
                return msg
        return None

    def complete(self, msg: QueuedMessage) -> list[QueuedMessage]:
        """Release a running message's entries; the next message in each of
        its FIFOs moves up, and becomes ready once it heads all of them.
        Returns the messages that became ready."""
        readied = []
        for key in msg.sync:
            fifo = self._fifos[key]
            head = fifo.popleft()
            assert head is msg, "completed a message that was not running"
            if not fifo:
                del self._fifos[key]
                continue
            nxt = fifo[0].priority
            left = self._blocked[nxt] - 1
            if left:
                self._blocked[nxt] = left
            else:
                del self._blocked[nxt]
                heaps = self._heaps[fifo[0].signature]
                for heap in heaps:
                    heapq.heappush(heap, nxt)
                if len(heaps) > 1:
                    self._compact(heaps)
                readied.append(fifo[0])
        return readied

    def blocker(self, msg: QueuedMessage) -> Optional[tuple[SyncEntry, QueuedMessage]]:
        """The first entry on which a pending ``msg`` is not at the head, with
        the message that heads it; None when ``msg`` is ready."""
        for key in sorted(msg.sync, key=repr):
            head = self._fifos[key][0]
            if head is not msg:
                return key, head
        return None

    def drop_pending(self) -> None:
        """Remove every message not yet started; running messages keep
        their entries until they complete."""
        self._fifos = {
            key: deque((fifo[0],))
            for key, fifo in self._fifos.items()
            if fifo[0].priority not in self._pending
        }
        self._blocked.clear()
        for heap in self._classes.values():
            heap.clear()
        self._pending.clear()
