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

``select`` is pure and operates on immutable snapshots; it is the one
specification of which message may start, and costs a pass over the queue
up to the message it picks.  :class:`LockTable` keeps the same answer
incrementally for a queue that changes one message at a time; each of its
calls costs the log of the backlog, not the backlog (see its docstring).
Neither takes a lock: callers that share them between threads hold their
own lock around every call.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
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


def sync_set_of(labels: Sequence[Optional[str]], args: Sequence) -> frozenset[SyncEntry]:
    """Pair each labelled parameter position with its actual argument.

    ``labels`` holds one entry per parameter, None where the parameter is
    not synchronized.  Two labelled positions with the same label and equal
    argument values collapse to a single entry (set semantics).
    """
    if len(labels) != len(args):
        raise ValueError(f"arity mismatch: {len(labels)} parameter(s), {len(args)} argument(s)")
    # The runtime calls this on every send: tuple.__new__ skips the
    # NamedTuple's Python-level __new__, and a plain loop skips building a
    # comprehension's function.
    entries = []
    for pair in zip(labels, args):
        if pair[0] is not None:
            entries.append(_new_tuple(SyncEntry, pair))
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
    object may start a ready message, so the ready messages sit in one
    priority heap per signature, and :meth:`take` starts the least head
    among the heaps of the signatures the object supports: what ``select``
    returns over the same pending queue and held set.

    With n pending messages and s signatures that have had a ready message,
    ``add`` costs O(|sync| + log n), ``complete`` O(|sync| log n) and
    ``take`` and ``peek`` O(s + log n); ``take`` asks ``supported`` only
    about the signatures with a ready message now.  Messages must be added
    in increasing priority order.
    """

    __slots__ = ("_fifos", "_blocked", "_ready", "_pending")

    def __init__(self):
        self._fifos: dict[SyncEntry, deque[QueuedMessage]] = {}
        self._blocked: dict[int, int] = {}  # priority -> entries not yet at the head
        # signature -> heap of the priorities of its ready messages; a heap
        # that empties is kept, so a hot signature allocates no list per message
        self._ready: defaultdict[Hashable, list[int]] = defaultdict(list)
        self._pending: dict[int, QueuedMessage] = {}  # not yet started, in priority order

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
        if blocked:
            self._blocked[msg.priority] = blocked
            return False
        heapq.heappush(self._ready[msg.signature], msg.priority)
        return True

    def _first(self, supported: Container) -> Optional[list[int]]:
        """The ready heap whose head :meth:`take` starts next for an object
        supporting ``supported``: of the heaps with a ready message, the one
        with the least head whose signature is supported."""
        first = None
        for signature, heap in self._ready.items():
            if heap and (first is None or heap[0] < first[0]) and signature in supported:
                first = heap
        return first

    def peek(self, supported: Container) -> Optional[QueuedMessage]:
        """What :meth:`take` would return, without starting it."""
        heap = self._first(supported)
        return None if heap is None else self._pending[heap[0]]

    def take(self, supported: Container) -> Optional[QueuedMessage]:
        """Start and return the message ``select`` picks for an idle object
        supporting ``supported``, or None.  It stays at the head of its
        entries' FIFOs until :meth:`complete`."""
        heap = self._first(supported)
        return None if heap is None else self._pending.pop(heapq.heappop(heap))

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
                heapq.heappush(self._ready[fifo[0].signature], nxt)
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
        self._ready.clear()
        self._pending.clear()
