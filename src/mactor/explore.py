"""Exhaustive interleaving exploration with invariant checking.

Breadth-first search over :func:`mactor.interp.enabled_steps`, deduplicating
states by :meth:`Configuration.canonical`: one small interned number per
slot of the state's heap, threads and futures, which are tuples indexed by
id (hash-consing), and a successor's key is its nearest keyed ancestor's
with only the slots written since re-keyed.  So keying a successor costs
about what the step changed.  Values are keyed with their types, so a
state holding ``True`` is not merged with one holding ``1``.  Two
invariants are checked along the way:

* lock disjointness: inside every group, the lock sets held by distinct
  objects never intersect;
* dispatch order: a message never starts while an earlier-queued message
  with an overlapping sync set is still waiting in the same queue.

Exploration stops at the first violation and reports the trace that exposed
it.  ``select_fn`` is injectable so a deliberately broken selection rule can
be shown to trip the checks.

A terminal that is not faulted but in which an object still waits on a
``get``, or a queue still holds a message, is deadlocked
(:func:`mactor.interp.stuck`); :attr:`ExploreReport.deadlocks` counts
them, as ``faults`` counts faulted ones.  Neither clears ``ok``, which
stays the verdict on the two invariants above: a deadlock is an outcome of
the program, reported beside its other terminals, not a broken guarantee
of the scheduler.  ``maci explore`` exits 4 on one when it found no
violation.

The search is reduced by ample sets (Godefroid, LNCS 1032, 1996): in each
state, a step that :func:`mactor.interp.is_safe` judges independent of
every other object's steps is expanded alone, and only otherwise is every
enabled step expanded.  Any safe step will do, and an object has at most
one step, so the object that took the step into a state is asked for its
step first when it is busy (:func:`mactor.interp.object_step`); an idle
one's step is a SCHED-MSG, which is never safe.
:func:`mactor.interp.enabled_steps` runs only when there is no such step
or it is not safe, or the state needs full expansion.  A label the search
applies was just given by ``object_step`` or ``enabled_steps`` on the
same state, so it is applied without the public ``step``'s check that it
is enabled.

A safe step kept alone does not stop there: the same object keeps
stepping while its next step is safe, and only the state where that run
ends is keyed and stored, so the states between, which have one successor
each, are neither keyed nor queued (statement merging, as in SPIN,
Holzmann, IEEE TSE 1997; Lipton, CACM 1975, for why a run of steps that
commute with everyone else may run atomically).  ``parents`` records the
end state with the whole run of labels, and a trace expands the runs
again.  A run ends at the first of these:

* the object's next step is missing or ``is_safe`` rejects it;
* the next step's successor faults; the run ends before it, so the state
  where that step is taken gets full expansion (below);
* the step just taken was the COND-TRUE of a ``while``, a loop's back
  edge, so no cycle lies inside a run;
* the run has reached the depth bound; a distance counts every step.

The states between are not built either.  Every step of a run is taken
by its rule in place on the object's frames
(:class:`mactor.interp._Frames`), and a stretch of steps writes its state
once: after a step that writes a field, a future or a queue, or where the
run ends (:func:`step`).  The steps before that one are local: they write
only their own thread, which is all of the state they change that a rule
or ``is_safe`` reads, so every step is judged against the state its
stretch started from, with the stretch's frames.

The first step of a run gets full expansion instead when its successor
faults, so that the other objects' faults are still reached, or when the
run's end was already reached at a distance no greater than the current
state's, so that a cycle cannot postpone them forever (the proviso for a
breadth-first search, Bošnački & Holzmann, SPIN 2005).  An end reached at
a greater distance was already stored, and the run closes a diamond.  That
is enough: a state's distance is fixed when it is first seen, so a run
kept alone always ends at a strictly greater distance than it starts; no
cycle goes to a greater distance on every edge, so every cycle keeps a
fully expanded state.  The full expansion takes that first step again.

Only the states where the search branches are stored: the root, the ends
of runs, and the successors of a full expansion whose mover has no safe
next step.  A successor of a full expansion whose mover does have one is
neither keyed nor stored either; the run goes on from it at once, in the
same :func:`step` call that made it, and its end is stored with the full
expansion's label and the run's labels.  Stored, that
successor would have expanded that same run alone, so the skipped state
adds nothing the run does not (the ample-set argument above).  It is
stored as before in the two cases where it would have been fully expanded
instead: the run's first step faults, or the run's end was already reached
at a distance no greater than the successor's; its expansion then takes
that run again.  Its proviso is judged when it is made; the end's
distance, fixed when the end was first seen, is the one the proviso would
have read later, and a run still ends at a greater distance than the
successor it starts from, so the argument above holds as it stands.

The dependency relation knows fields, values and locks (the ample set's
condition C1, Peled, CAV 1993).  A step that reads a field of ``this``
that can still change, or writes one, is safe only when no other object's
thread, no queued message and no message those may still send can write
what it reads, or touch what it writes, before it.  ``is_safe`` finds
their accesses by an abstract walk over the code they may still run:
locals, arguments and stable fields keep their values, so ``acc == 1``
and ``acc == 2`` take different branches.  The walk of a closure or a
queued message reads nothing of a state but the class and stable fields
of objects, which never change, so it is made once per closure or
message object and shared by every state that holds that object; what a
head statement reads is derived once per statement of the program.  A
queued message of the stepping object's own group whose sync set
overlaps that object's locks cannot start before the object returns,
so it is not asked; under a ``select_fn`` that ignores held locks it could,
but only into a state whose lock sets overlap, which the search reports as
a theorem1 violation.

The walks also record each send, with its target group or "any", and
each ``e?``.  A send is safe when nothing else can still send, since
future ids are global.  A message's ASYNC-RETURN, which resolves its
future and releases its object's locks, is safe when no message queued at
its group has a sync set that meets those locks, nothing else can still
send to that group or evaluate ``e?``, and its field reads are safe as
above: ``scheduler.select`` compares held entries only with queued sync
sets, so releasing them changes no other object's pick, and a ``get`` on
the future is disabled until the return, which stays enabled until taken.

A state that expands every enabled step is also reduced by symmetry (Ip &
Dill, FMSD 1996; combined with ample sets as in Emerson, Jha & Peled,
TACAS 1997).  In the paper's actors the workers of a group are usually
copies, hired by a loop of ``new C(..)`` and referred to by nothing.  Two
idle objects of a group are interchangeable when neither is the group's
first object (whose id names the group), their interned records (class,
group, interfaces, locks and fields) are equal, and no value of the state
refers to either: no environment, field, lock, queued argument, future or
``ValueLit`` head (:meth:`Configuration.mentioned`).  Swapping two such
objects maps the state to itself, so only the one with the lower id
schedules a message; the other would only reach a renamed copy of the
same states.

When the depth bound cuts nothing, the reduced search keeps every
non-faulted terminal state up to a renaming of interchangeable objects
(exactly, where no two objects were interchangeable), every fault
diagnostic and whether some state violates an invariant.  It drops
interleavings, so a faulted terminal may be reached with less progress of
the other objects, and the trace to a violation may differ.

Lock disjointness holds by induction along each path: the initial state
holds no locks, only SCHED-MSG takes any, no run of safe steps contains
one, and the search stops at the first violation.  So a SCHED-MSG can
only break it where the started message's sync set meets the locks
another member of its group holds: its object is idle, so it holds none,
and the step changes no other record.  That is all the check compares,
on the state the step is taken in, beside the dispatch-order check.  Both
read only that state and the started message, not the object, so an
expansion makes them once per group and priority, before the step.

``select_fn`` must be prefix-stable: when it picks a message from a queue,
it picks the same message from that queue with more messages appended.
``scheduler.select`` is, and so is any rule that scans in queue order and
looks only at the messages before the one it picks.  That is what makes
a send commute with every SCHED-MSG.  It must also be a function of its
arguments: :func:`mactor.interp.enabled_steps` asks it once per worker
class of a group and gives the pick to each idle object of the class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from .interp import Configuration, StepLabel, enabled_steps, is_safe, object_step, stuck
from .interp import _LOCAL_RULES, _RULES, _EvalFault, _Frames, _apply, _stmt_step
from .scheduler import select as default_select
from .syntax import While

@dataclass(frozen=True)
class Violation:
    kind: str  # "theorem1" | "order"
    detail: str
    trace: tuple[StepLabel, ...]


@dataclass
class ExploreReport:
    # states the search stored and expanded: the states where it branches;
    # the states inside a merged run of safe steps, and a full expansion's
    # successors that a run goes on from, are not stored, so not counted
    states: int
    terminals: list[Configuration] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def faults(self) -> int:
        """Faulted terminals met, by the reduced search."""
        return sum(c.fault is not None for c in self.terminals)

    @property
    def deadlocks(self) -> int:
        """Deadlocked terminals met, by the reduced search: not faulted,
        yet some object waits or some queue holds a message
        (:func:`mactor.interp.stuck`)."""
        return sum(c.fault is None and bool(stuck(c)) for c in self.terminals)


def _check_start(config: Configuration, label: StepLabel) -> Optional[tuple[str, str]]:
    """The invariant the SCHED-MSG ``label`` breaks, read on ``config``,
    the state it is taken in, as ``(kind, detail)``, or None.  "order": an
    earlier-queued message with an overlapping sync set still waits in the
    queue.  "theorem1": the started message's sync set meets a lock
    another member of its group holds; the started object is idle, so it
    holds none, and the step changes no other record.  Neither half reads
    the object, so one check serves every SCHED-MSG of a group and
    priority."""
    queue = config.queues[label.actor]
    chosen = next(m for m in queue if m.priority == label.priority)
    for earlier in queue:
        if earlier.priority < chosen.priority and not earlier.sync.isdisjoint(chosen.sync):
            return "order", (
                f"message '{chosen.method}' (priority {chosen.priority}) dispatched "
                f"before conflicting '{earlier.method}' (priority {earlier.priority})"
            )
    heap = config.heap
    for o in next(m for m in config.groups if m[0] == label.actor):
        if not chosen.sync.isdisjoint(heap[o[1]].locks):
            return "theorem1", f"overlapping lock sets inside group {label.actor}"
    return None


def _one_per_interchangeable(config: Configuration, labels):
    """``labels`` less every SCHED-MSG that an interchangeable object
    with a lower id also takes (the module describes when two objects are
    interchangeable).  An object's interned record holds its group, and
    equal records pick the same message, so the kept label makes the same
    check as the dropped ones.  Which objects a state refers to is
    asked only when two records are equal."""
    index = config.index
    heap = config.heap
    alike: dict = {}
    for label in labels:
        if label.rule == "SCHED-MSG" and label.obj != label.actor:
            alike.setdefault(index.object_id(heap[label.obj.id]), []).append(label.obj)
    if all(len(objs) < 2 for objs in alike.values()):
        return labels
    mentioned = config.mentioned()
    dropped = set()
    for objs in alike.values():
        dropped.update([o for o in objs if o.id not in mentioned][1:])
    return [label for label in labels if label.obj not in dropped]


def step(
    config: Configuration, label: StepLabel, budget: int
) -> tuple[tuple[StepLabel, ...], Configuration, Configuration]:
    """Takes ``label``, a step of ``config``, and the run of safe steps its
    object takes after it, at most ``budget`` steps in all:
    ``(labels, successor, end)``, where ``successor`` is the state
    ``label`` reaches and ``end`` the state the run ends in, ``successor``
    itself when the run is ``label`` alone.  The search makes every
    successor through this name, which perfbench's layers.py patches, and
    applies ``label`` unchecked (see the module docstring).

    The run stops before a step whose successor faults, and after the
    COND-TRUE of a ``while`` that follows ``label``, so no cycle lies
    inside it.  Each of its steps is judged against the state its stretch
    started from, with the stretch's frames, and taken by its rule on
    those frames (:class:`mactor.interp._Frames`); a stretch ends after a
    step that is not local, which writes a field, a future or a queue, and
    the frames are written back then, or where the run ends."""
    first = _apply(config, label)
    if first.fault is not None:
        return (label,), first, first
    run = [label]
    actor, obj = label.actor, label.obj
    # the state the stretch started from, and its mover's frames once a
    # step of the stretch changed them
    state, frames = first, None
    while len(run) < budget:
        thread = frames or state.threads[obj.id]
        top = thread[-1] if thread else None
        if top is None or top.point.head is None:  # no step, or a SCHED-MSG
            break
        label = _stmt_step(state, actor, obj, thread, top)  # None: a get that waits
        if label is None or not is_safe(state, label, thread):
            break
        back = label.rule == "COND-TRUE" and type(top.point.head) is While
        stretch = frames or _Frames(state, obj)
        try:
            _RULES[label.rule](stretch)
        except _EvalFault:  # a rule that faults leaves the frames as they were
            break
        run.append(label)
        if label.rule in _LOCAL_RULES:
            frames = stretch
        else:
            state, frames = stretch.written(), None
        if back:
            break
    return tuple(run), first, frames.written() if frames else state


def explore_all(
    config: Configuration,
    depth: int,
    *,
    select_fn: Callable = default_select,
) -> ExploreReport:
    """Search the configurations reachable within ``depth`` steps, with
    the reduction the module describes.

    Returns the number of distinct states the reduced search stored, the
    terminal configurations it met (quiescent or faulted), whether the
    depth bound cut anything off, and the first invariant violation found,
    if any, with its full trace.  ``faults`` and ``deadlocks`` count the
    distinct faulted and deadlocked terminals met, not those of the full
    search.  ``select_fn`` must be prefix-stable and a function of its
    arguments.

    Each state asks the object that moved into it, when that object is
    busy, for its one step (:func:`mactor.interp.object_step`) first.  If
    :func:`mactor.interp.is_safe` accepts that step, or else the first
    enabled step it accepts, that step and the run of safe steps its
    object takes after it (:func:`step`) are taken alone, and only the
    run's end is stored, at this state's distance plus the run's length.
    The run ends at the object's first step that is missing, unsafe or
    faulting, after a loop's back edge, or at the depth bound.
    This state gets full expansion instead when the run's first step
    faults or its end was already reached at a distance no greater than
    this state's.  A run kept alone then always ends at a greater
    distance, and no cycle goes to a greater distance on every edge, so
    every cycle keeps a fully expanded state.  A full expansion drops the
    SCHED-MSGs of interchangeable objects but the lowest-id one's, so the
    terminals are those of the full search up to renaming such objects.
    Each of its successors whose mover steps on safely is not stored: the
    run goes on from it in the same :func:`step` call, and only the run's
    end is stored, unless the run's first step faults or its end fails
    the proviso.
    """
    if depth <= 0:
        raise ValueError("depth must be positive")
    report = ExploreReport(states=0)
    root_key = config.canonical()
    # key -> (parent key, the labels from the parent, distance); the root
    # has no parent
    parents: dict = {root_key: (None, (), 0)}
    # (state, key, distance, the last label that produced it)
    frontier: deque = deque([(config, root_key, 0, None)])

    def trace_to(key) -> tuple[StepLabel, ...]:
        runs: list = []
        while key is not None:
            key, run, _ = parents[key]
            runs.append(run)
        return tuple(label for run in reversed(runs) for label in run)

    def ended(parent, run: tuple, dist: int, start: int, end) -> bool:
        # Stores end, reached by the labels of run from parent at distance
        # dist, unless it was already seen.  False when it was seen at a
        # distance no greater than start, the distance of the state the run
        # of safe steps starts from: that state then needs full expansion
        # (the proviso).  An end seen at a greater distance closes a diamond.
        end_key = end.canonical()
        seen = parents.get(end_key)
        if seen is not None:
            return seen[2] > start
        parents[end_key] = (parent, run, dist + len(run))
        frontier.append((end, end_key, dist + len(run), run[-1]))
        return True

    while frontier:
        current, key, dist, mover = frontier.popleft()
        report.states += 1
        threads = current.threads
        labels = None
        # an idle mover's step is a SCHED-MSG, which is never safe
        busy = mover is not None and threads[mover.obj.id]
        pick = object_step(current, mover.actor, mover.obj, select_fn) if busy else None
        if pick is None or not is_safe(current, pick, threads[pick.obj.id]):
            labels = enabled_steps(current, select_fn)
            if not labels:
                report.terminals.append(current)
                continue
            unsafe, pick = pick, None
            for label in labels:
                if label != unsafe and is_safe(current, label, threads[label.obj.id]):
                    pick = label
                    break
        if dist >= depth:
            report.truncated = True
            continue
        budget = depth - dist
        # Ample set: a run of safe steps alone, unless its first successor
        # is faulted, a dead end that would hide the other objects' faults,
        # or the proviso fails.  A run kept alone ends at a loop's back
        # edge, where step goes on after its first label.
        if pick is not None:
            head = threads[pick.obj.id][-1].point.head
            back = pick.rule == "COND-TRUE" and type(head) is While
            run, first, end = step(current, pick, 1 if back else budget)
            if first.fault is None and ended(key, run, dist, dist, end):
                continue
            if labels is None:
                labels = enabled_steps(current, select_fn)
        if len(labels) > 1:
            labels = _one_per_interchangeable(current, labels)
        started = set()  # (group, priority) of the messages checked
        for label in labels:
            if label.rule == "SCHED-MSG" and (label.actor, label.priority) not in started:
                started.add((label.actor, label.priority))
                problem = _check_start(current, label)
                if problem:
                    report.violations.append(Violation(*problem, trace_to(key) + (label,)))
                    return report
            run, succ, end = step(current, label, budget)
            # A successor whose mover stepped on safely is not stored: the
            # run's end is, unless the proviso fails; then the successor is.
            if ended(key, run, dist, dist + 1, end) or len(run) == 1:
                continue
            ended(key, (label,), dist, dist + 1, succ)
    return report
