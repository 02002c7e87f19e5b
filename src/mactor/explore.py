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
step first (:func:`mactor.interp.object_step`), and
:func:`mactor.interp.enabled_steps` runs only when that step is missing or
not safe, or needs full expansion; it is handed that object's answer, so
each object is asked once per state.

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

The states between are not built either.  A run's local steps (those that
write only their own thread) are taken in place on the object's frames,
and the run's state is written once, where it ends or before a step that
writes a field, a future or a queue, which is taken through its rule
(:func:`step`).  A local step reads nothing its stretch of local steps
changed but its own frames, so it is judged against the state the stretch
started from.

Each step is derived, judged and applied once, but for a run that fails
the proviso from a full expansion's successor (below), which is taken
again when that successor is expanded.  A label the search applies was
just given by ``object_step`` or ``enabled_steps`` on the same state, so
it is applied without the public ``step``'s check that it is enabled.  A
run that stops at its busy object's next step hands that step to the
state where it ends, with whether it is safe and, when its successor
faults, that successor; expanding the end state then asks neither
``object_step`` nor ``is_safe`` again, and its scan of ``enabled_steps``
for a safe step skips the one already judged unsafe.  A run whose object
is idle at its end does not ask which message it would start: only an
end that is stored needs that answer, and its expansion asks.

The first step of a run gets full expansion instead when its successor
faults, so that the other objects' faults are still reached, or when the
run's end was already reached at a distance no greater than the current
state's, so that a cycle cannot postpone them forever (the proviso for a
breadth-first search, Bošnački & Holzmann, SPIN 2005).  An end reached at
a greater distance was already stored, and the run closes a diamond.  That
is enough: a state's distance is fixed when it is first seen, so a run
kept alone always ends at a strictly greater distance than it starts; no
cycle goes to a greater distance on every edge, so every cycle keeps a
fully expanded state.

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
at a distance no greater than the successor's.  Its proviso is judged when
it is made; the end's distance, fixed when the end was first seen, is the
one the proviso would have read later, and a run still ends at a greater
distance than the successor it starts from, so the argument above holds
as it stands.

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
the other objects, and the trace to a violation may differ.  Only
SCHED-MSG takes locks, no run of safe steps contains one, and the initial
state holds none, so lock disjointness is checked on the successors of
SCHED-MSG steps, which are the first states with overlapping sets on any
path, when they are made, since they need not be stored.

``select_fn`` must be prefix-stable: when it picks a message from a queue,
it picks the same message from that queue with more messages appended.
``scheduler.select`` is, and so is any rule that scans in queue order and
looks only at the messages before the one it picks.  That is what makes
a send commute with every SCHED-MSG.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from .interp import Configuration, StepLabel, enabled_steps, is_safe, object_step, stuck
from .interp import _LOCAL_RULES, _RULES, _EvalFault, _Frames, _apply, _safe_at, _stmt_label
from .scheduler import lock_union, select as default_select
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


def _check_lock_disjointness(config: Configuration) -> Optional[str]:
    for members in config.groups:
        lock_sets = [config.heap[o.id].locks for o in members]
        if len(lock_union(lock_sets)) != sum(map(len, lock_sets)):
            return f"overlapping lock sets inside group {members[0]}"
    return None


def _check_dispatch_order(config: Configuration, label: StepLabel) -> Optional[str]:
    queue = config.queues.get(label.actor, ())
    chosen = next((m for m in queue if m.priority == label.priority), None)
    if chosen is None:
        return None
    for earlier in queue:
        if earlier.priority < chosen.priority and earlier.sync & chosen.sync:
            return (
                f"message '{chosen.method}' (priority {chosen.priority}) dispatched "
                f"before conflicting '{earlier.method}' (priority {earlier.priority})"
            )
    return None


def _one_per_interchangeable(config: Configuration, labels):
    """``labels`` less every SCHED-MSG that an interchangeable object
    with a lower id also takes (the module describes when two objects are
    interchangeable).  An object's interned record holds its group, and
    equal records pick the same message, so the kept label makes the same
    order check as the dropped ones.  Which objects a state refers to is
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
    config: Configuration, label: StepLabel, budget: int, select_fn: Callable
) -> tuple[tuple[StepLabel, ...], Configuration, Configuration, Optional[tuple]]:
    """Takes ``label``, a step of ``config``, and the run of safe steps its
    object takes after it, at most ``budget`` steps in all:
    ``(labels, successor, end, answer)``, where ``successor`` is the state
    ``label`` reaches and ``end`` the state the run ends in.  The search
    makes every successor through this name, which perfbench's layers.py
    patches, and applies ``label`` unchecked (see the module docstring).

    ``label`` is applied through its rule.  The run stops before a step
    whose successor faults, and after the COND-TRUE of a ``while`` that
    follows ``label``, so no cycle lies inside it.  Its local steps are
    taken in place on the object's frames (:class:`mactor.interp._Frames`)
    and judged against the state the stretch started from, whose other
    threads, queues and heap they do not touch; the frames are written back
    once, at the end, or before a step that writes a field, a future or a
    queue, which ``is_safe`` then judges on the written state and its rule
    takes.

    When the run stopped at the object's next step, the answer is that
    step (or None), whether it is safe, and its faulted successor, if it
    was taken: ``(label, safe, faulted)``.  The end state's expansion
    starts from it and asks neither ``object_step`` nor ``is_safe`` again.
    A run cut by the budget or at a loop's back edge did not ask, nor did
    a ``label`` that faults, nor a run whose object is idle at its end or
    has ended the main block: it has no step, or a SCHED-MSG, which is
    never safe, and the end's expansion asks for it only if the end is
    stored.  Their answer is None."""
    first = _apply(config, label)
    if first.fault is not None:
        return (label,), first, first, None
    run = [label]
    actor, obj = label.actor, label.obj
    # the state the stretch of local steps started from, and its mover's
    # frames once a step of the stretch changed them
    state, frames, answer = first, None, None
    while len(run) < budget:
        thread = frames or state.threads[obj.id]
        top = thread[-1] if thread else None
        if top is None or top.point.head is None:  # no step, or a SCHED-MSG
            break
        label = _stmt_label(state, actor, obj, thread, top)  # None: a get that waits
        local = label is not None and label.rule in _LOCAL_RULES
        if label is None or local and not _safe_at(state, label, top):
            answer = (label, False, None)
            break
        back = label.rule == "COND-TRUE" and type(top.point.head) is While
        if local:
            frames = frames or _Frames(state, obj)
            try:
                _RULES[label.rule](frames)
            except _EvalFault as fault:
                end = frames.written()
                return tuple(run), first, end, (label, True, end.evolve(fault=fault.diagnostic))
        else:
            end = frames.written() if frames else state
            if not is_safe(end, label):
                return tuple(run), first, end, (label, False, None)
            state, frames = _apply(end, label), None
            if state.fault is not None:
                return tuple(run), first, end, (label, True, state)
        run.append(label)
        if back:
            break
    return tuple(run), first, frames.written() if frames else state, answer


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
    search.  ``select_fn`` must be prefix-stable.

    Each state asks the object that moved into it for its one step
    (:func:`mactor.interp.object_step`) first, unless the step that made
    it already asked and carries the answer.  If
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
    Each of its successors asks its mover for the next step at once, and
    when that step is safe the run goes on from the successor in the same
    :func:`step` call.  The successor is stored only when the run's first
    step faults or its end fails the proviso, and its run is then taken
    again when it is expanded.  The labels the search applies
    come from ``object_step`` or ``enabled_steps`` on the same state, so
    they are not derived again to check them.
    """
    if depth <= 0:
        raise ValueError("depth must be positive")
    report = ExploreReport(states=0)
    root_key = config.canonical()
    # key -> (parent key, the labels from the parent, distance); the root
    # has no parent
    parents: dict = {root_key: (None, (), 0)}
    # (state, key, distance, the last label that produced it, what is known
    # of its mover's next step, (label, safe, its faulted successor or
    # None), or None)
    frontier: deque = deque([(config, root_key, 0, None, None)])

    def trace_to(key) -> tuple[StepLabel, ...]:
        runs: list = []
        while key is not None:
            key, run, _ = parents[key]
            runs.append(run)
        return tuple(label for run in reversed(runs) for label in run)

    def ended(parent, run: tuple, dist: int, start: int, end, answer) -> bool:
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
        frontier.append((end, end_key, dist + len(run), run[-1], answer))
        return True

    while frontier:
        current, key, dist, mover, known = frontier.popleft()
        report.states += 1
        labels = picked = None
        if known is not None:
            pick, safe, faulted = known
            if faulted is not None:
                picked = ((pick,), faulted, faulted, None)
        elif mover is not None:
            pick = object_step(current, mover.actor, mover.obj, select_fn)
            safe = pick is not None and is_safe(current, pick)
        else:
            pick, safe = None, False
        # the mover's step, which enabled_steps need not derive again
        asked = None if mover is None else (mover.obj, pick)
        if not safe:
            labels = enabled_steps(current, select_fn, asked)
            if not labels:
                report.terminals.append(current)
                continue
            unsafe = pick
            pick = next(
                (label for label in labels if label != unsafe and is_safe(current, label)), None
            )
        if dist >= depth:
            report.truncated = True
            continue
        budget = depth - dist
        # Ample set: a run of safe steps alone, unless its first successor
        # is faulted, a dead end that would hide the other objects' faults,
        # or the proviso fails.  A known faulted successor of the pick means
        # that its run was tried when this state was made, and failed so.
        if pick is not None:
            if picked is None:
                picked = run, first, end, answer = step(current, pick, budget, select_fn)
                # step goes on after its first label even at a loop's back
                # edge, where a run kept alone ends; a full expansion of
                # this state takes the whole of it
                head = current.threads[pick.obj.id][-1].point.head
                if pick.rule == "COND-TRUE" and type(head) is While:
                    run, end, answer = run[:1], first, None
                if first.fault is None and ended(key, run, dist, dist, end, answer):
                    continue
            if labels is None:
                labels = enabled_steps(current, select_fn, asked)
        if len(labels) > 1:
            labels = _one_per_interchangeable(current, labels)
        for label in labels:
            if label.rule == "SCHED-MSG":
                problem = _check_dispatch_order(current, label)
                if problem:
                    report.violations.append(
                        Violation("order", problem, trace_to(key) + (label,))
                    )
                    return report
            result = picked if label == pick else step(current, label, budget, select_fn)
            run, succ, end, answer = result
            # Only SCHED-MSG takes locks, and the root holds none, so the
            # first state with overlapping lock sets on any path is a
            # SCHED-MSG successor.
            if label.rule == "SCHED-MSG":
                problem = _check_lock_disjointness(succ)
                if problem:
                    report.violations.append(
                        Violation("theorem1", problem, trace_to(key) + (label,))
                    )
                    return report
            # A successor whose mover stepped on safely is not stored: the
            # run's end is, unless the proviso fails; the successor is then
            # stored, and its run taken again when it is expanded.
            if len(run) > 1:
                if ended(key, run, dist, dist + 1, end, answer):
                    continue
                answer = (run[1], True, None)
            succ_key = succ.canonical()
            if succ_key in parents:
                continue
            parents[succ_key] = (key, (label,), dist + 1)
            frontier.append((succ, succ_key, dist + 1, label, answer))
    return report
