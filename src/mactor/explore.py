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

Each step is derived, judged and applied once.  A label the search
applies was just given by ``object_step`` or ``enabled_steps`` on the same
state, so it is applied without the public ``step``'s check that it is
enabled.  A run that stops at its object's next step hands that step to
the state where it ends, with whether it is safe and, when its successor
faults, that successor; expanding the end state then asks neither
``object_step`` nor ``is_safe`` again, and its scan of ``enabled_steps``
for a safe step skips the one already judged unsafe.

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
neither keyed nor stored either; the run goes on from it at once, through
the same helper as the run that starts at a stored state, and its end is
stored with the full expansion's label and the run's labels.  Stored, that
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
# The search applies its labels unchecked (see above), and makes every
# successor through this name, which perfbench's layers.py patches.
from .interp import _apply as step
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


def _safe_run(
    config: Configuration,
    label: StepLabel,
    succ: Configuration,
    budget: int,
    select_fn: Callable,
) -> tuple[tuple[StepLabel, ...], Configuration, Optional[tuple]]:
    """The run of safe steps that ``label``, a safe step of ``config`` with
    the successor ``succ``, begins, the state it ends in, and what the run
    learnt of that state: the same object steps on while its next step is
    safe, at most ``budget`` steps in all.  The run stops before a step
    whose successor faults, and after the COND-TRUE of a ``while``, so no
    cycle lies inside it.

    When the run stopped at the object's next step, the answer is that
    step (or None), whether it is safe, and its faulted successor, if it
    was taken: ``(label, safe, faulted)``.  The end state's expansion
    starts from it and asks neither ``object_step`` nor ``is_safe`` again.
    A run cut by the budget or at a loop's back edge did not ask, and its
    answer is None."""
    run = [label]
    while len(run) < budget and not (
        label.rule == "COND-TRUE"
        and type(config.threads[label.obj.id][-1].point.head) is While
    ):
        label = object_step(succ, label.actor, label.obj, select_fn)
        if label is None or not is_safe(succ, label):
            return tuple(run), succ, (label, False, None)
        after = step(succ, label)
        if after.fault is not None:
            return tuple(run), succ, (label, True, after)
        run.append(label)
        config, succ = succ, after
    return tuple(run), succ, None


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
    object takes after it (:func:`_safe_run`) are taken alone, and only
    the run's end is stored, at this state's distance plus the run's
    length.  The run ends at the object's first step that is missing,
    unsafe or faulting, after a loop's back edge, or at the depth bound.
    This state gets full expansion instead when the run's first step
    faults or its end was already reached at a distance no greater than
    this state's.  A run kept alone then always ends at a greater
    distance, and no cycle goes to a greater distance on every edge, so
    every cycle keeps a fully expanded state.  A full expansion drops the
    SCHED-MSGs of interchangeable objects but the lowest-id one's, so the
    terminals are those of the full search up to renaming such objects.
    Each of its successors asks its mover for the next step at once, and
    when that step is safe the run goes on from the successor, which is
    stored only when the run's first step faults or its end fails the
    proviso.
    The labels the search applies come from ``object_step`` or
    ``enabled_steps`` on the same state, so they are not derived again
    to check them, and each successor is made once.
    """
    if depth <= 0:
        raise ValueError("depth must be positive")
    report = ExploreReport(states=0)
    root_key = config.canonical()
    # key -> (parent key, the labels from the parent, distance); the root
    # has no parent
    parents: dict = {root_key: (None, (), 0)}
    # (state, key, distance, the last label that produced it, what is known
    # of its mover's next step, (label, safe, successor), or None)
    frontier: deque = deque([(config, root_key, 0, None, None)])

    def trace_to(key) -> tuple[StepLabel, ...]:
        runs: list = []
        while key is not None:
            key, run, _ = parents[key]
            runs.append(run)
        return tuple(label for run in reversed(runs) for label in run)

    def run_on(parent, before: tuple, state, dist: int, label):
        # Takes label, a safe step of state at distance dist, and the run
        # of safe steps it begins, and stores the run's end as reached
        # from parent by the labels before and then the run's, unless it
        # was already seen.  None when that is all state needs; else the
        # step's successor, and state needs full expansion: the successor
        # faults, or the end was already reached at a distance no greater
        # than state's (the proviso).  An end seen at a greater distance
        # closes a diamond.
        succ = step(state, label)
        if succ.fault is not None:
            return succ
        run, end, answer = _safe_run(state, label, succ, depth - dist, select_fn)
        end_key = end.canonical()
        seen = parents.get(end_key)
        if seen is not None:
            return None if seen[2] > dist else succ
        parents[end_key] = (parent, before + run, dist + len(run))
        frontier.append((end, end_key, dist + len(run), run[-1], answer))
        return None

    while frontier:
        current, key, dist, mover, known = frontier.popleft()
        report.states += 1
        labels = picked = None
        if known is not None:
            pick, safe, picked = known
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
        # Ample set: a run of safe steps alone, unless its first successor
        # is faulted, a dead end that would hide the other objects' faults,
        # or the proviso fails.  A known successor of the pick means that
        # its run was tried when this state was made, and failed so.
        if pick is not None:
            if picked is None:
                picked = run_on(key, (), current, dist, pick)
                if picked is None:
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
            succ = picked if label == pick else step(current, label)
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
            # A successor whose mover steps on safely is not stored: the
            # run goes on from it, unless it faults or fails the proviso.
            answer = None
            if dist + 1 < depth:
                after = object_step(succ, label.actor, label.obj, select_fn)
                if after is None or not is_safe(succ, after):
                    answer = (after, False, None)
                else:
                    made = run_on(key, (label,), succ, dist + 1, after)
                    if made is None:
                        continue
                    answer = (after, True, made)
            succ_key = succ.canonical()
            if succ_key in parents:
                continue
            parents[succ_key] = (key, (label,), dist + 1)
            frontier.append((succ, succ_key, dist + 1, label, answer))
    return report
