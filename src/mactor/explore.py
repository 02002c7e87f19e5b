"""Exhaustive interleaving exploration with invariant checking.

Breadth-first search over :func:`mactor.interp.enabled_steps`, deduplicating
states by :meth:`Configuration.canonical`.  That key is a short flat tuple
of ints: every component of a state (statement, closure, object, group,
heap, queues, futures) is interned once per program into a small number
(hash-consing), a component is keyed the first time it appears and reused
by every later state that shares it, and a successor reuses its parent's
part for every dict the step did not replace.  So keying a successor costs
about what the step changed, and the visited set holds and compares flat
int tuples.  Values are keyed with their types, so a state holding ``True``
is not merged with one holding ``1``.  Two invariants are checked along the
way:

* lock disjointness: inside every group, the lock sets held by distinct
  objects never intersect;
* dispatch order: a message never starts while an earlier-queued message
  with an overlapping sync set is still waiting in the same queue.

Exploration stops at the first violation and reports the trace that exposed
it.  ``select_fn`` is injectable so a deliberately broken selection rule can
be shown to trip the checks.

The search is reduced by ample sets (Godefroid, LNCS 1032, 1996): in each
state, a step that :func:`mactor.interp.is_safe` judges independent of
every other object's steps is expanded alone, and only otherwise is every
enabled step expanded.  Any safe step will do, and an object has at most
one step, so the object that took the step into a state is asked for its
step first (:func:`mactor.interp.object_step`), and
:func:`mactor.interp.enabled_steps` runs only when that step is missing or
not safe, or needs full expansion.

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

The dependency relation knows fields, values and locks (the ample set's
condition C1, Peled, CAV 1993).  A step that reads a field of ``this``
that can still change, or writes one, is safe only when no other object's
thread, no queued message and no message those may still send can write
what it reads, or touch what it writes, before it.  ``is_safe`` finds
their accesses by one abstract walk over the code they may still run,
read from the state it judges: locals, arguments and stable fields
keep their values, so ``acc == 1`` and ``acc == 2`` take different
branches.  A queued message of the stepping object's own group whose sync
set overlaps that object's locks cannot start before the object returns,
so it is not asked; under a ``select_fn`` that ignores held locks it could,
but only into a state whose lock sets overlap, which the search reports as
a theorem1 violation.

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
SCHED-MSG takes locks, and no run of safe steps holds one, so lock
disjointness is checked on the root and on the successors of SCHED-MSG
steps, which are the first states with overlapping sets on any path.

``select_fn`` must be prefix-stable: when it picks a message from a queue,
it picks the same message from that queue with more messages appended.
``scheduler.select`` is, and so is any rule that scans in queue order and
looks only at the messages before the one it picks.  That is what makes
a send by the main block commute with every SCHED-MSG.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from .interp import Configuration, StepLabel, enabled_steps, is_safe, object_step
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
    # states the search stored and expanded; the states inside a merged
    # run of safe steps are not stored, so they are not counted
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


def _check_lock_disjointness(config: Configuration) -> Optional[str]:
    for actor, group in config.actors.items():
        lock_sets = [config.heap[o].locks for o in group]
        if len(lock_union(lock_sets)) != sum(map(len, lock_sets)):
            return f"overlapping lock sets inside group {actor}"
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
            alike.setdefault(index.object_id(heap[label.obj]), []).append(label.obj)
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
        and type(config.actors[label.actor][label.obj][-1].stmts[0]) is While
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
    if any, with its full trace.  ``faults`` counts the distinct faulted
    terminals met, not those of the full search.  ``select_fn`` must be
    prefix-stable.

    Each state asks the object that moved into it for its one step
    (:func:`mactor.interp.object_step`) first, unless the run that ended
    there already asked and carries the answer.  If
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
    # (state, key, distance, the last label that produced it, the answer
    # of the run that ended there, as _safe_run gives it, or None)
    frontier: deque = deque([(config, root_key, 0, None, None)])

    def trace_to(key) -> tuple[StepLabel, ...]:
        runs: list = []
        while key is not None:
            key, run, _ = parents[key]
            runs.append(run)
        return tuple(label for run in reversed(runs) for label in run)

    while frontier:
        current, key, dist, mover, known = frontier.popleft()
        report.states += 1
        # Only SCHED-MSG takes locks, so the first state with overlapping
        # lock sets on any path is the root or a SCHED-MSG successor.
        if mover is None or mover.rule == "SCHED-MSG":
            problem = _check_lock_disjointness(current)
            if problem:
                report.violations.append(Violation("theorem1", problem, trace_to(key)))
                return report
        labels = picked = None
        if known is not None:
            pick, safe, picked = known
        elif mover is not None:
            pick = object_step(current, mover.actor, mover.obj, select_fn)
            safe = pick is not None and is_safe(current, pick)
        else:
            pick, safe = None, False
        if not safe:
            labels = enabled_steps(current, select_fn)
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
        # or its end was reached at a distance no greater than this
        # state's, which could close a cycle that never takes the other
        # objects' steps (the proviso).  An end seen at a greater distance
        # closes only a diamond.
        if pick is not None:
            if picked is None:
                picked = step(current, pick)
            if picked.fault is None:
                run, end, answer = _safe_run(current, pick, picked, depth - dist, select_fn)
                end_key = end.canonical()
                seen = parents.get(end_key)
                if seen is None:
                    parents[end_key] = (key, run, dist + len(run))
                    frontier.append((end, end_key, dist + len(run), run[-1], answer))
                if seen is None or seen[2] > dist:
                    continue
            if labels is None:
                labels = enabled_steps(current, select_fn)
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
            succ_key = succ.canonical()
            if succ_key in parents:
                continue
            parents[succ_key] = (key, (label,), dist + 1)
            frontier.append((succ, succ_key, dist + 1, label, None))
    return report
