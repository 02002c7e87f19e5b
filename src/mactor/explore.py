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
state, a step :func:`mactor.interp.safe_step` finds independent of every
other object's steps is expanded alone, and only otherwise is every enabled
step expanded.  Any safe step will do, so the object that took the step
into a state is asked first (:func:`mactor.interp.object_steps`), and
:func:`mactor.interp.enabled_steps` runs only when that object has no safe
step or its safe step needs full expansion.  A safe step gets full
expansion when its successor faults, so that the other objects' faults are
still reached, or when its successor was already reached at a distance no
greater than the current state's, so that a cycle cannot postpone them
forever (the proviso for a breadth-first search, Bošnački & Holzmann, SPIN
2005).  That is enough: BFS has met every state at distance at most d+1
before it expands one at distance d, so a step kept alone always leads
exactly one layer deeper; a cycle cannot go deeper on every edge, so every
cycle keeps a fully expanded state.  A successor already one layer deeper
closes a diamond, not a cycle, and the step stays alone.

When the depth bound cuts nothing, the reduction keeps every non-faulted
terminal state, every fault diagnostic and whether some state violates an
invariant.  It drops interleavings, so a faulted terminal may be reached
with less progress of the other objects, and the trace to a violation may
differ.  Only SCHED-MSG takes locks, so lock disjointness is checked on the
root and on the successors of SCHED-MSG steps, which are the first states
with overlapping sets on any path.

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

from .interp import Configuration, StepLabel, enabled_steps, object_steps, safe_step, step
from .scheduler import lock_union, select as default_select

# The invariants explore_all can check; see the module docstring.
CHECKS = ("theorem1", "order")


@dataclass(frozen=True)
class Violation:
    kind: str  # "theorem1" | "order"
    detail: str
    trace: tuple[StepLabel, ...]


@dataclass
class ExploreReport:
    states: int
    terminals: list[Configuration] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    truncated: bool = False
    faults: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


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


def explore_all(
    config: Configuration,
    depth: int,
    *,
    select_fn: Callable = default_select,
    checks: tuple[str, ...] = CHECKS,
) -> ExploreReport:
    """Search the configurations reachable within ``depth`` steps, with
    the reduction the module describes.

    Returns the number of distinct states the reduced search visited, the
    terminal configurations it met (quiescent or faulted), whether the
    depth bound cut anything off, and the first invariant violation found,
    if any, with its trace.  ``faults`` counts the distinct faulted
    terminals met, not those of the full search.  ``select_fn`` must be
    prefix-stable.

    Each state asks the object that moved into it for a safe step first
    and expands that step alone, unless its successor faults or was
    already reached at a distance no greater than this state's.  A step
    kept alone then always leads one layer deeper, and no cycle goes
    deeper on every edge, so every cycle keeps a fully expanded state.

    ``checks`` names the invariants to check, a subset of ``CHECKS``; an
    unknown name raises ValueError rather than silently checking nothing.
    """
    if depth <= 0:
        raise ValueError("depth must be positive")
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ValueError(
            f"unknown check {', '.join(map(repr, unknown))}; known: {', '.join(CHECKS)}"
        )
    report = ExploreReport(states=0)
    root_key = config.canonical()
    # key -> (parent key, label, BFS distance); the root has no parent
    parents: dict = {root_key: (None, None, 0)}
    seen_terminal: set = set()
    # (state, key, distance, the label that produced it)
    frontier: deque = deque([(config, root_key, 0, None)])

    def trace_to(key) -> tuple[StepLabel, ...]:
        steps: list[StepLabel] = []
        key, label, _ = parents[key]
        while key is not None:
            steps.append(label)
            key, label, _ = parents[key]
        return tuple(reversed(steps))

    while frontier:
        current, key, dist, mover = frontier.popleft()
        report.states += 1
        # Only SCHED-MSG takes locks, so the first state with overlapping
        # lock sets on any path is the root or a SCHED-MSG successor.
        if "theorem1" in checks and (mover is None or mover.rule == "SCHED-MSG"):
            problem = _check_lock_disjointness(current)
            if problem:
                report.violations.append(Violation("theorem1", problem, trace_to(key)))
                return report
        labels = None
        pick = None
        if mover is not None:
            pick = safe_step(current, object_steps(current, mover.actor, mover.obj, select_fn))
        if pick is None:
            labels = enabled_steps(current, select_fn)
            if not labels:
                if key not in seen_terminal:
                    seen_terminal.add(key)
                    report.terminals.append(current)
                    if current.fault is not None:
                        report.faults += 1
                continue
            pick = safe_step(current, labels)
        if dist >= depth:
            report.truncated = True
            continue
        # Ample set: a safe step alone, unless its successor is faulted,
        # a dead end that would hide the other objects' faults, or was
        # reached at a distance no greater than this state's, which could
        # close a cycle that never takes the other objects' steps (the BFS
        # proviso).  A successor one layer deeper closes only a diamond.
        if pick is not None:
            picked = step(current, pick, select_fn)
            if picked.fault is None:
                seen = parents.get(picked.canonical())
                if seen is None or seen[2] > dist:
                    labels = (pick,)
            if labels is None:
                labels = enabled_steps(current, select_fn)
        for label in labels:
            if label.rule == "SCHED-MSG" and "order" in checks:
                problem = _check_dispatch_order(current, label)
                if problem:
                    report.violations.append(
                        Violation("order", problem, trace_to(key) + (label,))
                    )
                    return report
            succ = picked if label == pick else step(current, label, select_fn)
            succ_key = succ.canonical()
            if succ_key in parents:
                continue
            parents[succ_key] = (key, label, dist + 1)
            frontier.append((succ, succ_key, dist + 1, label))
    return report
