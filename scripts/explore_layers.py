"""Where an ``explore_all`` search spends its time, layer by layer.

    python3 scripts/explore_layers.py

Runs ``explore_all`` under cProfile, with this process pinned to one CPU,
on perfbench's explore-bank program (seed 211) and on the largest variant
of ``scripts/explore_variants.py``.  For each it prints one markdown row:
the cumulative share of the search's time spent in
``Configuration.canonical`` (keying states), ``explore.step`` (making
successors and the merged runs of safe steps after them), the busy
objects' labels (``_stmt_step``, which ``object_step``, ``enabled_steps``
and a run ask), judging steps safe (``is_safe``), ``enabled_steps``, the
SCHED-MSG bookkeeping (``sched``: the idle objects' picks,
``_sched_step``, which builds a group's held set and asks
``scheduler.select``, the symmetry cut ``_one_per_interchangeable`` and
the check of a started message ``_check_start``), the
share spent in the search's own code (the
functions of ``mactor/explore.py`` not counting what they call, the loop
of a run among them), and per exploration the keys made, the steps
applied (calls of the rules of ``interp._RULES``), the states stored, and
the merged runs that ended at an already stored state, with the steps
they took.  A merged run is what a ``step`` call takes after its first
label; it ended at a stored state when its end's key had already been
made.  The shares overlap where one layer calls another: ``step`` asks for
labels and judges them, and so does ``enabled_steps``, which also picks.
Exits 1 if a search truncates, faults, finds a violation or disagrees with
the replay.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import mactor.explore  # noqa: E402
from mactor import explore_all, initial_config, parse_program  # noqa: E402
from mactor.interp import _RULES, Configuration  # noqa: E402
from workloads import (  # noqa: E402
    EXPLORE_DEPTH,
    WORKLOADS,
    ExploreSpec,
    explore_problems,
    explore_program,
)

# (name, spec, seed, explorations profiled)
CASES = (
    ("explore-bank", WORKLOADS["explore-bank"], 211, 40),
    ("4, (3,3), (1,2)", ExploreSpec(tellers=4, withdrawals=(3, 3), checks=(1, 2)), 1, 10),
)
# cumulative layers: (column, (file, function name) of each function)
LAYERS = (
    ("canonical", (("interp.py", "canonical"),)),
    ("step", (("explore.py", "step"),)),
    ("labels", (("interp.py", "_stmt_step"),)),
    ("is_safe", (("interp.py", "is_safe"),)),
    ("enabled_steps", (("interp.py", "enabled_steps"),)),
    (
        "sched",
        (
            ("interp.py", "_sched_step"),
            ("explore.py", "_one_per_interchangeable"),
            ("explore.py", "_check_start"),
        ),
    ),
)
# the profiler's key, (file, first line, name), of each rule's code, so
# that no other function of the same name counts as a step
RULES = {
    (code.co_filename, code.co_firstlineno, code.co_name)
    for code in (rule.__code__ for rule in _RULES.values())
}


def stored_runs(program) -> tuple:
    """(runs, steps): the merged runs of one search of ``program`` that
    ended at an already stored state, and the steps they took."""
    made: set = set()
    ends: dict = {}  # id of a run's end -> (the end, the steps of its run)
    runs = steps = 0
    real_step, real_key = mactor.explore.step, Configuration.canonical

    def step(config, label, *rest):
        result = real_step(config, label, *rest)
        labels, _, end = result
        if len(labels) > 1:
            ends[id(end)] = (end, len(labels) - 1)
        return result

    def canonical(config):
        nonlocal runs, steps
        key = real_key(config)
        if key in made and id(config) in ends:
            runs += 1
            steps += ends[id(config)][1]
        made.add(key)
        return key

    mactor.explore.step, Configuration.canonical = step, canonical
    try:
        explore_all(initial_config(program), EXPLORE_DEPTH)
    finally:
        mactor.explore.step, Configuration.canonical = real_step, real_key
    return runs, steps


def profile(spec: ExploreSpec, seed: int, explorations: int) -> tuple:
    """(cells of one row, problems) for ``explorations`` searches."""
    text, expected = explore_program(spec, seed)
    program = parse_program(text)
    profiler = cProfile.Profile()
    problems: list = []
    for _ in range(explorations):
        config = initial_config(program)
        profiler.enable()
        report = explore_all(config, EXPLORE_DEPTH)
        profiler.disable()
        problems += explore_problems(report, expected)
    stats = pstats.Stats(profiler).stats  # (file, line, name) -> (cc, nc, tt, ct, callers)

    def entries(filename: str, name: str) -> list:
        return [v for (f, _, n), v in stats.items() if f.endswith(filename) and n == name]

    total = sum(v[3] for v in entries("explore.py", "explore_all"))
    cells = [
        f"{sum(v[3] for f, n in names for v in entries(f, n)) / total:.1%}" for _, names in LAYERS
    ]
    own = os.path.join("mactor", "explore.py")
    search = sum(v[2] for (f, _, _), v in stats.items() if f.endswith(own))
    cells.append(f"{search / total:.1%}")
    keys = sum(v[1] for v in entries("interp.py", "canonical"))
    steps = sum(v[1] for key, v in stats.items() if key in RULES)
    cells += [f"{keys / explorations:.0f}", f"{steps / explorations:.0f}", f"{report.states}"]
    cells += map(str, stored_runs(program))
    return cells, problems


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    columns = [
        "program",
        *(c for c, _ in LAYERS),
        "search",
        "keys",
        "steps",
        "states",
        "stored-end runs",
        "their steps",
    ]
    print("| " + " | ".join(columns) + " |")
    print("|" + "---|" * len(columns))
    ok = True
    for name, spec, seed, explorations in CASES:
        cells, problems = profile(spec, seed, explorations)
        print(f"| {name} | " + " | ".join(cells) + " |", flush=True)
        for problem in problems[:1]:
            print(f"{name}: {problem}", file=sys.stderr)
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
