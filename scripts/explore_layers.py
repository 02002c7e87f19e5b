"""Where an ``explore_all`` search spends its time, layer by layer.

    python3 scripts/explore_layers.py

Runs ``explore_all`` under cProfile, with this process pinned to one CPU,
on perfbench's explore-bank program (seed 211) and on the largest variant
of ``scripts/explore_variants.py``.  For each it prints one markdown row:
the cumulative share of the search's time spent in
``Configuration.canonical`` (keying states), ``_apply`` (making
successors), ``object_step``, ``is_safe`` and ``enabled_steps``, the share
spent in the search's own code (the functions of ``mactor/explore.py``,
not counting what they call), and per exploration the keys made, the
steps applied and the states stored.  The shares overlap where one layer
calls another: ``enabled_steps`` asks ``object_step``, and a merged run
calls ``object_step``, ``is_safe`` and ``_apply``.  Exits 1 if a search
truncates, faults, finds a violation or disagrees with the replay.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from mactor import explore_all, initial_config, parse_program  # noqa: E402
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
# cumulative layers: (column, file of the function, function name)
LAYERS = (
    ("canonical", "interp.py", "canonical"),
    ("_apply", "interp.py", "_apply"),
    ("object_step", "interp.py", "object_step"),
    ("is_safe", "interp.py", "is_safe"),
    ("enabled_steps", "interp.py", "enabled_steps"),
)


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
    cells = [f"{sum(v[3] for v in entries(f, n)) / total:.1%}" for _, f, n in LAYERS]
    own = os.path.join("mactor", "explore.py")
    search = sum(v[2] for (f, _, _), v in stats.items() if f.endswith(own))
    cells.append(f"{search / total:.1%}")
    for name in ("canonical", "_apply"):
        cells.append(f"{sum(v[1] for v in entries('interp.py', name)) / explorations:.0f}")
    cells.append(f"{report.states}")
    return cells, problems


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    columns = ["program", *(c for c, _, _ in LAYERS), "search", "keys", "steps", "states"]
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
