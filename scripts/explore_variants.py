"""State counts and times of ``explore_all`` on scaled bank programs.

    python3 scripts/explore_variants.py

Runs ``explore_all`` to completion on eight variants of perfbench's
generated bank program (``perfbench/workloads.py:explore_program``: tellers,
withdrawals on accounts 1 and 2, accounts checked), each with seed 1 and
best of 3 runs, with this process pinned to one CPU.  Every terminal must
hold the values of the benchmark's sequential replay.  Prints a markdown
table of states, terminals, time in milliseconds, states stored per second
and ``select`` calls per stored state (counted on one more run), the source
of README's ``explore_all`` table; exits 1 if a search truncates, faults,
finds a violation or disagrees with the replay.  The (3,3), (1,2) rows
from 2 to 16 tellers show how the cost per state grows with idle workers.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from mactor import explore_all, initial_config, parse_program  # noqa: E402
from mactor.scheduler import select  # noqa: E402
from workloads import EXPLORE_DEPTH, ExploreSpec, explore_problems, explore_program  # noqa: E402

SEED = 1  # amounts only; every seed gives the same state space
REPEATS = 3
VARIANTS = (
    ExploreSpec(tellers=2, withdrawals=(2, 1), checks=(2,)),
    ExploreSpec(tellers=3, withdrawals=(2, 1), checks=(2,)),
    ExploreSpec(tellers=2, withdrawals=(3, 2), checks=(1, 2)),
    ExploreSpec(tellers=3, withdrawals=(3, 2), checks=(1, 2)),
    ExploreSpec(tellers=2, withdrawals=(3, 3), checks=(1, 2)),
    ExploreSpec(tellers=4, withdrawals=(3, 3), checks=(1, 2)),
    ExploreSpec(tellers=8, withdrawals=(3, 3), checks=(1, 2)),
    ExploreSpec(tellers=16, withdrawals=(3, 3), checks=(1, 2)),
)


def measure(spec: ExploreSpec) -> tuple:
    """(report of the last run, best wall time in seconds, ``select``
    calls, problems)."""
    text, expected = explore_program(spec, SEED)
    program = parse_program(text)
    best = float("inf")
    for _ in range(REPEATS):
        config = initial_config(program)
        t0 = time.perf_counter()
        report = explore_all(config, EXPLORE_DEPTH)
        best = min(best, time.perf_counter() - t0)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return select(*args)

    explore_all(initial_config(program), EXPLORE_DEPTH, select_fn=counted)
    return report, best, calls, explore_problems(report, expected)


def label(spec: ExploreSpec) -> str:
    def group(values):
        return f"({','.join(map(str, values))})"

    return f"{spec.tellers}, {group(spec.withdrawals)}, {group(spec.checks)}"


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("| variant | states | terminals | time | states/s | selects/state |")
    print("|---|---|---|---|---|---|")
    ok = True
    for spec in VARIANTS:
        report, best, calls, problems = measure(spec)
        print(
            f"| {label(spec)} | {report.states:,} | {len(report.terminals)} "
            f"| {best * 1e3:.1f} ms | {report.states / best:,.0f} "
            f"| {calls / report.states:.2f} |",
            flush=True,
        )
        for problem in problems:
            print(f"{label(spec)}: {problem}", file=sys.stderr)
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
