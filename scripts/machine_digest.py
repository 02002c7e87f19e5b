"""One sha256 over what the small-step machine does on the test programs.

    python3 scripts/machine_digest.py

For every program of ``tests/test_explore.py``'s ``_differential_programs``
(the bundled programs, the hand-written races and 150 generated ones),
under ``scheduler.select`` and under the tests' ``broken_select``, it
hashes what ``explore_all`` reports (states, truncation, faults, the
structural key of every terminal in the order met, and each violation's
kind, detail and trace) and the final state and trace of one ``run`` with
the random policy and a fixed seed.  It prints the program count and the
digest.  A refactor of the machine that changes none of this prints the
same digest before and after, so comparing two checkouts is one command in
each.

Sets print in an order that follows string hashing, so the script runs
itself again with ``PYTHONHASHSEED=0`` unless that is already set.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SEED = 0
RUN_FUEL = 2_000


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            dict(os.environ, PYTHONHASHSEED="0"),
        )
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from mactor import FuelExhausted, explore_all, initial_config, run
    from mactor.scheduler import select
    from test_explore import _differential_programs, broken_select, reference_key

    programs = list(_differential_programs())
    digest = hashlib.sha256()
    for select_fn in (select, broken_select):
        for name, program, depth in programs:
            report = explore_all(initial_config(program), depth, select_fn=select_fn)
            try:
                final, trace = run(
                    initial_config(program),
                    "random",
                    seed=RUN_SEED,
                    fuel=RUN_FUEL,
                    select_fn=select_fn,
                )
                exhausted = False
            except FuelExhausted as stop:
                final, trace, exhausted = stop.config, stop.trace, True
            record = (
                name,
                select_fn.__name__,
                report.states,
                report.truncated,
                report.faults,
                [reference_key(c) for c in report.terminals],
                [(v.kind, v.detail, v.trace) for v in report.violations],
                reference_key(final),
                trace,
                exhausted,
            )
            digest.update(repr(record).encode() + b"\n")
    print(f"programs: {len(programs)} (runs: {2 * len(programs)})")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
