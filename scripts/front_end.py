"""Where parsing a ``.mac`` program spends its time, phase by phase.

    python3 scripts/front_end.py

With this process pinned to one CPU, reads three programs: perfbench's
explore-bank program (seed 211), ``tests/programs/bank_small.mac`` and the
largest program in ``tests/programs``.  For each it prints one markdown row:
its tokens (eof not counted) and AST nodes (every node object reached from
the ``Program``, a shared ``Int`` or ``Bool`` type once per use), then the
best of REPEATS runs, in microseconds, of ``tokenize``, of the recursive
descent that builds the nodes from the tokens, of ``resolve``, of the whole
``parse_program`` (the three together), and of ``initial_config``.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from mactor import initial_config, parse_program, resolve  # noqa: E402
from mactor.parser import _Parser, tokenize  # noqa: E402
from workloads import WORKLOADS, explore_program  # noqa: E402

REPEATS = 300
PROGRAMS = ROOT / "tests" / "programs"


def nodes(value) -> int:
    if isinstance(value, tuple):
        return sum(nodes(item) for item in value)
    if not dataclasses.is_dataclass(value):
        return 0
    return 1 + sum(nodes(getattr(value, field.name)) for field in dataclasses.fields(value))


def phases_us(source: str, program) -> list[float]:
    """Best of REPEATS runs of each phase, in microseconds.  Each round
    runs every phase once, so a slow spell of the machine reaches them all."""
    runs = (
        lambda _: tokenize(source),
        _Parser.program,
        lambda _: resolve(program),
        lambda _: parse_program(source),
        lambda _: initial_config(program),
    )
    best = [float("inf")] * len(runs)
    for _ in range(REPEATS):
        parser = _Parser(source, None)  # tokenized here, so descent is timed alone
        for i, run in enumerate(runs):
            start = time.perf_counter_ns()
            run(parser)
            best[i] = min(best[i], time.perf_counter_ns() - start)
    return [ns / 1e3 for ns in best]


def row(name: str, source: str) -> str:
    program = parse_program(source)
    tokens = tokenize(source).index("")
    times = " | ".join(f"{us:.0f}" for us in phases_us(source, program))
    return f"| {name} | {tokens} | {nodes(program)} | {times} |"


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    largest = max(PROGRAMS.glob("*.mac"), key=lambda path: path.stat().st_size)
    cases = (
        ("explore-bank", explore_program(WORKLOADS["explore-bank"], 211)[0]),
        ("bank_small", (PROGRAMS / "bank_small.mac").read_text(encoding="utf-8")),
        (largest.stem, largest.read_text(encoding="utf-8")),
    )
    columns = ["program", "tokens", "nodes", "tokenize", "descent", "resolve", "parse_program", "initial_config"]
    print("| " + " | ".join(columns) + " |")
    print("|" + "---|" * len(columns))
    for name, source in cases:
        print(row(name, source), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
