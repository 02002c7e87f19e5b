"""Command line front ends.

``maci`` runs or exhaustively explores ``.mac`` programs; ``macbench``
measures the bank service across request volumes and worker counts, with
``bank.WINDOW`` requests in flight, and writes a CSV report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bank import Workload, run_scenario
from .explore import explore_all
from .interp import FutRef, FuelExhausted, initial_config, run, stuck
from .parser import ParseError, ResolutionError, parse_program
from .runtime import EventLog


def _fail(line: str):
    """End the program with one line on stderr and exit status 1."""
    print(line, file=sys.stderr)
    raise SystemExit(1)


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        _fail(f"{path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        _fail(f"{path}: {exc}")
    try:
        return parse_program(source, filename=path)
    except ParseError as exc:
        _fail(str(exc))
    except ResolutionError as exc:
        _fail(f"{path}: {exc}")


def _open_out(path: str):
    """``path`` opened for writing, before any work that would fill it
    starts, so that an unwritable path fails at once, in one line."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        _fail(f"{path}: {exc.strerror}")


def _print_futures(config) -> None:
    env = config.main_env()
    for name, value in sorted(env.items()):
        if isinstance(value, FutRef):
            print(f"  {name} = {config.futures[value.id]!r}")


def _positive(text: str) -> int:
    """A count of at least 1."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {count}")
    return count


def _non_negative(text: str) -> int:
    """A whole number of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {value}")
    return value


def _counts(text: str) -> list[int]:
    """A comma-separated list of counts, each at least 1."""
    counts = [int(v) for v in text.split(",")]
    if min(counts) < 1:
        raise argparse.ArgumentTypeError(f"every count must be at least 1, not {min(counts)}")
    return counts


def maci_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="maci", description="MAC program interpreter")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a program under a schedule policy")
    p_run.add_argument("file")
    p_run.add_argument("--policy", choices=("fifo", "random"), default="fifo")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--fuel", type=_positive, default=100_000)
    p_run.add_argument("--trace", help="write one JSON object per step to this file")

    p_explore = sub.add_parser(
        "explore",
        help="visit all interleavings up to a depth",
        description="Search the interleavings up to a depth, checking the two invariants. "
        "'states:' counts the states the reduced search stored, those where it branches: "
        "a run of safe steps stores only the state it ends in, also when it starts at a "
        "successor of a state that expands every step, and --depth counts every step. "
        "'states/s:' is that count over the search's time. 'terminals:' counts the end "
        "states met, with the faulted and the deadlocked (something still waits) among "
        "them. Exits 1 on a violation, else 4 when a terminal is deadlocked.",
    )
    p_explore.add_argument("file")
    p_explore.add_argument("--depth", type=_positive, default=1000)

    args = parser.parse_args(argv)
    program = _load(args.file)
    config = initial_config(program)

    if args.command == "run":
        trace_file = _open_out(args.trace) if args.trace else None
        try:
            final, trace = run(config, args.policy, seed=args.seed, fuel=args.fuel)
            exhausted = False
        except FuelExhausted as stop:
            final, trace = stop.config, stop.trace
            exhausted = True
        if trace_file is not None:
            with trace_file as fh:
                for label in trace:
                    fh.write(
                        json.dumps(
                            {
                                "rule": label.rule,
                                "actor": label.actor.id,
                                "object": label.obj.id,
                                "message": label.method,
                                "priority": label.priority,
                            }
                        )
                        + "\n"
                    )
        print(f"steps: {len(trace)}")
        if final.fault is not None:
            print(f"fault: {final.fault}")
            print("futures:")
            _print_futures(final)
            return 3
        if exhausted:
            print("status: fuel exhausted")
            return 2
        waiting = stuck(final)
        print("status: deadlock" if waiting else "status: quiescent")
        for line in waiting:
            print(f"  {line}")
        print("futures:")
        _print_futures(final)
        return 4 if waiting else 0

    started = time.perf_counter()
    report = explore_all(config, args.depth)
    elapsed = time.perf_counter() - started
    print(f"states: {report.states}")
    print(f"time: {elapsed:.3f} s")
    print(f"states/s: {report.states / elapsed:.0f}")
    print(
        f"terminals: {len(report.terminals)} "
        f"(faulted: {report.faults}, deadlocked: {report.deadlocks})"
    )
    print(f"truncated: {report.truncated}")
    for violation in report.violations:
        print(f"violation [{violation.kind}]: {violation.detail}")
        for label in violation.trace:
            print(f"  {label.rule} actor={label.actor.id} obj={label.obj.id}"
                  + (f" msg={label.method}#{label.priority}" if label.method else ""))
    if report.violations:
        return 1
    return 4 if report.deadlocks else 0


def macbench_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="macbench", description="bank service benchmark")
    parser.add_argument("--accounts", type=int, default=64)
    parser.add_argument("--requests", type=_counts, default="100000",
                        help="request volume; comma-separated for a sweep")
    parser.add_argument("--workers", type=_counts, default="1,2,4")
    parser.add_argument("--work-us", type=_non_negative, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="report.csv")
    parser.add_argument("--audit-log", help="write per-run JSONL logs using this stem")
    args = parser.parse_args(argv)

    # Every cell is built, and so checked, before the first one runs.  Every
    # cell keeps the seed, so reruns send identical request streams.
    try:
        cells = [
            Workload(accounts=args.accounts, requests=volume, seed=args.seed)
            for volume in args.requests
        ]
    except ValueError as exc:
        parser.error(str(exc))
    # Every output path is opened, and so checked, before the first cell too.
    audit_paths = {}
    if args.audit_log:
        stem = args.audit_log.removesuffix(".jsonl")
        for w in cells:
            for count in args.workers:
                path = audit_paths[w.requests, count] = f"{stem}-{w.requests}-{count}.jsonl"
                _open_out(path).close()
    out = _open_out(args.out)
    rows = ["volume,workers,time_ms,throughput_mps"]
    for w in cells:
        for count in args.workers:
            log = EventLog() if audit_paths else None
            report = run_scenario(w, count, work_us=args.work_us, event_log=log)
            if log is not None:
                log.write_jsonl(audit_paths[w.requests, count])
            rows.append(
                f"{w.requests},{count},{report.wall_ms:.3f},{report.throughput_mps:.1f}"
            )
    with out:
        out.write("\n".join(rows) + "\n")
    print("\n".join(rows))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(maci_main())
