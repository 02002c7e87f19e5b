"""Command line front ends.

``maci`` runs or exhaustively explores ``.mac`` programs; ``macbench``
measures the bank service across request volumes and worker counts, with
``bank.WINDOW`` requests in flight, and writes a CSV report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from .bank import Mix, Workload, run_scenario
from .explore import CHECKS, explore_all
from .interp import FutRef, FuelExhausted, initial_config, run
from .parser import ParseError, ResolutionError, parse_program
from .runtime import EventLog


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        print(f"{path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(1)
    try:
        return parse_program(source, filename=path)
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        raise SystemExit(1)
    except ResolutionError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _print_futures(config) -> None:
    env = config.main_env()
    futures = config.futures
    for name, value in sorted(env.items()):
        if isinstance(value, FutRef):
            stored = futures.get(value)
            print(f"  {name} = {stored!r}")


def maci_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="maci", description="MAC program interpreter")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a program under a schedule policy")
    p_run.add_argument("file")
    p_run.add_argument("--policy", choices=("fifo", "random"), default="fifo")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--fuel", type=int, default=100_000)
    p_run.add_argument("--trace", help="write one JSON object per step to this file")

    p_explore = sub.add_parser("explore", help="visit all interleavings up to a depth")
    p_explore.add_argument("file")
    p_explore.add_argument("--depth", type=int, default=1000)
    p_explore.add_argument(
        "--check", default=",".join(CHECKS), help=f"comma-separated: {','.join(CHECKS)}"
    )

    args = parser.parse_args(argv)
    program = _load(args.file)
    config = initial_config(program)

    if args.command == "run":
        try:
            final, trace = run(config, args.policy, seed=args.seed, fuel=args.fuel)
            exhausted = False
        except FuelExhausted as stop:
            final, trace = stop.config, stop.trace
            exhausted = True
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as fh:
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
        print("status: quiescent")
        print("futures:")
        _print_futures(final)
        return 0

    checks = tuple(c for c in args.check.split(",") if c)
    started = time.perf_counter()
    try:
        report = explore_all(config, args.depth, checks=checks)
    except ValueError as exc:
        p_explore.error(str(exc))
    elapsed = time.perf_counter() - started
    print(f"states: {report.states}")
    print(f"time: {elapsed:.3f} s")
    print(f"states/s: {report.states / elapsed:.0f}")
    print(f"terminals: {len(report.terminals)} (faulted: {report.faults})")
    print(f"truncated: {report.truncated}")
    for violation in report.violations:
        print(f"violation [{violation.kind}]: {violation.detail}")
        for label in violation.trace:
            print(f"  {label.rule} actor={label.actor.id} obj={label.obj.id}"
                  + (f" msg={label.method}#{label.priority}" if label.method else ""))
    return 1 if report.violations else 0


def macbench_main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="macbench", description="bank service benchmark")
    parser.add_argument("--accounts", type=int, default=64)
    parser.add_argument("--requests", default="100000",
                        help="request volume; comma-separated for a sweep")
    parser.add_argument("--workers", default="1,2,4")
    parser.add_argument("--batch", type=int, default=10)
    parser.add_argument("--work-us", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--initial-balance", type=int, default=10_000)
    parser.add_argument("--mix-withdraw", type=float, default=0.4)
    parser.add_argument("--mix-deposit", type=float, default=0.4)
    parser.add_argument("--mix-transfer", type=float, default=0.1)
    parser.add_argument("--mix-check", type=float, default=0.1)
    parser.add_argument("--out", default="report.csv")
    parser.add_argument("--audit-log", help="write per-run JSONL logs using this stem")
    args = parser.parse_args(argv)

    volumes = [int(v) for v in str(args.requests).split(",")]
    workers = [int(v) for v in args.workers.split(",")]
    mix = Mix(args.mix_withdraw, args.mix_deposit, args.mix_transfer, args.mix_check)
    base = Workload(
        accounts=args.accounts,
        requests=volumes[0],
        batch=args.batch,
        mix=mix,
        seed=args.seed,
        initial_balance=args.initial_balance,
    )
    # Every cell keeps the seed, so reruns send identical request streams.
    cells = [dataclasses.replace(base, requests=volume) for volume in volumes]
    stem = None
    if args.audit_log:
        stem = args.audit_log[:-6] if args.audit_log.endswith(".jsonl") else args.audit_log
    rows = ["volume,workers,time_ms,throughput_mps"]
    for w in cells:
        for count in workers:
            log = EventLog() if stem else None
            report = run_scenario(w, count, work_us=args.work_us, event_log=log)
            if log is not None:
                log.write_jsonl(f"{stem}-{w.requests}-{count}.jsonl")
            rows.append(
                f"{w.requests},{count},{report.wall_ms:.3f},{report.throughput_mps:.1f}"
            )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    print("\n".join(rows))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(maci_main())
