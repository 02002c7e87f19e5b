"""Before/after comparison of two revisions on perfbench's workloads, or
on the CPU time of one command.

    python3 scripts/ab.py PARENT CHANGE
    python3 scripts/ab.py PARENT CHANGE --workload bank-rpc --pairs 10 --json
    python3 scripts/ab.py PARENT CHANGE --command "maci explore --depth 400 scripts/pipeline.mac"

Exports both revisions with ``git archive`` into sibling directories named
``parent`` and ``change``, so their paths have the same length (``setup_s``
and ``peak_rss_mb`` follow the checkout's path).  Then, per workload, runs
alternating pairs of untraced ``perfbench/measure.py --root <tree>`` runs,
the parent first in odd-numbered pairs (counting from 1), every run with
the same seed and run length.  Both sides run the CHANGE revision's
``perfbench/measure.py``, so the benchmark code is identical and only
``src/`` differs.  Each run is a child process pinned to one CPU, as
``perfbench/run.py`` runs it, with ``PYTHONHASHSEED=0`` and the same
deadline.

Prints, per workload and end-to-end metric of ``BENCHMARK.json``, each
side's median with its quartiles (``statistics.quantiles``, inclusive),
the change/parent ratio of the medians and the pairs in which the change
was better (ties count for neither).  With ``--json`` that table goes to
stderr and stdout gets one ``BENCH_perfbench.json`` entry holding every
run.  Exits 1 if any run failed or read incorrect results.

With ``--command``, each run is that command instead, split as a shell
would split it and run in the tree's root with the tree's ``src`` as
``PYTHONPATH``, pinned to the same CPU.  A leading name from the tree's
``[project.scripts]`` (``maci``, ``macbench``) calls that entry point
with this interpreter.  The metrics are the child's CPU time (user plus
system, from ``RUSAGE_CHILDREN``) and its wall time.  Its output is
discarded.  A run that overstays its deadline fails, and the runs are
correct when every one of them exits with the status of the parent's
first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
# as perfbench/run.py sets them for its children
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}
FAILED_RUN = {"correct": False, "failed": 1, "metrics": {}}
# what --command compares, with the better direction of each
COMMAND_METRICS = [("cpu_s", "lower"), ("wall_s", "lower")]
COMMAND_DEADLINE_S = 600.0


def deadline_s(seconds: float) -> float:
    return min(170.0, 2 * seconds + 30)


def git(*args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, and nothing else, under ``dest``."""
    dest.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def measure(bench: Path, tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, str(bench / "measure.py"),
        "--root", str(tree),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]  # fmt: skip
    try:
        proc = subprocess.run(
            cmd, cwd=tree, env=CHILD_ENV, stdout=subprocess.PIPE, text=True,
            timeout=deadline_s(seconds),
        )  # fmt: skip
    except subprocess.TimeoutExpired:
        return FAILED_RUN
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return FAILED_RUN
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def command_argv(tree: Path, command: str) -> list:
    """``command`` as the argument list that runs it in ``tree``."""
    import tomllib  # Python 3.11 on; perfbench mode does without it

    argv = shlex.split(command)
    pyproject = tomllib.loads((tree / "pyproject.toml").read_text(encoding="utf-8"))
    scripts = pyproject["project"].get("scripts", {})
    if argv[0] in scripts:
        module, func = scripts[argv[0]].split(":")
        call = f"import sys; from {module} import {func}; sys.exit({func}())"
        return [sys.executable, "-c", call, *argv[1:]]
    return argv


def time_command(tree: Path, command: str) -> dict:
    """One run of ``command`` in ``tree``: its CPU and wall time, and its
    exit status."""
    cpu = min(os.sched_getaffinity(0))  # the CPU perfbench/measure.py pins to
    env = {**CHILD_ENV, "PYTHONPATH": str(tree / "src")}
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            command_argv(tree, command), cwd=tree, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}), timeout=COMMAND_DEADLINE_S,
        )  # fmt: skip
    except subprocess.TimeoutExpired:
        return FAILED_RUN
    wall = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    used = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {
        "correct": True,
        "failed": 0,
        "status": proc.returncode,
        "metrics": {"cpu_s": used, "wall_s": wall},
    }


def quartiles(values: list) -> list:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list, end_to_end: list) -> dict:
    """One workload's entry from its pairs of (parent, change) runs."""
    metrics = {}
    for name, better in end_to_end:
        pairs = [
            (p["metrics"][name], c["metrics"][name])
            for p, c in runs
            if name in p["metrics"] and name in c["metrics"]
        ]
        if len(pairs) < 2:  # too few for quartiles: runs failed
            continue
        parent_runs = [p for p, _ in pairs]
        change_runs = [c for _, c in pairs]
        won = sum(c > p if better == "higher" else c < p for p, c in pairs)
        metrics[name] = {
            "parent": statistics.median(parent_runs),
            "change": statistics.median(change_runs),
            "change_better_pairs": won,
            "parent_quartiles": quartiles(parent_runs),
            "change_quartiles": quartiles(change_runs),
            "parent_runs": parent_runs,
            "change_runs": change_runs,
        }
    sides = [run for pair in runs for run in pair]
    return {
        "pairs": len(runs),
        "correct": all(run["correct"] for run in sides),
        "failed": sum(run["failed"] for run in sides),
        "metrics": metrics,
    }


def number(x: float) -> str:
    return f"{x:,.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def table(entry: dict) -> str:
    if "timed" in entry:
        what = f"`{entry['timed']}`"
    else:
        what = f"seed {entry['seed']}, {entry['run_seconds']:g} s runs"
    lines = [
        f"parent {entry['parent']}, change {entry['commit']}: {what}, {entry['machine']}",
        "",
        "| workload | metric | parent (quartiles) | change (quartiles) | change/parent | change better |",
        "|---|---|---|---|---|---|",
    ]
    for workload, result in entry["workloads"].items():
        for name, m in result["metrics"].items():
            lines.append(
                f"| {workload} | {name} "
                f"| {number(m['parent'])} ({'–'.join(map(number, m['parent_quartiles']))}) "
                f"| {number(m['change'])} ({'–'.join(map(number, m['change_quartiles']))}) "
                f"| {m['change'] / m['parent']:.3f} | {m['change_better_pairs']}/{result['pairs']} |"
            )
    lines.append("")
    for workload, result in entry["workloads"].items():
        state = "all correct" if result["correct"] else "INCORRECT results"
        lines.append(f"{workload}: {2 * result['pairs']} runs, {state}, {result['failed']} failed")
    return "\n".join(lines)


def alternate(trees: dict, name: str, pairs: int, run: Callable, metric: str) -> list:
    """``pairs`` (parent, change) results of ``run(tree)``, the parent first
    in odd-numbered pairs; each pair's ``metric`` is printed as it ends."""
    runs = []
    for pair in range(1, pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        got = {side: run(trees[side]) for side in order}
        runs.append((got["parent"], got["change"]))
        values = " ".join(
            f"{side} {number(got[side]['metrics'].get(metric, float('nan')))}"
            for side in ("parent", "change")
        )
        print(f"{name} pair {pair}/{pairs}: {metric} {values}", file=sys.stderr, flush=True)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", help="revision to compare against")
    parser.add_argument("change", help="revision that claims the change")
    what = parser.add_mutually_exclusive_group()
    what.add_argument(
        "--workload", action="append", help="repeatable; all of BENCHMARK.json's if left out"
    )
    what.add_argument("--command", help="time this command in both trees instead")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="run length; BENCHMARK.json's if left out")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", action="store_true", help="print a BENCH_perfbench.json entry")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    parent, change = (
        git("rev-parse", "--short", f"{rev}^{{commit}}") for rev in (args.parent, args.change)
    )
    with tempfile.TemporaryDirectory(prefix="mactor-ab-") as scratch:
        trees = {side: Path(scratch) / side for side in ("parent", "change")}
        export(parent, trees["parent"])
        export(change, trees["change"])
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        end_to_end = [(m["name"], m["better"]) for m in bench["end_to_end"]]
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        entry = {
            "change": git("log", "-1", "--format=%s", change),
            "commit": change,
            "parent": parent,
            "command": shlex.join(
                ["python3", "scripts/ab.py", *(sys.argv[1:] if argv is None else argv)]
            ),
            **({"timed": args.command} if args.command else {"run_seconds": seconds, "seed": args.seed}),
            "machine": (
                f"{os.cpu_count()} CPUs, {platform.python_implementation()} "
                f"{platform.python_version()}, each run pinned to one CPU"
            ),
            "workloads": {},
        }
        if args.command:
            runs = alternate(
                trees, args.command, args.pairs,
                lambda tree: time_command(tree, args.command), "cpu_s",
            )  # fmt: skip
            status = runs[0][0].get("status")
            for run in (run for pair in runs for run in pair if not run["failed"]):
                run["correct"] = run["status"] == status
            entry["workloads"][args.command] = {"status": status, **summarize(runs, COMMAND_METRICS)}
        else:
            bench_code = trees["change"] / "perfbench"  # the same on both sides
            for workload in args.workload or [w["name"] for w in bench["workloads"]]:
                runs = alternate(
                    trees, workload, args.pairs,
                    lambda tree: measure(bench_code, tree, workload, args.seed, seconds),
                    "throughput_mps",
                )  # fmt: skip
                entry["workloads"][workload] = {
                    "seeds": [args.seed], "run_seconds": seconds, **summarize(runs, end_to_end)
                }  # fmt: skip
    print(table(entry), file=sys.stderr if args.json else sys.stdout)
    if args.json:
        print(json.dumps(entry, indent=1))
    ok = all(r["correct"] and not r["failed"] for r in entry["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
