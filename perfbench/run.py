"""Benchmark of mactor's runtime and explorer.

    python3 perfbench/run.py --workload bank-uniform --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --smoke

Each run is a fresh child process (measure.py) confined to one CPU, with a
deadline: a child that overstays is killed and its run counts as failed.
For one workload the last output line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives the
end-to-end metrics.  ``--trace 1`` gives the per-layer metrics of a traced
run and writes a Chrome trace to perfbench/out/<workload>.trace.json.
``--workload all`` and ``--smoke`` print one such object per run, tagged
with its workload.  ``--smoke`` runs every workload, untraced and traced, on
small inputs in a few seconds.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bank-uniform", "bank-hotkey", "bank-rpc", "explore-bank")
FAILED_RUN = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
SMOKE_SECONDS = 0.2
# String hashes are salted per process unless this is set, and the salt
# changes the layout of the runtime's sets of sync entries: with it random,
# runs of bank-uniform on one seed spread twice as wide.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def deadline_s(seconds: float) -> float:
    """Time a child may take: its run, its last round, set-up and start-up."""
    return min(170.0, 2 * seconds + 30)


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "measure.py"),
        "--root", str(ROOT),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    if smoke:
        cmd.append("--smoke")
    if trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(out / f"{workload}.trace.json")]
    limit = deadline_s(seconds)
    try:
        # On timeout, run() kills the child and waits for it to end.
        proc = subprocess.run(
            cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, text=True, timeout=limit
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: run killed after its {limit:.0f} s deadline", file=sys.stderr)
        return FAILED_RUN
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: run exited with code {proc.returncode}", file=sys.stderr)
        return FAILED_RUN
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, every workload, both modes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mactor" / "__init__.py").is_file():
        print(f"no mactor sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    if args.smoke:
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    elif args.workload == "all":
        runs = [(w, args.trace) for w in WORKLOADS]
    else:
        result = measure(args.workload, args.seed, args.seconds, args.trace, smoke=False)
        print(json.dumps(result))
        return 0 if result["correct"] and not result["failed"] else 1

    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    ok = True
    for workload, trace in runs:
        result = measure(workload, args.seed, seconds, trace, args.smoke)
        ok = ok and result["correct"] and not result["failed"]
        print(json.dumps({"workload": workload, "trace": trace, **result}), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
