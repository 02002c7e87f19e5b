"""One measured run of one workload, in a process confined to one CPU.

run.py starts this file as a child process, once per run, and kills it if it
overstays its deadline.  The child pins itself to a single CPU before any
thread exists (threads inherit the mask), imports mactor from the checkout's
``src`` directory, runs the workload and prints, as its last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

END_TO_END_UNITS = {
    "throughput_mps": "1/s",
    "latency_p50_us": "us",
    "latency_p90_us": "us",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, help="checkout holding src/mactor")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", help="where the traced run writes its Chrome trace")
    args = parser.parse_args(argv)

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    src = os.path.realpath(os.path.join(args.root, "src"))
    sys.path.insert(0, src)
    import mactor

    if not os.path.realpath(mactor.__file__).startswith(src + os.sep):
        print(f"mactor was imported from {mactor.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads

    layers = None
    if args.trace:
        from layers import Layers

        layers = Layers()
    result = workloads.run(
        args.workload, args.seed, args.seconds, smoke=args.smoke, layers=layers
    )
    for problem in result["problems"]:
        print(f"{args.workload}: check failed: {problem}", file=sys.stderr)

    if layers is None:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in result["metrics"].items()
        }
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": peak_kib / 1024, "unit": "MB"}
    else:
        metrics = result["metrics"]
        if args.trace_out:
            layers.write_chrome(args.trace_out)
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
