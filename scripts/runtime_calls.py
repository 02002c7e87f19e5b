"""Python-level calls into mactor, and thread switches, per message on
the bank workloads.

    python3 scripts/runtime_calls.py

Runs one closed-loop stream of each of perfbench's three bank shapes
(``perfbench/workloads.py``: bank-uniform, bank-hotkey, bank-rpc; seed 1)
on a fresh actor of two ``BankTeller`` workers, with this process pinned to
one CPU and a profile hook on every thread that counts each call of a
Python function defined under ``src/mactor``: the runtime, the scheduler
and the teller bodies in ``mactor.bank``.  A count moves only when the code
does, not with the machine's load, so it can show a change to the
per-message path that a timing on a shared machine would blur; which thread
runs a message can still vary, so expect the last digit to move.  Prints a
markdown table of calls per message, split by module, and of the process's
context switches per message (voluntary plus involuntary, all threads, from
``resource.getrusage`` around the actor's life), then one of calls per
message by function (``module.qualified_name``; the calls of functions
under 0.005 per message in every shape are summed as "other"), so the
frames a message pays can be read without a profiler; exits 1 if a reply or the final
balances differ from the benchmark's sequential replay.
"""

from __future__ import annotations

import os
import resource
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from mactor import BankTeller, MacActor  # noqa: E402
from workloads import (  # noqa: E402
    INITIAL_BALANCE,
    WORKLOADS,
    drive,
    make_requests,
    replay,
    same_reply,
)

SEED = 1
REQUESTS = 2_000  # per shape
SHAPES = ("bank-uniform", "bank-hotkey", "bank-rpc")
MODULES = ("runtime", "scheduler", "bank")
PACKAGE = str(ROOT / "src" / "mactor") + os.sep


def switches() -> int:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_nvcsw + usage.ru_nivcsw


def count_calls(workload: str) -> tuple[Counter, int, bool]:
    """Calls per function of mactor, keyed ``module.qualified_name``, and
    the process's context switches while one stream of ``workload`` runs,
    and whether every reply and the final book match the replay."""
    spec = WORKLOADS[workload]
    stream = make_requests(spec.accounts, REQUESTS, f"{SEED}/0")
    want_replies, want_book = replay(spec.accounts, stream)
    book = {acc: INITIAL_BALANCE for acc in range(1, spec.accounts + 1)}
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE):
                calls[code] += 1

    # the hook is read when a thread starts, so set it before the workers do
    threading.setprofile(profile)
    sys.setprofile(profile)
    before = switches()
    try:
        actor = MacActor(lambda: BankTeller(book), workers=spec.workers)
        replies = drive(actor, stream, spec.outstanding)[4]
        actor.shutdown(drain=True)
    finally:
        switched = switches() - before
        sys.setprofile(None)
        threading.setprofile(None)
    correct = all(map(same_reply, replies, want_replies)) and book == want_book
    by_name = Counter()
    for code, n in calls.items():
        by_name[f"{code.co_filename[len(PACKAGE) : -3]}.{code.co_qualname}"] += n
    return by_name, switched, correct


def main() -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(f"seed {SEED}, {REQUESTS} requests per shape, two workers, one CPU")
    print()
    print("| workload | calls/msg | " + " | ".join(MODULES) + " | switches/msg |")
    print("|---|---|" + "---|" * len(MODULES) + "---|")
    ok = True
    counted = {}
    for workload in SHAPES:
        calls, switched, correct = counted[workload] = count_calls(workload)
        ok = ok and correct
        per_module = Counter()
        for name, n in calls.items():
            per_module[name.partition(".")[0]] += n
        shares = " | ".join(f"{per_module[m] / REQUESTS:.2f}" for m in MODULES)
        print(
            f"| {workload} | {sum(calls.values()) / REQUESTS:.2f} | {shares} "
            f"| {switched / REQUESTS:.2f} |"
        )
        if not correct:
            print(f"{workload}: replies or balances differ from the replay", file=sys.stderr)
    print()
    print("| function | " + " | ".join(SHAPES) + " |")
    print("|---|" + "---|" * len(SHAPES))
    # calls that round to 0.00 in every shape (set-up and shutdown) share a row
    other = Counter()
    names = set().union(*(calls for calls, *_ in counted.values()))
    for name in sorted(names, key=lambda n: (MODULES.index(n.partition(".")[0]), n)):
        per_msg = [counted[w][0][name] / REQUESTS for w in SHAPES]
        if max(per_msg) < 0.005:
            other.update({w: counted[w][0][name] for w in SHAPES})
            continue
        print(f"| {name} | " + " | ".join(f"{n:.2f}" for n in per_msg) + " |")
    print("| other | " + " | ".join(f"{other[w] / REQUESTS:.2f}" for w in SHAPES) + " |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
