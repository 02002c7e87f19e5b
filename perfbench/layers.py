"""Per-layer tracing for the traced run of the mactor benchmark.

The benchmark wraps the program's public calls from here, without editing
the program: ``mactor.runtime.select`` for the runtime's dispatcher, the
``select_fn`` handed to ``explore_all``, and ``mactor.explore.enabled_steps``,
``mactor.explore.step`` and ``Configuration.canonical`` for the explorer.
The bank workloads add a ``BankTeller`` subclass and the client's own
timestamps around ``MacActor.send`` and ``Future.get`` (see workloads.py).

Spans are (name, start_ns, end_ns, parent, request id, thread id).  They
are kept in memory up to a limit and written once, at the end, as Chrome
trace-event JSON; the per-layer figures are computed from counters, so they
cover every round even when later spans are dropped.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import Counter
from unittest import mock

import mactor.explore
import mactor.runtime
from mactor.interp import Configuration
from mactor.scheduler import select

from workloads import median

ns = time.perf_counter_ns

# name -> unit; every traced run reports all of them, and a layer the
# workload does not exercise reads 0
PER_LAYER = {
    "runtime.send_us": "us",
    "runtime.queue_wait_us": "us",
    "runtime.resolve_us": "us",
    "runtime.dispatch_passes_per_msg": "ratio",
    "scheduler.select_calls_per_msg": "ratio",
    "scheduler.select_us": "us",
    "scheduler.select_share": "ratio",
    "bank.service_us": "us",
    "interp.enabled_steps_s": "s",
    "interp.step_s": "s",
    "interp.canonical_s": "s",
    "explore.states": "count",
    "explore.successors": "count",
    "explore.dup_ratio": "ratio",
    "explore.self_s": "s",
    "parser.parse_ms": "ms",
}

SPAN_LIMIT = 50_000  # a few rounds of any workload; ~8 MB of JSON


class Layers:
    """Counters and spans of one traced run, reset per round."""

    def __init__(self):
        self.spans: list = []
        self.dropped = 0
        self.round = -1
        self._stack: list = []
        self.begin_round()

    def begin_round(self) -> None:
        self.round += 1
        self.calls: Counter = Counter()
        self.time_ns: Counter = Counter()
        self.covered_ns = 0  # time in wrapped calls made directly by the root
        self.sched_msgs = 0

    def record(self, name, start, end, parent=None, rid=None, tid=None) -> None:
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((name, start, end, parent, rid, tid or threading.get_ident()))
        else:
            self.dropped += 1

    def timed(self, name: str, fn, root: str):
        """Wrap ``fn``: count calls, add inclusive time, record a span whose
        parent is the innermost wrapped call (``root`` when there is none).
        The stack is not shared between threads: wrap calls that one thread
        makes, the explorer's or the runtime dispatcher's."""
        stack = self._stack

        def call(*args, **kwargs):
            parent = stack[-1] if stack else root
            stack.append(name)
            start = ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = ns()
                stack.pop()
                self.calls[name] += 1
                self.time_ns[name] += end - start
                if not stack:
                    self.covered_ns += end - start
            # a runtime message carries the benchmark's request id on its account
            msg_args = getattr(result, "args", None)
            rid = getattr(msg_args[0], "rid", self.round) if msg_args else self.round
            self.record(name, start, end, parent, rid)
            return result

        return call

    # ---- runtime

    @contextlib.contextmanager
    def runtime(self):
        wrapped = self.timed("scheduler.select", mactor.runtime.select, "runtime.dispatch")
        with mock.patch.object(mactor.runtime, "select", wrapped):
            yield

    def bank_round(
        self, stream, teller_spans, sent, queued, asked, done, wall_ns, stats, scale
    ) -> dict:
        """Per-layer figures of one round; times are multiplied by ``scale``
        (see workloads.Pace)."""
        n = len(stream)
        send = [q - s for s, q in zip(sent, queued)]
        service, wait, resolve = [], [], []
        for rid, start, end, _ in teller_spans:
            service.append(end - start)
            wait.append(start - queued[rid])
            resolve.append(done[rid] - end)
        calls = self.calls["scheduler.select"]
        select_ns = self.time_ns["scheduler.select"]
        out = {
            "runtime.send_us": median(send) * scale / 1e3,
            "runtime.queue_wait_us": median(wait) * scale / 1e3,
            "runtime.resolve_us": median(resolve) * scale / 1e3,
            "bank.service_us": median(service) * scale / 1e3,
            "scheduler.select_calls_per_msg": calls / n,
            "scheduler.select_us": select_ns * scale / calls / 1e3 if calls else 0.0,
            "scheduler.select_share": select_ns / wall_ns,
        }
        if "dispatch_iterations" in stats:
            out["runtime.dispatch_passes_per_msg"] = stats["dispatch_iterations"] / n
        for rid in range(n):
            self.record("request", sent[rid], done[rid], None, rid)
            self.record("runtime.send", sent[rid], queued[rid], "request", rid)
            self.record("runtime.get", asked[rid], done[rid], "request", rid)
        for rid, start, end, tid in teller_spans:
            self.record(f"bank.{stream[rid][0]}", start, end, "request", rid, tid)
        return out

    # ---- explorer

    @contextlib.contextmanager
    def explorer(self):
        """Patch the explorer's calls into the machine; yields the wrapped
        select to pass as ``explore_all(select_fn=...)``."""
        root = "explore.explore_all"
        timed_step = self.timed("interp.step", mactor.explore.step, root)

        def step(config, label, *rest):
            if label.rule == "SCHED-MSG":
                self.sched_msgs += 1
            return timed_step(config, label, *rest)

        patches = (
            mock.patch.object(
                mactor.explore,
                "enabled_steps",
                self.timed("interp.enabled_steps", mactor.explore.enabled_steps, root),
            ),
            mock.patch.object(mactor.explore, "step", step),
            mock.patch.object(
                Configuration,
                "canonical",
                self.timed("interp.canonical", Configuration.canonical, root),
            ),
        )
        with contextlib.ExitStack() as stack:
            for patch in patches:
                stack.enter_context(patch)
            yield self.timed("scheduler.select", select, root)

    def explore_round(self, report, start: int, end: int, scale: float) -> dict:
        successors = self.calls["interp.step"]
        calls = self.calls["scheduler.select"]
        select_ns = self.time_ns["scheduler.select"]
        wall_ns = end - start
        self.record("explore.explore_all", start, end, None, self.round)
        return {
            "interp.enabled_steps_s": self.time_ns["interp.enabled_steps"] * scale / 1e9,
            "interp.step_s": self.time_ns["interp.step"] * scale / 1e9,
            "interp.canonical_s": self.time_ns["interp.canonical"] * scale / 1e9,
            "explore.states": report.states,
            "explore.successors": successors,
            "explore.dup_ratio": (successors - (report.states - 1)) / successors
            if successors
            else 0.0,
            "explore.self_s": (wall_ns - self.covered_ns) * scale / 1e9,
            "scheduler.select_calls_per_msg": calls / self.sched_msgs if self.sched_msgs else 0.0,
            "scheduler.select_us": select_ns * scale / calls / 1e3 if calls else 0.0,
            "scheduler.select_share": select_ns / wall_ns,
        }

    # ---- results

    def summary(self, rounds: list, parse_ns=()) -> dict:
        """Median over rounds of every per-layer figure; 0 for a layer the
        workload did not exercise."""
        out = {}
        for name, unit in PER_LAYER.items():
            values = [r[name] for r in rounds if name in r]
            out[name] = {"value": median(values), "unit": unit}
        out["parser.parse_ms"]["value"] = median(parse_ns) / 1e6
        return out

    def write_chrome(self, path) -> None:
        """Chrome trace-event JSON, viewable in Perfetto or chrome://tracing.
        Requests overlap on the client thread, so they are async events."""
        if not self.spans:
            return
        t0 = min(span[1] for span in self.spans)
        events = []
        for name, start, end, parent, rid, tid in self.spans:
            ts, dur = (start - t0) / 1e3, (end - start) / 1e3
            args = {"parent": parent, "rid": rid}
            if name == "request":
                common = {"name": name, "cat": "request", "id": rid, "pid": 1, "tid": tid}
                events.append({**common, "ph": "b", "ts": ts, "args": args})
                events.append({**common, "ph": "e", "ts": ts + dur})
            else:
                events.append(
                    {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": 1, "tid": tid, "args": args}
                )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "otherData": {"dropped_spans": self.dropped}}, fh)
