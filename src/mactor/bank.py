"""Bank service on the actor pool, plus the benchmark and audit harness.

The service keeps a map of account balances shared by every teller in the
group.  Each operation locks the accounts it touches under label "a" (and
account creation serializes under label "c"), so conflicting requests run
one at a time and in send order while independent accounts proceed in
parallel.  The harness generates seeded workloads, drives them through the
actor from one closed-loop client, replays them sequentially as a
ground-truth oracle for every reply and the final balances, and audits the
runtime event log for interval disjointness and priority order.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .runtime import EventLog, MacActor, ShutdownReport, synced


class AuditError(Exception):
    pass


# --------------------------------------------------------------------------
# behavior

class ReentrancyCanary:
    """Detects two messages inside the same account at once (test builds)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._inside: set[int] = set()
        self.violations: list[str] = []

    def enter(self, *accounts: int) -> None:
        with self._lock:
            for acc in accounts:
                if acc in self._inside:
                    self.violations.append(f"account {acc} entered concurrently")
                self._inside.add(acc)

    def leave(self, *accounts: int) -> None:
        with self._lock:
            for acc in accounts:
                self._inside.discard(acc)


class BankTeller:
    """One worker's view of the shared account book.

    All tellers of an actor share the same ``accounts`` dict; the sync
    labels on the methods are what make that safe.  A withdrawal that would
    overdraw returns False and leaves the balance alone.  ``work_us`` adds
    a fixed sleep to each withdraw, deposit, transfer and check, standing
    in for real work.
    """

    def __init__(
        self,
        accounts: dict,
        *,
        work_us: int = 0,
        canary: Optional[ReentrancyCanary] = None,
    ):
        self.accounts = accounts
        self._work_s = work_us / 1_000_000
        self._canary = canary

    def _pause(self) -> None:
        # Sleeping yields the interpreter, so the simulated work of
        # different workers overlaps.
        if self._work_s > 0:
            time.sleep(self._work_s)

    @synced("c", None)
    def create_account(self, token: int, initial: int) -> int:
        del token  # the constant argument only carries the "c" lock
        number = len(self.accounts) + 1
        self.accounts[number] = initial
        return number

    @synced("a", None)
    def withdraw(self, account: int, amount: int) -> bool:
        if self._canary:
            self._canary.enter(account)
        try:
            self._pause()
            balance = self.accounts[account]
            if amount > balance:
                return False
            self.accounts[account] = balance - amount
            return True
        finally:
            if self._canary:
                self._canary.leave(account)

    @synced("a", None)
    def deposit(self, account: int, amount: int) -> int:
        if self._canary:
            self._canary.enter(account)
        try:
            self._pause()
            self.accounts[account] += amount
            return self.accounts[account]
        finally:
            if self._canary:
                self._canary.leave(account)

    @synced("a", "a", None)
    def transfer(self, src: int, dst: int, amount: int) -> bool:
        touched = (src, dst) if src != dst else (src,)
        if self._canary:
            self._canary.enter(*touched)
        try:
            self._pause()
            if amount > self.accounts[src]:
                return False
            self.accounts[src] -= amount
            self.accounts[dst] += amount
            return True
        finally:
            if self._canary:
                self._canary.leave(*touched)

    @synced("a")
    def check(self, account: int) -> int:
        if self._canary:
            self._canary.enter(account)
        try:
            self._pause()
            return self.accounts[account]
        finally:
            if self._canary:
                self._canary.leave(account)


# --------------------------------------------------------------------------
# workload

Request = tuple  # (method name, args tuple)

# Every workload cycles over its accounts in bursts of BATCH consecutive
# requests per account, so same-account requests are forced to respect
# their temporal order without the whole stream serializing on one account.
BATCH = 10
# Cumulative cut points of the request mix: 40% withdraw, 40% deposit, 10%
# transfer and 10% check.
CUTS = (0.4, 0.8, 0.9)
INITIAL_BALANCE = 10_000  # of every account

# Requests a client of run_scenario keeps in flight, as perfbench's drive
# does.  Bounding how far the sender gets ahead of the workers makes the
# measured throughput that of the service, not of the sender.
WINDOW = 64


@dataclass(frozen=True)
class Workload:
    """A seeded request stream over a fixed set of accounts."""

    accounts: int
    requests: int
    seed: int = 0

    def __post_init__(self):
        for name in ("accounts", "requests"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, not {getattr(self, name)}")
        if self.requests < self.accounts:
            raise ValueError(
                f"requests ({self.requests}) must be at least accounts ({self.accounts})"
            )


def iter_requests(w: Workload) -> Iterator[Request]:
    rng = random.Random(w.seed)
    issued = 0
    account = 0
    while issued < w.requests:
        account = account % w.accounts + 1
        for _ in range(min(BATCH, w.requests - issued)):
            amount = rng.randint(1, 100)
            roll = rng.random()
            if roll < CUTS[0]:
                yield ("withdraw", (account, amount))
            elif roll < CUTS[1]:
                yield ("deposit", (account, amount))
            elif roll < CUTS[2]:
                other = account
                if w.accounts > 1:
                    while other == account:
                        other = rng.randint(1, w.accounts)
                yield ("transfer", (account, other, amount))
            else:
                yield ("check", (account,))
            issued += 1


def replay_oracle(w: Workload) -> tuple[list, dict]:
    """The reply to every request and the final balances, running the
    request stream sequentially in send order.  Deliberately independent of
    the concurrent implementation."""
    balances = {acc: INITIAL_BALANCE for acc in range(1, w.accounts + 1)}
    replies = []
    for method, args in iter_requests(w):
        if method == "withdraw":
            account, amount = args
            ok = amount <= balances[account]
            if ok:
                balances[account] -= amount
            replies.append(ok)
        elif method == "deposit":
            account, amount = args
            balances[account] += amount
            replies.append(balances[account])
        elif method == "transfer":
            src, dst, amount = args
            ok = amount <= balances[src]
            if ok:
                balances[src] -= amount
                balances[dst] += amount
            replies.append(ok)
        elif method == "check":
            replies.append(balances[args[0]])
        else:
            raise ValueError(f"unknown request {method!r}")
    return replies, balances


# --------------------------------------------------------------------------
# audit

@dataclass
class OrderingAudit:
    keys: int
    intervals: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def read_jsonl(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def audit_events(events: Iterable[dict]) -> OrderingAudit:
    """Check the runtime event log per sync entry key.

    For every (label, value) pair: execution intervals (dispatch..complete)
    must be pairwise disjoint, and dispatch order must follow priority
    (which is enqueue order).
    """
    spans: dict[tuple, list[tuple]] = {}
    open_spans: dict[int, dict] = {}
    for ev in events:
        if ev["event"] == "dispatch":
            open_spans[ev["priority"]] = ev
        elif ev["event"] == "complete":
            started = open_spans.pop(ev["priority"], None)
            if started is None:
                continue
            for label, value in ev.get("sync", ()):
                spans.setdefault((label, value), []).append(
                    (ev["priority"], started["t"], ev["t"])
                )
    audit = OrderingAudit(keys=len(spans), intervals=sum(len(v) for v in spans.values()))
    for priority, ev in open_spans.items():
        audit.violations.append(f"message priority {priority} dispatched but never completed")
    for key, entries in spans.items():
        entries.sort()
        for (p1, s1, e1), (p2, s2, e2) in zip(entries, entries[1:]):
            if s2 < s1:
                audit.violations.append(
                    f"key {key}: priority {p2} started before priority {p1}"
                )
            if s2 < e1:
                audit.violations.append(
                    f"key {key}: intervals of priorities {p1} and {p2} overlap"
                )
    return audit


# --------------------------------------------------------------------------
# benchmark runs

@dataclass
class BenchReport:
    volume: int
    workers: int
    wall_ms: float
    throughput_mps: float
    shutdown: ShutdownReport
    ordering: Optional[OrderingAudit] = None


def run_scenario(
    w: Workload,
    workers: int,
    *,
    work_us: int = 0,
    event_log: Optional[EventLog] = None,
    canary: Optional[ReentrancyCanary] = None,
) -> BenchReport:
    """Run one workload on a fresh bank actor and verify it.

    One client keeps at most ``WINDOW`` requests in flight: it waits for
    the oldest future, then sends the next request.  Every future must
    resolve to the reply the sequential replay oracle gives its request,
    final balances must equal the oracle's, and (when an event log is
    attached) the ordering audit must be clean.  Any mismatch raises
    AuditError.
    """
    accounts = {acc: INITIAL_BALANCE for acc in range(1, w.accounts + 1)}
    actor = MacActor(
        lambda: BankTeller(accounts, work_us=work_us, canary=canary),
        workers=workers,
        event_log=event_log,
    )
    requests = list(iter_requests(w))
    started = time.perf_counter()
    futures = []
    for i, (method, args) in enumerate(requests):
        if i >= WINDOW:
            futures[i - WINDOW].get()
        futures.append(actor.send(method, args))
    shutdown = actor.shutdown(drain=True)
    wall = time.perf_counter() - started
    replies, expected = replay_oracle(w)
    for i, (fut, want) in enumerate(zip(futures, replies)):
        if not fut.done():
            raise AuditError("a future was left unresolved after drain")
        got = fut.get(timeout=0.001)
        # True == 1 in Python; a withdrawal that replies 1 is still wrong
        if type(got) is not type(want) or got != want:
            method, args = requests[i]
            raise AuditError(
                f"request {i}, {method}{args}, replied {got!r} where the "
                f"sequential replay replies {want!r}"
            )
    if accounts != expected:
        diff = {
            acc: (accounts.get(acc), expected[acc])
            for acc in expected
            if accounts.get(acc) != expected[acc]
        }
        raise AuditError(f"balances diverge from the sequential replay: {diff}")
    if canary is not None and canary.violations:
        raise AuditError(f"reentrancy canary tripped: {canary.violations[:3]}")
    ordering = None
    if event_log is not None:
        ordering = audit_events(event_log.events())
        if not ordering.ok:
            raise AuditError(f"ordering audit failed: {ordering.violations[:3]}")
    return BenchReport(
        volume=w.requests,
        workers=workers,
        wall_ms=wall * 1000,
        throughput_mps=w.requests / wall if wall > 0 else float("inf"),
        shutdown=shutdown,
        ordering=ordering,
    )

