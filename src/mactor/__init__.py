"""mactor: multi-threaded actor groups with a shared, data-synchronized queue.

The package has three layers.  ``syntax``/``parser`` define a small actor
language whose method parameters can be marked as synchronized data.
``scheduler`` holds the selection rule that decides which queued message may
start, shared verbatim by the other two layers.  ``interp``/``explore`` run
programs under a small-step machine, either along one schedule or over all
interleavings with invariant checks; ``runtime``/``bank`` realize the same
scheduling with real threads and measure it.
"""

from .bank import (
    BankTeller,
    BenchReport,
    Mix,
    OrderingAudit,
    ReentrancyCanary,
    SimulatedWork,
    Workload,
    audit_events,
    iter_requests,
    read_jsonl,
    replay_oracle,
    run_scenario,
    sweep,
    write_csv,
)
from .explore import ExploreReport, Violation, explore_all
from .interp import (
    Configuration,
    FuelExhausted,
    FutRef,
    ObjRef,
    PENDING,
    StepLabel,
    StepNotEnabled,
    enabled_steps,
    initial_config,
    run,
    step,
)
from .parser import ParseError, ResolutionError, parse_program, resolve
from .runtime import (
    AuditSnapshot,
    EventLog,
    Future,
    FutureFailed,
    MacActor,
    ShutdownReport,
    synced,
)
from .scheduler import (
    EMPTY_LOCKS,
    QueuedMessage,
    SyncEntry,
    lock_union,
    select,
    sync_set_of,
)
from .syntax import Program, pretty_print

__all__ = [
    "AuditSnapshot",
    "BankTeller",
    "BenchReport",
    "Configuration",
    "EMPTY_LOCKS",
    "EventLog",
    "ExploreReport",
    "FuelExhausted",
    "FutRef",
    "Future",
    "FutureFailed",
    "MacActor",
    "Mix",
    "ObjRef",
    "OrderingAudit",
    "PENDING",
    "ParseError",
    "Program",
    "QueuedMessage",
    "ReentrancyCanary",
    "ResolutionError",
    "ShutdownReport",
    "SimulatedWork",
    "StepLabel",
    "StepNotEnabled",
    "SyncEntry",
    "Violation",
    "Workload",
    "audit_events",
    "enabled_steps",
    "explore_all",
    "initial_config",
    "iter_requests",
    "lock_union",
    "parse_program",
    "pretty_print",
    "read_jsonl",
    "replay_oracle",
    "resolve",
    "run",
    "run_scenario",
    "select",
    "step",
    "sweep",
    "sync_set_of",
    "synced",
    "write_csv",
]
