"""mactor: multi-threaded actor groups with a shared, data-synchronized queue.

The package has three layers.  ``syntax``/``parser`` define a small actor
language whose method parameters can be marked as synchronized data.
``scheduler`` holds the selection rule that decides which queued message may
start, shared verbatim by the other two layers.  ``interp``/``explore`` run
programs under a small-step machine, either along one schedule or over all
interleavings with invariant checks; ``runtime``/``bank`` realize the same
scheduling with real threads and measure it.

The bank benchmark harness (workloads, the replay oracle, the event-log
audit, ``run_scenario``) is imported from ``mactor.bank``; only its
``BankTeller`` behavior is exported here.
"""

from .bank import BankTeller
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
from .scheduler import QueuedMessage, SyncEntry, select
from .syntax import Program, pretty_print

__all__ = [
    "AuditSnapshot",
    "BankTeller",
    "Configuration",
    "EventLog",
    "ExploreReport",
    "FuelExhausted",
    "FutRef",
    "Future",
    "FutureFailed",
    "MacActor",
    "ObjRef",
    "PENDING",
    "ParseError",
    "Program",
    "QueuedMessage",
    "ResolutionError",
    "ShutdownReport",
    "StepLabel",
    "StepNotEnabled",
    "SyncEntry",
    "Violation",
    "enabled_steps",
    "explore_all",
    "initial_config",
    "parse_program",
    "pretty_print",
    "resolve",
    "run",
    "select",
    "step",
    "synced",
]
