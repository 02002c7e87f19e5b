"""Pins ``mactor.__all__``, so the top-level surface grows only on purpose."""

import mactor

PUBLIC = {
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
    "sync_set_of",
    "synced",
}

# What perfbench/workloads.py imports from the package.
PERFBENCH_IMPORTS = {
    "BankTeller",
    "FutureFailed",
    "MacActor",
    "explore_all",
    "initial_config",
    "parse_program",
}


def test_all_is_the_agreed_surface():
    assert len(mactor.__all__) == len(set(mactor.__all__)) == 32
    assert set(mactor.__all__) == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in mactor.__all__ if not hasattr(mactor, name)]
    assert not missing


def test_perfbench_imports_are_public():
    assert PERFBENCH_IMPORTS <= set(mactor.__all__)
