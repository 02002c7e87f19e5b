"""Pins ``mactor.__all__``, so the top-level surface grows only on purpose,
and the names perfbench imports and patches."""

import importlib

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


# What perfbench/layers.py patches by name to time the layers.
PERFBENCH_PATCH_POINTS = (
    ("mactor.runtime", "select"),
    ("mactor.explore", "enabled_steps"),
    ("mactor.explore", "step"),
    ("mactor.interp", "Configuration.canonical"),
)


def test_perfbench_patch_points_exist():
    for module, path in PERFBENCH_PATCH_POINTS:
        target = importlib.import_module(module)
        for part in path.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module}.{path}"
