"""Pins ``mactor.__all__``, so the top-level surface grows only on purpose,
``MacActor.send``'s parameters, and the names perfbench imports and
patches."""

import importlib
import inspect
from collections import Counter
from unittest import mock

import mactor
import mactor.explore
from conftest import load_program
from mactor.interp import Configuration

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
    assert len(mactor.__all__) == len(set(mactor.__all__)) == 31
    assert set(mactor.__all__) == PUBLIC


def test_send_takes_only_a_method_and_its_arguments():
    # what a message locks comes from its method's @synced labels alone
    assert list(inspect.signature(mactor.MacActor.send).parameters) == ["self", "method", "args"]


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


def test_perfbench_patch_points_are_called():
    # perfbench times the explorer through these names; a search that made
    # successors or keys some other way would read 0 there.
    calls = Counter()
    stepped = []
    real_step = mactor.explore.step
    real_enabled = mactor.explore.enabled_steps
    real_canonical = Configuration.canonical
    real_evolve = Configuration.evolve

    def step(config, label, *rest):
        stepped.append((config, label))
        calls["inside step"] += 1
        try:
            return real_step(config, label, *rest)
        finally:
            calls["inside step"] -= 1

    def enabled_steps(*args):
        calls["enabled_steps"] += 1
        return real_enabled(*args)

    def canonical(config):
        calls["canonical"] += 1
        return real_canonical(config)

    def evolve(config, **changes):
        calls["evolve outside step"] += not calls["inside step"]
        return real_evolve(config, **changes)

    with mock.patch.object(mactor.explore, "step", step), mock.patch.object(
        mactor.explore, "enabled_steps", enabled_steps
    ), mock.patch.object(Configuration, "canonical", canonical), mock.patch.object(
        Configuration, "evolve", evolve
    ):
        report = mactor.explore_all(mactor.initial_config(load_program("bank_small")), 500)
    assert report.ok and report.states == 37
    assert calls["enabled_steps"] and calls["canonical"] and stepped
    # every successor is made through ``step``, and each exactly once
    assert calls["evolve outside step"] == 0
    assert len({(id(config), label) for config, label in stepped}) == len(stepped)
