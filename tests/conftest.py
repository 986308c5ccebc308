"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.obs import capture
from repro.core.quorums import MajorityQuorumSystem
from repro.core.vstoto import (
    RandomRunConfig,
    RandomRunDriver,
    VStoTOSystem,
)
from repro.ioa.actions import ActionKind
from repro.ioa.automaton import TransitionError

# Tier-1 is a gate: the same examples on every run, and no saved
# failure from an unrelated run deciding this one.  The nightly soak
# sets HYPOTHESIS_PROFILE=explore for fresh draws with the example
# database on.
settings.register_profile("gate", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "gate"))

PROCS3 = ("p1", "p2", "p3")
PROCS4 = ("p1", "p2", "p3", "p4")
PROCS5 = ("p1", "p2", "p3", "p4", "p5")


def old_automaton_step(self, action) -> None:
    """``Automaton.step`` as it was before ``Signature`` kept a table:
    membership in the union of the three name sets, then a scan of each.
    The reference ``tests/ioa`` and ``tests/core`` hold the one lookup
    to."""
    sig = self.signature
    if action.name not in (sig.inputs | sig.outputs | sig.internals):
        raise TransitionError(f"{self.name}: action {action} not in signature")
    if action.name in sig.inputs:
        kind = ActionKind.INPUT
    elif action.name in sig.outputs:
        kind = ActionKind.OUTPUT
    else:
        kind = ActionKind.INTERNAL
    if kind is not ActionKind.INPUT and not self.is_enabled(action):
        raise TransitionError(f"{self.name}: action {action} not enabled")
    self.apply(action)


def make_system(processors=PROCS3, quorums=None, **kwargs) -> VStoTOSystem:
    """A fresh VStoTO-system with majority quorums by default."""
    if quorums is None:
        quorums = MajorityQuorumSystem(processors)
    return VStoTOSystem(processors, quorums, **kwargs)


def run_random(
    processors=PROCS3,
    seed=0,
    max_steps=1500,
    max_bcasts=20,
    view_change_every=0,
    check_invariants=False,
    check_simulation=False,
    **config_kwargs,
) -> RandomRunDriver:
    """Build, run and return a driver over a fresh system."""
    system = make_system(processors)
    config = RandomRunConfig(
        seed=seed,
        max_steps=max_steps,
        max_bcasts=max_bcasts,
        view_change_every=view_change_every,
        **config_kwargs,
    )
    driver = RandomRunDriver(
        system,
        config,
        check_invariants=check_invariants,
        check_simulation=check_simulation,
    )
    driver.run()
    return driver


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Export traces of failed tests when REPRO_OBS_CAPTURE is set.

    Services built while the capture env var is on register themselves
    with ``repro.obs.capture``; on a call-phase failure their VS traces
    are written as JSONL + Chrome trace files under REPRO_TRACE_DIR so
    CI can upload them as artifacts.
    """
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        capture.export_failed(item.nodeid)


@pytest.fixture(autouse=True)
def _clear_obs_capture():
    """Keep capture registrations scoped to the test that created them."""
    capture.clear()
    yield
    capture.clear()


@pytest.fixture
def system3() -> VStoTOSystem:
    return make_system(PROCS3)


@pytest.fixture
def system5() -> VStoTOSystem:
    return make_system(PROCS5)
