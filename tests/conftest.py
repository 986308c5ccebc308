"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import re
import weakref
from pathlib import Path

import pytest
from hypothesis import settings

from repro.core.quorums import MajorityQuorumSystem
from repro.core.vstoto import (
    RandomRunConfig,
    RandomRunDriver,
    VStoTOSystem,
)
from repro.ioa.actions import ActionKind
from repro.ioa.automaton import TransitionError
from repro.membership.service import TokenRingVS
from repro.obs.live.stitch import stitch_sim, stitched_jsonl

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


# Post-mortem capture.  With REPRO_OBS_CAPTURE set (CI's tier-1 job
# sets it) every TokenRingVS a test builds is remembered, and when the
# test fails each one's stitched spans are written as JSONL under
# REPRO_TRACE_DIR (default trace-artifacts/), which CI uploads.
# Services are held weakly: capture changes no lifetime and
# no execution.
CAPTURE_ENV = "REPRO_OBS_CAPTURE"
DIR_ENV = "REPRO_TRACE_DIR"


class ServiceCapture:
    """Every TokenRingVS built while it is installed, and their export."""

    def __init__(self, monkeypatch):
        self._refs = refs = []
        build = TokenRingVS.__init__

        def __init__(service, *args, **kwargs):
            build(service, *args, **kwargs)
            refs.append(weakref.ref(service))

        monkeypatch.setattr(TokenRingVS, "__init__", __init__)

    def services(self):
        return [s for ref in self._refs if (s := ref()) is not None]

    def export(self, label, directory):
        """Write each service's spans for failed test ``label``;
        returns the paths written."""
        written = []
        slug = re.sub(r"[^A-Za-z0-9._-]+", "_", label).strip("_")[:120]
        for index, service in enumerate(self.services()):
            try:
                run = stitch_sim(service)
            except Exception:  # the export must not mask the test's failure
                continue
            base = Path(directory) / f"{slug}.{index}"
            base.parent.mkdir(parents=True, exist_ok=True)
            Path(f"{base}.jsonl").write_text(stitched_jsonl(run))
            written.append(f"{base}.jsonl")
        return written


def start_capture(monkeypatch):
    """A capture installed until the test ends, or None when the
    environment does not ask for one."""
    return ServiceCapture(monkeypatch) if os.environ.get(CAPTURE_ENV) else None


@pytest.fixture(autouse=True)
def _obs_capture(request, monkeypatch):
    request.node.obs_capture = start_capture(monkeypatch)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    capture = getattr(item, "obs_capture", None)
    if capture is not None and report.when == "call" and report.failed:
        capture.export(item.nodeid, os.environ.get(DIR_ENV, "trace-artifacts"))


@pytest.fixture
def system3() -> VStoTOSystem:
    return make_system(PROCS3)


@pytest.fixture
def system5() -> VStoTOSystem:
    return make_system(PROCS5)
