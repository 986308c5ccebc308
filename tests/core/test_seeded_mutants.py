"""Seeded protocol mutants, each killed by a named behavioural test.

Every mutant is applied by patching (``monkeypatch``); no mutant code
lives in ``src/``.  Each test runs the named check under its mutant and
asserts that the check fails.  These are the defects the deleted
shape-lint rules IOA001, IOA003 and SNAP001 stood for (DESIGN.md's rule
ledger, EXPERIMENTS.md E43): the tests below show a behavioural check
catches each one without the rule.
"""

from __future__ import annotations

import pytest

from repro.core.vs_spec import VSMachine
from repro.core.vstoto.process import VStoTOProcess
from repro.ioa.automaton import TransitionError
from tests.core import test_exhaustive_specs, test_process


def test_deliver_before_safe_is_killed_by_the_confirm_precondition_test(
    monkeypatch,
):
    """IOA001's class: a precondition that mutates state.  ``confirm``'s
    check marks the label it tests as safe, so a label is confirmed
    (and delivered) before its ``safe``."""
    original = VStoTOProcess.is_enabled

    def is_enabled(self, action):
        if action.name == "confirm" and self.nextconfirm <= len(self.order):
            self.safe_labels.add(self.order[self.nextconfirm - 1])
        return original(self, action)

    monkeypatch.setattr(VStoTOProcess, "is_enabled", is_enabled)
    normal_path = test_process.TestNormalPath()
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        normal_path.test_safe_then_confirm_then_brcv()


def test_dropped_safe_transition_is_killed_by_the_exhaustive_search(
    monkeypatch,
):
    """IOA003's class: a transcribed figure loses a transition.  The
    VS-machine's ``safe`` leaves both its precondition and its effect,
    while ``enabled_actions`` still offers it."""
    is_enabled, apply = VSMachine.is_enabled, VSMachine.apply
    monkeypatch.setattr(
        VSMachine,
        "is_enabled",
        lambda self, action: action.name != "safe" and is_enabled(self, action),
    )
    monkeypatch.setattr(
        VSMachine,
        "apply",
        lambda self, action: action.name == "safe" or apply(self, action),
    )
    search = test_exhaustive_specs.TestExhaustiveVSMachine()
    with pytest.raises(TransitionError, match="safe"):
        search.test_all_reachable_states_satisfy_lemma_4_1()


def test_length_only_index_check_is_killed_by_the_restore_test(monkeypatch):
    """SNAP001's class: a derived cache that outlives a snapshot
    restore.  The ``order`` and ``content`` indexes check only the
    length of what they index, not its identity."""

    def _order_contains(self, label):
        if self._order_set_len != len(self.order):
            self._order_set = set(self.order)
            self._order_set_len = len(self.order)
        return label in self._order_set

    def _order_append(self, label):
        if self._order_set_len != len(self.order):
            self._order_set = set(self.order)
        self.order.append(label)
        self._order_set.add(label)
        self._order_set_len = len(self.order)

    def _content_index(self):
        if self._content_map_len != len(self.content):
            self._content_map = dict(self.content)
            self._content_map_len = len(self.content)
        return self._content_map

    monkeypatch.setattr(VStoTOProcess, "_order_contains", _order_contains)
    monkeypatch.setattr(VStoTOProcess, "_order_append", _order_append)
    monkeypatch.setattr(VStoTOProcess, "_content_index", _content_index)
    restore = test_process.TestSnapshotRestore()
    with pytest.raises(AssertionError):
        restore.test_restore_rebuilds_indexes_of_equal_length_state()
