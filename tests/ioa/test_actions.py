"""Tests for actions and signatures."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ioa.actions import Action, ActionKind, Signature, act


class TestAction:
    def test_equality_by_name_and_args(self):
        assert act("bcast", "a", "p1") == act("bcast", "a", "p1")
        assert act("bcast", "a", "p1") != act("bcast", "a", "p2")
        assert act("bcast") != act("brcv")

    def test_hashable(self):
        actions = {act("x", 1), act("x", 1), act("x", 2)}
        assert len(actions) == 2

    def test_str_renders_name_and_args(self):
        assert str(act("gprcv", "m", "p", "q")) == "gprcv('m', 'p', 'q')"

    def test_arg_accessor(self):
        action = act("newview", "v", "p")
        assert action.arg(0) == "v"
        assert action.arg(1) == "p"

    def test_args_default_empty(self):
        assert Action("tick").args == ()


class TestSignature:
    def test_kind_classification(self):
        sig = Signature(inputs={"a"}, outputs={"b"}, internals={"c"})
        assert sig.kind_of("a") is ActionKind.INPUT
        assert sig.kind_of("b") is ActionKind.OUTPUT
        assert sig.kind_of("c") is ActionKind.INTERNAL

    def test_kind_of_unknown_raises(self):
        with pytest.raises(KeyError):
            Signature(inputs={"a"}).kind_of("zzz")

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="more than one class"):
            Signature(inputs={"a"}, outputs={"a"})
        with pytest.raises(ValueError):
            Signature(inputs={"a"}, internals={"a"})
        with pytest.raises(ValueError):
            Signature(outputs={"a"}, internals={"a"})

    def test_external_and_locally_controlled(self):
        sig = Signature(inputs={"i"}, outputs={"o"}, internals={"n"})
        assert sig.external == {"i", "o"}
        assert sig.locally_controlled == {"o", "n"}
        assert sig.all_names == {"i", "o", "n"}

    def test_contains(self):
        sig = Signature(inputs={"i"})
        assert sig.contains("i")
        assert not sig.contains("o")

    def test_hide_moves_outputs_to_internal(self):
        sig = Signature(inputs={"i"}, outputs={"o1", "o2"})
        hidden = sig.hide({"o1"})
        assert hidden.kind_of("o1") is ActionKind.INTERNAL
        assert hidden.kind_of("o2") is ActionKind.OUTPUT
        assert hidden.external == {"i", "o2"}

    def test_hide_non_output_rejected(self):
        sig = Signature(inputs={"i"}, outputs={"o"})
        with pytest.raises(ValueError, match="non-output"):
            sig.hide({"i"})
        with pytest.raises(ValueError):
            sig.hide({"nope"})

    def test_empty_signature(self):
        sig = Signature()
        assert sig.all_names == frozenset()


def classify_by_scanning(sig, name):
    """The definition ``kind_of``/``contains`` are held to: the three
    name sets, scanned (what they did before the table)."""
    if name in sig.inputs:
        return ActionKind.INPUT
    if name in sig.outputs:
        return ActionKind.OUTPUT
    if name in sig.internals:
        return ActionKind.INTERNAL
    return None


NAMES = st.sampled_from("abcdefgh")


class TestSignatureTable:
    @given(
        assignment=st.dictionaries(NAMES, st.sampled_from([0, 1, 2])),
        hidden=st.sets(NAMES),
    )
    def test_table_agrees_with_the_name_sets_before_and_after_hide(
        self, assignment, hidden
    ):
        classes = [{n for n, c in assignment.items() if c == k} for k in range(3)]
        sig = Signature(*classes)
        hidden &= sig.outputs
        for candidate in (sig, sig.hide(hidden), sig.hide(hidden).hide(())):
            assert candidate.all_names == sig.all_names
            for name in "abcdefgh":
                expected = classify_by_scanning(candidate, name)
                assert candidate.contains(name) == (expected is not None)
                if expected is None:
                    with pytest.raises(KeyError, match="not in signature"):
                        candidate.kind_of(name)
                else:
                    assert candidate.kind_of(name) is expected
        for name in hidden:
            assert sig.kind_of(name) is ActionKind.OUTPUT  # hide() copies
            assert sig.hide(hidden).kind_of(name) is ActionKind.INTERNAL
