"""Tests for the Automaton base class, using a small counter automaton."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ioa.actions import Signature, act
from repro.ioa.automaton import Automaton, TransitionError
from tests.conftest import old_automaton_step


class Counter(Automaton):
    """inc (input) raises the pending count; emit (output) drains it."""

    def __init__(self, name="counter", limit=10):
        self.name = name
        self.signature = Signature(inputs={"inc"}, outputs={"emit"})
        self.pending = 0
        self.emitted = 0
        self.limit = limit

    def is_enabled(self, action):
        if action.name == "inc":
            return True
        if action.name == "emit":
            return self.pending > 0
        return False

    def apply(self, action):
        if action.name == "inc":
            self.pending += 1
        elif action.name == "emit":
            self.pending -= 1
            self.emitted += 1

    def enabled_actions(self):
        if self.pending > 0:
            yield act("emit")


class TestAutomaton:
    def test_input_always_applies(self):
        counter = Counter()
        counter.step(act("inc"))
        assert counter.pending == 1

    def test_output_requires_precondition(self):
        counter = Counter()
        with pytest.raises(TransitionError, match="not enabled"):
            counter.step(act("emit"))

    def test_unknown_action_rejected(self):
        counter = Counter()
        with pytest.raises(TransitionError, match="not in signature"):
            counter.step(act("nope"))

    def test_step_sequence(self):
        counter = Counter()
        for _ in range(3):
            counter.step(act("inc"))
        counter.step(act("emit"))
        assert (counter.pending, counter.emitted) == (2, 1)

    def test_enabled_actions_reflects_state(self):
        counter = Counter()
        assert list(counter.enabled_actions()) == []
        counter.step(act("inc"))
        assert list(counter.enabled_actions()) == [act("emit")]

    def test_snapshot_excludes_framework_fields(self):
        counter = Counter()
        snap = counter.snapshot()
        assert "signature" not in snap
        assert "name" not in snap
        assert snap["pending"] == 0

    def test_snapshot_is_deep_copy(self):
        class Holder(Counter):
            def __init__(self):
                super().__init__()
                self.items = [1, 2]

        holder = Holder()
        snap = holder.snapshot()
        holder.items.append(3)
        assert snap["items"] == [1, 2]

    def test_repr_mentions_name(self):
        assert "counter" in repr(Counter())


class OldStepCounter(Counter):
    step = old_automaton_step


@given(st.lists(st.sampled_from(["inc", "emit", "nope", "signature"]), max_size=30))
def test_step_validates_exactly_as_the_old_body_did(names):
    new, old = Counter(), OldStepCounter()
    for name in names:
        outcomes = []
        for counter in (new, old):
            try:
                counter.step(act(name))
                outcomes.append(None)
            except TransitionError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]
        assert new.snapshot() == old.snapshot()

