"""Rule registry for repro-lint.

Rule families:

- ``DET00x`` — determinism hazards (unseeded RNG, wall-clock reads,
  unordered iteration, identity-based ordering, environment reads);
- ``TYP001`` — typing discipline backing the CI ``mypy`` strict gate;
- ``ASYNC00x`` — flow-sensitive async-concurrency hazards over the live
  runtime (check-then-act across an await, dropped task handles,
  blocking calls on the loop, swallowed cancellation, unreleased
  resources), built on :mod:`repro.lint.flow`.
"""

from __future__ import annotations

from repro.lint.rules.async_concurrency import (
    BlockingCallInAsyncRule,
    CheckThenActAcrossAwaitRule,
    DroppedTaskHandleRule,
    SwallowedCancellationRule,
    UnreleasedResourceRule,
)
from repro.lint.rules.determinism import (
    EnvironReadRule,
    IdentityOrderingRule,
    UnseededRandomRule,
    UnsortedSetIterationRule,
    WallClockRule,
)
from repro.lint.rules.typing_discipline import UntypedDefRule

ALL_RULE_CLASSES = (
    UnseededRandomRule,
    WallClockRule,
    UnsortedSetIterationRule,
    IdentityOrderingRule,
    EnvironReadRule,
    UntypedDefRule,
    CheckThenActAcrossAwaitRule,
    DroppedTaskHandleRule,
    BlockingCallInAsyncRule,
    SwallowedCancellationRule,
    UnreleasedResourceRule,
)

__all__ = [
    "ALL_RULE_CLASSES",
    "CheckThenActAcrossAwaitRule",
    "DroppedTaskHandleRule",
    "BlockingCallInAsyncRule",
    "SwallowedCancellationRule",
    "UnreleasedResourceRule",
    "UnseededRandomRule",
    "WallClockRule",
    "UnsortedSetIterationRule",
    "IdentityOrderingRule",
    "EnvironReadRule",
    "UntypedDefRule",
]
