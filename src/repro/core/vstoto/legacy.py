"""The pre-overhaul VStoTO hot paths, kept as a living reference.

:class:`LegacyVStoTOProcess` reconstructs the original O(order) code
paths — linear ``label in order`` scans, per-call content-dict rebuilds,
uncached summaries and copied ``buildorder`` prefixes — by overriding
exactly the indexed helpers that the optimised
:class:`~repro.core.vstoto.process.VStoTOProcess` introduced.  It is
the reference implementation ``tests/core/test_hotpath_equivalence.py``
compares against: optimised and legacy stacks must produce *identical*
externally visible behaviour (same traces, same deliveries, same
simulation events).

:func:`legacy_process_installed` patches the class the runtime
instantiates for the duration of a ``with`` block; combined with
``RingConfig(delta_token=False)`` it reproduces the full pre-overhaul
stack.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator
from typing import Any

from repro.core.types import BOTTOM, Label
from repro.core.vstoto import runtime as _runtime_mod
from repro.core.vstoto.process import VStoTOProcess
from repro.core.vstoto.summary import Summary


class LegacyVStoTOProcess(VStoTOProcess):
    """Behaviourally identical to :class:`VStoTOProcess`; only the
    asymptotics differ (O(order)/O(content) where the base class is
    O(1)/O(Δ))."""

    def _order_contains(self, label: Label) -> bool:
        return label in self.order

    def _order_append(self, label: Label) -> None:
        self.order.append(label)

    def _replace_order(self, labels: list[Label]) -> None:
        self.order = labels

    def _content_index(self) -> dict[Label, Any]:
        return {lab: value for lab, value in self.content}

    def _content_add(self, label: Label, value: Any) -> None:
        self.content.add((label, value))

    def state_summary(self) -> Summary:
        return Summary(
            con=frozenset(self.content),
            ord=tuple(self.order),
            next=self.nextconfirm,
            high=self.highprimary,
        )

    def _record_buildorder(self) -> None:
        if self.current is not BOTTOM:
            self.buildorder[self.current.id] = tuple(self.order)


@contextlib.contextmanager
def legacy_process_installed() -> Iterator[None]:
    """Make :class:`~repro.core.vstoto.runtime.VStoTORuntime` construct
    legacy processes for the duration of the block."""
    saved = _runtime_mod.VStoTOProcess
    _runtime_mod.VStoTOProcess = LegacyVStoTOProcess
    try:
        yield
    finally:
        _runtime_mod.VStoTOProcess = saved
