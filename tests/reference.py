"""Reference implementations the one path in ``src/`` is held to.

``src/`` keeps one way of doing each thing; the slower, more literal
way it replaced lives here and is patched in by the equivalence tests
(the ``test_token_trail`` pattern):

- :class:`LegacyVStoTOProcess` reconstructs the original O(order)
  VStoTO hot paths — linear ``label in order`` scans, per-call
  content-dict rebuilds, uncached summaries and copied ``buildorder``
  prefixes — by overriding exactly the indexed helpers the optimised
  :class:`~repro.core.vstoto.process.VStoTOProcess` introduced.
  ``tests/core/test_hotpath_equivalence.py`` compares the two stacks:
  same traces, same deliveries, same simulation events.
- :func:`full_order_tokens` makes every token hop carry the view's
  whole order again (the literal ``queue[g]``-on-the-token reading of
  Section 8) instead of the delta window ``RingMember._encode_for``
  builds.  ``tests/membership/test_delta_token.py`` holds the delta
  encoding to it: both deliver identical sequences.

Installed together they reproduce the full pre-overhaul stack.

The tagged-JSON decoder ``src/`` replaced — ``json.loads`` followed by
a recursive second pass over the document — is kept as
:func:`decode_value`, :func:`decode_message` and
:func:`load_event_logs`; ``tests/rt/test_decode_once.py`` holds
:class:`~repro.rt.framing.TaggedDecoder` and the loader to them.
"""

from __future__ import annotations

import contextlib
import json
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import Any
from unittest import mock

from repro.core.types import BOTTOM, Label, View
from repro.core.vstoto import runtime as _runtime_mod
from repro.core.vstoto.process import VStoTOProcess
from repro.core.vstoto.summary import Summary
from repro.membership.messages import Token
from repro.membership.ring import RingMember
from repro.rt.framing import FrameError, lookup_wire_type
from repro.rt.trace import EventLogError


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


def _encode_full_order(self: RingMember, successor: Any, token: Token) -> Token:
    """``RingMember._encode_for`` as it was with ``delta_token=False``:
    the window is passed through whole, never trimmed to the successor."""
    order = list(token.order)
    self.token_forwards += 1
    self.token_entries_sent += len(order)
    if len(order) > self.token_entries_max:
        self.token_entries_max = len(order)
    return Token(
        viewid=token.viewid,
        members=token.members,
        base=token.base,
        order=order,
        delivered=dict(token.delivered),
        safed=dict(token.safed),
        seen=dict(token.seen),
        trail=list(token.trail),
        hop=token.hop,
    )


def full_order_tokens() -> Any:
    """Patch the full-order-every-hop encoding in for a ``with`` block."""
    return mock.patch.object(RingMember, "_encode_for", _encode_full_order)


def decode_value(value: Any) -> Any:
    """``repro.rt.framing._dec``: the tagged grammar decoded by a
    recursive walk over a document ``json.loads`` already built."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if not isinstance(value, dict):
        return value
    tag = value.get("!")
    if tag == "bot":
        return BOTTOM
    if tag == "t":
        return tuple(decode_value(v) for v in value["v"])
    if tag == "fs":
        return frozenset(decode_value(v) for v in value["v"])
    if tag == "d":
        return {decode_value(k): decode_value(v) for k, v in value["v"]}
    if tag == "view":
        return View(
            decode_value(value["id"]),
            frozenset(decode_value(p) for p in value["set"]),
        )
    if tag == "m":
        cls = lookup_wire_type(value["m"])
        if cls is None:
            raise FrameError(f"unknown wire type {value['m']!r}")
        return cls(**{k: decode_value(v) for k, v in value["f"].items()})
    raise FrameError(f"unknown codec tag {tag!r}")


def decode_message(payload: bytes) -> Any:
    """One tagged-JSON value read in two passes: ``json.loads``, then
    :func:`decode_value`."""
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from exc
    return decode_value(doc)


def load_event_logs(paths: Iterable[str | Path]) -> list[dict[str, Any]]:
    """``repro.rt.trace.load_event_logs`` over :func:`decode_value`: one
    ``json.loads`` per line, then the argument list decoded."""
    events: list[dict[str, Any]] = []
    for path in paths:
        torn: int | None = None
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                if torn is not None:
                    raise EventLogError(
                        f"{path}: line {torn} is not valid JSON and is "
                        f"not the last line of the log"
                    )
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    torn = number
                    continue
                entry["args"] = [decode_value(a) for a in entry["args"]]
                events.append(entry)
    events.sort(key=lambda e: (e["ts"], str(e["node"]), e["seq"]))
    return events
