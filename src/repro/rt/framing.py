"""The message registry and the tagged-JSON grammar of event logs.

The live wire itself is binary (:mod:`repro.rt.wire`); this module
holds what it shares with the event logs: :class:`FrameError` (every
refusal of either), :data:`MAX_FRAME`, and the registry of protocol
dataclasses both encode (:func:`register_wire_type`).

An event log (:mod:`repro.rt.trace`) writes each argument as
:func:`encode_value` makes it JSON-able.  JSON alone cannot round-trip
the protocol's value shapes (tuples vs lists, frozensets, view
records, the bottom element), so composite values are tagged:

- ``{"!": "t", "v": [...]}`` — tuple;
- ``{"!": "fs", "v": [...]}`` — frozenset (elements sorted by their
  encoded form, so encoding is deterministic);
- ``{"!": "d", "v": [[k, v], ...]}`` — dict (insertion order kept,
  keys may be any encodable value);
- ``{"!": "view", "id": ..., "set": [...]}`` — a
  :class:`~repro.core.types.View`;
- ``{"!": "bot"}`` — :data:`~repro.core.types.BOTTOM`;
- ``{"!": "m", "m": name, "f": {...}}`` — a registered protocol
  dataclass (membership messages, VStoTO labels and summaries,
  transport control records).

Scalars (``None``/bool/int/float/str) and plain lists pass through
unchanged.  The registry covers every message the ring and the cluster
control plane put on the wire; nesting works (a
:class:`~repro.membership.messages.Sequenced` wraps another message, a
token's order entries are tuples of payload and origin).

A log writes an argument's text with :func:`render_value`, which is
``json.dumps(encode_value(x), separators=(",", ":"))`` by definition
and writes the common exact types without building the tagged dicts.

:class:`TaggedDecoder`, an ``object_hook`` on ``json``'s C scanner,
decodes a line in one pass.  It refuses, with :class:`FrameError`,
unknown tags and wire types, a tagged record whose parts are missing or
of the wrong shape, and an untagged object anywhere but an ``m``
record's field map — which closes just before its record — or a log
entry, so a line cannot hand the protocol a ``dict``.  A capture's
decoder interns :class:`~repro.core.types.Label`, the record repeated
on each of a payload's lines, when it is *plain* — int seqno, str
origin, a view id of ints and strs — so that equal means identical
(``1``, ``True`` and ``1.0`` are equal).  No other record is shared: a
``Token`` can change, and telling every type apart in a large
``Summary`` would cost more than building it.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

from repro.core.types import BOTTOM, Bottom, Label, View
from repro.core.vstoto.summary import Summary
from repro.membership.messages import (
    Accept,
    Join,
    NewGroup,
    Probe,
    Sequenced,
    Token,
    Wake,
)

#: Default ceiling on one frame's payload size.  A steady-state token
#: carries O(new entries); even a full-history resync for thousands of
#: small messages fits comfortably below 1 MiB.
MAX_FRAME = 1 << 20


class FrameError(ValueError):
    """A frame or a log line violated its format (oversized or
    malformed)."""


# ----------------------------------------------------------------------
# The message registry and the log grammar
# ----------------------------------------------------------------------
#: Registered wire dataclasses, by class name.  Control records from
#: :mod:`repro.rt.transport` register themselves at import time via
#: :func:`register_wire_type` (avoiding a circular import).
_REGISTRY: dict[str, type] = {
    cls.__name__: cls
    for cls in (NewGroup, Accept, Join, Probe, Wake, Token, Sequenced, Label, Summary)
}


def _wire_spec(cls: type) -> tuple[str, tuple[str, ...]]:
    return cls.__name__, tuple(f.name for f in dataclasses.fields(cls))


#: Registry name and field names per registered class, computed once at
#: registration: the wire and the log read it per message instead of asking
#: ``dataclasses.fields`` each time.
_WIRE_SPECS: dict[type, tuple[str, tuple[str, ...]]] = {
    cls: _wire_spec(cls) for cls in _REGISTRY.values()
}


#: A ``str`` as ``json.dumps`` writes it.
_quote = json.encoder.encode_basestring_ascii


def _text_spec(cls: type) -> tuple[str, tuple[tuple[str, str], ...]]:
    name, names = _WIRE_SPECS[cls]
    head = '{"!":"m","m":' + _quote(name) + ',"f":{'
    return head, tuple((field, _quote(field) + ":") for field in names)


#: Per registered class, its log text up to the field map and each
#: field's ``"name":`` key, for :func:`render_value`.
_TEXT_SPECS = {cls: _text_spec(cls) for cls in _WIRE_SPECS}


def register_wire_type(cls: type) -> type:
    """Add a dataclass to the wire registry (decorator-friendly)."""
    _REGISTRY[cls.__name__] = cls
    _WIRE_SPECS[cls] = _wire_spec(cls)
    _TEXT_SPECS[cls] = _text_spec(cls)
    return cls


def registered_wire_types() -> dict[str, type]:
    """Snapshot of the wire registry (name -> class).  The codec tests
    sweep this so a newly registered dataclass cannot silently miss
    coverage."""
    return dict(_REGISTRY)


def lookup_wire_type(name: str) -> type | None:
    """The registered class for ``name`` (None when unknown)."""
    return _REGISTRY.get(name)


def wire_type_spec(cls: type) -> tuple[str, tuple[str, ...]] | None:
    """The registry name and field names of ``cls`` (None when it is
    not a wire type)."""
    return _WIRE_SPECS.get(cls)


def _enc(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if value is BOTTOM or isinstance(value, Bottom):
        return {"!": "bot"}
    spec = _WIRE_SPECS.get(type(value))
    if spec is not None:
        kind, names = spec
        fields = {name: _enc(getattr(value, name)) for name in names}
        return {"!": "m", "m": kind, "f": fields}
    if isinstance(value, View):
        return {
            "!": "view",
            "id": _enc(value.id),
            "set": sorted((_enc(p) for p in value.set), key=repr),
        }
    if isinstance(value, tuple):
        return {"!": "t", "v": [_enc(v) for v in value]}
    if isinstance(value, list):
        return [_enc(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return {"!": "fs", "v": sorted((_enc(v) for v in value), key=repr)}
    if isinstance(value, dict):
        return {"!": "d", "v": [[_enc(k), _enc(v)] for k, v in value.items()]}
    raise FrameError(f"cannot encode value of type {type(value).__name__}: {value!r}")


def encode_value(value: Any) -> Any:
    """Public alias of the recursive value encoder (trace capture uses
    it to make event arguments JSON-able)."""
    return _enc(value)


_dumps = json.JSONEncoder(separators=(",", ":")).encode


def render_value(value: Any) -> str:
    """``json.dumps(encode_value(value), separators=(",", ":"))``, by
    definition: the exact types a log line mostly holds (``str``,
    ``int``, ``tuple``, registered records, ``list``, ``None``,
    ``bool``) are written here, directly; every other type, subclasses
    included, through that expression."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is tuple:
        return '{"!":"t","v":[' + ",".join([render_value(v) for v in value]) + "]}"
    if kind is int:
        return int.__repr__(value)
    spec = _TEXT_SPECS.get(kind)
    if spec is not None:
        head, keys = spec
        return head + ",".join(
            [key + render_value(getattr(value, field)) for field, key in keys]
        ) + "}}"
    if kind is list:
        return "[" + ",".join([render_value(v) for v in value]) + "]"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    return _dumps(_enc(value))


class TaggedDecoder:
    """Decodes tagged JSON in one scanner pass.  Given a ``labels``
    table (one per capture), equal labels decode to one object."""

    def __init__(self, labels: dict[Any, Label] | None = None) -> None:
        #: The last untagged object closed, until its record takes it.
        self._fields: dict[str, Any] | None = None
        self._labels = labels
        self._json = json.JSONDecoder(object_hook=self._hook)
        self._scan = self._json.scan_once

    def decode(self, text: str) -> tuple[Any, dict[str, Any] | None]:
        """``text``'s value and the untagged object no record took."""
        self._fields = None
        try:
            value, end = self._scan(text, 0)
            if end == len(text):
                return value, self._fields
        except StopIteration:
            pass
        # Whitespace around the value, or no JSON: json's own reading.
        self._fields = None
        return self._json.decode(text), self._fields

    def _hook(self, obj: dict[str, Any]) -> Any:
        tag = obj.get("!")
        if tag == "m":
            return self._record(obj)
        if self._fields is not None:  # only this record could take it
            raise FrameError("unknown codec tag None")
        try:
            if tag == "t":
                return tuple(obj["v"])
            if tag is None:
                self._fields = obj
                return obj
            if tag == "fs":
                return frozenset(obj["v"])
            if tag == "d":
                return dict(obj["v"])
            if tag == "view":
                return View(obj["id"], frozenset(obj["set"]))
        except (KeyError, TypeError, ValueError) as exc:
            # A missing part, an unhashable member, a malformed pair.
            raise FrameError(f"malformed {tag!r} record: {exc!r}") from exc
        if tag == "bot":
            return BOTTOM
        raise FrameError(f"unknown codec tag {tag!r}")

    def _record(self, obj: dict[str, Any]) -> Any:
        name = obj.get("m")
        cls = _REGISTRY.get(name) if type(name) is str else None
        if cls is None:
            raise FrameError(f"unknown wire type {name!r}")
        fields = obj.get("f")
        if fields is None or fields is not self._fields:
            raise FrameError(f"wire type {name!r} without its field map")
        self._fields = None
        try:
            if cls is Label and self._labels is not None:
                return _interned(self._labels, fields)
            return cls(**fields)
        except (TypeError, ValueError) as exc:
            raise FrameError(
                f"wire type {name!r} rejected {len(fields)} fields: {exc}"
            ) from exc


_PLAIN = frozenset({int, str})


def _interned(labels: dict[Any, Label], fields: dict[str, Any]) -> Label:
    """The label ``fields`` hold: one object per table if plain."""
    key = ident, seqno, origin = fields.get("id"), fields.get("seqno"), fields.get("origin")
    plain = type(ident) is tuple and _PLAIN.issuperset(map(type, ident))
    if not plain or len(fields) != 3 or type(seqno) is not int or type(origin) is not str:
        return Label(**fields)
    label = labels.get(key)
    if label is None:
        label = labels[key] = Label(ident, seqno, origin)
    return label
