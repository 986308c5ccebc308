"""Wire format of the live transport: frames and the message codec.

A *frame* is a 4-byte big-endian length prefix followed by that many
payload bytes.  :class:`~repro.rt.wire.WireDecoder` reassembles frames
(these and the binary-era ones) from an arbitrary sequence of reads
(TCP gives no message boundaries) and rejects frames above a
configurable ceiling before buffering them, so a corrupt or hostile
peer cannot make a node allocate unbounded memory.

The *payload* is a JSON document produced by :func:`encode_message`.
JSON alone cannot round-trip the protocol's value shapes (tuples vs
lists, frozensets, view records, the bottom element), so composite
values are tagged:

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
"""

from __future__ import annotations

import dataclasses
import json
import struct
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
)

#: Default ceiling on one frame's payload size.  A steady-state token
#: carries O(new entries); even a full-history resync for thousands of
#: small messages fits comfortably below 1 MiB.
MAX_FRAME = 1 << 20

_HEADER = struct.Struct(">I")


class FrameError(ValueError):
    """A frame violated the wire format (oversized or malformed)."""


def encode_frame(payload: bytes, max_frame: int = MAX_FRAME) -> bytes:
    """Prefix ``payload`` with its length; reject oversized payloads."""
    if len(payload) > max_frame:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_frame}-byte ceiling"
        )
    return _HEADER.pack(len(payload)) + payload


# ----------------------------------------------------------------------
# Message codec
# ----------------------------------------------------------------------
#: Registered wire dataclasses, by class name.  Control records from
#: :mod:`repro.rt.transport` register themselves at import time via
#: :func:`register_wire_type` (avoiding a circular import).
_REGISTRY: dict[str, type] = {
    cls.__name__: cls
    for cls in (NewGroup, Accept, Join, Probe, Token, Sequenced, Label, Summary)
}


def _wire_spec(cls: type) -> tuple[str, tuple[str, ...]]:
    return cls.__name__, tuple(f.name for f in dataclasses.fields(cls))


#: Registry name and field names per registered class, computed once at
#: registration: both codecs read it per message instead of asking
#: ``dataclasses.fields`` each time.
_WIRE_SPECS: dict[type, tuple[str, tuple[str, ...]]] = {
    cls: _wire_spec(cls) for cls in _REGISTRY.values()
}


def register_wire_type(cls: type) -> type:
    """Add a dataclass to the wire registry (decorator-friendly)."""
    _REGISTRY[cls.__name__] = cls
    _WIRE_SPECS[cls] = _wire_spec(cls)
    return cls


def registered_wire_types() -> dict[str, type]:
    """Snapshot of the wire registry (name -> class).  The equivalence
    tests sweep this so a newly registered dataclass cannot silently
    miss codec coverage."""
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


def _dec(value: Any) -> Any:
    if isinstance(value, list):
        return [_dec(v) for v in value]
    if not isinstance(value, dict):
        return value
    tag = value.get("!")
    if tag == "bot":
        return BOTTOM
    if tag == "t":
        return tuple(_dec(v) for v in value["v"])
    if tag == "fs":
        return frozenset(_dec(v) for v in value["v"])
    if tag == "d":
        return {_dec(k): _dec(v) for k, v in value["v"]}
    if tag == "view":
        return View(_dec(value["id"]), frozenset(_dec(p) for p in value["set"]))
    if tag == "m":
        cls = _REGISTRY.get(value["m"])
        if cls is None:
            raise FrameError(f"unknown wire type {value['m']!r}")
        return cls(**{k: _dec(v) for k, v in value["f"].items()})
    raise FrameError(f"unknown codec tag {tag!r}")


def encode_value(value: Any) -> Any:
    """Public alias of the recursive value encoder (trace capture uses
    it to make event arguments JSON-able)."""
    return _enc(value)


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    return _dec(value)


def encode_message(message: Any, max_frame: int = MAX_FRAME) -> bytes:
    """Serialise one protocol message to a framed-ready payload."""
    payload = json.dumps(_enc(message), separators=(",", ":")).encode("utf-8")
    if len(payload) > max_frame:
        raise FrameError(
            f"encoded message of {len(payload)} bytes exceeds the "
            f"{max_frame}-byte frame ceiling"
        )
    return payload


def decode_message(payload: bytes) -> Any:
    """Inverse of :func:`encode_message`."""
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from exc
    return _dec(doc)
