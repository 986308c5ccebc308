"""The live wire: binary frames, the compact codec, and batching (E25).

**Frames.**  Every frame opens with a struct-packed header ``(magic,
version, codec id, flags, length)``.  :class:`WireDecoder` refuses a
frame whose first byte is not the magic, a version other than
:data:`WIRE_VERSION` and a codec id other than :data:`CODEC_BINARY` —
the version byte is all the negotiation the wire has.  Every
connection opens with a :class:`~repro.rt.transport.Hello` naming the
sender, sent through the stream's own :class:`WireWriter`.

**Compact value encoding.**  :class:`BinaryEncoder` writes the codec's
value shapes (scalars, tuples/lists/frozensets/dicts, ``View``,
``BOTTOM``, and every dataclass in the :func:`~repro.rt.framing.
register_wire_type` registry) as tagged bytes: varint ints, packed
doubles, length-prefixed UTF-8, positional dataclass fields.  It is the
msgpack idea specialised to the registry — no field names on the wire,
because both ends share the registry.

**In-band interning.**  Repeated strings — member ids, label origins,
metric names, wire-type names — are interned per connection: the first
occurrence rides as a definition (``SDEF``), every later one as a
varint reference (``SREF``).  The table is negotiated purely in-band
(the definitions *are* the negotiation) and resets with the connection,
so reconnects can never desynchronise it.

**Batching.**  :class:`WireWriter` coalesces multiple message payloads
into one frame (``FLAG_BATCH``: varint count + length-prefixed
payloads) under a size/time-bounded flush, so a burst of gpsnd traffic
or control-plane sends costs one header and one socket write instead
of one each.

Determinism: encoding any value is a pure function of the value and
the encoder's table state; sets sort by the canonical tagged-JSON
encoding of their elements (:func:`~repro.rt.framing.encode_value`,
the event-log grammar), so one value serialises identically on every
process and hash seed.
"""

from __future__ import annotations

import struct
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.types import BOTTOM, Bottom, View
from repro.rt.framing import (
    MAX_FRAME,
    FrameError,
    encode_value,
    lookup_wire_type,
    wire_type_spec,
)

#: First header byte of every frame.
WIRE_MAGIC = 0xA5
#: Wire protocol version carried in every header.
WIRE_VERSION = 1
#: The codec id every header carries (0 was the retired JSON codec's).
CODEC_BINARY = 1

#: Header flag: the payload is a batch (varint count, then that many
#: varint-length-prefixed message payloads).
FLAG_BATCH = 0x01

#: magic, version, codec id, flags, payload length.
_WIRE_HEADER = struct.Struct(">BBBBI")
_DOUBLE = struct.Struct(">d")

#: Interned strings longer than this ride inline (interning a huge
#: payload string would bloat the table for little reuse).
_MAX_INTERN_LEN = 255
#: Per-connection interning table ceiling; once full, new strings ride
#: inline.  4096 labels cover every registry name, member id and metric
#: name a cluster produces many times over.
_MAX_INTERN_TABLE = 4096


class WireFrame:
    """One decoded frame: its header flags and payload bytes."""

    __slots__ = ("flags", "payload")

    def __init__(self, flags: int, payload: bytes) -> None:
        self.flags = flags
        self.payload = payload


def encode_wire_frame(
    payload: bytes, flags: int = 0, max_frame: int = MAX_FRAME
) -> bytes:
    """Wrap ``payload`` in a frame header; reject oversized."""
    if len(payload) > max_frame:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_frame}-byte ceiling"
        )
    return (
        _WIRE_HEADER.pack(WIRE_MAGIC, WIRE_VERSION, CODEC_BINARY, flags, len(payload))
        + payload
    )


class WireDecoder:
    """Incremental reassembly of a frame stream.

    Feed it whatever the socket produced — half a header, three frames
    and a tail, one byte at a time — and it yields complete frames in
    order.  A first byte that is not :data:`WIRE_MAGIC` (a legacy
    length prefix starts ``0x00``), another version or another codec
    id raises :class:`FrameError`, and so does a declared length above
    ``max_frame``, *before* any of the oversized payload is buffered.

    Consuming a frame advances an offset cursor instead of deleting the
    buffer's prefix (a memmove of everything behind it — quadratic when
    one read carries thousands of frames); the consumed prefix is
    dropped once per feed, so F frames cost O(bytes), not O(F · bytes).
    """

    def __init__(self, max_frame: int = MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()
        self._pos = 0
        #: (flags, remaining length) of the frame being read.
        self._expect: tuple[int, int] | None = None
        self.frames_decoded = 0
        self.bytes_fed = 0

    def _parse_header(self, buffer: bytearray, pos: int) -> tuple[int, int] | None:
        """The (flags, length) of the header at ``pos``; None when more
        bytes are needed."""
        if buffer[pos] != WIRE_MAGIC:
            raise FrameError(
                f"frame starts with 0x{buffer[pos]:02x}, not the wire magic "
                f"0x{WIRE_MAGIC:02x}"
            )
        if len(buffer) - pos < _WIRE_HEADER.size:
            return None
        _magic, version, codec, flags, length = _WIRE_HEADER.unpack_from(
            buffer, pos
        )
        if version != WIRE_VERSION:
            raise FrameError(f"unsupported wire version {version}")
        if codec != CODEC_BINARY:
            raise FrameError(f"unknown codec id {codec}")
        if length > self.max_frame:
            raise FrameError(
                f"incoming frame declares {length} bytes, above the "
                f"{self.max_frame}-byte ceiling"
            )
        return flags, length

    def feed(self, data: bytes) -> list[WireFrame]:
        """Absorb ``data``; return every frame completed by it."""
        self.bytes_fed += len(data)
        buffer = self._buffer
        buffer.extend(data)
        pos = self._pos
        out: list[WireFrame] = []
        try:
            while True:
                if self._expect is None:
                    if len(buffer) - pos < 1:
                        break
                    self._expect = self._parse_header(buffer, pos)
                    if self._expect is None:
                        break
                    pos += _WIRE_HEADER.size
                flags, length = self._expect
                if len(buffer) - pos < length:
                    break
                out.append(WireFrame(flags, bytes(buffer[pos : pos + length])))
                pos += length
                self._expect = None
                self.frames_decoded += 1
        finally:
            if pos and (pos == len(buffer) or pos >= 1 << 16):
                del buffer[:pos]
                pos = 0
            self._pos = pos
        return out

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards an incomplete frame."""
        return len(self._buffer) - self._pos


# ----------------------------------------------------------------------
# Batch payloads
# ----------------------------------------------------------------------
def _write_uvarint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise FrameError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def pack_batch(payloads: Sequence[bytes]) -> bytes:
    """Concatenate message payloads into one batch frame payload."""
    out = bytearray()
    _write_uvarint(out, len(payloads))
    for payload in payloads:
        _write_uvarint(out, len(payload))
        out += payload
    return bytes(out)


def unpack_batch(payload: bytes) -> list[bytes]:
    """Inverse of :func:`pack_batch`."""
    count, pos = _read_uvarint(payload, 0)
    out: list[bytes] = []
    for _ in range(count):
        length, pos = _read_uvarint(payload, pos)
        if pos + length > len(payload):
            raise FrameError("truncated batch entry")
        out.append(payload[pos : pos + length])
        pos += length
    if pos != len(payload):
        raise FrameError(f"{len(payload) - pos} trailing bytes after batch")
    return out


# ----------------------------------------------------------------------
# Binary value encoding
# ----------------------------------------------------------------------
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_BOTTOM = 0x03
_T_INT = 0x04
_T_FLOAT = 0x05
_T_STR = 0x06  # inline: varint byte length + UTF-8
_T_SDEF = 0x07  # like _T_STR, and both sides append it to the table
_T_SREF = 0x08  # varint table index
_T_LIST = 0x09
_T_TUPLE = 0x0A
_T_FROZENSET = 0x0B
_T_DICT = 0x0C
_T_VIEW = 0x0D
_T_MESSAGE = 0x0E  # type name (str value) + varint arity + fields


def _canonical_set_order(values: Any) -> list[Any]:
    """Set elements sorted by the repr of their event-log encoding:
    hash-seed independent, and the order the pinned wire corpus was
    written in."""
    return sorted(values, key=lambda v: repr(encode_value(v)))


#: The encoder's shape (a value tag) per exact type.  Subclasses miss
#: this table and are classified by :func:`_subclass_shape`, which
#: walks the same table in the same order with ``isinstance``.
_SHAPES: dict[type, int] = {
    type(None): _T_NONE,
    bool: _T_TRUE,
    str: _T_STR,
    int: _T_INT,
    float: _T_FLOAT,
    Bottom: _T_BOTTOM,
    View: _T_VIEW,
    tuple: _T_TUPLE,
    list: _T_LIST,
    set: _T_FROZENSET,
    frozenset: _T_FROZENSET,
    dict: _T_DICT,
}


def _subclass_shape(value: Any) -> int:
    for base, shape in _SHAPES.items():
        if isinstance(value, base):
            return shape
    raise FrameError(f"cannot encode value of type {type(value).__name__}: {value!r}")


class BinaryEncoder:
    """Stateful (per-connection) compact encoder.

    One instance per outbound stream: the interning table it builds is
    mirrored by the peer's :class:`BinaryDecoder` through the ``SDEF``
    records inside the byte stream itself.  :meth:`encode` is atomic
    with respect to the table — a failed encode rolls back any strings
    it interned, so the table never drifts ahead of the bytes actually
    put on the wire.
    """

    def __init__(self, max_table: int = _MAX_INTERN_TABLE) -> None:
        self._table: dict[str, int] = {}
        self._max_table = max_table

    def reset(self) -> None:
        """Forget the interning table (new connection, fresh peer)."""
        self._table.clear()

    @property
    def table_size(self) -> int:
        return len(self._table)

    def encode(self, message: Any, max_frame: int = MAX_FRAME) -> bytes:
        out = bytearray()
        added: list[str] = []
        try:
            self._enc(message, out, added)
        except FrameError:
            for key in added:
                del self._table[key]
            raise
        if len(out) > max_frame:
            for key in added:
                del self._table[key]
            raise FrameError(
                f"encoded message of {len(out)} bytes exceeds the "
                f"{max_frame}-byte frame ceiling"
            )
        return bytes(out)

    def _enc(self, value: Any, out: bytearray, added: list[str]) -> None:
        # Arms in order of frequency on a token; lengths and indexes
        # below 0x80 are their own one-byte varint.
        kind = type(value)
        shape = _SHAPES.get(kind)
        if shape is None:
            spec = wire_type_spec(kind)
            if spec is None:
                shape = _subclass_shape(value)
            else:
                name, field_names = spec
                out.append(_T_MESSAGE)
                self._enc(name, out, added)
                _write_uvarint(out, len(field_names))
                for field_name in field_names:
                    self._enc(getattr(value, field_name), out, added)
                return
        if shape == _T_STR:
            index = self._table.get(value)
            if index is not None:
                out.append(_T_SREF)
                if index < 0x80:
                    out.append(index)
                else:
                    _write_uvarint(out, index)
                return
            raw = value.encode("utf-8")
            if len(raw) <= _MAX_INTERN_LEN and len(self._table) < self._max_table:
                self._table[value] = len(self._table)
                added.append(value)
                out.append(_T_SDEF)
            else:
                out.append(_T_STR)
            _write_uvarint(out, len(raw))
            out += raw
        elif shape == _T_INT:
            out.append(_T_INT)
            # Generalised zigzag: sign in the low bit, magnitude above.
            raw_int = (value << 1) if value >= 0 else ((-value << 1) - 1)
            if raw_int < 0x80:
                out.append(raw_int)
            else:
                _write_uvarint(out, raw_int)
        elif shape == _T_TUPLE or shape == _T_LIST:
            out.append(shape)
            if len(value) < 0x80:
                out.append(len(value))
            else:
                _write_uvarint(out, len(value))
            for item in value:
                self._enc(item, out, added)
        elif shape == _T_DICT:
            out.append(_T_DICT)
            _write_uvarint(out, len(value))
            for key, item in value.items():
                self._enc(key, out, added)
                self._enc(item, out, added)
        elif shape == _T_NONE or shape == _T_BOTTOM:
            out.append(shape)
        elif shape == _T_TRUE:
            out.append(_T_TRUE if value else _T_FALSE)
        elif shape == _T_FLOAT:
            out.append(_T_FLOAT)
            out += _DOUBLE.pack(value)
        else:  # _T_VIEW, _T_FROZENSET: tag, [view id,] sorted elements
            out.append(shape)
            if shape == _T_VIEW:
                self._enc(value.id, out, added)
                value = value.set
            elements = _canonical_set_order(value)
            _write_uvarint(out, len(elements))
            for element in elements:
                self._enc(element, out, added)


class BinaryDecoder:
    """Stateful (per-connection) inverse of :class:`BinaryEncoder`.

    The interning table is rebuilt purely from the ``SDEF`` records in
    the byte stream, in stream order — feed it the frames of one
    connection in the order they arrived and it stays in lockstep with
    the sender's table.
    """

    def __init__(self) -> None:
        self._table: list[str] = []

    def reset(self) -> None:
        self._table.clear()

    @property
    def table_size(self) -> int:
        return len(self._table)

    def decode(self, payload: bytes) -> Any:
        try:
            value, pos = self._dec(payload, 0, len(payload))
        except (IndexError, struct.error, UnicodeDecodeError, TypeError, RecursionError) as exc:
            # TypeError: an unhashable key or set member; RecursionError:
            # nesting deeper than the interpreter's stack.
            raise FrameError(f"undecodable binary payload: {exc}") from exc
        if pos != len(payload):
            raise FrameError(
                f"{len(payload) - pos} trailing bytes after binary payload"
            )
        return value

    def _dec_items(self, data: bytes, pos: int, end: int) -> tuple[list[Any], int]:
        """A varint count, then that many values."""
        if pos < end and data[pos] < 0x80:
            count = data[pos]
            pos += 1
        else:
            count, pos = _read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = self._dec(data, pos, end)
            items.append(item)
        return items, pos

    def _dec(self, data: bytes, pos: int, end: int) -> tuple[Any, int]:
        # Arms in order of frequency on a token (as in the encoder).
        if pos >= end:
            raise FrameError("truncated binary payload")
        tag = data[pos]
        pos += 1
        if tag == _T_SREF or tag == _T_INT:
            if pos < end and data[pos] < 0x80:
                raw = data[pos]
                pos += 1
            else:
                raw, pos = _read_uvarint(data, pos)
            if tag == _T_INT:
                return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1), pos
            if raw >= len(self._table):
                raise FrameError(f"string reference {raw} not defined")
            return self._table[raw], pos
        if tag == _T_TUPLE:
            items, pos = self._dec_items(data, pos, end)
            return tuple(items), pos
        if tag == _T_LIST:
            return self._dec_items(data, pos, end)
        if tag == _T_MESSAGE:
            name, pos = self._dec(data, pos, end)
            if not isinstance(name, str):
                raise FrameError("wire-type name is not a string")
            cls = lookup_wire_type(name)
            if cls is None:
                raise FrameError(f"unknown wire type {name!r}")
            field_values, pos = self._dec_items(data, pos, end)
            try:
                return cls(*field_values), pos
            except (TypeError, ValueError) as exc:
                raise FrameError(
                    f"wire type {name!r} rejected {len(field_values)} fields: {exc}"
                ) from exc
        if tag == _T_NONE:
            return None, pos
        if tag == _T_TRUE:
            return True, pos
        if tag == _T_FALSE:
            return False, pos
        if tag == _T_BOTTOM:
            return BOTTOM, pos
        if tag == _T_FLOAT:
            if pos + _DOUBLE.size > end:
                raise FrameError("truncated float payload")
            (value,) = _DOUBLE.unpack_from(data, pos)
            return value, pos + _DOUBLE.size
        if tag == _T_STR or tag == _T_SDEF:
            length, pos = _read_uvarint(data, pos)
            if pos + length > end:
                raise FrameError("truncated string payload")
            text = data[pos : pos + length].decode("utf-8")
            if tag == _T_SDEF:
                self._table.append(text)
            return text, pos + length
        if tag == _T_FROZENSET:
            items, pos = self._dec_items(data, pos, end)
            return frozenset(items), pos
        if tag == _T_DICT:
            count, pos = _read_uvarint(data, pos)
            mapping: dict[Any, Any] = {}
            for _ in range(count):
                key, pos = self._dec(data, pos, end)
                value, pos = self._dec(data, pos, end)
                mapping[key] = value
            return mapping, pos
        if tag == _T_VIEW:
            viewid, pos = self._dec(data, pos, end)
            members, pos = self._dec_items(data, pos, end)
            return View(viewid, frozenset(members)), pos
        raise FrameError(f"unknown binary tag 0x{tag:02x}")


# ----------------------------------------------------------------------
# The codec object (one per connection direction)
# ----------------------------------------------------------------------
class BinaryWire:
    """The codec of one connection direction: payload bytes <->
    messages.  It holds both interning tables so one instance can serve
    a connection's encode or decode side."""

    #: The wire's name: the key of the per-codec stats and metrics.
    name = "binary"

    def __init__(self) -> None:
        self._encoder = BinaryEncoder()
        self._decoder = BinaryDecoder()

    def encode(self, message: Any, max_frame: int = MAX_FRAME) -> bytes:
        return self._encoder.encode(message, max_frame)

    def decode(self, payload: bytes) -> Any:
        return self._decoder.decode(payload)

    def reset(self) -> None:
        """Drop per-connection state (called on (re)connect)."""
        self._encoder.reset()
        self._decoder.reset()


def check_wire(name: str) -> None:
    """Refuse any wire name but the one wire's (``wire=`` arguments
    outlived the second codec)."""
    if name != BinaryWire.name:
        raise ValueError(f"unknown wire format {name!r} (the wire is 'binary')")


# ----------------------------------------------------------------------
# Batching writer
# ----------------------------------------------------------------------
@dataclass
class WriterStats:
    """What one :class:`WireWriter` put on the wire."""

    frames: int = 0
    entries: int = 0
    batches: int = 0
    flushes: int = 0
    bytes_on_wire: int = 0
    encode_seconds: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "frames": self.frames,
            "entries": self.entries,
            "batches": self.batches,
            "flushes": self.flushes,
            "bytes_on_wire": self.bytes_on_wire,
            "encode_seconds": self.encode_seconds,
            "entries_per_frame": (
                self.entries / self.frames if self.frames else 0.0
            ),
        }


class WireWriter:
    """Codec + size/time-bounded batching over one outbound stream.

    Messages are encoded immediately (so encode cost is attributed to
    the sender's turn and the interning table advances in send order)
    and the payload bytes are queued.  The queue is flushed into one
    frame when it reaches ``flush_max_bytes``, when the ``flush_after``
    timer (armed at the first queued payload) fires, or explicitly via
    :meth:`send_now`/:meth:`flush`.  ``flush_after=None`` disables
    batching: every payload is written as its own frame.
    """

    def __init__(
        self,
        max_frame: int = MAX_FRAME,
        flush_after: float | None = None,
        flush_max_bytes: int = 1 << 16,
        schedule: Callable[[float, Callable[[], None]], Any] | None = None,
        stats: WriterStats | None = None,
    ) -> None:
        if flush_max_bytes > max_frame // 2:
            flush_max_bytes = max_frame // 2
        self.wire = BinaryWire()
        self.max_frame = max_frame
        self.flush_after = flush_after
        self.flush_max_bytes = flush_max_bytes
        self._schedule = schedule
        self._write: Callable[[bytes], None] | None = None
        self._pending: list[bytes] = []
        self._pending_bytes = 0
        self._timer: Any = None
        #: May be shared between writers (one aggregate at the transport
        #: level); all access is on the event-loop thread.
        self.stats = stats if stats is not None else WriterStats()

    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._write is not None

    def set_schedule(
        self, schedule: Callable[[float, Callable[[], None]], Any]
    ) -> None:
        """Late-bind the timer source (callers that construct the
        writer before their event loop exists)."""
        self._schedule = schedule

    def attach(self, write: Callable[[bytes], None]) -> None:
        """Bind a (re)connected stream; per-connection codec state and
        any payloads queued for the dead stream are dropped (they were
        encoded against the old interning table)."""
        self._drop_pending()
        self.wire.reset()
        self._write = write

    def detach(self) -> None:
        self._drop_pending()
        self._write = None

    def _drop_pending(self) -> None:
        self._pending.clear()
        self._pending_bytes = 0
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------
    def send(self, message: Any) -> bool:
        """Encode and queue (or write) one message; False when no
        stream is attached (the message is dropped, as on a lost
        connection)."""
        if self._write is None:
            return False
        start = time.perf_counter()
        payload = self.wire.encode(message, self.max_frame)
        self.stats.encode_seconds += time.perf_counter() - start
        if self.flush_after is None or self._schedule is None:
            self._emit([payload])
            return True
        if (
            self._pending
            and self._pending_bytes + len(payload) > self.flush_max_bytes
        ):
            self.flush()
        self._pending.append(payload)
        self._pending_bytes += len(payload)
        if self._pending_bytes >= self.flush_max_bytes:
            self.flush()
        elif self._timer is None:
            self._timer = self._schedule(self.flush_after, self.flush)
        return True

    def send_now(self, message: Any) -> bool:
        """Send with an immediate flush (control-plane requests that
        expect a reply must not sit in the batch queue)."""
        ok = self.send(message)
        self.flush()
        return ok

    def flush(self) -> None:
        """Write everything queued as one frame."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending or self._write is None:
            self._pending.clear()
            self._pending_bytes = 0
            return
        payloads = self._pending
        self._pending = []
        self._pending_bytes = 0
        self.stats.flushes += 1
        self._emit(payloads)

    def _emit(self, payloads: list[bytes]) -> None:
        write = self._write
        assert write is not None
        if len(payloads) == 1:
            frame = encode_wire_frame(payloads[0], 0, self.max_frame)
        else:
            frame = encode_wire_frame(
                pack_batch(payloads), FLAG_BATCH, self.max_frame
            )
            self.stats.batches += 1
        write(frame)
        self.stats.frames += 1
        self.stats.entries += len(payloads)
        self.stats.bytes_on_wire += len(frame)


# ----------------------------------------------------------------------
# Reading side
# ----------------------------------------------------------------------
@dataclass
class ReaderStats:
    """What one :class:`WireReader` took off the wire."""

    frames: int = 0
    entries: int = 0
    batches: int = 0
    bytes_on_wire: int = 0
    decode_seconds: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "frames": self.frames,
            "entries": self.entries,
            "batches": self.batches,
            "bytes_on_wire": self.bytes_on_wire,
            "decode_seconds": self.decode_seconds,
            "entries_per_frame": (
                self.entries / self.frames if self.frames else 0.0
            ),
        }


class WireReader:
    """Incremental frame reassembly + payload decoding for one inbound
    stream.  Codec state (the interning table) lives for the stream's
    lifetime, exactly mirroring the sender.  Stats may be shared across
    connections (the transport hands every reader one aggregate)."""

    def __init__(
        self, max_frame: int = MAX_FRAME, stats: ReaderStats | None = None
    ) -> None:
        self._decoder = WireDecoder(max_frame)
        self._wire = BinaryWire()
        self.stats = stats if stats is not None else ReaderStats()

    def feed(self, data: bytes) -> list[Any]:
        """Absorb stream bytes; return every decoded message.

        Raises :class:`FrameError` on any framing or payload error —
        with stateful interning a partially-decoded stream cannot be
        safely resumed, so the caller must drop the connection.
        """
        messages: list[Any] = []
        wire, stats = self._wire, self.stats
        for frame in self._decoder.feed(data):
            stats.frames += 1
            stats.bytes_on_wire += len(frame.payload)
            if frame.flags & FLAG_BATCH:
                payloads = unpack_batch(frame.payload)
                stats.batches += 1
            else:
                payloads = [frame.payload]
            start = time.perf_counter()
            for payload in payloads:
                messages.append(wire.decode(payload))
            stats.decode_seconds += time.perf_counter() - start
            stats.entries += len(payloads)
        return messages
