"""Binary wire codec tests: registry sweep, interning, batching,
frame refusals, ceilings, and stream-decoder linearity (E25)."""

from __future__ import annotations

import json
import struct
import time

import pytest

from repro.core.types import BOTTOM, Label, View
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
from repro.rt.framing import (
    FrameError,
    TaggedDecoder,
    encode_value,
    registered_wire_types,
)
from repro.rt.transport import Ctl, Hello
from repro.shard.live import ShardEnvelope
from repro.rt.wire import (
    FLAG_BATCH,
    WIRE_MAGIC,
    WIRE_VERSION,
    BinaryDecoder,
    BinaryEncoder,
    WireDecoder,
    WireReader,
    WireWriter,
    encode_wire_frame,
    pack_batch,
    unpack_batch,
)

LABEL = Label(id=(2, "p1"), seqno=4, origin="p3")

#: One representative instance per registered wire dataclass, stressing
#: the codec's edge shapes (BOTTOM, View, frozenset, nested tuples).
#: The sweep below asserts this map covers the registry exactly, so a
#: newly registered type fails loudly until a sample is added here.
SAMPLES: dict[str, object] = {
    "NewGroup": NewGroup((2, "p1"), "p1"),
    "Accept": Accept((2, "p1"), "p2"),
    "Join": Join((2, "p1"), ("p1", "p2", "p3")),
    "Probe": Probe("p1", (1, "p1")),
    "Wake": Wake((3, "p1")),
    "Token": Token(
        viewid=(3, "p1"),
        members=("p1", "p2", "p3"),
        base=2,
        order=[("m4", "p2"), ((LABEL, "m5"), "p1")],
        delivered={"p1": 4, "p2": 3, "p3": 2},
        safed={"p1": 2},
        seen={"p1": 4, "p2": 4, "p3": 4},
        trail=["p1", "p2"],
        hop=5,
    ),
    "Sequenced": Sequenced(9, Join((2, "p1"), ("p1", "p2"))),
    "Label": LABEL,
    "Summary": Summary(
        con=frozenset({(LABEL, "hello"), (LABEL, BOTTOM)}),
        ord=(LABEL,),
        next=2,
        high=(2, "p1"),
    ),
    "Hello": Hello(src="driver", wire="binary"),
    "Ctl": Ctl("stats", {"nested": [(1, 2), frozenset({"a", "b"}), BOTTOM]}),
    "ShardEnvelope": ShardEnvelope(
        "g1", Sequenced(3, Probe("p2", (1, "p1")))
    ),
}

EDGE_VALUES = [
    None,
    True,
    False,
    0,
    -1,
    2**70,
    -(2**70),
    1.5,
    -0.0,
    "",
    "p1",
    "x" * 300,  # above the interning length cap: rides inline
    BOTTOM,
    View((0, "p1"), frozenset({"p1", "p2", "p3"})),
    ("t", 1, (2, (3,))),
    ["l", [1, [2]]],
    frozenset({1, 2, 3}),
    frozenset({("a", 1), ("b", 2)}),
    {"k": ("v", BOTTOM), ("tk", 1): [None]},
]


def edge_id(value: object) -> str:
    """``repr`` with set members in sorted order, so a test ID does not
    depend on the hash seed."""
    if isinstance(value, frozenset):
        return f"frozenset({{{', '.join(sorted(map(repr, value)))}}})"
    if isinstance(value, View):
        return f"View(id={value.id!r}, set={edge_id(value.set)})"
    return repr(value)


def binary_roundtrip(value: object) -> object:
    return BinaryDecoder().decode(BinaryEncoder().encode(value))


def log_roundtrip(value: object) -> object:
    """Through the event log's tagged-JSON grammar, as a line's argument."""
    decoded, untagged = TaggedDecoder().decode(json.dumps(encode_value(value)))
    assert untagged is None
    return decoded


class TestRegistrySweep:
    """Every registered wire type through both codecs: the binary wire
    and the tagged-JSON grammar of the event logs."""

    def test_samples_cover_registry_exactly(self):
        assert set(SAMPLES) == set(registered_wire_types())

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_json_roundtrip(self, name):
        sample = SAMPLES[name]
        assert log_roundtrip(sample) == sample

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_binary_roundtrip(self, name):
        sample = SAMPLES[name]
        back = binary_roundtrip(sample)
        assert back == sample
        assert type(back) is type(sample)

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_binary_encoding_deterministic(self, name):
        # Fresh encoders agree byte-for-byte (set ordering included).
        sample = SAMPLES[name]
        assert BinaryEncoder().encode(sample) == BinaryEncoder().encode(sample)

    @pytest.mark.parametrize("value", EDGE_VALUES, ids=edge_id)
    def test_edge_values_both_codecs(self, value):
        assert log_roundtrip(value) == value
        back = binary_roundtrip(value)
        assert back == value
        if value == value:  # noqa: PLR0124 - guards NaN-style surprises
            assert type(back) is type(value)

    def test_bottom_is_the_singleton(self):
        assert binary_roundtrip(BOTTOM) is BOTTOM


#: Hostile payloads each a typed refusal, not a TypeError or a
#: RecursionError: an unhashable dict key, a list as a frozenset member,
#: a list as a view member, and a list nested 5,000 deep.
HOSTILE_PAYLOADS = {
    "unhashable-dict-key": bytes.fromhex("0C 01 09 00 00"),
    "list-in-frozenset": bytes.fromhex("0B 01 09 00"),
    "list-in-view": bytes.fromhex("0D 00 01 09 00"),
    "nested-5000": bytes.fromhex("09 01") * 5000 + b"\x00",
}


class TestHostilePayloads:
    @pytest.mark.parametrize("name", sorted(HOSTILE_PAYLOADS))
    def test_decoder_and_reader_refuse_typed(self, name):
        with pytest.raises(FrameError, match="undecodable binary payload"):
            BinaryDecoder().decode(HOSTILE_PAYLOADS[name])
        with pytest.raises(FrameError, match="undecodable binary payload"):
            WireReader().feed(encode_wire_frame(HOSTILE_PAYLOADS[name]))

    def test_a_field_value_the_type_refuses_is_typed(self):
        # Summary refuses next < 1 with a ValueError.
        summary = Summary(con=frozenset(), ord=(), next=1, high=BOTTOM)
        payload = BinaryEncoder().encode(summary)
        assert payload.endswith(b"\x04\x02\x03")  # next = 1, high = BOTTOM
        with pytest.raises(FrameError, match="'Summary' rejected 4 fields: next must be >= 1"):
            BinaryDecoder().decode(payload[:-3] + b"\x04\x00\x03")


class TestInterning:
    def test_repeats_shrink(self):
        enc = BinaryEncoder()
        first = enc.encode("member-1")
        second = enc.encode("member-1")
        assert len(second) < len(first)
        dec = BinaryDecoder()
        assert dec.decode(first) == "member-1"
        assert dec.decode(second) == "member-1"

    def test_stream_order_keeps_tables_in_lockstep(self):
        enc = BinaryEncoder()
        dec = BinaryDecoder()
        values = ["a", "b", "a", ("a", "b", "c"), {"c": "a"}, "c"]
        for value in values:
            assert dec.decode(enc.encode(value)) == value
        assert enc.table_size == dec.table_size == 3

    def test_encode_failure_rolls_back_table(self):
        enc = BinaryEncoder()
        size_before = enc.table_size
        with pytest.raises(FrameError):
            enc.encode(["fresh-string", object()])
        assert enc.table_size == size_before  # staged intern undone
        # Encoder and a fresh decoder still agree afterwards.
        dec = BinaryDecoder()
        assert dec.decode(enc.encode("fresh-string")) == "fresh-string"

    def test_oversize_failure_rolls_back_table(self):
        enc = BinaryEncoder()
        with pytest.raises(FrameError):
            enc.encode(["little", "x" * 4096], max_frame=64)
        assert enc.table_size == 0

    def test_dangling_reference_rejected(self):
        enc = BinaryEncoder()
        payload = enc.encode("interned")
        again = enc.encode("interned")  # pure SREF payload
        dec = BinaryDecoder()
        with pytest.raises(FrameError):
            dec.decode(again)  # never saw the definition
        assert dec.decode(payload) == "interned"
        assert dec.decode(again) == "interned"


class TestFramesAndBatches:
    def test_batch_roundtrip(self):
        payloads = [b"", b"a", b"bc" * 100]
        assert unpack_batch(pack_batch(payloads)) == payloads
        assert unpack_batch(pack_batch([])) == []

    def test_batch_truncation_rejected(self):
        blob = pack_batch([b"abc", b"def"])
        with pytest.raises(FrameError):
            unpack_batch(blob[:-1])
        with pytest.raises(FrameError):
            unpack_batch(blob + b"\x00")

    def test_a_legacy_frame_is_refused(self):
        # Two frames one byte at a time, then the retired format: a
        # 4-byte length prefix around tagged JSON.  Its first byte is
        # not the magic, so nothing of it is buffered as a frame.
        single = encode_wire_frame(b"xyz")
        batch = encode_wire_frame(pack_batch([b"a", b"b"]), FLAG_BATCH)
        legacy = b'["legacy"]'
        legacy = struct.pack(">I", len(legacy)) + legacy
        decoder = WireDecoder()
        frames = []
        for byte in single + batch:
            frames.extend(decoder.feed(bytes([byte])))
        assert [f.payload for f in frames] == [b"xyz", pack_batch([b"a", b"b"])]
        assert frames[1].flags & FLAG_BATCH
        assert decoder.pending_bytes == 0
        with pytest.raises(FrameError, match="not the wire magic"):
            decoder.feed(legacy[:1])

    def test_the_retired_json_codec_id_is_refused(self):
        header = struct.pack(">BBBBI", WIRE_MAGIC, WIRE_VERSION, 0, 0, 1)
        with pytest.raises(FrameError, match="unknown codec id 0"):
            WireReader().feed(header + b"\x00")

    def test_oversized_binary_frame_rejected_before_buffering(self):
        decoder = WireDecoder(max_frame=64)
        header = encode_wire_frame(b"x" * 64)[:8]
        oversized = bytearray(header)
        oversized[4:8] = (65).to_bytes(4, "big")
        with pytest.raises(FrameError):
            decoder.feed(bytes(oversized))
        assert decoder.pending_bytes <= len(header)

    def test_oversized_wire_payload_rejected_on_encode(self):
        with pytest.raises(FrameError):
            encode_wire_frame(b"x" * 65, max_frame=64)
        with pytest.raises(FrameError):
            BinaryEncoder().encode("y" * 4096, max_frame=64)

    def test_unknown_wire_version_rejected(self):
        frame = bytearray(encode_wire_frame(b"x"))
        frame[1] = 99  # version byte
        with pytest.raises(FrameError):
            WireDecoder().feed(bytes(frame))


class FakeLoop:
    """A call_later stand-in: runs nothing until told."""

    def __init__(self):
        self.timers = []

    def schedule(self, delay, callback):
        handle = _FakeTimer(callback)
        self.timers.append((delay, handle))
        return handle

    def fire_all(self):
        for _delay, handle in self.timers:
            handle.fire()
        self.timers = []


class _FakeTimer:
    def __init__(self, callback):
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        self.cancelled = True

    def fire(self):
        if not self.cancelled:
            self.callback()


class TestWireWriterBatching:
    def pipe(self, flush_after, **kwargs):
        frames: list[bytes] = []
        loop = FakeLoop()
        writer = WireWriter(
            flush_after=flush_after, schedule=loop.schedule, **kwargs
        )
        writer.attach(frames.append)
        return writer, frames, loop

    def test_timer_flush_coalesces(self):
        writer, frames, loop = self.pipe(flush_after=0.01)
        for i in range(5):
            assert writer.send(f"m{i}")
        assert frames == []  # queued behind the timer
        loop.fire_all()
        assert len(frames) == 1
        reader = WireReader()
        assert reader.feed(frames[0]) == [f"m{i}" for i in range(5)]
        stats = writer.stats.to_dict()
        assert stats["entries"] == 5
        assert stats["frames"] == 1
        assert stats["flushes"] == 1
        assert stats["entries_per_frame"] == 5.0

    def test_single_message_flush_is_plain_frame(self):
        writer, frames, loop = self.pipe(flush_after=0.01)
        writer.send("solo")
        loop.fire_all()
        decoded = WireDecoder().feed(frames[0])
        assert len(decoded) == 1
        assert not decoded[0].flags & FLAG_BATCH

    def test_size_bound_flushes_early(self):
        writer, frames, _loop = self.pipe(
            flush_after=10.0, flush_max_bytes=64
        )
        writer.send("x" * 100)  # single payload above the bound
        assert len(frames) == 1

    def test_send_now_flushes_queue(self):
        writer, frames, _loop = self.pipe(flush_after=10.0)
        writer.send("queued")
        writer.send_now("urgent")
        assert len(frames) == 1
        assert WireReader().feed(frames[0]) == ["queued", "urgent"]

    def test_detach_drops_queue_and_reset_reconnect(self):
        writer, frames, loop = self.pipe(flush_after=10.0)
        writer.send("doomed")
        writer.detach()
        assert not writer.send("while-down")
        frames2: list[bytes] = []
        writer.attach(frames2.append)
        writer.send_now("fresh")
        loop.fire_all()
        assert frames == []
        # The reattached stream decodes standalone: codec state reset.
        assert WireReader().feed(frames2[0]) == ["fresh"]

    def test_writer_reader_interning_across_frames(self):
        writer, frames, _loop = self.pipe(flush_after=None)
        reader = WireReader()
        for _ in range(3):
            writer.send(("member-1", "member-2"))
        sizes = [len(f) for f in frames]
        assert sizes[1] < sizes[0]
        out = []
        for frame in frames:
            out.extend(reader.feed(frame))
        assert out == [("member-1", "member-2")] * 3
        stats = reader.stats.to_dict()
        assert stats["frames"] == 3
        assert stats["entries"] == 3


class TestFrameDecoderLinearity:
    """The satellite fix: small-chunk reassembly is O(bytes), not
    O(frames · bytes).  50k tiny frames in one feed used to memmove the
    whole buffer once per frame (quadratic — multiple seconds); the
    offset cursor does it in one pass."""

    def test_many_frames_single_feed_is_fast(self):
        frames = 50_000
        blob = encode_wire_frame(b"x") * frames
        decoder = WireDecoder()
        start = time.perf_counter()
        out = decoder.feed(blob)
        elapsed = time.perf_counter() - start
        assert len(out) == frames
        assert decoder.pending_bytes == 0
        # Generous absolute bound: linear is ~10ms here, the old
        # quadratic path was seconds.
        assert elapsed < 1.5, f"quadratic reassembly regression: {elapsed:.2f}s"

    def test_one_byte_feeds_stay_incremental(self):
        payloads = [bytes([65 + (i % 26)]) * (i % 7 + 1) for i in range(50)]
        stream = b"".join(encode_wire_frame(p) for p in payloads)
        decoder = WireDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(f.payload for f in decoder.feed(stream[i : i + 1]))
        assert out == payloads
        assert decoder.pending_bytes == 0
