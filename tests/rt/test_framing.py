"""Format tests: the event-log grammar's round-trips, and binary frame
reassembly and ceilings."""

from __future__ import annotations

import json

import pytest

from repro.core.types import BOTTOM, Label, View
from repro.core.vstoto.summary import Summary
from repro.membership.messages import Accept, Join, NewGroup, Probe, Sequenced, Token
from repro.rt.framing import MAX_FRAME, FrameError, TaggedDecoder, encode_value
from repro.rt.transport import Ctl, Hello
from repro.rt.wire import BinaryWire, WireDecoder, encode_wire_frame
from tests.rt.test_wire import log_roundtrip as roundtrip


class TestCodecRoundtrip:
    def test_scalars(self):
        for value in (None, True, False, 0, -7, 3.5, "p1", ""):
            assert roundtrip(value) == value
            assert type(roundtrip(value)) is type(value)

    def test_tuple_vs_list_distinction_survives(self):
        assert roundtrip((1, 2)) == (1, 2)
        assert roundtrip([1, 2]) == [1, 2]
        assert isinstance(roundtrip((1, 2)), tuple)
        assert isinstance(roundtrip([1, 2]), list)

    def test_nested_composites(self):
        value = {"k": [(1, ("a", None)), frozenset({"x", "y"})]}
        back = roundtrip(value)
        assert back == value
        assert isinstance(back["k"][0], tuple)
        assert isinstance(back["k"][1], frozenset)

    def test_view_and_bottom(self):
        view = View((3, "p2"), frozenset({"p1", "p2", "p3"}))
        assert roundtrip(view) == view
        assert roundtrip(BOTTOM) is BOTTOM
        assert roundtrip({"high": BOTTOM}) == {"high": BOTTOM}

    def test_label_and_summary(self):
        label = Label(id=(2, "p1"), seqno=4, origin="p3")
        assert roundtrip(label) == label
        summary = Summary(
            con=frozenset({(label, "hello")}),
            ord=(label,),
            next=2,
            high=(2, "p1"),
        )
        back = roundtrip(summary)
        assert back == summary
        assert back.confirm == summary.confirm

    def test_membership_messages(self):
        join = Join((2, "p1"), ("p1", "p2", "p3"))
        for message in (
            NewGroup((2, "p1"), "p1"),
            Accept((2, "p1"), "p2"),
            join,
            Probe("p1", (1, "p1")),
            Sequenced(5, join),
        ):
            assert roundtrip(message) == message

    def test_token_roundtrip(self):
        token = Token(
            viewid=(3, "p1"),
            members=("p1", "p2", "p3"),
            base=2,
            order=[("m4", "p2"), ("m5", "p1")],
            delivered={"p1": 4, "p2": 3, "p3": 2},
            safed={"p1": 2},
            seen={"p1": 4, "p2": 4, "p3": 4},
            trail=["p1", "p2"],
            hop=5,
        )
        back = roundtrip(Sequenced(9, token)).body
        assert back == token
        assert isinstance(back.members, tuple)
        assert isinstance(back.order, list)
        assert all(isinstance(entry, tuple) for entry in back.order)
        assert back.total == token.total

    def test_control_records(self):
        assert roundtrip(Hello(src="driver")) == Hello(src="driver")
        ctl = Ctl("block", ["p2", "p3"])
        assert roundtrip(ctl) == ctl

    def test_gpsnd_payload_shape(self):
        # The exact shape VStoTO puts through gpsnd: (Label, value).
        label = Label(id=(0, "p1"), seqno=1, origin="p1")
        back = roundtrip((label, "m0"))
        assert back == (label, "m0")
        assert isinstance(back, tuple) and isinstance(back[0], Label)

    def test_unencodable_value_raises(self):
        with pytest.raises(FrameError, match="cannot encode"):
            encode_value(object())

    def test_undecodable_payload_raises(self):
        with pytest.raises(FrameError, match="unknown wire type"):
            TaggedDecoder().decode(json.dumps({"!": "m", "m": "Nope", "f": {}}))
        with pytest.raises(FrameError, match="unknown codec tag"):
            TaggedDecoder().decode(json.dumps({"!": "??"}))
        with pytest.raises(FrameError, match="malformed 'view' record"):
            TaggedDecoder().decode(json.dumps({"!": "view", "id": 1}))

    def test_encoding_is_deterministic(self):
        value = frozenset({("b", 2), ("a", 1), ("c", 3)})
        assert json.dumps(encode_value(value)) == json.dumps(encode_value(value))
        assert roundtrip(value) == value


def bodies(frames):
    return [frame.payload for frame in frames]


class TestFrameDecoder:
    """Binary frames through the stream decoder,
    :class:`~repro.rt.wire.WireDecoder` (the refused headers are in
    ``test_wire.py``)."""

    def test_single_frame(self):
        frame = encode_wire_frame(b"hello")
        decoder = WireDecoder()
        assert bodies(decoder.feed(frame)) == [b"hello"]
        assert decoder.frames_decoded == 1
        assert decoder.pending_bytes == 0

    def test_partial_reads_byte_at_a_time(self):
        payloads = [b"one", b"twotwo", b"", b"x" * 300]
        stream = b"".join(encode_wire_frame(p) for p in payloads)
        decoder = WireDecoder()
        seen: list[bytes] = []
        for i in range(len(stream)):
            seen.extend(bodies(decoder.feed(stream[i : i + 1])))
        assert seen == payloads
        assert decoder.bytes_fed == len(stream)
        assert decoder.pending_bytes == 0

    def test_multiple_frames_in_one_read(self):
        stream = b"".join(encode_wire_frame(p) for p in (b"a", b"bb", b"ccc"))
        assert bodies(WireDecoder().feed(stream)) == [b"a", b"bb", b"ccc"]

    def test_split_across_header_boundary(self):
        frame = encode_wire_frame(b"payload")
        decoder = WireDecoder()
        assert decoder.feed(frame[:4]) == []  # half a header
        assert decoder.feed(frame[4:9]) == []  # header + 1 byte
        assert bodies(decoder.feed(frame[9:])) == [b"payload"]

    def test_oversized_outgoing_frame_rejected(self):
        with pytest.raises(FrameError, match="exceeds"):
            encode_wire_frame(b"x" * 101, max_frame=100)
        with pytest.raises(FrameError, match="exceeds"):
            BinaryWire().encode("y" * (MAX_FRAME + 1))

    def test_oversized_incoming_frame_rejected_before_buffering(self):
        decoder = WireDecoder(max_frame=64)
        header = encode_wire_frame(b"x" * 65, max_frame=65)[:8]
        with pytest.raises(FrameError, match="declares 65 bytes"):
            decoder.feed(header + b"x" * 10)
        # The poison payload was never buffered.
        assert decoder.pending_bytes <= len(header) + 10

    def test_frame_at_exact_ceiling_accepted(self):
        decoder = WireDecoder(max_frame=64)
        payload = b"z" * 64
        assert bodies(decoder.feed(encode_wire_frame(payload, max_frame=64))) == [
            payload
        ]
