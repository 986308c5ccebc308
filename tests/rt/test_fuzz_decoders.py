"""Fuzz the two decoders: nothing but :class:`FrameError` escapes.

Arbitrary bytes, arbitrary payloads under a good header and single-byte
mutations of the pinned corpus's frames go through
:meth:`~repro.rt.wire.WireReader.feed`; arbitrary JSON, tagged records
included, goes through :meth:`~repro.rt.framing.TaggedDecoder.decode`.
These draw fresh examples, so they run only under the nightly
``HYPOTHESIS_PROFILE=explore``; tier-1 keeps the pinned cases
(``test_wire.py::TestHostilePayloads``,
``test_decode_once.py::TestMalformedRecords``).
"""

from __future__ import annotations

import dataclasses
import json
import os
from functools import cache
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rt.framing import FrameError, TaggedDecoder, registered_wire_types
from repro.rt.wire import FLAG_BATCH, WireReader, WireWriter, encode_wire_frame
from tests.rt.test_serialise_once import corpus, wake_corpus

pytestmark = pytest.mark.skipif(
    os.environ.get("HYPOTHESIS_PROFILE") != "explore",
    reason="fuzzing draws fresh examples: HYPOTHESIS_PROFILE=explore only",
)


@cache
def corpus_frames() -> tuple[bytes, ...]:
    """The corpus and the wake frames as one connection puts them on
    the wire, one frame a message."""
    frames: list[bytes] = []
    writer = WireWriter()
    writer.attach(frames.append)
    for message in corpus() + wake_corpus():
        writer.send(message)
    return tuple(frames)


def feed(*chunks: bytes) -> None:
    """Feed one fresh stream; a refusal is the only allowed failure."""
    reader = WireReader()
    try:
        for chunk in chunks:
            reader.feed(chunk)
    except FrameError:
        pass


class TestWireReader:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.binary(max_size=64), max_size=6))
    def test_arbitrary_bytes(self, chunks):
        feed(*chunks)

    @settings(max_examples=2000, deadline=None)
    @given(st.binary(max_size=256), st.sampled_from([0, FLAG_BATCH]))
    def test_arbitrary_payload_under_a_good_header(self, payload, flags):
        feed(encode_wire_frame(payload, flags))

    @settings(max_examples=1000, deadline=None)
    @given(st.data())
    def test_single_byte_mutations_of_the_corpus(self, data):
        frames = corpus_frames()
        index = data.draw(st.integers(0, len(frames) - 1))
        frame = bytearray(frames[index])
        frame[data.draw(st.integers(0, len(frame) - 1))] = data.draw(st.integers(0, 255))
        feed(b"".join(frames[:index]), bytes(frame))


TAGS = ["t", "fs", "d", "view", "bot", "m", "zz"]
KEYS = ["!", "v", "m", "f", "id", "set", "seqno", "origin"]


def tagged(inner: st.SearchStrategy[Any]) -> st.SearchStrategy[Any]:
    """Records of every tag, well formed or not."""
    records = [
        st.fixed_dictionaries(
            {"!": st.just("m"), "m": st.just(name), "f": st.fixed_dictionaries(
                {f.name: inner for f in dataclasses.fields(cls)}
            )}
        )
        for name, cls in sorted(registered_wire_types().items())
    ]
    return st.one_of(
        st.fixed_dictionaries({"!": st.sampled_from(TAGS)}, optional={"v": inner}),
        st.fixed_dictionaries({"!": st.just("view")}, optional={"id": inner, "set": inner}),
        st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=4),
        *records,
    )


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(TAGS + sorted(registered_wire_types())),
    lambda inner: st.lists(inner, max_size=4) | tagged(inner),
    max_leaves=20,
)


class TestTaggedDecoder:
    @settings(max_examples=3000, deadline=None)
    @given(json_values, st.booleans())
    def test_arbitrary_json(self, doc, interning):
        decoder = TaggedDecoder(labels={} if interning else None)
        try:
            decoder.decode(json.dumps(doc))
        except FrameError:
            pass
