"""Equivalence gates for the serialise-once event log and the
exact-type binary codec (E28).

The optimised code is the only code path in ``src/``; the definitions
it must agree with live here: an event-log line *is*
``json.dumps(entry, separators=(",", ":"))``, and the wire bytes of a
fixed corpus are pinned by a sha256 computed at the commit before the
change.
"""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import enum
import hashlib
import json
import tempfile
from pathlib import Path
from typing import Any

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from repro.membership.ring import RingConfig, RingMember
from repro.membership.service import TokenRingVS
from repro.rt import framing
from repro.rt import trace as trace_module
from repro.rt.framing import (
    FrameError,
    encode_value,
    register_wire_type,
    registered_wire_types,
    render_value,
)
from repro.rt.node import LiveNode, default_ring_config
from repro.rt.trace import EventLog, load_event_logs
from repro.rt.transport import Ctl, Hello, LiveNetwork
from repro.rt.wire import BinaryDecoder, BinaryEncoder, BinaryWire, WireReader
from repro.shard.live import ShardEnvelope
from tests.rt.test_live_cluster import loopback_peers
from tests.rt.test_wire import EDGE_VALUES, SAMPLES

# ----------------------------------------------------------------------
# The codec's value grammar
# ----------------------------------------------------------------------
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # unbounded: far past 64 bits
    st.floats(allow_nan=False),  # nan != nan would fail the round trip
    st.sampled_from([1e-07, -0.0, 1e300, 2**70, -(2**70), 'q"\\\n', "naïve ☃ \U0001F600"]),
    st.text(max_size=80),  # non-ASCII and escapes; crosses the memo's length cap
    st.just(BOTTOM),
)
hashables = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.frozensets(inner, max_size=3),
    ),
    max_leaves=6,
)
views = st.builds(View, hashables, st.frozensets(st.text(max_size=4), max_size=4))


def _messages(values: st.SearchStrategy[Any]) -> st.SearchStrategy[Any]:
    """Every registered wire class, its fields drawn from ``values``
    (``Summary`` validates its fields, so it gets shaped ones)."""
    shaped = {
        "Summary": st.builds(
            Summary,
            con=st.frozensets(hashables, max_size=3),
            ord=st.lists(hashables, max_size=3).map(tuple),
            next=st.integers(1, 2**40),
            high=hashables,
        )
    }
    return st.one_of(
        [
            shaped[name]
            if name in shaped
            else st.builds(cls, *[values for _ in dataclasses.fields(cls)])
            for name, cls in sorted(registered_wire_types().items())
        ]
    )


values = st.recursive(
    st.one_of(scalars, views),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(hashables, inner, max_size=3),
        st.frozensets(hashables, max_size=3),
        _messages(inner),
    ),
    max_leaves=10,
)


#: The value types nothing can change.
ATOMS = (str, int, float, bool, type(None), Bottom)


def atom(value: Any) -> bool:
    return type(value) in ATOMS


def atoms(value: Any) -> bool:
    """An atom or a tuple of atoms."""
    return atom(value) or (type(value) is tuple and all(map(atom, value)))


def plain_pair(value: Any) -> bool:
    return type(value) is tuple and len(value) == 2 and type(value[0]) is Label and atom(value[1])


def shared(payload: Any) -> bool:
    """Whether a log may name ``payload`` by a back-reference: a
    ``(Label, atom)`` pair, or a ``Summary`` of such pairs and labels."""
    if type(payload) is Summary:
        return (
            all(map(plain_pair, payload.con))
            and all(type(label) is Label for label in payload.ord)
            and atoms(payload.next) and atoms(payload.high)
        )
    return plain_pair(payload)


def reference_line(
    line: str, node: str, name: str, args: list[Any], held: dict[int, int]
) -> str:
    """What ``EventLog.record`` is defined to write, given the stamp
    and sequence number the line carries (``repr`` of a float round
    trips, so re-dumping the parsed stamp reproduces its bytes):
    ``json.dumps`` of the entry, except that a shared VS payload the
    file already holds is written as ``{"!":"at","v":<seq>}``, the
    line that holds it.  ``held`` maps ``id(payload)`` to that line's
    seq, over the lines of one file so far."""
    parsed = json.loads(line)
    encoded = [encode_value(a) for a in args]
    if name in ("gpsnd", "gprcv", "safe") and args:
        payload = args[0]
        if id(payload) in held:
            encoded[0] = {"!": "at", "v": held[id(payload)]}
        elif shared(payload):
            held[id(payload)] = parsed["seq"]
    entry = {
        "ts": parsed["ts"],
        "seq": parsed["seq"],
        "node": node,
        "ev": name,
        "args": encoded,
    }
    return json.dumps(entry, separators=(",", ":"))


class Colour(enum.IntEnum):
    RED = 1


class Name(str):
    pass


#: Argument lists every run checks, beside the drawn ones: one per wire
#: sample and edge value, and the scalars the renderer must leave to
#: ``json.dumps``.
EXPLICIT_ARGS = [
    *([sample, "p1"] for sample in SAMPLES.values()),
    *([value, "p1"] for value in EDGE_VALUES),
    [float("nan"), float("inf"), -0.0, 2**70],
    ['q"\\\n\t', "naïve ☃ \U0001F600", Name('s"ub'), Colour.RED],
    [(Name("x"), Colour.RED, [True, None]), [(), []]],
]


def with_explicit_args(test: Any) -> Any:
    for args in EXPLICIT_ARGS:
        test = example(args, "p1")(test)
    return test


class TestEventLogLines:
    @with_explicit_args
    @settings(max_examples=150, deadline=None)
    @given(st.lists(values, max_size=4), st.sampled_from(["p1", "nœud-2", 'n"3']))
    def test_lines_equal_json_dumps_and_round_trip(self, args, node):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "n.events.jsonl"
            log = EventLog(path, node)
            # Twice with the same objects (memo hits on the second
            # line), once with equal copies (misses by identity).
            copies = copy.deepcopy(args)
            log.record("gpsnd", *args)
            log.record("gprcv", *args)
            log.record("safe", *copies)
            log.close()
            lines = path.read_text(encoding="utf-8").splitlines()
            assert len(lines) == 3
            held: dict[int, int] = {}
            recorded = zip(("gpsnd", "gprcv", "safe"), (args, args, copies), lines)
            for seq, (name, line_args, line) in enumerate(recorded, 1):
                assert line == reference_line(line, node, name, line_args, held)
                assert json.loads(line)["seq"] == seq
            events = load_event_logs([path])
            assert [e["ev"] for e in events] == ["gpsnd", "gprcv", "safe"]
            for event in events:
                assert event["node"] == node
                # repr for NaN, which equals nothing
                assert event["args"] == args or repr(event["args"]) == repr(args)


class CountingFile:
    """Stands in for a log's file and counts its ``write`` calls."""

    def __init__(self, file: Any) -> None:
        self.file = file
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return self.file.write(text)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.file, name)


def one_turn(body: Any) -> None:
    """Run ``body()`` as one callback of a loop turn, then let the next
    turn start."""

    async def scenario() -> None:
        asyncio.get_running_loop().call_soon(body)
        await asyncio.sleep(0)  # body's turn
        await asyncio.sleep(0)  # the turn after it

    asyncio.run(scenario())


class TestOneWritePerTurn:
    """INV-LOG-1: ``record`` buffers, one ``write`` at the end of the
    loop turn empties the buffer."""

    def test_the_turns_lines_are_on_disk_once_it_ends(self, tmp_path):
        path = tmp_path / "p1.events.jsonl"
        log = EventLog(path, "p1")
        on_disk_in_turn: list[str] = []

        def turn() -> None:
            log.record("gpsnd", ("m", 1), "p1")
            log.record("bcast", "v", "p1")
            on_disk_in_turn.append(path.read_text(encoding="utf-8"))

        one_turn(turn)
        assert on_disk_in_turn == [""]
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["ev"] for line in lines] == ["gpsnd", "bcast"]
        log.close()

    def test_a_turn_of_30_events_is_one_write(self, tmp_path):
        log = EventLog(tmp_path / "p1.events.jsonl", "p1")
        log._file = spy = CountingFile(log._file)
        one_turn(lambda: [log.record("gpsnd", ("m", i), "p1") for i in range(30)])
        assert spy.writes == 1
        one_turn(lambda: [log.record("bcast", f"v{i}", "p1") for i in range(30)])
        assert spy.writes == 2
        log.close()
        assert spy.writes == 2
        assert len(load_event_logs([log.path])) == 60


def submit(node: LiveNode, value: str) -> None:
    """A client send handled at once (the control handler's ``send``
    branch never suspends)."""
    with pytest.raises(StopIteration):
        node._on_ctl("driver", Ctl("send", value), lambda reply: None).send(None)


class SpyStream:
    """A peer stream that, at every frame written to it, finds the
    writing node's own entries in the tokens the frame carries and
    notes each whose ``gpsnd`` line is not yet in the node's log."""

    def __init__(self, node: str, stream: Any, log_path: Path, seen: dict[str, list]) -> None:
        self.node, self.stream, self.log_path = node, stream, log_path
        self.reader = WireReader()
        self.seen = seen

    def write(self, frame: bytes) -> None:
        for message in self.reader.feed(frame):
            body = getattr(getattr(message, "msg", None), "body", None)
            own = [p for p, origin in getattr(body, "order", ()) if origin == self.node]
            if own:
                logged = {
                    e["args"][0] for e in load_event_logs([self.log_path])
                    if e["ev"] == "gpsnd"
                }
                self.seen["checked"] += own
                self.seen["late"] += [p for p in own if p not in logged]
        self.stream.write(frame)


class TestWriteAhead:
    """INV-LOG-1: a node's logs are emptied before any frame it writes,
    so a token never leaves ahead of the ``gpsnd`` of an entry it
    carries.  Each node takes a client send in the very turn the token
    reaches it, and writes each frame as it is sent (``LiveNode``'s
    default, no batching window), so the token leaves carrying an entry
    logged in the same turn, before that turn's end could write it."""

    SENDS = 12

    def episode(self, tmp_path: Path, monkeypatch: Any) -> dict[str, list]:
        seen: dict[str, list] = {"checked": [], "late": []}
        frame_sink = LiveNetwork._frame_sink

        def spied(network: LiveNetwork, stream: Any) -> Any:
            path = tmp_path / f"{network.proc_id}.events.jsonl"
            return frame_sink(network, SpyStream(network.proc_id, stream, path, seen))

        monkeypatch.setattr(LiveNetwork, "_frame_sink", spied)
        peers = loopback_peers(3)
        on_message = RingMember.on_message
        budget = list(range(self.SENDS))

        async def scenario() -> None:
            nodes = {p: LiveNode(p, peers, tmp_path, config=default_ring_config(0.02)) for p in peers}

            def token_arrives(member: RingMember, src: str, message: Any) -> None:
                if budget and isinstance(getattr(message, "body", None), Token):
                    submit(nodes[member.proc_id], f"{member.proc_id}-{budget.pop()}")
                on_message(member, src, message)

            monkeypatch.setattr(RingMember, "on_message", token_arrives)
            try:
                for node in nodes.values():
                    await node.start()
                for p in ("p2", "p3", "p1"):  # the leader last
                    await nodes[p]._on_ctl("driver", Ctl("go"), lambda reply: None)
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 10.0
                while budget and loop.time() < deadline:
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.3)  # the last entries ride a lap
            finally:
                for node in nodes.values():
                    await node.close()
                await asyncio.sleep(0.1)  # stream handlers see EOF and end

        asyncio.run(scenario())
        assert not budget, "the ring never took every send"
        return seen

    def test_gpsnd_is_on_disk_before_its_token_leaves(self, tmp_path, monkeypatch):
        seen = self.episode(tmp_path, monkeypatch)
        assert len(set(seen["checked"])) == self.SENDS
        assert seen["late"] == []

    def test_without_the_flush_a_token_leaves_first(self, tmp_path, monkeypatch):
        monkeypatch.setattr(LiveNetwork, "write_ahead", lambda network, flush: None)
        seen = self.episode(tmp_path, monkeypatch)
        assert seen["late"], "the check cannot fail: it proves nothing"


class TestRenderOnce:
    def test_one_payload_is_encoded_once_per_node(self, tmp_path, monkeypatch):
        """gpsnd -> gprcv -> safe of one payload on one node's log
        render it once; across a 3-member ring (which hands gprcv and
        safe the entry object it logged) once per node."""
        procs = (1, 2, 3)
        logs = {p: EventLog(tmp_path / f"{p}.events.jsonl", str(p)) for p in procs}
        payload = (Label((0, 1), 1, 1), "value")
        encoded: list[Any] = []

        def counting(value: Any) -> Any:
            encoded.append(value)
            return render_value(value)

        monkeypatch.setattr(trace_module, "render_value", counting)
        vs = TokenRingVS(procs, RingConfig(delta=1.0, pi=10.0, mu=30.0), seed=0)
        vs.on_gprcv = lambda m, src, dst: logs[dst].record("gprcv", m, src, dst)
        vs.on_safe = lambda m, src, dst: logs[dst].record("safe", m, src, dst)
        vs.start()
        logs[1].record("gpsnd", payload, 1)
        vs.gpsnd(1, payload)
        vs.run_until(100.0)
        for log in logs.values():
            log.close()
        events = load_event_logs(sorted(tmp_path.glob("*.events.jsonl")))
        assert sorted(e["ev"] for e in events) == ["gprcv"] * 3 + ["gpsnd"] + ["safe"] * 3
        assert all(e["args"][0] == payload for e in events)
        assert sum(1 for value in encoded if value is payload) == len(procs)
        assert sum(1 for value in encoded if isinstance(value, tuple)) == len(procs)


class TestMemoSafety:
    def test_reused_id_after_eviction_renders_the_new_payload(self, tmp_path):
        """The memo keys payloads by ``id`` and holds them alive; once it
        is cleared the old payloads die and their addresses are reused
        by new, different payloads — which must render as themselves,
        not as a reference to the line of the dead one."""
        path = tmp_path / "p1.events.jsonl"
        log = EventLog(path, "p1")
        count = 5 * trace_module._MEMO_ENTRIES
        reused = 0
        seen_ids: set[int] = set()
        label = Label((0, "p1"), 1, "p1")
        for i in range(count):
            payload = (label, i)  # once recorded, only the memo holds it
            reused += id(payload) in seen_ids
            seen_ids.add(id(payload))
            log.record("gpsnd", payload, "p1")
            assert len(log._memo) <= trace_module._MEMO_ENTRIES
            del payload
        log.close()
        assert reused, "no address was reused: the test exercised nothing"
        events = load_event_logs([path])
        assert [e["args"][0] for e in events] == [(label, i) for i in range(count)]

    @pytest.mark.parametrize("refused", ["payload", "argument"])
    def test_a_refused_record_leaves_nothing_to_refer_to(self, tmp_path, refused):
        """A record that fails to render writes no line, so no later
        line may name it: the payload is rendered again, in full."""
        path = tmp_path / "p1.events.jsonl"
        log = EventLog(path, "p1")
        payload = (Label((object() if refused == "payload" else 0, "p1"), 1, "p1"), "m")
        with pytest.raises(FrameError):
            log.record("gprcv", payload, "p1", object() if refused == "argument" else "p1")
        if refused == "payload":
            with pytest.raises(FrameError):
                log.record("safe", payload, "p1", "p1")
        else:
            log.record("safe", payload, "p1", "p1")
        log.close()
        events = load_event_logs([path])
        assert [e["args"][0] for e in events] == ([payload] if refused == "argument" else [])

    def test_type_registered_after_a_refusal_encodes(self, tmp_path):
        @dataclasses.dataclass(frozen=True)
        class LateRecord:
            n: int
            who: str

        sample = LateRecord(7, "p1")
        wire = BinaryWire()
        log = EventLog(tmp_path / "p1.events.jsonl", "p1")
        try:
            with pytest.raises(FrameError):
                wire.encode(("x", sample))
            assert wire._encoder.table_size == 0  # the refusal rolled "x" back
            with pytest.raises(FrameError):
                log.record("gpsnd", sample, "p1")
            register_wire_type(LateRecord)
            assert BinaryWire().decode(wire.encode(sample)) == sample
            log.record("gpsnd", sample, "p1")
            log.close()
            (event,) = load_event_logs([log.path])
            assert event["args"] == [sample, "p1"]
        finally:
            log.close()
            framing._REGISTRY.pop("LateRecord", None)
            framing._WIRE_SPECS.pop(LateRecord, None)


# ----------------------------------------------------------------------
# Fixed wire corpus
# ----------------------------------------------------------------------
MEMBERS = ("p1", "p2", "p3")
VIEWID = (3, "p1")

#: sha256 of the concatenated ``BinaryWire.encode`` output of
#: :func:`corpus` on one connection, computed at commit 0c29291 (the
#: parent of the exact-type codec): same values, same bytes.
CORPUS_SHA256 = "fcd2570ce01c890e3d34cc5f449c5d49cd829663ec06a4fa449e6e946f31da65"
CORPUS_BYTES = 76184
#: sha256 over the outcome ("ok" or the FrameError text) of decoding
#: every truncation and a few manglings of the corpus payloads, at the
#: same commit: same refusals, same words.
REJECTIONS_SHA256 = "a728353bce5d4d1e99ecc133263d84a5e677138c6858555d69b34ba302a392d2"


def token(entries: int, base: int = 0, hop: int = 0) -> Token:
    order = []
    for i in range(entries):
        origin = MEMBERS[i % 3]
        label = Label(VIEWID, base + i + 1, origin)
        order.append(((label, f"{origin}-{base + i:06d}"), origin))
    total = base + entries
    return Token(
        viewid=VIEWID,
        members=MEMBERS,
        base=base,
        order=order,
        delivered={"p1": total, "p2": max(0, total - 1), "p3": max(0, total - 2)},
        safed={"p1": max(0, total - 2)},
        seen={m: total for m in MEMBERS},
        trail=["p1", "p2"],
        hop=hop,
    )


def corpus() -> list[object]:
    label = Label(VIEWID, 7, "p2")
    return [
        Hello(src="driver", wire="binary"),
        Ctl("go"),
        Ctl("send", "p1-000001"),
        Ctl("send", {"g": "g1", "v": ("k3", 17)}),
        Ctl("stats"),
        Ctl("ok", {"op": "block", "blocked": ["p2", "p3"]}),
        # a view change: call, accepts, join, first token of the view
        Sequenced(1, NewGroup(VIEWID, "p1")),
        Sequenced(1, Accept(VIEWID, "p2")),
        Sequenced(2, Accept(VIEWID, "p3")),
        Sequenced(2, Join(VIEWID, MEMBERS)),
        Sequenced(3, Probe("p1", (2, "p3"))),
        Sequenced(4, token(0)),
        Sequenced(5, token(1, hop=1)),
        Sequenced(6, token(10, base=1, hop=2)),
        Sequenced(7, token(300, base=11, hop=3)),
        # state exchange
        Sequenced(8, token(1, base=311, hop=4)).body.order[0],
        (label, Summary(
            con=frozenset({(label, "héllo ✓"), (Label(VIEWID, 8, "p3"), BOTTOM)}),
            ord=(label, Label(VIEWID, 8, "p3")),
            next=2,
            high=BOTTOM,
        )),
        Summary(con=frozenset(), ord=(), next=1, high=(2, "p3")),
        ShardEnvelope("g1", Sequenced(9, token(2, base=5, hop=1))),
        View((4, "p2"), frozenset(MEMBERS)),
        # value-grammar edges
        [None, True, False, 0, -1, 63, 64, 127, 128, -64, -65, 2**70, -(2**70)],
        [0.0, -0.0, 1.5, 1e-07, 1e300, float("inf")],
        ["", "p1", "quote\"back\\slash\n", "naïve ☃ \U0001F600", "x" * 255, "y" * 256, "é" * 128],
        {"k": ("v", BOTTOM), ("tk", 1): [None], 3: {"n": frozenset({1, 2, 3})}},
        {"s", "t"},
        tuple(range(200)),
        # interning-table ceiling: more distinct strings than it holds
        [f"unique-{i}" for i in range(5000)],
        ["unique-17", "unique-4999", "p1"],
    ]


#: Records registered after :func:`corpus` was pinned, pinned apart so
#: that the corpus and its refusals stay the parent commit's bytes.
WAKE_SHA256 = "532cc13e84c3b980c3ee2b85d1345310de470f54f3c9c6bbcbae6047dbb85734"
WAKE_BYTES = 70


def wake_corpus() -> list[object]:
    return [
        Sequenced(10, Wake(VIEWID)),
        ShardEnvelope("g1", Sequenced(11, Wake((4, "p2")))),
    ]


class TestWireCorpus:
    def test_bytes_are_the_parent_commits(self):
        wire = BinaryWire()
        blob = b"".join(wire.encode(message) for message in corpus())
        assert len(blob) == CORPUS_BYTES
        assert hashlib.sha256(blob).hexdigest() == CORPUS_SHA256

    def test_wake_bytes_are_pinned(self):
        sender, receiver = BinaryWire(), BinaryWire()
        frames = [sender.encode(message) for message in wake_corpus()]
        assert [receiver.decode(frame) for frame in frames] == wake_corpus()
        blob = b"".join(frames)
        assert len(blob) == WAKE_BYTES
        assert hashlib.sha256(blob).hexdigest() == WAKE_SHA256

    def test_rejections_are_the_parent_commits(self):
        digest = hashlib.sha256()
        refusals: set[str] = set()
        for message in corpus()[:26]:  # without the 5000-string list
            payload = BinaryEncoder().encode(message)
            cuts = range(len(payload)) if len(payload) < 400 else range(0, len(payload), 37)
            mangled = [payload[:cut] for cut in cuts]
            mangled += [payload + b"\x00", b"\x7f" + payload, b"\x08\x05"]
            mangled += [payload[:1] + b"\xff" + payload[2:]]
            mangled += [b"\x0e\x04\x02\x00", b"\x0e\x07\x04Nope\x00"]
            for blob in mangled:
                try:
                    BinaryDecoder().decode(blob)
                    outcome = "ok"
                except FrameError as exc:
                    outcome = str(exc)
                    refusals.add(outcome.split(" ")[0])
                digest.update(outcome.encode("utf-8") + b"\n")
        assert {"truncated", "unknown", "string", "wire-type", "1"} <= refusals
        assert digest.hexdigest() == REJECTIONS_SHA256

    def test_round_trip_and_tables_in_lockstep(self):
        sender, receiver = BinaryWire(), BinaryWire()
        for message in corpus():
            back = receiver.decode(sender.encode(message))
            assert back == message
            assert type(back) is type(message) or isinstance(message, set)
            assert sender._encoder.table_size == receiver._decoder.table_size
        assert sender._encoder.table_size == 4096  # the ceiling was reached

    def test_corpus_covers_the_registry(self):
        seen: set[str] = set()

        def walk(value: Any) -> None:
            if dataclasses.is_dataclass(value):
                seen.add(type(value).__name__)
                for f in dataclasses.fields(value):
                    walk(getattr(value, f.name))
            elif isinstance(value, dict):
                for key, item in value.items():
                    walk(key)
                    walk(item)
            elif isinstance(value, (list, tuple, set, frozenset)):
                for item in value:
                    walk(item)

        walk(corpus())
        walk(wake_corpus())
        assert set(registered_wire_types()) <= seen
