"""The one-pass tagged-JSON decoder held to the two-pass one it
replaced (``tests/reference.py``): the same values and refusals for
one value of the log grammar, the same event lists, types and errors
for captures, and only labels shared.

One deliberate difference: a tagged record with a missing part or a
part of the wrong shape (``MALFORMED``) is a :class:`FrameError` here,
while the reference still raises the ``KeyError`` or ``TypeError`` of
the Python call that failed."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Label
from repro.membership.messages import Token
from repro.rt import trace as trace_module
from repro.rt.framing import FrameError, TaggedDecoder, encode_value
from repro.rt.trace import VS_EVENTS, TO_EVENTS, EventLog, EventLogError, load_event_logs
from repro.rt.transport import Ctl
from tests import reference
from tests.rt.test_serialise_once import values
from tests.rt.test_wire import EDGE_VALUES, SAMPLES, edge_id


def outcome(decode: Any, *args: Any) -> tuple[str, Any]:
    """What a decoder returned, or the type and text of its refusal."""
    try:
        return "ok", decode(*args)
    except (FrameError, EventLogError) as exc:
        return type(exc).__name__, str(exc)


def encode_message(value: Any) -> bytes:
    """One value of the log grammar, as bytes."""
    return json.dumps(encode_value(value), separators=(",", ":")).encode()


def decode_message(payload: bytes) -> Any:
    """The one-pass decoder reading one value, refusing as the
    reference does: text that is not JSON, and an untagged object no
    record took."""
    try:
        value, untagged = TaggedDecoder().decode(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from exc
    if untagged is not None:
        raise FrameError("unknown codec tag None")
    return value


# ----------------------------------------------------------------------
# Values
# ----------------------------------------------------------------------
class TestMessages:
    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_registered_types_as_the_reference(self, name):
        payload = encode_message(SAMPLES[name])
        back = decode_message(payload)
        assert back == reference.decode_message(payload) == SAMPLES[name]
        assert type(back) is type(SAMPLES[name])

    @pytest.mark.parametrize("value", EDGE_VALUES, ids=edge_id)
    def test_edge_values_as_the_reference(self, value):
        payload = encode_message(value)
        back = decode_message(payload)
        assert back == reference.decode_message(payload) == value
        assert type(back) is type(value)

    @settings(max_examples=150, deadline=None)
    @given(values)
    def test_value_grammar_as_the_reference(self, value):
        payload = encode_message(value)
        assert decode_message(payload) == reference.decode_message(payload) == value

    @pytest.mark.parametrize(
        "doc",
        [
            {"!": "zz"},
            {"!": "t", "v": [1, {"!": "zz"}]},
            {"!": "m", "m": "Nope", "f": {}},
            {"!": "t", "v": [{"!": "m", "m": "Nope", "f": {"a": 1}}]},
            # untagged objects where a value belongs
            {"k": 1},
            [{"k": 1}],
            {"!": "t", "v": [{"k": 1}]},
            {"!": "fs", "v": [{"!": "t", "v": [{"k": 1}]}]},
            {"!": "d", "v": [["k", {"k": 1}]]},
            {"!": "m", "m": "Ctl", "f": {"op": "send", "data": {"g": "g1", "v": "x"}}},
            {"!": "m", "m": "Ctl", "f": {"op": "go", "data": [{"k": 1}, {"j": 2}]}},
        ],
        ids=json.dumps,
    )
    def test_refusals_as_the_reference(self, doc):
        payload = json.dumps(doc).encode()
        refused = outcome(decode_message, payload)
        assert refused[0] == "FrameError"
        assert refused == outcome(reference.decode_message, payload)

    @pytest.mark.parametrize(
        "payload",
        [b' {"!": "t", "v": [1]}\r\n', b"\t[1, 2] ", b'{"!": "bot"} {}', b"[1] x", b"", b" ", b"[1,"],
    )
    def test_whitespace_and_junk_around_a_value_as_json_reads_them(self, payload):
        assert outcome(decode_message, payload) == outcome(reference.decode_message, payload)

    def test_a_field_map_must_be_the_records_own(self):
        # A field map that is itself tagged is no field map: the old
        # decoder failed on it too, with a TypeError.
        doc = {"!": "m", "m": "Ctl", "f": {"!": "d", "v": [["op", "go"]]}}
        with pytest.raises(FrameError, match="field map"):
            decode_message(json.dumps(doc).encode())
        with pytest.raises(TypeError):
            reference.decode_message(json.dumps(doc).encode())

    def test_frames_are_not_interned(self):
        payload = encode_message((Label((0, "p1"), 1, "p1"), "v"))
        assert decode_message(payload)[0] is not decode_message(payload)[0]


# ----------------------------------------------------------------------
# Captures
# ----------------------------------------------------------------------
EVENTS = VS_EVENTS + TO_EVENTS
events = st.lists(
    st.tuples(st.sampled_from(EVENTS), st.lists(values, max_size=3)),
    min_size=1,
    max_size=5,
)

#: Valid JSON lines the grammar refuses, one per way to break it.
BAD_ARGS = [
    {"!": "zz"},
    {"!": "m", "m": "Nope", "f": {}},
    {"k": 1},
    {"!": "t", "v": [{"k": 1}]},
    {"!": "m", "m": "Ctl", "f": {"op": "x", "data": {"k": 1}}},
]
DAMAGE = ["none", "torn tail", "torn interior", "refused"]
HEAD = '{"ts": 2.0, "seq": 2, "node": "p1", "ev": "bcast", "args": '
GOOD = HEAD + '["v", "p1"]}'


def write_capture(tmp: Path, logs: list[list[Any]], data: st.DataObject) -> list[Path]:
    """Each of ``logs`` written by an ``EventLog``, then blank lines and
    at most one kind of damage added the way a reader can meet them."""
    paths = []
    for i, log_events in enumerate(logs):
        path = tmp / f"p{i}.events.jsonl"
        log = EventLog(path, f"p{i}")
        for name, args in log_events:
            log.record(name, *args)
        log.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        for _ in range(data.draw(st.integers(0, 2))):
            at = data.draw(st.integers(0, len(lines)))
            lines.insert(at, data.draw(st.sampled_from(["", "  ", "\t"])))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    damage = data.draw(st.sampled_from(DAMAGE))
    path = data.draw(st.sampled_from(paths))
    lines = path.read_text(encoding="utf-8").splitlines()
    filled = [i for i, line in enumerate(lines) if line.strip()]
    if damage == "torn tail" or (damage == "torn interior" and len(filled) > 1):
        at = filled[-1] if damage == "torn tail" else data.draw(st.sampled_from(filled[:-1]))
        # The cut is a fraction of the line, not a bound drawn from its
        # length: a line's length moves with the wall-clock stamp on it,
        # and the same choices must build the same strategies.
        per_mille = data.draw(st.integers(0, 1000))
        lines[at] = lines[at][: 1 + per_mille * (len(lines[at]) - 2) // 1000]
    elif damage == "refused":
        bad = data.draw(st.sampled_from(BAD_ARGS))
        entry = {"ts": 0.5, "seq": 0, "node": "px", "ev": "gpsnd", "args": [bad, "px"]}
        lines.insert(data.draw(st.integers(0, len(lines))), json.dumps(entry))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths


class RecordingData:
    """Draws through ``data``, noting each strategy and what it drew
    (with the capture's directory left out)."""

    def __init__(self, data: st.DataObject, tmp: str) -> None:
        self.data, self.tmp = data, tmp
        self.draws: list[tuple[str, str]] = []

    def draw(self, strategy: st.SearchStrategy[Any]) -> Any:
        value = self.data.draw(strategy)
        self.draws.append((repr(strategy).replace(self.tmp, ""), repr(value).replace(self.tmp, "")))
        return value


def test_capture_draws_do_not_depend_on_the_clock(monkeypatch):
    """The same choices under two clocks whose stamps differ in length
    build the same strategies and draw the same values."""
    logs = [[("bcast", ["v", "p1"]), ("gpsnd", [("m", 1), "p1"])], [("bcast", ["w", "p2"])]]
    clock = [0.0]
    monkeypatch.setattr(trace_module, "time", SimpleNamespace(time=lambda: clock[0]))
    runs: list[list[tuple[str, str]]] = []

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def capture(data: st.DataObject) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            recorder = RecordingData(data, tmp)
            write_capture(Path(tmp), logs, recorder)
        runs[-1].extend(recorder.draws)

    for stamp in (1.5, 1760000000.1234567):
        clock[0] = stamp
        runs.append([])
        capture()
    cut = repr(st.integers(0, 1000))
    assert any(strategy == cut for strategy, _ in runs[0]), "no line was cut"
    assert runs[0] == runs[1]


class TestCaptures:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(events, min_size=1, max_size=3), st.data())
    def test_loader_as_the_reference(self, logs, data):
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_capture(Path(tmp), logs, data)
            got = outcome(load_event_logs, paths)
            expected = outcome(reference.load_event_logs, paths)
            assert got == expected
            assert repr(got) == repr(expected)  # the same types, too

    def test_torn_interior_line_is_named(self, tmp_path):
        path = tmp_path / "p1.events.jsonl"
        log = EventLog(path, "p1")
        for i in range(3):
            log.record("gpsnd", (Label((0, "p1"), i + 1, "p1"), f"m{i}"), "p1")
        log.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1][:40]
        path.write_text("\n\n".join(lines) + "\n", encoding="utf-8")
        refused = outcome(load_event_logs, [path])
        assert refused == ("EventLogError", f"{path}: line 3 is not valid JSON and is not the last line of the log")
        assert refused == outcome(reference.load_event_logs, [path])

    def test_a_line_broken_twice_is_still_torn(self, tmp_path):
        # An unknown tag closes before the JSON breaks: still a torn
        # tail, as when the whole line was parsed before decoding.
        path = tmp_path / "p1.events.jsonl"
        good = {"ts": 1.0, "seq": 1, "node": "p1", "ev": "bcast", "args": ["v", "p1"]}
        path.write_text(json.dumps(good) + '\n{"ts": 2.0, "args": [{"!": "zz"}, ', encoding="utf-8")
        assert load_event_logs([path]) == reference.load_event_logs([path])

    def test_a_line_holding_more_than_its_entry_is_refused(self, tmp_path):
        path = tmp_path / "p1.events.jsonl"
        path.write_text(GOOD + "\n" + GOOD + "," + GOOD + "\n" + GOOD + "\n", encoding="utf-8")
        refused = outcome(load_event_logs, [path])
        assert refused[0] == "EventLogError" and "line 2 " in refused[1]
        assert refused == outcome(reference.load_event_logs, [path])

    def test_a_nan_in_a_line_decodes_as_json_does(self, tmp_path):
        path = tmp_path / "p1.events.jsonl"
        path.write_text(GOOD + "\n" + HEAD + '[NaN, Infinity, "p1"]}\n', encoding="utf-8")
        events = load_event_logs([path])
        assert repr(events) == repr(reference.load_event_logs([path]))
        assert repr(events[1]["args"]) == "[nan, inf, 'p1']"

    def test_json_that_is_no_event_is_refused(self, tmp_path):
        path = tmp_path / "p1.events.jsonl"
        for line in ('[1, 2]', '{"!": "t", "v": []}', '{"ts": 1.0, "args": "p1"}'):
            path.write_text(line + "\n" + line + "\n", encoding="utf-8")
            with pytest.raises(EventLogError, match="line 1 is not an event"):
                load_event_logs([path])


class TestInterning:
    def test_one_payload_is_one_label_across_a_capture(self, tmp_path):
        """gpsnd, three gprcv and three safe: one payload's seven lines in
        three files decode to one Label object."""
        procs = ("p1", "p2", "p3")
        logs = {p: EventLog(tmp_path / f"{p}.events.jsonl", p) for p in procs}
        for seqno in (1, 2):
            payload = (Label((0, "p1"), seqno, "p1"), f"m{seqno}")
            logs["p1"].record("gpsnd", payload, "p1")
            for p in procs:
                logs[p].record("gprcv", payload, "p1", p)
            for p in procs:
                logs[p].record("safe", payload, "p1", p)
        for log in logs.values():
            log.close()
        paths = sorted(tmp_path.glob("*.events.jsonl"))
        events = load_event_logs(paths)
        assert events == reference.load_event_logs(paths)
        labels = [e["args"][0][0] for e in events]
        assert len(labels) == 14
        assert len({id(label) for label in labels}) == 2
        again = load_event_logs(paths)
        assert again[0]["args"][0][0] is not labels[0]  # one table per call

    def test_only_labels_are_shared(self, tmp_path):
        token = SAMPLES["Token"]
        assert isinstance(token, Token)
        label = Label((0, "p1"), 1, "p1")
        shaped = [token, Ctl("stats", [1, 2]), SAMPLES["Sequenced"], label]
        path = tmp_path / "p1.events.jsonl"
        log = EventLog(path, "p1")
        for _ in range(2):
            log.record("gpsnd", tuple(shaped), "p1")
        log.close()
        first, second = (e["args"][0] for e in load_event_logs([path]))
        assert first == second == tuple(shaped)
        assert first[0] is not second[0]  # a Token is mutable
        assert first[1] is not second[1]
        assert first[2] is not second[2]
        assert first[3] is second[3]

    @pytest.mark.parametrize(
        "label, twin",
        [
            (Label((0, "p1"), 1, "p1"), Label((0, "p1"), True, "p1")),
            (Label((0, "p1"), 1, "p1"), Label((0, "p1"), 1.0, "p1")),
            (Label((0, "p1"), 0, "p1"), Label((0, "p1"), False, "p1")),
            (Label((1, "p1"), 2, "p1"), Label((True, "p1"), 2, "p1")),
            (Label((0.0, "p1"), 2, "p1"), Label((-0.0, "p1"), 2, "p1")),
            (Label(((1,), "p1"), 2, "p1"), Label(((True,), "p1"), 2, "p1")),
            (Label((0, "p1"), 2, 1), Label((0, "p1"), 2, True)),
        ],
        ids=repr,
    )
    def test_equal_labels_of_other_types_keep_their_own(self, tmp_path, label, twin):
        assert label == twin and repr(label) != repr(twin)
        path = tmp_path / "p1.events.jsonl"
        log = EventLog(path, "p1")
        for value in (label, twin, label, twin):
            log.record("gpsnd", (value, "m"), "p1")
        log.close()
        events = load_event_logs([path])
        assert repr(events) == repr(reference.load_event_logs([path]))
        assert [repr(e["args"][0][0]) for e in events] == [repr(label), repr(twin)] * 2


#: Valid JSON the grammar refuses as malformed, where the reference
#: raises the error of the call that failed.
MALFORMED = [
    ({"!": "t"}, KeyError),
    ({"!": "fs", "v": [[1]]}, TypeError),
    ({"!": "d", "v": [1]}, TypeError),
    ({"!": "m", "m": "Label", "f": {"x": 1}}, TypeError),
]
MALFORMED_IDS = [json.dumps(doc) for doc, _ in MALFORMED]


class TestMalformedRecords:
    """The deliberate difference from the reference: a typed refusal."""

    @pytest.mark.parametrize("doc, untyped", MALFORMED, ids=MALFORMED_IDS)
    def test_the_decoder_refuses_typed(self, doc, untyped):
        with pytest.raises(FrameError):
            TaggedDecoder().decode(json.dumps(doc))
        with pytest.raises(untyped):
            reference.decode_message(json.dumps(doc).encode())

    @pytest.mark.parametrize("doc, untyped", MALFORMED, ids=MALFORMED_IDS)
    def test_the_loader_refuses_typed(self, tmp_path, doc, untyped):
        # An interior line: valid JSON, so not a torn tail.
        path = tmp_path / "p1.events.jsonl"
        bad = {"ts": 1.5, "seq": 2, "node": "p1", "ev": "gpsnd", "args": [doc, "p1"]}
        path.write_text("\n".join([GOOD, json.dumps(bad), GOOD]) + "\n", encoding="utf-8")
        with pytest.raises(FrameError):
            load_event_logs([path])
        with pytest.raises(untyped):
            reference.load_event_logs([path])
