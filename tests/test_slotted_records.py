"""The value records every step allocates or history retains are slotted.

Each record below carries no instance ``__dict__``, and survives
``pickle``, ``copy.deepcopy`` and ``dataclasses.replace`` as an equal
value with the same ``hash`` (when it is hashable) and the same
``repr`` (field by field where a field holds a set).  The module needs
no pytest to run, so the same round-trips can be checked on an
interpreter without it::

    PYTHONPATH=src python tests/test_slotted_records.py
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import sys

from repro.core.types import Label, View
from repro.core.vstoto.runtime import Delivery
from repro.core.vstoto.summary import Summary
from repro.ioa.actions import act
from repro.ioa.timed import TimedEvent
from repro.membership.messages import (
    Accept,
    Join,
    NewGroup,
    Probe,
    Sequenced,
    Token,
    Wake,
)
from repro.net.channel import Packet
from repro.net.status import FailureStatus, StatusEvent
from repro.rt.transport import Ctl, Hello
from repro.sim.engine import _QueuedEvent


def _fire() -> None:
    """A picklable simulator callback."""


_VIEWID = (2, "p1")
_LABEL = Label(_VIEWID, 1, "p1")

SAMPLES = [
    act("bcast", "a", "p1"),
    TimedEvent(1.5, act("brcv", "a", "p1", "p2")),
    Delivery(1.5, "a", "p1", "p2"),
    View(_VIEWID, frozenset({"p1", "p2"})),
    _LABEL,
    Summary(frozenset({(_LABEL, "a")}), (_LABEL,), 2, _VIEWID),
    _QueuedEvent(0.25, 7, _fire),
    Packet("p1", "p2", Probe("p1", _VIEWID), 5, 0.25),
    StatusEvent(0.5, ("p1", "p2"), FailureStatus.UGLY),
    NewGroup(_VIEWID, "p1"),
    Accept(_VIEWID, "p2"),
    Join(_VIEWID, ("p1", "p2")),
    Token(
        _VIEWID,
        ("p1", "p2"),
        base=1,
        order=[("a", "p1")],
        delivered={"p1": 2},
        safed={"p1": 1},
        seen={"p1": 2},
        trail=["p1"],
        hop=4,
    ),
    Probe("p1", _VIEWID),
    Wake(_VIEWID),
    Sequenced(3, Probe("p1", _VIEWID)),
    Hello("p1"),
    Ctl("go", ("p1", 2)),
]


def _fields(record: object) -> list[object]:
    fields = dataclasses.fields(record)  # type: ignore[arg-type]
    return [getattr(record, f.name) for f in fields]


def check_round_trips(record: object) -> None:
    assert not hasattr(record, "__dict__"), type(record).__name__
    hashable = type(record).__hash__ is not None
    # A copied set may iterate in another order, so its repr is not a
    # property of the record: compare such records field by field.
    has_set = any(isinstance(v, (set, frozenset)) for v in _fields(record))
    for copied in (
        pickle.loads(pickle.dumps(record)),
        copy.deepcopy(record),
        dataclasses.replace(record),  # type: ignore[type-var]
    ):
        assert copied is not record
        assert type(copied) is type(record)
        assert copied == record
        if has_set:
            for got, want in zip(_fields(copied), _fields(record)):
                assert type(got) is type(want) and got == want
        else:
            assert repr(copied) == repr(record)
        if hashable:
            assert hash(copied) == hash(record)


def pytest_generate_tests(metafunc):  # type: ignore[no-untyped-def]
    if "record" in metafunc.fixturenames:
        metafunc.parametrize(
            "record", SAMPLES, ids=[type(r).__name__ for r in SAMPLES]
        )


def test_record_is_slotted_and_round_trips(record: object) -> None:
    check_round_trips(record)


def test_samples_cover_distinct_records() -> None:
    assert len({type(r) for r in SAMPLES}) == len(SAMPLES)


if __name__ == "__main__":
    print(sys.version.split()[0])
    for sample in SAMPLES:
        check_round_trips(sample)
        print(f"ok  {type(sample).__name__}")
    print(f"{len(SAMPLES)} records: no __dict__; pickle, deepcopy, replace round-trip")
