"""The live partition gate at n = 3, and rerun stability of the
content digest.

Two live runs of the same seeded partition scenario must each verify
clean and complete, and produce identical content digests (which values
were broadcast, and exactly what each node delivered).  Live timing is
nondeterministic, so the digest is the canonical timing-stripped one
from :func:`repro.rt.trace.content_digest_for_dir`, not raw log bytes.
With one wire, rerun stability plus the pinned wire corpus
(``test_serialise_once.py``) is what the old json-vs-binary comparison
of these digests witnessed.  The same captures hold the view lifecycle
of the split and the heal.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.rt.cluster import run_cluster
from repro.rt.trace import (
    ONE_GROUP,
    content_digest_for_dir,
    group_event_logs,
    load_event_logs,
)


def run_once(log_dir) -> tuple[dict, str]:
    report = asyncio.run(
        run_cluster(
            nodes=3,
            sends=8,
            partition=True,
            log_dir=log_dir,
            delta=0.05,
            send_interval=0.01,
            settle=0.5,
            seed=7,
        )
    )
    return report, content_digest_for_dir(log_dir)


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("partition")
    return [(root / name, *run_once(root / name)) for name in ("a", "b")]


class TestWireEquivalence:
    def test_digest_is_stable_across_reruns_of_one_codec(self, two_runs):
        # The digest must not hash timing: two fresh live runs of the
        # same seeded scenario collide even though their logs differ.
        for _, report, _ in two_runs:
            assert report["ok"], (report["violations"], report["to_reason"])
            assert report["delivered_complete"]
            assert report["violations"] == []
            assert report["wire"]["nodes"]["tx/binary"]["frames"] > 0
        (_, _, first), (_, _, second) = two_runs
        assert first == second

    def test_the_capture_holds_formations_and_establishments(self, two_runs):
        log_dir = two_runs[0][0]
        events = load_event_logs(group_event_logs(log_dir)[ONE_GROUP].values())
        names = Counter(e["ev"] for e in events)
        assert names["formation"] >= 1 and names["createview"] >= 1
        installed = Counter(
            (e["args"][0].id, e["node"]) for e in events if e["ev"] == "newview"
        )
        established = Counter(
            (e["args"][0], e["node"]) for e in events if e["ev"] == "established"
        )
        assert len(installed) >= 2 and established == installed
