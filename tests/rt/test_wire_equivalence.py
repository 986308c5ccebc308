"""The live partition gate at n = 3, and rerun stability of the
content digest.

Two live runs of the same seeded partition scenario must each verify
clean and complete, and produce identical content digests (which values
were broadcast, and exactly what each node delivered).  Live timing is
nondeterministic, so the digest is the canonical timing-stripped one
from :func:`repro.rt.trace.content_digest_for_dir`, not raw log bytes.
With one wire, rerun stability plus the pinned wire corpus
(``test_serialise_once.py``) is what the old json-vs-binary comparison
of these digests witnessed.
"""

from __future__ import annotations

import asyncio

from repro.rt.cluster import run_cluster
from repro.rt.trace import content_digest_for_dir


def run_once(tmp_path) -> tuple[dict, str]:
    report = asyncio.run(
        run_cluster(
            nodes=3,
            sends=8,
            partition=True,
            log_dir=tmp_path,
            delta=0.05,
            send_interval=0.01,
            settle=0.5,
            seed=7,
        )
    )
    return report, content_digest_for_dir(tmp_path)


class TestWireEquivalence:
    def test_digest_is_stable_across_reruns_of_one_codec(self, tmp_path):
        # The digest must not hash timing: two fresh live runs of the
        # same seeded scenario collide even though their logs differ.
        first_report, first = run_once(tmp_path / "a")
        second_report, second = run_once(tmp_path / "b")
        for report in (first_report, second_report):
            assert report["ok"], (report["violations"], report["to_reason"])
            assert report["delivered_complete"]
            assert report["violations"] == []
            assert report["wire"]["nodes"]["tx/binary"]["frames"] > 0
        assert first == second
