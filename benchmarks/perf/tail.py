"""Completion detection by tailing the nodes' line-buffered event logs.

Every node appends one JSON line per external event to
``<id>[@<group>].events.jsonl``; a ``brcv`` line is a delivery.  The
tailer reads whatever bytes arrived since the last poll and counts
those lines, so the driver learns about completions without asking the
nodes anything while they are busy.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path
from typing import BinaryIO

#: How ``EventLog.record`` spells a delivery (compact separators).
BRCV_MARK = b'"ev":"brcv"'


class LogTailer:
    """Counts ``brcv`` lines per log file as the files grow."""

    def __init__(self, paths: Iterable[str | Path]) -> None:
        self.paths = [Path(p) for p in paths]
        self._files: dict[Path, BinaryIO] = {}
        self._torn: dict[Path, bytes] = {p: b"" for p in self.paths}
        self.counts: dict[Path, int] = {p: 0 for p in self.paths}

    def poll(self) -> dict[Path, int]:
        """Absorb new bytes; return the running ``brcv`` count per file.
        A last line still being written (no newline yet) is held back
        and counted once its newline arrives."""
        for path in self.paths:
            handle = self._files.get(path)
            if handle is None:
                try:
                    handle = self._files[path] = open(path, "rb")
                except FileNotFoundError:
                    continue  # the node has not created its log yet
            data = handle.read()
            if not data:
                continue
            data = self._torn[path] + data
            cut = data.rfind(b"\n") + 1
            self._torn[path] = data[cut:]
            self.counts[path] += data.count(BRCV_MARK, 0, cut)
        return self.counts

    def close(self) -> None:
        for handle in self._files.values():
            handle.close()
        self._files.clear()
