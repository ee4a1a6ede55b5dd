"""Benchmark-owned filesystem: counts, times, and can crash.

:class:`CountingFilesystem` is a :class:`repro.reliability.Filesystem` passed
to ``ErbiumDB.open(fs=...)``.  It delegates every primitive to the real
filesystem and, per file, counts write / flush / fsync / replace, times the
fsyncs, and remembers how many bytes had reached the disk at the file's last fsync.
:meth:`CountingFilesystem.crash` then discards everything after that point —
killing a process leaves the operating system's cache intact, so the
benchmark itself throws the unflushed bytes away before reopening.

:class:`AckLedger` remembers every write the system acknowledged, so the
benchmark can count the ones a recovered system no longer has.
"""

from __future__ import annotations

import os
from time import perf_counter_ns
from typing import Any, BinaryIO, Callable, Dict, Optional

from repro.reliability import Filesystem

from .spans import SpanRecorder

LAYER = "reliability"


class FileStats:
    __slots__ = ("write_calls", "write_bytes", "flush_calls", "fsync_calls", "fsync_ns")

    def __init__(self) -> None:
        self.write_calls = 0
        self.write_bytes = 0
        self.flush_calls = 0
        self.fsync_calls = 0
        self.fsync_ns = 0


class CountingFilesystem(Filesystem):
    """Counts and times every primitive; tracks each file's fsynced length."""

    def __init__(self) -> None:
        self.files: Dict[str, FileStats] = {}
        self.synced_length: Dict[str, int] = {}
        self.replace_calls = 0
        self.dir_fsync_calls = 0
        self.dir_fsync_ns = 0
        #: set by the traced box: every primitive then records a span
        self.recorder: Optional[SpanRecorder] = None

    def _stats(self, handle: BinaryIO) -> FileStats:
        path = handle.name
        stats = self.files.get(path)
        if stats is None:
            stats = self.files[path] = FileStats()
        return stats

    # -- the Filesystem seam ---------------------------------------------------

    def write(self, handle: BinaryIO, data: bytes) -> int:
        recorder = self.recorder
        span = recorder.begin(LAYER, "fs.write") if recorder is not None else -1
        written = handle.write(data)
        stats = self._stats(handle)
        stats.write_calls += 1
        stats.write_bytes += len(data)
        if span >= 0:
            recorder.end(span)
        return written

    def flush(self, handle: BinaryIO) -> None:
        recorder = self.recorder
        span = recorder.begin(LAYER, "fs.flush") if recorder is not None else -1
        handle.flush()
        self._stats(handle).flush_calls += 1
        if span >= 0:
            recorder.end(span)

    def fsync(self, handle: BinaryIO) -> None:
        recorder = self.recorder
        span = recorder.begin(LAYER, "fs.fsync") if recorder is not None else -1
        started = perf_counter_ns()
        fd = handle.fileno()
        os.fsync(fd)
        stats = self._stats(handle)
        stats.fsync_ns += perf_counter_ns() - started
        stats.fsync_calls += 1
        self.synced_length[handle.name] = os.fstat(fd).st_size
        if span >= 0:
            recorder.end(span)

    def fsync_dir(self, path: str) -> None:
        started = perf_counter_ns()
        super().fsync_dir(path)
        self.dir_fsync_ns += perf_counter_ns() - started
        self.dir_fsync_calls += 1

    def truncate(self, handle: BinaryIO, size: int) -> None:
        handle.truncate(size)
        path = handle.name
        if self.synced_length.get(path, 0) > size:
            self.synced_length[path] = size

    def replace(self, src: str, dst: str) -> None:
        recorder = self.recorder
        span = recorder.begin(LAYER, "fs.replace") if recorder is not None else -1
        os.replace(src, dst)
        self.replace_calls += 1
        # a rename moves the file, fsynced bytes and all
        self.synced_length[dst] = self.synced_length.pop(src, 0)
        if span >= 0:
            recorder.end(span)

    def remove(self, path: str) -> None:
        os.remove(path)
        self.synced_length.pop(path, None)

    # -- totals ----------------------------------------------------------------

    def total(self, field: str, name_prefix: str = "") -> int:
        """Sum one :class:`FileStats` field over files whose base name starts
        with ``name_prefix`` (``"wal-"`` for log segments, ``"ckpt-"`` for
        checkpoints, ``""`` for everything)."""

        return sum(
            getattr(stats, field)
            for path, stats in self.files.items()
            if os.path.basename(path).startswith(name_prefix)
        )

    def counters(self) -> Dict[str, float]:
        return {
            "fs_write_calls": self.total("write_calls"),
            "fs_write_bytes": self.total("write_bytes"),
            "fs_fsync_calls": self.total("fsync_calls") + self.dir_fsync_calls,
            "fs_fsync_s": (self.total("fsync_ns") + self.dir_fsync_ns) / 1e9,
            "fs_replace_calls": self.replace_calls,
        }

    # -- the crash step ----------------------------------------------------------

    def crash(self, root: str) -> int:
        """Cut every file under ``root`` back to its last-fsynced length.

        A file that was never fsynced keeps nothing.  Returns the number of
        bytes discarded.  Call after ``DurabilityManager.abandon()`` so no
        handle still buffers data.
        """

        discarded = 0
        for directory, _dirs, names in os.walk(root):
            for name in names:
                path = os.path.join(directory, name)
                keep = self.synced_length.get(path, 0)
                size = os.path.getsize(path)
                if size > keep:
                    os.truncate(path, keep)
                    discarded += size - keep
        return discarded


def disk_bytes(root: str) -> int:
    """Bytes the database directory occupies (WAL segments + checkpoints)."""

    return sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _dirs, names in os.walk(root)
        for name in names
    )


class AckLedger:
    """Every acknowledged single-row commit on ``S``: key -> last ``s_x``."""

    def __init__(self) -> None:
        self.acked: Dict[int, int] = {}

    def ack(self, key: int, s_x: int) -> None:
        self.acked[key] = s_x

    def lost(self, read: Callable[[int], Optional[Dict[str, Any]]]) -> int:
        """Acknowledged commits that ``read(key)`` — a point read of ``S`` on
        the recovered system — no longer returns with the acknowledged value."""

        missing = 0
        for key, s_x in self.acked.items():
            row = read(key)
            if row is None or row.get("s_x") != s_x:
                missing += 1
        return missing
