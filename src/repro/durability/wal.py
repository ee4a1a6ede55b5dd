"""The write-ahead log: framed, checksummed, length-prefixed redo records.

File format
-----------

A WAL is a directory of *segment* files named ``wal-<base_lsn>.log`` (the
base LSN zero-padded so lexical order is numeric order).  A segment holds a
sequence of frames::

    +----------------+----------------+------------------+
    | length (u32 LE)| crc32 (u32 LE) | payload (length) |
    +----------------+----------------+------------------+

The payload is compact JSON — one *record*.  Every record carries its LSN
(``"lsn"``) and type (``"t"``).  Transactions are framed by ``begin`` /
``commit`` records around their mutation records; recovery applies only
transactions whose ``commit`` frame survived, so a crash mid-append (a torn
tail) loses at most the transactions whose commit had not been fully
written — never a prefix of one.

Record types
------------

``begin`` / ``commit``      transaction framing (``"x"`` is the txn id);
``insert_batch``            ``{table, start, columns}`` — rows appended at
                            consecutive slots from ``start``, column-major;
``update_batch``            ``{table, row_ids, changes}`` — per-row change
                            dicts, positionally aligned with ``row_ids``;
``delete_batch``            ``{table, row_ids}``;
``truncate``                ``{table}``;
``mapping_change``          informational DDL marker (mapping changes force
                            an immediate checkpoint, so replay never crosses
                            one; recovery refuses the record if it ever does);
``migration_begin``         online-migration lifecycle marker: a migration
                            started (carries the serialized target mapping
                            spec and change description);
``backfill_batch``          one bounded backfill (or catch-up round)
                            batch copied into the shadow database;
``migration_flip``          the atomic flip is about to publish — the flip
                            checkpoint that follows is the durable commit
                            point of the migration;
``migration_abort``         the migration was abandoned; the old layout
                            stays authoritative.

The four migration lifecycle records are appended as standalone committed
mini-transactions (so a scan surfaces them) and carry **no** ``table`` key:
recovery skips them benignly.  Crash semantics are *rollback by default* —
a crash before the flip checkpoint's ``CURRENT`` rename recovers exactly the
old layout (the shadow database was never WAL-logged), a crash after it
recovers exactly the new one (replay skips records at or below the
checkpoint LSN globally, so unpruned old-layout segments are never applied
to the new layout).

Group commit and fsync policy
-----------------------------

``append_transaction`` encodes the whole transaction into one buffer and
hands it to the group-commit buffer.  The fsync policy decides when that
buffer reaches the disk platter:

* ``"commit"`` — write + fsync on every commit (full durability; default);
* ``"batch"``  — write to the OS on every commit, fsync only when the
  group-commit buffer has accumulated ``sync_interval_bytes`` since the last
  sync, and at explicit sync points (checkpoint, close).  A crash can lose
  the most recent commits but never produces an inconsistent state;
* ``"off"``    — write to the OS, never fsync (durability against process
  crashes but not OS/power failures).

Segments and checkpoints
------------------------

A checkpoint *rotates* the log: the active segment is sealed and a fresh one
(based at the checkpoint LSN) becomes active.  Sealed segments are deleted
only after the checkpoint that covers them is durably on disk, so a crash
during a (possibly background) checkpoint write still recovers from the
previous checkpoint plus every sealed segment.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterable, List, Optional, Tuple

from ..errors import DurabilityError
from ..reliability.faults import REAL_FS, Filesystem

#: Supported fsync policies.
FSYNC_MODES = ("commit", "batch", "off")

#: Frame header: payload length then crc32 of the payload, little-endian u32s.
_FRAME = struct.Struct("<II")

#: Default group-commit sync threshold for ``fsync="batch"``.
DEFAULT_SYNC_INTERVAL_BYTES = 256 * 1024

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


def segment_name(base_lsn: int) -> str:
    """Canonical filename of the segment whose first record has ``base_lsn``."""

    return f"{_SEGMENT_PREFIX}{base_lsn:016d}{_SEGMENT_SUFFIX}"


def segment_base(filename: str) -> Optional[int]:
    """The base LSN encoded in a segment filename, or ``None`` if not one."""

    if not (filename.startswith(_SEGMENT_PREFIX) and filename.endswith(_SEGMENT_SUFFIX)):
        return None
    digits = filename[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def list_segments(directory: str) -> List[Tuple[int, str]]:
    """All ``(base_lsn, path)`` WAL segments in a directory, in LSN order."""

    out = []
    for name in os.listdir(directory):
        base = segment_base(name)
        if base is not None:
            out.append((base, os.path.join(directory, name)))
    out.sort()
    return out


def encode_frame(record: Dict[str, Any]) -> bytes:
    """Frame one record: length prefix + CRC32 + compact-JSON payload.

    The length/checksum header is what lets recovery detect torn tails: a
    frame that fails either check ends the valid prefix of the segment.
    """

    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


class WriteAheadLog:
    """Append-only redo log with group commit and segment rotation."""

    def __init__(
        self,
        directory: str,
        fsync: str = "commit",
        base_lsn: int = 0,
        sync_interval_bytes: int = DEFAULT_SYNC_INTERVAL_BYTES,
        fs: Optional[Filesystem] = None,
    ) -> None:
        if fsync not in FSYNC_MODES:
            raise DurabilityError(
                f"unknown fsync mode {fsync!r}; expected one of {FSYNC_MODES}"
            )
        self.directory = directory
        self.fsync = fsync
        self.fs = fs if fs is not None else REAL_FS
        self.sync_interval_bytes = sync_interval_bytes
        os.makedirs(directory, exist_ok=True)
        self._last_lsn = base_lsn
        self._next_txid = 1
        self._unsynced = 0
        self._file: Optional[IO[bytes]] = None
        self._failed: Optional[str] = None
        self._recover_offset: Optional[int] = None
        self.cleanup_errors: List[str] = []
        self._open_segment(base_lsn)

    # -- lifecycle -----------------------------------------------------------

    def _open_segment(self, base_lsn: int) -> None:
        self.segment_base_lsn = base_lsn
        self.segment_path = os.path.join(self.directory, segment_name(base_lsn))
        self._file = self.fs.open(self.segment_path, "ab")

    def close(self) -> None:
        """Sync and close the active segment (idempotent; safe to call twice).

        A failed log skips the final sync — its segment tail is already
        suspect and recovery will truncate to the last committed frame —
        but the handle is always released.
        """

        if self._file is not None:
            try:
                if self._failed is None:
                    self.sync()
            finally:
                self._file.close()
                self._file = None

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (no active segment file)."""

        return self._file is None and self._failed is None

    @property
    def failed(self) -> bool:
        """Whether the log refuses appends until :meth:`heal` succeeds."""

        return self._failed is not None

    @property
    def failure_reason(self) -> Optional[str]:
        return self._failed

    @property
    def last_lsn(self) -> int:
        """The LSN of the most recently appended record."""

        return self._last_lsn

    def _mark_failed(self, reason: str, recover_offset: Optional[int] = None) -> None:
        self._failed = reason
        if recover_offset is not None:
            self._recover_offset = recover_offset

    def heal(self) -> bool:
        """Attempt to bring a failed log back into service.

        Re-opens the active segment if its handle was lost, truncates back
        to the last known-good offset (removing any half-appended frame a
        failed truncate-back left behind), and fsyncs to prove the path is
        writable again.  Returns True when the log accepted the repair;
        raises the underlying ``OSError`` when the disk still refuses, in
        which case the log stays failed.
        """

        if self._failed is None:
            return not self.closed
        if self._file is None:
            self._file = self.fs.open(self.segment_path, "ab")
        if self._recover_offset is not None:
            self.fs.truncate(self._file, self._recover_offset)
            self._file.seek(0, os.SEEK_END)
        self.fs.fsync(self._file)
        self._failed = None
        self._recover_offset = None
        self._unsynced = 0
        return True

    # -- appending -----------------------------------------------------------

    def _next_lsn(self) -> int:
        self._last_lsn += 1
        return self._last_lsn

    def append_transaction(self, records: Iterable[Dict[str, Any]]) -> int:
        """Append one committed transaction (begin + records + commit).

        Assigns the transaction id and per-record LSNs, encodes everything
        into a single buffer and writes it in one OS call, then applies the
        fsync policy.  Returns the commit LSN.
        """

        if self._failed is not None:
            raise DurabilityError(f"write-ahead log has failed: {self._failed}")
        if self._file is None:
            raise DurabilityError("write-ahead log is closed")
        txid = self._next_txid
        self._next_txid += 1
        chunks = [encode_frame({"t": "begin", "x": txid, "lsn": self._next_lsn()})]
        for record in records:
            framed = dict(record)
            framed["lsn"] = self._next_lsn()
            chunks.append(encode_frame(framed))
        commit_lsn = self._next_lsn()
        chunks.append(encode_frame({"t": "commit", "x": txid, "lsn": commit_lsn}))
        blob = b"".join(chunks)
        offset = self._file.tell()
        try:
            self.fs.write(self._file, blob)
            self.fs.flush(self._file)
            if self.fsync == "commit":
                self.fs.fsync(self._file)
                self._unsynced = 0
            elif self.fsync == "batch":
                self._unsynced += len(blob)
                if self._unsynced >= self.sync_interval_bytes:
                    self.fs.fsync(self._file)
                    self._unsynced = 0
        except BaseException as exc:
            # The write/fsync failed after bytes may have reached the file.
            # The caller will treat this commit as failed (and may roll the
            # transaction back), so the log must not keep a commit frame for
            # it: cut the segment back to the pre-append offset.
            try:
                self.fs.truncate(self._file, offset)
                self._file.seek(0, os.SEEK_END)
            except OSError:
                # Cascading disk failure: the half-written frame could not
                # be removed.  Appending anything more would risk a phantom
                # record stitched onto the torn tail, so the log marks
                # itself failed — the durability manager escalates this to
                # READ_ONLY — and remembers the known-good offset so a
                # successful heal() can cut the tail before resuming.
                self._mark_failed(
                    f"append failed and truncate-back failed: {exc}",
                    recover_offset=offset,
                )
            raise
        return commit_lsn

    def append_abort(self, reason: str = "") -> int:
        """Append a standalone abort marker (rolled-back transaction).

        Purely informational — recovery never replays an aborted
        transaction's records because they are only appended at commit — but
        the marker keeps the on-disk log an honest journal of transaction
        outcomes.  Never forces an fsync (abort durability is worthless).
        """

        if self._failed is not None:
            raise DurabilityError(f"write-ahead log has failed: {self._failed}")
        if self._file is None:
            raise DurabilityError("write-ahead log is closed")
        txid = self._next_txid
        self._next_txid += 1
        lsn = self._next_lsn()
        record: Dict[str, Any] = {"t": "abort", "x": txid, "lsn": lsn}
        if reason:
            record["reason"] = reason
        self.fs.write(self._file, encode_frame(record))
        self.fs.flush(self._file)
        return lsn

    def sync(self) -> None:
        """Force everything appended so far to disk — in *every* fsync mode.

        This is the explicit durability point behind
        ``Session.commit(sync=True)``, checkpoints and ``close()``; the
        configured policy only governs *implicit* per-commit behavior, so
        an explicit sync must reach the platter even under ``"off"``.
        """

        if self._failed is not None:
            raise DurabilityError(f"write-ahead log has failed: {self._failed}")
        if self._file is None:
            return
        self.fs.flush(self._file)
        self.fs.fsync(self._file)
        self._unsynced = 0

    # -- rotation ------------------------------------------------------------

    def rotate(self) -> str:
        """Seal the active segment and start a fresh one at the current LSN.

        Called at checkpoint *capture* time: records after the rotation point
        belong to the next checkpoint interval.  Returns the sealed segment's
        path (kept on disk until :meth:`prune` once the covering checkpoint
        is durable).
        """

        if self._failed is not None:
            raise DurabilityError(f"write-ahead log has failed: {self._failed}")
        if self._file is None:
            raise DurabilityError("write-ahead log is closed")
        self.sync()
        self._file.close()
        self._file = None
        sealed = self.segment_path
        sealed_base = self.segment_base_lsn
        try:
            self._open_segment(self._last_lsn)
        except OSError:
            # Could not open the new segment.  Fall back to re-opening the
            # sealed one so the log keeps an active, appendable segment; if
            # even that fails the log is dead and must be healed before any
            # further append.
            self.segment_base_lsn = sealed_base
            self.segment_path = sealed
            try:
                self._file = self.fs.open(sealed, "ab")
            except OSError as reopen_exc:
                self._mark_failed(f"segment rotation lost active segment: {reopen_exc}")
            raise
        return sealed

    def prune(self, checkpoint_lsn: int) -> List[str]:
        """Delete sealed segments fully covered by a durable checkpoint.

        A segment is obsolete when it is not the active segment and its base
        LSN is below the checkpoint LSN (rotation happens exactly at capture,
        so every record in such a segment has ``lsn <= checkpoint_lsn``).
        """

        removed = []
        for base, path in list_segments(self.directory):
            if path != self.segment_path and base < checkpoint_lsn:
                try:
                    self.fs.remove(path)
                    removed.append(path)
                except OSError as exc:
                    # Best-effort: a segment that will not delete wastes
                    # disk but threatens nothing — recovery replays it
                    # idempotently below the checkpoint LSN.  Recorded so
                    # operators (and tests) can see the leak.
                    self.cleanup_errors.append(f"prune {path}: {exc}")
        return removed

    def remove_sealed_segments(self) -> List[str]:
        """Delete every segment except the active one (post-recovery cleanup).

        After recovery has folded the replayed tail into a fresh checkpoint,
        *all* older segments are superseded — including any the scan stopped
        short of (segments after a torn sealed segment must never be
        replayed on a later open, since the history before them has a hole).
        """

        removed = []
        for _base, path in list_segments(self.directory):
            if path != self.segment_path:
                try:
                    self.fs.remove(path)
                    removed.append(path)
                except OSError as exc:
                    # Best-effort, same contract as prune(): the fresh
                    # post-recovery checkpoint supersedes these segments,
                    # so a stuck file is a space leak, not a hazard.
                    self.cleanup_errors.append(f"remove sealed {path}: {exc}")
        return removed


# --------------------------------------------------------------------------
# Scanning / recovery-side reading
# --------------------------------------------------------------------------


@dataclass
class WalScan:
    """Everything recovery needs to know about the surviving log.

    ``transactions`` holds the mutation records of each fully-committed
    transaction, in commit order.  ``torn`` flags that the final segment
    ended in an incomplete/corrupt frame or an unterminated transaction;
    ``valid_end`` is the byte offset (in ``last_segment``) of the end of the
    last committed transaction — the truncation point for the torn tail.
    """

    transactions: List[List[Dict[str, Any]]] = field(default_factory=list)
    last_segment: Optional[str] = None
    valid_end: int = 0
    file_size: int = 0
    last_lsn: int = 0

    @property
    def torn(self) -> bool:
        """Whether the last segment ends in a torn/corrupt frame (crash tail)."""

        return self.valid_end < self.file_size


def _scan_segment(path: str, scan: WalScan, fs: Filesystem = REAL_FS) -> bool:
    """Scan one segment into ``scan``; returns True when it ended cleanly."""

    data = fs.read_bytes(path)
    size = len(data)
    offset = 0
    valid_end = 0
    current: Optional[List[Dict[str, Any]]] = None
    while offset + _FRAME.size <= size:
        length, crc = _FRAME.unpack_from(data, offset)
        end = offset + _FRAME.size + length
        if end > size:
            break  # torn frame
        payload = data[offset + _FRAME.size : end]
        if zlib.crc32(payload) != crc:
            break  # corrupt frame
        try:
            record = json.loads(payload.decode("utf-8"))
        except ValueError:
            break
        kind = record.get("t")
        if kind == "begin":
            current = []
        elif kind == "commit":
            if current is not None:
                scan.transactions.append(current)
            current = None
            valid_end = end
            scan.last_lsn = max(scan.last_lsn, int(record.get("lsn", 0)))
        elif kind == "abort":
            current = None
            valid_end = end
            scan.last_lsn = max(scan.last_lsn, int(record.get("lsn", 0)))
        elif current is not None:
            current.append(record)
        else:
            break  # mutation record outside a transaction: corruption
        offset = end
    scan.last_segment = path
    scan.valid_end = valid_end
    scan.file_size = size
    return valid_end == size and current is None


def scan_segments(directory: str, fs: Filesystem = REAL_FS) -> WalScan:
    """Read WAL segments in LSN order, stopping at the first invalid frame.

    A torn/corrupt frame ends the scan — later bytes *and later segments*
    are ignored, because replaying transactions with a hole in the history
    before them would corrupt state.  Normally only the final (active)
    segment can be torn; a torn sealed segment (possible after an OS crash
    under ``fsync="off"``) degrades the same way: recovery proceeds from
    the longest committed prefix instead of refusing to open.
    """

    scan = WalScan()
    for base, path in list_segments(directory):
        if not _scan_segment(path, scan, fs):
            break
    return scan


def truncate_torn_tail(scan: WalScan, fs: Filesystem = REAL_FS) -> bool:
    """Physically truncate the final segment at the last committed frame."""

    if scan.last_segment is None or not scan.torn:
        return False
    with fs.open(scan.last_segment, "r+b") as handle:
        fs.truncate(handle, scan.valid_end)
        fs.flush(handle)
        fs.fsync(handle)
    scan.file_size = scan.valid_end
    return True
