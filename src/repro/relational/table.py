"""Row-oriented table storage with index maintenance.

A :class:`Table` owns:

* a :class:`~repro.relational.types.TableSchema`,
* a list of row dicts (``None`` marks a deleted slot so row ids stay stable),
* any number of secondary indexes (kept in sync on every mutation).

Row ids are positions in the row list and are what indexes store.  Deleted
slots are reused only by an explicit :meth:`vacuum`; this keeps undo logs for
transactions simple (an undo can re-insert at the same row id).

Every mutation also logs the slots it wrote, so :meth:`Table.snapshot` can
derive the next read snapshot from the previous one in O(written rows)
instead of rebuilding it (see :class:`~repro.relational.mvcc.TableSnapshot`).
"""

from __future__ import annotations

import threading

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from operator import itemgetter

import numpy as np

from ..errors import CatalogError, ExecutionError, TypeMismatchError
from .batch import Batch, ColumnData
from .indexes import HashIndex, Index, IndexDefinition, create_index
from .mvcc import TableSnapshot
from .typed import pylist
from .types import TableSchema


class Table:
    """One physical table: schema + rows + indexes."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: List[Optional[Dict[str, Any]]] = []
        self._indexes: Dict[str, Index] = {}
        self._live_count = 0
        self._version = 0
        # The latest snapshot, and the dirty log: the slots (ints, or ranges
        # for batches) written since.  Only mutators touch the log — they
        # append, or swap in a fresh list to mean "every slot" — and a
        # snapshot build remembers which list it consumed and how far
        # (``_consumed``), so a build never loses a concurrent writer's entry.
        self._snapshot: Optional[TableSnapshot] = None
        self._dirty: List[Union[int, range]] = []
        self._consumed: Tuple[Optional[list], int] = (None, 0)
        self._snapshot_lock = threading.Lock()
        # Per-slot write stamps: the data version at which each slot was last
        # mutated (insert, update, delete, undo re-insert).  Snapshot-isolation
        # transactions compare these against their read view's watermark for
        # first-committer-wins conflict detection; see Database._check_write_conflict.
        self._row_versions: List[int] = []
        if schema.primary_key:
            self.create_index(
                IndexDefinition(
                    name=f"{schema.name}_pkey",
                    table=schema.name,
                    columns=tuple(schema.primary_key),
                    unique=True,
                    kind="hash",
                )
            )

    # -- metadata ----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return self._live_count

    @property
    def row_count(self) -> int:
        return self._live_count

    def indexes(self) -> Dict[str, Index]:
        return dict(self._indexes)

    def index_on(self, columns: Tuple[str, ...]) -> Optional[Index]:
        """The first index whose key is exactly ``columns`` (order-sensitive).

        The one rule for whether an index answers an equality probe: the
        access builder and the cost model ask it before planning an
        ``IndexLookup``, and :meth:`lookup` / :meth:`lookup_ids` ask it
        before falling back to a scan.
        """

        for index in self._indexes.values():
            if index.columns == tuple(columns):
                return index
        return None

    # -- index management ---------------------------------------------------

    def create_index(self, definition: IndexDefinition) -> Index:
        if definition.name in self._indexes:
            raise CatalogError(f"index {definition.name!r} already exists")
        for column in definition.columns:
            if not self.schema.has_column(column):
                raise CatalogError(
                    f"index {definition.name!r} references unknown column {column!r}"
                )
        index = create_index(definition)
        for row_id, row in enumerate(self._rows):
            if row is not None:
                index.insert(row_id, row)
        self._indexes[definition.name] = index
        return index

    def drop_index(self, name: str) -> None:
        if name not in self._indexes:
            raise CatalogError(f"index {name!r} does not exist")
        del self._indexes[name]

    # -- row access ---------------------------------------------------------

    def is_live(self, row_id: int) -> bool:
        """Whether ``row_id`` names a live (non-deleted, in-range) slot."""

        return 0 <= row_id < len(self._rows) and self._rows[row_id] is not None

    def get_row(self, row_id: int) -> Dict[str, Any]:
        if row_id < 0 or row_id >= len(self._rows) or self._rows[row_id] is None:
            raise ExecutionError(f"invalid row id {row_id} for table {self.name!r}")
        return self._rows[row_id]

    def rows(self) -> Iterator[Dict[str, Any]]:
        """Iterate live rows (shared dicts; callers must not mutate them)."""

        for row in self._rows:
            if row is not None:
                yield row

    def rows_with_ids(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        for row_id, row in enumerate(self._rows):
            if row is not None:
                yield row_id, row

    # -- columnar access -----------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic data version; bumped by every mutation."""

        return self._version

    def row_version(self, row_id: int) -> int:
        """The data version at which slot ``row_id`` was last written.

        Valid for tombstoned slots too (a delete is a write event); slots
        beyond the stamp list — possible only transiently — report version 0.
        """

        if 0 <= row_id < len(self._row_versions):
            return self._row_versions[row_id]
        return 0

    def _publish(self, slots: Union[int, range, None] = None) -> None:
        """Log ``slots`` as written (``None``: every slot), then bump the version.

        Logging first is what :meth:`snapshot` relies on: a build that reads
        the new version finds the write in the log.  A log longer than the
        slot list is swapped for a fresh one — the next build then rereads
        every slot, which costs no more than replaying that many entries.
        """

        if slots is None:
            self._dirty = []
        else:
            dirty = self._dirty
            dirty.append(slots)
            if len(dirty) > len(self._rows):
                self._dirty = []
        self._version += 1

    def written_since(self, version: int) -> np.ndarray:
        """Ascending ids of the slots whose :meth:`row_version` exceeds ``version``.

        Every slot a write touched after a read view pinned ``version``:
        inserted, updated, deleted, restored by an undo or cut by a
        truncate.  The stamp list never shrinks, so a slot a truncate cut
        still reports that write.
        """

        return np.flatnonzero(np.array(self._row_versions, dtype=np.int64) > version)

    def _stamp(self, row_id: int) -> None:
        """Publish a write of one slot and stamp it with the new version."""

        self._publish(row_id)
        versions = self._row_versions
        if row_id < len(versions):
            versions[row_id] = self._version
        else:
            if row_id > len(versions):
                versions.extend([0] * (row_id - len(versions)))
            versions.append(self._version)

    def _stamp_range(self, start: int, stop: int) -> None:
        """Stamp slots ``[start, stop)`` with the current version."""

        versions = self._row_versions
        if len(versions) < stop:
            versions.extend([0] * (stop - len(versions)))
        versions[start:stop] = [self._version] * (stop - start)

    def column_data(self, columns: Iterable[str]) -> Dict[str, ColumnData]:
        """Column-major snapshot of the requested columns over live rows.

        The columns come from :meth:`snapshot` — derived once per data
        version from the previous version's columns plus the slots written
        since, and shared afterwards (this is the batch executor's scan fast
        path, so queries read prebuilt columns instead of re-walking row
        dicts).  Columns whose declared type fits a typed layout come back as
        immutable :class:`~repro.relational.typed.TypedColumn` arrays (the
        vectorized kernels' input); the rest are plain lists.  Callers must
        treat either as immutable; unknown columns come back as all-``None``,
        matching ``row.get``.
        """

        snapshot = self.snapshot()
        out: Dict[str, ColumnData] = {}
        for name in columns:
            values = snapshot.columns.get(name)
            if values is None:
                values = [None] * snapshot.row_count
            out[name] = values
        return out

    def snapshot(self) -> TableSnapshot:
        """The read snapshot at the current data version.

        Derived from the previous snapshot by the slots logged since (the
        first one, and the one after a log swap, from the empty snapshot
        over every slot).  Safe beside a concurrent writer: the version is
        captured before the log and the log before the slots, so the result
        is never older than its stamp, and anything written after the
        capture bumps the version past it and is derived next time.
        """

        current = self._snapshot
        if current is not None and current.version == self._version:
            return current
        with self._snapshot_lock:
            version = self._version
            previous = self._snapshot
            if previous is not None and previous.version == version:
                return previous
            log = self._dirty
            end = len(log)
            slots = self._rows
            consumed, start = self._consumed
            if previous is None or consumed is not log:
                previous = TableSnapshot.empty(self.name, self.schema)
                written = np.arange(len(slots), dtype=np.int64)
            else:
                written = _slot_ids(log[start:end])
                # a truncate racing this build may have swapped in a shorter list
                written = written[written < len(slots)]
            snapshot = previous.derive(slots, written, version)
            self._snapshot = snapshot
            self._consumed = (log, end)
            return snapshot

    # -- durability ----------------------------------------------------------
    #
    # The checkpoint/recovery primitives.  Dump/restore preserve *slot ids*
    # (including tombstone positions), because WAL redo records address rows
    # physically — a compacting snapshot would invalidate every row id in
    # the log tail.  None of these run constraint checks: checkpointed and
    # replayed rows were validated before they were committed.

    def dump_slots(self) -> Dict[str, Any]:
        """Columnar durable image: slot count, live row ids, column data.

        Live ids and columns both come from the current :meth:`snapshot`, so
        they agree by construction.  A snapshot is never mutated once
        returned, so holding it while a background checkpoint writer encodes
        is safe.
        """

        snapshot = self.snapshot()
        return {
            "slots": len(self._rows),
            "live_ids": snapshot.slot_ids.tolist(),
            "columns": {
                name: pylist(snapshot.columns[name]) for name in self.schema.column_names()
            },
        }

    def restore_slots(
        self, slots: int, live_ids: Sequence[int], columns: Dict[str, List[Any]]
    ) -> None:
        """Rebuild storage from a durable image (inverse of :meth:`dump_slots`)."""

        names = self.schema.column_names()
        rows: List[Optional[Dict[str, Any]]] = [None] * slots
        if live_ids:
            series = [columns[name] for name in names]
            for row_id, values in zip(live_ids, zip(*series)):
                rows[row_id] = dict(zip(names, values))
        self._rows = rows
        self._live_count = len(live_ids)
        self._publish()
        self._stamp_range(0, slots)
        for index in self._indexes.values():
            index.clear()
            for row_id, row in self.rows_with_ids():
                index.insert(row_id, row)

    def apply_insert_slots(self, start: int, rows: Sequence[Dict[str, Any]]) -> int:
        """Redo an insert batch at its original slots (WAL replay).

        Pads the slot list when pre-crash rollbacks left trailing
        tombstones, and skips slots that are already live (idempotence
        backstop on top of the per-table LSN watermark).  Returns the number
        of rows actually placed.
        """

        validated = [self.schema.validate_row(row) for row in rows]
        if len(self._rows) < start:
            self._rows.extend([None] * (start - len(self._rows)))
        applied = 0
        for offset, row in enumerate(validated):
            row_id = start + offset
            if row_id < len(self._rows):
                if self._rows[row_id] is not None:
                    continue
                self._rows[row_id] = row
            else:
                self._rows.append(row)
            for index in self._indexes.values():
                index.insert(row_id, row)
            self._live_count += 1
            applied += 1
        if applied:
            stop = start + len(validated)
            self._publish(range(start, stop))
            self._stamp_range(start, stop)
        return applied

    def apply_delete_slot(self, row_id: int) -> bool:
        """Redo a delete; a no-op on an already-dead slot (idempotent)."""

        if row_id < 0 or row_id >= len(self._rows) or self._rows[row_id] is None:
            return False
        self.delete_row(row_id)
        return True

    # -- mutation ------------------------------------------------------------

    def insert(self, row: Dict[str, Any]) -> int:
        """Validate and append a row, returning its row id."""

        validated = self.schema.validate_row(row)
        row_id = len(self._rows)
        self._rows.append(validated)
        self._live_count += 1
        self._stamp(row_id)
        for index in self._indexes.values():
            index.insert(row_id, validated)
        return row_id

    def validate_batch(self, rows: "Sequence[Dict[str, Any]] | Batch") -> Batch:
        """Columnarize and type-validate many rows at once.

        The returned :class:`~repro.relational.batch.Batch` holds one
        schema-ordered column per table column, with defaults applied and
        every value validated — the batch equivalent of
        :meth:`TableSchema.validate_row`, but with one type dispatch per
        column instead of one per value.

        The bulk path *takes ownership* of the row dicts it is given: when
        every row carries exactly the schema's columns, the dicts are kept
        (patched in place if a column needed coercion) and adopted as
        storage by :meth:`insert_batch`, so no per-row dict is ever rebuilt.
        Callers must not reuse row dicts after passing them in.

        The patching happens here, *before* adoption, and nowhere else:
        stored row dicts are never mutated in place (see :meth:`update_row`),
        because snapshots and the read views over them share those dicts.
        """

        schema = self.schema
        columns = schema.columns
        if isinstance(rows, Batch):
            known = {c.name for c in columns}
            unknown = set(rows.data) - known
            if unknown:
                raise TypeMismatchError(
                    f"unknown columns {sorted(unknown)} for table {schema.name!r}"
                )
            length = rows.length
            raw = {
                c.name: rows.data.get(c.name, [c.default] * length)
                for c in columns
            }
            data = {c.name: c.dtype.validate_column(raw[c.name]) for c in columns}
            return Batch(schema.column_names(), data, length)

        if not isinstance(rows, list):
            rows = list(rows)
        # Fast extraction: one C-level gather per column.  A KeyError means
        # some row misses a column (needs defaults); a length mismatch means
        # some row has extra keys (needs the unknown-column error).
        raw_columns: Optional[List[List[Any]]] = None
        try:
            raw_columns = [list(map(itemgetter(c.name), rows)) for c in columns]
        except KeyError:
            pass
        ncols = len(columns)
        complete = raw_columns is not None and all(map(ncols.__eq__, map(len, rows)))
        if not complete:
            known = {c.name for c in columns}
            for row in rows:
                if len(row) > ncols or not all(k in known for k in row):
                    raise TypeMismatchError(
                        f"unknown columns {sorted(set(row) - known)} "
                        f"for table {schema.name!r}"
                    )
            raw_columns = [
                [row.get(c.name, c.default) for row in rows] for c in columns
            ]

        data: Dict[str, List[Any]] = {}
        adopt = complete
        for column, raw in zip(columns, raw_columns):
            validated = column.dtype.validate_column(raw)
            if validated is not raw:
                if complete:
                    # Patch the owned row dicts instead of rebuilding them.
                    name = column.name
                    for row, value in zip(rows, validated):
                        row[name] = value
                else:
                    adopt = False
            data[column.name] = validated
        batch = Batch(schema.column_names(), data, len(rows))
        if adopt:
            batch.source_rows = rows
        return batch

    def insert_batch(
        self, rows: "Sequence[Dict[str, Any]] | Batch", validated: bool = False
    ) -> List[int]:
        """Validate and append many rows in one pass; returns their row ids.

        Storage is appended once, the dirty log records one range and the
        data version is bumped once (so the next snapshot derives the batch
        in one step) and every index builds its postings in bulk instead of
        per-row dict probing.
        ``validated=True`` skips re-validation when the caller already holds
        a batch from :meth:`validate_batch` (the engine does, because
        constraint checks run in between).  Like :meth:`validate_batch`,
        this takes ownership of the row dicts passed in.
        """

        batch = rows if validated and isinstance(rows, Batch) else self.validate_batch(rows)
        if batch.length == 0:
            return []
        data = batch.data
        if batch.source_rows is not None:
            new_rows = batch.source_rows
        else:
            names = batch.columns
            new_rows = [
                dict(zip(names, values))
                for values in zip(*[data[n] for n in names])
            ]
        start = len(self._rows)
        self._rows.extend(new_rows)
        self._live_count += batch.length
        self._publish(range(start, start + batch.length))
        self._stamp_range(start, start + batch.length)
        for index in self._indexes.values():
            if isinstance(index, HashIndex):
                icols = index.columns
                if len(icols) == 1:
                    keys: Any = data[icols[0]]
                else:
                    keys = list(zip(*[data[c] for c in icols]))
                index.insert_key_batch(start, keys)
            else:
                index.insert_batch(start, new_rows)
        return list(range(start, start + batch.length))

    def insert_at(self, row_id: int, row: Dict[str, Any]) -> None:
        """Re-insert a row at a previously deleted slot (transaction undo)."""

        if row_id < 0 or row_id >= len(self._rows):
            raise ExecutionError(f"cannot re-insert at unknown row id {row_id}")
        if self._rows[row_id] is not None:
            raise ExecutionError(f"row id {row_id} is not free")
        validated = self.schema.validate_row(row)
        self._rows[row_id] = validated
        self._live_count += 1
        self._stamp(row_id)
        for index in self._indexes.values():
            index.insert(row_id, validated)

    def delete_row(self, row_id: int) -> Dict[str, Any]:
        row = self.get_row(row_id)
        for index in self._indexes.values():
            index.delete(row_id, row)
        self._rows[row_id] = None
        self._live_count -= 1
        self._stamp(row_id)
        return row

    def update_row(self, row_id: int, changes: Dict[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Apply ``changes`` to a row; returns (old_row, new_row).

        The slot gets a *new* dict; the old one is returned untouched.
        Stored row dicts are never mutated in place — snapshots, and the
        read views over them, share those dicts with the table, so patching
        one would rewrite history under a pinned view.
        """

        old = self.get_row(row_id)
        merged = dict(old)
        merged.update(changes)
        validated = self.schema.validate_row(merged)
        for index in self._indexes.values():
            if any(old[c] != validated[c] for c in index.columns):
                index.delete(row_id, old)
                index.insert(row_id, validated)
        self._rows[row_id] = validated
        self._stamp(row_id)
        return old, validated

    def truncate(self) -> None:
        # replace, never clear: a snapshot build may be reading the old list
        self._rows = []
        self._live_count = 0
        self._publish()
        self._stamp_range(0, len(self._row_versions))
        for index in self._indexes.values():
            index.clear()

    def vacuum(self) -> None:
        """Compact the row list, reassigning row ids and rebuilding indexes."""

        live = [row for row in self._rows if row is not None]
        self._rows = list(live)
        self._live_count = len(live)
        self._publish()
        self._stamp_range(0, max(len(live), len(self._row_versions)))
        for index in self._indexes.values():
            index.clear()
            for row_id, row in enumerate(self._rows):
                index.insert(row_id, row)

    # -- lookups used by operators -------------------------------------------

    def lookup(self, columns: Tuple[str, ...], key: Tuple[Any, ...]) -> List[Dict[str, Any]]:
        """Equality lookup, via an index when one exists, else a scan."""

        index = self.index_on(columns)
        if index is not None:
            return [dict(self.get_row(rid)) for rid in index.lookup(key)]
        return [
            dict(row)
            for row in self.rows()
            if tuple(row[c] for c in columns) == tuple(key)
        ]

    def lookup_ids(self, columns: Tuple[str, ...], key: Tuple[Any, ...]) -> List[int]:
        index = self.index_on(columns)
        if index is not None:
            return index.lookup(key)
        return [
            row_id
            for row_id, row in self.rows_with_ids()
            if tuple(row[c] for c in columns) == tuple(key)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Table {self.name} rows={self._live_count} cols={self.schema.column_names()}>"


def _slot_ids(entries: Sequence[Union[int, range]]) -> np.ndarray:
    """Sorted, unique slot ids named by dirty-log entries."""

    ids = [np.array([e for e in entries if type(e) is int], dtype=np.int64)]
    ids += [np.arange(e.start, e.stop, dtype=np.int64) for e in entries if type(e) is range]
    return np.unique(np.concatenate(ids))
