"""Multi-version read views: snapshot-isolation reads over a mutating store.

The batch executor already reads *version-stamped snapshots* out of
:class:`~repro.relational.table.Table` storage: every mutation bumps the
table's data version and logs the slots it wrote, and the next
:class:`TableSnapshot` is **derived from the previous one** by those slots —
kept rows are cut from the old columns by position, only written rows are
read and encoded — so a version costs O(written rows) plus one gather per
column, not a rebuild.  Snapshots are **never mutated after they are
returned** (a new version is a new object; the stored row dicts it shares
with the table are replaced on update, not patched).  That discipline — the
same one the durability checkpoints exploit to encode state on a background
thread — is exactly what a multi-version read view needs:

* :class:`SnapshotRegistry` pins the current snapshot of every table under a
  short storage latch and hands out a :class:`ReadView`.  Entries are
  refcounted and keyed ``(table, version)``, so two views pinned at the same
  version share one snapshot, and a snapshot superseded by later writes is
  retained until the last view referencing it closes.
* :class:`ReadView` is the transaction-visible object: per-table version
  watermarks (consumed by first-committer-wins conflict detection) plus
  :class:`TableView` accessors that answer the read-side :class:`Table`
  surface — ``column_data`` for the batch executor, ``rows``/``scan`` for the
  row executor, ``lookup`` for index access paths — entirely from the pinned
  snapshot.
* :func:`read_view_scope` binds a view to the current thread; while a scope
  is active, :meth:`Database.read_table` resolves table reads through the
  view instead of live storage, so **both executors** run unchanged plan
  trees against a frozen version of the data while a writer mutates the live
  tables in parallel.

Views are cheap to pin when the store is idle (the per-version snapshot is
cached on the table) and cost one O(written rows) derivation per mutated
table when it is not.  Reads through a view never take the writer lock,
which is what lets a continuously-committing writer and many readers make
progress together (see ``docs/concurrency.md``).
"""

from __future__ import annotations

import threading

from bisect import insort
from collections import deque
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .batch import ColumnData
from .typed import Splice, splice_column

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .catalog import Catalog
    from .types import TableSchema


LookupMap = Dict[Tuple[Any, ...], List[int]]


class TableSnapshot:
    """One immutable (table, version) snapshot.

    A snapshot lists the table's live rows in ascending slot order three
    ways: ``slot_ids`` (an int64 array), ``rows`` (the table's own stored
    row dicts — the table replaces a dict on update and never mutates one in
    place, so sharing them is safe) and ``columns`` (one plain list or
    immutable :class:`~repro.relational.typed.TypedColumn` per column).
    Nothing a snapshot holds is written after it is returned (lookup maps
    are only ever *added*), so retention is zero-copy: pinning a superseded
    version keeps its arrays alive, it never copies them.  The table caches its latest snapshot and the registry
    shares it between every view pinned at that version; ``refs`` counts
    those views.

    :meth:`derive` builds the next version from this one by the slots
    written since, which is how every snapshot is built — the first one is
    derived from :meth:`empty`.

    The per-key-column lookup maps are cached on the shared snapshot, so a
    point lookup pays a map build at most once per (version, key columns),
    and :meth:`derive` carries built maps forward when no row moves.  Builds
    are idempotent over immutable inputs, so a concurrent double-build is a
    benign race (last write wins, both results are equal).
    """

    __slots__ = ("name", "version", "schema", "columns", "slot_ids", "rows",
                 "row_count", "refs", "_lookup_maps")

    def __init__(
        self,
        name: str,
        version: int,
        schema: "TableSchema",
        columns: Dict[str, ColumnData],
        slot_ids: np.ndarray,
        rows: List[Dict[str, Any]],
        lookup_maps: Optional[Dict[Tuple[str, ...], LookupMap]] = None,
    ) -> None:
        self.name = name
        self.version = version
        self.schema = schema
        self.columns = columns
        self.slot_ids = slot_ids
        self.rows = rows
        self.row_count = len(rows)
        self.refs = 0
        self._lookup_maps: Dict[Tuple[str, ...], LookupMap] = lookup_maps or {}

    @classmethod
    def empty(cls, name: str, schema: "TableSchema", version: int = -1) -> "TableSnapshot":
        """A snapshot with no rows (the base the first build derives from)."""

        columns: Dict[str, ColumnData] = {c: [] for c in schema.column_names()}
        return cls(name, version, schema, columns, np.empty(0, dtype=np.int64), [])

    def derive(
        self,
        slots: List[Optional[Dict[str, Any]]],
        written: np.ndarray,
        version: int,
    ) -> "TableSnapshot":
        """The snapshot at ``version``: this one plus the ``written`` slots.

        ``slots`` is the table's slot list (a row dict, or ``None`` for a
        deleted slot) and ``written`` the sorted, unique ids of every slot
        written since this snapshot.  Only those slots are read: kept rows
        are cut from this snapshot by position (:class:`Splice` — one
        gather per column), and only the new rows are encoded.  Lookup maps
        already built here are carried forward, patched by the written rows,
        when no kept row changes position; otherwise the new snapshot
        rebuilds them lazily.
        """

        if len(written) == len(slots):  # every slot (ids are unique and in range)
            fetched = slots[:]
        else:
            fetched = [slots[slot] for slot in written.tolist()]
        if None in fetched:
            live = [i for i, row in enumerate(fetched) if row is not None]
            new_ids = written[live]
            new_rows = [fetched[i] for i in live]
        else:
            new_ids, new_rows = written, fetched
        splice = Splice(self.slot_ids, written, new_ids)
        columns = {
            column.name: splice_column(
                self.columns[column.name],
                splice,
                [row.get(column.name) for row in new_rows],
                column.dtype,
            )
            for column in self.schema.columns
        }
        maps: Dict[Tuple[str, ...], LookupMap] = {}
        built = list(self._lookup_maps.items())
        if built and not splice.shifted:
            old_rows = self.rows
            dropped = [(p, old_rows[p]) for p in splice.dropped.tolist()]
            added = list(zip(splice.added.tolist(), new_rows))
            for key_columns, lookup in built:
                maps[key_columns] = _patched(lookup, key_columns, dropped, added)
        return TableSnapshot(
            self.name,
            version,
            self.schema,
            columns,
            splice.take_array(self.slot_ids, new_ids),
            splice.take_list(self.rows, new_rows),
            maps,
        )

    def lookup_map(self, columns: Tuple[str, ...]) -> LookupMap:
        """Equality-lookup hash map on ``columns`` (built once per snapshot)."""

        cached = self._lookup_maps.get(columns)
        if cached is None:
            cached = {}
            series = [[row.get(c) for row in self.rows] for c in columns]
            for row_id, key in enumerate(zip(*series)):
                cached.setdefault(key, []).append(row_id)
            self._lookup_maps[columns] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TableSnapshot {self.name}@v{self.version} rows={self.row_count} "
            f"refs={self.refs}>"
        )


def _patched(
    lookup: LookupMap,
    columns: Tuple[str, ...],
    dropped: List[Tuple[int, Dict[str, Any]]],
    added: List[Tuple[int, Dict[str, Any]]],
) -> LookupMap:
    """``lookup`` without the ``dropped`` and with the ``added`` (position,
    row) entries.  A copy: neither ``lookup`` nor its id lists are written,
    because the previous snapshot still serves them."""

    touched: LookupMap = {}

    def ids_of(row: Dict[str, Any]) -> List[int]:
        key = tuple([row.get(c) for c in columns])
        ids = touched.get(key)
        if ids is None:
            ids = touched[key] = list(lookup.get(key, ()))
        return ids

    for position, row in dropped:
        ids_of(row).remove(position)
    for position, row in added:
        insort(ids_of(row), position)
    patched = dict(lookup)
    for key, ids in touched.items():
        if ids:
            patched[key] = ids
        else:
            patched.pop(key, None)
    return patched


class TableView:
    """Read-only :class:`Table` facade over one pinned :class:`TableSnapshot`.

    Implements exactly the surface the read side of both executors consumes:

    * :meth:`column_data` — the batch executor's scan fast path (returns the
      pinned column lists by reference; unknown columns come back all-NULL,
      matching ``Table.column_data``);
    * :meth:`rows` — the row executor's iteration surface, over the
      table's own stored row dicts the snapshot holds (nothing is
      materialized);
    * :meth:`rows_at` — the pinned rows of given slots (online catch-up);
    * :meth:`lookup` / :meth:`lookup_ids` — equality access paths
      (``IndexLookup``, index nested-loop joins); a hash map per key-column
      tuple is built lazily *on the shared snapshot*, so point reads pay the
      build once per (table version, key columns) across every view pinned
      at that version.

    Row ids are positions in the snapshot, which is all the read-only
    operators require of them.
    """

    __slots__ = ("_snapshot", "schema")

    def __init__(self, snapshot: TableSnapshot) -> None:
        self._snapshot = snapshot
        self.schema = snapshot.schema

    # -- metadata ----------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._snapshot.row_count

    def __len__(self) -> int:
        return self._snapshot.row_count

    # -- columnar access ---------------------------------------------------

    def column_data(self, columns: Iterable[str]) -> Dict[str, List[Any]]:
        """Pinned column lists for ``columns`` (all-NULL for unknown names)."""

        snapshot = self._snapshot.columns
        out: Dict[str, List[Any]] = {}
        for name in columns:
            values = snapshot.get(name)
            if values is None:
                values = [None] * self._snapshot.row_count
            out[name] = values
        return out

    # -- row access --------------------------------------------------------

    def rows(self) -> Iterator[Dict[str, Any]]:
        """Iterate live rows (shared dicts; callers must not mutate them)."""

        return iter(self._snapshot.rows)

    def rows_at(self, slots: np.ndarray) -> List[Dict[str, Any]]:
        """The pinned rows stored in table slots ``slots`` (ascending ids);
        slots dead or unborn at the pinned version are skipped."""

        snapshot = self._snapshot
        ids = snapshot.slot_ids
        positions = np.searchsorted(ids, slots)
        hit = positions < len(ids)
        hit[hit] = ids[positions[hit]] == slots[hit]
        return [snapshot.rows[p] for p in positions[hit].tolist()]

    # -- lookups -----------------------------------------------------------

    def lookup(self, columns: Tuple[str, ...], key: Tuple[Any, ...]) -> List[Dict[str, Any]]:
        """Equality lookup against the pinned snapshot (same shape as Table)."""

        rows = self._snapshot.rows
        ids = self._snapshot.lookup_map(tuple(columns)).get(tuple(key), ())
        return [dict(rows[rid]) for rid in ids]

    def lookup_ids(self, columns: Tuple[str, ...], key: Tuple[Any, ...]) -> List[int]:
        return list(self._snapshot.lookup_map(tuple(columns)).get(tuple(key), ()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TableView {self._snapshot.name}@v{self._snapshot.version} rows={len(self)}>"


class ReadView:
    """A consistent snapshot of every table, pinned at one point in time.

    The view is the unit snapshot-isolation hands to a transaction: all reads
    executed under :func:`read_view_scope` resolve against the pinned
    snapshots, and :meth:`watermarks` feeds first-committer-wins conflict
    detection for a transaction that later upgrades to writing (see
    ``Transaction.snapshot_watermarks``).

    :meth:`close` releases the registry pins (idempotent); a view is also a
    context manager so short statement-level snapshots read naturally::

        with db.begin_read_view() as view, read_view_scope(view):
            db.execute(plan)
    """

    def __init__(
        self,
        registry: "SnapshotRegistry",
        snapshots: Dict[str, TableSnapshot],
        epoch: int = -1,
    ) -> None:
        self._registry = registry
        self._snapshots = snapshots
        self._views: Dict[str, TableView] = {}
        self._closed = False
        #: The database's publication epoch at pin time.  Sessions compare it
        #: against the live epoch to reuse one view across many statements
        #: while no writer has published anything new (see Session._statement_view).
        self.epoch = epoch

    @property
    def closed(self) -> bool:
        return self._closed

    def watermarks(self) -> Dict[str, int]:
        """Per-table pinned data versions (the snapshot's commit horizon)."""

        return {name: snap.version for name, snap in self._snapshots.items()}

    def table_names(self) -> List[str]:
        return sorted(self._snapshots)

    def table(self, name: str) -> Optional[TableView]:
        """The pinned view of ``name`` (None for tables created after the pin)."""

        view = self._views.get(name)
        if view is None:
            snapshot = self._snapshots.get(name)
            if snapshot is None:
                return None
            view = TableView(snapshot)
            self._views[name] = view
        return view

    def empty_table(self, schema: "TableSchema", name: str) -> TableView:
        """An all-empty view for a table that did not exist at pin time.

        Snapshot semantics require such a table to read as empty — its live
        contents were written after this view's commit point (and may even
        be uncommitted).  Cached on the view so repeated scans share one
        instance.
        """

        view = self._views.get(name)
        if view is None:
            view = self._views[name] = TableView(TableSnapshot.empty(name, schema))
        return view

    def close(self) -> None:
        """Release the registry pins.  Idempotent; reads after close still
        answer from the captured snapshots (the view keeps its references),
        but the registry is free to drop superseded versions."""

        if self._closed:
            return
        self._closed = True
        self._registry.release(self._snapshots.values())

    def __del__(self) -> None:  # backstop for sessions dropped without close
        # Must not take the registry lock: the GC can run this finalizer on
        # any thread at any allocation — including inside a registry method
        # that already holds the (non-reentrant) lock.  Enqueue the pins on
        # a lock-free deque instead; the registry drains it on its next
        # locked operation.
        if not self._closed:
            self._closed = True
            try:
                self._registry.defer_release(list(self._snapshots.values()))
            except Exception:  # pragma: no cover - interpreter shutdown corners
                pass

    def __enter__(self) -> "ReadView":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<ReadView tables={len(self._snapshots)} {state}>"


class SnapshotRegistry:
    """Refcounted retention of per-version table snapshots.

    ``pin`` captures one :class:`TableSnapshot` per catalog table — sharing
    the entry when a snapshot at that version is already retained — and
    ``release`` drops entries whose last view closed.  The registry itself
    never copies data: entries are the tables' own cached snapshots, so
    retention cost is bounded by the number of *distinct versions* still
    referenced, not by the number of views.  The current version needs no
    entry to stay warm — its table caches it (lookup maps included) — so an
    entry lives exactly as long as someone references it.

    ``pin`` must be called with the owning database's storage latch held (see
    :meth:`Database.begin_read_view`), which is what makes the multi-table
    capture atomic with respect to writers; ``release`` may be called from
    any thread at any time.
    """

    def __init__(self) -> None:
        #: Sticky flag set by the first :meth:`Database.begin_read_view` on
        #: this database (after a one-time handshake with the writer lock).
        #: Until it is set no reader exists, so writers skip pre-image
        #: capture entirely — MVCC bookkeeping costs nothing for
        #: single-threaded workloads.
        self.mvcc_active = False
        self._entries: Dict[Tuple[str, int], TableSnapshot] = {}
        self._lock = threading.Lock()
        # Releases enqueued by ReadView.__del__ (which must never take the
        # lock — see there); deque.append/popleft are atomic without one.
        self._orphans: "deque" = deque()

    def defer_release(self, snapshots: List[TableSnapshot]) -> None:
        """Queue a lock-free release (finalizer path); drained on next op."""

        self._orphans.append(snapshots)

    def _unref(self, snapshots: Iterable[TableSnapshot]) -> None:
        """Drop one reference each; caller holds the lock."""

        for snapshot in snapshots:
            snapshot.refs -= 1
            key = (snapshot.name, snapshot.version)
            if snapshot.refs <= 0 and self._entries.get(key) is snapshot:
                del self._entries[key]

    def _drain_orphans(self) -> None:
        """Apply deferred releases; caller holds the lock."""

        while True:
            try:
                snapshots = self._orphans.popleft()
            except IndexError:
                return
            self._unref(snapshots)

    def _get_or_create(self, table: Any) -> TableSnapshot:
        """Entry for the table's current version; caller holds the lock."""

        entry = self._entries.get((table.name, table.version))
        if entry is None:
            entry = table.snapshot()
            self._entries[(entry.name, entry.version)] = entry
        return entry

    def pin(
        self,
        catalog: "Catalog",
        preimages: Optional[Dict[str, TableSnapshot]] = None,
        epoch: int = -1,
    ) -> ReadView:
        """Capture every table's current version; caller holds the latch.

        ``preimages`` maps tables an *open, uncommitted* write transaction
        has already mutated to their retained last-committed snapshots; the
        view pins those instead of live state, so readers never observe the
        writer's in-place, not-yet-committed changes (no dirty reads).
        """

        snapshots: Dict[str, TableSnapshot] = {}
        with self._lock:
            self._drain_orphans()
            for table in catalog.tables():
                if preimages is not None:
                    entry = preimages.get(table.name)
                    if entry is not None:
                        entry.refs += 1
                        snapshots[table.name] = entry
                        continue
                entry = self._get_or_create(table)
                entry.refs += 1
                snapshots[table.name] = entry
        return ReadView(self, snapshots, epoch=epoch)

    def retain_current(self, table: Any) -> TableSnapshot:
        """Pin the table's *current* snapshot on behalf of a writer.

        Called by the engine — under the storage latch, before a
        transaction's first write to ``table`` — to retain the table's
        last-committed image for the duration of the transaction (the
        pre-image readers pin while the writer's uncommitted changes sit in
        live storage).  The caller owns one reference and must ``release``
        it at commit or rollback.
        """

        with self._lock:
            entry = self._get_or_create(table)
            entry.refs += 1
            return entry

    def release(self, snapshots: Iterable[TableSnapshot]) -> None:
        with self._lock:
            self._drain_orphans()
            self._unref(snapshots)

    def retained(self) -> List[Tuple[str, int]]:
        """The (table, version) snapshots pinned by open views or writers."""

        with self._lock:
            self._drain_orphans()
            return sorted(self._entries)

    def __len__(self) -> int:
        with self._lock:
            self._drain_orphans()
            return len(self._entries)


# ---------------------------------------------------------------------------
# Thread-local view binding
# ---------------------------------------------------------------------------

_ACTIVE = threading.local()


def current_read_view() -> Optional[ReadView]:
    """The read view bound to this thread, or ``None`` for live reads."""

    return getattr(_ACTIVE, "view", None)


class read_view_scope:
    """Bind a :class:`ReadView` to the current thread for a ``with`` block.

    While active, :meth:`Database.read_table` (and therefore every scan /
    lookup both executors perform) resolves through the view.  Scopes nest;
    the previous binding is restored on exit.  ``read_view_scope(None)``
    explicitly restores live reads inside an outer scope.
    """

    def __init__(self, view: Optional[ReadView]) -> None:
        self._view = view
        self._previous: Optional[ReadView] = None

    def __enter__(self) -> Optional[ReadView]:
        self._previous = current_read_view()
        _ACTIVE.view = self._view
        return self._view

    def __exit__(self, exc_type, exc, tb) -> bool:
        _ACTIVE.view = self._previous
        return False
