"""Secondary index structures for the in-memory engine.

Two index kinds are provided:

* :class:`HashIndex` — equality lookups, the workhorse for primary keys and
  foreign-key joins.  This is what makes the paper's E3 experiment (point
  lookup of a multi-valued attribute by key) fast under mapping M2 where the
  key actually is a key of the physical table.
* :class:`SortedIndex` — range lookups over an ordered key, kept as a sorted
  list of (key, row id) pairs and searched with :mod:`bisect`.

Indexes store *row ids* (positions in the table's row list); the table is
responsible for keeping them in sync on insert / delete / update.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


def _key_of(row: Dict[str, Any], columns: Sequence[str]) -> Tuple[Any, ...]:
    return tuple(row[c] for c in columns)


@dataclass
class IndexDefinition:
    """Declarative description of an index (name, columns, uniqueness, kind)."""

    name: str
    table: str
    columns: Tuple[str, ...]
    unique: bool = False
    kind: str = "hash"  # "hash" | "sorted"


class Index:
    """Base class for physical index structures."""

    def __init__(self, definition: IndexDefinition) -> None:
        self.definition = definition

    @property
    def columns(self) -> Tuple[str, ...]:
        return self.definition.columns

    @property
    def unique(self) -> bool:
        return self.definition.unique

    def insert(self, row_id: int, row: Dict[str, Any]) -> None:
        raise NotImplementedError

    def insert_batch(self, start_row_id: int, rows: Sequence[Dict[str, Any]]) -> None:
        """Insert ``rows`` occupying consecutive ids from ``start_row_id``.

        The base implementation loops :meth:`insert`; concrete indexes
        override it to build their postings in one pass.
        """

        for offset, row in enumerate(rows):
            self.insert(start_row_id + offset, row)

    def delete(self, row_id: int, row: Dict[str, Any]) -> None:
        raise NotImplementedError

    def lookup(self, key: Tuple[Any, ...]) -> List[int]:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError


class HashIndex(Index):
    """Equality index: key -> list of row ids.

    Single-column indexes bucket on the bare column value instead of a
    1-tuple; that removes one tuple allocation from every insert, delete and
    probe on the most common index shape (primary keys).  The public API
    still speaks key *tuples*; only :meth:`key_view` exposes the internal
    scalar keys, and documents it.
    """

    def __init__(self, definition: IndexDefinition) -> None:
        super().__init__(definition)
        self._buckets: Dict[Any, List[int]] = {}
        self._single: Optional[str] = (
            definition.columns[0] if len(definition.columns) == 1 else None
        )

    def _key(self, row: Dict[str, Any]) -> Any:
        if self._single is not None:
            return row[self._single]
        return _key_of(row, self.columns)

    def insert(self, row_id: int, row: Dict[str, Any]) -> None:
        self._buckets.setdefault(self._key(row), []).append(row_id)

    def insert_batch(self, start_row_id: int, rows: Sequence[Dict[str, Any]]) -> None:
        column = self._single
        if column is not None:
            keys = [row[column] for row in rows]
        else:
            columns = self.columns
            keys = [tuple(row[c] for c in columns) for row in rows]
        self.insert_key_batch(start_row_id, keys)

    def insert_key_batch(self, start_row_id: int, keys: Sequence[Any]) -> None:
        """Bulk-insert precomputed keys for consecutive row ids.

        Keys must be bare values for a single-column index, tuples
        otherwise (what :meth:`key_view` membership expects).  The fast
        path builds the postings as one dict and merges it with two
        C-level set checks; only batches that collide (with themselves or
        with existing keys) fall back to the per-key loop.
        """

        buckets = self._buckets
        # Fully C-level posting build: zip(range(...)) yields (row_id,)
        # tuples, map(list, ...) turns each into a fresh one-element bucket.
        fresh = dict(
            zip(keys, map(list, zip(range(start_row_id, start_row_id + len(keys)))))
        )
        if len(fresh) == len(keys) and (
            not buckets or buckets.keys().isdisjoint(fresh)
        ):
            buckets.update(fresh)
            return
        setdefault = buckets.setdefault
        row_id = start_row_id
        for key in keys:
            setdefault(key, []).append(row_id)
            row_id += 1

    def key_view(self):
        """Set-like view of the stored keys (O(1) membership tests).

        Members are bare column values for a single-column index and key
        tuples otherwise — the same convention as
        ``repro.relational.constraints._batch_keys``.
        """

        return self._buckets.keys()

    def delete(self, row_id: int, row: Dict[str, Any]) -> None:
        key = self._key(row)
        bucket = self._buckets.get(key)
        if not bucket:
            return
        try:
            bucket.remove(row_id)
        except ValueError:
            return
        if not bucket:
            del self._buckets[key]

    def lookup(self, key: Tuple[Any, ...]) -> List[int]:
        if self._single is not None:
            return list(self._buckets.get(key[0], ()))
        return list(self._buckets.get(tuple(key), ()))

    def keys(self) -> Iterator[Tuple[Any, ...]]:
        if self._single is not None:
            return ((key,) for key in self._buckets)
        return iter(self._buckets)

    def clear(self) -> None:
        self._buckets.clear()

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())


class SortedIndex(Index):
    """Ordered index supporting range scans.

    Entries are kept as a sorted list of ``(key, row_id)``.  Deletions are
    lazy-compacted: a tombstone set avoids O(n) removals on hot paths.
    """

    _COMPACT_THRESHOLD = 0.25

    def __init__(self, definition: IndexDefinition) -> None:
        super().__init__(definition)
        self._entries: List[Tuple[Tuple[Any, ...], int]] = []
        self._tombstones: set = set()

    def insert(self, row_id: int, row: Dict[str, Any]) -> None:
        key = _key_of(row, self.columns)
        bisect.insort(self._entries, (key, row_id))

    def insert_batch(self, start_row_id: int, rows: Sequence[Dict[str, Any]]) -> None:
        columns = self.columns
        self._entries.extend(
            (tuple(row[c] for c in columns), start_row_id + offset)
            for offset, row in enumerate(rows)
        )
        # Timsort exploits the existing sorted prefix, so one append + sort
        # beats len(rows) binary insertions.
        self._entries.sort()

    def delete(self, row_id: int, row: Dict[str, Any]) -> None:
        self._tombstones.add(row_id)
        if len(self._tombstones) > self._COMPACT_THRESHOLD * max(len(self._entries), 1):
            self._compact()

    def _compact(self) -> None:
        self._entries = [e for e in self._entries if e[1] not in self._tombstones]
        self._tombstones.clear()

    def lookup(self, key: Tuple[Any, ...]) -> List[int]:
        key = tuple(key)
        lo = bisect.bisect_left(self._entries, (key, -1))
        out = []
        for k, row_id in self._entries[lo:]:
            if k != key:
                break
            if row_id not in self._tombstones:
                out.append(row_id)
        return out

    def range(
        self,
        low: Optional[Tuple[Any, ...]] = None,
        high: Optional[Tuple[Any, ...]] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> List[int]:
        """Row ids whose key falls in [low, high] (either bound may be open)."""

        start = 0
        if low is not None:
            low = tuple(low)
            if include_low:
                start = bisect.bisect_left(self._entries, (low, -1))
            else:
                start = bisect.bisect_right(self._entries, (low, float("inf")))
        out = []
        for key, row_id in self._entries[start:]:
            if high is not None:
                high_t = tuple(high)
                if include_high:
                    if key > high_t:
                        break
                else:
                    if key >= high_t:
                        break
            if row_id not in self._tombstones:
                out.append(row_id)
        return out

    def clear(self) -> None:
        self._entries.clear()
        self._tombstones.clear()

    def __len__(self) -> int:
        return len(self._entries) - len(self._tombstones)


def create_index(definition: IndexDefinition) -> Index:
    """Factory: build the right index structure for a definition."""

    if definition.kind == "hash":
        return HashIndex(definition)
    if definition.kind == "sorted":
        return SortedIndex(definition)
    raise ValueError(f"unknown index kind {definition.kind!r}")
