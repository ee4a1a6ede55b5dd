"""Secondary index structures for the in-memory engine.

Two index kinds are provided:

* :class:`HashIndex` — equality lookups, the workhorse for primary keys,
  foreign-key joins and every other column set the mapper derives an index
  for (side-table owner keys, weak-entity owner keys, foreign-key folds).
* :class:`SortedIndex` — range lookups over an ordered key, kept as a sorted
  list of (key, row id) pairs and searched with :mod:`bisect`.

Indexes store *row ids* (positions in the table's row list); the table is
responsible for keeping them in sync on insert / delete / update.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union


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

    def delete(self, row_id: int, row: Dict[str, Any]) -> None:
        raise NotImplementedError

    def lookup(self, key: Tuple[Any, ...]) -> List[int]:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError


class HashIndex(Index):
    """Equality index: key -> row ids, in slot order.

    Postings come back in the order a scan would meet the rows, so an
    ``IndexLookup`` and the ``SeqScan`` it replaces agree on row order
    (an aggregated multi-valued attribute reads back in insertion order).
    Appends keep that order for free; an undo re-insert or a replayed slot
    lands below the bucket's tail and is placed by binary search.

    A key with one posting maps to the bare row id, and gets a list only
    on its second: every primary-key entry is then one dict slot, not a
    slot plus a list.  Single-column indexes bucket on the bare column
    value instead of a 1-tuple; that removes one tuple allocation from
    every insert, delete and probe on the most common index shape (primary
    keys).  The public API still speaks key *tuples*; only :meth:`key_view`
    exposes the internal scalar keys, and documents it.
    """

    def __init__(self, definition: IndexDefinition) -> None:
        super().__init__(definition)
        self._buckets: Dict[Any, Union[int, List[int]]] = {}
        self._single: Optional[str] = (
            definition.columns[0] if len(definition.columns) == 1 else None
        )

    def _key(self, row: Dict[str, Any]) -> Any:
        if self._single is not None:
            return row[self._single]
        return _key_of(row, self.columns)

    def _add(self, key: Any, row_id: int) -> None:
        buckets = self._buckets
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = row_id
        elif type(bucket) is not list:
            buckets[key] = [bucket, row_id] if bucket < row_id else [row_id, bucket]
        elif bucket[-1] > row_id:
            bisect.insort(bucket, row_id)
        else:
            bucket.append(row_id)

    def insert(self, row_id: int, row: Dict[str, Any]) -> None:
        self._add(self._key(row), row_id)

    def insert_key_batch(self, start_row_id: int, keys: Sequence[Any]) -> None:
        """Bulk-insert precomputed keys for consecutive row ids.

        Keys must be bare values for a single-column index, tuples
        otherwise (what :meth:`key_view` membership expects).  The fast
        path builds the postings as one dict and merges it with two
        C-level set checks; only batches that collide (with themselves or
        with existing keys) fall back to the per-key loop.
        """

        buckets = self._buckets
        row_ids = range(start_row_id, start_row_id + len(keys))
        fresh = dict(zip(keys, row_ids))
        if len(fresh) == len(keys) and (
            not buckets or buckets.keys().isdisjoint(fresh)
        ):
            buckets.update(fresh)
            return
        add = self._add
        for key, row_id in zip(keys, row_ids):
            add(key, row_id)

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
        if type(bucket) is not list:
            if bucket == row_id:
                del self._buckets[key]
            return
        try:
            bucket.remove(row_id)
        except ValueError:
            return
        if len(bucket) == 1:
            self._buckets[key] = bucket[0]

    def lookup(self, key: Tuple[Any, ...]) -> List[int]:
        bucket = self._buckets.get(key[0] if self._single is not None else tuple(key))
        if bucket is None:
            return []
        return list(bucket) if type(bucket) is list else [bucket]

    def keys(self) -> Iterator[Tuple[Any, ...]]:
        if self._single is not None:
            return ((key,) for key in self._buckets)
        return iter(self._buckets)

    def clear(self) -> None:
        self._buckets.clear()

    def __len__(self) -> int:
        return sum(len(b) if type(b) is list else 1 for b in self._buckets.values())


class SortedIndex(Index):
    """Ordered index supporting range scans.

    Entries are kept as a sorted list of ``(key, row_id)``; a delete removes
    its entry by binary search, so a slot re-used after a delete (a
    rolled-back delete re-inserts the row at its old slot) is found again.
    """

    def __init__(self, definition: IndexDefinition) -> None:
        super().__init__(definition)
        self._entries: List[Tuple[Tuple[Any, ...], int]] = []

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
        entry = (_key_of(row, self.columns), row_id)
        position = bisect.bisect_left(self._entries, entry)
        if position < len(self._entries) and self._entries[position] == entry:
            del self._entries[position]

    def lookup(self, key: Tuple[Any, ...]) -> List[int]:
        key = tuple(key)
        lo = bisect.bisect_left(self._entries, (key, -1))
        out = []
        for k, row_id in self._entries[lo:]:
            if k != key:
                break
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
            out.append(row_id)
        return out

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def create_index(definition: IndexDefinition) -> Index:
    """Factory: build the right index structure for a definition."""

    if definition.kind == "hash":
        return HashIndex(definition)
    if definition.kind == "sorted":
        return SortedIndex(definition)
    raise ValueError(f"unknown index kind {definition.kind!r}")
