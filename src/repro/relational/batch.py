"""Columnar record batches: the data unit of the vectorized executor.

A :class:`Batch` is a set of named columns of equal length.  A column is
either a plain Python list (the object fallback — ARRAY/STRUCT values,
mixed-type data) or a :class:`~repro.relational.typed.TypedColumn` (numpy
values + validity bitmap; see that module).  Either way the layout removes
the per-row dict construction and per-row expression-tree interpretation
that dominate the row executor — each operator touches each column once
instead of touching each row once per column — and typed columns further
replace the per-element Python work with numpy kernels: ``take`` is one
fancy-indexing gather, ``slice`` a zero-copy view, ``concat`` one
``np.concatenate`` per column.

Column order is significant: it mirrors the key order of the row dicts the
row executor would produce, so ``to_rows()`` round-trips exactly and the two
executors can be compared row-for-row (see
``tests/relational/test_vectorized_parity.py``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..errors import ExecutionError
from .typed import TypedColumn, pylist

#: One batch column: an object-path list or a typed numpy-backed column.
ColumnData = Union[List[Any], TypedColumn]


def _check_indices(indices: Any, length: int) -> None:
    """Reject out-of-range / negative gather positions with ExecutionError."""

    if isinstance(indices, np.ndarray):
        if indices.size and (indices.min() < 0 or indices.max() >= length):
            raise ExecutionError(
                f"take index out of range for batch of {length} rows"
            )
        return
    if indices and (min(indices) < 0 or max(indices) >= length):
        raise ExecutionError(f"take index out of range for batch of {length} rows")


class Batch:
    """A fixed-length collection of named value columns.

    ``source_rows`` is an optional row-major view of the same data: when the
    bulk-insert path columnarizes caller row dicts without changing a single
    value, it parks the original dicts here so storage can adopt them instead
    of rebuilding one dict per row (see :meth:`Table.validate_batch`).
    """

    __slots__ = ("columns", "data", "length", "source_rows")

    def __init__(self, columns: Sequence[str], data: Dict[str, ColumnData], length: int) -> None:
        self.columns: List[str] = list(columns)
        self.data = data
        self.length = length
        self.source_rows: Optional[List[Dict[str, Any]]] = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, columns: Sequence[str] = ()) -> "Batch":
        return cls(columns, {c: [] for c in columns}, 0)

    @classmethod
    def from_rows(
        cls, rows: Sequence[Dict[str, Any]], columns: Optional[Sequence[str]] = None
    ) -> "Batch":
        """Build a batch from row dicts.

        When ``columns`` is not given, the column set is the union of row key
        sets in first-seen order (ragged rows are padded with ``None``, which
        is also what the row operators' ``row.get`` convention produces).
        """

        if columns is None:
            names: List[str] = []
            seen = set()
            for row in rows:
                for key in row:
                    if key not in seen:
                        seen.add(key)
                        names.append(key)
            columns = names
        data = {c: [row.get(c) for row in rows] for c in columns}
        return cls(columns, data, len(rows))

    # -- basic access --------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def has_column(self, name: str) -> bool:
        return name in self.data

    def column(self, name: str) -> ColumnData:
        """One column's values; raises like a row-mode ``ColumnRef`` would."""

        try:
            return self.data[name]
        except KeyError:
            raise ExecutionError(f"batch has no column {name!r}") from None

    def column_list(self, name: str) -> List[Any]:
        """One column as a plain Python list (typed columns materialize)."""

        return pylist(self.column(name))

    def row(self, index: int) -> Dict[str, Any]:
        return {c: pylist(self.data[c])[index] for c in self.columns}

    def to_rows(self) -> List[Dict[str, Any]]:
        """Materialize row dicts (the boundary back to the row-oriented API)."""

        columns = self.columns
        if not columns:
            return [{} for _ in range(self.length)]
        pairs = [(c, pylist(self.data[c])) for c in columns]
        return [{c: values[i] for c, values in pairs} for i in range(self.length)]

    def iter_rows(self) -> Iterator[Dict[str, Any]]:
        pairs = [(c, pylist(self.data[c])) for c in self.columns]
        for i in range(self.length):
            yield {c: values[i] for c, values in pairs}

    # -- transforms (all return new batches; columns are shared, not copied) --

    def take(self, indices: Any) -> "Batch":
        """Select rows by position (gather).

        ``indices`` may be a Python sequence or a numpy integer array; every
        position must be in ``[0, len(self))`` — out-of-range (including
        negative) indices raise :class:`ExecutionError` instead of wrapping
        or failing midway.
        """

        _check_indices(indices, self.length)
        idx_array: Optional[np.ndarray] = (
            indices if isinstance(indices, np.ndarray) else None
        )
        data: Dict[str, ColumnData] = {}
        for name in self.columns:
            source = self.data[name]
            if isinstance(source, TypedColumn):
                if idx_array is None:
                    idx_array = np.asarray(indices, dtype=np.intp)
                data[name] = source.take(idx_array)
            else:
                data[name] = [source[i] for i in indices]
        return Batch(self.columns, data, len(indices))

    def slice(self, start: int, stop: int) -> "Batch":
        start = max(0, start)
        stop = min(self.length, stop)
        if stop < start:
            stop = start
        data = {name: self.data[name][start:stop] for name in self.columns}
        return Batch(self.columns, data, stop - start)

    def select(self, columns: Sequence[str]) -> "Batch":
        """Keep only the named columns (in the given order)."""

        return Batch(columns, {c: self.column(c) for c in columns}, self.length)

    def rename(self, renames: Dict[str, str]) -> "Batch":
        """Rename columns; names not present in ``renames`` pass through.

        Collisions keep the position of the first occurrence and the values of
        the last, matching the row executor's dict-comprehension semantics.
        """

        columns: List[str] = []
        data: Dict[str, ColumnData] = {}
        for c in self.columns:
            target = renames.get(c, c)
            if target not in data:
                columns.append(target)
            data[target] = self.data[c]
        return Batch(columns, data, self.length)

    def with_column(self, name: str, values: ColumnData) -> "Batch":
        """Add (or replace) one column; its length must match the batch."""

        if len(values) != self.length:
            raise ExecutionError(
                f"column {name!r} has length {len(values)}, expected {self.length}"
            )
        columns = list(self.columns)
        if name not in self.data:
            columns.append(name)
        data = dict(self.data)
        data[name] = values
        return Batch(columns, data, self.length)

    @staticmethod
    def concat(batches: Sequence["Batch"], columns: Optional[Sequence[str]] = None) -> "Batch":
        """Stack batches vertically, padding missing columns with ``None``."""

        if columns is None:
            names: List[str] = []
            seen = set()
            for batch in batches:
                for c in batch.columns:
                    if c not in seen:
                        seen.add(c)
                        names.append(c)
            columns = names
        data: Dict[str, ColumnData] = {}
        total = sum(batch.length for batch in batches)
        for c in columns:
            pieces = [
                batch.data[c] if batch.has_column(c) else batch.length
                for batch in batches
            ]
            data[c] = _concat_column(pieces)
        return Batch(columns, data, total)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Batch rows={self.length} cols={self.columns}>"


def _concat_column(pieces: List[Any]) -> ColumnData:
    """Stack column pieces; an ``int`` piece means that many NULL pads."""

    typed = [p for p in pieces if isinstance(p, TypedColumn)]
    if typed and len(typed) == len(pieces):
        combined = TypedColumn.concat(typed)
        if combined is not None:
            return combined
    out: List[Any] = []
    for piece in pieces:
        if isinstance(piece, int):
            out.extend([None] * piece)
        else:
            out.extend(pylist(piece))
    return out
