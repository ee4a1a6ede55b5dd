"""Typed columnar kernels: NumPy-backed columns with validity bitmaps.

A :class:`TypedColumn` is the physical representation of one column of a
columnar snapshot or record batch when the column's values fit one of four
typed layouts:

* ``int64``  — Python ints within int64 range (INT / BIGINT columns),
* ``float64`` — Python floats (FLOAT columns; ints are upcast),
* ``bool``   — Python bools (BOOL columns),
* ``str``    — dictionary-encoded strings (TEXT columns): an ``int32`` code
  array indexing a list of distinct strings (code ``-1`` marks NULL).

NULLs are carried in a *validity bitmap* (a boolean numpy array; ``None``
means "every value valid"), so a numeric column with NULLs stays numeric —
the values array holds an arbitrary filler at invalid slots and the mask is
the single source of truth.  Integer columns stay int64 end to end: they are
never round-tripped through float64, so values above 2**53 survive exactly.

Anything else — ARRAY and STRUCT columns, ints beyond int64, mixed-type
value lists — stays a plain Python list (the *object fallback*): every
consumer of column data in this repo accepts ``list | TypedColumn``, and the
vectorized kernels in :mod:`repro.relational.vectorized` quietly degrade to
the original list comprehensions.  :func:`pylist` is the uniform escape
hatch back to row-value lists.

TypedColumn deliberately implements the read-only ``Sequence`` protocol
(``len``/indexing/slicing/iteration/``in``/``index``/``count``) with *Python*
scalars (never numpy scalars) so existing list-consuming code — constraint
sweeps, hash-join build loops, ``Batch.to_rows`` — keeps working unchanged;
slicing and ``take`` return new TypedColumns backed by numpy views and fancy
indexing, which is what makes MVCC snapshot retention and ``Limit``/filter
gathers zero-copy or single-allocation instead of per-element list copies.

Columns are immutable after construction (the same discipline the MVCC
registry and background checkpoints already rely on for list snapshots);
``to_pylist`` caches its result and callers must not mutate it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ExecutionError

__all__ = [
    "Splice",
    "TypedColumn",
    "pylist",
    "splice_column",
    "typed_columns_enabled",
    "typed_columns_disabled",
    "from_values",
]

_NONE_TYPE = type(None)

#: Module switch consulted by :func:`splice_column` (every snapshot build);
#: the benchmark gate and a handful of tests flip it to measure / exercise
#: the pure-Python object path against identical data.
_ENABLED = True


def typed_columns_enabled() -> bool:
    """Whether snapshot builders should produce typed columns."""

    return _ENABLED


class typed_columns_disabled:
    """Context manager forcing the pure-Python object path (benchmarks/tests)."""

    def __enter__(self) -> "typed_columns_disabled":
        global _ENABLED
        self._saved = _ENABLED
        _ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ENABLED
        _ENABLED = self._saved
        return False


def pylist(values: Union["TypedColumn", List[Any]]) -> List[Any]:
    """A column as a plain row-value list (the object-path escape hatch).

    For typed columns this is the cached materialization — treat it as
    immutable, exactly like the shared snapshot lists it replaces.
    """

    if isinstance(values, TypedColumn):
        return values.to_pylist()
    return values


class TypedColumn:
    """One immutable typed column: numpy values + optional validity bitmap.

    ``kind`` is one of ``"int64"``, ``"float64"``, ``"bool"``, ``"str"``.
    For ``"str"``, ``values`` holds int32 dictionary codes (−1 at NULL slots)
    and ``dictionary`` the distinct strings in first-seen order.  ``validity``
    is a boolean array (True = value present) or ``None`` when every slot is
    valid.
    """

    __slots__ = ("kind", "values", "validity", "dictionary", "_pylist", "_encode")

    def __init__(
        self,
        kind: str,
        values: np.ndarray,
        validity: Optional[np.ndarray] = None,
        dictionary: Optional[List[str]] = None,
        encode: Optional[Dict[str, int]] = None,
    ) -> None:
        self.kind = kind
        self.values = values
        self.validity = validity
        self.dictionary = dictionary
        self._pylist: Optional[List[Any]] = None
        self._encode = encode

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_values(
        values: Sequence[Any], dtype: Optional[Any] = None
    ) -> Optional["TypedColumn"]:
        """Build a typed column from Python values, or ``None`` for fallback.

        ``dtype`` is an optional :mod:`repro.relational.types` ``DataType``
        hint (the owning column's declared type); without it the kind is
        inferred from the value types present.  Returns ``None`` — meaning
        "keep the plain list" — for ARRAY/STRUCT columns, ints beyond int64,
        mixed-type data, and all-NULL columns with no type hint.
        """

        kind = _kind_for(values, dtype)
        if kind is None:
            return None
        if not isinstance(values, list):
            values = list(values)
        if kind == "str":
            return _build_str(values)
        return _build_numeric(values, kind)

    @staticmethod
    def concat(columns: Sequence["TypedColumn"]) -> Optional["TypedColumn"]:
        """Stack same-kind typed columns; ``None`` when kinds differ."""

        kinds = {c.kind for c in columns}
        if len(kinds) != 1:
            return None
        kind = kinds.pop()
        if kind == "str":
            encode: Dict[str, int] = {}
            pieces: List[np.ndarray] = []
            for c in columns:
                assert c.dictionary is not None
                remap = np.fromiter(
                    (encode.setdefault(s, len(encode)) for s in c.dictionary),
                    dtype=np.int32,
                    count=len(c.dictionary),
                )
                if len(remap):
                    codes = np.where(c.values >= 0, remap[np.maximum(c.values, 0)], -1)
                else:
                    codes = c.values
                pieces.append(codes.astype(np.int32, copy=False))
            values = np.concatenate(pieces) if pieces else np.empty(0, np.int32)
            validity = None if (values >= 0).all() else values >= 0
            return TypedColumn("str", values, validity, list(encode), encode)
        values = np.concatenate([c.values for c in columns])
        if any(c.validity is not None for c in columns):
            validity = np.concatenate(
                [
                    c.validity
                    if c.validity is not None
                    else np.ones(len(c.values), dtype=bool)
                    for c in columns
                ]
            )
        else:
            validity = None
        return TypedColumn(kind, values, validity)

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, item: Any) -> Any:
        if isinstance(item, slice):
            validity = self.validity[item] if self.validity is not None else None
            return TypedColumn(
                self.kind, self.values[item], validity, self.dictionary, self._encode
            )
        if self.validity is not None and not self.validity[item]:
            return None
        value = self.values[item]
        if self.kind == "str":
            code = int(value)
            return None if code < 0 else self.dictionary[code]
        return value.item()

    def __iter__(self) -> Iterator[Any]:
        return iter(self.to_pylist())

    def __contains__(self, value: Any) -> bool:
        if value is None:
            return self.null_count() > 0
        return value in self.to_pylist()

    def index(self, value: Any) -> int:
        return self.to_pylist().index(value)

    def count(self, value: Any) -> int:
        return self.to_pylist().count(value)

    def __eq__(self, other: object) -> bool:
        """Sequence equality against lists/typed columns (test convenience)."""

        if isinstance(other, TypedColumn):
            return self.to_pylist() == other.to_pylist()
        if isinstance(other, list):
            return self.to_pylist() == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    # -- materialization -----------------------------------------------------

    def to_pylist(self) -> List[Any]:
        """Python-scalar values with ``None`` at NULL slots (cached, immutable)."""

        out = self._pylist
        if out is None:
            if self.kind == "str":
                dictionary = self.dictionary
                out = [
                    dictionary[c] if c >= 0 else None for c in self.values.tolist()
                ]
            else:
                out = self.values.tolist()
                if self.validity is not None:
                    for i in np.flatnonzero(~self.validity).tolist():
                        out[i] = None
            self._pylist = out
        return out

    # -- NULL bookkeeping ----------------------------------------------------

    def null_count(self) -> int:
        if self.validity is None:
            return 0
        return int(len(self.validity) - np.count_nonzero(self.validity))

    def first_null(self) -> Optional[int]:
        """Index of the first NULL slot, or ``None`` (constraint sweeps)."""

        if self.validity is None:
            return None
        holes = np.flatnonzero(~self.validity)
        return int(holes[0]) if len(holes) else None

    def valid_mask(self) -> np.ndarray:
        """Validity as a concrete boolean array (all-True when no NULLs)."""

        if self.validity is not None:
            return self.validity
        return np.ones(len(self.values), dtype=bool)

    def truth_mask(self) -> np.ndarray:
        """Row truthiness as a boolean array (NULL is falsy, like the row path)."""

        if self.kind == "bool":
            truth = self.values
        elif self.kind == "str":
            assert self.dictionary is not None
            nonempty = np.fromiter(
                (len(s) > 0 for s in self.dictionary),
                dtype=bool,
                count=len(self.dictionary),
            )
            if len(nonempty):
                truth = np.where(self.values >= 0, nonempty[np.maximum(self.values, 0)], False)
            else:
                truth = np.zeros(len(self.values), dtype=bool)
        else:
            truth = self.values != 0
        if self.validity is not None:
            truth = truth & self.validity
        return truth

    # -- transforms ----------------------------------------------------------

    def take(self, indices: Any) -> "TypedColumn":
        """Gather by position (numpy fancy indexing); indices must be valid."""

        idx = np.asarray(indices, dtype=np.intp)
        validity = self.validity[idx] if self.validity is not None else None
        return TypedColumn(
            self.kind, self.values[idx], validity, self.dictionary, self._encode
        )

    def gather_padded(self, indices: Any) -> "TypedColumn":
        """Gather where index ``-1`` produces NULL (join null pads)."""

        idx = np.asarray(indices, dtype=np.intp)
        pad = idx < 0
        if not pad.any():
            return self.take(idx)
        if not len(self.values):  # every index is a pad over an empty source
            values = np.full(len(idx), -1, np.int32) if self.kind == "str" else np.zeros(
                len(idx), self.values.dtype
            )
            return TypedColumn(
                self.kind, values, np.zeros(len(idx), dtype=bool), self.dictionary,
                self._encode,
            )
        safe = np.where(pad, 0, idx)
        values = self.values[safe]
        if self.kind == "str":
            values = values.copy()
            values[pad] = -1
            validity = values >= 0
            return TypedColumn("str", values, validity, self.dictionary, self._encode)
        if self.validity is not None:
            validity = self.validity[safe] & ~pad
        else:
            validity = ~pad
        return TypedColumn(self.kind, values, validity, self.dictionary, self._encode)

    def _spliced(
        self, splice: "Splice", values: List[Any], dtype: Optional[Any]
    ) -> Optional["TypedColumn"]:
        """This column cut by ``splice`` with ``values`` as its new rows;
        ``None`` when a value does not fit this column's kind."""

        if self.kind == "str":
            assert self.dictionary is not None
            encode = self._encode
            if encode is None:
                encode = {s: i for i, s in enumerate(self.dictionary)}
            encoded = _encode_strs(values, self.dictionary, encode)
            if encoded is None:
                return None
            codes, dictionary, encode = encoded
            merged = splice.take_array(self.values, codes)
            return TypedColumn("str", merged, _str_validity(merged), dictionary, encode)
        fresh = TypedColumn.from_values(values, dtype)
        if fresh is None or fresh.kind != self.kind:
            return None
        merged = splice.take_array(self.values, fresh.values)
        validity = None
        if self.validity is not None or fresh.validity is not None:
            validity = splice.take_array(self.valid_mask(), fresh.valid_mask())
            if validity.all():
                validity = None
        return TypedColumn(self.kind, merged, validity)

    # -- string dictionary ---------------------------------------------------

    def code_of(self, value: str) -> Optional[int]:
        """Dictionary code of ``value``, or ``None`` when absent."""

        encode = self._encode
        if encode is None:
            assert self.dictionary is not None
            encode = self._encode = {s: i for i, s in enumerate(self.dictionary)}
        return encode.get(value)

    # -- numeric reductions (ColumnStore surface) ----------------------------

    @property
    def is_numeric(self) -> bool:
        return self.kind in ("int64", "float64", "bool")

    def _valid_values(self) -> np.ndarray:
        if self.validity is None:
            return self.values
        return self.values[self.validity]

    def sum(self) -> Any:
        if not self.is_numeric:
            raise ExecutionError(f"sum() over non-numeric {self.kind} column")
        total = self._valid_values().sum()
        return int(total) if self.kind in ("int64", "bool") else float(total)

    def min(self) -> Any:
        values = self._valid_values()
        if not len(values):
            return None
        value = values.min()
        return value.item()

    def max(self) -> Any:
        values = self._valid_values()
        if not len(values):
            return None
        value = values.max()
        return value.item()

    def to_numpy(self) -> np.ndarray:
        """The raw values array (filler at NULL slots; see ``validity``)."""

        return self.values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nulls = self.null_count()
        return f"<TypedColumn {self.kind} len={len(self)} nulls={nulls}>"


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

_NUMPY_KIND = {"int64": np.int64, "float64": np.float64, "bool": np.bool_}


#: Value types each kind may encode without changing any value.  A declared
#: type is only a *hint*: values that fall outside (possible when storage is
#: populated around validation) force the object fallback rather than letting
#: np.asarray silently truncate floats or upcast bools.
_ALLOWED_TYPES = {
    "int64": frozenset((int,)),
    "float64": frozenset((int, float)),
    "bool": frozenset((bool,)),
    "str": frozenset((str,)),
}


def _kind_for(values: Sequence[Any], dtype: Optional[Any]) -> Optional[str]:
    """Target kind from the declared type, else inferred from value types."""

    if dtype is not None:
        # Late import keeps typed.py importable without the types module.
        from .types import BoolType, FloatType, IntType, TextType

        if isinstance(dtype, IntType):  # covers BigIntType
            hinted = "int64"
        elif isinstance(dtype, FloatType):
            hinted = "float64"
        elif isinstance(dtype, BoolType):
            hinted = "bool"
        elif isinstance(dtype, TextType):
            hinted = "str"
        else:
            return None
    kinds = set(map(type, values))
    kinds.discard(_NONE_TYPE)
    if dtype is not None:
        return hinted if kinds <= _ALLOWED_TYPES[hinted] else None
    if not kinds:
        return None  # all-NULL with no hint: keep the list
    if kinds == {bool}:
        return "bool"
    if kinds == {int}:
        return "int64"
    if kinds <= {int, float}:
        return "float64"
    if kinds == {str}:
        return "str"
    return None


def _build_numeric(values: List[Any], kind: str) -> Optional[TypedColumn]:
    # NULLs must be detected *before* np.asarray: float64 coerces None to NaN
    # and bool_ to False silently, which would lose NULL-ness.
    np_dtype = _NUMPY_KIND[kind]
    count = len(values)
    if None in values:  # C-level identity-first scan
        validity = np.fromiter((v is not None for v in values), dtype=bool, count=count)
        try:
            filled = np.fromiter(
                (v if v is not None else 0 for v in values), dtype=np_dtype, count=count
            )
        except (TypeError, ValueError, OverflowError):
            return None  # some value does not fit the dtype: keep the list
        return TypedColumn(kind, filled, validity)
    try:
        return TypedColumn(kind, np.asarray(values, dtype=np_dtype))
    except (TypeError, ValueError, OverflowError):
        return None


def _encode_strs(
    values: List[Any], dictionary: List[str], encode: Dict[str, int]
) -> Optional[Tuple[np.ndarray, List[str], Dict[str, int]]]:
    """Codes of ``values`` against a dictionary, extended by unseen strings.

    The given ``dictionary``/``encode`` are never mutated — the first unseen
    string copies both — because retained columns may still share them.
    Returns ``None`` when a value is neither a string nor NULL.
    """

    codes: List[int] = []
    append = codes.append
    get = encode.get
    owned = False
    for v in values:
        if v is None:
            append(-1)
            continue
        if type(v) is not str:
            return None
        code = get(v)
        if code is None:
            if not owned:
                dictionary, encode, owned = list(dictionary), dict(encode), True
                get = encode.get
            code = encode[v] = len(dictionary)
            dictionary.append(v)
        append(code)
    return np.array(codes, dtype=np.int32), dictionary, encode


def _str_validity(codes: np.ndarray) -> Optional[np.ndarray]:
    valid = codes >= 0
    return None if valid.all() else valid


def _build_str(values: List[Any]) -> Optional[TypedColumn]:
    encoded = _encode_strs(values, [], {})
    if encoded is None:
        return None
    codes, dictionary, encode = encoded
    return TypedColumn("str", codes, _str_validity(codes), dictionary, encode)


# ---------------------------------------------------------------------------
# Splicing: the next version of a column from the previous one
# ---------------------------------------------------------------------------


class Splice:
    """How one version of a table's rows becomes the next.

    Both versions list live rows in ascending slot order.  The next version
    keeps every previous row whose slot was not written, drops the written
    ones, and places the written slots that are still live (the *new* rows)
    by slot id.  ``pieces`` spells that out in destination order as
    ``(from_new, start, stop)`` slices of either the previous rows or the
    new rows, so applying a splice is one slice copy per piece — O(written
    rows) pieces however long the table is.

    ``dropped`` holds the previous positions that were written, ``added``
    the destination of each new row, and ``shifted`` whether any kept row
    changes position (a delete, or an insert below a kept slot); while it is
    false, position-keyed structures can be patched instead of rebuilt.
    """

    __slots__ = ("length", "pieces", "dropped", "added", "shifted")

    def __init__(self, old_ids: np.ndarray, written: np.ndarray, new_ids: np.ndarray) -> None:
        """``old_ids``: the previous version's slot ids; ``written``: the
        written slot ids; ``new_ids``: the live subset of ``written``.  All
        three are sorted and free of duplicates."""

        count = len(old_ids)
        at = np.searchsorted(old_ids, written)
        hit = at < count
        hit[hit] = old_ids[at[hit]] == written[hit]
        dropped = at[hit]
        # each new row goes right before this previous position
        goes_before = np.searchsorted(old_ids, new_ids)
        cuts = np.union1d(dropped, goes_before).tolist()
        before = goes_before.tolist()
        dropped_set = set(dropped.tolist())
        added = np.empty(len(before), dtype=np.intp)
        pieces: List[Tuple[bool, int, int]] = []
        shifted = False
        i = j = dest = 0
        for p in cuts:
            if p > i:
                pieces.append((False, i, p))
                shifted = shifted or dest != i
                dest += p - i
            k = bisect_right(before, p, j)
            if k > j:
                pieces.append((True, j, k))
                added[j:k] = np.arange(dest, dest + k - j)
                dest += k - j
                j = k
            i = p + 1 if p in dropped_set else p
        if i < count:
            pieces.append((False, i, count))
            shifted = shifted or dest != i
            dest += count - i
        self.length = dest
        self.pieces = pieces
        self.dropped = dropped
        self.added = added
        self.shifted = shifted

    def take_list(self, old: List[Any], new: List[Any]) -> List[Any]:
        """The next version of a plain list.

        Inputs are never written, but one that passes through whole is
        returned as is, so both must be immutable from here on.
        """

        if len(self.pieces) == 1:
            from_new, start, stop = self.pieces[0]
            source = new if from_new else old
            return source if stop - start == len(source) else source[start:stop]
        if not self.shifted:
            # every kept row stays put: copy once, overwrite/append new rows
            out = old[: self.length]
            for from_new, start, stop in self.pieces:
                if from_new:
                    at = self.added[start]
                    out[at : at + stop - start] = new[start:stop]
            return out
        out = []
        for from_new, start, stop in self.pieces:
            out += (new if from_new else old)[start:stop]
        return out

    def take_array(self, old: np.ndarray, new: np.ndarray) -> np.ndarray:
        """The next version of a numpy array (may be a view of an input,
        which is never written)."""

        parts = [(new if from_new else old)[start:stop] for from_new, start, stop in self.pieces]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return new[:0]
        return np.concatenate(parts)


def splice_column(
    old: Union[TypedColumn, List[Any]],
    splice: Splice,
    values: List[Any],
    dtype: Optional[Any] = None,
) -> Union[TypedColumn, List[Any]]:
    """The next version of a column: ``old`` cut by ``splice``, ``values`` as its new rows.

    The result is what :meth:`TypedColumn.from_values` (or the plain-list
    fallback) would give for the whole next version, and never writes into
    ``old`` — retained snapshots may still hold it.  A typed column encodes
    just ``values`` and gathers the rest by position; a string column reuses
    its dictionary, copying it only to add strings it has not seen.  A plain
    list is spliced as a list and retyped, which also makes the first build
    (``old`` empty) and a return from the fallback the same call.
    """

    use_typed = typed_columns_enabled()
    if use_typed and isinstance(old, TypedColumn):
        spliced = old._spliced(splice, values, dtype)
        if spliced is not None:
            return spliced
    merged = splice.take_list(pylist(old), values)
    if use_typed:
        typed = TypedColumn.from_values(merged, dtype)
        if typed is not None:
            return typed
    return merged


def from_values(values: Sequence[Any], dtype: Optional[Any] = None):
    """Module-level alias of :meth:`TypedColumn.from_values`."""

    return TypedColumn.from_values(values, dtype)
