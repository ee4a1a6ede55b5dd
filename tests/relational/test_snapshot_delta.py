"""Snapshot derivation: every delta-built snapshot equals a from-scratch build.

``Table.snapshot`` derives each version from the previous one by the slots
written since.  This stateful property drives every ``Table`` mutator —
``insert``, ``insert_batch``, ``update_row`` (key columns included),
``delete_row``, ``insert_at`` (the undo path), ``apply_insert_slots`` (with
slot padding), ``apply_delete_slot``, ``vacuum``, ``truncate`` and
``restore_slots`` — over NULLs, unseen strings (dictionary growth),
``2**63-1``, an INT beyond int64 (the column falls back to a list and back),
and an ARRAY column, while flipping ``typed_columns_disabled`` between
builds.  After each build it checks the result against an independent
from-scratch build: slot ids, the stored row dicts themselves, every column
(values, typed kind, validity) and every carried lookup map.  It also checks
that every snapshot returned earlier still equals a deep copy taken when it
was returned — the guard against patching arrays, dictionaries, id lists or
row dicts that a retained snapshot shares.
"""

import copy
import random
import sys
import threading

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.relational.table import Table
from repro.relational.typed import TypedColumn, typed_columns_disabled
from repro.relational.types import BOOL, FLOAT, INT, TEXT, Column, TableSchema, array_of

SCHEMA = TableSchema(
    name="t",
    columns=[
        Column("k", INT),
        Column("s", TEXT),
        Column("f", FLOAT),
        Column("b", BOOL),
        Column("a", array_of(INT)),
    ],
    primary_key=("k",),
)
KEY_COLUMN_SETS = [("k",), ("s",), ("k", "s"), ("a_missing",)]

ints = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.sampled_from([2**63 - 1, -(2**63), 2**64]),
)
texts = st.one_of(st.none(), st.sampled_from(["x", "y", ""]), st.text(alphabet="pqr", max_size=2))
floats = st.one_of(st.none(), st.integers(-2, 2), st.floats(-1e6, 1e6, allow_nan=False))
values = {
    "k": ints,
    "s": texts,
    "f": floats,
    "b": st.one_of(st.none(), st.booleans()),
    "a": st.one_of(st.none(), st.lists(st.integers(-2, 2), max_size=2)),
}
full_rows = st.fixed_dictionaries(values)
rows = st.one_of(full_rows, st.fixed_dictionaries({}, optional=values))


def _from_scratch(table, use_typed):
    """The snapshot contents a full rebuild over live slots would give."""

    live = [(slot, row) for slot, row in enumerate(table._rows) if row is not None]
    live_rows = [row for _, row in live]
    columns = {}
    for column in SCHEMA.columns:
        column_values = [row.get(column.name) for row in live_rows]
        typed = TypedColumn.from_values(column_values, column.dtype) if use_typed else None
        columns[column.name] = column_values if typed is None else typed
    return [slot for slot, _ in live], live_rows, columns


def _lookup_map(rows, key_columns):
    out = {}
    for position, row in enumerate(rows):
        out.setdefault(tuple(row.get(c) for c in key_columns), []).append(position)
    return out


def _freeze(snapshot):
    """A deep copy of everything a snapshot shares, buffers included."""

    columns = {}
    for name, column in snapshot.columns.items():
        if isinstance(column, TypedColumn):
            columns[name] = (
                column.kind,
                column.values.dtype,
                column.values.tobytes(),
                None if column.validity is None else column.validity.tobytes(),
                list(column.dictionary) if column.dictionary is not None else None,
            )
        else:
            columns[name] = copy.deepcopy(column)
    return {
        "slot_ids": snapshot.slot_ids.tolist(),
        "rows": copy.deepcopy(snapshot.rows),
        "columns": columns,
        "maps": copy.deepcopy(snapshot._lookup_maps),
    }


class SnapshotDerivation(RuleBasedStateMachine):
    @initialize(build_every=st.integers(1, 4))
    def setup(self, build_every):
        self.table = Table(SCHEMA)
        self.typed = self.built_typed = True
        self.build_every = build_every
        self.pending = 0
        self.image = None
        self.returned = []  # (snapshot, frozen copy at return time)

    # -- helpers ------------------------------------------------------------------

    def _live(self):
        return [slot for slot, row in enumerate(self.table._rows) if row is not None]

    def _remember(self, snapshot):
        for seen, frozen in self.returned:
            if seen is snapshot:
                frozen["maps"] = copy.deepcopy(snapshot._lookup_maps)
                return
        self.returned.append((snapshot, _freeze(snapshot)))

    def _under_flag(self, build):
        """Run ``build`` with typed columns on or off as currently flipped.

        A snapshot is cached per data version, so the flag that shaped the
        current one is the flag in force when that version was first built.
        """

        cached = self.table._snapshot
        if cached is None or cached.version != self.table.version:
            self.built_typed = self.typed
        if self.typed:
            return build()
        with typed_columns_disabled():
            return build()

    def _build(self):
        snapshot = self._under_flag(self.table.snapshot)
        self._check(snapshot)
        self._remember(snapshot)
        return snapshot

    def _check(self, snapshot):
        assert snapshot.version == self.table.version
        slot_ids, live_rows, expected = _from_scratch(self.table, self.built_typed)
        assert snapshot.slot_ids.tolist() == slot_ids
        assert snapshot.row_count == len(live_rows)
        assert len(snapshot.rows) == len(live_rows)
        assert all(got is want for got, want in zip(snapshot.rows, live_rows))
        for name, want in expected.items():
            got = snapshot.columns[name]
            assert type(got) is type(want), name
            if isinstance(want, TypedColumn):
                assert got.kind == want.kind, name
                assert got.to_pylist() == want.to_pylist(), name
                assert (got.validity is None) == (want.validity is None), name
                assert got.valid_mask().tolist() == want.valid_mask().tolist(), name
            else:
                assert got == want, name
        for key_columns, lookup in snapshot._lookup_maps.items():
            assert lookup == _lookup_map(live_rows, key_columns), key_columns

    # -- mutators -----------------------------------------------------------------

    @rule(row=rows)
    def insert(self, row):
        self.table.insert(row)

    @rule(batch=st.lists(rows, min_size=1, max_size=4))
    def insert_batch(self, batch):
        self.table.insert_batch(batch)

    @precondition(lambda self: self._live())
    @rule(data=st.data(), changes=st.fixed_dictionaries({}, optional=values))
    def update_row(self, data, changes):
        slot = data.draw(st.sampled_from(self._live()))
        self.table.update_row(slot, changes)

    @precondition(lambda self: self._live())
    @rule(data=st.data())
    def delete_row(self, data):
        self.table.delete_row(data.draw(st.sampled_from(self._live())))

    @precondition(lambda self: len(self._live()) < len(self.table._rows))
    @rule(data=st.data(), row=rows)
    def insert_at(self, data, row):
        dead = [s for s, r in enumerate(self.table._rows) if r is None]
        self.table.insert_at(data.draw(st.sampled_from(dead)), row)

    @rule(data=st.data(), batch=st.lists(full_rows, min_size=1, max_size=3))
    def apply_insert_slots(self, data, batch):
        start = data.draw(st.integers(0, len(self.table._rows) + 2))
        self.table.apply_insert_slots(start, batch)

    @rule(data=st.data())
    def apply_delete_slot(self, data):
        self.table.apply_delete_slot(data.draw(st.integers(-1, len(self.table._rows) + 1)))

    @rule()
    def vacuum(self):
        self.table.vacuum()

    @rule()
    def truncate(self):
        self.table.truncate()

    @rule()
    def dump(self):
        self.image = self._under_flag(self.table.dump_slots)
        snapshot = self.table._snapshot
        assert self.image["live_ids"] == snapshot.slot_ids.tolist()
        self._check(snapshot)
        self._remember(snapshot)

    @precondition(lambda self: self.image is not None)
    @rule()
    def restore(self):
        image = self.image
        self.table.restore_slots(image["slots"], image["live_ids"], image["columns"])

    # -- readers ------------------------------------------------------------------

    @rule()
    def flip_typed(self):
        self.typed = not self.typed

    @rule(key_columns=st.sampled_from(KEY_COLUMN_SETS))
    def probe(self, key_columns):
        snapshot = self._build()
        snapshot.lookup_map(key_columns)
        self._check(snapshot)
        self._remember(snapshot)

    @invariant()
    def derived_equals_from_scratch(self):
        self.pending += 1
        if self.pending >= self.build_every:
            self.pending = 0
            self._build()

    @invariant()
    def returned_snapshots_unchanged(self):
        for snapshot, frozen in self.returned:
            assert _freeze(snapshot) == frozen


SnapshotDerivation.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestSnapshotDerivation = SnapshotDerivation.TestCase


def test_builds_beside_a_writer_never_lose_a_write():
    """Reader threads derive snapshots while a writer mutates the same table.

    A build racing a write may return a mid-write state (live reads promise
    no more), but it must never drop a logged slot or stamp a stale result
    with a newer version: right after each write the writer's own
    ``snapshot()`` must show that write, and once the writer stops the next
    snapshot must equal a from-scratch build.
    """

    table = Table(SCHEMA)
    table.insert_batch([{"k": i, "s": f"s{i % 5}", "f": 0.5, "b": True, "a": []} for i in range(200)])
    stop = threading.Event()
    errors = []

    def reader():
        while not stop.is_set():
            try:
                table.snapshot().lookup_map(("k",))
            except Exception as exc:  # reported below
                errors.append(exc)
                return

    def write(rng, i):
        live = [s for s, r in enumerate(table._rows) if r is not None]
        op = rng.random()
        if op < 0.5 and live:
            slot = rng.choice(live)
            table.update_row(slot, {"k": rng.randint(0, 300), "s": f"w{i % 7}"})
        elif op < 0.7 and live:
            slot = rng.choice(live)
            table.delete_row(slot)
        elif op < 0.8 and len(live) < len(table._rows):
            slot = rng.choice([s for s, r in enumerate(table._rows) if r is None])
            table.insert_at(slot, {"k": i})
        else:
            slot = table.insert({"k": i, "s": "new", "f": None})
        return slot

    def writer():
        rng = random.Random(7)
        for i in range(1500):
            # a burst of writes the readers race with, then the writer's check
            written = {write(rng, i) for _ in range(rng.randint(1, 4))}
            snapshot = table.snapshot()
            ids = snapshot.slot_ids.tolist()
            for slot in written:
                row = table._rows[slot]
                if row is None:
                    assert slot not in ids, (i, slot)
                else:
                    assert snapshot.rows[ids.index(slot)] is row, (i, slot)

    def writing_thread():
        try:
            writer()
        except AssertionError as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    writing = threading.Thread(target=writing_thread)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads + [writing]:
            thread.start()
        writing.join(timeout=120)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not writing.is_alive() and not any(t.is_alive() for t in threads)
    assert errors == []
    snapshot = table.snapshot()
    slot_ids, live_rows, expected = _from_scratch(table, True)
    assert snapshot.slot_ids.tolist() == slot_ids
    assert all(got is want for got, want in zip(snapshot.rows, live_rows))
    assert len(snapshot.rows) == len(live_rows)
    for name, want in expected.items():
        assert snapshot.columns[name] == want, name
    assert snapshot.lookup_map(("k",)) == _lookup_map(live_rows, ("k",))
