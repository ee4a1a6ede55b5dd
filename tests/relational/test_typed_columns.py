"""Typed columnar kernels: TypedColumn unit tests, batch-container
validation regressions, and targeted row-vs-batch parity for the corners the
PR 6 correctness sweep covered (distinct key markers, Sort NULL placement
under DESC, Limit offsets beyond the batch, NULL-aware numeric columns)."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.relational import Batch, Database
from repro.relational.operators import (
    Distinct,
    Limit,
    SeqScan,
    Sort,
)
from repro.relational.typed import (
    TypedColumn,
    pylist,
    typed_columns_disabled,
    typed_columns_enabled,
)
from repro.relational.types import BOOL, FLOAT, INT, TEXT, Column


class TestTypedColumn:
    def test_int_round_trip_with_nulls(self):
        values = [1, None, 3, None, 5]
        column = TypedColumn.from_values(values)
        assert column is not None
        assert column.kind == "int64"
        assert column.to_pylist() == values
        assert column.null_count() == 2
        assert column.first_null() == 1
        assert len(column) == 5
        assert column[0] == 1 and column[1] is None
        assert list(column) == values

    def test_int64_extremes_survive_exactly(self):
        big = 2**63 - 1
        column = TypedColumn.from_values([big, -(2**63), 2**53 + 1])
        assert column.kind == "int64"
        assert column.to_pylist() == [big, -(2**63), 2**53 + 1]
        assert all(type(v) is int for v in column.to_pylist())
        assert column.null_count() == 0

    def test_beyond_int64_falls_back(self):
        assert TypedColumn.from_values([2**64, 1]) is None

    def test_mixed_and_nested_fall_back(self):
        assert TypedColumn.from_values([1, "x"]) is None
        assert TypedColumn.from_values([{"a": 1}, {"a": 2}]) is None
        assert TypedColumn.from_values([[1], [2]]) is None
        assert TypedColumn.from_values([None, None]) is None  # no type hint

    def test_dictionary_strings(self):
        values = ["a", "b", None, "a", ""]
        column = TypedColumn.from_values(values)
        assert column.kind == "str"
        assert column.to_pylist() == values
        assert column.dictionary == ["a", "b", ""]
        assert column.code_of("b") == 1
        assert column.code_of("missing") is None
        assert list(column.truth_mask()) == [True, True, False, True, False]

    def test_float_and_bool(self):
        floats = TypedColumn.from_values([1.5, None, 2])
        assert floats.kind == "float64"
        assert floats.to_pylist() == [1.5, None, 2.0]
        bools = TypedColumn.from_values([True, False, None])
        assert bools.kind == "bool"
        assert bools.to_pylist() == [True, False, None]
        assert bools.null_count() == 1

    def test_slice_take_and_padded_gather(self):
        column = TypedColumn.from_values([10, None, 30, 40])
        assert column[1:3].to_pylist() == [None, 30]
        assert column.take([3, 0]).to_pylist() == [40, 10]
        padded = column.gather_padded(np.asarray([2, -1, 0]))
        assert padded.to_pylist() == [30, None, 10]
        empty = TypedColumn.from_values([], dtype=INT)
        assert empty.gather_padded(np.asarray([-1, -1])).to_pylist() == [None, None]

    def test_concat_remaps_string_dictionaries(self):
        a = TypedColumn.from_values(["x", "y"])
        b = TypedColumn.from_values(["y", None, "z"])
        combined = TypedColumn.concat([a, b])
        assert combined.to_pylist() == ["x", "y", "y", None, "z"]
        assert combined.dictionary == ["x", "y", "z"]

    def test_nulls_live_in_the_mask_not_the_dtype(self):
        column = TypedColumn.from_values([3, None, 1, None, 2 + 2**53])
        assert column.kind == "int64"
        assert column.to_pylist() == [3, None, 1, None, 2 + 2**53]
        assert column.null_count() == 2
        all_null = TypedColumn.from_values([None, None], dtype=INT)
        assert all_null.kind == "int64"
        assert all_null.to_pylist() == [None, None]
        assert all_null.null_count() == 2

    @pytest.mark.parametrize(
        "values, dtype, numeric",
        [
            ([1, None, 3], None, True),
            ([1.5, None], None, True),
            ([True, None], None, True),
            (["a", None], None, False),
            ([None, None], INT, True),  # all-NULL columns are numeric by vacuity
        ],
    )
    def test_is_numeric_by_kind(self, values, dtype, numeric):
        column = TypedColumn.from_values(values, dtype=dtype)
        assert column.is_numeric is numeric
        assert column.to_pylist() == values

    def test_disabled_scope_restores_flag(self):
        assert typed_columns_enabled()
        with typed_columns_disabled():
            assert not typed_columns_enabled()
        assert typed_columns_enabled()


class TestBatchValidation:
    """PR 6 regression: silent acceptance of bad lengths / indices."""

    @pytest.fixture()
    def batch(self):
        return Batch.from_rows([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])

    def test_with_column_rejects_length_mismatch(self, batch):
        with pytest.raises(ExecutionError):
            batch.with_column("c", [1])
        with pytest.raises(ExecutionError):
            batch.with_column("c", [1, 2, 3])
        assert batch.with_column("c", [1, 2]).column("c") == [1, 2]

    def test_take_rejects_out_of_range_indices(self, batch):
        with pytest.raises(ExecutionError):
            batch.take([0, 2])
        with pytest.raises(ExecutionError):
            batch.take([-1])  # no silent Python wrap-around
        with pytest.raises(ExecutionError):
            batch.take(np.asarray([0, 5]))
        assert batch.take([1, 0]).column("a") == [2, 1]

    def test_typed_batch_take_and_slice_stay_typed(self):
        db = Database("typed-take")
        db.create_table(
            "t", [Column("id", INT), Column("v", INT, nullable=True)], primary_key=["id"]
        )
        db.table("t").insert_batch(
            [{"id": i, "v": None if i % 3 == 0 else i} for i in range(9)]
        )
        data = db.table("t").column_data(["id", "v"])
        assert isinstance(data["id"], TypedColumn)
        batch = Batch(["id", "v"], data, 9)
        taken = batch.take(np.asarray([8, 0, 3]))
        assert isinstance(taken.data["id"], TypedColumn)
        assert taken.column_list("v") == [8, None, None]
        window = batch.slice(2, 5)
        assert isinstance(window.data["id"], TypedColumn)
        assert window.column_list("id") == [2, 3, 4]


class TestCorrectnessSweepParity:
    """Row-vs-batch parity for the corners named in the PR 6 sweep."""

    @pytest.fixture()
    def db(self):
        database = Database("sweep")
        database.create_table(
            "m",
            [
                Column("id", INT),
                Column("v", INT, nullable=True),
                Column("f", FLOAT, nullable=True),
                Column("flag", BOOL, nullable=True),
                Column("tag", TEXT, nullable=True),
            ],
            primary_key=["id"],
        )
        rows = []
        for i in range(24):
            rows.append(
                {
                    "id": i,
                    "v": None if i % 7 == 0 else i % 4,
                    "f": None if i % 5 == 0 else float(i % 3),
                    "flag": None if i % 11 == 0 else bool(i % 2),
                    "tag": None if i % 6 == 0 else "ab"[i % 2],
                }
            )
        database.table("m").insert_batch(rows)
        return database

    def _check(self, db, plan, ordered=False):
        row = db.execute(plan, executor="row")
        batch = db.execute(plan, executor="batch")
        if ordered:
            assert row.to_tuples() == batch.to_tuples()
        else:
            assert row.sorted_tuples() == batch.sorted_tuples()
        return row, batch

    @pytest.mark.parametrize("column", ["v", "f", "flag", "tag"])
    def test_distinct_single_column_parity(self, db, column):
        self._check(db, Distinct(SeqScan("m"), columns=[column]))

    @pytest.mark.parametrize("columns", [["v", "flag"], ["flag", "tag"], ["v", "f"]])
    def test_distinct_multi_column_parity(self, db, columns):
        self._check(db, Distinct(SeqScan("m"), columns=columns))

    def test_distinct_markers_match_across_arity(self, db):
        """`True`/`1`/`1.0` must collapse identically for 1 and N key columns."""

        from repro.relational.operators import ValuesScan

        # A genuinely mixed-type column (object path), as expression output
        # or a VALUES list can produce.
        rows = [{"x": v} for v in [True, 1, 1.0, 0, False, 2]]
        mixed = Database("markers")
        single = mixed.execute(
            Distinct(ValuesScan(rows), columns=["x"]), executor="batch"
        )
        multi = mixed.execute(
            Distinct(ValuesScan(rows), columns=["x", "x"]), executor="batch"
        )
        assert len(single) == len(multi) == 3  # {1-ish, 0-ish, 2} either way
        row_mode = mixed.execute(
            Distinct(ValuesScan(rows), columns=["x"]), executor="row"
        )
        assert single.sorted_tuples() == row_mode.sorted_tuples()

    @pytest.mark.parametrize("column", ["v", "f", "tag"])
    @pytest.mark.parametrize("ascending", [True, False])
    def test_sort_null_placement_parity(self, db, column, ascending):
        """NULLs sort first under DESC in both executors, row-for-row."""

        plan = Sort(SeqScan("m"), [(column, ascending), ("id", True)])
        row, batch = self._check(db, plan, ordered=True)
        first_key = row.rows[0][column]
        if not ascending:
            assert first_key is None  # documented: DESC places NULLs first

    @pytest.mark.parametrize("offset", [0, 10, 23, 24, 25, 1000])
    def test_limit_offset_beyond_batch_parity(self, db, offset):
        plan = Limit(Sort(SeqScan("m"), [("id", True)]), count=5, offset=offset)
        row, batch = self._check(db, plan, ordered=True)
        assert len(batch) == max(0, min(5, 24 - offset))

    def _sweep_plans(self):
        from repro.relational.expressions import And, BinaryOp, InList, IsNull, Not, Or, col, lit
        from repro.relational.operators import AggregateSpec, Filter, HashAggregate, Project

        return [
            Filter(SeqScan("m"), Or([
                BinaryOp(">=", col("v"), lit(2)), BinaryOp("=", col("f"), lit(1.0)),
            ])),
            HashAggregate(
                SeqScan("m"),
                group_by=[("v", col("v"))],
                aggregates=[
                    AggregateSpec("count_star", None, "n"),
                    AggregateSpec("sum", col("f"), "s"),
                    AggregateSpec("min", col("id"), "lo"),
                    AggregateSpec("max", col("id"), "hi"),
                ],
            ),
            HashAggregate(
                Filter(SeqScan("m"), And([col("flag")])),
                group_by=[("tag", col("tag"))],
                aggregates=[AggregateSpec("avg", col("f"), "a")],
            ),
            Distinct(SeqScan("m"), columns=["flag"]),
            Limit(
                Sort(
                    Filter(SeqScan("m"), And([
                        BinaryOp("=", col("tag"), lit("a")),
                        Not(IsNull(col("v"))),
                    ])),
                    [("id", False)],
                ),
                count=4,
            ),
            Project(SeqScan("m"), [
                ("id", col("id")),
                ("s", BinaryOp("+", col("v"), col("f"))),
                ("d", BinaryOp("*", col("v"), lit(2))),
                ("z", BinaryOp("/", col("v"), lit(0))),
            ]),
            Filter(SeqScan("m"), InList(col("v"), [1, 2, 100])),
            Filter(SeqScan("m"), InList(col("tag"), ["a", "zz"])),
        ]

    def test_plan_parity_typed_vs_object_path(self, db):
        """The typed kernels and the pure-Python fallback agree exactly."""

        for plan in self._sweep_plans():
            typed = db.execute(plan, executor="batch")
            with typed_columns_disabled():
                db.table("m")._snapshot = None
                plain = db.execute(plan, executor="batch")
            db.table("m")._snapshot = None
            row_mode = db.execute(plan, executor="row")
            assert (
                typed.sorted_tuples() == plain.sorted_tuples() == row_mode.sorted_tuples()
            ), repr(plan)

    @pytest.mark.parametrize(
        "column, op, value",
        [
            ("v", "in", [2**53 + 1]),
            ("v", "in", [float(2**53)]),
            ("v", "in", [2**64, -(2**63)]),
            ("v", "=", float(2**53)),
            ("v", "<", float(2**53)),
            ("v", "=", 2**64),
            ("f", "in", [2**53 + 1]),
            ("f", "in", [2**53, 10**400]),
            ("f", "=", 2**53 + 1),
            ("f", "<", 2**53 + 1),
            ("f", ">=", -(2**53) - 1),
        ],
    )
    def test_big_int_predicate_parity(self, column, op, value):
        """Python compares ints and floats exactly; the kernels must not round.

        float64 holds every int only up to 2**53, so each side of the
        boundary is stored: 2**53 and 2**53 + 1 in an INT column, and the
        float 2**53 in a FLOAT column.
        """

        from repro.relational.expressions import BinaryOp, InList, col, lit
        from repro.relational.operators import Filter

        db = Database("big")
        db.create_table(
            "b",
            [Column("id", INT), Column("v", INT, nullable=True), Column("f", FLOAT, nullable=True)],
            primary_key=["id"],
        )
        db.table("b").insert_batch(
            [
                {"id": 0, "v": 2**53, "f": float(2**53)},
                {"id": 1, "v": 2**53 + 1, "f": -float(2**53)},
                {"id": 2, "v": -(2**63), "f": None},
                {"id": 3, "v": None, "f": 1.5},
            ]
        )
        predicate = (
            InList(col(column), value) if op == "in" else BinaryOp(op, col(column), lit(value))
        )
        plan = Filter(SeqScan("b"), predicate)
        typed = db.execute(plan, executor="batch")
        row_mode = db.execute(plan, executor="row")
        with typed_columns_disabled():
            db.table("b")._snapshot = None
            plain = db.execute(plan, executor="batch")
        assert typed.sorted_tuples() == plain.sorted_tuples() == row_mode.sorted_tuples()

    def test_division_by_zero_yields_null(self, db):
        from repro.relational.expressions import BinaryOp, col, lit
        from repro.relational.operators import Filter, Project

        plan = Project(
            Filter(SeqScan("m"), BinaryOp("<", col("id"), lit(3))),
            [
                ("id", col("id")),
                ("z", BinaryOp("/", col("v"), lit(0))),
                ("m", BinaryOp("%", col("v"), lit(0))),
            ],
        )
        for executor in ("row", "batch"):
            result = db.execute(plan, executor=executor)
            assert all(r["z"] is None and r["m"] is None for r in result.rows)

    def test_snapshot_produces_typed_columns(self, db):
        data = db.table("m").column_data(["id", "v", "f", "flag", "tag"])
        kinds = {name: col.kind for name, col in data.items() if isinstance(col, TypedColumn)}
        assert kinds == {
            "id": "int64",
            "v": "int64",
            "f": "float64",
            "flag": "bool",
            "tag": "str",
        }

    def test_mvcc_view_pins_typed_columns_zero_copy(self, db):
        view = db.begin_read_view()
        try:
            pinned = view.table("m").column_data(["id"])["id"]
            live = db.table("m").column_data(["id"])["id"]
            assert isinstance(pinned, TypedColumn)
            assert pinned.values is live.values  # same array, no copy
            db.table("m").insert_batch([{"id": 1000, "v": 1, "f": 0.0, "flag": True, "tag": "a"}])
            assert len(view.table("m").column_data(["id"])["id"]) == 24  # frozen
        finally:
            view.close()
