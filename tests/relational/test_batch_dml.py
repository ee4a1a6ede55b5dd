"""Batch DML parity: ``insert_many`` must behave like a looped ``insert``.

The vectorized write path (columnar type validation, set-based constraint
sweeps, bulk index maintenance, single undo record) has to be observationally
identical to the row-at-a-time reference:

* final table rows, row ids and index contents match;
* constraint violations raise the same error type, with the offending batch
  row identified in the message;
* a mid-batch failure leaves the table completely unchanged (checks run
  before any write);
* inside a transaction the whole batch is one undo record and rolls back
  cleanly.

Also covers the statistics-staleness fix (version-keyed stats) and the
cost-based executor choice that rides on fresh cardinalities.
"""

import pytest

from repro.errors import (
    CheckViolation,
    ForeignKeyViolation,
    NotNullViolation,
    PrimaryKeyViolation,
    TypeMismatchError,
    UniqueViolation,
)
from repro.relational import Column, Database, FLOAT, INT, TEXT
from repro.relational.expressions import BinaryOp, col, lit
from repro.relational.operators import IndexLookup, SeqScan


def build_db() -> Database:
    db = Database("batch-dml")
    db.create_table(
        "person",
        [
            Column("id", INT, nullable=False),
            Column("email", TEXT),
            Column("city", TEXT),
            Column("age", INT, nullable=False),
        ],
        primary_key=["id"],
    )
    db.add_unique("person", ["email"])
    db.add_check(
        "person", "age_non_negative", expression=BinaryOp(">=", col("age"), lit(0))
    )
    db.create_index("person", ["age"], kind="sorted")
    db.create_table(
        "pet",
        [
            Column("pet_id", INT, nullable=False),
            Column("owner_id", INT),
            Column("kind", TEXT),
        ],
        primary_key=["pet_id"],
    )
    db.add_foreign_key("pet", ["owner_id"], "person", ["id"])
    return db


def person_rows(count: int = 50):
    return [
        {"id": i, "email": f"p{i}@x.io", "city": "cp" if i % 2 else "bal", "age": 20 + i}
        for i in range(count)
    ]


def assert_same_state(left: Database, right: Database, table: str) -> None:
    lt, rt = left.table(table), right.table(table)
    assert list(lt.rows_with_ids()) == list(rt.rows_with_ids())
    assert lt.row_count == rt.row_count
    assert set(lt.indexes()) == set(rt.indexes())
    for name, lindex in lt.indexes().items():
        rindex = rt.indexes()[name]
        assert len(lindex) == len(rindex)
        for _, row in lt.rows_with_ids():
            key = tuple(row[c] for c in lindex.columns)
            assert sorted(lindex.lookup(key)) == sorted(rindex.lookup(key))


class TestInsertManyParity:
    def test_final_state_matches_row_loop(self):
        looped, batched = build_db(), build_db()
        for row in person_rows():
            looped.insert("person", dict(row))
        batched.insert_many("person", person_rows())
        assert_same_state(looped, batched, "person")

    @pytest.mark.parametrize("width", (2, 4, 8))
    def test_final_state_matches_row_loop_across_widths(self, width):
        """Mixed TEXT/INT/FLOAT payloads, as wide as the bulk-load benchmark."""

        payload_types = (TEXT, INT, FLOAT)

        def make_db():
            columns = [Column("id", INT, nullable=False)]
            columns += [Column(f"p{i}", payload_types[i % 3]) for i in range(width - 1)]
            db = Database(f"load-{width}")
            db.create_table("t", columns, primary_key=["id"])
            return db

        def rows():
            values = (lambda i: f"v{i}", lambda i: i % 97, lambda i: float(i))
            return [
                {"id": i, **{f"p{p}": values[p % 3](i) for p in range(width - 1)}}
                for i in range(500)
            ]

        looped, batched = make_db(), make_db()
        for row in rows():
            looped.insert("t", row)
        batched.insert_many("t", rows())
        assert_same_state(looped, batched, "t")

    def test_snapshot_version_bumps_once_per_batch(self):
        db = build_db()
        table = db.table("person")
        before = table.version
        db.insert_many("person", person_rows(30))
        assert table.version == before + 1
        snapshot = table.column_data(["id", "age"])
        assert snapshot["id"] == list(range(30))
        assert snapshot["age"] == [20 + i for i in range(30)]

    def test_defaults_and_coercion_match_row_loop(self):
        looped, batched = build_db(), build_db()
        # float-typed ints coerce; missing nullable columns take defaults
        rows = [{"id": float(i), "email": f"e{i}", "age": 30} for i in range(5)]
        for row in rows:
            looped.insert("person", dict(row))
        batched.insert_many("person", [dict(row) for row in rows])
        assert_same_state(looped, batched, "person")
        assert all(row["city"] is None for row in batched.table("person").rows())
        assert all(isinstance(row["id"], int) for row in batched.table("person").rows())

    def test_fk_batch_against_existing_and_same_batch_owner_table(self):
        db = build_db()
        db.insert_many("person", person_rows(10))
        db.insert_many(
            "pet", [{"pet_id": i, "owner_id": i % 10, "kind": "cat"} for i in range(25)]
        )
        assert db.row_count("pet") == 25

    def test_unknown_column_rejected(self):
        db = build_db()
        with pytest.raises(TypeMismatchError):
            db.insert_many("person", [{"id": 1, "age": 3, "bogus": True}])
        assert db.row_count("person") == 0


VIOLATIONS = [
    pytest.param(
        [{"id": 0, "email": "dup@x.io", "age": 1}, {"id": 99, "email": "new@x.io", "age": 1}],
        PrimaryKeyViolation,
        0,
        id="pk-vs-existing",
    ),
    pytest.param(
        [{"id": 60, "email": "a@x.io", "age": 1}, {"id": 60, "email": "b@x.io", "age": 1}],
        PrimaryKeyViolation,
        1,
        id="pk-intra-batch",
    ),
    pytest.param(
        [{"id": 60, "email": "a@x.io", "age": 1}, {"id": None, "email": "b@x.io", "age": 1}],
        NotNullViolation,
        1,
        id="pk-null",
    ),
    pytest.param(
        [{"id": 60, "email": "z@x.io", "age": None}],
        NotNullViolation,
        0,
        id="not-null-column",
    ),
    pytest.param(
        [{"id": 60, "email": "p1@x.io", "age": 1}],
        UniqueViolation,
        0,
        id="unique-vs-existing",
    ),
    pytest.param(
        [{"id": 60, "email": "w@x.io", "age": 1}, {"id": 61, "email": "w@x.io", "age": 1}],
        UniqueViolation,
        1,
        id="unique-intra-batch",
    ),
    pytest.param(
        [{"id": 60, "email": "y@x.io", "age": 1}, {"id": 61, "email": "x@x.io", "age": -5}],
        CheckViolation,
        1,
        id="check-expression",
    ),
]


class TestConstraintViolations:
    @pytest.mark.parametrize("bad_rows, error, offending", VIOLATIONS)
    def test_same_error_type_with_offending_row(self, bad_rows, error, offending):
        reference, batched = build_db(), build_db()
        reference.insert_many("person", person_rows())
        batched.insert_many("person", person_rows())

        # Row-loop reference: the same error type must come out of insert().
        with pytest.raises(error):
            for row in bad_rows:
                reference.insert("person", dict(row))

        before_rows = list(batched.table("person").rows())
        before_version = batched.table("person").version
        with pytest.raises(error) as excinfo:
            batched.insert_many("person", [dict(row) for row in bad_rows])
        assert f"batch row {offending}" in str(excinfo.value)
        # Mid-batch failure: nothing was written, not even the valid prefix.
        assert list(batched.table("person").rows()) == before_rows
        assert batched.table("person").version == before_version

    def test_check_expression_is_single_source_of_truth(self):
        """With an expression present, both executors enforce the expression
        (a divergent predicate is ignored), so row and batch paths agree."""

        db = Database("check-both")
        db.create_table("n", [Column("a", INT)])
        db.add_check(
            "n",
            "positive",
            predicate=lambda row: True,  # deliberately inconsistent
            expression=BinaryOp(">", col("a"), lit(0)),
        )
        with pytest.raises(CheckViolation):
            db.insert("n", {"a": -1})
        with pytest.raises(CheckViolation):
            db.insert_many("n", [{"a": 5}, {"a": -1}])
        assert db.row_count("n") == 0

    def test_fk_violation_identifies_row_and_leaves_table_unchanged(self):
        db = build_db()
        db.insert_many("person", person_rows(5))
        with pytest.raises(ForeignKeyViolation) as excinfo:
            db.insert_many(
                "pet",
                [
                    {"pet_id": 1, "owner_id": 4, "kind": "dog"},
                    {"pet_id": 2, "owner_id": 999, "kind": "cat"},
                ],
            )
        assert "batch row 1" in str(excinfo.value)
        assert db.row_count("pet") == 0
        assert len(db.table("pet").index_on(("pet_id",))) == 0


class TestAtomicity:
    def test_batch_is_one_undo_record(self):
        db = build_db()
        with db.transaction():
            db.insert_many("person", person_rows(40))
            assert len(db.transactions.current) == 1

    def test_rollback_restores_pre_batch_state(self):
        db = build_db()
        db.insert_many("person", person_rows(10))
        table = db.table("person")
        rows_before = list(table.rows())
        try:
            with db.transaction():
                db.insert_many(
                    "person",
                    [{"id": 100 + i, "email": f"t{i}@x.io", "age": 9} for i in range(20)],
                )
                assert db.row_count("person") == 30
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert list(table.rows()) == rows_before
        assert table.index_on(("id",)).lookup((105,)) == []


class TestStatisticsFreshness:
    def test_stats_track_bulk_inserts_without_explicit_invalidation(self):
        db = build_db()
        db.insert_many("person", person_rows(25))
        table = db.table("person")
        assert db.statistics.stats_for(table).row_count == 25
        # direct table mutation (no Database-level invalidate call)
        table.insert_batch([{"id": 999, "email": "q@x.io", "city": None, "age": 1}])
        assert db.statistics.stats_for(table).row_count == 26

    def test_stats_fresh_after_rollback(self):
        db = build_db()
        db.insert_many("person", person_rows(10))
        assert db.statistics.stats_for(db.table("person")).row_count == 10
        try:
            with db.transaction():
                db.insert_many(
                    "person",
                    [{"id": 50 + i, "email": f"r{i}@x.io", "age": 2} for i in range(5)],
                )
                assert db.statistics.stats_for(db.table("person")).row_count == 15
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert db.statistics.stats_for(db.table("person")).row_count == 10


class TestCostBasedExecutorChoice:
    def test_default_executor_is_auto(self):
        assert Database("x").executor == "auto"

    def test_point_lookup_runs_row_mode(self):
        db = build_db()
        db.insert_many("person", person_rows(50))
        plan = IndexLookup("person", ("id",), [(7,)])
        assert db.choose_executor(plan) == "row"

    def test_large_scan_runs_batch_mode(self):
        db = build_db()
        db.insert_many("person", person_rows(500))
        assert db.choose_executor(SeqScan("person")) == "batch"

    def test_choice_follows_table_growth(self):
        db = build_db()
        db.insert_many("person", person_rows(10))
        assert db.choose_executor(SeqScan("person")) == "row"
        db.insert_many(
            "person",
            [{"id": 1000 + i, "email": f"g{i}@x.io", "age": 1} for i in range(1000)],
        )
        # stats are version-keyed: no explicit refresh needed for the switch
        assert db.choose_executor(SeqScan("person")) == "batch"

    def test_auto_matches_forced_executors(self):
        db = build_db()
        db.insert_many("person", person_rows(200))
        plan = SeqScan("person")
        auto = db.execute(plan).sorted_tuples()
        assert db.execute(plan, executor="row").sorted_tuples() == auto
        assert db.execute(plan, executor="batch").sorted_tuples() == auto


class TestSystemLevelBatching:
    def _build_system(self):
        from repro.workloads.university import (
            build_university_schema,
            generate_university_data,
        )
        from repro import ErbiumDB

        schema = build_university_schema()
        data = generate_university_data(students=15, instructors=3, courses=4, seed=11)
        system = ErbiumDB("batch-sys", schema)
        system.set_mapping()
        return system, data

    def test_load_matches_per_instance_inserts(self):
        batched_system, data = self._build_system()
        batched_system.load(data.entities, data.relationships)

        looped_system, data2 = self._build_system()
        for instance in data2.entities:
            looped_system.crud.insert_entity(instance)
        for instance in data2.relationships:
            looped_system.crud.insert_relationship(instance)

        for name in looped_system.db.catalog.table_names():
            left = looped_system.db.table(name)
            right = batched_system.db.table(name)
            key = lambda r: sorted((k, repr(v)) for k, v in r.items())
            assert sorted(map(key, left.rows())) == sorted(map(key, right.rows())), name

    def test_insert_many_entities(self):
        system, data = self._build_system()
        system.load(data.entities, data.relationships)
        count = system.count("student")
        added = system.insert_many(
            "student",
            [
                {
                    "person_id": 900 + i,
                    "name": {"firstname": f"new-{i}", "lastname": "batch"},
                    "street": "1 main st",
                    "city": "cp",
                    "phone_numbers": [f"555-{i:04d}"],
                    "tot_credits": 0,
                }
                for i in range(10)
            ],
        )
        assert added == 10
        assert system.count("student") == count + 10
