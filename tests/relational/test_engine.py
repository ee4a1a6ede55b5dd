"""Tests for tables, indexes, constraints, DML, transactions and operators."""

import pytest

from repro.errors import (
    CatalogError,
    ForeignKeyViolation,
    NotNullViolation,
    PrimaryKeyViolation,
    TransactionError,
    UniqueViolation,
    CheckViolation,
)
from repro.relational import Column, Database, INT, TEXT, array_of
from repro.relational.expressions import BinaryOp, col, eq, lit
from repro.relational.indexes import HashIndex, IndexDefinition, SortedIndex, create_index
from repro.relational.operators import (
    AggregateSpec,
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    IndexLookup,
    IndexNestedLoopJoin,
    Limit,
    Materialize,
    NestedLoopJoin,
    Project,
    Rename,
    SeqScan,
    Sort,
    Union,
    Unnest,
    ValuesScan,
)
from repro.relational.statistics import analyze_table


def build_people_db() -> Database:
    db = Database("people")
    db.create_table(
        "person",
        [
            Column("id", INT, nullable=False),
            Column("name", TEXT),
            Column("city", TEXT),
            Column("age", INT),
        ],
        primary_key=["id"],
    )
    db.create_table(
        "pet",
        [Column("pet_id", INT, nullable=False), Column("owner_id", INT), Column("kind", TEXT)],
        primary_key=["pet_id"],
    )
    db.add_foreign_key("pet", ["owner_id"], "person", ["id"], on_delete="cascade")
    for i in range(10):
        db.insert("person", {"id": i, "name": f"p{i}", "city": "cp" if i % 2 else "bal", "age": 20 + i})
    for i in range(5):
        db.insert("pet", {"pet_id": i, "owner_id": i, "kind": "cat" if i % 2 else "dog"})
    return db


class TestIndexes:
    def test_hash_index_lookup_and_delete(self):
        index = HashIndex(IndexDefinition("i", "t", ("a",)))
        index.insert(0, {"a": 1})
        index.insert(1, {"a": 1})
        index.insert(2, {"a": 2})
        assert sorted(index.lookup((1,))) == [0, 1]
        index.delete(0, {"a": 1})
        assert index.lookup((1,)) == [1]
        assert len(index) == 2
        index.delete(1, {"a": 1})
        assert index.lookup((1,)) == [] and len(index) == 1
        # postings stay in slot order whatever order the slots arrive in
        index.insert_key_batch(5, [3, 3, 2])
        for row_id in (4, 1, 3):  # an undo re-insert lands below the tail
            index.insert(row_id, {"a": 3})
        assert index.lookup((3,)) == [1, 3, 4, 5, 6]
        assert index.lookup((2,)) == [2, 7]
        assert len(index) == 7

    def test_sorted_index_range(self):
        index = SortedIndex(IndexDefinition("i", "t", ("a",), kind="sorted"))
        for row_id, value in enumerate([5, 1, 3, 9, 7]):
            index.insert(row_id, {"a": value})
        assert index.range(low=(3,), high=(7,)) == [2, 0, 4]
        index.delete(0, {"a": 5})
        assert 0 not in index.range(low=(1,), high=(9,))

    def test_sorted_index_finds_a_row_reinserted_at_its_deleted_slot(self):
        index = SortedIndex(IndexDefinition("i", "t", ("a",), kind="sorted"))
        for row_id in range(10):
            index.insert(row_id, {"a": row_id})
        index.delete(3, {"a": 3})
        assert index.lookup((3,)) == [] and len(index) == 9
        index.insert(3, {"a": 3})
        assert index.lookup((3,)) == [3] and len(index) == 10

    def test_rolled_back_delete_is_visible_to_a_sorted_index_again(self):
        db = Database()
        db.create_table("t", [Column("a", INT), Column("b", INT)])
        db.create_index("t", ["a"], name="t_a_sorted", kind="sorted")
        db.insert_many("t", [{"a": i, "b": i} for i in range(10)])
        index = db.table("t").indexes()["t_a_sorted"]
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.delete_ids("t", index.lookup((3,)))
                assert index.lookup((3,)) == []
                raise RuntimeError("roll the delete back")
        assert index.lookup((3,)) == [3]
        assert index.range(low=(2,), high=(4,)) == [2, 3, 4]

    def test_create_index_factory(self):
        assert isinstance(create_index(IndexDefinition("i", "t", ("a",), kind="hash")), HashIndex)
        assert isinstance(create_index(IndexDefinition("i", "t", ("a",), kind="sorted")), SortedIndex)
        with pytest.raises(ValueError):
            create_index(IndexDefinition("i", "t", ("a",), kind="btree"))


class TestDDLAndCatalog:
    def test_create_and_drop_table(self):
        db = Database()
        db.create_table("t", [Column("a", INT)])
        assert db.has_table("t")
        with pytest.raises(CatalogError):
            db.create_table("t", [Column("a", INT)])
        db.drop_table("t")
        assert not db.has_table("t")
        with pytest.raises(CatalogError):
            db.table("t")

    def test_secondary_index_speeds_lookup_path(self):
        db = build_people_db()
        db.create_index("person", ["city"])
        table = db.table("person")
        assert table.index_on(("city",)) is not None
        assert len(table.lookup(("city",), ("bal",))) == 5

    def test_describe_contains_tables(self):
        db = build_people_db()
        description = db.describe()
        assert set(description) == {"person", "pet"}
        assert description["person"]["row_count"] == 10

    def test_metadata_roundtrip(self):
        db = Database()
        db.catalog.put_metadata("mapping", {"name": "M1", "tables": ["a"]})
        assert db.catalog.get_metadata("mapping")["name"] == "M1"
        assert db.catalog.get_metadata("missing", default=1) == 1
        db.catalog.delete_metadata("mapping")
        assert db.catalog.get_metadata("mapping") is None


class TestConstraintsAndDML:
    def test_primary_key_enforced(self):
        db = build_people_db()
        with pytest.raises(PrimaryKeyViolation):
            db.insert("person", {"id": 3, "name": "dup"})

    def test_not_null_enforced(self):
        db = build_people_db()
        with pytest.raises(NotNullViolation):
            db.insert("person", {"id": None, "name": "x"})

    def test_unique_constraint(self):
        db = build_people_db()
        db.add_unique("person", ["name"])
        with pytest.raises(UniqueViolation):
            db.insert("person", {"id": 100, "name": "p1"})
        db.insert("person", {"id": 101, "name": None})  # NULLs exempt

    def test_check_constraint(self):
        db = build_people_db()
        db.add_check("person", "age_positive", lambda row: (row.get("age") or 0) >= 0)
        with pytest.raises(CheckViolation):
            db.insert("person", {"id": 200, "age": -5})

    def test_foreign_key_insert_enforced(self):
        db = build_people_db()
        with pytest.raises(ForeignKeyViolation):
            db.insert("pet", {"pet_id": 99, "owner_id": 999, "kind": "dog"})

    def test_foreign_key_cascade_delete(self):
        db = build_people_db()
        assert db.row_count("pet") == 5
        db.delete("person", lambda r: r["id"] == 0)
        assert db.row_count("pet") == 4

    def test_foreign_key_restrict(self):
        db = Database()
        db.create_table("a", [Column("id", INT, nullable=False)], primary_key=["id"])
        db.create_table("b", [Column("id", INT, nullable=False), Column("a_id", INT)], primary_key=["id"])
        db.add_foreign_key("b", ["a_id"], "a", ["id"], on_delete="restrict")
        db.insert("a", {"id": 1})
        db.insert("b", {"id": 1, "a_id": 1})
        with pytest.raises(ForeignKeyViolation):
            db.delete("a", lambda r: r["id"] == 1)

    def test_foreign_key_set_null(self):
        db = Database()
        db.create_table("a", [Column("id", INT, nullable=False)], primary_key=["id"])
        db.create_table("b", [Column("id", INT, nullable=False), Column("a_id", INT)], primary_key=["id"])
        db.add_foreign_key("b", ["a_id"], "a", ["id"], on_delete="set_null")
        db.insert("a", {"id": 1})
        db.insert("b", {"id": 1, "a_id": 1})
        db.delete("a", lambda r: r["id"] == 1)
        assert db.table("b").lookup(("id",), (1,))[0]["a_id"] is None

    def test_update_checks_constraints(self):
        db = build_people_db()
        with pytest.raises(PrimaryKeyViolation):
            db.update("person", lambda r: r["id"] == 1, {"id": 2})
        db.update("person", lambda r: r["id"] == 1, {"city": "dc"})
        assert db.table("person").lookup(("id",), (1,))[0]["city"] == "dc"

    def test_delete_returns_count_and_updates_indexes(self):
        db = build_people_db()
        removed = db.delete("person", lambda r: r["city"] == "bal" and not db.table("pet").lookup(("owner_id",), (r["id"],)))
        assert removed >= 1
        assert db.row_count("person") == 10 - removed


class TestTransactions:
    def test_commit_keeps_changes(self):
        db = build_people_db()
        with db.transaction():
            db.insert("person", {"id": 50, "name": "new"})
        assert db.table("person").lookup(("id",), (50,))

    def test_rollback_on_error_restores_all_tables(self):
        db = build_people_db()
        before_people = db.row_count("person")
        before_pets = db.row_count("pet")
        with pytest.raises(PrimaryKeyViolation):
            with db.transaction():
                db.insert("person", {"id": 60, "name": "a"})
                db.insert("pet", {"pet_id": 60, "owner_id": 60, "kind": "cat"})
                db.insert("person", {"id": 60, "name": "dup"})
        assert db.row_count("person") == before_people
        assert db.row_count("pet") == before_pets

    def test_rollback_restores_updates_and_deletes(self):
        db = build_people_db()
        original = dict(db.table("person").lookup(("id",), (2,))[0])
        try:
            with db.transaction():
                db.update("person", lambda r: r["id"] == 2, {"city": "changed"})
                db.delete("person", lambda r: r["id"] == 9)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert db.table("person").lookup(("id",), (2,))[0] == original
        assert db.table("person").lookup(("id",), (9,))

    def test_nested_transactions_rejected(self):
        db = build_people_db()
        with db.transaction():
            with pytest.raises(TransactionError):
                db.transactions.begin()

    def test_commit_without_begin_rejected(self):
        db = build_people_db()
        with pytest.raises(TransactionError):
            db.transactions.commit()


class TestOperators:
    def test_seqscan_with_alias_and_predicate(self):
        db = build_people_db()
        plan = SeqScan("person", alias="p", predicate=eq(col("p.city"), lit("bal")))
        rows = db.execute(plan).rows
        assert len(rows) == 5 and all(r["p.city"] == "bal" for r in rows)

    def test_seqscan_projection(self):
        db = build_people_db()
        plan = SeqScan("person", projection={"id": "pid", "city": "where"})
        rows = db.execute(plan).rows
        assert set(rows[0]) == {"pid", "where"}

    def test_index_lookup_multiple_keys(self):
        db = build_people_db()
        plan = IndexLookup("person", ("id",), [(1,), (2,), (99,)])
        assert len(db.execute(plan)) == 2

    def test_filter_project_rename(self):
        db = build_people_db()
        plan = Project(
            Rename(Filter(SeqScan("person"), BinaryOp(">", col("age"), lit(25))), {"name": "label"}),
            [("label", col("label")), ("age2", BinaryOp("*", col("age"), lit(2)))],
        )
        rows = db.execute(plan).rows
        assert all(set(r) == {"label", "age2"} for r in rows)
        assert all(r["age2"] > 50 for r in rows)

    def test_hash_join_inner_and_left(self):
        db = build_people_db()
        inner = HashJoin(SeqScan("person", alias="p"), SeqScan("pet", alias="q"), ["p.id"], ["q.owner_id"])
        assert len(db.execute(inner)) == 5
        left = HashJoin(
            SeqScan("person", alias="p"), SeqScan("pet", alias="q"), ["p.id"], ["q.owner_id"], join_type="left"
        )
        rows = db.execute(left).rows
        assert len(rows) == 10
        assert sum(1 for r in rows if r.get("q.pet_id") is None) == 5

    def test_nested_loop_join(self):
        db = build_people_db()
        plan = NestedLoopJoin(
            SeqScan("person", alias="a"),
            SeqScan("person", alias="b"),
            predicate=BinaryOp("<", col("a.id"), col("b.id")),
        )
        assert len(db.execute(plan)) == 45

    def test_index_nested_loop_join(self):
        db = build_people_db()
        plan = IndexNestedLoopJoin(
            outer=SeqScan("pet", alias="q"),
            inner_table="person",
            outer_keys=["q.owner_id"],
            inner_columns=("id",),
            inner_alias="p",
        )
        rows = db.execute(plan).rows
        assert len(rows) == 5 and all("p.name" in r for r in rows)

    def test_aggregate_global_and_grouped(self):
        db = build_people_db()
        total = HashAggregate(SeqScan("person"), [], [AggregateSpec("count_star", None, "n")])
        assert db.execute(total).scalar() == 10
        grouped = HashAggregate(
            SeqScan("person"),
            [("city", col("city"))],
            [
                AggregateSpec("count_star", None, "n"),
                AggregateSpec("avg", col("age"), "avg_age"),
                AggregateSpec("max", col("age"), "max_age"),
                AggregateSpec("array_agg", col("id"), "ids"),
            ],
        )
        rows = {r["city"]: r for r in db.execute(grouped).rows}
        assert rows["bal"]["n"] == 5 and len(rows["bal"]["ids"]) == 5
        assert rows["cp"]["max_age"] == 29

    def test_aggregate_empty_input_global(self):
        db = build_people_db()
        plan = HashAggregate(
            Filter(SeqScan("person"), eq(col("id"), lit(-1))),
            [],
            [AggregateSpec("count_star", None, "n"), AggregateSpec("sum", col("age"), "s")],
        )
        row = db.execute(plan).rows[0]
        assert row == {"n": 0, "s": None}

    def test_aggregate_distinct(self):
        db = build_people_db()
        plan = HashAggregate(
            SeqScan("person"), [], [AggregateSpec("count", col("city"), "n", distinct=True)]
        )
        assert db.execute(plan).scalar() == 2

    def test_unnest_expand_and_keep_empty(self):
        db = Database()
        db.create_table("t", [Column("id", INT), Column("xs", array_of(INT))])
        db.insert("t", {"id": 1, "xs": [10, 20]})
        db.insert("t", {"id": 2, "xs": []})
        plan = Unnest(SeqScan("t"), "xs", "x")
        assert [r["x"] for r in db.execute(plan).rows] == [10, 20]
        keep = Unnest(SeqScan("t"), "xs", "x", keep_empty=True)
        assert len(db.execute(keep)) == 3

    def test_union_pads_missing_columns(self):
        db = build_people_db()
        plan = Union([
            Project(SeqScan("person"), [("id", col("id")), ("name", col("name"))]),
            Project(SeqScan("pet"), [("id", col("pet_id"))]),
        ])
        rows = db.execute(plan).rows
        assert len(rows) == 15
        assert all("name" in r for r in rows)

    def test_sort_limit_distinct_materialize_values(self):
        db = build_people_db()
        plan = Limit(Sort(SeqScan("person"), [("age", False)]), 3)
        ages = [r["age"] for r in db.execute(plan).rows]
        assert ages == [29, 28, 27]
        distinct = Distinct(Project(SeqScan("person"), [("city", col("city"))]))
        assert len(db.execute(distinct)) == 2
        materialized = Materialize(SeqScan("person"))
        assert len(db.execute(materialized)) == len(db.execute(materialized)) == 10
        values = ValuesScan([{"a": 1}, {"a": 2}])
        assert len(db.execute(values)) == 2

    def test_explain_and_cost_estimates(self):
        db = build_people_db()
        plan = HashJoin(SeqScan("person", alias="p"), SeqScan("pet", alias="q"), ["p.id"], ["q.owner_id"])
        text = db.explain(plan)
        assert "HashJoin" in text and "SeqScan" in text and "cost=" in text
        estimate = db.estimate(plan)
        assert estimate.cost > 0 and estimate.rows > 0
        assert plan.node_count() == 3

    def test_statistics(self):
        db = build_people_db()
        stats = analyze_table(db.table("person"))
        assert stats.row_count == 10
        assert stats.column("city").distinct_count == 2
        assert stats.column("age").min_value == 20
        assert stats.column("id").selectivity_equals(10) == pytest.approx(0.1)
