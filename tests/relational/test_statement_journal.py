"""The journal one DML statement leaves behind: undo records and WAL batches.

``delete`` / ``delete_ids`` / ``update`` / ``update_row`` share one statement
body; whichever way the rows were located, a statement records exactly one
undo record carrying the batched redo payload — also when it fails half way.
"""

from types import SimpleNamespace

import pytest

from repro.errors import ForeignKeyViolation
from repro.relational import Column, Database, INT


class _RedoOnly:
    """Just enough of a durability manager for the engine to build redo
    records; the tests roll back, so no commit is ever logged."""

    health = SimpleNamespace(read_only=False, reason=None)

    def log_abort(self) -> None:
        pass


def build_db() -> Database:
    db = Database("journal")
    db.create_table(
        "parent", [Column("id", INT, nullable=False), Column("v", INT)], primary_key=["id"]
    )
    db.create_table(
        "child",
        [Column("id", INT, nullable=False), Column("parent_id", INT)],
        primary_key=["id"],
    )
    db.add_foreign_key("child", ["parent_id"], "parent", ["id"], on_delete="restrict")
    for i in range(1, 5):
        db.insert("parent", {"id": i, "v": 10 * i})
    db.insert("child", {"id": 1, "parent_id": 3})
    db.durability = _RedoOnly()
    return db


def _ids(db: Database, keys):
    table = db.table("parent")
    return [table.lookup_ids(("id",), (key,))[0] for key in keys]


DELETES = {
    "delete_ids": lambda db: db.delete_ids("parent", _ids(db, [1, 2, 3, 4])),
    "delete_predicate": lambda db: db.delete("parent", lambda row: True),
}


@pytest.mark.parametrize("statement", DELETES.values(), ids=DELETES.keys())
def test_restrict_failure_on_third_victim_journals_the_first_two(statement):
    db = build_db()
    first, second = _ids(db, [1, 2])
    before = sorted(db.table("parent").rows(), key=lambda row: row["id"])
    db.transactions.begin()
    try:
        with pytest.raises(ForeignKeyViolation):
            statement(db)
        assert db.row_count("parent") == 2  # rows 1 and 2 are gone, 3 and 4 untouched
        (record,) = db.transactions.current._undo
        assert record.redo == (
            {"t": "delete_batch", "table": "parent", "row_ids": [first, second]},
        )
    finally:
        db.transactions.rollback()
    assert sorted(db.table("parent").rows(), key=lambda row: row["id"]) == before


@pytest.mark.parametrize(
    "statement, count",
    [
        (lambda db: db.delete_ids("parent", _ids(db, [1, 2])), 2),
        (lambda db: db.delete("parent", lambda row: row["id"] <= 2), 2),
    ],
    ids=["delete_ids", "delete_predicate"],
)
def test_delete_is_one_undo_record_and_one_batch(statement, count):
    db = build_db()
    victims = _ids(db, [1, 2])
    db.transactions.begin()
    assert statement(db) == count
    (record,) = db.transactions.current._undo
    assert record.redo == ({"t": "delete_batch", "table": "parent", "row_ids": victims},)
    db.transactions.rollback()
    assert db.row_count("parent") == 4


def test_update_and_update_row_leave_the_same_journal():
    journals = []
    for statement in (
        lambda db: db.update("parent", lambda row: row["id"] == 2, {"v": 0}),
        lambda db: db.update_row("parent", _ids(db, [2])[0], {"v": 0}),
    ):
        db = build_db()
        db.transactions.begin()
        statement(db)
        (record,) = db.transactions.current._undo
        journals.append(record.redo)
        db.transactions.rollback()
        assert db.table("parent").lookup(("id",), (2,))[0]["v"] == 20
    assert journals[0] == journals[1]
    assert journals[0] == (
        {"t": "update_batch", "table": "parent", "row_ids": _ids(db, [2]), "changes": [{"v": 0}]},
    )


def test_delete_ids_skips_rows_that_are_no_longer_live():
    db = build_db()
    db.durability = None  # autocommit statements would log
    first, second = _ids(db, [1, 2])
    assert db.delete_ids("parent", [first]) == 1
    assert db.delete_ids("parent", [first, second]) == 1
    assert db.row_count("parent") == 2
