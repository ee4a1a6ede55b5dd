"""Engine-level MVCC units: snapshot registry, read views, conflict detection.

Covers the mechanics under ``Session(isolation="snapshot")``:

* registry refcounting — views pinned at one version share one snapshot;
  a superseded snapshot is retained exactly until its last view closes;
* read views answer from pinned data while the live table mutates, through
  the whole read surface both executors use (``column_data``, ``rows``,
  ``lookup``);
* open-transaction pins resolve to committed pre-images (no dirty reads);
* first-committer-wins conflict detection raises ``SerializationError`` on
  write-write overlap, and never against the transaction's own writes.
"""

import threading

import pytest

from repro.errors import SerializationError
from repro.relational import Column, Database, read_view_scope
from repro.relational.operators import SeqScan
from repro.relational.types import INT, TEXT


def build_db(rows=8):
    db = Database("mvcc-test")
    db.create_table(
        "person",
        [
            Column("id", INT, nullable=False),
            Column("name", TEXT),
            Column("age", INT),
        ],
        primary_key=["id"],
    )
    db.insert_many(
        "person", [{"id": i, "name": f"n{i}", "age": 20 + i} for i in range(rows)]
    )
    return db


def scan_ages(db):
    return sorted(r["age"] for r in db.execute(SeqScan("person")).rows)


class TestRegistryRetention:
    def test_views_at_same_version_share_one_snapshot(self):
        db = build_db()
        v1 = db.begin_read_view()
        v2 = db.begin_read_view()
        assert len(db.snapshots.retained()) == 1
        snap1 = v1.table("person")._snapshot
        snap2 = v2.table("person")._snapshot
        assert snap1 is snap2
        assert snap1.refs == 2
        v1.close()
        v2.close()
        assert db.snapshots.retained() == []

    def test_superseded_snapshot_retained_until_last_view_closes(self):
        db = build_db()
        view = db.begin_read_view()
        pinned_version = db.table("person").version
        db.insert("person", {"id": 100, "name": "late", "age": 1})
        assert ("person", pinned_version) in db.snapshots.retained()
        # a new view pins the *new* version; the old snapshot stays for `view`
        fresh = db.begin_read_view()
        assert view.table("person").row_count == 8
        assert fresh.table("person").row_count == 9
        view.close()
        assert ("person", pinned_version) not in db.snapshots.retained()
        fresh.close()
        assert db.snapshots.retained() == []

    def test_view_close_is_idempotent_and_reads_survive_close(self):
        db = build_db()
        view = db.begin_read_view()
        view.close()
        view.close()
        # the view keeps its references; only the registry pins are gone
        assert view.table("person").row_count == 8

    def test_watermarks_match_pinned_versions(self):
        db = build_db()
        view = db.begin_read_view()
        assert view.watermarks()["person"] == db.table("person").version
        view.close()


class TestReadViews:
    def test_view_is_frozen_while_live_table_mutates(self):
        db = build_db()
        view = db.begin_read_view()
        db.insert("person", {"id": 100, "name": "new", "age": 99})
        db.delete("person", lambda r: r["id"] == 0)
        with read_view_scope(view):
            assert sorted(r["age"] for r in db.execute(SeqScan("person")).rows) == [
                20, 21, 22, 23, 24, 25, 26, 27,
            ]
            # both executors resolve through the view
            assert len(db.execute(SeqScan("person"), executor="batch")) == 8
            assert len(db.execute(SeqScan("person"), executor="row")) == 8
        assert 99 in scan_ages(db)
        view.close()

    def test_view_lookup_and_column_data(self):
        db = build_db()
        view = db.begin_read_view()
        db.update("person", lambda r: r["id"] == 3, {"name": "changed"})
        tv = view.table("person")
        assert tv.lookup(("id",), (3,)) == [{"id": 3, "name": "n3", "age": 23}]
        assert tv.lookup(("id",), (12345,)) == []
        assert tv.lookup_ids(("name",), ("n5",)) == [5]
        data = tv.column_data(["name", "missing"])
        assert data["name"][3] == "n3"
        assert data["missing"] == [None] * 8
        view.close()

    def test_scope_nesting_restores_previous_binding(self):
        db = build_db()
        outer = db.begin_read_view()
        db.insert("person", {"id": 50, "name": "mid", "age": 1})
        inner = db.begin_read_view()
        with read_view_scope(outer):
            assert len(db.execute(SeqScan("person"))) == 8
            with read_view_scope(inner):
                assert len(db.execute(SeqScan("person"))) == 9
            with read_view_scope(None):  # explicit live reads
                assert len(db.execute(SeqScan("person"))) == 9
            assert len(db.execute(SeqScan("person"))) == 8
        outer.close()
        inner.close()

    def test_pin_during_open_transaction_sees_committed_preimage_only(self):
        db = build_db()
        db.begin_read_view().close()  # activate MVCC before the write begins
        with db.transaction():
            db.insert("person", {"id": 200, "name": "uncommitted", "age": 1})
            view = db.begin_read_view()
            assert view.table("person").row_count == 8  # not 9: no dirty reads
            view.close()
        after = db.begin_read_view()
        assert after.table("person").row_count == 9
        after.close()

    def test_rolled_back_transaction_never_visible_to_views(self):
        db = build_db()
        db.begin_read_view().close()
        try:
            with db.transaction():
                db.insert("person", {"id": 300, "name": "doomed", "age": 1})
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        view = db.begin_read_view()
        assert view.table("person").row_count == 8
        view.close()
        assert db.snapshots.retained() == []

    def test_new_table_after_pin_reads_empty(self):
        """A table born after the snapshot point did not exist in it — its
        (possibly uncommitted) live rows must not leak into the view."""

        db = build_db()
        view = db.begin_read_view()
        db.create_table("extra", [Column("k", INT)], primary_key=["k"])
        db.insert("extra", {"k": 1})
        with read_view_scope(view):
            assert len(db.execute(SeqScan("extra"))) == 0
            assert len(db.execute(SeqScan("extra"), executor="batch")) == 0
        view.close()
        assert len(db.execute(SeqScan("extra"))) == 1


class TestFirstCommitterWins:
    def _begin_snapshot_txn(self, db):
        view = db.begin_read_view()
        txn = db.transactions.begin(snapshot_watermarks=view.watermarks())
        view.close()
        return txn

    def test_update_of_row_committed_after_snapshot_conflicts(self):
        db = build_db()
        view = db.begin_read_view()
        watermarks = view.watermarks()
        view.close()
        # another transaction wins the race
        db.update("person", lambda r: r["id"] == 2, {"age": 99})
        db.transactions.begin(snapshot_watermarks=watermarks)
        with pytest.raises(SerializationError):
            db.update("person", lambda r: r["id"] == 2, {"age": 1})
        db.transactions.rollback()
        assert 99 in scan_ages(db)

    def test_delete_of_row_committed_after_snapshot_conflicts(self):
        db = build_db()
        view = db.begin_read_view()
        watermarks = view.watermarks()
        view.close()
        db.update("person", lambda r: r["id"] == 4, {"age": 77})
        db.transactions.begin(snapshot_watermarks=watermarks)
        with pytest.raises(SerializationError):
            db.delete("person", lambda r: r["id"] == 4)
        db.transactions.rollback()

    def test_non_overlapping_write_commits(self):
        db = build_db()
        txn = self._begin_snapshot_txn(db)
        db.update("person", lambda r: r["id"] == 6, {"age": 55})
        db.transactions.commit()
        assert 55 in scan_ages(db)

    def test_transaction_never_conflicts_with_its_own_writes(self):
        db = build_db()
        self._begin_snapshot_txn(db)
        db.insert("person", {"id": 400, "name": "mine", "age": 1})
        db.update("person", lambda r: r["id"] == 400, {"age": 2})
        db.update("person", lambda r: r["id"] == 400, {"age": 3})
        db.delete("person", lambda r: r["id"] == 400)
        db.transactions.commit()
        assert 400 not in [r["id"] for r in db.execute(SeqScan("person")).rows]

    def test_truncate_conflicts_with_post_snapshot_commits(self):
        db = build_db()
        view = db.begin_read_view()
        watermarks = view.watermarks()
        view.close()
        db.update("person", lambda r: r["id"] == 1, {"age": 88})  # race winner
        db.transactions.begin(snapshot_watermarks=watermarks)
        with pytest.raises(SerializationError):
            db.truncate("person")
        db.transactions.rollback()
        assert db.table("person").row_count == 8

    def test_plain_transactions_skip_conflict_checks(self):
        db = build_db()
        db.update("person", lambda r: r["id"] == 1, {"age": 91})
        with db.transaction():
            db.update("person", lambda r: r["id"] == 1, {"age": 92})
        assert 92 in scan_ages(db)


class TestWriterLockProtocol:
    def test_second_thread_begin_blocks_until_commit(self):
        db = build_db()
        db.transactions.begin()
        order = []

        def contender():
            db.transactions.begin()
            order.append("acquired")
            db.insert("person", {"id": 500, "name": "b", "age": 1})
            db.transactions.commit()

        thread = threading.Thread(target=contender)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive()  # blocked: single writer
        assert order == []
        db.transactions.commit()
        thread.join(timeout=5)
        assert order == ["acquired"]

    def test_cross_thread_scope_waits_instead_of_joining(self):
        """A joined transaction scope belongs to one thread: another
        thread's ``with db.transaction()`` must serialize behind the writer
        lock, never append to the foreign undo log."""

        db = build_db()
        db.transactions.begin()
        db.insert("person", {"id": 900, "name": "a", "age": 1})
        events = []

        def other_writer():
            with db.transaction():
                events.append("entered")
                db.insert("person", {"id": 901, "name": "b", "age": 1})

        thread = threading.Thread(target=other_writer)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive() and events == []  # waiting, not joined
        db.transactions.rollback()  # first writer aborts: 900 must vanish
        thread.join(timeout=5)
        assert events == ["entered"]
        ids = {r["id"] for r in db.execute(SeqScan("person")).rows}
        assert 900 not in ids and 901 in ids

    def test_ddl_serializes_with_reader_pins(self):
        db = build_db()
        db.begin_read_view().close()
        stop = threading.Event()
        failures = []

        def pinner():
            while not stop.is_set():
                try:
                    db.begin_read_view().close()
                except Exception as exc:  # pragma: no cover - the regression
                    failures.append(exc)
                    return

        thread = threading.Thread(target=pinner)
        thread.start()
        for i in range(50):
            db.create_table(f"ddl_{i}", [Column("k", INT)], primary_key=["k"])
        stop.set()
        thread.join(timeout=10)
        assert failures == []

    def test_same_thread_double_begin_still_raises(self):
        from repro.errors import TransactionError

        db = build_db()
        db.transactions.begin()
        with pytest.raises(TransactionError):
            db.transactions.begin()
        db.transactions.rollback()

    def test_reader_pin_does_not_block_on_open_transaction(self):
        db = build_db()
        db.begin_read_view().close()
        with db.transaction():
            db.insert("person", {"id": 600, "name": "open", "age": 1})
            result = {}

            def reader():
                view = db.begin_read_view()
                with read_view_scope(view):
                    result["rows"] = len(db.execute(SeqScan("person")))
                view.close()

            thread = threading.Thread(target=reader)
            thread.start()
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert result["rows"] == 8

    def test_readers_never_block_on_open_writer_transaction(self):
        """A snapshot session's reader completes while a writer transaction
        sits open — and sees only committed data."""

        from repro import ErbiumDB

        rows = 500
        system = ErbiumDB("open-writer")
        system.execute_ddl(
            "create entity person (id int primary key, name varchar, age int, city varchar);"
        )
        system.set_mapping()
        system.insert_many(
            "person",
            [
                {"id": i, "name": f"n{i}", "age": 20 + i % 50, "city": f"c{i % 20}"}
                for i in range(rows)
            ],
        )
        system.db.activate_mvcc()  # steady state: MVCC already in use
        writer_session = system.session()
        writer_session.begin()
        writer_session.insert_many(
            "person",
            [{"id": 20_000_000 + i, "name": "open", "age": 1, "city": "w"} for i in range(100)],
        )
        result = {}

        def reader():
            session = system.session(isolation="snapshot")
            result["count"] = session.query("select count(id) from person p").scalar()

        thread = threading.Thread(target=reader)
        thread.start()
        thread.join(timeout=10)
        alive = thread.is_alive()
        writer_session.rollback()
        assert not alive, "snapshot reader blocked behind an open writer transaction"
        assert result["count"] == rows  # the open transaction's rows are invisible


class TestThreadLocalExecutionState:
    def test_parameter_scopes_are_per_thread(self):
        from repro.relational.expressions import parameter_scope, resolve_parameter

        seen = {}

        def worker(value):
            with parameter_scope({"x": value}):
                seen[value] = resolve_parameter("x")

        with parameter_scope({"x": "main"}):
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert resolve_parameter("x") == "main"
        assert seen == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_materialize_cache_is_per_thread(self):
        from repro.relational.operators import Materialize

        db = build_db()
        plan = Materialize(SeqScan("person"))
        plan.reset_caches()
        first = list(plan.execute(db))
        assert len(first) == 8
        results = {}

        def other():
            plan.reset_caches()
            results["rows"] = list(plan.execute(db))

        db.insert("person", {"id": 700, "name": "x", "age": 1})
        thread = threading.Thread(target=other)
        thread.start()
        thread.join()
        # the other thread re-read current data; this thread's cache intact
        assert len(results["rows"]) == 9
        assert len(list(plan.execute(db))) == 8
