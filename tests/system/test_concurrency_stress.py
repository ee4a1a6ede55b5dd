"""System-level concurrency: snapshot sessions under a live writer.

The acceptance properties of the MVCC layer, exercised through the public
surface (``ErbiumDB.session(isolation="snapshot")``, the REST service):

* **no torn reads** — N reader threads fetchall'ing prepared queries while a
  writer commits batches only ever observe whole transactions (counts stay
  congruent to the batch size, and never regress per reader);
* **repeatable reads** — an explicit snapshot transaction sees one commit
  point across statements *and* across tables, even as the writer keeps
  committing between its statements;
* **read-your-writes + first-committer-wins** — a snapshot transaction that
  writes sees its own writes, and loses cleanly (HTTP-mapped
  ``SerializationError``) when it raced a committed overlapping write;
* **idempotent close** — ``ErbiumDB.close()`` is a harmless no-op on
  never-durable instances and on double close.
"""

import threading

import pytest

from repro import ErbiumDB
from repro.api import ApiService
from repro.errors import SerializationError, TransactionError

BATCH = 50
BATCHES = 30
READERS = 4


def build_system(rows=500):
    system = ErbiumDB("stress")
    system.execute_ddl(
        "create entity person (id int primary key, name varchar, age int);"
        "create entity audit (seq int primary key, note varchar);"
    )
    system.set_mapping()
    system.insert_many(
        "person", [{"id": i, "name": f"n{i}", "age": 20 + i % 50} for i in range(rows)]
    )
    return system


class TestNoTornReads:
    def test_readers_only_see_whole_committed_batches(self):
        system = build_system()
        base = 500
        done = threading.Event()
        errors = []

        def writer():
            try:
                n = 10_000
                for _ in range(BATCHES):
                    with system.session() as s:
                        s.insert_many(
                            "person",
                            [
                                {"id": n + i, "name": "w", "age": 1}
                                for i in range(BATCH)
                            ],
                        )
                    n += BATCH
            finally:
                done.set()

        def reader():
            session = system.session(isolation="snapshot")
            statement = session.prepare("select count(id) from person p")
            last = 0
            while not done.is_set():
                rows = statement.execute().fetchall()
                count = rows[0]["count(id)"] if "count(id)" in rows[0] else list(rows[0].values())[0]
                if (count - base) % BATCH != 0:
                    errors.append(("torn", count))
                if count < last:
                    errors.append(("regressed", count, last))
                last = count

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader) for _ in range(READERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert system.count("person") == base + BATCHES * BATCH
        # every statement view has been released
        assert system.db.snapshots.retained() == []

    def test_multi_table_invariant_holds_within_snapshot_transaction(self):
        """Writer keeps count(person added) == count(audit); a snapshot
        transaction must observe the invariant across two statements even
        when commits land between them."""

        system = build_system()
        done = threading.Event()
        errors = []

        def writer():
            try:
                for seq in range(BATCHES):
                    with system.session() as s:
                        s.insert("person", {"id": 50_000 + seq, "name": "w", "age": 1})
                        s.insert("audit", {"seq": seq, "note": "w"})
            finally:
                done.set()

        def reader():
            session = system.session(isolation="snapshot")
            while not done.is_set():
                session.begin()
                people = session.query(
                    "select count(id) from person p where age = $a", params={"a": 1}
                ).scalar()
                audits = session.query("select count(seq) from audit a").scalar()
                session.commit()
                if people != audits:
                    errors.append((people, audits))

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader) for _ in range(READERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


class TestSnapshotSessions:
    def test_repeatable_reads_until_commit(self):
        system = build_system(rows=10)
        session = system.session(isolation="snapshot")
        session.begin()
        before = session.query("select count(id) from person p").scalar()
        system.insert("person", {"id": 999, "name": "late", "age": 2})
        assert session.query("select count(id) from person p").scalar() == before
        assert session.get("person", 999) is None
        session.commit()
        assert session.query("select count(id) from person p").scalar() == before + 1

    def test_statement_level_views_advance_between_statements(self):
        system = build_system(rows=10)
        session = system.session(isolation="snapshot")  # no explicit begin
        before = session.query("select count(id) from person p").scalar()
        system.insert("person", {"id": 999, "name": "late", "age": 2})
        assert session.query("select count(id) from person p").scalar() == before + 1

    def test_snapshot_transaction_reads_its_own_writes(self):
        system = build_system(rows=10)
        with system.session(isolation="snapshot") as session:
            session.insert("person", {"id": 777, "name": "mine", "age": 30})
            assert session.get("person", 777) is not None
            assert (
                session.query(
                    "select name from person p where id = $k", params={"k": 777}
                ).fetchone()["name"]
                == "mine"
            )
        assert system.get("person", 777) is not None

    def test_first_committer_wins_through_sessions(self):
        system = build_system(rows=10)
        loser = system.session(isolation="snapshot")
        loser.begin()
        loser.query("select count(id) from person p").fetchall()
        system.update("person", 3, {"age": 99})  # the race winner commits
        with pytest.raises(SerializationError):
            loser.update("person", 3, {"age": 1})
        loser.rollback()
        assert system.get("person", 3)["age"] == 99
        # the loser can retry against fresh state and succeed
        retry = system.session(isolation="snapshot")
        retry.begin()
        retry.update("person", 3, {"age": 42})
        retry.commit()
        assert system.get("person", 3)["age"] == 42

    def test_read_only_snapshot_transaction_never_takes_writer_lock(self):
        system = build_system(rows=10)
        reader = system.session(isolation="snapshot")
        reader.begin()
        reader.query("select count(id) from person p").fetchall()
        acquired = system.db.write_lock.acquire(timeout=1)
        assert acquired  # lock free: the reader holds only its view
        system.db.write_lock.release()
        reader.commit()

    def test_rollback_of_read_only_snapshot_txn_releases_view(self):
        system = build_system(rows=10)
        session = system.session(isolation="snapshot")
        session.begin()
        session.query("select count(id) from person p").fetchall()
        system.insert("person", {"id": 998, "name": "x", "age": 2})
        session.rollback()
        assert system.db.snapshots.retained() == []
        with pytest.raises(TransactionError):
            session.rollback()

    def test_session_close_releases_cached_statement_views(self):
        system = build_system(rows=10)
        session = system.session(isolation="snapshot")
        session.query("select count(id) from person p").fetchall()
        system.insert("person", {"id": 900, "name": "w", "age": 1})
        # the cached view now pins a superseded snapshot
        assert system.db.snapshots.retained() != []
        session.close()
        session.close()  # idempotent
        assert system.db.snapshots.retained() == []
        # session stays usable: the next read re-pins
        assert session.query("select count(id) from person p").scalar() == 11

    def test_mvcc_activation_refuses_own_open_transaction(self):
        from repro.errors import TransactionError as TxnError

        system = build_system(rows=2)
        writer = system.session()
        writer.begin()
        writer.insert("person", {"id": 901, "name": "w", "age": 1})
        with pytest.raises(TxnError):
            system.session(isolation="snapshot")  # would see uncommitted rows
        writer.rollback()
        # after the transaction, activation works and sees only committed data
        session = system.session(isolation="snapshot")
        assert session.query("select count(id) from person p").scalar() == 2

    def test_api_related_without_mapping_is_an_error_response(self):
        system = ErbiumDB("unmapped")
        system.execute_ddl(
            "create entity person (id int primary key, name varchar);"
            "create entity course (id int primary key, title varchar);"
            "create relationship takes between person (many) and course (many);"
        )
        service = ApiService(system)
        response = service.get("/entities/person/1/related/takes")
        assert response.status == 400  # handled error, not a crash

    def test_unknown_isolation_rejected(self):
        system = build_system(rows=1)
        with pytest.raises(ValueError):
            system.session(isolation="chaos")

    def test_explicit_read_view_context(self):
        system = build_system(rows=10)
        with system.read_view():
            a = system.query("select count(id) from person p").scalar()
            system_count_mid = None
            system.db  # no-op
            b = system.query("select count(id) from person p").scalar()
            assert a == b


class TestApiSerializationConflict:
    def test_classify_maps_serialization_error_to_409(self):
        assert ApiService._classify_error(SerializationError("race lost")) == (
            409,
            "serialization_conflict",
        )

    def test_api_reads_are_snapshot_consistent_and_parallel_safe(self):
        system = build_system(rows=20)
        service = ApiService(system)
        response = service.post(
            "/query",
            {"query": "select name from person p where id = $k", "params": {"k": 5}},
        )
        assert response.status == 200
        assert response.body["rows"] == [{"name": "n5"}]
        listing = service.get("/entities/person?limit=5")
        assert listing.status == 200
        assert len(listing.body["items"]) == 5

    def test_openapi_documents_serialization_conflict(self):
        system = build_system(rows=1)
        service = ApiService(system)
        document = service.get("/openapi").body
        error_schema = document["components"]["schemas"]["Error"]
        description = error_schema["properties"]["error"]["properties"]["code"][
            "description"
        ]
        assert "serialization_conflict" in description


class TestCloseIdempotence:
    def test_close_on_never_durable_instance_is_noop(self):
        system = build_system(rows=1)
        system.close()
        system.close()
        # still fully usable afterwards
        assert system.count("person") == 1

    def test_double_close_on_durable_instance(self, tmp_path):
        path = str(tmp_path / "db")
        system = ErbiumDB.open(path)
        system.execute_ddl("create entity person (id int primary key, name varchar);")
        system.set_mapping()
        system.insert("person", {"id": 1, "name": "a"})
        system.close()
        system.close()  # second close: harmless no-op
        reopened = ErbiumDB.open(path)
        assert reopened.get("person", 1)["name"] == "a"
        reopened.close(checkpoint=False)
        reopened.close()

    def test_close_without_checkpoint_then_close_again(self, tmp_path):
        path = str(tmp_path / "db")
        system = ErbiumDB.open(path)
        system.close(checkpoint=False)
        system.close()
