"""Unit tests for the durability subsystem's building blocks.

Covers WAL framing/scanning (checksums, torn tails, unterminated
transactions, abort markers), checkpoint-store serialization round-trips
(E/R schema, mapping spec), statement-level undo/WAL batching for
delete/update (one undo record per statement, one framed batch per run),
the plan-cache bounding satellite, and the ``POST /admin/checkpoint`` API.
"""

from __future__ import annotations

import os
import struct

import pytest

from repro import ErbiumDB
from repro.api import ApiService
from repro.core import Attribute, EntitySet, ERSchema
from repro.durability import DurabilityManager, scan_segments
from repro.durability.snapshot import (
    schema_from_dict,
    schema_to_dict,
    spec_from_dict,
    spec_to_dict,
)
from repro.durability.wal import WriteAheadLog, truncate_torn_tail
from repro.evolution import AddAttribute
from repro.relational import Column, Database, INT, TEXT
from repro.workloads.synthetic import build_synthetic_schema, synthetic_mappings
from repro.workloads.university import build_university_schema


# --------------------------------------------------------------------------
# WAL framing and scanning
# --------------------------------------------------------------------------


def test_wal_append_and_scan_roundtrip(tmp_path):
    wal = WriteAheadLog(str(tmp_path), fsync="off")
    wal.append_transaction([{"t": "insert_batch", "table": "t", "start": 0, "columns": {"a": [1]}}])
    wal.append_transaction(
        [
            {"t": "delete_batch", "table": "t", "row_ids": [0]},
            {"t": "update_batch", "table": "u", "row_ids": [3], "changes": [{"a": 2}]},
        ]
    )
    wal.close()
    scan = scan_segments(str(tmp_path))
    assert len(scan.transactions) == 2
    assert [r["t"] for r in scan.transactions[1]] == ["delete_batch", "update_batch"]
    # every record got a monotonically increasing LSN
    lsns = [r["lsn"] for txn in scan.transactions for r in txn]
    assert lsns == sorted(lsns) and len(set(lsns)) == len(lsns)
    assert not scan.torn


def test_wal_abort_marker_is_not_replayed(tmp_path):
    wal = WriteAheadLog(str(tmp_path), fsync="off")
    wal.append_transaction([{"t": "truncate", "table": "t"}])
    wal.append_abort("constraint violation")
    wal.close()
    scan = scan_segments(str(tmp_path))
    assert len(scan.transactions) == 1
    assert not scan.torn  # the abort marker is a valid log boundary


@pytest.mark.parametrize("cut", [1, 5, 9])
def test_wal_torn_tail_detected_and_truncated(tmp_path, cut):
    wal = WriteAheadLog(str(tmp_path), fsync="off")
    wal.append_transaction([{"t": "truncate", "table": "t"}])
    first_size = os.path.getsize(wal.segment_path)
    wal.append_transaction([{"t": "truncate", "table": "u"}])
    wal.close()
    path = os.path.join(str(tmp_path), os.listdir(str(tmp_path))[0])
    with open(path, "r+b") as handle:
        handle.truncate(first_size + cut)
    scan = scan_segments(str(tmp_path))
    assert len(scan.transactions) == 1  # second commit lost with the tail
    assert scan.torn and scan.valid_end == first_size
    assert truncate_torn_tail(scan)
    assert os.path.getsize(path) == first_size
    rescan = scan_segments(str(tmp_path))
    assert not rescan.torn and len(rescan.transactions) == 1


def test_wal_corrupt_frame_stops_scan_at_prefix(tmp_path):
    wal = WriteAheadLog(str(tmp_path), fsync="off")
    wal.append_transaction([{"t": "truncate", "table": "t"}])
    first_size = os.path.getsize(wal.segment_path)
    wal.append_transaction([{"t": "truncate", "table": "u"}])
    wal.close()
    path = wal.segment_path
    with open(path, "r+b") as handle:
        handle.seek(first_size + 12)  # inside the second transaction's frames
        byte = handle.read(1)
        handle.seek(first_size + 12)
        handle.write(bytes([byte[0] ^ 0xFF]))
    scan = scan_segments(str(tmp_path))
    assert len(scan.transactions) == 1
    assert scan.torn  # checksum failure == torn from recovery's point of view


def test_wal_unterminated_transaction_is_discarded(tmp_path):
    wal = WriteAheadLog(str(tmp_path), fsync="off")
    wal.append_transaction([{"t": "truncate", "table": "t"}])
    keep = os.path.getsize(wal.segment_path)
    wal.append_transaction([{"t": "truncate", "table": "u"}])
    wal.close()
    # cut exactly between the second txn's last mutation frame and its commit
    # frame: every frame before the cut is valid, but the commit is gone
    with open(wal.segment_path, "rb") as handle:
        data = handle.read()
    offset = keep
    frames = []
    while offset < len(data):
        length, _ = struct.unpack_from("<II", data, offset)
        frames.append((offset, offset + 8 + length))
        offset += 8 + length
    cut_at = frames[-1][0]  # drop only the commit frame
    with open(wal.segment_path, "r+b") as handle:
        handle.truncate(cut_at)
    scan = scan_segments(str(tmp_path))
    assert len(scan.transactions) == 1
    assert scan.torn and scan.valid_end == keep


def test_wal_torn_sealed_segment_degrades_to_prefix(tmp_path):
    """A torn non-final segment ends the scan; later segments are ignored."""

    wal = WriteAheadLog(str(tmp_path), fsync="off")
    wal.append_transaction([{"t": "truncate", "table": "a"}])
    keep = os.path.getsize(wal.segment_path)
    wal.append_transaction([{"t": "truncate", "table": "b"}])
    sealed = wal.rotate()
    wal.append_transaction([{"t": "truncate", "table": "c"}])
    wal.close()
    with open(sealed, "r+b") as handle:
        handle.truncate(keep + 4)  # tear the sealed segment mid-frame
    scan = scan_segments(str(tmp_path))
    # only the prefix before the tear survives; the later segment's txn must
    # NOT be applied over the hole in history
    assert [r["table"] for txn in scan.transactions for r in txn] == ["a"]
    assert scan.torn and scan.last_segment == sealed


def test_wal_sync_forces_fsync_in_every_mode(tmp_path):
    """Explicit sync() reaches the disk even under fsync='off'."""

    wal = WriteAheadLog(str(tmp_path), fsync="off")
    wal.append_transaction([{"t": "truncate", "table": "t"}])
    synced = {}
    real_fsync = os.fsync
    try:
        os.fsync = lambda fd: synced.setdefault("called", True)
        wal.sync()
    finally:
        os.fsync = real_fsync
    assert synced.get("called") is True
    wal.close()


def test_wal_rotation_and_prune(tmp_path):
    wal = WriteAheadLog(str(tmp_path), fsync="off")
    wal.append_transaction([{"t": "truncate", "table": "t"}])
    checkpoint_lsn = wal.last_lsn
    wal.rotate()
    wal.append_transaction([{"t": "truncate", "table": "u"}])
    assert len(scan_segments(str(tmp_path)).transactions) == 2  # both segments read
    removed = wal.prune(checkpoint_lsn)
    assert len(removed) == 1
    scan = scan_segments(str(tmp_path))
    assert len(scan.transactions) == 1  # only the post-rotation segment remains
    wal.close()


# --------------------------------------------------------------------------
# Serialization round-trips
# --------------------------------------------------------------------------


@pytest.mark.parametrize("build", [build_synthetic_schema, build_university_schema])
def test_schema_serialization_roundtrip(build):
    schema = build()
    restored = schema_from_dict(schema_to_dict(schema))
    assert restored.describe() == schema.describe()
    # describe() omits specialization flags and weak-entity linkage details;
    # check them explicitly
    for entity in schema.entities():
        twin = restored.entity(entity.name)
        assert twin.specialization_total == entity.specialization_total
        assert twin.specialization_disjoint == entity.specialization_disjoint
        assert twin.is_weak() == entity.is_weak()
        if entity.is_weak():
            assert twin.owner == entity.owner
            assert twin.discriminator == entity.discriminator


def test_spec_serialization_roundtrip():
    schema = build_synthetic_schema()
    for label, spec in synthetic_mappings(schema).items():
        restored = spec_from_dict(spec_to_dict(spec))
        assert restored.describe() == spec.describe(), label


# --------------------------------------------------------------------------
# Statement-level undo / WAL batching (Database.delete / update with a row predicate)
# --------------------------------------------------------------------------


def _people_db() -> Database:
    db = Database("stmt")
    db.create_table(
        "people",
        [Column("id", INT, nullable=False), Column("city", TEXT), Column("ref", INT)],
        primary_key=["id"],
    )
    for i in range(10):
        db.insert("people", {"id": i, "city": "a" if i % 2 else "b", "ref": None})
    return db


def test_delete_statement_records_single_undo_entry():
    db = _people_db()
    with db.transaction() as txn:
        deleted = db.delete("people", lambda row: row["city"] == "a")
        assert deleted == 5
        assert len(txn) == 1  # one undo record for the whole statement
    assert db.row_count("people") == 5


def test_update_statement_records_single_undo_entry_and_rolls_back():
    db = _people_db()
    before = sorted(tuple(r.values()) for r in db.table("people").rows())
    try:
        with db.transaction() as txn:
            updated = db.update("people", lambda row: row["city"] == "b", {"city": "z"})
            assert updated == 5
            assert len(txn) == 1
            raise RuntimeError("force rollback")
    except RuntimeError:
        pass
    after = sorted(tuple(r.values()) for r in db.table("people").rows())
    assert after == before


def test_statement_wal_records_are_single_framed_batches(tmp_path):
    db = _people_db()  # pre-durability rows stay out of the log
    db.durability = DurabilityManager(str(tmp_path), fsync="off")
    db.delete("people", lambda row: row["city"] == "a")
    db.update("people", lambda row: True, {"city": "q"})
    loaded = 2_000
    db.insert_many(
        "people", [{"id": 100 + i, "city": "z", "ref": None} for i in range(loaded)]
    )
    db.durability.wal.sync()
    scan = scan_segments(str(tmp_path))
    assert [len(txn) for txn in scan.transactions] == [1, 1, 1]
    delete_rec, update_rec, insert_rec = (txn[0] for txn in scan.transactions)
    assert delete_rec["t"] == "delete_batch" and len(delete_rec["row_ids"]) == 5
    assert update_rec["t"] == "update_batch" and len(update_rec["row_ids"]) == 5
    assert insert_rec["t"] == "insert_batch"
    assert insert_rec["columns"]["id"] == list(range(100, 100 + loaded))


def test_partial_statement_failure_is_still_undoable():
    """A mid-statement failure journals the applied prefix (atomicity)."""

    from repro.errors import ForeignKeyViolation

    db = _people_db()
    db.create_table(
        "likes",
        [Column("id", INT, nullable=False), Column("person", INT)],
        primary_key=["id"],
    )
    # only person 5 is referenced, with restrict: deleting "city == a" rows
    # (ids 1,3,5,7,9) applies 1 and 3 before failing on 5
    db.add_foreign_key("likes", ["person"], "people", ["id"], on_delete="restrict")
    db.insert("likes", {"id": 0, "person": 5})
    try:
        with db.transaction():
            with pytest.raises(ForeignKeyViolation):
                db.delete("people", lambda row: row["city"] == "a")
            raise RuntimeError("roll the scope back")
    except RuntimeError:
        pass
    # the partially-applied deletes (rows 1 and 3) were rolled back
    assert db.row_count("people") == 10


def test_truncate_is_transactional_and_ordered_in_wal(tmp_path):
    """Truncate undoes on rollback and replays in mutation order."""

    db = _people_db()
    try:
        with db.transaction():
            db.truncate("people")
            assert db.row_count("people") == 0
            raise RuntimeError("roll back the truncate")
    except RuntimeError:
        pass
    assert db.row_count("people") == 10  # restored by the undo image

    db.durability = DurabilityManager(str(tmp_path), fsync="off")
    with db.transaction():
        db.insert("people", {"id": 100, "city": "n", "ref": None})
        db.truncate("people")
        db.insert("people", {"id": 101, "city": "n", "ref": None})
    db.durability.wal.sync()
    records = [r["t"] for txn in scan_segments(str(tmp_path)).transactions for r in txn]
    # WAL order matches memory order: insert, truncate, insert
    assert records == ["insert_batch", "truncate", "insert_batch"]
    assert db.row_count("people") == 1


def test_autocommit_wal_failure_undoes_the_mutation(tmp_path):
    """If an autocommit append fails, memory is rolled back — never divergent."""

    db = _people_db()
    db.durability = DurabilityManager(str(tmp_path), fsync="off")

    class Boom(RuntimeError):
        pass

    original = db.durability.log_commit
    db.durability.log_commit = lambda records: (_ for _ in ()).throw(Boom())
    with pytest.raises(Boom):
        db.insert("people", {"id": 50, "city": "x", "ref": None})
    assert db.row_count("people") == 10  # insert undone
    with pytest.raises(Boom):
        db.delete("people", lambda row: row["city"] == "a")
    assert db.row_count("people") == 10  # deletes undone
    db.durability.log_commit = original
    db.insert("people", {"id": 50, "city": "x", "ref": None})  # works again
    assert db.row_count("people") == 11


def test_delete_predicate_overlapping_own_cascade():
    """Rows removed by the statement's own cascade are skipped, not crashed on."""

    db = Database("selfref")
    db.create_table(
        "node",
        [Column("id", INT, nullable=False), Column("parent", INT)],
        primary_key=["id"],
    )
    db.add_foreign_key("node", ["parent"], "node", ["id"], on_delete="cascade")
    db.insert("node", {"id": 1, "parent": None})
    db.insert("node", {"id": 2, "parent": 1})
    db.insert("node", {"id": 3, "parent": 2})
    deleted = db.delete("node", lambda row: True)  # 1's cascade removes 2 and 3
    assert deleted == 3
    assert db.row_count("node") == 0


def test_cascade_delete_is_one_statement_one_undo():
    db = _people_db()
    db.create_table(
        "likes",
        [Column("id", INT, nullable=False), Column("person", INT)],
        primary_key=["id"],
    )
    db.add_foreign_key("likes", ["person"], "people", ["id"], on_delete="cascade")
    for i in range(4):
        db.insert("likes", {"id": i, "person": i})
    with db.transaction() as txn:
        db.delete("people", lambda row: row["id"] < 4)
        assert len(txn) == 1  # base deletes + cascaded deletes, one record
        txn.rollback_to(0)
    assert db.row_count("people") == 10 and db.row_count("likes") == 4


# --------------------------------------------------------------------------
# Plan-cache bounding satellite
# --------------------------------------------------------------------------


def _tiny_system(plan_cache_size: int = 4) -> ErbiumDB:
    schema = ERSchema("tiny")
    schema.add_entity(
        EntitySet(
            "item",
            attributes=[Attribute("id", "int", required=True), Attribute("val", "varchar")],
            key=["id"],
        )
    )
    system = ErbiumDB("tiny", schema, plan_cache_size=plan_cache_size)
    system.set_mapping()
    return system


def test_plan_cache_respects_size_bound_and_counts_evictions():
    system = _tiny_system(plan_cache_size=4)
    for i in range(10):
        system.query(f"select i.val from item i where i.id = {i}")
    assert len(system._plan_cache) <= 4
    assert system.metrics.snapshot()["evictions"] > 0


def test_plan_cache_evicts_stale_mapping_versions():
    system = _tiny_system(plan_cache_size=32)
    system.query("select i.val from item i")
    cached = len(system._plan_cache)
    assert cached > 0
    evictions_before = system.metrics.snapshot()["evictions"]
    version_before = system._layout.version
    # a real publish: the online flip swaps in the new layout
    system.migrate_online(change=AddAttribute("item", Attribute("note", "varchar")))
    assert len(system._plan_cache) == 0
    assert system.metrics.snapshot()["evictions"] == evictions_before + cached
    assert system._layout.version > version_before
    # recompiles land under the new version and are cached again
    system.query("select i.val, i.note from item i")
    assert system._plan_cache
    assert all(key[1] == system._layout.version for key in system._plan_cache)


# --------------------------------------------------------------------------
# POST /admin/checkpoint
# --------------------------------------------------------------------------


def test_admin_checkpoint_endpoint(tmp_path):
    schema = ERSchema("api")
    schema.add_entity(
        EntitySet(
            "item",
            attributes=[Attribute("id", "int", required=True), Attribute("val", "varchar")],
            key=["id"],
        )
    )
    system = ErbiumDB.open(str(tmp_path / "db"), name="api", schema=schema)
    system.set_mapping()
    service = ApiService(system)
    service.post("/entities/item", {"id": 1, "val": "x"})
    response = service.post("/admin/checkpoint", {})
    assert response.status == 200, response.body
    assert response.body["checkpoint"]["version"] >= 2  # set_mapping wrote #1
    assert response.body["durability"]["fsync"] == "commit"
    # the checkpoint is immediately recoverable
    system.close(checkpoint=False)
    reopened = ErbiumDB.open(str(tmp_path / "db"))
    assert reopened.get("item", 1) == {"id": 1, "val": "x"}
    reopened.close()

    in_memory = ErbiumDB("plain", schema.clone("plain"))
    in_memory.set_mapping()
    denied = ApiService(in_memory).post("/admin/checkpoint", {})
    assert denied.status == 409
    assert denied.body["error"]["code"] == "durability_disabled"


def test_admin_checkpoint_background(tmp_path):
    schema = ERSchema("bg")
    schema.add_entity(
        EntitySet(
            "item",
            attributes=[Attribute("id", "int", required=True), Attribute("val", "varchar")],
            key=["id"],
        )
    )
    system = ErbiumDB.open(str(tmp_path / "db"), name="bg", schema=schema)
    system.set_mapping()
    system.insert("item", {"id": 7, "val": "bg"})
    response = ApiService(system).post("/admin/checkpoint", {"background": True})
    assert response.status == 200
    system.durability.wait()  # join the writer before inspecting disk state
    system.close(checkpoint=False)
    reopened = ErbiumDB.open(str(tmp_path / "db"))
    assert reopened.get("item", 7) == {"id": 7, "val": "bg"}
    reopened.close()
