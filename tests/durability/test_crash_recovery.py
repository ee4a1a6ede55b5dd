"""Crash recovery: checkpoint + WAL replay must reproduce committed state.

The acceptance property (ISSUE 4): load a benchmark suite, checkpoint,
simulate a crash (abandon the process image, optionally tearing the WAL
tail), reopen, and every experiment query (M1–M6, both executors) returns
results identical to the pre-crash database; recovery also replays
committed-but-uncheckpointed batch DML and discards uncommitted tails.

The hypothesis property test drives the torn-tail semantics hard: for *any*
byte-level truncation of the WAL, recovery must reconstruct exactly the
transactions whose commit frame survived — a committed-prefix, never a
partial transaction.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ErbiumDB
from repro.bench.experiments import EXPERIMENTS
from repro.core import Attribute, EntitySet, ERSchema
from repro.durability import has_database
from repro.durability.snapshot import CheckpointStore
from repro.errors import RecoveryError
from repro.workloads.synthetic import (
    build_synthetic_schema,
    generate_synthetic_data,
    synthetic_mappings,
)

SCALE = 24
MAPPINGS = ("M1", "M2", "M3", "M4", "M5", "M6")
EXECUTORS = ("row", "batch")

#: Every paper experiment realized as a plain ERQL query (E4/E7a are
#: per-mapping operations and are covered by the CRUD paths instead).
QUERIES = {key: e.query for key, e in EXPERIMENTS.items() if e.query is not None}


def _item_schema(name: str = "crash") -> ERSchema:
    schema = ERSchema(name)
    schema.add_entity(
        EntitySet(
            "item",
            attributes=[Attribute("id", "int", required=True), Attribute("val", "varchar")],
            key=["id"],
        )
    )
    return schema


def _all_query_results(system: ErbiumDB):
    out = {}
    for key, query in QUERIES.items():
        for executor in EXECUTORS:
            out[(key, executor)] = system.query(query, executor=executor).sorted_tuples()
    return out


def _post_checkpoint_dml(system: ErbiumDB, offset: int) -> None:
    """Committed batch DML that must survive a crash via WAL replay alone."""

    rows = [
        {
            "r_id": offset + i,
            "r_x": {"r_x1": i, "r_x2": f"x-{i}"},
            "r_y": i % 7,
            "r_mv1": [i, i + 1],
            "r_mv2": [i + 2, i + 3],
            "r_mv3": [{"x": i, "y": f"mv3-{i}"}],
        }
        for i in range(5)
    ]
    system.insert_many("R", rows)  # one framed insert batch per physical table
    system.update("R", offset + 1, {"r_y": 99})
    system.delete("R", (offset + 4,))


@pytest.mark.parametrize("label", MAPPINGS)
def test_experiment_queries_survive_crash_and_replay(tmp_path, label):
    """Acceptance: checkpoint + committed WAL tail == pre-crash state."""

    path = str(tmp_path / label)
    schema = build_synthetic_schema()
    data = generate_synthetic_data(scale=SCALE, seed=42)
    system = ErbiumDB.open(path, name=label, schema=schema)
    system.set_mapping(synthetic_mappings(system.schema)[label])
    data.load_into(system)
    system.checkpoint()

    # committed-but-uncheckpointed DML: replayed from the WAL on reopen
    _post_checkpoint_dml(system, offset=10_000)

    # an uncommitted transaction: its writes must NOT survive the crash
    session = system.session().begin()
    session.insert(
        "R",
        {
            "r_id": 77_777,
            "r_x": {"r_x1": 1, "r_x2": "x"},
            "r_y": 1,
            "r_mv1": [1],
            "r_mv2": [2],
            "r_mv3": [{"x": 1, "y": "y"}],
        },
    )
    expected = None  # computed below on a *shadow* of committed state only

    # crash: abandon the live objects without close(); the open transaction
    # dies with the process, so compute expectations from a clean reopen of
    # the files *before* the in-memory uncommitted insert could matter
    del session
    del system

    recovered = ErbiumDB.open(path)
    results = _all_query_results(recovered)

    # shadow: the same committed operations applied to a fresh in-memory
    # system — the ground truth recovery must match
    shadow = ErbiumDB(label, build_synthetic_schema())
    shadow.set_mapping(synthetic_mappings(shadow.schema)[label])
    generate_synthetic_data(scale=SCALE, seed=42).load_into(shadow)
    _post_checkpoint_dml(shadow, offset=10_000)
    expected = _all_query_results(shadow)

    assert results == expected
    # the uncommitted row is gone
    assert recovered.get("R", 77_777) is None
    # replayed batch DML really is there
    assert recovered.get("R", 10_000) is not None
    assert recovered.get("R", 10_001)["r_y"] == 99
    assert recovered.get("R", 10_004) is None
    recovered.close()


def test_reopen_is_idempotent(tmp_path):
    """Recover, recover again: same answers (watermarks make replay idempotent)."""

    path = str(tmp_path / "db")
    system = ErbiumDB.open(path, name="idem", schema=_item_schema())
    system.set_mapping()
    system.insert_many("item", [{"id": i, "val": f"v{i}"} for i in range(20)])
    del system
    first = ErbiumDB.open(path)
    rows1 = first.query("select i.id, i.val from item i").sorted_tuples()
    first.close(checkpoint=False)
    second = ErbiumDB.open(path)
    rows2 = second.query("select i.id, i.val from item i").sorted_tuples()
    assert rows1 == rows2 and len(rows1) == 20
    second.close()


def test_crash_during_checkpoint_recovers_from_previous(tmp_path):
    """A torn checkpoint write is invisible: CURRENT still names the old one."""

    path = str(tmp_path / "db")
    system = ErbiumDB.open(path, name="ckpt", schema=_item_schema())
    system.set_mapping()
    system.insert_many("item", [{"id": i, "val": "pre"} for i in range(10)])

    # simulate a crash halfway through writing checkpoint #2: the document
    # lands on disk but CURRENT was never flipped (and a stray temp file is
    # left behind) — exactly what _write_atomic's ordering guarantees
    store = CheckpointStore(path)
    bogus = os.path.join(store.checkpoint_dir, "ckpt-00000002.json")
    with open(bogus, "wb") as handle:
        handle.write(b'{"format": 1, "half": "written')
    with open(bogus + ".tmp", "wb") as handle:
        handle.write(b"garbage")

    del system
    recovered = ErbiumDB.open(path)
    rows = recovered.query("select i.id from item i").sorted_tuples()
    assert len(rows) == 10  # checkpoint #1 + WAL replay, bogus #2 ignored
    recovered.close()


def test_corrupt_current_checkpoint_raises_recovery_error(tmp_path):
    path = str(tmp_path / "db")
    system = ErbiumDB.open(path, name="corrupt", schema=_item_schema())
    system.set_mapping()
    system.insert("item", {"id": 1, "val": "x"})
    system.checkpoint()
    info = system.durability.store.latest_info()
    system.close(checkpoint=False)
    target = os.path.join(path, info["file"])
    with open(target, "r+b") as handle:
        handle.seek(10)
        byte = handle.read(1)
        handle.seek(10)
        handle.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(RecoveryError):
        ErbiumDB.open(path)


# --------------------------------------------------------------------------
# Property: any byte-level truncation yields the committed prefix
# --------------------------------------------------------------------------


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_torn_wal_tail_recovers_exact_committed_prefix(data):
    """Kill mid-commit at an arbitrary byte: recovery == committed prefix.

    Builds a durable system, commits a random sequence of transactions
    (insert / update / delete mixes, one session transaction each) while
    recording the WAL size at each commit boundary, then truncates the log
    at an arbitrary byte offset and reopens.  The recovered state must equal
    a shadow model with exactly the fully-surviving transactions applied —
    transactions cut mid-frame (or missing only their commit frame) must
    vanish entirely.
    """

    base = tempfile.mkdtemp(prefix="erbium-crash-")
    try:
        path = os.path.join(base, "db")
        system = ErbiumDB.open(path, name="prop", schema=_item_schema("prop"))
        system.set_mapping()
        wal_path = system.durability.wal.segment_path

        shadow: dict = {}
        committed_states = [dict(shadow)]  # index k -> state after k txns
        boundaries = [os.path.getsize(wal_path)]
        next_id = 0
        n_txns = data.draw(st.integers(min_value=1, max_value=6), label="n_txns")
        for _ in range(n_txns):
            ops = data.draw(
                st.lists(st.sampled_from(["insert", "update", "delete"]), min_size=1, max_size=4),
                label="ops",
            )
            with system.session() as s:
                for op in ops:
                    if op == "insert" or not shadow:
                        batch = data.draw(st.integers(min_value=1, max_value=4), label="batch")
                        rows = [
                            {"id": next_id + i, "val": f"v{next_id + i}"}
                            for i in range(batch)
                        ]
                        s.insert_many("item", rows)
                        for row in rows:
                            shadow[row["id"]] = row["val"]
                        next_id += batch
                    elif op == "update":
                        key = data.draw(st.sampled_from(sorted(shadow)), label="ukey")
                        s.update("item", key, {"val": f"u{key}"})
                        shadow[key] = f"u{key}"
                    else:
                        key = data.draw(st.sampled_from(sorted(shadow)), label="dkey")
                        s.delete("item", key)
                        del shadow[key]
            committed_states.append(dict(shadow))
            boundaries.append(os.path.getsize(wal_path))

        cut = data.draw(
            st.integers(min_value=0, max_value=boundaries[-1]), label="cut"
        )
        survivors = sum(1 for b in boundaries[1:] if b <= cut)

        del system  # crash: no close(), no final checkpoint
        with open(wal_path, "r+b") as handle:
            handle.truncate(cut)

        recovered = ErbiumDB.open(path)
        rows = recovered.query("select i.id, i.val from item i").to_tuples()
        # ids are unique, so dict equality is exact state equality
        # (sorted_tuples orders by str(), which would misorder 2 vs 10)
        assert len(rows) == len(committed_states[survivors])
        assert dict(rows) == committed_states[survivors]
        recovered.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)


def test_enable_durability_refuses_unsafe_directories(tmp_path):
    """Foreign WAL segments or an existing database must not be adopted."""

    from repro.errors import DurabilityError

    # a directory that already holds a database -> use open(), not enable
    path = str(tmp_path / "existing")
    system = ErbiumDB.open(path, name="a", schema=_item_schema("a"))
    system.set_mapping()
    system.close()
    fresh = ErbiumDB("b", _item_schema("b"))
    with pytest.raises(DurabilityError):
        fresh.enable_durability(path)

    # a directory with committed WAL work but no checkpoint (lost CURRENT):
    # refusing protects data a user could still salvage by hand
    from repro.durability.wal import WriteAheadLog

    orphaned = str(tmp_path / "orphaned")
    wal = WriteAheadLog(orphaned, fsync="off")
    wal.append_transaction([{"t": "truncate", "table": "t"}])
    wal.close()
    with pytest.raises(DurabilityError):
        fresh.enable_durability(orphaned)

    # but a checkpoint-less directory whose segments hold NO committed work
    # (the startup window of a crashed open()) is silently re-creatable
    empty = str(tmp_path / "empty-segments")
    WriteAheadLog(empty, fsync="off").close()
    fresh.enable_durability(empty)
    fresh.close(checkpoint=False)


def test_open_with_conflicting_schema_raises(tmp_path):
    from repro.errors import DurabilityError

    path = str(tmp_path / "db")
    system = ErbiumDB.open(path, name="orig", schema=_item_schema("orig"))
    system.set_mapping()
    system.close()
    other = ERSchema("other")
    other.add_entity(
        EntitySet("zzz", attributes=[Attribute("k", "int", required=True)], key=["k"])
    )
    with pytest.raises(DurabilityError):
        ErbiumDB.open(path, schema=other)
    # a matching schema (or none) is fine
    ErbiumDB.open(path).close()


def test_checkpoint_refused_inside_open_transaction(tmp_path):
    """A checkpoint must never persist writes that could still roll back."""

    from repro.errors import DurabilityError

    path = str(tmp_path / "db")
    system = ErbiumDB.open(path, name="txn", schema=_item_schema("txn"))
    system.set_mapping()
    system.insert("item", {"id": 1, "val": "committed"})
    session = system.session().begin()
    session.insert("item", {"id": 2, "val": "uncommitted"})
    with pytest.raises(DurabilityError):
        system.checkpoint()
    session.rollback()
    system.checkpoint()  # fine again once the transaction is closed
    del system
    recovered = ErbiumDB.open(path)
    assert recovered.get("item", 1) is not None
    assert recovered.get("item", 2) is None
    recovered.close()


def test_crash_before_first_checkpoint_is_recreatable(tmp_path):
    """Dying between open() and set_mapping() must not brick the directory."""

    path = str(tmp_path / "db")
    system = ErbiumDB.open(path, name="early", schema=_item_schema("early"))
    # crash before set_mapping: a WAL segment exists, no checkpoint, and no
    # committed work can exist yet (DML needs the mapping's tables)
    del system
    assert not has_database(path)
    reopened = ErbiumDB.open(path, name="early", schema=_item_schema("early"))
    reopened.set_mapping()
    reopened.insert("item", {"id": 1, "val": "x"})
    reopened.close()
    assert ErbiumDB.open(path).get("item", 1) == {"id": 1, "val": "x"}


def test_fresh_path_opens_empty(tmp_path):
    path = str(tmp_path / "new")
    assert not has_database(path)
    system = ErbiumDB.open(path, name="fresh", schema=_item_schema("fresh"))
    system.set_mapping()
    assert has_database(path)  # set_mapping wrote checkpoint #1
    system.close()
