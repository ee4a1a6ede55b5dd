"""Crash-point recovery for durable online migrations.

The WAL protocol's core promise: a crash at *any* byte of the log, during
*any* phase of an online migration (begin, backfill, flip), recovers to
exactly the old layout or exactly the new one — never a mix — with the full
logical content intact and the catalog reconciling clean against whichever
spec won.

The suite snapshots the whole database directory after every migration
lifecycle record hits the WAL (hooking ``DurabilityManager.log_migration``),
then hypothesis picks a snapshot and a truncation offset inside its active
WAL segment — simulating kill -9 with a torn tail at that exact moment — and
reopens.  Deterministic companions cover the flip-checkpoint failure path
(rollback + commit fence + heal) and backfill-phase aborts.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ErbiumDB
from repro.errors import MigrationError, ReadOnlyError
from repro.evolution import reconcile
from repro.evolution.migration import _extract_instances
from repro.reliability import FaultInjector
from repro.workloads.synthetic import (
    build_synthetic_schema,
    generate_synthetic_data,
    synthetic_mappings,
)

SOURCE = "M1"
TARGET = "M3"
SCALE = 6
SEED = 7
BATCH = 4  # small enough to force several backfill_batch records


def _content(system):
    """Layout-independent image of everything the system stores."""

    entities, relationships = _extract_instances(
        system.schema, system.mapping, system.db
    )
    ents = frozenset(
        (e.entity_set, json.dumps(e.values, sort_keys=True, default=str))
        for e in entities
    )
    rels = frozenset(
        (
            r.relationship_set,
            json.dumps(sorted((k, list(v)) for k, v in r.endpoints.items()), default=str),
            json.dumps(r.values, sort_keys=True, default=str),
        )
        for r in relationships
    )
    return ents, rels


def _open_loaded(path, scale=SCALE, seed=SEED):
    system = ErbiumDB.open(path, name="crash", schema=build_synthetic_schema())
    system.set_mapping(synthetic_mappings(system.schema)[SOURCE])
    data = generate_synthetic_data(scale=scale, seed=seed)
    system.load(data.entities, data.relationships)
    # cover the data with a checkpoint so the WAL tail *is* the migration:
    # every snapshot below differs only in how much of the lifecycle landed
    system.checkpoint()
    return system


def _active_segment(directory):
    segments = sorted(glob.glob(os.path.join(directory, "wal-*.log")))
    assert segments, f"no WAL segments under {directory}"
    return segments[-1]


# --------------------------------------------------------------------------
# Snapshots: one full-directory copy per migration lifecycle record
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def crash_snapshots(tmp_path_factory):
    base = tmp_path_factory.mktemp("migration_crash")
    live = str(base / "live")
    system = _open_loaded(live)
    old_name = system.mapping.name
    expected = _content(system)

    snapshots = []
    manager = system.durability
    original = manager.log_migration

    def snapshotting(record):
        # copy *after* the record is durably appended: the snapshot is the
        # on-disk state an instant after that lifecycle point
        lsn = original(record)
        dest = str(base / f"snap-{len(snapshots):03d}-{record['t']}")
        shutil.copytree(live, dest)
        snapshots.append((record["t"], dest))
        return lsn

    manager.log_migration = snapshotting
    try:
        report = system.migrate_online(
            new_spec=synthetic_mappings(system.schema)[TARGET], batch_size=BATCH
        )
    finally:
        manager.log_migration = original
    assert report.backfill_batches > 1, "scale too small to exercise batching"
    assert report.reconcile is not None and report.reconcile.ok
    new_name = report.mapping_name
    system.close()
    dest = str(base / "snap-final-complete")
    shutil.copytree(live, dest)
    snapshots.append(("complete", dest))

    phases = {phase for phase, _ in snapshots}
    assert {"migration_begin", "backfill_batch", "migration_flip", "complete"} <= phases
    return {
        "snapshots": snapshots,
        "old": old_name,
        "new": new_name,
        "expected": expected,
    }


def _reopen_and_check(crash_snapshots, directory, phase):
    recovered = ErbiumDB.open(directory)
    try:
        assert recovered.mapping is not None
        name = recovered.mapping.name
        # never a torn hybrid: exactly the old layout or exactly the new one
        assert name in (crash_snapshots["old"], crash_snapshots["new"])
        if phase == "complete":
            # the flip checkpoint published before this snapshot was taken
            assert name == crash_snapshots["new"]
        else:
            # CURRENT still names the pre-flip checkpoint
            assert name == crash_snapshots["old"]
        assert _content(recovered) == crash_snapshots["expected"]
        assert reconcile(recovered).ok
    finally:
        recovered.close(checkpoint=False)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_wal_truncated_at_any_offset_recovers_a_consistent_layout(
    crash_snapshots, data
):
    """kill -9 with a torn WAL tail at any lifecycle point: old xor new."""

    snaps = crash_snapshots["snapshots"]
    idx = data.draw(st.integers(min_value=0, max_value=len(snaps) - 1), label="snapshot")
    phase, src = snaps[idx]
    work = tempfile.mkdtemp(prefix="mig-cut-")
    try:
        directory = os.path.join(work, "db")
        shutil.copytree(src, directory)
        active = _active_segment(directory)
        size = os.path.getsize(active)
        cut = data.draw(st.integers(min_value=0, max_value=size), label="cut")
        with open(active, "r+b") as handle:
            handle.truncate(cut)
        _reopen_and_check(crash_snapshots, directory, phase)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_every_lifecycle_snapshot_reopens_consistently(crash_snapshots, tmp_path):
    """Clean kill -9 (no torn tail) after each lifecycle record."""

    for index, (phase, src) in enumerate(crash_snapshots["snapshots"]):
        directory = str(tmp_path / f"reopen-{index}")
        shutil.copytree(src, directory)
        _reopen_and_check(crash_snapshots, directory, phase)


# --------------------------------------------------------------------------
# Flip-checkpoint failure: rollback, fence, heal
# --------------------------------------------------------------------------


def test_flip_checkpoint_failure_rolls_back_and_fences_commits(tmp_path):
    fs = FaultInjector(seed=5, real_fsync=False)
    path = str(tmp_path / "db")
    system = ErbiumDB.open(
        path, name="flipfail", schema=build_synthetic_schema(), fs=fs
    )
    system.set_mapping(synthetic_mappings(system.schema)[SOURCE])
    data = generate_synthetic_data(scale=4, seed=3)
    system.load(data.entities, data.relationships)
    system.checkpoint()
    old_name = system.mapping.name
    old_layout = system._layout
    before = _content(system)
    key = system.crud.entity_keys("R")[0][0]
    query = "select r.r_id, r.r_y from R r"
    stmt = system.prepare(query)

    # the next replace is the flip checkpoint's atomic-write rename
    fs.fail("replace", at=1)
    with pytest.raises(MigrationError):
        system.migrate_online(
            new_spec=synthetic_mappings(system.schema)[TARGET], batch_size=BATCH
        )

    # the old layout object was published again and keeps serving, unchanged
    assert system._layout is old_layout
    assert system.mapping.name == old_name
    assert _content(system) == before
    assert reconcile(system).ok

    # a crash inside the fenced window still recovers the old layout intact
    frozen = str(tmp_path / "frozen")
    shutil.copytree(path, frozen)
    recovered = ErbiumDB.open(frozen)
    try:
        assert recovered.mapping.name == old_name
        assert _content(recovered) == before
        assert reconcile(recovered).ok
    finally:
        recovered.close(checkpoint=False)

    # commits are fenced until a covering checkpoint confirms the layout
    assert system.durability.describe()["commit_fence"] is not None
    with pytest.raises(ReadOnlyError):
        system.update("R", key, {"r_y": 9})

    # heal: a successful checkpoint clears the fence and writes flow again
    system.checkpoint()
    assert system.durability.describe()["commit_fence"] is None
    system.update("R", key, {"r_y": 9})
    assert _content(system) != before

    # flip -> revert -> flip: the second flip never reuses the reverted
    # flip's version, so a statement prepared before both recompiles
    system.migrate_online(new_spec=synthetic_mappings(system.schema)[TARGET])
    assert system.mapping.name != old_name
    assert system._layout.version > old_layout.version + 1
    assert stmt.execute().sorted_tuples() == system.query(query).sorted_tuples()
    system.close()


def test_backfill_failure_aborts_to_old_layout(tmp_path):
    path = str(tmp_path / "db")
    system = _open_loaded(path, scale=4, seed=3)
    old_name = system.mapping.name
    before = _content(system)
    key = system.crud.entity_keys("R")[0][0]

    def boom(instance):
        raise RuntimeError("kaput")

    with pytest.raises(MigrationError):
        system.migrate_online(
            new_spec=synthetic_mappings(system.schema)[TARGET],
            transform=boom,
            batch_size=BATCH,
        )

    # aborted before the flip: old layout serving, no fence, writes flow
    assert system.mapping.name == old_name
    assert _content(system) == before
    assert system.observability.registry.counter("migration.aborted").value >= 1
    system.update("R", key, {"r_y": 42})
    system.close()

    # the WAL now carries migration_begin + migration_abort; recovery skips
    # both and lands on the old layout with the post-abort write included
    recovered = ErbiumDB.open(path)
    try:
        assert recovered.mapping.name == old_name
        [(value,)] = recovered.query(
            "select r.r_y from R r where r.r_id = $k", params={"k": key}
        ).sorted_tuples()
        assert value == 42
        assert reconcile(recovered).ok
    finally:
        recovered.close(checkpoint=False)
