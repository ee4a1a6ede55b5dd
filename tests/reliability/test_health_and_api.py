"""End-to-end health degradation: engine, session, REST surface, governance.

The acceptance scenario from the robustness issue: force a WAL failure and
the system must (a) reject writes with a typed :class:`ReadOnlyError` /
HTTP 503 + ``Retry-After`` while (b) MVCC reads keep serving, then (c) a
successful probe walks health back to HEALTHY and writes resume.  Also
covers DEGRADED-mode checkpoint failures, ``Session.run`` conflict retries,
and the governance-state checkpoint round-trip.
"""

from __future__ import annotations

import errno
import time

import pytest

from repro import ErbiumDB
from repro.api import ApiService
from repro.core import Attribute, EntitySet, ERSchema
from repro.errors import DurabilityError, ReadOnlyError, SerializationError
from repro.governance import AccessController, AuditLog, PIIRegistry, Policy
from repro.reliability import FaultInjector, HealthState, RetryPolicy


def _item_schema(name: str = "rel") -> ERSchema:
    schema = ERSchema(name)
    schema.add_entity(
        EntitySet(
            "item",
            attributes=[Attribute("id", "int", required=True), Attribute("val", "varchar")],
            key=["id"],
        )
    )
    return schema


def _open(tmp_path, fs=None, **kwargs):
    """A durable one-entity system with background probing disabled."""

    system = ErbiumDB.open(
        str(tmp_path / "db"),
        name="rel",
        schema=_item_schema(),
        fs=fs,
        probe_interval=None,
        retry=RetryPolicy(sleep=lambda _d: None),
        **kwargs,
    )
    system.set_mapping()
    return system


# --------------------------------------------------------------------------
# READ_ONLY: WAL failure
# --------------------------------------------------------------------------


def test_wal_failure_forces_read_only_and_probe_restores(tmp_path):
    fs = FaultInjector()
    system = _open(tmp_path, fs=fs)
    system.insert("item", {"id": 1, "val": "before"})

    fs.fail("write", times=None, errno_code=errno.EIO)
    with pytest.raises(ReadOnlyError):
        system.insert("item", {"id": 2, "val": "lost"})
    assert system.health is HealthState.READ_ONLY

    # the failed write never landed in memory: log and memory agree
    assert system.get("item", 2) is None
    # reads keep serving committed state
    assert system.get("item", 1) == {"id": 1, "val": "before"}
    assert system.query("select count(*) as n from item").to_tuples()[0][0] == 1
    # further writes are rejected up front, before touching memory
    with pytest.raises(ReadOnlyError):
        system.insert("item", {"id": 3, "val": "nope"})
    with pytest.raises(ReadOnlyError):
        system.update("item", 1, {"val": "nope"})
    with pytest.raises(ReadOnlyError):
        system.delete("item", (1,))

    # disk "repaired": a probe proves the WAL and re-publishes a checkpoint
    fs.clear()
    system.probe()
    assert system.health is HealthState.HEALTHY
    system.insert("item", {"id": 2, "val": "after"})
    system.close()

    recovered = ErbiumDB.open(str(tmp_path / "db"))
    rows = recovered.query("select i.id, i.val from item i").sorted_tuples()
    assert rows == [(1, "before"), (2, "after")]
    recovered.close()


def test_failed_probe_leaves_read_only_in_place(tmp_path):
    fs = FaultInjector()
    system = _open(tmp_path, fs=fs)
    fs.fail("write", times=None, errno_code=errno.ENOSPC)
    with pytest.raises(ReadOnlyError):
        system.insert("item", {"id": 1, "val": "x"})
    # the disk is still broken: probing must not lie about recovery
    system.probe()
    assert system.health is HealthState.READ_ONLY
    fs.clear()
    system.probe()
    assert system.health is HealthState.HEALTHY
    system.close()


def test_transactional_commit_failure_rolls_back_and_read_only(tmp_path):
    fs = FaultInjector()
    system = _open(tmp_path, fs=fs)
    system.insert("item", {"id": 1, "val": "keep"})

    session = system.session().begin()
    session.update("item", 1, {"val": "doomed"})
    session.insert("item", {"id": 2, "val": "doomed"})
    fs.fail("write", times=None, errno_code=errno.EIO)
    with pytest.raises(ReadOnlyError):
        session.commit()
    session.rollback()

    assert system.health is HealthState.READ_ONLY
    assert system.get("item", 1) == {"id": 1, "val": "keep"}
    assert system.get("item", 2) is None
    fs.clear()
    system.probe()
    assert system.health is HealthState.HEALTHY
    system.close()


def test_close_of_read_only_system_skips_farewell_checkpoint(tmp_path):
    fs = FaultInjector()
    system = _open(tmp_path, fs=fs)
    system.insert("item", {"id": 1, "val": "x"})
    fs.fail("write", times=None, errno_code=errno.EIO)
    with pytest.raises(ReadOnlyError):
        system.insert("item", {"id": 2, "val": "y"})
    fs.fail("fsync", times=None, errno_code=errno.EIO)
    system.close()  # must not raise despite the dead disk

    recovered = ErbiumDB.open(str(tmp_path / "db"))
    assert recovered.get("item", 1) is not None
    assert recovered.get("item", 2) is None
    recovered.close()


# --------------------------------------------------------------------------
# DEGRADED: checkpoint failure with a live WAL
# --------------------------------------------------------------------------


def test_checkpoint_failure_degrades_but_writes_continue(tmp_path):
    fs = FaultInjector()
    system = _open(tmp_path, fs=fs)
    system.insert("item", {"id": 1, "val": "a"})

    fs.fail("replace", times=None, errno_code=errno.ENOSPC)
    with pytest.raises(DurabilityError):
        system.checkpoint()
    assert system.health is HealthState.DEGRADED

    # the WAL still orders commits: writes keep working in DEGRADED
    system.insert("item", {"id": 2, "val": "b"})
    assert system.get("item", 2) is not None

    fs.clear()
    system.probe()
    assert system.health is HealthState.HEALTHY
    system.close()

    recovered = ErbiumDB.open(str(tmp_path / "db"))
    assert len(recovered.query("select i.id from item i").to_tuples()) == 2
    recovered.close()


def test_background_probe_heals_a_degraded_system(tmp_path):
    fs = FaultInjector()
    system = ErbiumDB.open(
        str(tmp_path / "db"),
        name="rel",
        schema=_item_schema(),
        fs=fs,
        probe_interval=0.01,
        retry=RetryPolicy(sleep=lambda _d: None),
    )
    system.set_mapping()
    system.insert("item", {"id": 1, "val": "a"})

    fs.fail("replace", times=None, errno_code=errno.ENOSPC)
    with pytest.raises(DurabilityError):
        system.checkpoint()
    assert system.health is HealthState.DEGRADED
    time.sleep(0.05)  # background probes fire and fail against the sticky fault
    assert system.health is HealthState.DEGRADED

    fs.clear()
    deadline = time.monotonic() + 10.0
    while system.health is not HealthState.HEALTHY and time.monotonic() < deadline:
        time.sleep(0.01)
    assert system.health is HealthState.HEALTHY  # no probe() call from here
    system.close()


def test_commit_sync_adds_one_fsync_and_refuses_when_read_only(tmp_path):
    fs = FaultInjector()
    system = _open(tmp_path, fs=fs, fsync="off")
    session = system.session()

    def fsyncs_of_commit(key, sync):
        before = fs.counts.get("fsync", 0)
        session.begin()
        session.insert("item", {"id": key, "val": "v"})
        session.commit(sync=sync)
        return fs.counts.get("fsync", 0) - before

    assert fsyncs_of_commit(1, sync=False) == 0  # fsync="off" never syncs a commit
    assert fsyncs_of_commit(2, sync=True) == 1

    # a forced sync that fails takes the log down
    fs.fail("fsync", times=None, errno_code=errno.EIO)
    with pytest.raises(ReadOnlyError):
        fsyncs_of_commit(3, sync=True)
    assert system.health is HealthState.READ_ONLY
    # read-only: an empty transaction commits, but its forced sync refuses
    session.begin()
    with pytest.raises(ReadOnlyError):
        session.commit(sync=True)
    assert not session.in_transaction()
    system.close()


def test_describe_surfaces_health_and_retry_counters(tmp_path):
    fs = FaultInjector()
    system = _open(tmp_path, fs=fs)
    info = system.durability.describe()
    assert info["health"]["state"] == "healthy"
    assert info["retry"]["retries"] == 4
    assert info["probe_interval"] is None
    assert system.describe()["health"] == "healthy"

    # one transient hiccup: retried invisibly, counted visibly
    fs.fail("write", errno_code=errno.EAGAIN)
    system.insert("item", {"id": 1, "val": "x"})
    assert system.durability.describe()["retried_ops"] >= 1
    assert system.health is HealthState.HEALTHY
    system.close()


# --------------------------------------------------------------------------
# REST surface
# --------------------------------------------------------------------------


def test_api_returns_503_with_retry_after_while_read_only(tmp_path):
    fs = FaultInjector()
    system = _open(tmp_path, fs=fs)
    service = ApiService(system)
    assert service.post("/entities/item", {"id": 1, "val": "ok"}).status == 201

    fs.fail("write", times=None, errno_code=errno.EIO)
    rejected = service.post("/entities/item", {"id": 2, "val": "no"})
    assert rejected.status == 503
    assert rejected.body["error"]["code"] == "read_only"
    assert rejected.headers["Retry-After"] == "1"

    # reads keep serving: GET and query both 200
    assert service.get("/entities/item/1").status == 200
    query = service.post("/query", {"query": "select count(*) as n from item"})
    assert query.status == 200 and query.body["rows"][0]["n"] == 1

    health = service.get("/health")
    assert health.status == 200
    assert health.body["status"] == "read_only"
    assert health.body["durability"]["health"]["state"] == "read_only"

    # probe with the disk still broken: state unchanged, still a 200 report
    probed = service.post("/admin/probe", {})
    assert probed.status == 200 and probed.body["status"] == "read_only"

    fs.clear()
    probed = service.post("/admin/probe", {})
    assert probed.status == 200 and probed.body["status"] == "healthy"
    assert service.post("/entities/item", {"id": 2, "val": "yes"}).status == 201
    system.close()


def test_health_endpoint_without_durability(tmp_path):
    system = ErbiumDB("mem", _item_schema())
    system.set_mapping()
    service = ApiService(system)
    health = service.get("/health")
    assert health.status == 200
    assert health.body == {"status": "healthy", "durability": None}
    probe = service.post("/admin/probe", {})
    assert probe.status == 409
    assert probe.body["error"]["code"] == "durability_disabled"


def test_openapi_documents_health_routes(tmp_path):
    system = ErbiumDB("doc", _item_schema())
    system.set_mapping()
    service = ApiService(system)
    document = service.get("/openapi").body
    assert "get" in document["paths"]["/health"]
    assert "post" in document["paths"]["/admin/probe"]
    error_doc = document["components"]["schemas"]["Error"]
    assert "read_only" in error_doc["properties"]["error"]["properties"]["code"]["description"]


# --------------------------------------------------------------------------
# Session.run: serialization-conflict retry helper
# --------------------------------------------------------------------------


def test_session_run_commits_and_returns(tmp_path):
    system = ErbiumDB("run", _item_schema())
    system.set_mapping()
    session = system.session()

    def work(s):
        s.insert("item", {"id": 1, "val": "x"})
        return 42

    total = session.run(work)
    assert total == 42
    assert not session.in_transaction()
    assert system.get("item", 1) is not None


def test_session_run_retries_serialization_conflicts(tmp_path):
    system = ErbiumDB("run", _item_schema())
    system.set_mapping()
    system.insert("item", {"id": 1, "val": "v0"})
    session = system.session()
    attempts = []

    def contended(s):
        attempts.append(1)
        if len(attempts) < 3:
            raise SerializationError("simulated first-committer-wins loss")
        s.update("item", 1, {"val": "won"})
        return len(attempts)

    slept = []
    assert session.run(contended, retries=3, backoff=0.5, sleep=slept.append) == 3
    assert slept == [0.5, 1.0]
    assert system.get("item", 1)["val"] == "won"


def test_session_run_gives_up_after_retries(tmp_path):
    system = ErbiumDB("run", _item_schema())
    system.set_mapping()
    session = system.session()

    def hopeless(_s):
        raise SerializationError("always loses")

    with pytest.raises(SerializationError):
        session.run(hopeless, retries=2, sleep=lambda _d: None)
    assert not session.in_transaction()


def test_session_run_real_conflict_between_sessions(tmp_path):
    """An actual first-committer-wins race, resolved by re-running."""

    system = ErbiumDB("race", _item_schema())
    system.set_mapping()
    system.insert("item", {"id": 1, "val": "0"})
    loser = system.session(isolation="snapshot")
    first_try = []

    def bump(s):
        current = s.get("item", 1)["val"]
        if not first_try:
            # while the loser's snapshot is pinned (still a pure reader, no
            # writer lock held), a rival commits to the same row
            first_try.append(1)
            system.update("item", 1, {"val": "rival"})
        s.update("item", 1, {"val": current + "+"})

    loser.run(bump, sleep=lambda _d: None)
    assert system.get("item", 1)["val"] == "rival+"


def test_session_run_propagates_other_errors_with_rollback(tmp_path):
    system = ErbiumDB("run", _item_schema())
    system.set_mapping()
    session = system.session()

    def broken(s):
        s.insert("item", {"id": 9, "val": "phantom"})
        raise RuntimeError("app bug")

    with pytest.raises(RuntimeError):
        session.run(broken)
    assert not session.in_transaction()
    assert system.get("item", 9) is None  # rolled back


# --------------------------------------------------------------------------
# Governance state survives checkpoints
# --------------------------------------------------------------------------


def test_governance_round_trips_through_checkpoint_and_recovery(tmp_path):
    fs = FaultInjector()
    system = _open(tmp_path, fs=fs)
    audit = AuditLog()
    access = AccessController(system.schema, pii=PIIRegistry(system.schema), audit=audit)
    access.grant(Policy(role="reader", entity="item", actions={"read"}))
    access.grant(
        Policy(
            role="owner",
            entity="item",
            actions={"read", "write"},
            attributes={"id", "val"},
            condition=lambda instance: True,
        )
    )
    access.assign_role("carl", "reader")
    access.assign_role("dana", "owner")
    system.attach_governance(access=access)
    assert system.audit is audit  # pulled off the controller

    system.insert("item", {"id": 1, "val": "x"})
    access.check("carl", "read", "item")
    system.checkpoint()
    manager = system.durability
    manager.abandon()  # crash

    recovered = ErbiumDB.open(str(tmp_path / "db"))
    assert recovered.access is not None and recovered.audit is not None
    assert recovered.access.roles_of("carl") == {"reader"}
    assert recovered.access.roles_of("dana") == {"owner"}
    # plain policy works as before
    recovered.access.check("carl", "read", "item")
    # the conditional policy came back fail-closed: entity-level check still
    # resolves, but any instance-level evaluation denies
    policies = recovered.access.policies_for("dana", "item")
    assert any(p.condition is not None and not p.condition(object()) for p in policies)
    # audit entries survived
    decisions = recovered.audit.entries(action="access.read", principal="carl")
    assert decisions and decisions[0].outcome == "allowed"
    recovered.close()


def test_recovery_without_governance_leaves_none(tmp_path):
    system = _open(tmp_path)
    system.insert("item", {"id": 1, "val": "x"})
    system.close()
    recovered = ErbiumDB.open(str(tmp_path / "db"))
    assert recovered.access is None and recovered.audit is None
    recovered.close()
