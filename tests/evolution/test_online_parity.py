"""Differential parity: online migration vs. the offline Migrator.

The online protocol (backfill under a read view + changelog replay + flip)
must be *observationally identical* to the offline one (quiesce, extract,
transform, reload).  Each test runs both against systems loaded from the
same seed — the online one while concurrent reader (and, for remaps, writer)
sessions keep hitting it — and compares the full logical content plus query
results under both executors.

Covers every schema change in :mod:`repro.evolution.changes` and remap pairs
across the paper's M1–M6 designs.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core import Attribute, EntityInstance, EntitySet, Participant, RelationshipSet
from repro.errors import SerializationError
from repro.evolution import (
    AddAttribute,
    AddEntitySet,
    AddRelationship,
    AddSubclass,
    DropAttribute,
    DropRelationship,
    MakeAttributeMultiValued,
    MakeRelationshipManyToMany,
    Migrator,
    RenameAttribute,
)
from repro.evolution.migration import _extract_instances
from repro.evolution.online import OnlineMigrator
from repro import ErbiumDB
from repro.erql import Planner
from repro.mapping import CrudTemplates, named_mapping
from repro.workloads.synthetic import (
    build_synthetic_schema,
    generate_synthetic_data,
    synthetic_mappings,
)
from tests.conftest import build_university_system

SCALE = 18
SEED = 11


def _canonical_content(schema, mapping, db):
    """Layout-independent image of everything the database stores."""

    entities, relationships = _extract_instances(schema, mapping, db)
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


def _assert_query_parity(online_system, offline_triple, queries):
    """The two worlds answer the same queries identically, both executors."""

    schema, mapping, db = offline_triple
    offline = ErbiumDB("offline", schema)
    # serve the offline result as it is: its tables are already installed
    offline._publish(offline._layout_for(schema, None, mapping, db))
    for query in queries:
        for executor in ("row", "batch"):
            got = online_system.query(query, executor=executor).sorted_tuples()
            want = offline.query(query, executor=executor).sorted_tuples()
            assert got == want, (query, executor)


def _answer(system, query):
    return frozenset(system.query(query).to_tuples())


def _reader(system, query, stop, errors, answers):
    """Read until ``stop`` (at least once), recording each distinct answer."""

    while True:
        try:
            answers.add(_answer(system, query))
        except Exception as exc:  # pragma: no cover - fails the test below
            errors.append(exc)
            return
        if stop.is_set():
            return


def _migrate_under_reader(system, query, **migrate_kwargs):
    """``migrate_online`` beside a reader thread; asserts no torn read.

    Every answer the reader saw must be the whole pre-migration answer or
    the whole post-flip answer: a read that mixed a partial backfill with
    the old layout, or half-swapped templates, would differ from both.
    """

    before = _answer(system, query)
    stop = threading.Event()
    errors: list = []
    answers: set = set()
    reader = threading.Thread(
        target=_reader, args=(system, query, stop, errors, answers)
    )
    reader.start()
    try:
        report = system.migrate_online(**migrate_kwargs)
    finally:
        stop.set()
        reader.join(timeout=60)
    assert not reader.is_alive(), "the reader did not stop"
    assert not errors, errors
    assert answers, "the reader finished no read"
    assert answers <= {before, _answer(system, query)}
    return report


# --------------------------------------------------------------------------
# Every schema change, online vs offline
# --------------------------------------------------------------------------

UNIVERSITY_CHANGES = [
    ("add_attribute", lambda: AddAttribute("person", Attribute("nickname", "varchar"))),
    ("drop_attribute", lambda: DropAttribute("person", "street")),
    ("rename_attribute", lambda: RenameAttribute("person", "city", "home_city")),
    ("make_multivalued", lambda: MakeAttributeMultiValued("person", "city")),
    ("make_many_to_many", lambda: MakeRelationshipManyToMany("advisor")),
    (
        "add_entity_set",
        lambda: AddEntitySet(
            EntitySet(
                "club",
                attributes=[
                    Attribute("club_id", "int", required=True),
                    Attribute("title", "varchar"),
                ],
                key=["club_id"],
            )
        ),
    ),
    ("add_subclass", lambda: AddSubclass("person", "staff", [Attribute("office")])),
    (
        "add_relationship",
        lambda: AddRelationship(
            RelationshipSet(
                "mentor",
                participants=[
                    Participant("instructor", role="mentor", cardinality="one"),
                    Participant("instructor", role="mentee", cardinality="many"),
                ],
            )
        ),
    ),
    ("drop_relationship", lambda: DropRelationship("advisor")),
]


@pytest.mark.parametrize(
    "label,make_change", UNIVERSITY_CHANGES, ids=[c[0] for c in UNIVERSITY_CHANGES]
)
def test_schema_change_online_matches_offline(label, make_change):
    online = build_university_system(students=14, instructors=3, courses=5)
    offline = build_university_system(students=14, instructors=3, courses=5)

    report = _migrate_under_reader(
        online,
        "select p.person_id, p.name.firstname, p.name.lastname from person p",
        change=make_change(),
        batch_size=5,
    )
    assert report.reconcile is not None and report.reconcile.ok

    migrator = Migrator(offline.schema, offline.active_mapping(), offline.db)
    new_schema, new_mapping, new_db, _ = migrator.migrate(change=make_change())

    assert _canonical_content(online.schema, online.mapping, online.db) == (
        _canonical_content(new_schema, new_mapping, new_db)
    )
    _assert_query_parity(
        online,
        (new_schema, new_mapping, new_db),
        ["select p.name from person p", "select c.title from course c"],
    )


# --------------------------------------------------------------------------
# M1–M6 remap pairs, online vs offline
# --------------------------------------------------------------------------

REMAP_PAIRS = [
    ("M1", "M2"),
    ("M2", "M3"),
    ("M3", "M4"),
    ("M4", "M5"),
    ("M5", "M6"),
    ("M6", "M1"),
    ("M1", "M6"),
]


def _synthetic_system(label: str) -> ErbiumDB:
    system = ErbiumDB(label, build_synthetic_schema())
    system.set_mapping(synthetic_mappings(system.schema)[label])
    data = generate_synthetic_data(scale=SCALE, seed=SEED)
    system.load(data.entities, data.relationships)
    return system


@pytest.mark.parametrize("source,target", REMAP_PAIRS, ids=[f"{a}-{b}" for a, b in REMAP_PAIRS])
def test_remap_online_matches_offline(source, target):
    online = _synthetic_system(source)
    offline = _synthetic_system(source)
    target_spec = synthetic_mappings(online.schema)[target]

    report = _migrate_under_reader(
        online, "select r.r_id, r.r_y from R r", new_spec=target_spec, batch_size=4
    )
    assert report.reconcile is not None and report.reconcile.ok
    assert report.backfill_batches > 1  # small batch size forces real batching

    migrator = Migrator(offline.schema, offline.active_mapping(), offline.db)
    new_schema, new_mapping, new_db, _ = migrator.migrate(
        new_spec=synthetic_mappings(offline.schema)[target]
    )

    assert _canonical_content(online.schema, online.mapping, online.db) == (
        _canonical_content(new_schema, new_mapping, new_db)
    )
    _assert_query_parity(
        online,
        (new_schema, new_mapping, new_db),
        ["select r.r_id, r.r_y from R r", "select s.s_id, s.s_x from S s"],
    )


@pytest.mark.parametrize("source,target", REMAP_PAIRS, ids=[f"{a}-{b}" for a, b in REMAP_PAIRS])
def test_reads_inside_the_flip_see_one_whole_layout(source, target, monkeypatch):
    """Every door answers from one whole layout while the flip builds the new one.

    The hook fires where the flip constructs the new layout's planner, on the
    flipping thread with both writer locks held.  A read there through
    ``system.query``, a snapshot session, a prepared statement or a CRUD
    ``get`` must give the pre-flip or the post-flip answer — never a plan of
    one layout run on the database of the other.
    """

    system = _synthetic_system(source)
    query = "select r.r_id, r.r_y from R r"
    key = system.crud.entity_keys("R")[0]
    session = system.session(isolation="snapshot")
    prepared = system.prepare(query)

    def read_every_door():
        return (
            _answer(system, query),
            frozenset(session.query(query).to_tuples()),
            frozenset(prepared.execute().to_tuples()),
            json.dumps(system.get("R", key), sort_keys=True, default=str),
        )

    before = read_every_door()
    inside: list = []
    build_planner = Planner.__init__

    def hooked(planner, *args, **kwargs):
        build_planner(planner, *args, **kwargs)
        inside.append(read_every_door())

    monkeypatch.setattr(Planner, "__init__", hooked)
    system.migrate_online(
        new_spec=synthetic_mappings(system.schema)[target], reconcile_after=False
    )
    monkeypatch.undo()
    after = read_every_door()
    assert inside, "the flip built no planner"
    for answers in inside:
        for door, answer in enumerate(answers):
            assert answer in (before[door], after[door]), door


def test_remap_with_concurrent_writer_matches_offline_with_same_writes(monkeypatch):
    """Writes captured by the changelog == the same writes applied quiesced.

    A writer thread updates/deletes/inserts against the online system while
    it remaps M1→M6.  The first backfill batch holds the migration until
    half the writes committed, so those are captured; the rest race the
    backfill, the drain and the flip (stale-template losers are retried).
    Every write is then applied to a quiesced copy *before* its offline
    migration.  Both worlds must converge to identical content.
    """

    online = _synthetic_system("M1")
    offline = _synthetic_system("M1")
    target_spec = synthetic_mappings(online.schema)["M6"]

    keys = [k[0] for k in online.crud.entity_keys("R")]
    ops = (
        [("update", k, {"r_y": 1000 + k}) for k in keys[: len(keys) // 2]]
        + [("delete", keys[-1], None), ("delete", keys[-2], None)]
        + [
            (
                "insert",
                90_000 + i,
                {
                    "r_id": 90_000 + i,
                    "r_x": {"r_x1": i, "r_x2": f"w-{i}"},
                    "r_y": i,
                    "r_mv1": [i],
                    "r_mv2": [i + 1],
                    "r_mv3": [{"x": i, "y": f"mv-{i}"}],
                },
            )
            for i in range(4)
        ]
    )
    committed: list = []
    backfilling = threading.Event()
    half_committed = threading.Event()
    log_batch = OnlineMigrator._log_batch

    def held_first_batch(migrator, kind, count, detail):
        log_batch(migrator, kind, count, detail)
        if not backfilling.is_set():
            backfilling.set()
            assert half_committed.wait(timeout=60), "the writer stalled"

    monkeypatch.setattr(OnlineMigrator, "_log_batch", held_first_batch)

    def writer():
        assert backfilling.wait(timeout=60), "the migration never started"
        for op, key, payload in ops:
            for attempt in (1, 2):
                try:
                    if op == "update":
                        online.update("R", key, payload)
                    elif op == "delete":
                        online.delete("R", key)
                    else:
                        online.insert("R", payload)
                    committed.append((op, key, payload))
                    break
                except SerializationError:
                    # the flip closed the changelog mid-write; the statement
                    # rolled back — retry resolves the new templates
                    assert attempt == 1
            if len(committed) * 2 >= len(ops):
                half_committed.set()

    thread = threading.Thread(target=writer)
    thread.start()
    report = online.migrate_online(new_spec=target_spec, batch_size=3)
    thread.join(timeout=60)
    assert not thread.is_alive(), "the writer did not finish"
    assert len(committed) == len(ops)  # every write committed exactly once
    assert report.changelog_captured >= len(ops) // 2
    assert report.changelog_applied == report.changelog_captured
    assert report.reconcile is not None and report.reconcile.ok

    # replay the same writes on the quiesced copy, then migrate offline
    for op, key, payload in committed:
        if op == "update":
            offline.update("R", key, payload)
        elif op == "delete":
            offline.delete("R", key)
        else:
            offline.insert("R", payload)
    migrator = Migrator(offline.schema, offline.active_mapping(), offline.db)
    new_schema, new_mapping, new_db, _ = migrator.migrate(
        new_spec=synthetic_mappings(offline.schema)["M6"]
    )

    assert _canonical_content(online.schema, online.mapping, online.db) == (
        _canonical_content(new_schema, new_mapping, new_db)
    )


# --------------------------------------------------------------------------
# Deterministic capture: writes between backfill batches
# --------------------------------------------------------------------------

# ``a`` and ``b`` both have a ``city``: a change to ``a.city`` (inherited by
# ``a_sub``) must leave ``b.city`` alone, in the backfill and in the replay.
TWO_CITIES_DDL = """
create entity a (id int primary key, city varchar, street varchar);
create entity a_sub subclass of a (extra varchar);
create entity b (id int primary key, city varchar);
create relationship ab between a (many) and b (many);
"""


def _two_cities_system() -> ErbiumDB:
    system = ErbiumDB("two-cities")
    system.execute_ddl(TWO_CITIES_DDL)
    system.set_mapping()
    for i in range(8):
        system.insert("a", {"id": i, "city": f"c{i}", "street": f"s{i}"})
    for i in range(8, 11):
        system.insert("a_sub", {"id": i, "city": f"c{i}", "street": f"s{i}", "extra": f"e{i}"})
    for i in range(4):
        system.insert("b", {"id": i, "city": f"b{i}"})
    for i in range(6):
        system.link("ab", {"a": i, "b": i % 4})
    return system


def _rolled_back_session(system):
    session = system.session()
    session.begin()
    session.insert("a", {"id": 102, "city": "ghost", "street": "nowhere"})
    session.update("b", 0, {"city": "ghost"})
    session.rollback()


#: write groups, one per backfill batch; each write is one changelog entry
CAPTURED_WRITES = [
    lambda s: (
        s.insert("a", {"id": 100, "city": "new", "street": "n"}),
        s.insert("a_sub", {"id": 101, "city": "new-sub", "street": "m", "extra": "x"}),
    ),
    lambda s: (
        s.update("a", 1, {"city": "moved", "street": "t"}),
        s.update("a_sub", 9, {"city": "sub-moved"}),
        s.update("b", 1, {"city": "b-moved"}),
        s.update("a", 5, {"city": None}),
    ),
    lambda s: (s.delete("a", 2), s.delete("b", 3)),
    lambda s: (s.link("ab", {"a": 7, "b": 0}), s.unlink("ab", {"a": 0, "b": 0})),
    _rolled_back_session,
]
COMMITTED_ENTRIES, ROLLED_BACK_ENTRIES = 10, 2

CAPTURE_CHANGES = [
    ("rename_attribute", lambda: RenameAttribute("a", "city", "town")),
    ("make_multivalued", lambda: MakeAttributeMultiValued("a", "city")),
    ("drop_attribute", lambda: DropAttribute("a", "city")),
    ("drop_relationship", lambda: DropRelationship("ab")),
]


@pytest.mark.parametrize(
    "label,make_change", CAPTURE_CHANGES, ids=[c[0] for c in CAPTURE_CHANGES]
)
def test_writes_between_backfill_batches_match_offline(label, make_change, monkeypatch):
    online = _two_cities_system()
    offline = _two_cities_system()
    old_templates = online.crud

    pending = list(CAPTURED_WRITES)
    log_batch = OnlineMigrator._log_batch

    def write_between_batches(migrator, kind, count, detail):
        log_batch(migrator, kind, count, detail)
        # the "changelog" calls run under the writer lock: leave them be
        if kind in ("entities", "relationships") and pending:
            pending.pop(0)(migrator.system)

    monkeypatch.setattr(OnlineMigrator, "_log_batch", write_between_batches)
    report = online.migrate_online(change=make_change(), batch_size=3)
    monkeypatch.undo()
    assert not pending, "fewer backfill batches than write groups"
    assert report.changelog_captured == COMMITTED_ENTRIES + ROLLED_BACK_ENTRIES
    assert report.changelog_applied == COMMITTED_ENTRIES
    assert report.reconcile is not None and report.reconcile.ok

    for writes in CAPTURED_WRITES:
        writes(offline)
    migrator = Migrator(offline.schema, offline.active_mapping(), offline.db)
    new_schema, new_mapping, new_db, _ = migrator.migrate(change=make_change())
    assert _canonical_content(online.schema, online.mapping, online.db) == (
        _canonical_content(new_schema, new_mapping, new_db)
    )
    assert online.get("b", 1) == {"id": 1, "city": "b-moved"}
    assert online.get("a", 102) is None

    # a straggler on the pre-flip templates must retry against the new layout
    with pytest.raises(SerializationError):
        old_templates.insert_entity(EntityInstance("b", {"id": 50, "city": "late"}))
    online.insert("b", {"id": 50, "city": "late"})
    assert online.get("b", 50) == {"id": 50, "city": "late"}


@pytest.mark.parametrize("online", [True, False], ids=["online", "offline"])
def test_drop_attribute_keeps_a_same_named_attribute_of_another_entity(online):
    system = _two_cities_system()
    change = DropAttribute("a", "city")
    if online:
        report = system.migrate_online(change=change)
        get = system.get
    else:
        migrator = Migrator(system.schema, system.active_mapping(), system.db)
        schema, mapping, db, report = migrator.migrate(change=change)
        crud = CrudTemplates(schema, mapping, db)
        get = lambda entity, key: crud.get_entity(entity, (key,)).values  # noqa: E731
    assert report.dropped_values == 11  # a's eight and a_sub's three cities
    assert get("b", 1) == {"id": 1, "city": "b1"}
    assert get("a", 1) == {"id": 1, "street": "s1"}
    assert get("a_sub", 9) == {"id": 9, "street": "s9", "extra": "e9"}
