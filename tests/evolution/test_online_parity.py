"""Differential parity: online migration vs. the offline Migrator.

The online protocol (backfill under a read view + catch-up by key re-copy +
flip) must be *observationally identical* to the offline one (quiesce, extract,
transform, reload).  Each test runs both against systems loaded from the
same seed — the online one while concurrent reader (and, for remaps, writer)
sessions keep hitting it — and compares the full logical content plus query
results under both executors.

Covers every schema change in :mod:`repro.evolution.changes` and remap pairs
across the paper's M1–M6 designs.
"""

from __future__ import annotations

import json
import sys
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
from repro.governance import ErasureService
from repro import ErbiumDB
from repro.erql import Planner
from repro.mapping import CrudTemplates, MappingSpec, named_mapping
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
    """Writes re-copied by catch-up == the same writes applied quiesced.

    A writer thread updates/deletes/inserts against the online system while
    it remaps M1→M6.  The first backfill batch holds the migration until
    half the writes committed, so those are re-copied; the rest race the
    backfill, the catch-up rounds and the flip (losers retry).
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
                    # the flip retired the old database mid-write; the
                    # statement rolled back — retry resolves the new layout
                    assert attempt == 1
            if len(committed) * 2 >= len(ops):
                half_committed.set()

    thread = threading.Thread(target=writer)
    thread.start()
    report = online.migrate_online(new_spec=target_spec, batch_size=3)
    thread.join(timeout=60)
    assert not thread.is_alive(), "the writer did not finish"
    assert len(committed) == len(ops)  # every write committed exactly once
    # every write committed after the backfill's view was pinned, so each
    # written key differs from its backfilled copy and is re-copied at least
    # once; a key decoded in a round can still match (its write came later)
    assert report.changelog_applied >= len({key for _, key, _ in committed})
    assert report.changelog_captured >= report.changelog_applied
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
# Deterministic catch-up: writes between backfill batches
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


#: write groups, one per backfill batch
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
#: What the first catch-up round decodes from the slots those writes touched
#: — ``(entity, key)`` or ``(relationship, a, b)``: every written entity key,
#: and each written join row's pair with both endpoints.  The rolled-back
#: insert leaves a slot that is empty in both views, so it decodes nothing.
DECODED = (
    {("a", k) for k in (100, 101, 1, 9, 5, 2, 3, 7, 0)}
    | {("b", k) for k in (1, 2, 3, 0)}
    | {("ab", 2, 2), ("ab", 3, 3), ("ab", 7, 0), ("ab", 0, 0)}
)
#: Decoded but already as the backfill copied them: endpoints a delete or a
#: (un)link only passed through, and b0, whose update rolled back.
UNCHANGED = {("a", 3), ("a", 7), ("a", 0), ("b", 2), ("b", 0)}

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
    old_erasure = ErasureService(online.schema, online.mapping, online.db)

    pending = list(CAPTURED_WRITES)
    log_batch = OnlineMigrator._log_batch

    def write_between_batches(migrator, kind, count, detail):
        log_batch(migrator, kind, count, detail)
        # write during the backfill only, not between catch-up rounds
        if kind in ("entities", "relationships") and pending:
            pending.pop(0)(migrator.system)

    monkeypatch.setattr(OnlineMigrator, "_log_batch", write_between_batches)
    report = online.migrate_online(change=make_change(), batch_size=3)
    monkeypatch.undo()
    assert not pending, "fewer backfill batches than write groups"
    applied = DECODED - UNCHANGED
    if label == "drop_relationship":  # the target has no pairs to re-copy
        applied = {identity for identity in applied if identity[0] != "ab"}
    if label == "drop_attribute":  # a9's and a5's writes set only the dropped city
        applied -= {("a", 9), ("a", 5)}
    assert report.changelog_captured == len(DECODED)
    assert report.changelog_applied == len(applied)
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

    # stragglers on the pre-flip layout must retry against the new one
    with pytest.raises(SerializationError):
        old_templates.insert_entity(EntityInstance("b", {"id": 50, "city": "late"}))
    with pytest.raises(SerializationError):
        old_erasure.erase("b", 1)
    assert online.get("b", 1) == {"id": 1, "city": "b-moved"}
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


# --------------------------------------------------------------------------
# Catch-up reads committed state: writers the live templates never see
# --------------------------------------------------------------------------


def _migrate_with_write(system, write, monkeypatch, **migrate_kwargs):
    """``migrate_online`` with ``write(system)`` run after the first backfill batch."""

    pending = [write]
    log_batch = OnlineMigrator._log_batch

    def write_after_first_batch(migrator, kind, count, detail):
        log_batch(migrator, kind, count, detail)
        if kind == "entities" and pending:
            pending.pop()(migrator.system)

    monkeypatch.setattr(OnlineMigrator, "_log_batch", write_after_first_batch)
    report = system.migrate_online(**migrate_kwargs)
    monkeypatch.undo()
    assert not pending, "the backfill ran no batch"
    return report


ADVISOR_JOIN_TABLE = MappingSpec(relationship={"advisor": "join_table"})


def test_erasure_between_backfill_batches_stays_erased(monkeypatch):
    """An erasure through a service's own templates is not undone by the flip."""

    system = build_university_system()
    erasure = ErasureService(system.schema, system.mapping, system.db)
    before = system.get("student", 20)
    assert before is not None and before["phone_numbers"]
    erased = []
    report = _migrate_with_write(
        system,
        lambda s: erased.append(erasure.erase("student", 20)),
        monkeypatch,
        new_spec=ADVISOR_JOIN_TABLE,
        batch_size=8,
    )
    assert erased[0].verified
    assert system.get("student", 20) is None
    assert system.count("student") == len(system.crud.entity_keys("student"))
    assert report.changelog_applied >= 1
    assert report.reconcile is not None and report.reconcile.ok


def test_raw_db_write_between_backfill_batches_survives_the_flip(monkeypatch):
    """A write straight to a table of the old layout reaches the new one."""

    system = build_university_system()
    old_db = system.db

    def raw_write(db, credits):
        [row_id] = db.table("student").lookup_ids(("person_id",), (20,))
        db.update_row("student", row_id, {"tot_credits": credits})

    _migrate_with_write(
        system,
        lambda s: raw_write(s.db, 999),
        monkeypatch,
        new_spec=ADVISOR_JOIN_TABLE,
        batch_size=8,
    )
    assert system.db is not old_db
    assert system.get("student", 20)["tot_credits"] == 999
    # the flip retired the old database: a raw write that reaches it refuses
    with pytest.raises(SerializationError):
        raw_write(old_db, 1)
    assert system.get("student", 20)["tot_credits"] == 999


@pytest.mark.parametrize("outcome", ["commit", "rollback"])
def test_write_transaction_open_across_a_catch_up_pin(outcome, monkeypatch):
    """A round's view holds committed data only, so a transaction open at
    its pin is copied by the round after it ends — or never, if it rolls
    back.  The transaction runs on the migrating thread, the one place it
    can stay open across a pin (the writer lock is reentrant)."""

    system = _two_cities_system()
    session = system.session()
    steps: list = []
    log_batch = OnlineMigrator._log_batch

    def hook(migrator, kind, count, detail):
        log_batch(migrator, kind, count, detail)
        if kind == "entities" and not steps:
            system.update("b", 2, {"city": "committed"})
            session.begin()
            session.update("b", 1, {"city": "open"})
            session.insert("a", {"id": 200, "city": "open", "street": "o"})
            steps.append("open")
        elif kind == "changelog" and steps == ["open"]:
            shadow = migrator.shadow_crud
            assert shadow.get_entity("b", (2,)).values["city"] == "committed"
            assert shadow.get_entity("b", (1,)).values["city"] == "b1"
            assert shadow.get_entity("a", (200,)) is None
            getattr(session, outcome)()
            steps.append(outcome)

    monkeypatch.setattr(OnlineMigrator, "_log_batch", hook)
    report = system.migrate_online(new_spec=named_mapping(system.schema, "M2"), batch_size=3)
    monkeypatch.undo()
    assert steps == ["open", outcome]
    assert report.reconcile is not None and report.reconcile.ok
    assert system.get("b", 2)["city"] == "committed"
    if outcome == "commit":
        assert system.get("b", 1)["city"] == "open"
        assert system.get("a", 200) == {"id": 200, "city": "open", "street": "o"}
    else:
        assert system.get("b", 1)["city"] == "b1"
        assert system.get("a", 200) is None


def _one_of_each_write(system):
    """Updates, (un)links, deletes and inserts of strong and weak entities and
    of both relationships, keys read off ``system`` (same picks on any copy)."""

    partners = {k[0]: system.related("r2_s1", "R2", k) for k in system.crud.entity_keys("R2")}
    first, second, third, fourth = sorted(partners)[:4]
    moved = next(s1 for s1 in partners[first] if s1 not in partners[third])
    doomed = next(k for k in system.crud.entity_keys("S1") if k not in partners[first])
    lone = next(s1 for s1 in partners[fourth] if sum(s1 in p for p in partners.values()) == 1)
    system.update("R", first, {"r_y": 4242})
    system.update("S1", moved, {"s1_x": 777})
    system.link("r2_s1", {"R2": third, "S1": moved})
    system.unlink("r2_s1", {"R2": first, "S1": moved})
    system.unlink("r2_s1", {"R2": fourth, "S1": lone})  # co-stored, S1 keeps its row
    system.update("S1", partners[second][-1], {"s1_y": "kept"})
    system.delete("R", second)  # a co-stored layout keeps its S1s as placeholders
    system.delete("S1", doomed)
    system.insert("S", {"s_id": 9000, "s_x": 1, "s_y": "new"})
    system.insert("S1", {"s_id": 9000, "s1_id": 0, "s1_x": 2, "s1_y": "new-weak"})
    system.link("r_s", {"R": third, "S": 9000})


@pytest.mark.parametrize(
    "source,target",
    [("M1", "M6"), ("M6", "M1"), ("M1", "M5"), ("M5", "M1"), ("M2", "M3"), ("M3", "M4"),
     ("M4", "M2"), ("M6", "M5")],  # fmt: skip
    ids=lambda label: label,
)
def test_remap_with_writes_between_batches_matches_offline(source, target, monkeypatch):
    """Every placement kind decodes: co-stored, nested, single-table,
    disjoint and delta rows, side tables, join tables and FK folds."""

    online = _synthetic_system(source)
    offline = _synthetic_system(source)
    target_spec = synthetic_mappings(online.schema)[target]
    report = _migrate_with_write(
        online, _one_of_each_write, monkeypatch, new_spec=target_spec, batch_size=16
    )
    assert report.reconcile is not None and report.reconcile.ok
    assert report.changelog_applied > 0

    _one_of_each_write(offline)
    migrator = Migrator(offline.schema, offline.active_mapping(), offline.db)
    new_schema, new_mapping, new_db, _ = migrator.migrate(new_spec=target_spec)
    assert _canonical_content(online.schema, online.mapping, online.db) == (
        _canonical_content(new_schema, new_mapping, new_db)
    )


def test_raw_truncate_between_backfill_batches_matches_offline(monkeypatch):
    """A truncate cuts every slot of a table; the rows it cut are still
    written slots, so their pre-images decode and the shadow drops them."""

    online = _two_cities_system()
    offline = _two_cities_system()
    truncate = lambda system: system.db.truncate(system.mapping.entity_placement("b").table)  # noqa: E731
    _migrate_with_write(online, truncate, monkeypatch, change=RenameAttribute("a", "city", "town"))
    truncate(offline)
    migrator = Migrator(offline.schema, offline.active_mapping(), offline.db)
    new_schema, new_mapping, new_db, _ = migrator.migrate(change=RenameAttribute("a", "city", "town"))
    assert online.count("b") == 0
    assert _canonical_content(online.schema, online.mapping, online.db) == (
        _canonical_content(new_schema, new_mapping, new_db)
    )


def test_concurrent_writers_lose_no_committed_update():
    """More writers than cores, a short switch interval: every update that
    committed on the old layout is in the new one.  Writers stop once they
    see the flip, so no later write can paper over a lost one."""

    system = _synthetic_system("M1")
    old_db = system.db
    keys = [k[0] for k in system.crud.entity_keys("R")]
    last: dict = {}
    errors: list = []

    def writer(mine):
        value = 0
        try:
            while system.db is old_db:
                for key in mine:
                    value += 1
                    while True:
                        try:
                            system.update("R", key, {"r_y": value})
                            break
                        except SerializationError:
                            pass  # the flip retired the database under us: retry
                    last[key] = value
        except Exception as exc:  # pragma: no cover - fails the test below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(keys[i::4],)) for i in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        report = system.migrate_online(
            new_spec=synthetic_mappings(system.schema)["M6"], batch_size=4
        )
    finally:
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads), "a writer did not stop"
    assert not errors, errors
    assert report.reconcile is not None and report.reconcile.ok
    assert report.changelog_applied > 0
    assert {key: system.get("R", key)["r_y"] for key in last} == last
