"""The placement descriptor and its three readers: catch-up decoding,
erasure, and the CRUD delete rule.

The law: decoding every row of a load gives exactly the loaded entity
identities and non-identifying pairs, under every mapping (the lens
round-trip, encode then decode is the identity).
"""

from __future__ import annotations

import pytest

from repro import ErbiumDB
from repro.evolution import Migrator
from repro.governance import ErasureReport, ErasureService
from repro.mapping import CrudTemplates, named_mapping
from repro.workloads.synthetic import (
    build_synthetic_schema,
    generate_synthetic_data,
    synthetic_mappings,
)
from repro.workloads.university import build_university_schema, generate_university_data
from tests.conftest import MAPPING_LABELS, SYNTHETIC_SCALE, build_university_system


def _loaded_identities(schema, data):
    entities = {
        ("entity", schema.hierarchy_root(i.entity_set).name,
         tuple(i.values[k] for k in schema.effective_key(i.entity_set)))
        for i in data.entities
    }  # fmt: skip
    pairs = set()
    for instance in data.relationships:
        relationship = schema.relationship(instance.relationship_set)
        if not relationship.identifying:
            ends = (tuple(instance.endpoint(label)) for label in relationship.labels())
            pairs.add(("pair", relationship.name, *ends))
    return entities, pairs


#: schema, dataset and spec per schema; university M6 co-stores ``takes``
DATASETS = {
    "synthetic": (
        build_synthetic_schema,
        lambda: generate_synthetic_data(scale=SYNTHETIC_SCALE, seed=42),
        lambda schema, label: synthetic_mappings(schema)[label],
    ),
    "university": (
        build_university_schema,
        lambda: generate_university_data(students=20, instructors=4, courses=6, seed=7),
        lambda schema, label: named_mapping(schema, label, co_stored_relationship="takes"),
    ),
}


def _load(dataset: str, label: str):
    build_schema, build_data, spec_for = DATASETS[dataset]
    schema, data = build_schema(), build_data()
    system = ErbiumDB(f"{dataset}-{label}", schema)
    system.set_mapping(spec_for(schema, label))
    system.load(data.entities, data.relationships)
    return system, data


@pytest.mark.parametrize("label", MAPPING_LABELS)
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_decoding_every_row_of_a_load_gives_the_loaded_instances(dataset, label):
    system, data = _load(dataset, label)

    descriptor = system.mapping.descriptor(system.schema)
    assert descriptor is system.mapping.descriptor(system.schema)  # built once
    assert set(descriptor.tables) == set(system.mapping.tables)  # every row carries a fact
    decoded = set()
    for table in descriptor.tables:
        for row in system.db.catalog.table(table).rows():
            decoded.update(descriptor.decode(table, row))
    entities, pairs = _loaded_identities(system.schema, data)
    assert {i for i in decoded if i[0] == "entity"} == entities
    assert {i for i in decoded if i[0] == "pair"} == pairs


# -- erasure ------------------------------------------------------------------


@pytest.mark.parametrize("label", MAPPING_LABELS)
def test_erasing_through_a_supertype_leaves_no_row_holding_the_key(label):
    system, _ = _load("synthetic", label)
    assert system.get("R2", 30) is not None  # 30 is an R2 ...
    assert system.related("r2_s1", "R2", 30)  # ... with r2_s1 rows to clear
    erasure = ErasureService(system.schema, system.mapping, system.db)
    assert erasure.footprint("R", 30)

    report = erasure.erase("R", 30)

    holding = [
        (table.name, column)
        for table in system.db.catalog.tables()
        for row in table.rows()
        for column, value in row.items()
        if column.endswith("r_id") and value == 30
    ]
    assert holding == []
    assert report.verified and report.residual_occurrences == []
    assert erasure.footprint("R", 30) == {}
    assert system.related("r2_s1", "R2", 30) == []


@pytest.mark.parametrize("label", MAPPING_LABELS)
def test_erasing_an_owner_erases_its_weak_dependants(label):
    system, _ = _load("university", label)
    erasure = ErasureService(system.schema, system.mapping, system.db)
    course = system.crud.entity_keys("course")[0]
    sections = erasure.dependants("course", course)
    assert sections and all(entity == "section" for entity, _ in sections)

    report = erasure.erase("course", course)

    assert [key for _, key in sections if system.get("section", key) is not None] == []
    assert report.dependants_erased == sections
    assert report.verified and report.residual_occurrences == []


# -- the delete rule ----------------------------------------------------------


@pytest.mark.parametrize("label", MAPPING_LABELS)
def test_unlinking_a_pair_keeps_both_entities(label):
    system, _ = _load("synthetic", label)
    assert sorted(system.related("r2_s1", "R2", 30)) == [(22, 1), (28, 2)]  # (28, 2)'s only pair

    assert system.unlink("r2_s1", {"R2": 30, "S1": (28, 2)}) == 1

    assert system.get("S1", (28, 2)) is not None
    assert system.get("R2", 30) is not None
    assert system.related("r2_s1", "R2", 30) == [(22, 1)]
    system.link("r2_s1", {"R2": 33, "S1": (28, 2)})
    assert (28, 2) in system.related("r2_s1", "R2", 33)


@pytest.mark.parametrize("label", MAPPING_LABELS)
def test_deleting_a_subtype_deletes_the_key_from_its_whole_hierarchy(label):
    system, _ = _load("synthetic", label)
    assert system.get("R2", 31) is not None

    system.delete("R2", 31)

    assert system.get("R2", 31) is None
    assert system.get("R", 31) is None
    assert (31,) not in system.crud.entity_keys("R")


@pytest.mark.parametrize("label", MAPPING_LABELS)
def test_deleting_an_owner_deletes_its_weak_dependants(label):
    system, _ = _load("university", label)
    sections = [key for key in system.crud.entity_keys("section") if key[0] == 2]
    assert len(sections) == 2

    system.delete("course", 2)

    assert [key for key in sections if system.get("section", key) is not None] == []
    for relationship in ("takes", "teaches"):
        pairs = system.crud.relationship_pairs(relationship)
        assert [pair for pair in pairs if pair[1] in sections] == [], relationship


#: one fixed write sequence per schema: a delete through a supertype, an
#: unlink then re-link of a (co-stored under M6) pair, a delete of an owner
#: with weak dependants, a delete of a subtype; then the keys they touched
SEQUENCES = {
    "synthetic": (
        lambda s: (
            s.delete("R", 32),  # an R2, paired with (2, 0) and (23, 1)
            s.unlink("r2_s1", {"R2": 30, "S1": (28, 2)}),
            s.link("r2_s1", {"R2": 33, "S1": (28, 2)}),
            s.delete("S", 22),  # owns S1 (22, 0) and (22, 1), which have pairs
            s.delete("R2", 31),
        ),
        [("R", (k,)) for k in (30, 31, 32, 33, 34, 37)]
        + [("R2", (k,)) for k in (30, 31, 32, 33, 34, 37)]
        + [("S", (k,)) for k in (22, 27)]
        + [("S1", k) for k in ((2, 0), (23, 1), (28, 2), (22, 0), (22, 1), (16, 0), (17, 0))]
        + [("S2", (22, k)) for k in range(3)],
    ),
    "university": (
        lambda s: (
            s.delete("person", 5),  # a student, with an advisor and four sections
            s.unlink("takes", {"student": 4, "section": (0, 1)}),
            s.link("takes", {"student": 7, "section": (0, 1)}),
            s.delete("course", 2),  # owns sections (2, 0) and (2, 1)
            s.delete("instructor", 3),  # advises six students
        ),
        [("person", (k,)) for k in (3, 4, 5, 6, 7)]
        + [("student", (k,)) for k in (4, 5, 6, 7)]
        + [("instructor", (k,)) for k in (1, 3)]
        + [("course", (k,)) for k in (0, 2, 3)]
        + [("section", k) for k in ((0, 1), (2, 0), (2, 1), (1, 0))],
    ),
}


def _observe(system, touched):
    """``get``, ``related`` and ``get_documents`` of every touched key."""

    schema, seen = system.schema, {}
    for entity, key in touched:
        seen[("get", entity, key)] = system.get(entity, key)
        for relationship in schema.relationships():
            if not relationship.identifying and entity in relationship.entity_names():
                seen[(relationship.name, entity, key)] = sorted(
                    system.related(relationship.name, entity, key)
                )
        if schema.weak_entities_of(entity):
            seen[("documents", entity, key)] = system.crud.get_documents(entity, [key])
    return seen


@pytest.mark.parametrize("dataset", sorted(SEQUENCES))
def test_one_write_sequence_reads_the_same_under_every_mapping(dataset, table_scans):
    writes, touched = SEQUENCES[dataset]
    observed = {}
    for label in MAPPING_LABELS:
        system, _ = _load(dataset, label)
        for name in system.db.catalog.table_names():
            # the cost model's statistics sample walks each table once; take it now
            system.db.statistics.stats_for(system.db.catalog.table(name), tolerate_drift=True)
        del table_scans[:]
        writes(system)
        assert table_scans == [], label  # every write finds its rows by key
        observed[label] = _observe(system, touched)
    for label in MAPPING_LABELS:
        assert observed[label] == observed["M1"], label


def test_erasure_report_describes_itself():
    system = build_university_system(students=6, instructors=2, courses=3)
    erasure = ErasureService(system.schema, system.mapping, system.db)
    course = system.crud.entity_keys("course")[0]
    report = erasure.erase("course", course)
    described = report.describe()
    assert described == {
        "entity": "course",
        "key": list(course),
        "rows_removed": report.rows_removed,
        "dependants_erased": [
            {"entity": "section", "key": list(key)} for _, key in report.dependants_erased
        ],
        "verified": True,
        "residual_occurrences": [],
    }
    assert described["dependants_erased"] and described["rows_removed"] >= 1
    assert ErasureReport("x", (1,)).describe()["verified"] is False


# -- self-relationship --------------------------------------------------------


def _prereq_rows(mapping, db):
    placement = mapping.relationship_placement("prereq")
    course, prerequisite = (placement.role_columns[r] for r in ("course", "prerequisite"))
    return sorted(
        (tuple(row[c] for c in course), tuple(row[c] for c in prerequisite))
        for row in db.catalog.table(placement.table).rows()
    )


@pytest.mark.parametrize("label", MAPPING_LABELS)
def test_deleting_a_course_clears_both_sides_of_prereq(label):
    system, _ = _load("university", label)
    assert ((3,), (2,)) in _prereq_rows(system.mapping, system.db)  # 2 is 3's prerequisite

    system.delete("course", 2)

    assert all((2,) not in pair for pair in _prereq_rows(system.mapping, system.db))
    assert all((2,) not in pair for pair in system.crud.relationship_pairs("prereq"))


def test_self_relationship_reads_take_each_role_once():
    system = build_university_system()
    stored = _prereq_rows(system.mapping, system.db)
    assert stored == [((3,), (2,)), ((4,), (0,)), ((5,), (0,))]
    assert sorted(system.crud.relationship_pairs("prereq")) == stored
    assert system.related("prereq", "course", 3) == [(2,)]
    assert system.related("prereq", "course", 2) == []
    query = "select c.course_id, p.course_id from course c join course p on prereq"
    for executor in ("row", "batch"):
        rows = system.query(query, executor=executor).sorted_tuples()
        assert rows == [(3, 2), (4, 0), (5, 0)], executor


@pytest.mark.parametrize("online", [True, False], ids=["online", "offline"])
def test_migration_keeps_prereq_pairs(online):
    system = build_university_system()
    stored = _prereq_rows(system.mapping, system.db)
    spec = named_mapping(system.schema, "M2")
    if online:
        system.migrate_online(new_spec=spec)
        schema, mapping, db = system.schema, system.mapping, system.db
    else:
        migrator = Migrator(system.schema, system.mapping, system.db)
        schema, mapping, db, _ = migrator.migrate(new_spec=spec)
    assert _prereq_rows(mapping, db) == stored
    assert sorted(CrudTemplates(schema, mapping, db).relationship_pairs("prereq")) == stored
