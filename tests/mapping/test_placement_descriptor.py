"""The placement descriptor and its three readers: catch-up decoding,
erasure, and the delete's relationship traces.

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
def test_erasing_an_owner_without_cascade_reports_its_weak_dependants(label):
    system, _ = _load("university", label)
    erasure = ErasureService(system.schema, system.mapping, system.db)
    course = system.crud.entity_keys("course")[0]
    sections = erasure.dependants("course", course)
    assert sections

    report = erasure.erase("course", course, cascade_weak=False)

    left = [key for _, key in sections if system.get("section", key) is not None]
    if system.mapping.entity_placement("section").kind == "nested_in_owner":
        assert left == [] and report.verified  # folded into the deleted course row
    else:
        assert left == [key for _, key in sections]
        assert not report.verified
        assert system.mapping.entity_placement("section").table in report.residual_occurrences


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
