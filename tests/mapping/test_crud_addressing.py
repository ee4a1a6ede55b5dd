"""Key-addressed CRUD templates: rows are found by key equality, never by
handing the engine a predicate, and logical answers do not depend on the
mapping."""

from __future__ import annotations

import pytest

from repro import ErbiumDB
from repro.mapping import named_mapping
from repro.relational.table import Table
from repro.workloads.synthetic import synthetic_mappings
from repro.workloads.university import build_university_schema
from tests.conftest import MAPPING_LABELS


@pytest.fixture(scope="module")
def university_systems(university_data):
    systems = {}
    for label in MAPPING_LABELS:
        schema = build_university_schema()
        system = ErbiumDB(f"university-{label}", schema)
        system.set_mapping(named_mapping(schema, label, co_stored_relationship="takes"))
        system.load(university_data.entities, university_data.relationships)
        systems[label] = system
    return systems


def _assert_related_matches_pairs(system):
    crud = system.crud
    for relationship in system.schema.relationships():
        source = relationship.participants[0].entity
        pairs = crud.relationship_pairs(relationship.name)
        assert pairs, relationship.name
        for key in crud.entity_keys(source):
            expected = [dst for src, dst in pairs if src == key]
            assert crud.related_keys(relationship.name, source, key) == expected, (
                relationship.name,
                key,
            )


@pytest.mark.parametrize("label", MAPPING_LABELS)
def test_related_keys_is_relationship_pairs_restricted_to_one_source(
    label, mapped_systems, university_systems
):
    _assert_related_matches_pairs(mapped_systems[label])
    _assert_related_matches_pairs(university_systems[label])


E7A_KEYS = [(k,) for k in range(20)]


def test_get_documents_do_not_depend_on_the_mapping(mapped_systems):
    documents = {
        label: system.crud.get_documents("S", E7A_KEYS, include_weak=True)
        for label, system in mapped_systems.items()
    }
    reference = documents["M1"]
    assert len(reference) == len(E7A_KEYS)
    assert all(document["S1"] and document["S2"] for document in reference)
    for child in reference[0]["S1"]:
        assert "s_id" not in child  # the enclosing document carries the owner key
    for label in MAPPING_LABELS:
        assert documents[label] == reference, label


@pytest.fixture()
def lookup_log(monkeypatch):
    """Record every table iteration and every key lookup (with whether an
    index on exactly the addressed columns answered it)."""

    log = {"scans": [], "lookups": []}
    rows_with_ids, lookup_ids = Table.rows_with_ids, Table.lookup_ids

    def counted_rows_with_ids(table):
        log["scans"].append(table.name)
        return rows_with_ids(table)

    def counted_lookup_ids(table, columns, key):
        log["lookups"].append((table.name, table.index_on(tuple(columns)) is not None))
        return lookup_ids(table, columns, key)

    monkeypatch.setattr(Table, "rows_with_ids", counted_rows_with_ids)
    monkeypatch.setattr(Table, "lookup_ids", counted_lookup_ids)
    return log


def test_by_key_writes_scan_only_where_no_index_covers_the_key(
    synthetic_schema, synthetic_data, lookup_log
):
    system = ErbiumDB("M1", synthetic_schema.clone("M1"))
    system.set_mapping(synthetic_mappings(system.schema)["M1"])
    system.load(synthetic_data.entities, synthetic_data.relationships)
    r_id, s_id = system.crud.relationship_pairs("r_s")[0]

    def run(operation):
        del lookup_log["scans"][:], lookup_log["lookups"][:]
        operation()
        unindexed = sorted(name for name, indexed in lookup_log["lookups"] if not indexed)
        # every table iteration is the fallback of a key lookup no index covers
        assert sorted(lookup_log["scans"]) == unindexed
        return set(lookup_log["scans"])

    # a foreign-key fold is addressed by the many side's key, a join table by
    # the full set of endpoints: both are primary keys
    assert run(lambda: system.unlink("r_s", {"R": r_id, "S": s_id})) == set()
    r2_id, s1_id = system.crud.relationship_pairs("r2_s1")[0]
    assert run(lambda: system.unlink("r2_s1", {"R2": r2_id, "S1": s1_id})) == set()
    assert (r2_id, s1_id) not in system.crud.relationship_pairs("r2_s1")
    # side tables are keyed on (owner key, value): the owner key alone scans
    assert run(lambda: system.update("R", r_id, {"r_mv1": [1, 2, 3]})) == {"r_r_mv1"}
    assert system.get("R", r_id)["r_mv1"] == [1, 2, 3]
    assert "s" not in run(lambda: system.delete("S", s_id))
    assert system.get("S", s_id) is None
