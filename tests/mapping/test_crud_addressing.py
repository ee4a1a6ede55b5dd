"""Key-addressed CRUD templates: rows are found by key equality, never by
handing the engine a predicate, and logical answers do not depend on the
mapping."""

from __future__ import annotations

import pytest

from repro import ErbiumDB
from repro.mapping import named_mapping
from repro.relational.cost import INDEX_LOOKUP_COST
from repro.relational.operators import Filter, IndexLookup, SeqScan
from repro.workloads.synthetic import build_synthetic_schema, synthetic_mappings
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


SCHEMAS = {
    "synthetic": (
        build_synthetic_schema,
        lambda schema, label: synthetic_mappings(schema)[label],
    ),
    "university": (
        build_university_schema,
        lambda schema, label: named_mapping(schema, label, co_stored_relationship="takes"),
    ),
}

# a multi-valued value per (entity, attribute), in a deliberately unsorted order
MULTIVALUED = {("R", "r_mv1"): [5, 1, 9, 3], ("person", "phone_numbers"): ["555-2", "555-1"]}


def _loaded(schema_name, label, data):
    build, spec_for = SCHEMAS[schema_name]
    schema = build()
    system = ErbiumDB(f"{schema_name}-{label}", schema)
    system.set_mapping(spec_for(schema, label))
    system.load(data.entities, data.relationships)
    return system


def _settable_attribute(entity, key_names):
    """An own, optional, plain scalar attribute (None when the entity has none)."""

    for attribute in entity.attributes:
        if attribute.name in key_names or attribute.required or attribute.is_derived():
            continue
        if attribute.is_multivalued() or attribute.is_composite():
            continue
        return attribute.name
    return None


@pytest.mark.parametrize("label", MAPPING_LABELS)
@pytest.mark.parametrize("schema_name", sorted(SCHEMAS))
def test_by_key_crud_iterates_no_table(
    schema_name, label, synthetic_data, university_data, table_scans
):
    data = synthetic_data if schema_name == "synthetic" else university_data
    system = _loaded(schema_name, label, data)
    schema, crud, db = system.schema, system.crud, system.db
    for name in db.catalog.table_names():
        # the cost model's statistics sample walks each table once; take it now
        db.statistics.stats_for(db.catalog.table(name), tolerate_drift=True)

    def by_key(call, *args):
        del table_scans[:]
        result = call(*args)
        assert table_scans == [], (call.__name__, args)
        return result

    for entity in schema.entities():
        key = crud.entity_keys(entity.name)[0]
        assert by_key(system.get, entity.name, key) is not None, entity.name
        attribute = _settable_attribute(entity, schema.effective_key(entity.name))
        if attribute is not None:
            # a weak entity under M5 is a field of its owner's nested array
            by_key(system.update, entity.name, key, {attribute: None})
            assert system.get(entity.name, key)[attribute] is None
        for attribute in entity.attributes:
            value = MULTIVALUED.get((entity.name, attribute.name))
            if value is not None:
                by_key(system.update, entity.name, key, {attribute.name: value})
                assert system.get(entity.name, key)[attribute.name] == value

    for relationship in schema.relationships():
        if relationship.identifying:
            continue
        left, right = relationship.participants
        source = crud.entity_keys(left.entity)[0]
        pairs = crud.relationship_pairs(relationship.name)
        linked = {dst for src, dst in pairs if src == source}
        target = next(k for k in crud.entity_keys(right.entity) if k not in linked)
        endpoints = {left.label: source, right.label: target}
        by_key(system.link, relationship.name, endpoints)
        assert (source, target) in crud.relationship_pairs(relationship.name)
        by_key(system.unlink, relationship.name, endpoints)
        assert (source, target) not in crud.relationship_pairs(relationship.name)

    for entity in schema.entities():
        key = crud.entity_keys(entity.name)[-1]
        by_key(system.delete, entity.name, key)
        assert system.get(entity.name, key) is None, entity.name


def _plan_nodes(plan):
    yield plan
    for child in plan.children():
        yield from _plan_nodes(child)


@pytest.mark.parametrize("label", MAPPING_LABELS)
def test_access_builder_cost_model_and_executor_share_the_index_rule(label, mapped_systems):
    system = mapped_systems[label]
    lookups = []
    for entity in system.schema.entities():
        key = system.crud.entity_keys(entity.name)[0]
        key_equals = dict(zip(system.schema.effective_key(entity.name), key))
        plan = system.crud.access.entity_scan(entity.name, entity.name, key_equals=key_equals)
        lookups += [node for node in _plan_nodes(plan) if isinstance(node, IndexLookup)]
    side_tables = {
        placement.table
        for placement in system.mapping.attribute_placements.values()
        if placement.kind == "side_table"
    }
    assert side_tables <= {node.table_name for node in lookups}
    for node in lookups:
        # the executor's rule: Table.lookup answers from an index on exactly these columns
        assert system.db.catalog.table(node.table_name).index_on(node.columns), node.label()
        assert system.db.cost_model.estimate(node).cost == INDEX_LOOKUP_COST * len(node.keys)


@pytest.mark.parametrize("label", MAPPING_LABELS)
def test_multivalued_order_survives_rolled_back_writes(label, synthetic_data):
    """Index postings come back in slot order, like the scan they replace."""

    system = _loaded("synthetic", label, synthetic_data)
    key = system.crud.entity_keys("R")[0]
    system.update("R", key, {"r_mv1": [5, 1, 9, 3]})
    for write in (
        lambda session: session.update("R", key, {"r_mv1": [7]}),
        lambda session: session.delete("R", key),
    ):
        with pytest.raises(RuntimeError):
            with system.session() as session:
                write(session)
                raise RuntimeError("roll back")
        # undo re-inserts the deleted rows last-first
        assert system.get("R", key)["r_mv1"] == [5, 1, 9, 3]


def test_a_key_without_an_exact_index_is_a_filtered_scan(synthetic_data):
    system = _loaded("synthetic", "M1", synthetic_data)
    key = system.crud.entity_keys("R")[0]
    expected = system.get("R", key)
    for table_name in ("r", "r_r_mv1"):
        table = system.db.catalog.table(table_name)
        for name, index in table.indexes().items():
            if index.columns == ("r_id",):
                table.drop_index(name)
    plan = system.crud.access.entity_scan("R", "R", key_equals={"r_id": key[0]})
    nodes = list(_plan_nodes(plan))
    assert not {node.table_name for node in nodes if isinstance(node, IndexLookup)} & {
        "r",
        "r_r_mv1",
    }
    filtered = {
        node.child.table_name
        for node in nodes
        if isinstance(node, Filter) and isinstance(node.child, SeqScan)
    }
    assert {"r", "r_r_mv1"} <= filtered
    assert system.get("R", key) == expected
