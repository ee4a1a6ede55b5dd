"""Shared fixtures: schemas, datasets and mapped systems.

Session-scoped fixtures build the expensive objects (six mapped databases for
the Figure 4 schema, one mapped university system) exactly once; tests that
mutate data build their own instances from the cheap factories instead.
"""

from __future__ import annotations

import pytest

from repro import ErbiumDB
from repro.relational import Database
from repro.relational.table import Table
from repro.workloads.synthetic import (
    build_synthetic_schema,
    generate_synthetic_data,
    synthetic_mappings,
)
from repro.workloads.university import (
    build_university_schema,
    generate_university_data,
)

SYNTHETIC_SCALE = 60
MAPPING_LABELS = ("M1", "M2", "M3", "M4", "M5", "M6")


@pytest.fixture(scope="session")
def university_schema():
    return build_university_schema()


@pytest.fixture(scope="session")
def university_data():
    return generate_university_data(students=40, instructors=6, courses=10, seed=7)


@pytest.fixture(scope="session")
def synthetic_schema():
    return build_synthetic_schema()


@pytest.fixture(scope="session")
def synthetic_data():
    return generate_synthetic_data(scale=SYNTHETIC_SCALE, seed=42)


@pytest.fixture(scope="session")
def synthetic_specs(synthetic_schema):
    return synthetic_mappings(synthetic_schema)


@pytest.fixture(scope="session")
def mapped_systems(synthetic_schema, synthetic_specs, synthetic_data):
    """One loaded read-only ErbiumDB per mapping label (M1..M6)."""

    systems = {}
    for label in MAPPING_LABELS:
        system = ErbiumDB(label, synthetic_schema.clone(label))
        system.set_mapping(synthetic_specs[label])
        system.load(synthetic_data.entities, synthetic_data.relationships)
        systems[label] = system
    return systems


@pytest.fixture(scope="session")
def university_system(university_schema, university_data):
    """A loaded university ErbiumDB under the default (normalized) mapping."""

    system = ErbiumDB("university", university_schema.clone("university"))
    system.set_mapping()
    system.load(university_data.entities, university_data.relationships)
    return system


@pytest.fixture()
def empty_db():
    return Database("test")


@pytest.fixture()
def table_scans(monkeypatch):
    """Names of the tables walked row by row while the test runs.

    Every ``Table.rows`` / ``rows_with_ids`` call is recorded:
    the walk a key lookup falls back to when no index is on exactly its
    columns, and the row executor's sequential scans.  ``del
    table_scans[:]`` opens a new window.
    """

    scans = []
    for name in ("rows", "rows_with_ids"):

        def counted(table, _walk=getattr(Table, name)):
            scans.append(table.name)
            return _walk(table)

        monkeypatch.setattr(Table, name, counted)
    return scans


def build_university_system(students: int = 20, instructors: int = 4, courses: int = 6,
                            seed: int = 7) -> ErbiumDB:
    """A small, freshly-loaded university system for tests that mutate data."""

    schema = build_university_schema()
    data = generate_university_data(
        students=students, instructors=instructors, courses=courses, seed=seed
    )
    system = ErbiumDB("university-mutable", schema)
    system.set_mapping()
    system.load(data.entities, data.relationships)
    return system
