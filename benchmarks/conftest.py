"""Shared benchmark fixtures.

``BENCH_SCALE`` R entities keep the whole suite in seconds on a laptop (the
paper uses ≈5M rows).  Performance numbers come from ``erbench``; these
benchmarks check the paper's *directions* (which mapping wins).
"""

import pytest

from repro import ErbiumDB
from repro.workloads.synthetic import (
    build_synthetic_schema,
    generate_synthetic_data,
    synthetic_mappings,
)

BENCH_SCALE = 400


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ so unit runs can deselect it.

    ``pytest -m "not benchmark"`` runs the fast tier-1 tests only; the full
    invocation (no ``-m``) still runs both suites.
    """

    for item in items:
        if "benchmarks" in item.nodeid.split("::", 1)[0]:
            item.add_marker(pytest.mark.benchmark)


@pytest.fixture(scope="session")
def systems():
    """Six mapped and loaded Figure 4 databases (M1..M6), built once."""

    schema = build_synthetic_schema()
    data = generate_synthetic_data(scale=BENCH_SCALE, seed=42)
    loaded = {}
    for label, spec in synthetic_mappings(schema).items():
        system = ErbiumDB(label, schema.clone(label))
        system.set_mapping(spec)
        system.load(data.entities, data.relationships)
        loaded[label] = system
    return loaded
