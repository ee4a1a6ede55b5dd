"""Seeded inputs and output fingerprints.

Everything a workload feeds the program is generated here from ``--seed``
before timing starts; the program only ever sees generated inputs.  The
fingerprints let a run check that the generator did not drift and that the
program's answers are the expected ones.
"""

from __future__ import annotations

import hashlib
import json
import os
from time import perf_counter
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro import ErbiumDB
from repro.workloads.synthetic import (
    SyntheticDataset,
    build_synthetic_schema,
    generate_synthetic_data,
    synthetic_mappings,
)

from . import HERE

EXPECTED_PATH = os.path.join(HERE, "expected", "seed-11.json")


def make_dataset(scale: int, seed: int) -> SyntheticDataset:
    return generate_synthetic_data(scale=scale, seed=seed)


def _digest(lines: Iterable[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def dataset_fingerprint(dataset: SyntheticDataset) -> Dict[str, Any]:
    """Instance count + order-sensitive hash of every generated instance."""

    lines = [
        json.dumps([e.entity_set, e.values], sort_keys=True) for e in dataset.entities
    ] + [
        json.dumps([r.relationship_set, r.endpoints, r.values], sort_keys=True)
        for r in dataset.relationships
    ]
    return {"instances": dataset.total_instances(), "hash": _digest(lines)}


def user_bytes(dataset: SyntheticDataset) -> int:
    """Compact-JSON size of the loaded instance values — the denominator of
    every bytes-per-user-byte ratio."""

    total = 0
    for e in dataset.entities:
        total += len(json.dumps(e.values, separators=(",", ":")))
    for r in dataset.relationships:
        total += len(json.dumps([r.endpoints, r.values], separators=(",", ":")))
    return total


def _rows_of(result: Any) -> Sequence[Any]:
    return result.rows if hasattr(result, "rows") else result


def result_fingerprint(result: Any) -> Tuple[int, str]:
    """(row count, hash of the sorted rows) of a query result or row list.

    Rows are canonicalized through sorted-key JSON so dict ordering, tuple
    vs list and the executor that produced them do not matter.
    """

    lines = sorted(json.dumps(row, sort_keys=True, default=list) for row in _rows_of(result))
    return len(lines), _digest(lines)


def build_system(
    label: str,
    dataset: SyntheticDataset,
    path: Optional[str] = None,
    fs: Any = None,
) -> Tuple[ErbiumDB, float]:
    """A system under mapping ``label`` loaded with ``dataset``.

    In memory by default; durable (``fsync="commit"``, the one flush policy
    the benchmark uses) when ``path`` is given.  Returns the system and the
    seconds spent inside ``ErbiumDB.load``.
    """

    schema = build_synthetic_schema()
    spec = synthetic_mappings(schema)[label]
    if path is None:
        system = ErbiumDB(label, schema)
    else:
        system = ErbiumDB.open(
            path, name=label, schema=schema, fsync="commit", fs=fs, probe_interval=None
        )
    system.set_mapping(spec)
    started = perf_counter()
    dataset.load_into(system)
    return system, perf_counter() - started


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)
