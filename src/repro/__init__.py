"""ErbiumDB reproduction: entity-relationship abstraction over a relational substrate.

Reproduces "Beyond Relations: A Case for Elevating to the Entity-Relationship
Abstraction" (CIDR 2025).  The top-level facade is :class:`repro.system.ErbiumDB`;
subpackages (documented in DESIGN.md):

* :mod:`repro.core` — the E/R model (entities, relationships, attributes, graph);
* :mod:`repro.relational` — the embedded relational engine substrate;
* :mod:`repro.erql` — the DDL + SQL-variant query language and planner;
* :mod:`repro.mapping` — graph-cover physical mappings, CRUD templates, optimizer;
* :mod:`repro.evolution` — schema evolution, migration, versioning;
* :mod:`repro.governance` — PII tagging, access control, right-to-erasure;
* :mod:`repro.observability` — metrics registry, phase tracing, slow-query
  log, diagnostic bundles;
* :mod:`repro.api` — in-process REST-like API layer;
* :mod:`repro.workloads` — Figure 1 / Figure 4 schemas and data generators;
* :mod:`repro.bench` — the Section 6 experiment registry (E1–E8) and claim
  evaluation behind ``benchmarks/test_exp_*.py``.

Performance numbers come from the ``erbench`` harness at the repository root,
not from this package.
"""

from .observability import Observability
from .session import PreparedStatement, Result, Session
from .system import ErbiumDB, QueryMetrics

__version__ = "0.1.0"

__all__ = [
    "ErbiumDB",
    "Observability",
    "Session",
    "PreparedStatement",
    "Result",
    "QueryMetrics",
    "__version__",
]
