"""Schema evolution, data migration, versioning and query-impact analysis.

Covers the paper's Section 3: schema changes are expressed at the E/R level
(:mod:`repro.evolution.changes`), data migration happens natively by
round-tripping through logical instances (:mod:`repro.evolution.migration`),
versions are kept and can be rolled back (:mod:`repro.evolution.versioning`),
and the impact of a change on existing ERQL queries can be analyzed and —
where mechanical — auto-rewritten (:mod:`repro.evolution.query_rewrite`).

Two companion modules make migration *operational*:
:mod:`repro.evolution.online` runs a migration against a live system —
WAL-logged lifecycle, incremental backfill under an MVCC read view,
catch-up by re-copying written keys from committed state, atomic flip — and
:mod:`repro.evolution.reconcile` diffs the live physical catalog against
the mapping spec with an OK / MISMATCH / FIXUP / MANUAL taxonomy.
"""

from .changes import (
    AddAttribute,
    AddEntitySet,
    AddRelationship,
    AddSubclass,
    DropAttribute,
    DropRelationship,
    MakeAttributeMultiValued,
    MakeRelationshipManyToMany,
    RenameAttribute,
    SchemaChange,
)
from .migration import MigrationReport, Migrator
from .online import OnlineMigrationReport, OnlineMigrator
from .query_rewrite import QueryImpact, analyze_query_impact, impact_summary
from .reconcile import (
    FIXUP,
    MANUAL,
    MISMATCH,
    OK,
    ReconcileFinding,
    ReconcileReport,
    apply_fixups,
    reconcile,
)
from .versioning import SchemaVersion, SchemaVersionHistory

__all__ = [
    "SchemaChange",
    "AddAttribute",
    "DropAttribute",
    "RenameAttribute",
    "MakeAttributeMultiValued",
    "MakeRelationshipManyToMany",
    "AddEntitySet",
    "AddSubclass",
    "AddRelationship",
    "DropRelationship",
    "Migrator",
    "MigrationReport",
    "OnlineMigrator",
    "OnlineMigrationReport",
    "reconcile",
    "apply_fixups",
    "ReconcileReport",
    "ReconcileFinding",
    "OK",
    "MISMATCH",
    "FIXUP",
    "MANUAL",
    "SchemaVersion",
    "SchemaVersionHistory",
    "QueryImpact",
    "analyze_query_impact",
    "impact_summary",
]
