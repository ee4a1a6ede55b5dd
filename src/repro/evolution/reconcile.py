"""Schema-diff reconciliation: live physical tables vs. the mapping spec.

A long-lived deployment can drift: a crash mid-migration, a hand-edited
catalog, a fixup applied out of band.  :func:`reconcile` recompiles the
system's mapping spec into the *expected* physical design and diffs it
against the *live* catalog, emitting one :class:`ReconcileFinding` per
checked object with a four-way decision taxonomy:

``OK``        live state matches the spec;
``MISMATCH``  a divergence was detected but no safe mechanical repair
              exists (e.g. a column type changed) — an operator must decide;
``FIXUP``     a divergence with a *generated* repair attached, gated by a
              safety tier;
``MANUAL``    a divergence whose only repairs are destructive (dropping a
              table or column that may hold data) — never auto-generated.

Safety tiers gate which generated fixups :func:`apply_fixups` will run:

``safe``      purely additive, no data read or lost (create a missing
              index, rewrite stale catalog metadata);
``guarded``   structurally additive but touching objects that should hold
              data (create a missing table: the structure returns, the rows
              do not — flagged so the operator knows a backfill is owed).

Destructive repairs have no tier: they are reported as ``MANUAL`` and the
module will not generate them.  The online migrator runs :func:`reconcile`
after its flip and ships the report in its result, so "did the flip leave
exactly the new layout?" is a first-class, checkable question.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from ..errors import EvolutionError
from ..mapping import compile_mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..system import ErbiumDB

#: Decision taxonomy.
OK = "OK"
MISMATCH = "MISMATCH"
FIXUP = "FIXUP"
MANUAL = "MANUAL"

#: Safety tiers for generated fixups, in increasing invasiveness.
SAFETY_TIERS = ("safe", "guarded")


@dataclass
class ReconcileFinding:
    """One checked object and the decision reached about it."""

    decision: str
    category: str
    table: str
    detail: str
    column: Optional[str] = None
    safety: Optional[str] = None
    fixup_description: Optional[str] = None
    fixup: Optional[Callable[[], None]] = None
    applied: bool = False

    def describe(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "decision": self.decision,
            "category": self.category,
            "table": self.table,
            "detail": self.detail,
        }
        if self.column is not None:
            out["column"] = self.column
        if self.safety is not None:
            out["safety"] = self.safety
        if self.fixup_description is not None:
            out["fixup"] = self.fixup_description
        if self.applied:
            out["applied"] = True
        return out


@dataclass
class ReconcileReport:
    """All findings of one reconcile pass."""

    mapping_name: str
    findings: List[ReconcileFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(f.decision == OK for f in self.findings)

    def counts(self) -> Dict[str, int]:
        out = {OK: 0, MISMATCH: 0, FIXUP: 0, MANUAL: 0}
        for finding in self.findings:
            out[finding.decision] = out.get(finding.decision, 0) + 1
        return out

    def by_decision(self, decision: str) -> List[ReconcileFinding]:
        return [f for f in self.findings if f.decision == decision]

    def describe(self) -> Dict[str, Any]:
        return {
            "mapping": self.mapping_name,
            "ok": self.ok,
            "counts": self.counts(),
            "findings": [f.describe() for f in self.findings],
        }


def _type_name(dtype: Any) -> str:
    return getattr(dtype, "name", repr(dtype))


def reconcile(system: "ErbiumDB") -> ReconcileReport:
    """Diff the live catalog against the recompiled mapping spec."""

    layout = system._layout
    if layout.mapping is None or layout.spec is None:
        raise EvolutionError("no mapping installed; nothing to reconcile")
    expected = compile_mapping(layout.schema, layout.spec)
    db = layout.db
    report = ReconcileReport(mapping_name=expected.name)

    for table_name in expected.table_names():
        spec_table = expected.table(table_name)
        if not db.has_table(table_name):
            # the structure can be regenerated from the spec; any rows the
            # table held cannot — guarded, so apply_fixups(tiers=("safe",))
            # will not silently resurrect an empty table
            def make_table(t=spec_table):
                db.create_table(t.name, t.columns, primary_key=list(t.primary_key))
                for index_columns in t.indexes:
                    db.create_index(t.name, list(index_columns))

            report.findings.append(
                ReconcileFinding(
                    decision=FIXUP,
                    category="missing_table",
                    table=table_name,
                    detail=f"mapping expects table {table_name!r} but it does not exist",
                    safety="guarded",
                    fixup_description=f"create empty table {table_name!r} with its "
                    "indexes (rows are NOT recoverable from the spec)",
                    fixup=make_table,
                )
            )
            continue
        live_schema = db.catalog.table(table_name).schema
        table_ok = True
        for spec_column in spec_table.columns:
            if not live_schema.has_column(spec_column.name):
                table_ok = False
                report.findings.append(
                    ReconcileFinding(
                        decision=MISMATCH,
                        category="missing_column",
                        table=table_name,
                        column=spec_column.name,
                        detail=f"mapping expects column {spec_column.name!r} "
                        f"({_type_name(spec_column.dtype)}) on {table_name!r}",
                    )
                )
                continue
            live_column = live_schema.column(spec_column.name)
            if _type_name(live_column.dtype) != _type_name(spec_column.dtype):
                table_ok = False
                report.findings.append(
                    ReconcileFinding(
                        decision=MISMATCH,
                        category="column_type",
                        table=table_name,
                        column=spec_column.name,
                        detail=f"column {table_name}.{spec_column.name} is "
                        f"{_type_name(live_column.dtype)}, mapping expects "
                        f"{_type_name(spec_column.dtype)}",
                    )
                )
        expected_names = {c.name for c in spec_table.columns}
        for live_name in live_schema.column_names():
            if live_name not in expected_names:
                table_ok = False
                report.findings.append(
                    ReconcileFinding(
                        decision=MANUAL,
                        category="extra_column",
                        table=table_name,
                        column=live_name,
                        detail=f"column {table_name}.{live_name} exists but the "
                        "mapping does not place it; dropping it would lose data",
                    )
                )
        if tuple(live_schema.primary_key) != tuple(spec_table.primary_key):
            table_ok = False
            report.findings.append(
                ReconcileFinding(
                    decision=MISMATCH,
                    category="primary_key",
                    table=table_name,
                    detail=f"primary key of {table_name!r} is "
                    f"{list(live_schema.primary_key)}, mapping expects "
                    f"{list(spec_table.primary_key)}",
                )
            )
        live_table = db.catalog.table(table_name)
        for index_columns in spec_table.indexes:
            if live_table.index_on(tuple(index_columns)) is None:
                table_ok = False

                def make_index(t=table_name, cols=tuple(index_columns)):
                    db.create_index(t, list(cols))

                report.findings.append(
                    ReconcileFinding(
                        decision=FIXUP,
                        category="missing_index",
                        table=table_name,
                        detail=f"mapping expects an index on "
                        f"{table_name}({', '.join(index_columns)})",
                        safety="safe",
                        fixup_description=f"create index on "
                        f"{table_name}({', '.join(index_columns)})",
                        fixup=make_index,
                    )
                )
        if table_ok:
            report.findings.append(
                ReconcileFinding(
                    decision=OK,
                    category="table",
                    table=table_name,
                    detail=f"table {table_name!r} matches the mapping spec",
                )
            )

    expected_tables = set(expected.table_names())
    for live_name in db.catalog.table_names():
        if live_name not in expected_tables:
            report.findings.append(
                ReconcileFinding(
                    decision=MANUAL,
                    category="extra_table",
                    table=live_name,
                    detail=f"table {live_name!r} exists but the mapping does not "
                    "use it; dropping it would lose data",
                )
            )

    active = db.catalog.get_metadata("active_mapping") or {}
    if active.get("name") != expected.name:

        def fix_metadata():
            db.catalog.put_metadata(f"mapping:{expected.name}", expected.describe())
            db.catalog.put_metadata("active_mapping", {"name": expected.name})

        report.findings.append(
            ReconcileFinding(
                decision=FIXUP,
                category="catalog_metadata",
                table="",
                detail=f"catalog names active mapping {active.get('name')!r}, "
                f"spec compiles to {expected.name!r}",
                safety="safe",
                fixup_description="rewrite the catalog's active-mapping metadata",
                fixup=fix_metadata,
            )
        )
    return report


def apply_fixups(
    system: "ErbiumDB", report: ReconcileReport, tiers: tuple = ("safe",)
) -> int:
    """Run the generated fixups of ``report`` whose safety tier is allowed.

    Returns the number applied.  Only ``FIXUP`` findings carry repairs;
    ``MISMATCH`` and ``MANUAL`` never do.  Fixups run under the writer lock
    so they never interleave with a committing transaction.
    """

    for tier in tiers:
        if tier not in SAFETY_TIERS:
            raise EvolutionError(f"unknown safety tier {tier!r}; use {SAFETY_TIERS}")
    applied = 0
    with system.db.write_lock:
        for finding in report.findings:
            if finding.decision != FIXUP or finding.fixup is None or finding.applied:
                continue
            if finding.safety not in tiers:
                continue
            finding.fixup()
            finding.applied = True
            applied += 1
    return applied
