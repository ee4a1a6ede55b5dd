"""Reconcile: live catalog vs. mapping spec, with the decision taxonomy.

Each test drifts a live system away from its installed spec in one specific
way and asserts the diff lands in the right OK / MISMATCH / FIXUP / MANUAL
bucket, that generated fixups are gated by safety tier, and that applying
them converges the catalog back to the spec where a mechanical repair exists.
"""

from __future__ import annotations

import pytest

from repro.api import ApiService
from repro.durability.snapshot import spec_to_dict
from repro.errors import EvolutionError
from repro.evolution import FIXUP, MANUAL, MISMATCH, OK, apply_fixups, reconcile
from repro.mapping import named_mapping
from repro.workloads.university import build_university_schema
from repro.relational.types import Column
from tests.conftest import build_university_system


def _findings(report, category):
    return [f for f in report.findings if f.category == category]


class TestTaxonomy:
    def test_clean_system_is_all_ok(self):
        system = build_university_system(students=6, instructors=2, courses=2)
        report = reconcile(system)
        assert report.ok
        counts = report.counts()
        assert counts[OK] == len(report.findings) > 0
        assert counts[MISMATCH] == counts[FIXUP] == counts[MANUAL] == 0
        # every physical table got its own OK finding
        assert {f.table for f in report.findings} == set(system.mapping.table_names())

    def test_reconcile_without_mapping_raises(self):
        from repro import ErbiumDB

        system = ErbiumDB("bare", build_university_schema())
        with pytest.raises(EvolutionError):
            reconcile(system)

    def test_missing_table_is_guarded_fixup(self):
        system = build_university_system(students=6, instructors=2, courses=2)
        system.db.catalog.drop_table("takes")
        report = reconcile(system)
        assert not report.ok
        [finding] = _findings(report, "missing_table")
        assert finding.decision == FIXUP
        assert finding.safety == "guarded"
        assert finding.fixup is not None
        # rows are NOT recoverable from the spec — the description says so
        assert "NOT recoverable" in finding.fixup_description

    def test_missing_index_is_safe_fixup(self):
        system = build_university_system(students=6, instructors=2, courses=2)
        spec_table = system.mapping.table("takes")
        live = system.db.catalog.table("takes")
        target = None
        for index_columns in spec_table.indexes:
            for name, index in live.indexes().items():
                if index.columns == tuple(index_columns):
                    target = name
                    break
            if target is not None:
                break
        assert target is not None, "spec expects at least one index on takes"
        live.drop_index(target)
        report = reconcile(system)
        [finding] = _findings(report, "missing_index")
        assert finding.decision == FIXUP and finding.safety == "safe"

    def test_extra_table_and_column_are_manual(self):
        system = build_university_system(students=6, instructors=2, courses=2)
        system.db.create_table("orphan", [Column("k", "int")], primary_key=["k"])
        report = reconcile(system)
        extra = _findings(report, "extra_table")
        assert [f.table for f in extra] == ["orphan"]
        assert extra[0].decision == MANUAL
        assert extra[0].fixup is None  # destructive repairs are never generated

    def test_missing_column_is_mismatch(self):
        system = build_university_system(students=6, instructors=2, courses=2)
        live = system.db.catalog.table("course")
        # simulate drift by rebuilding the table without one spec column
        spec_table = system.mapping.table("course")
        keep = [c for c in spec_table.columns if c.name != "title"]
        system.db.catalog.drop_table("course")
        system.db.create_table("course", keep, primary_key=list(spec_table.primary_key))
        report = reconcile(system)
        missing = _findings(report, "missing_column")
        assert [f.column for f in missing] == ["title"]
        assert missing[0].decision == MISMATCH
        assert missing[0].fixup is None

    def test_stale_catalog_metadata_is_safe_fixup(self):
        system = build_university_system(students=6, instructors=2, courses=2)
        system.db.catalog.put_metadata("active_mapping", {"name": "stale"})
        report = reconcile(system)
        [finding] = _findings(report, "catalog_metadata")
        assert finding.decision == FIXUP and finding.safety == "safe"


class TestApplyFixups:
    def test_safe_tier_applies_only_safe_fixups(self):
        system = build_university_system(students=6, instructors=2, courses=2)
        system.db.catalog.drop_table("takes")  # guarded fixup
        system.db.catalog.put_metadata("active_mapping", {"name": "stale"})  # safe
        report = reconcile(system)
        applied = apply_fixups(system, report, tiers=("safe",))
        assert applied == 1
        assert not any(
            f.applied for f in report.findings if f.category == "missing_table"
        )
        # metadata converged; the missing table still diffs
        after = reconcile(system)
        assert not _findings(after, "catalog_metadata")
        assert _findings(after, "missing_table")

    def test_guarded_tier_recreates_structure(self):
        system = build_university_system(students=6, instructors=2, courses=2)
        system.db.catalog.drop_table("takes")
        report = reconcile(system)
        applied = apply_fixups(system, report, tiers=("safe", "guarded"))
        assert applied >= 1
        after = reconcile(system)
        assert after.ok
        # the structure returned empty — the operator owes a backfill
        assert system.db.table("takes").row_count == 0

    def test_unknown_tier_raises(self):
        system = build_university_system(students=6, instructors=2, courses=2)
        report = reconcile(system)
        with pytest.raises(EvolutionError):
            apply_fixups(system, report, tiers=("yolo",))

    def test_fixups_are_idempotent(self):
        system = build_university_system(students=6, instructors=2, courses=2)
        system.db.catalog.put_metadata("active_mapping", {"name": "stale"})
        report = reconcile(system)
        assert apply_fixups(system, report, tiers=("safe",)) == 1
        # a second pass over the same report applies nothing
        assert apply_fixups(system, report, tiers=("safe",)) == 0


class TestSystemSurface:
    def test_system_reconcile_method(self):
        system = build_university_system(students=6, instructors=2, courses=2)
        report = system.reconcile()
        assert report.ok
        described = report.describe()
        assert described["ok"] is True
        assert set(described["counts"]) == {OK, MISMATCH, FIXUP, MANUAL}


M3_SPEC = spec_to_dict(named_mapping(build_university_schema(), "M3"))


class TestAdminMigrateEndpoint:
    """``POST /admin/migrate``: an online migration to a spec, or reconcile only."""

    QUERY = "select p.person_id, p.city from person p"

    def test_spec_migration_reports_a_reconcile(self):
        system = build_university_system(students=6, instructors=2, courses=2)
        before = system.query(self.QUERY).sorted_tuples()
        response = ApiService(system).post("/admin/migrate", {"spec": M3_SPEC, "batch_size": 4})
        assert response.status == 200
        migration = response.body["migration"]
        assert migration["mapping"] == system.mapping.name
        assert migration["backfill_batches"] > 1
        assert migration["reconcile"]["ok"] is True
        assert system.mapping.entity_placement("student").kind == "single_table"
        assert system.query(self.QUERY).sorted_tuples() == before

    def test_reconcile_only_reports_without_repairing(self):
        system = build_university_system(students=6, instructors=2, courses=2)
        system.db.catalog.put_metadata("active_mapping", {"name": "stale"})
        response = ApiService(system).post("/admin/migrate", {"reconcile_only": True})
        assert response.status == 200
        assert response.body["fixups_applied"] == 0
        assert response.body["reconcile"]["ok"] is False
        assert system.db.catalog.get_metadata("active_mapping") == {"name": "stale"}

    def test_reconcile_only_applies_the_named_tiers(self):
        system = build_university_system(students=6, instructors=2, courses=2)
        system.db.catalog.drop_table("takes")  # guarded fixup
        system.db.catalog.put_metadata("active_mapping", {"name": "stale"})  # safe
        service = ApiService(system)
        response = service.post(
            "/admin/migrate", {"reconcile_only": True, "apply_fixups": ["safe"]}
        )
        assert response.status == 200
        assert response.body["fixups_applied"] == 1
        after = reconcile(system)
        assert not _findings(after, "catalog_metadata")
        assert _findings(after, "missing_table")
        unknown = service.post(
            "/admin/migrate", {"reconcile_only": True, "apply_fixups": ["yolo"]}
        )
        assert unknown.status == 400

    @pytest.mark.parametrize(
        "body,message",
        [
            ({"spec": {"name": "M3", "colour": "blue"}}, "unknown mapping spec fields"),
            ({"spec": "M3"}, "'spec' must be"),
            ({"spec": M3_SPEC, "batch_size": 0}, "'batch_size' must be"),
            ({"spec": M3_SPEC, "batch_size": True}, "'batch_size' must be"),
            ({"reconcile_only": "yes"}, "'reconcile_only' must be"),
            ({"reconcile_only": True, "apply_fixups": "safe"}, "'apply_fixups' must be"),
        ],
        ids=["unknown_field", "spec_not_object", "batch_size_zero", "batch_size_bool",
             "reconcile_only_not_bool", "apply_fixups_not_list"],
    )
    def test_bad_requests_are_400(self, body, message):
        system = build_university_system(students=6, instructors=2, courses=2)
        mapping = system.mapping
        response = ApiService(system).post("/admin/migrate", body)
        assert response.status == 400
        assert response.body["error"]["code"] == "validation"
        assert message in response.body["error"]["message"]
        assert system.mapping is mapping  # nothing migrated
