"""Query impact on the parsed query: which names a change rewrites, and how.

Every rewrite is decided on the query's bound names, never on its text: a
literal that happens to spell the attribute is left alone, a reference through
an alias or a subclass is rewritten, and a same-named attribute of another
entity set is not.  The rename property checks the promise end to end: a
query classified ``rewritten`` or ``unchanged`` answers the same rows, under
the same column names, on the migrated system as the original did before.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import ErbiumDB
from repro.erql import parse_query, unparse_query
from repro.evolution import (
    DropAttribute,
    MakeAttributeMultiValued,
    RenameAttribute,
    analyze_query_impact,
)
from repro.workloads.synthetic import (
    build_synthetic_schema,
    generate_synthetic_data,
    synthetic_mappings,
)
from repro.workloads.university import build_university_schema
from tests.conftest import build_university_system
from tests.erql.test_property_roundtrip import QueryGenerator
from tests.evolution.test_online_parity import TWO_CITIES_DDL


def _impact(schema, change, query):
    [impact] = analyze_query_impact(schema, change, [query])
    return impact


def _two_cities_schema():
    system = ErbiumDB("two-cities")
    system.execute_ddl(TWO_CITIES_DDL)
    return system.schema


class TestRename:
    def test_a_literal_spelling_the_attribute_is_never_altered(self):
        impact = _impact(
            build_university_schema(),
            RenameAttribute("person", "city", "town"),
            "select city from person where street = 'city street' or city = 'city'",
        )
        assert impact.status == "rewritten"
        assert impact.rewritten == (
            "select town as city from person "
            "where ((street = 'city street') or (town = 'city'))"
        )

    def test_every_clause_is_rewritten_and_output_names_are_kept(self):
        impact = _impact(
            build_university_schema(),
            RenameAttribute("person", "city", "town"),
            "select city, max(tot_credits) as m from student "
            "where city != 'x' group by city, street order by city",
        )
        assert impact.status == "rewritten", impact.reason
        assert impact.rewritten == (
            "select town as city, max(tot_credits) as m from student "
            "where (town != 'x') group by town, street order by city asc"
        )
        struct = _impact(
            build_university_schema(),
            RenameAttribute("person", "city", "town"),
            "select person_id, struct(city, street) as st from person",
        )
        assert struct.rewritten == (
            "select person_id, struct(town as city, street) as st from person"
        )

    def test_a_same_named_attribute_of_another_entity_is_untouched(self):
        impact = _impact(
            _two_cities_schema(),
            RenameAttribute("a", "city", "town"),
            "select x.city, y.city from a x join b y on ab where y.city = 'q'",
        )
        assert impact.status == "rewritten", impact.reason
        assert impact.rewritten == (
            "select x.town as city, y.city from a x join b y on ab where (y.city = 'q')"
        )
        unrelated = _impact(
            _two_cities_schema(),
            RenameAttribute("a", "city", "town"),
            "select id, city from b",
        )
        assert unrelated.status == "unchanged"


CLAUSE_QUERIES = [
    "select city, max(tot_credits) as m from student group by city",
    "select city as c, count(*) as n from person group by city order by c",
    "select city, max(tot_credits) as m from student "
    "where city != 'x' group by city, street order by city, m",
    "select city, count(*) as n from person",
    "select person_id, struct(city, street) as st from person",
    "select person_id, city from person order by city, person_id",
    "select p.person_id, p.city from person p where p.city = 'College Park' or p.person_id < 3",
]


@pytest.fixture(scope="module")
def university_before_and_after():
    """The university system, and one copy per change migrated online."""

    changes = [RenameAttribute("person", "city", "town"), MakeAttributeMultiValued("person", "city")]
    migrated = {}
    for change in changes:
        system = build_university_system()
        system.migrate_online(change=change, reconcile_after=False)
        migrated[type(change).__name__] = (change, system)
    return build_university_system(), migrated


@pytest.mark.parametrize("which", ["RenameAttribute", "MakeAttributeMultiValued"])
@pytest.mark.parametrize("query", CLAUSE_QUERIES)
def test_clause_rewrites_answer_like_the_original(university_before_and_after, which, query):
    old, migrated = university_before_and_after
    change, system = migrated[which]
    impact = _impact(old.schema, change, query)
    if impact.status == "broken":
        assert which == "MakeAttributeMultiValued" and impact.reason
        return
    before = old.query(query)
    after = system.query(impact.rewritten or query)
    assert after.columns == before.columns, impact.rewritten
    if "order by" in query:
        assert after.rows == before.rows, impact.rewritten
    else:
        assert after.sorted_tuples() == before.sorted_tuples(), impact.rewritten


class TestMultiValued:
    CHANGE = MakeAttributeMultiValued("person", "city")

    def test_alias_qualified_and_inherited_references_are_rewritten(self):
        schema = build_university_schema()
        aliased = _impact(schema, self.CHANGE, "select p.person_id, p.city from person p")
        inherited = _impact(schema, self.CHANGE, "select s.person_id, s.city from student s")
        assert aliased.status == inherited.status == "rewritten"
        assert aliased.rewritten == "select p.person_id, unnest(p.city) as city from person p"
        assert inherited.rewritten == (
            "select s.person_id, unnest(s.city) as city from student s"
        )

    def test_an_equality_filter_becomes_array_contains_with_the_same_rows(self):
        query = "select person_id from person where city = 'College Park'"
        system = build_university_system()
        impact = _impact(system.schema, self.CHANGE, query)
        assert impact.status == "rewritten"
        assert impact.rewritten == (
            "select person_id from person where array_contains(city, 'College Park')"
        )
        before = system.query(query).sorted_tuples()
        assert len(before) == 5
        system.migrate_online(change=self.CHANGE)
        assert system.query(impact.rewritten).sorted_tuples() == before

    @pytest.mark.parametrize(
        "query",
        [
            "select person_id from person where not (city = 'College Park')",
            "select person_id from person where city != 'College Park'",
            "select person_id from person where city is null",
            "select count(city) as n from person",
            "select struct(city, street) as st from person",
        ],
    )
    def test_other_uses_are_broken_with_a_reason(self, query):
        impact = _impact(build_university_schema(), self.CHANGE, query)
        assert impact.status == "broken"
        assert "multi-valued" in impact.reason

    def test_a_rewrite_the_evolved_schema_rejects_is_broken(self):
        impact = _impact(
            build_university_schema(),
            self.CHANGE,
            "select city, count(*) as n from person",
        )
        assert impact.status == "broken"
        assert "unnest() cannot be combined with aggregates" in impact.reason


def test_drop_attribute_breaks_only_references_to_the_dropped_attribute():
    schema = _two_cities_schema()
    change = DropAttribute("a", "city")
    dropped = _impact(schema, change, "select id from a_sub where city = 'x'")
    assert dropped.status == "broken" and "is dropped" in dropped.reason
    assert _impact(schema, change, "select id, city from b").status == "unchanged"


# --------------------------------------------------------------------------
# Rename property over generated queries on the Figure 4 schema
# --------------------------------------------------------------------------

RENAMES = [
    RenameAttribute("R", "r_y", "r_yy"),  # inherited by R1, R2 and R3
    RenameAttribute("R", "r_x", "r_xx"),  # composite: r_x.r_x1 keeps its path
    RenameAttribute("R", "r_id", "rid"),  # the key
    RenameAttribute("R1", "r1_x", "r1_xx"),  # declared on a subclass
]


@pytest.fixture(scope="module")
def renamed_systems():
    """The Figure 4 system before, and one migrated online per rename."""

    def build():
        system = ErbiumDB("figure4", build_synthetic_schema())
        system.set_mapping(synthetic_mappings(system.schema)["M1"])
        data = generate_synthetic_data(scale=30, seed=5)
        system.load(data.entities, data.relationships)
        return system

    migrated = []
    for change in RENAMES:
        system = build()
        system.migrate_online(change=change, reconcile_after=False)
        migrated.append(system)
    return build(), migrated


def _answer(system, text, bindings):
    """Column names, row count, and the rows without LIMIT.

    A LIMIT keeps an arbitrary subset of rows that tie in the order (all of
    them, without ORDER BY), and a migration may store rows in a different
    order, so the rows themselves are compared with the LIMIT removed.
    """

    limited = system.query(text, params=bindings)
    unlimited = unparse_query(replace(parse_query(text), limit=None))
    rows = system.query(unlimited, params=bindings).sorted_tuples()
    return limited.columns, len(limited.rows), rows


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), which=st.integers(0, len(RENAMES) - 1))
def test_rename_rewrites_keep_rows_and_column_names(renamed_systems, seed, which):
    old, migrated = renamed_systems
    text, bindings = QueryGenerator(seed).query()
    impact = _impact(old.schema, RENAMES[which], text)
    assert impact.status in ("rewritten", "unchanged"), impact.reason
    assert _answer(migrated[which], impact.rewritten or text, bindings) == (
        _answer(old, text, bindings)
    ), (text, impact.rewritten)
