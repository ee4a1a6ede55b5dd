"""Reproductions of the paper's figures (F1–F4) and the two ablations (A1, A2).

The figures are structural artifacts rather than measurement plots, so each
benchmark regenerates the artifact from code and checks its shape:

* F1 — the Figure 1 university DDL parses, the schema round-trips, and the
  Figure 1-style nested-output query runs;
* F2 — the three Figure 2 physical covers of the university E/R graph are
  built and validated as covers by connected subgraphs;
* F3 — the Figure 3 architecture end-to-end: DDL -> mapping optimizer -> CRUD
  templates -> ad-hoc query -> API call;
* F4 — the Figure 4 experiment schema plus its six mappings M1–M6 compile and
  pass the reversibility checks;
* A1 — the mapping optimizer picks different physical designs as the workload
  mix shifts (Section 4's optimization problem);
* A2 — schema evolution: localized query impact plus native data migration
  (Section 3).
"""

import pytest

from repro import ErbiumDB
from repro.api import ApiService
from repro.core import ERGraph
from repro.erql import schema_from_ddl
from repro.evolution import MakeAttributeMultiValued, Migrator, analyze_query_impact, impact_summary
from repro.mapping import (
    GraphCover,
    MappingOptimizer,
    Workload,
    check_mapping,
    compile_mapping,
    named_mapping,
    validate_mapping_cover,
)
from repro.workloads.synthetic import build_synthetic_schema, generate_synthetic_data, synthetic_mappings
from repro.workloads.university import build_university_schema, generate_university_data

FIGURE1_DDL = """
create entity person (
    person_id int primary key,
    name composite (firstname varchar, lastname varchar),
    street varchar, city varchar, phone_numbers varchar[]
);
create entity course (course_id int primary key, title varchar, credits int);
create weak entity section depends on course (
    sec_id int discriminator, semester varchar, year int
);
create entity instructor subclass of person (rank varchar);
create entity student subclass of person (tot_credits int);
create relationship takes (grade varchar)
    between student (many total) and section (many total);
create relationship teaches between instructor (many) and section (many);
create relationship advisor between student (many) and instructor (one);
create relationship prereq between course as course (many) and course as prerequisite (many);
"""

FIGURE1_QUERY = (
    "select s.person_id, s.name.firstname, s.name.lastname, "
    "array_agg(struct(c.course_id as course_id, c.title as course_title, "
    "sec.sec_id as sec_id, sec.semester as sem, sec.year as year, takes.grade as grade)) as courses "
    "from student s join section sec on takes join course c on section_course"
)


class TestF1UniversityFigure:
    def test_fig1_ddl_and_nested_query(self, benchmark):
        schema = schema_from_ddl(FIGURE1_DDL, name="university")
        data = generate_university_data(students=60, instructors=8, courses=12, seed=7)
        system = ErbiumDB("fig1", schema)
        system.set_mapping()
        system.load(data.entities, data.relationships)

        result = benchmark(lambda: system.query(FIGURE1_QUERY))
        assert len(result) == len(data.student_ids)
        sample = result.rows[0]
        assert isinstance(sample["courses"], list) and sample["courses"]
        assert {"course_id", "course_title", "sec_id", "sem", "year", "grade"} <= set(sample["courses"][0])


class TestF2GraphCovers:
    def test_fig2_three_covers_of_the_university_graph(self, benchmark):
        schema = build_university_schema()

        def build_covers():
            graph = ERGraph(schema)
            covers = []
            for label in ("M1", "M3", "M5"):
                mapping = compile_mapping(schema, named_mapping(schema, label))
                covers.append(validate_mapping_cover(schema, mapping))
            return graph, covers

        graph, covers = benchmark(build_covers)
        normalized, single_table, nested = covers
        # (i) fully normalized: more, smaller cover elements
        assert len(normalized.elements) > len(single_table.elements)
        # (ii) hierarchy collapsed: person/instructor/student share one element
        person_element = [e for e in single_table.elements if e.label == "person"][0]
        assert {"entity:person", "entity:instructor", "entity:student"} <= person_element.nodes
        # (iii) weak entity folded into its owner: course element covers section
        course_element = [e for e in nested.elements if e.label == "course"][0]
        assert "entity:section" in course_element.nodes


class TestF3Architecture:
    def test_fig3_end_to_end(self, benchmark):
        def pipeline():
            system = ErbiumDB("fig3")
            system.execute_ddl(FIGURE1_DDL)
            data = generate_university_data(students=20, instructors=4, courses=6, seed=11)
            workload = (
                Workload("api")
                .lookup("student", ["name", "city"], weight=5)
                .join("student", "takes", "section", weight=2)
                .insert("student", weight=1)
            )
            system.choose_mapping(workload, data.entities[:60], limit=6)
            system.load(data.entities, data.relationships)
            api = ApiService(system)
            listing = api.get("/entities/student")
            one = api.get(f"/entities/student/{data.student_ids[0]}")
            query = api.post("/query", {"query": "select count(*) as n from student"})
            return listing, one, query

        listing, one, query = benchmark(pipeline)
        assert listing.status == 200 and one.status == 200
        assert query.body["rows"][0]["n"] == 20


class TestF4SyntheticSchema:
    def test_fig4_schema_and_all_six_mappings(self, benchmark):
        def build():
            schema = build_synthetic_schema()
            mappings = {}
            for label, spec in synthetic_mappings(schema).items():
                mapping = compile_mapping(schema, spec)
                check_mapping(schema, mapping).raise_if_invalid()
                mappings[label] = mapping
            return schema, mappings

        schema, mappings = benchmark(build)
        assert len(schema.hierarchy_members("R")) == 5
        assert len(schema.weak_entities_of("S")) == 2
        assert set(mappings) == {"M1", "M2", "M3", "M4", "M5", "M6"}
        assert len(mappings["M1"].tables) > len(mappings["M3"].tables)


class TestA1OptimizerAblation:
    def test_optimizer_follows_the_workload(self, benchmark):
        schema = build_synthetic_schema()
        data = generate_synthetic_data(scale=25)
        optimizer = MappingOptimizer(schema, data.entities, data.relationships)
        candidates = [
            named_mapping(schema, "M1"),
            named_mapping(schema, "M2"),
            named_mapping(schema, "M6", co_stored_relationship="r2_s1"),
        ]
        read_mv = Workload("mv-scans").scan("R", ["r_mv1", "r_mv2", "r_mv3"], weight=10)
        join_heavy = Workload("join-heavy").join("R2", "r2_s1", "S1", weight=10).insert("R2", weight=0.1)
        write_heavy = Workload("write-heavy").insert("R2", weight=10).link("r2_s1", weight=10)

        def run():
            return (
                optimizer.optimize(read_mv, candidates=candidates).best.spec.name,
                optimizer.optimize(join_heavy, candidates=candidates).best.spec.name,
                optimizer.optimize(write_heavy, candidates=candidates).best.spec.name,
            )

        best_read, best_join, best_write = benchmark(run)
        assert best_read == "M2"
        assert best_join == "M6"
        assert best_write != "M6"


class TestA2EvolutionAblation:
    QUERIES = [
        "select person_id, city from person",
        "select person_id, street from person",
        "select s.person_id, i.rank from student s join instructor i on advisor",
    ]

    def test_localized_query_impact_and_migration(self, benchmark):
        schema = build_university_schema()
        data = generate_university_data(students=40, instructors=6, courses=8, seed=9)
        system = ErbiumDB("a2", schema)
        system.set_mapping()
        system.load(data.entities, data.relationships)
        change = MakeAttributeMultiValued("person", "city")

        def run():
            impacts = analyze_query_impact(system.schema, change, self.QUERIES)
            migrator = Migrator(system.schema, system.active_mapping(), system.db)
            new_schema, new_mapping, new_db, report = migrator.migrate(change=change)
            return impacts, report

        impacts, report = benchmark(run)
        summary = impact_summary(impacts)
        assert summary["broken"] == 0 and summary["rewritten"] == 1
        assert report.entities_migrated > 0 and report.relationships_migrated > 0
