"""Tests for the ERQL lexer, parser, DDL layer, analyzer and planner."""

import pytest

from repro import ErbiumDB
from repro.core import ERSchema
from repro.erql import analyze_query, parse_query, parse_script, parse_statement, schema_from_ddl
from repro.erql import ast_nodes as ast
from repro.erql.lexer import tokenize
from repro.errors import AnalysisError, LexerError, ParseError, SchemaError
from repro.workloads.university import build_university_schema

FIGURE1_DDL = """
create entity person (
    person_id int primary key,
    name composite (firstname varchar, lastname varchar),
    street varchar,
    city varchar,
    phone_numbers varchar[]
);
create entity course (course_id int primary key, title varchar, credits int);
create weak entity section depends on course (
    sec_id int discriminator, semester varchar, year int
);
create entity instructor subclass of person (rank varchar);
create entity student subclass of person (tot_credits int);
create relationship takes (grade varchar)
    between student (many total) and section (many total);
create relationship advisor
    between student (many) and instructor (one);
"""


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("select a, b from t where x = 'it''s' and y >= 1.5")
        kinds = [t.kind for t in tokens]
        assert kinds[0] == "keyword" and tokens[0].value == "select"
        strings = [t for t in tokens if t.kind == "string"]
        assert strings[0].value == "it's"
        numbers = [t for t in tokens if t.kind == "number"]
        assert numbers[0].value == "1.5"
        assert kinds[-1] == "eof"

    def test_comments_and_case(self):
        tokens = tokenize("SELECT A -- a comment\nFROM B")
        assert [t.value for t in tokens[:2]] == ["select", "A"]

    def test_positions_and_errors(self):
        tokens = tokenize("a\n  b")
        assert (tokens[1].line, tokens[1].column) == (2, 3)
        with pytest.raises(LexerError):
            tokenize("select 'unterminated")
        with pytest.raises(LexerError):
            tokenize("select @")


class TestParserDDL:
    def test_create_entity_with_composite_and_array(self):
        statement = parse_statement(
            "create entity person (person_id int primary key, "
            "name composite (firstname varchar, lastname varchar), phone_numbers varchar[])"
        )
        assert isinstance(statement, ast.CreateEntity)
        assert statement.attributes[0].primary_key
        assert statement.attributes[1].composite
        assert statement.attributes[2].multivalued

    def test_create_weak_entity(self):
        statement = parse_statement(
            "create weak entity section depends on course (sec_id int discriminator, year int)"
        )
        assert isinstance(statement, ast.CreateWeakEntity)
        assert statement.owner == "course"
        assert statement.attributes[0].discriminator

    def test_create_subclass(self):
        statement = parse_statement("create entity instructor subclass of person (rank varchar)")
        assert statement.parent == "person"

    def test_create_relationship_with_constraints(self):
        statement = parse_statement(
            "create relationship takes (grade varchar) between student (many total) and section (many total)"
        )
        assert isinstance(statement, ast.CreateRelationship)
        assert [p.cardinality for p in statement.participants] == ["many", "many"]
        assert [p.participation for p in statement.participants] == ["total", "total"]
        assert statement.attributes[0].name == "grade"

    def test_drop_statements(self):
        assert isinstance(parse_statement("drop entity person"), ast.DropEntity)
        assert isinstance(parse_statement("drop relationship takes"), ast.DropRelationship)

    def test_script_parses_figure1(self):
        statements = parse_script(FIGURE1_DDL)
        assert len(statements) == 7

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_statement("create table t (a int)")
        with pytest.raises(ParseError):
            parse_statement("select from t")
        with pytest.raises(ParseError):
            parse_statement("select a from t where")
        with pytest.raises(ParseError):
            parse_statement("select a from t limit x")


class TestParserQueries:
    def test_select_with_joins_and_clauses(self):
        query = parse_query(
            "select s.person_id, name.firstname, takes.grade from student s "
            "join section sec on takes where city = 'CP' and tot_credits >= 30 "
            "order by person_id desc limit 5"
        )
        assert query.source.entity == "student" and query.source.alias == "s"
        assert query.joins[0].relationship == "takes"
        assert query.limit == 5
        assert query.order_by[0].ascending is False

    def test_nested_output_constructs(self):
        query = parse_query(
            "select person_id, array_agg(struct(course_id, grade as g)) as courses from student join section on takes"
        )
        agg = query.items[1].expression
        assert isinstance(agg, ast.FuncCall) and agg.name == "array_agg"
        assert isinstance(agg.args[0], ast.StructCall)

    def test_unnest_and_functions(self):
        query = parse_query("select unnest(phone_numbers) as phone, count(*) from person")
        assert isinstance(query.items[0].expression, ast.FuncCall)
        assert query.items[1].expression.is_star()

    def test_expression_precedence(self):
        query = parse_query("select a from t where x = 1 or y = 2 and z = 3")
        where = query.where
        assert isinstance(where, ast.BinOp) and where.op == "or"

    def test_in_list_and_is_null(self):
        query = parse_query("select a from t where x in (1, 2, 3) and y is not null")
        left = query.where.left
        assert isinstance(left, ast.InList) and left.values == [1, 2, 3]
        assert isinstance(query.where.right, ast.IsNull) and query.where.right.negate

    def test_left_join(self):
        query = parse_query("select a from t left join u on rel")
        assert query.joins[0].join_type == "left"


class TestDDLApplication:
    def test_schema_from_figure1_ddl(self):
        schema = schema_from_ddl(FIGURE1_DDL, name="university")
        assert set(schema.entity_names()) == {"person", "course", "section", "instructor", "student"}
        assert schema.entity("person").attribute("name").is_composite()
        assert schema.entity("person").attribute("phone_numbers").is_multivalued()
        assert schema.entity("instructor").parent == "person"
        assert schema.effective_key("section") == ["course_id", "sec_id"]
        # the identifying relationship is registered automatically
        assert schema.has_relationship("section_course")
        assert schema.relationship("section_course").identifying
        assert schema.relationship("takes").kind() == "many_to_many"
        assert schema.relationship("advisor").kind() == "many_to_one"

    def test_entity_requires_primary_key(self):
        with pytest.raises(SchemaError):
            schema_from_ddl("create entity a (x int)")

    def test_subclass_must_not_declare_key(self):
        with pytest.raises(SchemaError):
            schema_from_ddl(
                "create entity a (x int primary key); create entity b subclass of a (y int primary key)"
            )

    def test_ddl_rejected_after_mapping(self):
        system = ErbiumDB("x")
        system.execute_ddl("create entity a (x int primary key)")
        system.set_mapping()
        with pytest.raises(Exception):
            system.execute_ddl("create entity b (y int primary key)")


class TestAnalyzer:
    @pytest.fixture()
    def schema(self):
        return build_university_schema()

    def test_resolves_qualified_and_unqualified_names(self, schema):
        bound = analyze_query(
            schema,
            parse_query("select s.person_id, city, rank from instructor s where rank = 'full'"),
        )
        assert bound.base_entity == "instructor"
        refs = {item.name for item in bound.items}
        assert refs == {"person_id", "city", "rank"}

    def test_composite_path_resolution(self, schema):
        bound = analyze_query(schema, parse_query("select name.firstname from person"))
        ref = bound.items[0].expression
        assert ref.attribute == "name" and ref.path == ["firstname"]

    def test_relationship_attribute_resolution(self, schema):
        bound = analyze_query(
            schema, parse_query("select grade from student join section on takes")
        )
        assert bound.items[0].expression.is_relationship

    def test_ambiguous_name_rejected(self, schema):
        with pytest.raises(AnalysisError):
            analyze_query(
                schema,
                parse_query(
                    "select city from student s join instructor i on advisor"
                ),
            )

    def test_unknown_names_rejected(self, schema):
        with pytest.raises(AnalysisError):
            analyze_query(schema, parse_query("select nope from person"))
        with pytest.raises(AnalysisError):
            analyze_query(schema, parse_query("select person_id from ghost"))
        with pytest.raises(AnalysisError):
            analyze_query(schema, parse_query("select person_id from person join course on ghost_rel"))

    def test_join_must_connect(self, schema):
        with pytest.raises(AnalysisError):
            analyze_query(schema, parse_query("select person_id from person join course on takes"))

    def test_group_by_inference(self, schema):
        bound = analyze_query(
            schema,
            parse_query("select rank, count(*) as n, avg(tot_credits) from instructor i join student s on advisor"),
        )
        assert bound.has_aggregates
        assert [k.name for k in bound.group_keys] == ["rank"]

    def test_unnest_requires_multivalued(self, schema):
        with pytest.raises(AnalysisError):
            analyze_query(schema, parse_query("select unnest(city) from person"))
        bound = analyze_query(schema, parse_query("select unnest(phone_numbers) from person"))
        assert bound.unnest_items

    def test_unnest_with_aggregates_rejected(self, schema):
        with pytest.raises(AnalysisError):
            analyze_query(
                schema, parse_query("select unnest(phone_numbers), count(*) from person")
            )

    def test_nested_aggregates_rejected(self, schema):
        with pytest.raises(AnalysisError):
            analyze_query(schema, parse_query("select max(count(*)) from person"))

    def test_aggregates_in_where_rejected(self, schema):
        with pytest.raises(AnalysisError):
            analyze_query(schema, parse_query("select person_id from person where count(*) > 1"))

    def test_order_by_must_reference_output(self, schema):
        with pytest.raises(AnalysisError):
            analyze_query(schema, parse_query("select person_id from person order by city"))


class TestPlannerExecution:
    """End-to-end ERQL execution against the mapped university system."""

    def test_projection_and_filter(self, university_system):
        result = university_system.query(
            "select person_id, name.firstname, city from student where tot_credits >= 60"
        )
        assert result.columns == ["person_id", "firstname", "city"]
        assert all(isinstance(r["firstname"], str) for r in result.rows)

    def test_point_lookup_uses_index_plan(self, university_system):
        plan = university_system.plan("select city from person where person_id = 3")
        assert "IndexLookup" in plan.explain()
        result = university_system.query("select city from person where person_id = 3")
        assert len(result) == 1

    def test_relationship_join_with_attribute(self, university_system):
        result = university_system.query(
            "select s.person_id, takes.grade from student s join section sec on takes limit 10"
        )
        assert len(result) == 10
        assert all("grade" in r for r in result.rows)

    def test_many_to_one_join(self, university_system):
        result = university_system.query(
            "select s.person_id, i.rank from student s join instructor i on advisor"
        )
        assert len(result) > 0

    def test_self_relationship_join(self, university_system, university_data):
        loaded = sorted(
            (r.endpoint("course")[0], r.endpoint("prerequisite")[0])
            for r in university_data.relationships
            if r.relationship_set == "prereq"
        )
        assert loaded
        query = "select c.course_id, p.course_id from course c join course p on prereq"
        for executor in ("row", "batch"):
            result = university_system.query(query, executor=executor)
            assert result.sorted_tuples() == loaded, executor

    def test_weak_entity_identifying_join(self, university_system):
        result = university_system.query(
            "select c.title, sec.sec_id, sec.year from course c join section sec on sec_course"
        )
        assert len(result) == university_system.count("section")

    def test_aggregation_with_inferred_group_by(self, university_system):
        result = university_system.query(
            "select i.person_id, avg(s.tot_credits) as avg_credits, count(*) as advisees "
            "from instructor i join student s on advisor"
        )
        assert all(r["advisees"] >= 1 for r in result.rows)

    @pytest.mark.parametrize("executor", ["batch", "row"])
    def test_an_aliased_group_by_key_keeps_its_alias(self, university_system, executor):
        plain = university_system.query(
            "select city, count(*) as n from person group by city", executor=executor
        )
        aliased = university_system.query(
            "select city as c, city as d, count(*) as n from person group by city",
            executor=executor,
        )
        assert aliased.columns == ["c", "d", "n"]
        assert aliased.sorted_tuples() == [(c, c, n) for c, n in plain.sorted_tuples()]

    def test_nested_output_array_agg_struct(self, university_system):
        result = university_system.query(
            "select s.person_id, array_agg(struct(sec.sec_id as sec_id, takes.grade as grade)) as courses "
            "from student s join section sec on takes"
        )
        row = result.rows[0]
        assert isinstance(row["courses"], list) and "grade" in row["courses"][0]

    def test_unnest_multivalued(self, university_system):
        result = university_system.query("select person_id, unnest(phone_numbers) as phone from person")
        assert len(result) >= university_system.count("person")

    def test_order_and_limit(self, university_system):
        result = university_system.query(
            "select person_id from student order by person_id desc limit 3"
        )
        ids = result.column("person_id")
        assert ids == sorted(ids, reverse=True) and len(ids) == 3

    def test_count_star(self, university_system):
        result = university_system.query("select count(*) as n from student")
        assert result.scalar() == university_system.count("student")

    def test_three_way_join(self, university_system):
        result = university_system.query(
            "select s.person_id, c.title, takes.grade from student s "
            "join section sec on takes join course c on sec_course limit 5"
        )
        assert len(result) == 5 and all("title" in r for r in result.rows)

    def test_explain_exposes_plan(self, university_system):
        text = university_system.explain("select person_id from student")
        assert "SeqScan" in text or "Union" in text
