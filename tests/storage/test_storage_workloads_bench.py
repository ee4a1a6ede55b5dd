"""Tests for the data generators and the experiment registry."""

import pytest

from repro import ErbiumDB
from repro.bench import (
    EXPERIMENTS,
    Experiment,
    PaperClaim,
    all_experiments,
    evaluate_claim,
    get_experiment,
)
from repro.bench.experiments import DEFAULT_REPEATS, DEFAULT_WARMUP
from repro.workloads import DataGenerator, GeneratorConfig
from repro.workloads.synthetic import build_synthetic_schema, generate_synthetic_data, synthetic_mappings
from repro.workloads.university import build_university_schema, generate_university_data


class TestWorkloadGenerators:
    def test_synthetic_dataset_deterministic_and_shaped(self):
        first = generate_synthetic_data(scale=30, seed=5)
        second = generate_synthetic_data(scale=30, seed=5)
        assert [e.values for e in first.entities] == [e.values for e in second.entities]
        assert len(first.r_ids) == 30
        assert set(first.types_by_r_id.values()) == {"R", "R1", "R2", "R3", "R4"}
        kinds = {e.entity_set for e in first.entities}
        assert kinds == {"R", "R1", "R2", "R3", "R4", "S", "S1", "S2"}
        assert all(r.relationship_set in ("r_s", "r2_s1") for r in first.relationships)

    def test_university_dataset_consistency(self):
        data = generate_university_data(students=25, instructors=4, courses=6, seed=3)
        assert len(data.student_ids) == 25
        assert len(data.sections) == 12
        takes = [r for r in data.relationships if r.relationship_set == "takes"]
        assert all(r.values["grade"] for r in takes)
        # section endpoints reference generated sections
        sections = set(data.sections)
        assert all(tuple(r.endpoints["section"]) in sections for r in takes)

    def test_generic_generator_produces_valid_instances(self):
        from repro.core import validate_entity_instance, validate_relationship_instance

        schema = build_university_schema()
        generator = DataGenerator(schema, GeneratorConfig(instances_per_entity=10, weak_per_owner=2, seed=1))
        entities, relationships = generator.generate()
        assert entities and relationships
        for instance in entities:
            validate_entity_instance(schema, instance)
        for instance in relationships:
            validate_relationship_instance(schema, instance)

    def test_generic_generator_loads_into_system(self):
        schema = build_synthetic_schema()
        generator = DataGenerator(schema, GeneratorConfig(instances_per_entity=8, weak_per_owner=2, seed=2))
        entities, relationships = generator.generate()
        system = ErbiumDB("generated", schema)
        system.set_mapping()
        system.load(entities, relationships)
        assert system.count("R") == 8
        assert system.count("S1") == 16


class TestBenchHarness:
    def test_experiment_registry_is_complete(self):
        ids = {e.id for e in all_experiments()}
        assert {"E1", "E2", "E3", "E4", "E5", "E6", "E7a", "E7b", "E8a", "E8b"} <= ids
        for experiment in all_experiments():
            assert experiment.claims and experiment.mappings
            assert experiment.query is not None or experiment.operation is not None

    def test_run_and_evaluate_claim(self):
        schema = build_synthetic_schema()
        data = generate_synthetic_data(scale=25)
        specs = synthetic_mappings(schema)
        systems = {}
        for label in ("M1", "M2"):
            systems[label] = ErbiumDB(label, schema.clone(label))
            systems[label].set_mapping(specs[label])
            systems[label].load(data.entities, data.relationships)
        experiment = EXPERIMENTS["E1"]
        results = experiment.run(systems)
        assert set(results) == {"M1", "M2"}
        assert all(seconds > 0 for seconds in results.values())
        outcome = evaluate_claim(experiment.claims[0], results, experiment)
        # E1 claims M2 faster than M1: the factor is M1's best over M2's
        assert outcome.measured_factor == pytest.approx(
            results["M1"] / results["M2"], rel=1e-9
        )
        assert outcome.faster_seconds == results["M2"]
        assert outcome.slower_seconds == results["M1"]
        assert outcome.describe()["experiment"] == "E1"

    def test_run_repeats_each_compared_mapping(self):
        calls = []
        experiment = Experiment(
            id="X", title="counting", description="", query=None,
            mappings=("M1", "M2"), operation=calls.append,
        )
        systems = {"M1": "m1", "M2": "m2", "M3": "m3"}
        results = experiment.run(systems)
        assert set(results) == {"M1", "M2"}
        # warm-up and timed rounds alike alternate the compared mappings
        assert calls == ["m1", "m2"] * (DEFAULT_WARMUP + DEFAULT_REPEATS)

    def test_run_defaults_to_the_experiment_query(self):
        class Recorder:
            def __init__(self):
                self.queries = []

            def query(self, text):
                self.queries.append(text)

        experiment = Experiment(
            id="X", title="query", description="", query="select r_id from R",
            mappings=("M1",),
        )
        recorder = Recorder()
        experiment.run({"M1": recorder})
        assert recorder.queries == ["select r_id from R"] * (DEFAULT_WARMUP + DEFAULT_REPEATS)

    def test_registry_lookup(self):
        assert [e.id for e in all_experiments()] == sorted(EXPERIMENTS)
        assert get_experiment("E5") is EXPERIMENTS["E5"]
        with pytest.raises(KeyError):
            get_experiment("E99")

    def test_describe_rounds_measurements(self):
        claim = PaperClaim("M2", "M1", 22.0, "paper")
        assert claim.describe() == {
            "faster": "M2", "slower": "M1", "reported_factor": 22.0, "paper_numbers": "paper",
        }
        outcome = evaluate_claim(claim, {"M1": 0.123456789, "M2": 0.041152263}, EXPERIMENTS["E1"])
        described = outcome.describe()
        assert described["measured_factor"] == 3.0
        assert described["slower_seconds"] == 0.123457
        assert described["faster_seconds"] == 0.041152
        assert described["title"] == EXPERIMENTS["E1"].title

    @pytest.mark.parametrize(
        "factor, fast, slow, reproduced",
        [
            (2.0, 1.0, 3.0, True),   # claimed speedup observed
            (2.0, 3.0, 1.0, False),  # claimed speedup reversed
            (2.0, 1.0, 1.0, False),  # a tie is not a speedup
            (2.0, 0.0, 1.0, True),   # an unmeasurably fast winner
            (1.0, 1.0, 1.0, True),   # parity, exactly
            (1.0, 1.0, 0.65, True),  # parity, at the lower tolerance bound
            (1.0, 0.65, 1.0, True),  # parity, at the upper tolerance bound
            (1.0, 1.0, 2.0, False),  # parity claim, one side twice as slow
            (1.0, 2.0, 1.0, False),  # parity claim, one side twice as fast
        ],
    )
    def test_evaluate_claim_direction(self, factor, fast, slow, reproduced):
        claim = PaperClaim("M1", "M2", factor, "")
        outcome = evaluate_claim(claim, {"M1": fast, "M2": slow}, EXPERIMENTS["E6"])
        assert outcome.direction_reproduced is reproduced
        expected = slow / fast if fast > 0 else float("inf")
        assert outcome.measured_factor == expected


def _canonical(value):
    """Order-insensitive form of a query answer or a list of documents."""

    if isinstance(value, dict):
        return tuple(sorted((key, _canonical(v)) for key, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(sorted((_canonical(v) for v in value), key=repr))
    if isinstance(value, float):
        return round(value, 9)
    return value


@pytest.fixture(scope="module")
def experiment_systems(synthetic_schema, synthetic_specs):
    """Every mapping loaded at scale 140, the smallest that holds E3's r_id 137."""

    data = generate_synthetic_data(scale=140, seed=42)
    systems = {}
    for label in ("M1", "M2", "M3", "M4", "M5", "M6"):
        systems[label] = ErbiumDB(label, synthetic_schema.clone(label))
        systems[label].set_mapping(synthetic_specs[label])
        systems[label].load(data.entities, data.relationships)
    return systems


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_answers_agree_across_compared_mappings(experiment_systems, experiment_id):
    """Each experiment times the same answer on every mapping it compares."""

    experiment = EXPERIMENTS[experiment_id]
    answers = {}
    for label in experiment.mappings:
        system = experiment_systems[label]
        if experiment.operation is not None:
            answer = experiment.operation(system)
        else:
            answer = system.query(experiment.query)
        rows = answer.rows if hasattr(answer, "rows") else answer
        answers[label] = _canonical(rows)
    reference = experiment.mappings[0]
    assert answers[reference], f"{experiment_id} returns nothing under {reference}"
    for label, answer in answers.items():
        assert answer == answers[reference], f"{experiment_id}: {label} differs from {reference}"
