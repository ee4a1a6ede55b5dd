"""Experiment E8 (paper Section 6): the co-stored / multi-relational layout (M6).

E8a: a query that can use the pre-computed R2 ⋈ S1 join.  E8b: a query that
touches only R2 and therefore pays the duplication of the wide table.
"""

from repro.bench.experiments import evaluate_claim, get_experiment


class TestE8aPrejoinedQuery:
    def test_e8a_m1_join_table(self, systems, benchmark):
        experiment = get_experiment("E8a")
        benchmark(lambda: len(systems["M1"].query(experiment.query)))

    def test_e8a_m6_costored(self, systems, benchmark):
        experiment = get_experiment("E8a")
        benchmark(lambda: len(systems["M6"].query(experiment.query)))

    def test_e8a_direction(self, systems):
        experiment = get_experiment("E8a")
        results = experiment.run(systems)
        outcomes = [evaluate_claim(c, results, experiment) for c in experiment.claims]
        assert all(o.direction_reproduced for o in outcomes), [o.describe() for o in outcomes]


class TestE8bSingleTablePenalty:
    def test_e8b_m1(self, systems, benchmark):
        experiment = get_experiment("E8b")
        benchmark(lambda: len(systems["M1"].query(experiment.query)))

    def test_e8b_m6(self, systems, benchmark):
        experiment = get_experiment("E8b")
        benchmark(lambda: len(systems["M6"].query(experiment.query)))

    def test_e8b_direction(self, systems):
        experiment = get_experiment("E8b")
        results = experiment.run(systems)
        outcomes = [evaluate_claim(c, results, experiment) for c in experiment.claims]
        assert all(o.direction_reproduced for o in outcomes), [o.describe() for o in outcomes]
