"""Experiment E7 (paper Section 6): weak entity sets folded into their owner (M5).

E7a: fetching all information across S, S1 and S2 for a set of s_ids — the
nested layout reads one document per owner, the normalized layout needs joins.
E7b: joining S1 with R2 — the nested layout must first unnest S1 out of S.
"""

from repro.bench.experiments import evaluate_claim, get_experiment


class TestE7aNestedFetch:
    def test_e7a_m1_normalized(self, systems, benchmark):
        experiment = get_experiment("E7a")
        benchmark(lambda: experiment.operation(systems["M1"]))

    def test_e7a_m5_nested(self, systems, benchmark):
        experiment = get_experiment("E7a")
        benchmark(lambda: experiment.operation(systems["M5"]))

    def test_e7a_direction(self, systems):
        experiment = get_experiment("E7a")
        results = experiment.run(systems)
        outcomes = [evaluate_claim(c, results, experiment) for c in experiment.claims]
        assert all(o.direction_reproduced for o in outcomes), [o.describe() for o in outcomes]

    def test_e7a_documents_equivalent(self, systems):
        experiment = get_experiment("E7a")
        m1_docs = experiment.operation(systems["M1"])
        m5_docs = experiment.operation(systems["M5"])
        assert len(m1_docs) == len(m5_docs)
        assert all(len(a["S1"]) == len(b["S1"]) for a, b in zip(m1_docs, m5_docs))


class TestE7bUnnestJoin:
    def test_e7b_m1(self, systems, benchmark):
        experiment = get_experiment("E7b")
        benchmark(lambda: len(systems["M1"].query(experiment.query)))

    def test_e7b_m5(self, systems, benchmark):
        experiment = get_experiment("E7b")
        benchmark(lambda: len(systems["M5"].query(experiment.query)))

    def test_e7b_direction(self, systems):
        experiment = get_experiment("E7b")
        results = experiment.run(systems)
        outcomes = [evaluate_claim(c, results, experiment) for c in experiment.claims]
        assert all(o.direction_reproduced for o in outcomes), [o.describe() for o in outcomes]
