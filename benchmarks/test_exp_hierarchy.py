"""Experiments E5–E6 (paper Section 6): type-hierarchy layouts.

E5: listing all information for the R3 entities — delta layout (M1) pays a
three-way join, single-table (M3) a type filter, disjoint (M4) a plain scan of
one table.  E6: a selective R ⋈ S join where M1 and M4 land close together
despite M4's five-relation union.
"""

from repro.bench.experiments import evaluate_claim, get_experiment


class TestE5SubclassScan:
    def test_e5_m1_delta_join(self, systems, benchmark):
        experiment = get_experiment("E5")
        benchmark(lambda: len(systems["M1"].query(experiment.query)))

    def test_e5_m3_single_table(self, systems, benchmark):
        experiment = get_experiment("E5")
        benchmark(lambda: len(systems["M3"].query(experiment.query)))

    def test_e5_m4_disjoint(self, systems, benchmark):
        experiment = get_experiment("E5")
        benchmark(lambda: len(systems["M4"].query(experiment.query)))

    def test_e5_directions(self, systems):
        experiment = get_experiment("E5")
        results = experiment.run(systems)
        outcomes = [evaluate_claim(c, results, experiment) for c in experiment.claims]
        assert all(o.direction_reproduced for o in outcomes), [o.describe() for o in outcomes]

    def test_e5_same_answer_everywhere(self, systems):
        experiment = get_experiment("E5")
        counts = {m: len(systems[m].query(experiment.query)) for m in experiment.mappings}
        assert len(set(counts.values())) == 1


class TestE6JoinWithPredicates:
    def test_e6_m1(self, systems, benchmark):
        experiment = get_experiment("E6")
        benchmark(lambda: len(systems["M1"].query(experiment.query)))

    def test_e6_m4_union_join(self, systems, benchmark):
        experiment = get_experiment("E6")
        benchmark(lambda: len(systems["M4"].query(experiment.query)))

    def test_e6_parity(self, systems):
        experiment = get_experiment("E6")
        results = experiment.run(systems)
        outcomes = [evaluate_claim(c, results, experiment) for c in experiment.claims]
        assert all(o.direction_reproduced for o in outcomes), [o.describe() for o in outcomes]
