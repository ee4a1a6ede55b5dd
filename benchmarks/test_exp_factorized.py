"""Experiment E8 (paper Section 6): the co-stored / multi-relational layout (M6).

E8a: a query that can use the pre-computed R2 ⋈ S1 join.  E8b: a query that
touches only R2 and therefore pays the duplication of the wide table.  An
extra ablation compares the flat duplicated wide table against the factorized
pointer-based store of :mod:`repro.storage.factorized` (the representation the
paper argues is needed to make M6-style layouts viable).
"""

from repro.bench.experiments import evaluate_claim, get_experiment
from repro.storage import FactorizedStore


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


class TestFactorizedAblation:
    """Compact multi-relation storage vs. the flat duplicated wide table."""

    def _build_store(self, systems) -> FactorizedStore:
        system = systems["M1"]
        store = FactorizedStore("r2_s1", "r2", "r_id", "s1", "s1_key")
        for key in system.crud.entity_keys("R2"):
            values = system.get("R2", key)
            store.put_left({"r_id": key[0], "r2_x": values["r2_x"]})
        for key in system.crud.entity_keys("S1"):
            values = system.get("S1", key)
            store.put_right({"s1_key": key, "s1_x": values["s1_x"], "s1_y": values["s1_y"]})
        for key in system.crud.entity_keys("R2"):
            for other in system.related("r2_s1", "R2", key):
                store.link(key[0], other)
        return store

    def test_factorized_join_enumeration(self, systems, benchmark):
        store = self._build_store(systems)
        rows = benchmark(lambda: list(store.join()))
        assert len(rows) == store.count_join()

    def test_factorized_pushed_down_aggregate(self, systems, benchmark):
        store = self._build_store(systems)
        totals = benchmark(lambda: store.aggregate_right_per_left(lambda r: r["s1_x"]))
        assert len(totals) == len(store.left)

    def test_factorized_form_is_more_compact_than_flat(self, systems):
        store = self._build_store(systems)
        if store.count_join() > len(store.left):
            assert store.flat_duplication_factor() > 1.0
