"""Experiments E1–E4 (paper Section 6): multi-valued attribute layouts.

Each benchmark times the same logical operation under the normalized mapping
M1 (side tables) and the array mapping M2, and asserts the *direction* the
paper reports (not the absolute factor).
"""

from repro.bench.experiments import evaluate_claim, get_experiment


def _run_and_check(systems, experiment_id, benchmark, bench_mapping):
    experiment = get_experiment(experiment_id)
    query_or_op = experiment.query

    if experiment.operation is not None:
        benchmark(lambda: experiment.operation(systems[bench_mapping]))
    else:
        benchmark(lambda: len(systems[bench_mapping].query(query_or_op)))
    results = experiment.run(systems)
    return [evaluate_claim(claim, results, experiment) for claim in experiment.claims]


class TestE1AllMultiValuedAttributes:
    def test_e1_m1_normalized(self, systems, benchmark):
        outcomes = _run_and_check(systems, "E1", benchmark, "M1")
        assert all(o.direction_reproduced for o in outcomes), outcomes

    def test_e1_m2_arrays(self, systems, benchmark):
        experiment = get_experiment("E1")
        benchmark(lambda: len(systems["M2"].query(experiment.query)))


class TestE2SingleAttributeUnnest:
    def test_e2_direction(self, systems, benchmark):
        outcomes = _run_and_check(systems, "E2", benchmark, "M1")
        # M1 reads the narrow side table directly; M2 pays the unnest
        assert all(o.direction_reproduced for o in outcomes), outcomes

    def test_e2_m2_arrays(self, systems, benchmark):
        experiment = get_experiment("E2")
        benchmark(lambda: len(systems["M2"].query(experiment.query)))


class TestE3PointLookup:
    def test_e3_direction(self, systems, benchmark):
        outcomes = _run_and_check(systems, "E3", benchmark, "M2")
        # both layouts probe an r_id index (M1's is the side tables' owner key);
        # M2 still wins by reading the arrays off one row instead of joining
        assert all(o.direction_reproduced for o in outcomes), outcomes

    def test_e3_m1_side_table_scan(self, systems, benchmark):
        experiment = get_experiment("E3")
        benchmark(lambda: len(systems["M1"].query(experiment.query)))


class TestE4Intersection:
    """The paper reports M1 ≈3.6× faster; on the pure-Python substrate the
    per-row array intersection of M2 is cheap relative to the join, so the
    direction does not reproduce.  The bench still regenerates both
    measurements."""

    def test_e4_m1_side_table_join(self, systems, benchmark):
        experiment = get_experiment("E4")
        benchmark(lambda: experiment.operation(systems["M1"]))

    def test_e4_m2_array_intersection(self, systems, benchmark):
        experiment = get_experiment("E4")
        benchmark(lambda: experiment.operation(systems["M2"]))

    def test_e4_results_agree_across_mappings(self, systems):
        experiment = get_experiment("E4")
        m1 = experiment.operation(systems["M1"])
        m2 = experiment.operation(systems["M2"])
        def normalize(result):
            return {
                row["r.r_id"]: tuple(sorted(row["r.common"] or []))
                for row in result.rows
                if row.get("r.common")
            }
        assert normalize(m1) == normalize(m2)
