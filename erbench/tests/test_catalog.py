"""BENCHMARK.json is the committed copy of the catalogue and obeys the
driver's limits."""

import json
import os
import re

from erbench import ROOT
from erbench.catalog import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def committed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_matches_catalog():
    assert committed() == benchmark_json()


def test_top_level_keys_and_command():
    document = committed()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert document["paths"] == ["erbench"]
    assert 1 <= document["run_seconds"] <= 60 and isinstance(document["run_seconds"], int)
    assert len(document["command"]) <= 32
    assert not any(part.startswith("/") or ".." in part for part in document["command"])


def test_counts_within_limits():
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128


def test_names_units_and_whys():
    document = committed()
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names)), "a name is used once"
    for name in names:
        assert NAME.match(name), name
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_bounds():
    document = committed()
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}]
    assert setup[0]["bound"] == max(m["bound"] for m in document["end_to_end"])


def test_file_size():
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
