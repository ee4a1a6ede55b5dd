"""``run --smoke`` emits every declared metric for every workload, and the
program-less checkout prints no result."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from erbench import ROOT, runner
from erbench.catalog import END_TO_END, PER_LAYER, WORKLOADS


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_declared_metric(workload, trace):
    result = runner.run_one(workload, seed=5, seconds=1.0, trace=trace, smoke=True)
    line = json.loads(runner.contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = PER_LAYER if trace else END_TO_END
    assert list(line["metrics"]) == [m.name for m in declared]
    for metric in declared:
        entry = line["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], (int, float)), metric.name
    if not trace:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())
    else:
        assert line["metrics"]["reliability.acked_commits_lost"]["value"] == 0
        assert 0.9 <= line["metrics"]["harness.budget_closure"]["value"] <= 1.1


def test_without_the_program_no_result_is_printed(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "erbench"),
        tmp_path / "erbench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "-m", "erbench", "run", "--workload", "oltp_point", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout.strip() == ""
