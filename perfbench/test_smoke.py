"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Checks that every metric BENCHMARK.json names is emitted, that a run agrees
with a reference taken at the same sizes, and that a perturbed reference is
counted as failed operations.
"""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    return run.make_reference(run.TINY, tmp_path_factory.mktemp("reference"))


def test_benchmark_json_matches_the_spec():
    assert json.loads(run.BENCHMARK_JSON.read_text()) == run.spec()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_emitted(workload, trace, tiny_reference, tmp_path):
    result, lines = run.measure(workload, 5, 0.01, trace, tmp_path, run.TINY, tiny_reference)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = run.spec()
    if trace:
        expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    assert any(line.startswith("failed_frac") for line in lines)
    assert any(line.startswith("machine ") for line in lines)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_perturbed_reference_is_caught(workload, tiny_reference, tmp_path):
    bad = copy.deepcopy(tiny_reference)
    if workload == "cli_d1":
        rows = bad["cli_d1"]
        i = max(range(len(rows)), key=lambda r: abs(rows[r][2]))
        j, k, raw, kept, tau = rows[i]
        rows[i] = (j, k, raw * (1 + 1e-8), kept, tau)
    else:
        bad[workload]["risks"][0]["mean"] *= 1 + 1e-8
    result, _ = run.measure(workload, 5, 0.01, 0, tmp_path, run.TINY, bad)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
