"""Workload corpora are a function of the seed; BENCHMARK.json matches the code."""

import argparse
import json
from pathlib import Path

import pytest

import phase
import run
import workloads
from tracing import LAYER_METRICS

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def set_up(tmp_path, workload, seed, name):
    args = argparse.Namespace(workload=workload, seed=seed, scale="smoke", dir=tmp_path / name)
    return phase.setup(args)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corpus_identical_for_one_seed_and_different_across_seeds(tmp_path, workload):
    first = set_up(tmp_path, workload, 3, "a")
    again = set_up(tmp_path, workload, 3, "b")
    other = set_up(tmp_path, workload, 4, "c")
    assert first["digest"] == again["digest"]
    assert first["points"] == again["points"]
    assert other["digest"] != first["digest"]
    assert len(first["points"]) == workloads.sizes(workload, "smoke").scans


def test_benchmark_json_lists_what_the_benchmark_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
