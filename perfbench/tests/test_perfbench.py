"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from fct_cells import FctWorkload  # noqa: E402
from fleet_year import FleetYearWorkload  # noqa: E402
from hybrid_grid import GRID_SEED, HybridGridWorkload, reference_path  # noqa: E402
from service_load import ServiceWorkload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def make(name: str, seed: int):
    if name.startswith("fct-"):
        return FctWorkload(name, seed)
    if name == "hybrid-grid":
        return HybridGridWorkload(seed)
    if name == "fleet-year":
        return FleetYearWorkload(seed)
    return ServiceWorkload(seed, seconds=1.0)


def run_bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def digest_of(lines, workload):
    for line in lines:
        if line.startswith(f"{workload} digest sha256="):
            return line.split("=", 1)[1].split()[0]
    raise AssertionError(f"no digest line for {workload}")


# -- BENCHMARK.json and the prediction map ----------------------------------

def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = (WORKLOADS + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_prediction_map_matches_catalog():
    with open(os.path.join(BENCH, "predictions.json")) as handle:
        per_layer = json.load(handle)["per_layer"]
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for name, entry in per_layer.items():
        assert set(entry["measured_on"]) <= set(WORKLOADS), name
        assert set(entry["flat_on"]) <= set(WORKLOADS), name
        for pair in entry["moves"]:
            metric, workload = pair.split("@")
            assert metric in end_to_end and workload in WORKLOADS, pair
            assert workload not in entry["flat_on"], pair


def test_the_grid_has_a_reference():
    from repro.fastpath.validate import default_grid

    with open(reference_path(GRID_SEED)) as handle:
        cells = json.load(handle)["cells"]
    assert set(cells) == {s.cell_id() for s in default_grid(seed=GRID_SEED)}


# -- generated inputs ---------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload):
    first = make(workload, 7).inputs()
    again = make(workload, 7).inputs()
    other = make(workload, 8).inputs()
    assert first == again
    assert first != other


# -- runs ---------------------------------------------------------------------

def test_two_runs_give_identical_digests_and_every_metric_is_known():
    digests = []
    for _ in range(2):
        result, lines = result_of(run_bench(
            "--workload", "fct-143b-lg", "--seed", "3",
            "--seconds", "0.1", "--trace", "0"))
        assert result["correct"] and result["failed"] == 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values())
        for line in lines:
            match = re.match(r"^fct-143b-lg (\S+) = \S+ (\S+)", line)
            if match:
                assert UNITS[match.group(1)] == match.group(2), line
        digests.append(digest_of(lines, "fct-143b-lg"))
    assert digests[0] == digests[1]


@pytest.mark.parametrize("workload,expected", [
    ("fct-143b-lg", (380, 440)),
    ("fct-2mb-lg", (28_000, 37_000)),
])
def test_traced_run_counts_events_and_keeps_outputs(workload, expected):
    """Events are counted from outside (never from the cell's own
    ``engine_run_s`` timing), and tracing does not perturb the cells."""
    _, plain_lines = result_of(run_bench(
        "--workload", workload, "--seed", "5", "--seconds", "0.1",
        "--trace", "0"))
    result, lines = result_of(run_bench(
        "--workload", workload, "--seed", "5", "--seconds", "0.1",
        "--trace", "1"))
    assert result["correct"]
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    events = metrics["core.events_per_trial"]["value"]
    assert expected[0] < events < expected[1]
    assert metrics["transport.affected_flows"]["value"] == 0
    assert digest_of(lines, workload) == digest_of(plain_lines, workload)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "fct-143b-lg", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
