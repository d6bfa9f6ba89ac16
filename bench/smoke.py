"""Smoke test of the benchmark at tiny sizes (about half a minute).

    python3 -m pytest -q bench/smoke.py

Not collected by the repository's test run; it checks the benchmark, not
the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402

with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def test_workloads_match_the_benchmark_file():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_present_and_nothing_fails(workload, traced):
    record = run.run_benchmark(workload, seed=5, seconds=0.0, traced=traced, size="tiny")
    declared = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in record["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert record["attempted"] >= 1
    assert record["failed"] == 0 and record["correct"]
    if not traced:
        assert all(m["value"] > 0 for m in record["metrics"].values())
    json.dumps({key: record[key] for key in run.RESULT_KEYS})


def test_flipped_holonomy_sign_counts_as_failure():
    record = run.run_benchmark("transport-long", seed=5, seconds=0.0, traced=False,
                               size="tiny", holonomy_sign=+1)
    assert record["attempted"] >= 1
    assert record["failed"] == record["attempted"]
    assert not record["correct"]


def test_same_seed_same_inputs():
    size = run.SIZES["full"]
    for workload in run.WORKLOADS:
        assert run.draw_inputs(workload, 7, size) == run.draw_inputs(workload, 7, size)


def test_checkout_without_sources_exits_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "transport-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    parent = [10.0 + 0.01 * i for i in range(10)]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    pairs = lambda change: list(zip(parent, change))
    assert compare.verdict(parent, faster, pairs(faster), "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, pairs(slower), "lower", 0.1)[0] == "regressed"
    assert compare.verdict(parent, parent, pairs(parent), "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(parent, slower, pairs(slower), "higher", 0.1)[0] == "improved"
    assert compare.verdict(parent[:3], parent[:3], pairs(parent[:3]), "lower", 0.1)[0] \
        == "unresolved"
