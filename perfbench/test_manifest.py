"""``BENCHMARK.json`` matches the code, and the pins match the records."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import manifest
import workloads
from run import nearest_rank_median, round_count

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_from_the_manifest():
    assert (ROOT / "BENCHMARK.json").read_text() == manifest.render()


def test_manifest_names_units_and_bounds():
    doc = manifest.manifest()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in doc["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert 2 <= len(doc["workloads"]) <= 8
    assert len(doc["per_layer"]) <= 128
    assert set(manifest.WORKLOADS) == set(workloads.WORKLOADS)


def _cell(path: str, name: str) -> dict:
    cells = json.loads((ROOT / path).read_text())["cells"]
    return next(c for c in cells if c["name"] == name)


def test_pins_match_the_committed_records():
    fig5 = _cell("BENCH_kernel.json", "fig5bench_stencil_1d_n64")
    assert fig5["events"] == workloads.FIG5_PIN_EVENTS
    assert fig5["makespan_s"] == workloads.FIG5_PIN_MAKESPAN
    shard = _cell("BENCH_shard.json", "shard_stencil_1d_n256_k4")
    assert shard["events"] == workloads.SHARD_PIN_EVENTS
    assert shard["makespan_s"] == workloads.SHARD_PIN_MAKESPAN
    jobs = _cell("BENCH_kernel.json", "jobs_overload_1x")
    assert jobs["events"] == workloads.JOBS_REF_EVENTS


def test_round_zero_uses_the_seed_itself():
    assert workloads.subseed(7, 0) == 7
    seeds = {workloads.subseed(s, i) for s in range(1, 12)
             for i in range(30)}
    assert len(seeds) == 11 * 30


def test_round_count_follows_the_nominal_round_length():
    # A run's operations, and so ``attempted`` and ``failed``, depend on
    # the seed and ``--seconds`` only.
    counts = {name: round_count(manifest.RUN_SECONDS, wl.round_s,
                                wl.min_rounds)
              for name, wl in workloads.WORKLOADS.items()}
    assert counts == {"fig5_stencil_n64": 5, "shard_gossip_n256": 5,
                      "tiered_recovery_n17": 7, "jobs_overload_3x": 42}
    assert round_count(1, 5.0, 1) == 1
    assert round_count(1, 0.6, 20) == 20


def test_nearest_rank_median_counts_failures_as_infinite():
    inf = float("inf")
    assert nearest_rank_median([3.0, 1.0, 2.0]) == 2.0
    assert nearest_rank_median([1.0, 2.0, 3.0, 4.0]) == 2.0
    assert nearest_rank_median([1.0, 2.0, 3.0, inf, inf]) == 3.0
    assert nearest_rank_median([1.0, inf, inf]) == inf


def test_without_the_simulator_sources_it_fails_fast(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "jobs_overload_3x", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
