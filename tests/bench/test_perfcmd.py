"""The perf subcommand: kernel-trajectory emission and regression check."""

from __future__ import annotations

import json

import pytest

from repro.bench.perfcmd import (
    KERNEL_SCHEMA,
    PR6_BASELINE,
    check_baseline,
    main,
)


def _emit_quick(tmp_path):
    kernel = tmp_path / "BENCH_kernel.json"
    assert main(["--quick", "--kernel-out", str(kernel)]) == 0
    return kernel


def test_quick_run_emits_the_kernel_schema(tmp_path):
    kernel = _emit_quick(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_kernel.json"]
    kp = json.loads(kernel.read_text())
    assert kp["schema"] == KERNEL_SCHEMA
    assert len(kp["cells"]) >= 4
    assert kp["calib_mops"] > 0
    assert kp["baseline_pr6"] == PR6_BASELINE
    names = {c["name"] for c in kp["cells"]}
    assert {"fig5_stencil_1d_n4_q", "fig5_stencil_1d_n8_q",
            "jobs_backfill_q", "jobs_overload_q"} <= names
    for cell in kp["cells"]:
        assert cell["events"] > 0
        assert cell["wall_s"] > 0
        assert cell["makespan_s"] > 0


def test_check_accepts_its_own_baseline(tmp_path):
    # A lenient throughput threshold keeps this deterministic under
    # background load — the exact-match events/makespan path and the
    # check plumbing are what this test pins; the strict 30% guard is
    # covered synthetically below.
    kernel = _emit_quick(tmp_path)
    assert check_baseline(kernel, regression=0.95) == 0


def test_check_fails_on_throughput_regression(tmp_path, capsys):
    # Synthetic: inflate the recorded ev/s so even a fast replay looks
    # like a >30% normalized regression — exercises the guard without
    # depending on wall-clock stability.
    kernel = _emit_quick(tmp_path)
    payload = json.loads(kernel.read_text())
    for cell in payload["cells"]:
        cell["events_per_sec"] *= 1000.0
    kernel.write_text(json.dumps(payload))
    assert check_baseline(kernel) == 1
    assert "normalized throughput" in capsys.readouterr().out


def test_check_fails_on_event_count_drift(tmp_path, capsys):
    kernel = _emit_quick(tmp_path)
    payload = json.loads(kernel.read_text())
    payload["cells"][0]["events"] += 1  # deterministic field: any drift fails
    kernel.write_text(json.dumps(payload))
    assert check_baseline(kernel) == 1
    assert "kernel regression" in capsys.readouterr().out


def test_check_fails_on_wrong_schema(tmp_path):
    kernel = _emit_quick(tmp_path)
    payload = json.loads(kernel.read_text())
    payload["schema"] = "something-else/9"
    kernel.write_text(json.dumps(payload))
    assert check_baseline(kernel) == 1


def test_full_baseline_records_headline_cells():
    # The recorded PR 6 reference covers the scalability cells the
    # optimization targeted, including bench_fig5_scalability's own
    # 2n x 32 graphs.
    assert "fig5_stencil_1d_n64" in PR6_BASELINE
    assert "fig5bench_stencil_1d_n64" in PR6_BASELINE
    assert "fig5bench_fft_n64" in PR6_BASELINE
    for ref in PR6_BASELINE.values():
        assert ref["events"] > 0
        assert ref["wall_s"] > 0


def test_legacy_flat_output_is_gone():
    with pytest.raises(SystemExit):
        main(["--quick", "--out", "BENCH_jobs.json"])
