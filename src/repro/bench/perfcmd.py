"""The ``perf`` subcommand: simulator performance baseline.

Usage::

    python -m repro.bench perf
    python -m repro.bench perf --quick --kernel-out BENCH_kernel.json
    python -m repro.bench perf --check BENCH_kernel.json

Times representative workloads — Fig. 5-style Task Bench scalability
cells on the single-application runtime, plus the multi-tenant jobs
bench (backfill workload and the elastic overload scenario) — and
records, per cell, the host wall time, the number of simulation events
processed, the resulting events/second, and the simulated makespan.

A run writes ``BENCH_kernel.json`` (``--kernel-out``), the
kernel-optimization trajectory: the cells plus the recorded
pre-optimization (:data:`PR6_BASELINE`) reference, per-cell speedups,
and a machine-calibration score that lets ``--check`` compare
throughput across hosts.

``--check`` is the CI regression guard: it re-runs the quick cells and
fails if (a) any event count or makespan drifts from the recorded
baseline — those are deterministic, so *any* drift is a kernel
regression — or (b) calibration-normalized events/second drops more
than 30 % below the recorded value.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.cluster.machine import Cluster, ClusterSpec
from repro.core.config import OMPCConfig
from repro.core.runtime import OMPCRuntime
from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec
from repro.taskbench.bench import build_omp_program

#: Reference fabric bandwidth for CCR-derived payload sizes (§6.1).
DEFAULT_BANDWIDTH = 100e9 / 8.0

KERNEL_SCHEMA = "repro-kernel-perf/1"

#: Maximum tolerated drop in calibration-normalized events/second
#: before ``--check`` fails (0.3 == 30 %).
CHECK_REGRESSION = 0.3

#: Pre-optimization kernel reference, measured at the commit preceding
#: the kernel fast-path work ("Elastic overload protection for the
#: multi-tenant job manager").  ``events`` counts are deterministic
#: (``sim._seq`` after the run); ``wall_s`` is the minimum wall over
#: interleaved before/after reps on the recording host, the honest
#: estimator under background-load noise (observed swings: ±40 %).
#: The ``fig5bench_*`` cells are ``bench_fig5_scalability``'s own
#: 2n x 32-step graphs; the ``fig5_*`` cells are the 16-step variants.
PR6_BASELINE: dict[str, dict[str, float]] = {
    "fig5_stencil_1d_n4": {"events": 12164, "wall_s": 0.077683},
    "fig5_stencil_1d_n8": {"events": 40010, "wall_s": 0.209767},
    "fig5_stencil_1d_n16": {"events": 170278, "wall_s": 0.856722},
    "fig5_stencil_1d_n32": {"events": 391410, "wall_s": 2.313331},
    "fig5_stencil_1d_n64": {"events": 812140, "wall_s": 5.786942},
    "fig5bench_stencil_1d_n64": {"events": 1693640, "wall_s": 13.894090},
    "fig5bench_fft_n64": {"events": 1684214, "wall_s": 13.933188},
    "jobs_backfill": {"events": 61093, "wall_s": 0.350729},
    "jobs_overload_1x": {"events": 61724, "wall_s": 0.349834},
}


def _fig5_spec(
    nodes: int, steps: int, pattern: Pattern = Pattern.STENCIL_1D
) -> TaskBenchSpec:
    """Fig. 5 cell shape: width 2n, 50 ms tasks, CCR 1.0 (steps vary
    so ``--quick`` stays fast; the figure itself uses 32)."""
    return TaskBenchSpec.with_ccr(
        2 * nodes, steps, pattern,
        KernelSpec.paper_50ms(), 1.0, DEFAULT_BANDWIDTH,
    )


def _run_fig5_cell(
    nodes: int,
    steps: int,
    pattern: Pattern = Pattern.STENCIL_1D,
    label: str | None = None,
) -> dict:
    program = build_omp_program(_fig5_spec(nodes, steps, pattern))
    runtime = OMPCRuntime(ClusterSpec(num_nodes=nodes), OMPCConfig())
    t0 = time.perf_counter()
    result = runtime.run(program)
    wall = time.perf_counter() - t0
    events = runtime.last_cluster.sim._seq
    return _cell(
        label or f"fig5_{pattern.value}_n{nodes}", wall, events,
        result.makespan,
    )


def _run_fig5bench_cell(nodes: int, pattern: Pattern) -> dict:
    """One ``bench_fig5_scalability`` cell proper: the 2n x 32 graph."""
    return _run_fig5_cell(
        nodes, 32, pattern, label=f"fig5bench_{pattern.value}_n{nodes}"
    )


def _run_jobs_backfill(quick: bool) -> dict:
    from repro.jobs import JobManager, PoissonWorkload

    workload = PoissonWorkload(
        seed=7, jobs=8 if quick else 24, mean_interarrival=0.01,
        large=(8, 12), large_fraction=0.35, steps=(3, 6),
        task_seconds=(0.02, 0.08),
    ).generate()
    manager = JobManager(
        Cluster(ClusterSpec(num_nodes=17)), policy="backfill"
    )
    t0 = time.perf_counter()
    report = manager.run(workload)
    wall = time.perf_counter() - t0
    name = "jobs_backfill_q" if quick else "jobs_backfill"
    return _cell(name, wall, manager.sim._seq, report.horizon)


def _run_jobs_overload(quick: bool) -> dict:
    from repro.bench.jobscmd import run_overload

    manager, report = run_overload("backfill", load=1.0, quick=quick)
    # The manager is built inside run_overload; its wall time includes
    # trace generation, which is part of the serving path anyway.
    t0 = time.perf_counter()
    manager2, report2 = run_overload("backfill", load=1.0, quick=quick)
    wall = time.perf_counter() - t0
    del manager, report  # warm-up run (imports, first-touch caches)
    name = "jobs_overload_q" if quick else "jobs_overload_1x"
    return _cell(name, wall, manager2.sim._seq, report2.horizon)


def _cell(name: str, wall: float, events: int, makespan: float) -> dict:
    return {
        "name": name,
        "wall_s": round(wall, 6),
        "events": int(events),
        "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
        "makespan_s": round(float(makespan), 9),
    }


def _calib_mops() -> float:
    """Host-speed score: million interpreter spin-loop ops per second.

    Dividing a cell's events/second by this score gives a
    machine-normalized throughput, which is what ``--check`` compares —
    an absolute events/second threshold would fail on any runner slower
    than the recording host.  Best of three to shed scheduler noise.
    """
    n = 200_000
    best = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc ^= i & 15
        dt = time.perf_counter() - t0
        if dt > 0:
            best = max(best, n / dt / 1e6)
    return round(best, 2)


def _quick_cells() -> list[dict]:
    """The deterministic smoke cells ``--check`` replays (quick shapes)."""
    cells = [
        _run_fig5_cell(4, 4, label="fig5_stencil_1d_n4_q"),
        _run_fig5_cell(8, 4, label="fig5_stencil_1d_n8_q"),
        _run_jobs_backfill(True),
        _run_jobs_overload(True),
    ]
    return cells


def _full_cells() -> list[dict]:
    cells = []
    for nodes in (4, 8, 16, 32, 64):
        cells.append(_run_fig5_cell(nodes, 16))
    cells.append(_run_fig5bench_cell(64, Pattern.STENCIL_1D))
    cells.append(_run_fig5bench_cell(64, Pattern.FFT))
    cells.append(_run_jobs_backfill(False))
    cells.append(_run_jobs_overload(False))
    return cells


def _speedups(cells: list[dict]) -> dict[str, dict[str, float]]:
    """Per-cell gains vs :data:`PR6_BASELINE` (where a reference exists).

    ``wall_x`` compares walls, so it is only meaningful when the run
    host resembles the recording host; ``events_x`` (fewer events for
    the same simulated work) and ``equal_work_events_per_sec``
    (reference event count over the new wall — throughput at
    PR6-equivalent work) travel better.
    """
    out: dict[str, dict[str, float]] = {}
    for cell in cells:
        base = PR6_BASELINE.get(cell["name"])
        if base is None or cell["wall_s"] <= 0:
            continue
        out[cell["name"]] = {
            "wall_x": round(base["wall_s"] / cell["wall_s"], 2),
            "events_x": round(base["events"] / cell["events"], 2),
            "equal_work_events_per_sec": round(
                base["events"] / cell["wall_s"], 1
            ),
            "baseline_events_per_sec": round(
                base["events"] / base["wall_s"], 1
            ),
        }
    return out


def _print_cell(cell: dict) -> None:
    print(f"  {cell['name']}: {cell['events']} events in "
          f"{cell['wall_s']:.3f} s host time "
          f"({cell['events_per_sec']:.0f} ev/s), "
          f"makespan {cell['makespan_s']:.4f} s")


def check_baseline(path: Path, regression: float = CHECK_REGRESSION) -> int:
    """Replay the quick cells against a recorded ``BENCH_kernel.json``.

    Deterministic fields (events, makespan) must match exactly;
    calibration-normalized throughput may not regress by more than
    ``regression``.  Each cell is timed twice and the faster rep is
    compared — wall time is the one noisy quantity here, and a loaded
    host inflates it one-sidedly.  Returns a process exit code.
    """
    recorded = json.loads(path.read_text())
    problems: list[str] = []
    if recorded.get("schema") != KERNEL_SCHEMA:
        print(f"FAIL: schema {recorded.get('schema')!r} != {KERNEL_SCHEMA!r}")
        return 1
    if not recorded.get("baseline_pr6"):
        problems.append("baseline_pr6 section missing or empty")
    by_name = {c["name"]: c for c in recorded.get("cells", [])}
    calib_old = recorded.get("calib_mops") or 0.0
    calib_new = _calib_mops()
    print(f"calibration: recorded {calib_old} Mop/s, this host "
          f"{calib_new} Mop/s")
    reps = [_quick_cells(), _quick_cells()]
    for fresh, again in zip(*reps):
        if again["events_per_sec"] > fresh["events_per_sec"]:
            fresh = dict(fresh, events_per_sec=again["events_per_sec"],
                         wall_s=again["wall_s"])
        _print_cell(fresh)
        old = by_name.get(fresh["name"])
        if old is None:
            problems.append(f"{fresh['name']}: not in recorded baseline")
            continue
        if fresh["events"] != old["events"]:
            problems.append(
                f"{fresh['name']}: events {fresh['events']} != recorded "
                f"{old['events']} (deterministic — kernel regression)"
            )
        if fresh["makespan_s"] != old["makespan_s"]:
            problems.append(
                f"{fresh['name']}: makespan {fresh['makespan_s']} != "
                f"recorded {old['makespan_s']} (simulation result changed)"
            )
        if calib_old > 0 and calib_new > 0:
            norm_old = old["events_per_sec"] / calib_old
            norm_new = fresh["events_per_sec"] / calib_new
            if norm_new < (1.0 - regression) * norm_old:
                problems.append(
                    f"{fresh['name']}: normalized throughput "
                    f"{norm_new:.1f} < {1.0 - regression:.0%} of "
                    f"recorded {norm_old:.1f} (ev/s per Mop/s)"
                )
    for p in problems:
        print(f"FAIL: {p}")
    if problems:
        return 1
    print(f"perf check OK against {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench perf",
        description="Measure simulator throughput (events/sec + "
        "makespan) on representative workloads and emit a JSON "
        "baseline for perf regression tracking.",
    )
    parser.add_argument("--kernel-out", type=Path,
                        default=Path("BENCH_kernel.json"),
                        help="kernel-trajectory JSON path "
                        "(default: BENCH_kernel.json)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller cells for smoke tests")
    parser.add_argument("--check", type=Path, metavar="BASELINE",
                        help="replay quick cells against a recorded "
                        "BENCH_kernel.json and fail on regression")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.check is not None:
        return check_baseline(args.check)

    cells = _quick_cells()
    if not args.quick:
        cells += _full_cells()
    for cell in cells:
        _print_cell(cell)

    kernel_payload = {
        "schema": KERNEL_SCHEMA,
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "calib_mops": _calib_mops(),
        "cells": cells,
        "baseline_pr6": PR6_BASELINE,
        "speedup": _speedups(cells),
    }
    args.kernel_out.write_text(json.dumps(kernel_payload, indent=2))
    print(f"kernel trajectory -> {args.kernel_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
