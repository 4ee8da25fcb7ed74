"""What the benchmark measures: workloads, metrics and the manifest.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-manifest``) and a test keeps the two
equal.
"""

from __future__ import annotations

import json

from spans import LAYERS

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 25

#: Seed of the canonical scenarios.  Each workload's ``why`` also names
#: the seed held out while the benchmark was sized (11).
DEFAULT_SEED = 7

#: ``name -> why`` of each workload, in run order.
WORKLOADS: dict[str, str] = {
    "fig5_stencil_n64": (
        "Paper Fig. 5 knee, 64 nodes, 4096 50 ms tasks: kernel, flow "
        "engine, MPI, events and one HEFT call; tiering, recovery, shards "
        "idle. No random input; seeds 7, 11."
    ),
    "shard_gossip_n256": (
        "Control-plane bound, 256 nodes, 4 head shards, gossip, 0.5 ms "
        "tasks: costs that grow with node count. Seed is gossip_seed: "
        "default 7, held-out 11."
    ),
    "tiered_recovery_n17": (
        "Tiering, crash recovery, head log, lossy MPI: real-data stencil "
        "at 8/6/4/3/2x a task's working set. Seed: data, loss, crash "
        "node; default 7, held-out 11."
    ),
    "jobs_overload_3x": (
        "Only jobs workload: elastic manager, open-loop arrivals, many "
        "short launches, shedding, preemption. Seed: the overload trace; "
        "default 7, held-out 11."
    ),
}

#: ``(name, unit, better, bound)``: what a user of the simulator sees.
#: ``sim_s`` is simulated seconds, deterministic for a seed.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("tasks_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("makespan_s", "sim_s", "lower", 0.25),
    ("ops_ok_frac", "frac", "higher", 0.2),
)

#: ``(name, unit, better)`` per layer, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("sim.host_self_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_task", "count", "lower"),
    ("sim.events_per_message", "count", "lower"),
    ("sim.processes", "count", "lower"),
    ("sim.timeouts", "count", "lower"),
    ("sim.event_calls", "count", "lower"),
    ("net.host_self_s", "s", "lower"),
    ("net.transfers", "count", "lower"),
    ("net.messages", "count", "lower"),
    ("net.bytes", "B", "lower"),
    ("mpi.host_self_s", "s", "lower"),
    ("mpi.sends", "count", "lower"),
    ("mpi.recvs", "count", "lower"),
    ("mpi.retransmissions", "count", "lower"),
    ("mpi.duplicates", "count", "lower"),
    ("mpi.acks", "count", "lower"),
    ("events.host_self_s", "s", "lower"),
    ("events.submit", "count", "lower"),
    ("events.retrieve", "count", "lower"),
    ("events.exchange", "count", "lower"),
    ("events.execute", "count", "lower"),
    ("events.alloc", "count", "lower"),
    ("events.delete", "count", "lower"),
    ("events.broadcast", "count", "lower"),
    ("events.per_task", "count", "lower"),
    ("heft.host_s", "s", "lower"),
    ("heft.calls", "count", "lower"),
    ("heft.tasks", "count", "lower"),
    ("sched.sim_s", "sim_s", "lower"),
    ("dm.host_self_s", "s", "lower"),
    ("dm.plans", "count", "lower"),
    ("mem.hit", "count", "higher"),
    ("mem.miss", "count", "lower"),
    ("mem.hit_ratio", "frac", "higher"),
    ("mem.evict", "count", "lower"),
    ("mem.spill_bytes", "B", "lower"),
    ("mem.fetch_retries", "count", "lower"),
    ("ft.host_self_s", "s", "lower"),
    ("ft.detect_s", "sim_s", "lower"),
    ("ft.reexecuted", "count", "lower"),
    ("ft.false_positives", "count", "lower"),
    ("ft.missed_hb_windows", "count", "lower"),
    ("log.host_self_s", "s", "lower"),
    ("log.records", "count", "lower"),
    ("log.replication_bytes", "B", "lower"),
    ("shard.host_self_s", "s", "lower"),
    ("shard.forwards", "count", "lower"),
    ("shard.leases", "count", "lower"),
    ("shard.cross_edges", "count", "lower"),
    ("shard.dispatches", "count", "lower"),
    ("gossip.rounds", "count", "lower"),
    ("jobs.host_self_s", "s", "lower"),
    ("jobs.launch_host_s", "s", "lower"),
    ("jobs.submitted", "count", "higher"),
    ("jobs.completed", "count", "higher"),
    ("jobs.shed", "count", "lower"),
    ("jobs.preempted", "count", "lower"),
    ("jobs.requeued", "count", "lower"),
    ("jobs.dead_lettered", "count", "lower"),
    ("jobs.scale_ups", "count", "lower"),
    ("jobs.p99_bounded_slowdown", "ratio", "lower"),
    ("jobs.slo_attainment", "frac", "higher"),
    ("build.host_s", "s", "lower"),
    ("build.tasks", "count", "lower"),
    ("build.edges", "count", "lower"),
    ("obs.overhead_frac", "frac", "lower"),
    ("rt.host_self_s", "s", "lower"),
    ("overhead_frac", "frac", "lower"),
    ("ops_failed_frac", "frac", "lower"),
    ("ops.ok", "count", "higher"),
    ("ops.typed_error", "count", "lower"),
    ("ops.untyped_error", "count", "lower"),
    ("ops.wrong_output", "count", "lower"),
    ("ops.hang", "count", "lower"),
    ("bench.trace_overhead_frac", "frac", "lower"),
) + tuple((f"share.{layer}", "frac", "lower") for layer in LAYERS)


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def render() -> str:
    return json.dumps(manifest(), indent=2) + "\n"
