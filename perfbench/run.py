"""The repository's benchmark: host and simulated time, layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5_stencil_n64 --seed 7 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload,
                                                     # untraced + traced
    python3 perfbench/run.py --write-manifest        # regenerate
                                                     # BENCHMARK.json

``--trace 0`` measures the end-to-end metrics with tracing off: rounds
of the workload run back to back, as many as fill about ``--seconds``
at the workload's nominal round length (and at least its minimum
number of rounds).  ``--trace 1`` measures the per-layer metrics: each
round runs untraced, then traced (spans from :mod:`spans`), then with
the simulator's own observer on; the traced run must reproduce the
untraced one exactly.

The report lists every metric with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit code 2 means the simulator sources were not
found next to the benchmark; nothing is printed on standard output then.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is timed at least this many times per run (median reported).
MIN_SETUPS = 15
#: A makespan median that is infinite (most operations failed) is
#: reported as this many simulated seconds, JSON having no infinity.
INF_MAKESPAN = 1e9
#: A traced round runs the workload three times (untraced, traced at
#: about twice the cost, observer on): this many untraced rounds' time.
TRACED_ROUND_COST = 4


def nearest_rank_median(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(0.5 * len(ordered)) - 1]


def round_count(seconds: float, round_s: float, minimum: int) -> int:
    """Rounds in a run of about ``seconds`` host seconds.

    The count follows from a round's nominal length ``round_s``, never
    from the clock, so a seed and ``--seconds`` always give the same
    operations (and the same ``attempted`` and ``failed``).
    """
    return max(minimum, round(seconds / round_s))


def _tally(rounds):
    from outcomes import Tally

    tally = Tally()
    for rnd in rounds:
        for op in rnd.ops:
            tally.add(op.outcome, op.count, op.detail, op.message)
    return tally


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _units(table) -> dict[str, str]:
    return {row[0]: row[1] for row in table}


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------
def plain_run(wl, seed: int, seconds: float) -> tuple[dict, list[str]]:
    from manifest import END_TO_END
    from workloads import subseed

    wl.calibrate()
    rounds = []
    for index in range(round_count(seconds, wl.round_s, wl.min_rounds)):
        rounds.append(wl.round(subseed(seed, index)))
        gc.collect()  # between rounds, so peak memory is one round's
    setups = [s for rnd in rounds for s in rnd.setup_s]
    index = len(rounds)
    while len(setups) < MIN_SETUPS:
        setups.append(wl.setup_sample(subseed(seed, index)))
        index += 1

    # Simulated metrics use the first ``min_rounds`` rounds only, so
    # they are a pure function of the seed.
    fixed = rounds[:wl.min_rounds]
    fixed_tally = _tally(fixed)
    makespan = nearest_rank_median(
        [m for rnd in fixed for m in rnd.makespans])
    values = {
        # Over the whole measured phase: a failed round adds its time.
        "tasks_per_s": sum(rnd.tasks for rnd in rounds)
        / sum(rnd.run_s for rnd in rounds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "makespan_s": min(makespan, INF_MAKESPAN),
        "ops_ok_frac": fixed_tally.counts["ok"] / fixed_tally.attempted,
    }
    units = _units(END_TO_END)
    metrics = {name: _metric(values[name], units[name]) for name in units}

    tally = _tally(rounds)
    pins = [rnd.pin_detail for rnd in rounds if not rnd.pins_ok]
    correct = not pins
    lines = [
        f"workload {wl.name}  seed {seed}  trace off  rounds {len(rounds)}"
        f"  setups {len(setups)}",
    ]
    for name, unit, better, bound in END_TO_END:
        lines.append(f"  {name:<22} {values[name]:>16.6f} {unit:<6} "
                     f"({better} is better, bound {bound:g})")
    rates = " ".join(f"{rnd.tasks / rnd.run_s:.1f}" for rnd in rounds)
    lines.append(f"  tasks_per_s by round   {rates}")
    extra = {
        "ops_failed_frac": (fixed_tally.failed / fixed_tally.attempted,
                            "frac"),
        "measured_s": (sum(rnd.run_s for rnd in rounds), "s"),
    }
    for key in ("overhead_frac", "slo_attainment"):
        if key in rounds[0].counts:
            extra[key] = (statistics.median(
                rnd.counts[key] for rnd in rounds), "frac")
    for name, (value, unit) in extra.items():
        lines.append(f"  {name:<22} {value:>16.6f} {unit}")
    lines += _outcome_lines(tally)
    lines += [f"  PIN MISMATCH: {p}" for p in pins]
    doc = {"correct": correct, "attempted": tally.attempted,
           "failed": tally.failed, "metrics": metrics}
    return doc, lines


def _outcome_lines(tally) -> list[str]:
    counts = " ".join(f"{k}={v}" for k, v in tally.as_dict().items())
    lines = [f"  ops.<class>            {counts}"]
    for (cls, detail), n in tally.details.most_common(8):
        lines.append(f"    {n:>6} x {cls}: {detail}")
        message = tally.messages.get((cls, detail))
        if message:
            lines.append(f"             e.g. {message}")
    return lines


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------
PLANS = ("plan_enter_data", "plan_for_task", "plan_exit_data",
         "plan_evictions")
EVENT_KINDS = ("submit", "retrieve", "exchange", "execute", "alloc",
               "delete", "broadcast")


def layer_metrics(rec, traced, plain, observed) -> dict[str, float]:
    """Per-layer values of one round (traced) and its twins."""
    from outcomes import CLASSES
    from spans import LAYERS

    c = traced.counts
    calls = rec.calls
    own = rec.profile()
    tasks = c.get("target_tasks", 0.0)
    events = c.get("sim.events", 0.0)
    messages = c.get("net.messages", 0.0)

    def per(value, base):
        return value / base if base else 0.0

    m = {
        "sim.host_self_s": own["sim"],
        "sim.events": events,
        "sim.events_per_task": per(events, tasks),
        "sim.events_per_message": per(events, messages),
        "sim.processes": calls["Simulator.process"],
        "sim.timeouts": calls["Simulator.timeout"],
        "sim.event_calls": calls["Simulator.event"],
        "net.host_self_s": own["net"],
        "net.transfers": calls["Network.transfer"],
        "net.messages": messages,
        "net.bytes": c.get("net.bytes", 0.0),
        "mpi.host_self_s": own["mpi"],
        "mpi.sends": calls["Rank.isend"],
        "mpi.recvs": calls["Rank.irecv"],
        "mpi.retransmissions": c.get("transport.retransmissions", 0.0),
        "mpi.duplicates": c.get("transport.duplicates", 0.0),
        "mpi.acks": c.get("transport.acks", 0.0),
        "events.host_self_s": own["events"],
    }
    for kind in EVENT_KINDS:
        m[f"events.{kind}"] = calls[f"EventSystem.{kind}"]
    m["events.per_task"] = per(
        sum(calls[f"EventSystem.{k}"] for k in EVENT_KINDS), tasks)
    hits, misses = c.get("mem.hit", 0.0), c.get("mem.miss", 0.0)
    m.update({
        "heft.host_s": rec.inclusive_s["HeftScheduler.schedule"],
        "heft.calls": calls["HeftScheduler.schedule"],
        "heft.tasks": rec.amounts["heft.tasks"],
        "sched.sim_s": c.get("sched.sim_s", 0.0),
        "dm.host_self_s": own["dm"],
        "dm.plans": sum(calls[f"DataManager.{p}"] for p in PLANS),
        "mem.hit": hits,
        "mem.miss": misses,
        "mem.hit_ratio": per(hits, hits + misses),
        "mem.evict": c.get("mem.evict", 0.0),
        "mem.spill_bytes": c.get("mem.spill_bytes", 0.0),
        "mem.fetch_retries": c.get("mem.fetch_retries", 0.0),
        "ft.host_self_s": own["ft"],
        "ft.detect_s": per(c.get("ft.detect_s", 0.0),
                           c.get("ft.detections", 0.0)),
        "ft.reexecuted": c.get("ft.reexecuted", 0.0),
        "ft.false_positives": c.get("ft.false_positives", 0.0),
        "ft.missed_hb_windows": c.get("ft.missed_hb_windows", 0.0),
        "log.host_self_s": own["log"],
        "log.records": c.get("log.records", 0.0),
        "log.replication_bytes": c.get("log.replication_bytes", 0.0),
        "shard.host_self_s": own["shard"],
        "shard.forwards": c.get("shard.forwards", 0.0),
        "shard.leases": c.get("shard.leases", 0.0),
        "shard.cross_edges": c.get("shard.cross_edges", 0.0),
        "shard.dispatches": c.get("shard.dispatches", 0.0),
        "gossip.rounds": c.get("gossip.rounds", 0.0),
        "jobs.host_self_s": own["jobs"],
        "jobs.launch_host_s": rec.inclusive_s["OMPCRuntime.launch"]
        + rec.inclusive_s["FaultTolerantRuntime.launch"],
    })
    for key in ("submitted", "completed", "shed", "preempted", "requeued",
                "dead_lettered", "scale_ups", "p99_bounded_slowdown"):
        m[f"jobs.{key}"] = c.get(f"jobs.{key}", 0.0)
    m["jobs.slo_attainment"] = c.get("slo_attainment", 0.0)
    tally = _tally([plain])
    m.update({
        "build.host_s": own["build"],
        "build.tasks": calls["OmpProgram.target"],
        "build.edges": calls["TaskGraph.add_edge"],
        "obs.overhead_frac": observed.run_s / plain.run_s - 1.0,
        "rt.host_self_s": own["rt"],
        "overhead_frac": c.get("overhead_frac", 0.0),
        "ops_failed_frac": tally.failed / tally.attempted,
        "bench.trace_overhead_frac": traced.run_s / plain.run_s - 1.0,
    })
    for cls in CLASSES:
        m[f"ops.{cls}"] = tally.counts[cls]
    total = sum(own.values())
    for layer in LAYERS:
        m[f"share.{layer}"] = per(own[layer], total)
    return m


def traced_run(wl, seed: int, seconds: float) -> tuple[dict, list[str]]:
    from manifest import PER_LAYER
    from spans import LAYERS, SpanRecorder, event_tap, install
    from workloads import subseed

    wl.calibrate()
    per_round: list[dict[str, float]] = []
    mismatches: list[str] = []
    rounds = []
    traced_s = TRACED_ROUND_COST * wl.round_s
    for index in range(round_count(seconds, traced_s, 1)):
        sub = subseed(seed, index)
        plain = wl.round(sub)
        rec = SpanRecorder()
        restore = install(rec)
        try:
            traced = wl.round(
                sub, tap=event_tap(rec),
                build=lambda fn, *a: rec.call("build", fn.__name__, fn, *a),
            )
        finally:
            restore()
        observed = wl.round(sub, obs=True)
        if traced.fidelity != plain.fidelity:
            mismatches.append(f"round {index} (seed {sub})")
        rounds += [plain, traced, observed]
        per_round.append(layer_metrics(rec, traced, plain, observed))
        gc.collect()

    units = _units(PER_LAYER)
    values = {name: statistics.median(r[name] for r in per_round)
              for name in units}
    metrics = {name: _metric(values[name], units[name]) for name in units}
    tally = _tally(rounds)
    pins = [rnd.pin_detail for rnd in rounds if not rnd.pins_ok]
    correct = not pins and not mismatches
    lines = [f"workload {wl.name}  seed {seed}  trace on  rounds "
             f"{len(per_round)} (each untraced + traced + observer on)"]
    for name, unit, _better in PER_LAYER:
        if not name.startswith("share."):
            lines.append(f"  {name:<26} {values[name]:>18.6f} {unit}")
    lines.append("  traced run reproduces untraced makespans, events and "
                 "outputs: " + ("yes" if not mismatches
                                else "NO, " + ", ".join(mismatches)))
    lines += _outcome_lines(tally)
    lines += [f"  PIN MISMATCH: {p}" for p in pins]
    lines += share_table(values, LAYERS)
    doc = {"correct": correct, "attempted": tally.attempted,
           "failed": tally.failed, "metrics": metrics}
    return doc, lines


#: Layer labels for the share table (modules, as in ROADMAP item 1).
LAYER_LABELS = {
    "sim": "sim kernel (`sim/`)",
    "net": "network (`cluster/network.py`)",
    "mpi": "MPI (`mpi/`)",
    "events": "event system (`core/events.py`)",
    "heft": "HEFT (`core/scheduler/`)",
    "dm": "data manager + tiering",
    "ft": "fault tolerance (`core/faults.py`)",
    "log": "head log (`core/headlog.py`)",
    "shard": "shards + gossip",
    "jobs": "jobs (`jobs/`)",
    "build": "graph build (`omp/`, `taskbench/`, constructors)",
    "rt": "runtime bodies + other (`core/runtime.py`, nodes, `obs/`)",
}


def share_table(values: dict[str, float], layers) -> list[str]:
    rows = sorted(layers, key=lambda layer: -values[f"share.{layer}"])
    lines = ["", "| Layer | Share of host self time |", "|---|---|"]
    for layer in rows:
        share = values[f"share.{layer}"]
        lines.append(f"| {LAYER_LABELS[layer]} | {share * 100:.1f}% |")
    return lines


# ---------------------------------------------------------------------------
def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    from manifest import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  check=False)
            out = proc.stdout.rstrip("\n").splitlines()
            print("\n".join(out[:-1]))
            if proc.returncode != 0 or not out:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            doc = json.loads(out[-1])
            combined["correct"] &= doc["correct"]
            if trace == 0:
                combined["attempted"] += doc["attempted"]
                combined["failed"] += doc["failed"]
            for key, metric in doc["metrics"].items():
                combined["metrics"][f"{name}/{key}"] = metric
            print()
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from manifest import DEFAULT_SEED, RUN_SECONDS, WORKLOADS, render

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(render())
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS as RUNNERS

    wl = RUNNERS[args.workload]
    run = traced_run if args.trace else plain_run
    doc, lines = run(wl, args.seed, args.seconds)
    print("\n".join(lines))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
