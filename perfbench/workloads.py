"""The four benchmark workloads.

Each workload runs in *rounds*.  A round is one or more operations run
back to back, with the round's set-up and measured phase timed apart:

* set-up builds the graph, the program and the runtime object (the
  jobs workload also builds its cluster and manager);
* the measured phase launches the runtime (cluster, scheduling,
  processes), drives the simulator to completion and collects the
  result.

Round ``i`` of a run with seed ``s`` draws its inputs from
:func:`subseed` ``(s, i)``; round 0 uses ``s`` itself, so the default
seed reproduces the repository's canonical scenarios.

Every operation is classified (:mod:`outcomes`) and checked by the
workload's oracle.  ``Round.fidelity`` holds everything a traced re-run
of the same round must reproduce exactly.
"""

from __future__ import annotations

import gc
import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from outcomes import HANG_MULTIPLE, OK, TYPED_ERROR, Watchdog, classify

from repro.bench.jobscmd import (
    OVERLOAD_NODES,
    overload_elastic_config,
    overload_trace,
)
from repro.cluster.machine import Cluster, ClusterSpec
from repro.core import (
    FaultPlan,
    FaultTolerantRuntime,
    LinkLoss,
    NodeFailure,
    OMPCConfig,
    OMPCRuntime,
)
from repro.jobs import ElasticJobManager
from repro.jobs.job import JobState
from repro.omp import OmpProgram
from repro.omp.task import TaskKind, depend_in, depend_out
from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec
from repro.taskbench.bench import build_omp_program

#: Reference fabric bandwidth for CCR-derived payload sizes (§6.1).
BANDWIDTH = 100e9 / 8.0

#: ``fig5bench_stencil_1d_n64`` in ``BENCH_kernel.json``.
FIG5_PIN_EVENTS = 477205
FIG5_PIN_MAKESPAN = 6.99734877
#: ``shard_stencil_1d_n256_k4`` in ``BENCH_shard.json``: the shard
#: workload's graph and shards with gossip off.  Gossip traffic shares
#: the fabric, so the gossip run's own makespan differs slightly (and
#: with ``gossip_seed``); the pin is checked on a gossip-off run.
SHARD_PIN_EVENTS = 243879
SHARD_PIN_MAKESPAN = 0.032524588
#: ``jobs_overload_1x`` in ``BENCH_kernel.json``: the canonical day at
#: load 1, the jobs workload's unpressured reference (scaled by load).
JOBS_REF_EVENTS = 53960

#: Host time is the process's CPU time: each workload is one thread that
#: never waits, so this is its wall time less what the host's other
#: tenants took from it.
clock = time.process_time


def subseed(seed: int, index: int) -> int:
    """Input seed of round ``index`` of a run seeded ``seed``."""
    return seed + 1_000_003 * index


@dataclass
class Op:
    """One operation's outcome."""

    outcome: str
    #: Operations this record stands for (a jobs day is one per job).
    count: int = 1
    #: Target tasks completed correctly.
    tasks: int = 0
    #: Short reason, shared by failures of one kind (report grouping).
    detail: str = ""
    #: The error's first line.
    message: str = ""


@dataclass
class Round:
    ops: list[Op] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    #: Host seconds of the measured phases.
    run_s: float = 0.0
    #: Simulated makespan per operation, ``inf`` for one that is not
    #: ``ok`` (a jobs day contributes its horizon).
    makespans: list[float] = field(default_factory=list)
    #: Cross-checks against the committed pins held (or did not apply).
    pins_ok: bool = True
    pin_detail: str = ""
    #: What a traced re-run must reproduce exactly.
    fidelity: list = field(default_factory=list)
    #: Per-layer counts read from the results (deterministic).
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def tasks(self) -> int:
        return sum(op.tasks for op in self.ops)


def _drive(launch, runtime, budget: int, tap):
    """Launch a runtime and run it to completion under the watchdog.

    ``launch()`` returns the runtime's ``(main_process, finish)``.
    Returns ``(result, error, run_seconds, events)``.
    """
    result = error = None
    sim = None
    t0 = clock()
    try:
        proc, finish = launch()
        sim = proc.sim
        Watchdog(budget, inner=tap).attach(sim)
        sim.run(until=proc)
        result = finish()
    except Exception as exc:  # classified, never swallowed silently
        error = exc
    elapsed = clock() - t0
    if sim is None and runtime.last_cluster is not None:
        sim = runtime.last_cluster.sim
    if sim is None:
        return result, error, elapsed, 0
    sim._event_tap = None
    return result, error, elapsed, sim._seq


def _message(error: BaseException) -> str:
    lines = str(error).splitlines()
    return lines[0][:200] if lines else ""


def _add(counts: dict, key: str, value: float) -> None:
    counts[key] = counts.get(key, 0.0) + float(value)


def _network_counts(counts: dict, cluster) -> None:
    _add(counts, "net.messages", cluster.network.total_messages)
    _add(counts, "net.bytes", cluster.network.total_bytes)


def _memory_counts(counts: dict, trace_counters: dict) -> None:
    for key in ("mem.hit", "mem.miss", "mem.evict", "mem.spill_bytes",
                "mem.fetch_retries"):
        _add(counts, key, trace_counters.get(key, 0.0))


# ---------------------------------------------------------------------------
# Task Bench workloads on the plain runtime (fig5 and shard)
# ---------------------------------------------------------------------------
class _TaskBenchWorkload:
    """One Task Bench stencil launch per round."""

    nodes: int
    width: int
    steps: int
    min_rounds = 1
    #: Nominal host seconds of one round (sets a run's round count).
    round_s = 5.0

    def kernel(self) -> KernelSpec:
        raise NotImplementedError

    def config(self, seed: int, obs: bool) -> OMPCConfig:
        raise NotImplementedError

    def check_pins(self, rnd: Round, result, events: int) -> None:
        """Compare with the committed pins (``result`` is ``None`` when
        the run raised)."""
        raise NotImplementedError

    ref_events: int

    def calibrate(self) -> None:
        """Nothing to calibrate: the reference is pinned."""

    def spec(self) -> TaskBenchSpec:
        return TaskBenchSpec.with_ccr(
            self.width, self.steps, Pattern.STENCIL_1D, self.kernel(),
            1.0, BANDWIDTH,
        )

    def setup(self, seed: int, obs: bool = False, build=None):
        build = build or (lambda fn, *a: fn(*a))
        gc.collect()  # set-up starts from a collected heap
        t0 = clock()
        program = build(build_omp_program, self.spec())
        runtime = OMPCRuntime(ClusterSpec(num_nodes=self.nodes),
                              self.config(seed, obs))
        return clock() - t0, (program, runtime)

    def setup_sample(self, seed: int) -> float:
        """Host seconds of one set-up that is then discarded."""
        return self.setup(seed)[0]

    def round(self, seed: int, obs: bool = False, tap=None,
              build=None) -> Round:
        rnd = Round()
        setup_s, (program, runtime) = self.setup(seed, obs, build)
        rnd.setup_s.append(setup_s)
        result, error, run_s, events = _drive(
            lambda: runtime.launch(program), runtime,
            HANG_MULTIPLE * self.ref_events, tap)
        rnd.run_s = run_s
        targets = {t.task_id for t in program.target_tasks()}
        if error is None:
            # Oracle: exactly one interval per target task.
            output_ok = set(result.task_intervals) == targets
            op = Op(classify(None, output_ok))
            if op.outcome == OK:
                op.tasks = len(targets)
            else:
                op.detail = "task intervals differ from the target tasks"
        else:
            op = Op(classify(error), detail=type(error).__name__,
                    message=_message(error))
        if not obs:
            self.check_pins(rnd, result, events)
        rnd.ops.append(op)
        rnd.makespans.append(result.makespan if op.outcome == OK
                             else math.inf)
        rnd.fidelity = [op.outcome, rnd.makespans[0], events,
                        sorted(result.task_intervals.items())
                        if result is not None else None]
        counts = rnd.counts
        _add(counts, "sim.events", events)
        _add(counts, "target_tasks", len(targets))
        cluster = runtime.last_cluster
        _network_counts(counts, cluster)
        _memory_counts(counts, cluster.trace.counters)
        if result is not None:
            _add(counts, "sched.sim_s", result.scheduling_time)
            _add(counts, "overhead_frac", result.overhead_fraction)
            for key in ("shard.forwards", "shard.leases",
                        "shard.cross_edges", "shard.dispatches"):
                _add(counts, key, result.counters.get(key, 0.0))
            _add(counts, "gossip.rounds",
                 getattr(result, "gossip_rounds", 0))
        return rnd


class Fig5Stencil(_TaskBenchWorkload):
    name = "fig5_stencil_n64"
    nodes, width, steps = 64, 128, 32
    ref_events = FIG5_PIN_EVENTS

    def kernel(self) -> KernelSpec:
        return KernelSpec.paper_50ms()

    def config(self, seed: int, obs: bool) -> OMPCConfig:
        # Task Bench's stencil has no random input: the seed is unused.
        return OMPCConfig(trace=obs)

    def check_pins(self, rnd: Round, result, events: int) -> None:
        got = (events, result and round(result.makespan, 9))
        want = (FIG5_PIN_EVENTS, FIG5_PIN_MAKESPAN)
        if got != want:
            rnd.pins_ok = False
            rnd.pin_detail = f"events/makespan {got} != pinned {want}"


class ShardGossip(_TaskBenchWorkload):
    name = "shard_gossip_n256"
    nodes, width, steps = 256, 512, 3
    ref_events = SHARD_PIN_EVENTS
    pin_detail = ""

    def kernel(self) -> KernelSpec:
        return KernelSpec.from_duration(0.5e-3)

    def config(self, seed: int, obs: bool) -> OMPCConfig:
        return OMPCConfig(head_shards=4, gossip=True, gossip_seed=seed,
                          trace=obs)

    def calibrate(self) -> None:
        """The same graph and shards with gossip off must reproduce the
        pinned cell; that run is also the hang budget's reference."""
        runtime = OMPCRuntime(ClusterSpec(num_nodes=self.nodes),
                              OMPCConfig(head_shards=4))
        result = runtime.run(build_omp_program(self.spec()))
        events = runtime.last_cluster.sim._seq
        got = (events, round(result.makespan, 9))
        want = (SHARD_PIN_EVENTS, SHARD_PIN_MAKESPAN)
        self.ref_events = events
        if got != want:
            self.pin_detail = (f"gossip-off events/makespan {got} != "
                               f"pinned {want}")

    def check_pins(self, rnd: Round, result, events: int) -> None:
        if self.pin_detail:
            rnd.pins_ok = False
            rnd.pin_detail = self.pin_detail


# ---------------------------------------------------------------------------
# Tiered memory + recovery on the fault-tolerant runtime
# ---------------------------------------------------------------------------
def stencil3(left, centre, right, out):
    """One 3-point stencil update: ``out = c/2 + (l + r)/4``."""
    np.multiply(centre, 0.5, out=out)
    out += 0.25 * left
    out += 0.25 * right


class TieredRecovery:
    """Real-data stencil on 17 nodes under a ladder of device budgets."""

    name = "tiered_recovery_n17"
    nodes = 17
    points, steps, length = 32, 8, 256
    cost = 2e-3
    #: Device capacity per rung, in multiples of one task's working set.
    ladder = (8, 6, 4, 3, 2)
    crash_at = 0.4
    loss = 0.01
    min_rounds = 5
    round_s = 3.5

    def __init__(self) -> None:
        self._expected: dict[int, list[bytes]] = {}

    @property
    def working_set(self) -> float:
        # Three stencil inputs and one output of ``length`` float64s.
        return 4 * self.length * 8.0

    def build(self, seed: int):
        """The double-buffered stencil program on seeded inputs.

        Returns ``(program, outputs)``; ``outputs`` are the host arrays
        the final exit-data writes back.
        """
        rng = np.random.default_rng([seed, 0])
        a = [rng.standard_normal(self.length) for _ in range(self.points)]
        b = [np.zeros(self.length) for _ in range(self.points)]
        prog = OmpProgram("stencil3")
        nbytes = self.length * 8.0
        bufs_a = [prog.buffer(nbytes, data=x, name=f"a{i}")
                  for i, x in enumerate(a)]
        bufs_b = [prog.buffer(nbytes, data=x, name=f"b{i}")
                  for i, x in enumerate(b)]
        prog.target_enter_data(*bufs_a)
        n = self.points
        for t in range(self.steps):
            src, dst = (bufs_a, bufs_b) if t % 2 == 0 else (bufs_b, bufs_a)
            for i in range(n):
                prog.target(
                    fn=stencil3,
                    depend=[depend_in(src[(i - 1) % n]),
                            depend_in(src[i]),
                            depend_in(src[(i + 1) % n]),
                            depend_out(dst[i])],
                    cost=self.cost, name=f"s{t}_{i}",
                )
        final = bufs_a if self.steps % 2 == 0 else bufs_b
        prog.target_exit_data(*final)
        return prog, [buf.data for buf in final]

    def serial_outputs(self, seed: int) -> list[bytes]:
        """The oracle: the same ``fn``s in program order, serially, on
        a fresh copy of the seeded inputs (cached per seed, so a traced
        re-run of a round does not trace the oracle)."""
        if seed not in self._expected:
            prog, outputs = self.build(seed)
            for task in prog.tasks:
                if task.kind == TaskKind.TARGET:
                    task.fn(*(dep.buffer.data for dep in task.deps))
            self._expected[seed] = [x.tobytes() for x in outputs]
        return self._expected[seed]

    def base_config(self, **kw) -> OMPCConfig:
        return OMPCConfig(head_standbys=1, **kw)

    def calibrate(self) -> None:
        """Unpressured, fault-free run: crash time and event budget."""
        prog, _ = self.build(0)
        runtime = FaultTolerantRuntime(ClusterSpec(num_nodes=self.nodes),
                                       self.base_config())
        result = runtime.run(prog)
        self.ref_makespan = result.makespan
        self.ref_events = runtime.last_cluster.sim._seq

    def crash_node(self, seed: int) -> int:
        # Node 0 is the head and node 1 its standby: crash a worker.
        rng = np.random.default_rng([seed, 1])
        return int(rng.integers(2, self.nodes))

    def setup(self, seed: int, rung: int, obs: bool = False, build=None):
        build = build or (lambda fn, *a: fn(*a))
        gc.collect()  # set-up starts from a collected heap
        t0 = clock()
        prog, outputs = build(self.build, seed)
        cfg = self.base_config(
            device_memory_bytes=rung * self.working_set,
            eviction_policy="lru", trace=obs,
        )
        runtime = FaultTolerantRuntime(ClusterSpec(num_nodes=self.nodes),
                                       cfg)
        failure = NodeFailure(time=self.crash_at * self.ref_makespan,
                              node=self.crash_node(seed))
        plan = FaultPlan(seed=seed, losses=[LinkLoss(self.loss)])

        def launch():
            return runtime.launch(prog, failures=[failure], fault_plan=plan)
        return clock() - t0, (prog, outputs, runtime, failure, launch)

    def setup_sample(self, seed: int) -> float:
        return self.setup(seed, self.ladder[0])[0]

    def round(self, seed: int, obs: bool = False, tap=None,
              build=None) -> Round:
        rnd = Round()
        expected = self.serial_outputs(seed)
        counts = rnd.counts
        for rung in self.ladder:
            setup_s, (prog, outputs, runtime, failure, launch) = \
                self.setup(seed, rung, obs, build)
            rnd.setup_s.append(setup_s)
            result, error, run_s, events = _drive(
                launch, runtime, HANG_MULTIPLE * self.ref_events, tap)
            rnd.run_s += run_s
            ntargets = len(prog.target_tasks())
            got = [x.tobytes() for x in outputs]
            if error is None:
                op = Op(classify(None, got == expected))
                if op.outcome == OK:
                    op.tasks = ntargets
                else:
                    op.detail = f"rung {rung}x: output differs from serial"
            else:
                op = Op(classify(error),
                        detail=f"rung {rung}x: {type(error).__name__}",
                        message=_message(error))
            rnd.ops.append(op)
            makespan = result.makespan if op.outcome == OK else math.inf
            rnd.makespans.append(makespan)
            rnd.fidelity.append([rung, op.outcome, makespan, events,
                                 hashlib.sha256(b"".join(got)).hexdigest()])
            _add(counts, "sim.events", events)
            _add(counts, "target_tasks", ntargets)
            cluster = runtime.last_cluster
            _network_counts(counts, cluster)
            _memory_counts(counts, cluster.trace.counters)
            if result is not None:
                self._ft_counts(counts, result, failure, runtime.config)
        return rnd

    @staticmethod
    def _ft_counts(counts: dict, result, failure, cfg) -> None:
        crashed_at = cfg.startup_time + failure.time
        seen = [when for dead, _by, when in result.detections
                if dead == failure.node]
        if seen:
            _add(counts, "ft.detect_s", min(seen) - crashed_at)
            _add(counts, "ft.detections", 1)
        _add(counts, "ft.reexecuted", result.reexecuted_tasks)
        _add(counts, "ft.false_positives", result.false_positive_detections)
        _add(counts, "ft.missed_hb_windows",
             result.missed_heartbeat_windows)
        _add(counts, "log.records", result.log_records_appended)
        _add(counts, "log.replication_bytes", result.replication_bytes)
        for key, value in result.transport.items():
            _add(counts, f"transport.{key}", value)


# ---------------------------------------------------------------------------
# Elastic multi-tenant overload day
# ---------------------------------------------------------------------------
class JobsOverload:
    """The canonical overload day at 3x load, one day per round."""

    name = "jobs_overload_3x"
    load = 3.0
    policy = "backfill"
    min_rounds = 20
    round_s = 0.6
    #: A completed job meets the SLO at or below this bounded slowdown.
    slo = 50.0

    def calibrate(self) -> None:
        """Nothing to calibrate: the reference is pinned."""

    def setup(self, seed: int, obs: bool = False):
        gc.collect()  # set-up starts from a collected heap
        t0 = clock()
        trace = overload_trace(seed=seed, load=self.load)
        manager = ElasticJobManager(
            Cluster(ClusterSpec(num_nodes=OVERLOAD_NODES)),
            policy=self.policy,
            default_config=OMPCConfig(trace=True) if obs else None,
            elastic=overload_elastic_config(),
        )
        return clock() - t0, (trace, manager)

    def round(self, seed: int, obs: bool = False, tap=None,
              build=None) -> Round:
        rnd = Round()
        setup_s, (trace, manager) = self.setup(seed, obs)
        rnd.setup_s.append(setup_s)
        sim = manager.sim
        budget = int(HANG_MULTIPLE * self.load * JOBS_REF_EVENTS)
        Watchdog(budget, inner=tap).attach(sim)
        report = error = None
        t0 = clock()
        try:
            report = manager.run(trace)
        except Exception as exc:
            error = exc
        rnd.run_s = clock() - t0
        sim._event_tap = None
        submitted = len(trace)
        if error is not None:
            rnd.ops.append(Op(classify(error), count=submitted,
                              detail=f"day: {type(error).__name__}",
                              message=_message(error)))
            rnd.makespans.append(math.inf)
            rnd.fidelity = [rnd.ops[0].outcome, sim._seq]
            return rnd
        if report.accounted != report.total_jobs:
            rnd.ops.append(Op(
                classify(None, False), count=submitted,
                detail=f"accounted {report.accounted} != total "
                f"{report.total_jobs}",
            ))
            rnd.makespans.append(math.inf)
        else:
            for job in manager.jobs:
                if job.state is JobState.COMPLETED:
                    _add(rnd.counts, "sched.sim_s",
                         getattr(job.result, "scheduling_time", 0.0))
                    # Task Bench programs hold only target tasks, and
                    # the schedule assigns every task of the graph.
                    rnd.ops.append(Op(
                        OK, tasks=len(job.result.schedule.assignment)))
                else:
                    rnd.ops.append(Op(TYPED_ERROR,
                                      detail=f"job {job.state.value}"))
            rnd.makespans.append(report.horizon)
        within = sum(
            1 for job in manager.jobs
            if job.state is JobState.COMPLETED
            and job.bounded_slowdown(manager.slowdown_tau) <= self.slo
        )
        counts = rnd.counts
        _add(counts, "sim.events", sim._seq)
        _add(counts, "target_tasks", rnd.tasks)
        _network_counts(counts, manager.cluster)
        _memory_counts(counts, manager.cluster.trace.counters)
        _add(counts, "slo_attainment", within / max(submitted, 1))
        _add(counts, "jobs.submitted", report.total_jobs)
        _add(counts, "jobs.completed", report.completed)
        _add(counts, "jobs.shed", report.shed)
        _add(counts, "jobs.preempted", report.preempted)
        _add(counts, "jobs.requeued", report.requeued)
        _add(counts, "jobs.dead_lettered", report.dead_lettered)
        _add(counts, "jobs.failed", report.failed)
        _add(counts, "jobs.scale_ups", manager.autoscaler.scale_ups)
        _add(counts, "jobs.p99_bounded_slowdown",
             report.p99_bounded_slowdown)
        rnd.fidelity = [
            report.horizon, sim._seq,
            [(job.spec.name, job.state.value, job.finish_time)
             for job in manager.jobs],
        ]
        return rnd

    def setup_sample(self, seed: int) -> float:
        return self.setup(seed)[0]


WORKLOADS = {
    w.name: w for w in (Fig5Stencil(), ShardGossip(), TieredRecovery(),
                        JobsOverload())
}
