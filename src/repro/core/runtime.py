"""The OMPC runtime: end-to-end execution of an OmpProgram on a cluster.

Execution follows §3.1/§4.4:

1. the process starts on the head node (startup: MPI init, event-system
   spin-up, gate-thread creation);
2. the control thread creates every task *without executing it* —
   worker threads are kept idle;
3. at the implicit barrier the whole task graph is scheduled with HEFT
   (cost ``O(e × p)``);
4. tasks whose dependences are satisfied are dispatched: the data
   manager plans buffer moves (submit from head, or worker-to-worker
   exchange), the event system performs them, and an EXECUTE event runs
   the target region;
5. completions release dependents until the graph drains; exit-data
   tasks retrieve results to the head node;
6. the event system shuts down (gate-thread destruction, process end).

The §7 limitation is modeled exactly: each in-flight task occupies one
of ``config.head_threads`` slots ("an OpenMP thread at the head node is
always blocked, waiting for a target region to complete, even when it
is marked as nowait"), which is what bends the weak-scaling curves at
32–64 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.findings import AnalysisReport
from repro.cluster.machine import Cluster, ClusterSpec
from repro.core.config import OMPCConfig
from repro.core.engine import Engine, bind_cluster
from repro.core.scheduler import HeftScheduler, Schedule, Scheduler
from repro.obs.observer import Observer
from repro.omp.api import OmpProgram


@dataclass
class OMPCRunResult:
    """Everything measured during one OMPC execution."""

    makespan: float
    startup_time: float
    scheduling_time: float
    shutdown_time: float
    schedule: Schedule
    #: task_id -> (dispatch, finish) simulated interval
    task_intervals: dict[int, tuple[float, float]] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    #: Bytes moved over the fabric during the run.
    network_bytes: float = 0.0
    network_messages: int = 0
    #: The run's :class:`~repro.obs.observer.Observer` when the config
    #: enabled tracing (``OMPCConfig.trace``); ``None`` otherwise.
    obs: Observer | None = None
    #: Correctness findings when the config enabled analysis
    #: (``OMPCConfig.analysis``); ``None`` otherwise.
    analysis: AnalysisReport | None = None

    @property
    def constant_overhead(self) -> float:
        """Startup + shutdown + scheduling — the Fig. 7a numerator."""
        return self.startup_time + self.shutdown_time + self.scheduling_time

    @property
    def overhead_fraction(self) -> float:
        """Fraction of wall time not spent inside task execution."""
        if self.makespan == 0:
            return 0.0
        busy = sum(end - start for start, end in self.task_intervals.values())
        return max(0.0, 1.0 - min(busy, self.makespan) / self.makespan)


class OMPCRuntime:
    """Run OmpPrograms on a simulated cluster through the full OMPC stack."""

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        config: OMPCConfig | None = None,
        scheduler: Scheduler | None = None,
    ):
        if cluster_spec.num_nodes < 2:
            raise ValueError(
                "OMPC needs a head node plus at least one worker node"
            )
        self.cluster_spec = cluster_spec
        self.config = config or OMPCConfig()
        # The default HEFT models each worker's concurrent-execution
        # capacity, which the event-handler pool bounds (§4.2).
        self._scheduler_provided = scheduler is not None
        self.scheduler = scheduler or HeftScheduler(
            exec_slots_per_node=self.config.event_handlers
        )
        #: The cluster of the most recent run (for inspection in tests).
        self.last_cluster: Cluster | None = None
        #: The sharded delegate when ``config.head_shards > 1``.
        self._sharded = None

    # ------------------------------------------------------------------
    def run(self, program: OmpProgram) -> OMPCRunResult:
        """Execute ``program`` on a fresh cluster and drive the clock."""
        main_proc, finish = self.launch(program)
        main_proc.sim.run(until=main_proc)
        return finish()

    def launch(self, program: OmpProgram, cluster=None):
        """Set up one execution and return ``(main_process, finish)``.

        With ``cluster=None`` a private :class:`Cluster` is built from
        ``self.cluster_spec`` (the classic single-application path).
        Passing a cluster — in practice a
        :class:`~repro.cluster.partition.ClusterView` partition — runs
        the program *inside an already-ticking simulation*: the caller
        owns the clock, this runtime only contributes a process.  All
        result times are relative to launch (``makespan`` is the job's
        duration, not the absolute clock), and ``finish()`` must be
        called only after the returned process has completed.
        """
        if self.config.head_shards > 1:
            # Sharded control plane (repro.core.shard): K managers, each
            # with its own scheduler instance and head_threads pool.
            # head_shards == 1 never reaches this import, keeping the
            # classic single-head path — and its event stream — byte-
            # for-byte untouched.
            from repro.core.shard.plane import ShardedRuntime

            if self._sharded is None:
                self._sharded = ShardedRuntime(
                    self.cluster_spec, self.config,
                    scheduler=(
                        self.scheduler if self._scheduler_provided
                        else None
                    ),
                )
            main_proc, finish = self._sharded.launch(program, cluster)
            self.last_cluster = self._sharded.last_cluster
            return main_proc, finish
        program.validate()
        cluster = bind_cluster(self.cluster_spec, cluster)
        self.last_cluster = cluster
        engine = Engine(cluster, self.config, program)
        # Scheduling happens inside the main process in simulated time,
        # but the assignment itself is computed eagerly here (it is
        # deterministic and independent of the clock).
        engine.schedule = self.scheduler.schedule(program.graph, cluster)
        engine.result = OMPCRunResult(
            makespan=0.0,
            startup_time=0.0,
            scheduling_time=0.0,
            shutdown_time=0.0,
            schedule=engine.schedule,
        )
        if self.config.broadcast_events:
            engine.plan_broadcasts()
        main_proc = cluster.sim.process(
            engine.main(engine.run_head()), name="ompc-main"
        )
        return main_proc, engine.finish
