"""The sharded control plane: K shard managers drive one task graph.

The single head (:class:`~repro.core.runtime.OMPCRuntime`) blocks one
of ``head_threads`` OpenMP slots per in-flight task — the §7 knee.
:class:`ShardedRuntime` partitions control across K managers and runs
every task step through the shared
:class:`~repro.core.engine.Engine`, with the task's shard manager as
the issuing node (sharded ingest: each manager stages its shard's
inputs itself).  What this module owns is only what is sharded:

* the layout — manager nodes ``0..K-1`` (node 0 doubles as the host
  and owns classical and ``exit data`` work), contiguous compute
  slices, and task/buffer ownership from the
  :class:`~repro.core.shard.directory.ShardDirectory`;
* per-shard scheduling (an own scheduler instance over the shard's
  subgraph) and an own ``head_threads`` slot pool per manager;
* cross-shard dependences by lease/notify: one LEASE per remote
  producer at start-up, a NOTIFY when (or immediately if) it completed,
  consumer-side dedup by task id so replayed messages are no-ops, and
  a commit guard so a re-dispatched task never commits twice;
* per-shard failover over :mod:`repro.core.headlog` — on a
  gossip-confirmed manager death a standby is elected, adopts the log,
  restarts the slot pool and services, re-sends leases both ways and
  re-issues the epoch's ready work with ``dedup=True``.

Membership is :class:`~repro.core.gossip.GossipMembership` (SWIM).  A
worker death aborts the run with :class:`ShardPlaneError`.  Rejected at
config time: the tiered memory store, broadcast events,
and failures of node 0 (root-head failover is
:class:`~repro.core.faults.FaultTolerantRuntime`'s job).
"""

from __future__ import annotations

from repro.cluster.machine import Cluster, ClusterSpec
from repro.core.config import OMPCConfig
from repro.core.engine import Engine, bind_cluster
from repro.core.gossip import GossipMembership
from repro.core.headlog import HeadLog, Replicator
from repro.core.scheduler import HeftScheduler, Schedule, Scheduler
from repro.core.shard.directory import PartitionPolicy, ShardDirectory
from repro.core.shard.messages import LEASE_TAG, NOTIFY_TAG
from repro.core.shard.report import ShardRunResult, ShardStats
from repro.omp.api import OmpProgram
from repro.omp.task import Task
from repro.sim.errors import Interrupt, SimulationError
from repro.sim.resources import Resource


class ShardPlaneError(SimulationError):
    """Unrecoverable sharded-control-plane failure."""


class _Shard:
    """Mutable runtime state of one shard manager."""

    __slots__ = (
        "sid", "manager", "nodes", "slots", "procs", "issued",
        "subs", "notified", "log", "repl", "pumps", "failing",
        "stats", "sub_edges",
    )

    def __init__(self, sid: int, manager: int, nodes: tuple[int, ...]):
        self.sid = sid
        self.manager = manager
        self.nodes = nodes
        self.slots: Resource | None = None
        #: Live control-frame processes (interrupted on failover), in
        #: spawn order: a set would interrupt them in address order.
        self.procs: dict = {}
        #: Task ids ever handed to a control frame this epoch.
        self.issued: set[int] = set()
        #: producer task id → subscriber shard ids (never popped: kept
        #: for failover re-notification).
        self.subs: dict[int, set[int]] = {}
        #: Remote producer ids whose NOTIFY this shard has processed.
        self.notified: set[int] = set()
        self.log: HeadLog | None = None
        self.repl: Replicator | None = None
        self.pumps: list = []
        self.failing = False
        self.stats: ShardStats | None = None
        self.sub_edges = 0


class _ShardClusterFacade:
    """What a shard's private scheduler sees: the full fabric and node
    table, but only the shard's compute slice as ``workers``."""

    def __init__(self, cluster, nodes: tuple[int, ...], manager: int):
        self._cluster = cluster
        self._nodes = nodes
        self._manager = manager
        self.network = cluster.network

    @property
    def num_nodes(self) -> int:
        return self._cluster.num_nodes

    @property
    def head(self):
        return self._cluster.node(self._manager)

    @property
    def workers(self):
        return [self._cluster.node(n) for n in self._nodes]

    def node(self, node_id: int):
        return self._cluster.node(node_id)


class ShardedRuntime:
    """Run OmpPrograms through K shard managers instead of one head.

    ``inject_failures`` is the chaos hook: ``((time, node), ...)``
    crashes of shard-manager nodes (never node 0 — see the module
    docstring), requiring ``gossip=True`` and ``head_standbys >= 1``.
    """

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        config: OMPCConfig | None = None,
        scheduler: Scheduler | None = None,
        policy: PartitionPolicy | None = None,
        inject_failures: tuple = (),
    ):
        cfg = config or OMPCConfig()
        k = cfg.head_shards
        if k < 2:
            raise ValueError(
                "ShardedRuntime needs head_shards >= 2 (use OMPCRuntime "
                "for the single-head plane)"
            )
        if cluster_spec.num_nodes < 2 * k:
            raise ValueError(
                f"{k} shards need >= {2 * k} nodes (one manager plus at "
                f"least one worker each), got {cluster_spec.num_nodes}"
            )
        if cfg.device_memory_bytes > 0 and cfg.eviction_policy != "none":
            raise ValueError(
                "the sharded control plane does not support the tiered "
                "memory store yet (single-head MemoryDirector)"
            )
        if cfg.broadcast_events:
            raise ValueError(
                "the sharded control plane does not support broadcast "
                "events yet"
            )
        injections = tuple(
            (float(t), int(node)) for t, node in inject_failures
        )
        if injections:
            if not cfg.gossip:
                raise ValueError(
                    "failure injection in sharded runs requires "
                    "gossip=True (the heartbeat ring assumes one head)"
                )
            if cfg.head_standbys < 1:
                raise ValueError(
                    "failure injection requires head_standbys >= 1 for "
                    "the per-shard replication log"
                )
            for _t, node in injections:
                if node == 0:
                    raise ValueError(
                        "node 0 (the host shard manager) cannot be "
                        "killed here; root-head failover is "
                        "FaultTolerantRuntime's job"
                    )
                if not 1 <= node < k:
                    raise ValueError(
                        f"only shard-manager nodes (1..{k - 1}) may be "
                        f"killed in the sharded plane, got {node}"
                    )
        self.cluster_spec = cluster_spec
        self.config = cfg
        self.num_shards = k
        self.scheduler = scheduler
        self.policy = policy
        self.inject_failures = injections
        self.last_cluster: Cluster | None = None
        self.last_directory: ShardDirectory | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def compute_slices(num_nodes: int, k: int) -> list[tuple[int, ...]]:
        """Contiguous worker slices: shard s owns its share of K..N-1."""
        workers = list(range(k, num_nodes))
        w = len(workers)
        return [
            tuple(workers[s * w // k:(s + 1) * w // k]) for s in range(k)
        ]

    def run(self, program: OmpProgram) -> ShardRunResult:
        main_proc, finish = self.launch(program)
        main_proc.sim.run(until=main_proc)
        return finish()

    # ------------------------------------------------------------------
    def launch(self, program: OmpProgram, cluster=None):
        """Set up one sharded execution; returns ``(main_proc, finish)``
        with :class:`~repro.core.runtime.OMPCRuntime.launch` semantics."""
        program.validate()
        cfg = self.config
        k = self.num_shards
        cluster = bind_cluster(self.cluster_spec, cluster)
        self.last_cluster = cluster
        engine = _ShardEngine(cluster, cfg, program)
        sim, mpi, events = engine.sim, engine.mpi, engine.events
        trace, graph = engine.trace, engine.graph
        remaining = engine.remaining

        directory = ShardDirectory(
            graph, k, self.policy if self.policy is not None
            else cfg.shard_policy,
        )
        self.last_directory = directory
        trace.count("shard.cross_edges", len(directory.cross_edges))
        lease_needs = directory.lease_needs()

        slices = self.compute_slices(cluster.num_nodes, k)
        shards = [_Shard(s, s, slices[s]) for s in range(k)]
        owner_of = directory.owner_of

        # -- per-shard scheduling (own scheduler instance each) -----------
        def shard_scheduler() -> Scheduler:
            if self.scheduler is not None:
                return self.scheduler
            return HeftScheduler(exec_slots_per_node=cfg.event_handlers)

        assignment: dict[int, int] = {}
        planned: dict[int, tuple[float, float]] = {}
        for shard in shards:
            sub = directory.subgraph(shard.sid)
            shard.sub_edges = sub.num_edges
            facade = _ShardClusterFacade(cluster, shard.nodes,
                                         shard.manager)
            sched = shard_scheduler().schedule(sub, facade)
            assignment.update(sched.assignment)
            planned.update(sched.planned)
            shard.stats = ShardStats(
                shard=shard.sid, manager=shard.manager,
                nodes=shard.nodes, tasks=len(sub),
            )
        schedule = engine.schedule = Schedule(assignment, planned)
        result = engine.result = ShardRunResult(
            makespan=0.0,
            startup_time=0.0,
            scheduling_time=0.0,
            shutdown_time=0.0,
            schedule=schedule,
        )

        completed: set[int] = set()
        all_done = engine.all_done
        plane_up = sim.event("shard-plane-up")
        shard_comm = mpi.new_communicator(service=True)
        for shard in shards:
            shard.slots = Resource(
                sim, capacity=cfg.head_threads,
                name=f"shard{shard.sid}-threads",
            )

        membership = None
        if cfg.gossip:
            membership = GossipMembership(
                cluster, mpi, events,
                interval=cfg.gossip_interval,
                ping_timeout=cfg.heartbeat_ping_timeout,
                fanout=cfg.gossip_fanout,
                piggyback=cfg.gossip_piggyback,
                seed=cfg.gossip_seed,
            )

        if cfg.head_standbys > 0:
            for shard in shards:
                standbys = list(
                    shard.nodes[:min(cfg.head_standbys, len(shard.nodes))]
                )
                shard.log = HeadLog(record_bytes=cfg.log_record_bytes)
                shard.repl = Replicator(
                    sim, mpi, events, shard.log, standbys,
                    head=shard.manager, max_lag=cfg.replication_max_lag,
                    election_bytes=cfg.log_record_bytes,
                )

        def fail_run(exc: Exception) -> None:
            if not all_done.triggered:
                all_done.fail(exc)

        def log_append(shard: _Shard, kind: str, **data) -> None:
            if shard.log is not None:
                shard.log.append(kind, **data)
                shard.repl.notify()

        # -- dependence resolution ----------------------------------------
        def spawn_task(task: Task) -> None:
            shard = shards[owner_of(task.task_id)]
            if shard.failing or task.task_id in shard.issued:
                # Mid-failover (the restart rescan picks it up) or
                # already in flight this epoch.
                return
            shard.issued.add(task.task_id)
            _spawn_frame(shard, task, dedup=False)

        def _spawn_frame(shard: _Shard, task: Task, dedup: bool) -> None:
            def body():
                try:
                    yield from run_task(shard, task, dedup)
                except Interrupt:
                    return  # manager died; failover re-issues the work
                except SimulationError as exc:
                    fail_run(exc)
                finally:
                    shard.procs.pop(proc, None)

            proc = sim.process(body(), name=f"task:{task.name}")
            shard.procs[proc] = None

        def complete(task: Task) -> None:
            tid = task.task_id
            if tid in completed:
                return
            completed.add(tid)
            engine.pending -= 1
            shard = shards[owner_of(tid)]
            shard.stats.dispatched += 1
            log_append(shard, "done", task=tid)
            for succ in graph.successors(task):
                if owner_of(succ.task_id) == shard.sid:
                    remaining[succ.task_id] -= 1
                    if remaining[succ.task_id] == 0:
                        spawn_task(succ)
            subscribers = shard.subs.get(tid)
            if subscribers:
                for sc in sorted(subscribers):
                    send_notify(shard, tid, sc)
            if engine.pending == 0 and not all_done.triggered:
                all_done.succeed()

        def send_notify(shard: _Shard, producer_id: int, sc: int) -> None:
            trace.count("shard.forwards")
            shard.stats.forwards_sent += 1
            shard_comm.rank(shard.manager).isend(
                shards[sc].manager,
                ("notify", producer_id, shard.sid),
                cfg.notification_bytes, tag=NOTIFY_TAG,
            )

        def send_lease(shard: _Shard, producer_id: int) -> None:
            trace.count("shard.leases")
            shard.stats.leases_sent += 1
            sp = owner_of(producer_id)
            shard_comm.rank(shard.manager).isend(
                shards[sp].manager,
                ("lease", producer_id, shard.sid),
                cfg.notification_bytes, tag=LEASE_TAG,
            )

        def lease_service(shard: _Shard, node: int):
            """Producer-side subscriptions, running on ``node`` while it
            is this shard's manager."""
            rank = shard_comm.rank(node)
            while True:
                msg = yield from rank.recv(tag=LEASE_TAG)
                if events.node_failed(node) or shard.manager != node:
                    return
                _kind, producer_id, sc = msg.payload
                shard.subs.setdefault(producer_id, set()).add(sc)
                if producer_id in completed:
                    # The race-free no-barrier path: the producer beat
                    # the lease; answer immediately.
                    send_notify(shard, producer_id, sc)

        def notify_service(shard: _Shard, node: int):
            """Consumer-side completion notifications."""
            rank = shard_comm.rank(node)
            while True:
                msg = yield from rank.recv(tag=NOTIFY_TAG)
                if events.node_failed(node) or shard.manager != node:
                    return
                _kind, producer_id, _sp = msg.payload
                if producer_id in shard.notified:
                    trace.count("shard.dedup_hits")
                    shard.stats.dedup_hits += 1
                    continue
                shard.notified.add(producer_id)
                log_append(shard, "notify", task=producer_id)
                producer = graph.task(producer_id)
                for succ in graph.successors(producer):
                    if owner_of(succ.task_id) == shard.sid:
                        remaining[succ.task_id] -= 1
                        if remaining[succ.task_id] == 0:
                            spawn_task(succ)

        def start_services(shard: _Shard) -> None:
            node = shard.manager
            sim.process(lease_service(shard, node),
                        name=f"shard{shard.sid}-lease@{node}")
            sim.process(notify_service(shard, node),
                        name=f"shard{shard.sid}-notify@{node}")

        def shielded(gen):
            """Absorb the failover-teardown Interrupt.

            Replication pumps have no waiter by design, and a failing
            process with no waiter crashes the whole simulation.
            """
            try:
                yield from gen
            except Interrupt:
                return

        # -- per-task control frames --------------------------------------
        def run_task(shard: _Shard, task: Task, dedup: bool):
            obs = engine.obs
            enabled = obs.enabled
            # Capture the epoch's slot pool: a failover replaces
            # ``shard.slots``, and a frame interrupted mid-task must
            # release into the pool it acquired from, not the fresh one.
            slots = shard.slots
            wait_span = obs.begin(
                "task", f"{task.name}:wait-slot", 0, task_id=task.task_id
            ) if enabled else None
            yield slots.request()
            if enabled:
                obs.end(wait_span)
                obs.gauge_add("head.inflight", 1)
            engine.analysis.task_begin(task)
            log_append(shard, "dispatch", task=task.task_id)
            if shard.repl is not None:
                yield from shard.repl.throttle()
            trace.count("shard.dispatches")
            start = sim.now
            try:
                # Sharded ingest: the manager issues its shard's moves
                # and events itself.
                yield from engine.run_step(task, schedule.node_of(task),
                                           shard.manager, dedup)
            finally:
                slots.release()
                if enabled:
                    obs.gauge_add("head.inflight", -1)
            result.task_intervals[task.task_id] = (start, sim.now)
            shard.stats.busy_time += sim.now - start
            trace.record("task", task.name, start, sim.now)
            engine.analysis.task_end(task)
            complete(task)

        # -- membership & failover -----------------------------------------
        def on_death(dead: int, by: int) -> None:
            target = None
            for shard in shards:
                if shard.manager == dead:
                    target = shard
                    break
            if target is None:
                # A compute node died: the sharded plane has no worker
                # recovery (that is FaultTolerantRuntime's machinery).
                fail_run(ShardPlaneError(
                    f"worker node {dead} died under the sharded plane; "
                    f"worker fault tolerance needs FaultTolerantRuntime"
                ))
                return
            if target.repl is None:
                fail_run(ShardPlaneError(
                    f"shard {target.sid} manager (node {dead}) died "
                    f"with no standbys (head_standbys=0)"
                ))
                return
            sim.process(failover(target, by),
                        name=f"shard{target.sid}-failover")

        def failover(shard: _Shard, by: int):
            old = shard.manager
            shard.failing = True
            trace.count("shard.failovers")
            shard.stats.failovers += 1
            if not events.node_failed(old):
                events.fail_node(old)  # STONITH: silence the old manager
            for proc in list(shard.procs):
                if proc.is_alive:
                    proc.interrupt()
            shard.procs.clear()
            for pump in shard.pumps:
                if pump.is_alive:
                    pump.interrupt()
            shard.pumps = []
            outcome = yield from shard.repl.elect(
                by, exclude=frozenset({old})
            )
            if outcome is None:
                fail_run(ShardPlaneError(
                    f"shard {shard.sid}: no live standby left to elect"
                ))
                return
            winner, votes = outcome
            live = [n for n in range(cluster.num_nodes)
                    if not events.node_failed(n)]
            yield from shard.repl.announce(by, winner, live)
            shard.log.adopt(shard.repl.replicas[winner],
                            shard.log.epoch + 1)
            shard.repl.set_head(winner, votes)
            shard.manager = winner
            shard.stats.manager = winner
            # Replay the adopted log into a fresh manager state.
            replay = len(shard.log.records) * cfg.log_replay_unit_cost
            if replay:
                yield sim.timeout(replay)
            shard.slots = Resource(
                sim, capacity=cfg.head_threads,
                name=f"shard{shard.sid}-threads-e{shard.log.epoch}",
            )
            start_services(shard)
            for standby in shard.repl.live_standbys():
                shard.pumps.append(sim.process(
                    shielded(shard.repl.pump(standby)),
                    name=f"shard{shard.sid}-pump{standby}",
                ))
            dispatched = {
                rec.data["task"] for rec in shard.log.records
                if rec.kind == "dispatch"
            }
            # Re-send leases whose NOTIFY may have died with the old
            # manager (idempotent: the consumer-side dedup and the
            # producer-side subscription set both absorb replays).
            # Completed producers are NOT excluded: a producer that
            # finished before the crash is exactly the one whose NOTIFY
            # may have been in flight to the dying manager, and the
            # producer-side lease service answers those immediately.
            for producer_id in sorted(lease_needs[shard.sid]):
                if producer_id not in shard.notified:
                    send_lease(shard, producer_id)
            # The symmetric loss: a LEASE in flight *to* the old
            # manager died with it, so consumers of this shard's
            # producers re-subscribe against the new manager.
            for other in shards:
                if other.sid == shard.sid or other.failing:
                    continue
                for producer_id in sorted(lease_needs[other.sid]):
                    if owner_of(producer_id) == shard.sid \
                            and producer_id not in other.notified:
                        send_lease(other, producer_id)
            # Re-notify subscribers of already-completed local producers
            # (a NOTIFY in flight when the manager died is lost).
            for producer_id, subscribers in sorted(shard.subs.items()):
                if producer_id in completed:
                    for sc in sorted(subscribers):
                        send_notify(shard, producer_id, sc)
            # Re-issue the epoch's work: everything ready and not done.
            shard.issued = {
                tid for tid in shard.issued if tid in completed
            }
            shard.failing = False
            for task in directory.tasks_of(shard.sid):
                tid = task.task_id
                if (tid in completed or tid in shard.issued
                        or remaining[tid] != 0):
                    continue
                shard.issued.add(tid)
                _spawn_frame(shard, task, dedup=tid in dispatched)

        def injector(at: float, node: int):
            yield sim.timeout(at)
            if not events.node_failed(node):
                events.fail_node(node)

        # -- manager and main processes ------------------------------------
        def manager_body(shard: _Shard):
            yield plane_up
            own = directory.tasks_of(shard.sid)
            creation = len(own) * cfg.task_creation_overhead
            if creation:
                yield sim.timeout(creation)
            sched_cost = (
                shard.sub_edges
                * max(len(shard.nodes), 1)
                * cfg.schedule_unit_cost
            )
            if sched_cost:
                yield sim.timeout(sched_cost)
            result.scheduling_time = max(result.scheduling_time,
                                         sched_cost)
            if shard.log is not None:
                log_append(shard, "bootstrap",
                           tasks=len(own), sid=shard.sid)
                yield from shard.repl.flush()
            for producer_id in sorted(lease_needs[shard.sid]):
                send_lease(shard, producer_id)
            for task in own:
                if remaining[task.task_id] == 0:
                    spawn_task(task)

        def main_body():
            yield from engine.startup()
            if membership is not None:
                membership.on_detect = on_death
                membership.on_head_detect = on_death
                membership.start()
            for shard in shards:
                if shard.repl is not None:
                    shard.repl.start()
                    for standby in shard.repl.live_standbys():
                        shard.pumps.append(sim.process(
                            shielded(shard.repl.pump(standby)),
                            name=f"shard{shard.sid}-pump{standby}",
                        ))
                start_services(shard)
            for at, node in self.inject_failures:
                sim.process(injector(at, node), name=f"kill@{node}")
            plane_up.succeed()
            if engine.pending == 0 and not all_done.triggered:
                all_done.succeed()
            yield all_done
            if membership is not None:
                membership.stop()
            yield from engine.shutdown()

        for shard in shards:
            sim.process(manager_body(shard),
                        name=f"shard{shard.sid}-manager")
        main_proc = sim.process(engine.main(main_body()), name="shard-main")

        def finish() -> ShardRunResult:
            engine.finish()
            result.shard_stats = {s.sid: s.stats for s in shards}
            if membership is not None:
                result.membership_timeline = list(membership.timeline)
                result.detections = list(membership.detections)
                result.gossip_rounds = membership.rounds
            return result

        return main_proc, finish


class _ShardEngine(Engine):
    """The launch engine with the sharded plane's commit guard."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Target tasks whose outputs are committed.
        self.dm_done: set[int] = set()

    def commit_target(self, task: Task, node: int, detected) -> list:
        # Guard the re-dispatch path: a manager that died after
        # committing but before logging must not double-commit.
        if task.task_id in self.dm_done:
            return []
        self.dm_done.add(task.task_id)
        return super().commit_target(task, node, detected)
