"""The launch engine: one run's head-side data plane (§4).

Every runtime executes a program through the same machinery: an event
system over an MPI world, a data manager that plans buffer moves, and
the steps that turn a scheduled task into events — stage its inputs,
execute it, commit its outputs, delete stale copies.  :class:`Engine`
holds that per-run state and exposes each step as a method:

* set-up — observer/analysis install, ``MpiWorld``/``EventSystem``/
  ``DataManager``, and the tiered store's configuration;
* data movement — :meth:`~Engine.perform_move` and friends, plus the
  tiered store's eviction steps;
* task steps — :meth:`~Engine.run_classical`,
  :meth:`~Engine.run_enter_data`, :meth:`~Engine.run_exit_data`,
  :meth:`~Engine.run_target` / :meth:`~Engine.run_target_body`;
* lifecycle — the abort-teardown :meth:`~Engine.main` wrapper, the
  start-up/shutdown phases and the :meth:`~Engine.finish` fold.

The issuing node of every move and event is the ``origin`` parameter:
:data:`~repro.core.datamanager.HOST` for the single head, the shard's
manager in the sharded plane (:mod:`repro.core.shard.plane`).

The engine also carries the single-head driver of
:class:`~repro.core.runtime.OMPCRuntime` (:meth:`~Engine.run_head`,
:meth:`~Engine.run_task`, :meth:`~Engine.complete`): dispatch tasks as
their dependences resolve, each holding one of ``head_threads`` slots
for its whole lifetime — the §7 knee.
"""

from __future__ import annotations

from repro.analysis.hooks import Analysis
from repro.cluster.machine import Cluster
from repro.core.config import OMPCConfig
from repro.core.datamanager import HOST, DataManager, Move
from repro.core.events import EventSystem
from repro.core.memory import DeviceMemoryError
from repro.core.tiering import MemoryWait, make_policy
from repro.mpi.comm import MpiWorld
from repro.obs.observer import Observer
from repro.omp.api import OmpProgram
from repro.omp.task import Task, TaskKind
from repro.sim.primitives import AllOf, AnyOf
from repro.sim.resources import Resource


def bind_cluster(spec, cluster=None):
    """The cluster a launch runs on: a fresh one built from ``spec``,
    or the caller's (in practice a
    :class:`~repro.cluster.partition.ClusterView`) after checking that
    its size matches."""
    if cluster is None:
        return Cluster(spec)
    if cluster.num_nodes != spec.num_nodes:
        raise ValueError(
            f"cluster has {cluster.num_nodes} nodes, spec expects "
            f"{spec.num_nodes}"
        )
    return cluster


class Engine:
    """One execution's head-side state and steps.

    Drivers set :attr:`schedule` and :attr:`result` before the first
    task runs; :meth:`finish` folds the run's measurements into
    :attr:`result`.
    """

    def __init__(self, cluster, config: OMPCConfig, program: OmpProgram,
                 transport=None):
        sim = cluster.sim
        self.cluster = cluster
        self.cfg = config
        self.sim = sim
        self.t0 = sim.now
        if config.trace and not cluster.obs.enabled:
            # Must precede MpiWorld/EventSystem construction — both
            # capture ``cluster.obs`` when built.  On a ClusterView this
            # attaches to the view only, keeping job traces isolated.
            cluster.install_observer(Observer(sim))
        self.obs = cluster.obs
        if config.analysis and not cluster.analysis.enabled:
            # Like the observer: captured at construction time.
            cluster.install_analysis(Analysis())
        analysis = self.analysis = cluster.analysis
        self.mpi = MpiWorld(cluster, transport=transport)
        self.events = EventSystem(cluster, self.mpi, config)
        self.dm = DataManager(analysis=analysis if analysis.enabled else None)
        analysis.program_begin(program)
        self.trace = cluster.trace
        self.configure_tiering(self.dm)
        self.tiering = self.dm.tiering
        self.graph = graph = program.graph
        self.net_bytes0 = cluster.network.total_bytes
        self.net_msgs0 = cluster.network.total_messages

        #: In-flight eviction markers, by buffer id (planners must not
        #: read a buffer whose spill/drop is mid-flight) and by node
        #: (MemoryWait waits for the node's in-flight evictions).
        self.evicting_bufs: dict[int, set] = {}
        self.evict_markers: dict[int, set] = {}
        #: Memory-release turnstile: planners blocked on other frames'
        #: pins wait on the current event; any unpin/release fires and
        #: replaces it.  Fired only while someone waits, so an enabled
        #: but never-pressured run adds zero events.
        self.mem_turn = sim.event("mem-freed")
        self.mem_waiters = 0

        #: Unresolved predecessor count per task, tasks not yet done,
        #: and the barrier that fires when the graph drains.
        self.remaining = {t.task_id: graph.in_degree(t) for t in graph.tasks()}
        self.pending = len(self.remaining)
        self.all_done = sim.event("all-tasks-done")
        #: §7: one head-node OpenMP thread blocks per in-flight task.
        self.slots = Resource(sim, capacity=config.head_threads,
                              name="head-threads")
        #: Buffer id -> consumer nodes of a read-only entered buffer.
        self.broadcast_targets: dict[int, tuple[int, ...]] = {}
        self.schedule = None
        self.result = None

    # -- set-up ----------------------------------------------------------
    def configure_tiering(self, dm: DataManager) -> None:
        """Arm the tiered device→host→remote store on ``dm``.

        Enabled only with a finite capacity *and* a policy, so the
        default config keeps the event stream bit-identical to the
        un-tiered kernel (overflow stays a fatal DeviceMemoryError).
        MemoryPressure fault windows shrink the effective capacity.
        """
        cfg = self.cfg
        if cfg.device_memory_bytes <= 0 or cfg.eviction_policy == "none":
            return
        cluster = self.cluster
        run_faults = getattr(cluster, "faults", None)
        sim = self.sim

        def capacity_fn(node: int, base: float) -> float:
            factor_of = getattr(run_faults, "capacity_factor", None)
            if factor_of is None:
                return base
            return base * factor_of(node, sim.now)

        dm.configure_tiering(
            {n: cfg.device_memory_bytes for n in range(1, cluster.num_nodes)},
            make_policy(cfg.eviction_policy),
            capacity_fn=capacity_fn,
        )

    def plan_broadcasts(self) -> None:
        """§7 broadcast detection: for each buffer entered via enter-data
        and never written afterwards (read-only on the device side),
        collect the distinct nodes of its consumers from the schedule."""
        readers: dict[int, set[int]] = {}
        written: set[int] = set()
        entered: set[int] = set()
        for task in self.graph.tasks():
            if task.kind == TaskKind.TARGET_ENTER_DATA:
                entered.update(b.buffer_id for b in task.buffers)
            elif task.kind == TaskKind.TARGET:
                node = self.schedule.node_of(task)
                for buf in task.reads:
                    readers.setdefault(buf.buffer_id, set()).add(node)
                written.update(b.buffer_id for b in task.writes)
        for bid in entered - written:
            nodes = sorted(readers.get(bid, ()))
            if len(nodes) > 1:
                self.broadcast_targets[bid] = tuple(nodes)

    # -- buffer movement -----------------------------------------------------
    def mem_wake(self) -> None:
        if self.mem_waiters == 0:
            return
        ev = self.mem_turn
        self.mem_turn = self.sim.event("mem-freed")
        if not ev.triggered:
            ev.succeed()

    def fetch_gate(self, buffer, dst: int):
        """Tiered only: fault-injected fetch failures with retry.

        Under a MemoryPressure fault arm with ``fetch_fail_prob``, a
        read-through fetch toward ``dst`` may fail before any bytes
        move; it is retried with exponential backoff up to
        ``mem_fetch_retries`` times, then the run gives up with a
        buffer-attributed error.  No fault plan (or no pressure window)
        costs zero extra yields.
        """
        faults = self.cluster.faults
        fails = getattr(faults, "fetch_fails", None) \
            if faults is not None else None
        if fails is None:
            return
        sim, cfg = self.sim, self.cfg
        attempt = 0
        while fails(dst, sim.now):
            attempt += 1
            self.trace.count("mem.fetch_retries")
            if attempt > cfg.mem_fetch_retries:
                raise DeviceMemoryError(
                    f"fetch of buffer {buffer.name} toward node {dst} "
                    f"still failing after {cfg.mem_fetch_retries} retries"
                )
            yield sim.timeout(cfg.mem_fetch_backoff * 2 ** (attempt - 1))

    def perform_move(self, move: Move, origin: int = HOST):
        buf = move.buffer
        events, obs = self.events, self.obs
        if self.tiering is not None:
            yield from self.fetch_gate(buf, move.dst)
        move_span = obs.begin(
            "data", f"move:{buf.name}", 0,
            src=move.src, dst=move.dst, nbytes=buf.nbytes,
        ) if obs.enabled else None
        if move.src == HOST:
            yield from events.submit(move.dst, buf.buffer_id, buf.data,
                                     buf.nbytes, origin=origin,
                                     label=buf.name)
        elif move.dst == HOST:
            buf.data = yield from events.retrieve(
                move.src, buf.buffer_id, buf.nbytes, origin=origin
            )
        elif self.cfg.forwarding_enabled:
            yield from events.exchange(
                move.src, move.dst, buf.buffer_id, buf.nbytes,
                origin=origin, label=buf.name,
            )
        else:
            # Ablation B: stage worker-to-worker moves via the origin.
            payload = yield from events.retrieve(
                move.src, buf.buffer_id, buf.nbytes, origin=origin
            )
            yield from events.submit(move.dst, buf.buffer_id, payload,
                                     buf.nbytes, origin=origin,
                                     label=buf.name)
        self.dm.commit_move(move)
        if move_span is not None:
            obs.end(move_span)

    def perform_moves(self, moves: list[Move], origin: int = HOST):
        """Overlap independent buffer moves of one task."""
        if not moves:
            return
        if len(moves) == 1:
            yield from self.perform_move(moves[0], origin)
            return
        sim = self.sim
        procs = [
            sim.process(self.perform_move(m, origin),
                        name=f"move:{m.buffer.name}")
            for m in moves
        ]
        yield AllOf(sim, procs)

    def perform_deletes(self, stale: list, origin: int = HOST):
        """Synchronously remove invalidated worker copies."""
        obs = self.obs
        for buf, holder in stale:
            if holder != HOST:
                del_span = obs.begin(
                    "data", f"delete:{buf.name}", 0, holder=holder
                ) if obs.enabled else None
                yield from self.events.delete(holder, buf.buffer_id,
                                              origin=origin)
                # Lazy head-side release: only after the physical
                # DELETE landed may the bytes be re-planned.
                self.dm.mem_release(buf, holder)
                self.mem_wake()
                if del_span is not None:
                    obs.end(del_span)

    # -- tiered-store eviction machinery -------------------------------------
    def await_evictions(self, buffer_ids):
        """Wait until none of ``buffer_ids`` has an in-flight eviction.
        Returns inside a synchronous block — callers pin immediately
        after, with no yield in between."""
        while True:
            waits = [
                m for bid in buffer_ids
                for m in self.evicting_bufs.get(bid, ())
            ]
            if not waits:
                return
            yield AllOf(self.sim, waits)

    def wait_for_room(self, node: int):
        """Wait for any space-freeing signal on ``node``: an in-flight
        eviction landing, or any unpin/release."""
        markers = list(self.evict_markers.get(node, ()))
        self.mem_waiters += 1
        try:
            yield AnyOf(self.sim, markers + [self.mem_turn])
        finally:
            self.mem_waiters -= 1

    def perform_one_eviction(self, ev, marker, origin: int = HOST):
        buf = ev.buffer
        events, dm = self.events, self.dm
        try:
            if ev.spill:
                # Write-behind: this node holds the only valid copy;
                # persist it to the host image first.
                buf.data = yield from events.retrieve(
                    ev.node, buf.buffer_id, buf.nbytes, origin=origin
                )
                dm.commit_move(Move(buf, ev.node, HOST))
                self.trace.count("mem.spill_bytes", buf.nbytes)
            yield from events.delete(ev.node, buf.buffer_id, origin=origin)
            dm.commit_evict(buf, ev.node)
            dm.mem_release(buf, ev.node)
            self.mem_wake()
            self.trace.count("mem.evict")
        finally:
            bucket = self.evicting_bufs.get(buf.buffer_id)
            if bucket is not None:
                bucket.discard(marker)
                if not bucket:
                    self.evicting_bufs.pop(buf.buffer_id, None)
            self.evict_markers.get(ev.node, set()).discard(marker)
            if not marker.triggered:
                marker.succeed()

    def perform_evictions(self, node: int, evictions: list,
                          origin: int = HOST):
        if not evictions:
            return
        sim = self.sim
        # Register every marker before the first yield: any planner that
        # runs while these are in flight must see the full set (else it
        # could pick a mid-eviction buffer as a source).
        procs = []
        for ev in evictions:
            marker = sim.event(f"evicted:{ev.buffer.name}")
            self.evicting_bufs.setdefault(
                ev.buffer.buffer_id, set()
            ).add(marker)
            self.evict_markers.setdefault(node, set()).add(marker)
            procs.append(sim.process(
                self.perform_one_eviction(ev, marker, origin),
                name=f"evict:{ev.buffer.name}",
            ))
        yield AllOf(sim, procs)

    # -- task steps ------------------------------------------------------------
    def run_step(self, task: Task, node: int, origin: int = HOST,
                 dedup: bool = False):
        """Run ``task`` on its scheduled ``node``, issued from ``origin``;
        ``dedup`` marks a post-failover re-issue of a target region."""
        kind = task.kind
        if kind == TaskKind.CLASSICAL:
            yield from self.run_classical(task)
        elif kind == TaskKind.TARGET_ENTER_DATA:
            yield from self.run_enter_data(task, node, origin)
        elif kind == TaskKind.TARGET_EXIT_DATA:
            yield from self.run_exit_data(task, origin)
        else:
            yield from self.run_target(task, node, origin, dedup)

    def run_classical(self, task: Task):
        # Classical tasks run on the head node against host memory.
        self.analysis.on_host_task(task, self.dm)
        head = self.cluster.head
        yield head.cpu.request()
        try:
            if task.cost:
                yield self.sim.timeout(head.compute_time(task.cost))
            if task.fn is not None:
                task.fn(*(d.buffer.data for d in task.deps))
        finally:
            head.cpu.release()

    def enter_broadcast(self, task: Task, node: int, origin: int = HOST):
        # §7 extension: one-to-many proactive distribution.  When the
        # task graph shows the buffer is read-only and consumed on
        # several nodes, a single binomial broadcast event replaces the
        # later per-consumer exchanges (each of which would need head
        # orchestration).
        dm, tiering = self.dm, self.tiering
        for buf in task.buffers:
            extra = self.broadcast_targets.get(buf.buffer_id, ())
            dsts = [d for d in extra if d != node and d != HOST]
            if not dsts:
                continue
            if tiering is not None:
                for dst in dsts:
                    if tiering.manages(dst):
                        # Caller's pins stay held here (the source copy
                        # must survive the broadcast), so this wait can
                        # only be resolved by other frames' releases —
                        # acceptable for the opt-in broadcast ablation.
                        while True:
                            try:
                                evictions = dm.plan_evictions(
                                    task, dst, [buf]
                                )
                                break
                            except MemoryWait:
                                yield from self.wait_for_room(dst)
                        yield from self.perform_evictions(dst, evictions,
                                                          origin)
            yield from self.events.broadcast(node, dsts, buf.buffer_id,
                                             buf.nbytes, origin=origin)
            for dst in dsts:
                dm.commit_move(Move(buf, node, dst))

    def flush_staged(self, staged: list, node: int, origin: int = HOST):
        """Materialize (and commit) every planned ``(buffer, moves)``
        pair of a tiered enter-data, then clear ``staged``."""
        yield from self.perform_moves(
            [m for _b, ms in staged for m in ms], origin
        )
        for b, _ms in staged:
            self.dm.commit_enter_data(b, node)
        staged.clear()

    def run_enter_data(self, task: Task, node: int, origin: int = HOST):
        if node == HOST:
            return  # no consumer was scheduled; data stays on host
        dm, tiering = self.dm, self.tiering
        if tiering is None or not tiering.manages(node):
            moves = []
            for buf in task.buffers:
                moves.extend(dm.plan_enter_data(buf, node))
            yield from self.perform_moves(moves, origin)
            for buf in task.buffers:
                dm.commit_enter_data(buf, node)
            if self.cfg.broadcast_events:
                yield from self.enter_broadcast(task, node, origin)
            return
        # Admit the buffers one at a time: an enter-data working set
        # larger than the device is legal — buffers entered earlier
        # become clean replicas (the host image survives) that the tier
        # may evict to admit the rest; consumers re-fetch them
        # read-through.  Unpressured, every per-buffer plan is
        # synchronous and the moves are batched into one overlapped
        # transfer — the event stream stays bit identical to the
        # un-tiered path.
        buf_ids = sorted({b.buffer_id for b in task.buffers})
        yield from self.await_evictions(buf_ids)
        dm.pin(buf_ids)
        #: Planned-but-unperformed (buffer, moves) pairs.  Flushed before
        #: any back-off unpin: a charged-but-unmaterialized buffer picked
        #: as a victim by a concurrent planner would make the eviction
        #: retrieve bytes that do not exist yet.
        staged: list = []
        try:
            for buf in task.buffers:
                while True:
                    moves = dm.plan_enter_data(buf, node)
                    incoming = [m.buffer for m in moves if m.dst == node]
                    try:
                        evictions = dm.plan_evictions(task, node, incoming)
                        break
                    except MemoryWait:
                        # Back off: materialize the admitted prefix and
                        # release our pins so room can be made.  Our own
                        # prefix pins are often the blockage (the
                        # entered buffers are this frame's own clean
                        # replicas), so re-plan immediately against the
                        # unpinned state — the re-plan is synchronous,
                        # hence atomic — and only sleep on the turnstile
                        # when the blockage is truly someone else's.
                        # The back-off unpin deliberately does NOT fire
                        # the turnstile: waking peers on transient
                        # unpins lets two blocked frames ping-pong wakes
                        # at one instant forever.  Real releases
                        # (evictions landing, deletes, frame completion)
                        # do the waking.
                        yield from self.flush_staged(staged, node, origin)
                        dm.unpin(buf_ids)
                        try:
                            moves = dm.plan_enter_data(buf, node)
                            incoming = [
                                m.buffer for m in moves if m.dst == node
                            ]
                            try:
                                evictions = dm.plan_evictions(
                                    task, node, incoming
                                )
                                break
                            except MemoryWait:
                                yield from self.wait_for_room(node)
                                yield from self.await_evictions(buf_ids)
                        finally:
                            dm.pin(buf_ids)
                if evictions:
                    yield from self.flush_staged(staged, node, origin)
                    yield from self.perform_evictions(node, evictions,
                                                      origin)
                staged.append((buf, moves))
            yield from self.flush_staged(staged, node, origin)
            if self.cfg.broadcast_events:
                yield from self.enter_broadcast(task, node, origin)
        finally:
            dm.unpin(buf_ids)
            self.mem_wake()

    def run_exit_data(self, task: Task, origin: int = HOST):
        dm, tiering = self.dm, self.tiering
        buf_ids = sorted({b.buffer_id for b in task.buffers})
        if tiering is not None:
            # Exit retrieves from each buffer's latest location: an
            # eviction mid-flight would invalidate that source, so drain
            # first and pin for the duration.
            yield from self.await_evictions(buf_ids)
            dm.pin(buf_ids)
        try:
            moves = []
            for buf in task.buffers:
                moves.extend(dm.plan_exit_data(buf))
            yield from self.perform_moves(moves, origin)
            for buf in task.buffers:
                removals = dm.commit_exit_data(buf)
                yield from self.perform_deletes(removals, origin)
        finally:
            if tiering is not None:
                dm.unpin(buf_ids)
                self.mem_wake()

    def run_target(self, task: Task, node: int, origin: int = HOST,
                   dedup: bool = False):
        dm, tiering = self.dm, self.tiering
        if tiering is None or not tiering.manages(node):
            moves, allocs = dm.plan_for_task(task, node)
            yield from self.run_target_body(task, node, moves, allocs,
                                            origin, dedup)
            return
        dep_ids = sorted({d.buffer.buffer_id for d in task.deps})
        # Never plan against a buffer whose eviction is mid-flight; once
        # drained, pin the whole frame in the same synchronous block so
        # no later planner can pick any of these buffers as a victim.
        yield from self.await_evictions(dep_ids)
        dm.pin(dep_ids)
        try:
            while True:
                moves, allocs = dm.plan_for_task(task, node)
                incoming = list(allocs) + [
                    m.buffer for m in moves if m.dst == node
                ]
                try:
                    evictions = dm.plan_evictions(task, node, incoming)
                    break
                except MemoryWait:
                    # Back off: release our pins so blocked-on frames
                    # can make room, wait for a release signal, then
                    # re-acquire and re-plan (the dependence set may
                    # have been evicted while unpinned).  No turnstile
                    # fire here — see run_enter_data's back-off comment.
                    dm.unpin(dep_ids)
                    try:
                        yield from self.wait_for_room(node)
                        yield from self.await_evictions(dep_ids)
                    finally:
                        dm.pin(dep_ids)
            # Read-through accounting: a read dependence served locally
            # is a hit, one that needs a transfer (cold or previously
            # evicted) is a miss.
            moved = {m.buffer.buffer_id for m in moves}
            counted: set[int] = set()
            for dep in task.deps:
                bid = dep.buffer.buffer_id
                if bid in counted or not task.dep_type_for(dep.buffer).reads:
                    continue
                counted.add(bid)
                self.trace.count("mem.miss" if bid in moved else "mem.hit")
            yield from self.perform_evictions(node, evictions, origin)
            yield from self.run_target_body(task, node, moves, allocs,
                                            origin, dedup)
        finally:
            dm.unpin(dep_ids)
            self.mem_wake()

    def run_target_body(self, task: Task, node: int, moves, allocs,
                        origin: int = HOST, dedup: bool = False):
        analysis, events, obs = self.analysis, self.events, self.obs
        for mv in moves:
            # A fetch logically reads the buffer on the task's behalf.
            analysis.on_move(task, mv.buffer)
        enabled = obs.enabled
        fetch_span = obs.begin(
            "task", f"{task.name}:fetch", 0,
            target=node, moves=len(moves), allocs=len(allocs),
        ) if enabled else None
        for buf in allocs:
            yield from events.alloc(node, buf.buffer_id, payload=buf.data,
                                    origin=origin, nbytes=buf.nbytes,
                                    label=buf.name, owner=task.name)
            self.dm.commit_alloc(buf, node)
        yield from self.perform_moves(moves, origin)
        if enabled:
            obs.end(fetch_span)
        exec_span = obs.begin(
            "task", f"{task.name}:execute", 0, target=node
        ) if enabled else None
        detected = yield from events.execute(node, task, origin=origin,
                                             dedup=dedup)
        if enabled:
            obs.end(exec_span)
        commit_span = obs.begin(
            "task", f"{task.name}:commit", 0, target=node
        ) if enabled else None
        stale = self.commit_target(task, node, detected)
        yield from self.perform_deletes(stale, origin)
        if enabled:
            obs.end(commit_span)

    def commit_target(self, task: Task, node: int, detected) -> list:
        """Commit a finished target region's writes; returns the stale
        copies to delete."""
        return self.dm.commit_task_done(
            task, node,
            written_ids=set(detected) if detected is not None else None,
        )

    # -- the single-head driver ----------------------------------------------
    def complete(self, task: Task) -> None:
        self.pending -= 1
        remaining = self.remaining
        for succ in self.graph.successors(task):
            remaining[succ.task_id] -= 1
            if remaining[succ.task_id] == 0:
                self.sim.process(self.run_task(succ), name=f"task:{succ.name}")
        if self.pending == 0:
            self.all_done.succeed()

    def run_task(self, task: Task):
        # §7: one head-node OpenMP thread blocks per in-flight task.
        sim, obs, slots = self.sim, self.obs, self.slots
        enabled = obs.enabled
        wait_span = obs.begin(
            "task", f"{task.name}:wait-slot", 0, task_id=task.task_id
        ) if enabled else None
        yield slots.request()
        if enabled:
            obs.end(wait_span)
            obs.gauge_add("head.inflight", 1)
        self.analysis.task_begin(task)
        start = sim.now
        try:
            yield from self.run_step(task, self.schedule.node_of(task))
        finally:
            slots.release()
            if enabled:
                obs.gauge_add("head.inflight", -1)
        self.result.task_intervals[task.task_id] = (start, sim.now)
        self.trace.record("task", task.name, start, sim.now)
        self.analysis.task_end(task)
        self.complete(task)

    def run_head(self):
        """The single head's main body (§3.1, steps 1–6)."""
        sim, cfg, obs, graph = self.sim, self.cfg, self.obs, self.graph
        # 1. startup: process start -> gate-thread creation (Fig. 7a).
        yield from self.startup()

        # 2. control thread creates all tasks (workers stay idle).
        creation = len(self.remaining) * cfg.task_creation_overhead
        if creation:
            obs_span = obs.begin(
                "sched", "task-creation", 0, tasks=len(self.remaining)
            )
            yield sim.timeout(creation)
            obs.end(obs_span)

        # 3. implicit barrier: schedule the entire graph with HEFT.
        span = self.trace.begin("runtime", "scheduling")
        obs_span = obs.begin("sched", "heft", 0, edges=graph.num_edges)
        sched_cost = (
            graph.num_edges
            * max(self.cluster.num_nodes - 1, 1)
            * cfg.schedule_unit_cost
        )
        if sched_cost:
            yield sim.timeout(sched_cost)
        self.trace.end(span)
        obs.end(obs_span)
        self.result.scheduling_time = sched_cost + 0.0

        # 4./5. dispatch and drain the graph.
        if self.pending == 0:
            self.all_done.succeed()
        else:
            for root in graph.roots():
                sim.process(self.run_task(root), name=f"task:{root.name}")
        yield self.all_done

        # 6. shutdown: gate-thread destruction -> process end.
        yield from self.shutdown()

    # -- lifecycle -------------------------------------------------------------
    def main(self, body):
        """Run ``body`` as the launch's main process; on any abort tear
        the run's machinery down."""
        try:
            yield from body
        except BaseException:
            self.abort()
            raise

    def abort(self) -> None:
        """Abort (error or a workload manager's preemption interrupt):
        kill this run's gate/handler processes so a shared simulation
        (multi-tenant cluster views) is not left with orphaned machinery
        ticking after the error propagates out.  Aborts during startup
        find the event system not yet started — nothing to tear down."""
        events = self.events
        if events._started:
            for node_id in range(self.cluster.num_nodes):
                if not events.node_failed(node_id):
                    events.fail_node(node_id)

    def startup(self):
        """Process start -> gate-thread creation (Fig. 7a)."""
        span = self.trace.begin("runtime", "startup")
        obs_span = self.obs.begin("sched", "startup", 0)
        yield self.sim.timeout(self.cfg.startup_time)
        self.events.start()
        self.trace.end(span)
        self.obs.end(obs_span)
        self.result.startup_time = self.cfg.startup_time

    def shutdown(self):
        """Gate-thread destruction -> process end."""
        span = self.trace.begin("runtime", "shutdown")
        obs_span = self.obs.begin("sched", "shutdown", 0)
        yield from self.events.shutdown()
        yield self.sim.timeout(self.cfg.shutdown_time)
        self.trace.end(span)
        self.obs.end(obs_span)
        self.result.shutdown_time = self.cfg.shutdown_time

    def finish(self, failed=()):
        """Fold the run's measurements into :attr:`result`: makespan
        (relative to launch), counters, network deltas, the observer's
        metrics and the analysis findings.  ``failed`` adds nodes the
        driver lost beyond the event system's own failures."""
        result, cluster, obs, trace = (
            self.result, self.cluster, self.obs, self.trace
        )
        result.makespan = self.sim.now - self.t0
        result.counters = dict(trace.counters)
        result.network_bytes = cluster.network.total_bytes - self.net_bytes0
        result.network_messages = (
            cluster.network.total_messages - self.net_msgs0
        )
        if obs.enabled:
            # Fold the transport + event-system tallies into the
            # observer so one object carries the whole run's metrics.
            for stat, value in self.mpi.stats.items():
                obs.count(f"mpi.transport.{stat}", value)
            for counter_name, value in trace.counters.items():
                obs.count(counter_name, value)
            result.obs = obs
        if self.analysis.enabled:
            result.analysis = self.analysis.finalize(
                [self.mpi], failed=self.events._failed | set(failed),
                obs=obs,
            )
        return result
