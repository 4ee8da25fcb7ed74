"""Fault tolerance: heartbeat ring, failure injection, task restart.

§3.1: "each node in OMPC (head node and worker nodes) has a heart-beat
mechanism, connected in a ring topology, which allows nodes to monitor
their neighbors.  Thus, if a node fails, the system detects and
restarts the failed tasks.  Fault tolerance work on OMPC is underway
and will be released in a future version."

This module implements that future version on the simulated cluster:

* :class:`HeartbeatRing` — every node periodically sends a heartbeat to
  its ring successor and monitors its predecessor.  Because the fabric
  may drop or delay messages (see :mod:`repro.core.faultmodel`), a
  missed deadline no longer proves death: the monitor *suspects* a
  predecessor only after ``suspect_windows`` consecutive missed
  windows, reports the suspect to the head node, and the head confirms
  with a direct ping before declaring the node dead.  False positives
  (alive nodes declared dead) and cleared suspicions are counted.
* :class:`FailureInjector` — crashes chosen worker nodes at chosen
  simulated times (kills their event machinery and wipes their device
  memory).
* :class:`FaultTolerantRuntime` — an OMPC runtime whose dispatch
  survives worker failures: in-flight tasks on a dead node are
  re-dispatched to survivors, and buffers whose only copy died are
  recovered by lineage — re-executing their recorded producer task
  (transitively) — or, when periodic checkpointing is enabled
  (``OMPCConfig.checkpoint_interval``), from head-side snapshots, which
  also rescues in-place/INOUT producers that checkpoint-free lineage
  cannot rebuild.  Straggler mitigation
  (``OMPCConfig.straggler_factor``) speculatively re-dispatches a
  too-slow target task to a second node and keeps whichever attempt
  finishes first.  An unrecoverable loss raises :class:`RecoveryError`.

**The head node may fail too.**  With ``OMPCConfig.head_standbys > 0``
the head streams its commit log (task completions, directory updates,
checkpoint snapshots, dispatch intents) to standby workers through
:mod:`repro.core.headlog`.  When the ring confirms the head dead — a
quorum of its two ring neighbors, never a self-confirmation through
the dead head itself — the reporter coordinates an election among the
standbys, the most-caught-up replica wins deterministically, and the
new head rebuilds the data-manager directory, completed-task set, and
checkpoint store by replaying its replica.  Unacknowledged dispatches
are re-issued idempotently (workers dedup by task id and fence
old-epoch zombies), the checkpointer and heartbeat ring re-root at the
new head, and the program finishes bit-identical to a fault-free run.
A head crash with no live standby raises :class:`RecoveryError`
instead of hanging.

Transient faults (message loss, degraded links, stalls, hangs) are
injected by passing a :class:`~repro.core.faultmodel.FaultPlan` to
:meth:`FaultTolerantRuntime.run`; a lossy plan automatically enables the
reliable MPI transport (:class:`~repro.mpi.comm.TransportConfig`) so
loss costs simulated time rather than correctness.
"""

from __future__ import annotations

import copy as _copy
import itertools

import numpy as np
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.findings import AnalysisReport
from repro.cluster.machine import Cluster, ClusterSpec
from repro.core.config import OMPCConfig
from repro.core.datamanager import HOST, DataManager, Move
from repro.core.engine import Engine, bind_cluster
from repro.core.events import EventSystem
from repro.core.faultmodel import FaultPlan
from repro.core.headlog import HeadLog, Replicator
from repro.core.scheduler import HeftScheduler, Schedule, Scheduler
from repro.core.tiering import MemoryWait
from repro.mpi.comm import MpiWorld, TransportConfig
from repro.obs.observer import Observer
from repro.omp.api import OmpProgram
from repro.omp.task import Buffer, Task, TaskKind
from repro.sim.errors import Interrupt, SimulationError
from repro.sim.primitives import AnyOf
from repro.util.units import MILLISECOND

#: Ring-communicator tags: heartbeats, suspect reports to the head.
HB_TAG = 1
SUSPECT_TAG = 2
#: Ping-communicator tags: pings carry the tag their pong must use;
#: VERIFY asks a third node to ping a suspect (head-death quorum).
PING_TAG = 1
VERIFY_TAG = 2
_PONG_TAG_BASE = 16


class RecoveryError(SimulationError):
    """A lost buffer cannot be reconstructed from surviving data."""


class ClusterExhausted(RecoveryError):
    """Permanent failures left no workers to run on.

    Raised instead of a generic :class:`RecoveryError` when execution
    itself is impossible — every worker of the (sub)cluster has been
    declared dead — so a workload manager can distinguish "this
    partition is gone" (fail/requeue the one job, keep serving other
    tenants) from "this buffer is unrecoverable".
    """


@dataclass(frozen=True)
class NodeFailure:
    """One injected crash."""

    time: float
    node: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("failure time must be >= 0")
        if self.node < 0:
            raise ValueError("node must be >= 0")


class FailureInjector:
    """Schedules crashes against a running event system.

    Any node may be crashed, including the head (node 0) — recovering
    from that requires standbys (``OMPCConfig.head_standbys``).  A node
    can only be crashed once: arming a second failure for the same node
    is rejected (fail-stop nodes do not die twice).
    """

    def __init__(self, events: EventSystem):
        self.events = events
        self.injected: list[NodeFailure] = []
        self._armed: set[int] = set()

    def arm(self, failures: Sequence[NodeFailure],
            on_fail: Callable[[int], None] | None = None) -> None:
        sim = self.events.sim
        for failure in tuple(failures):
            if failure.node in self._armed:
                raise ValueError(
                    f"node {failure.node} already has an armed failure; "
                    "duplicate/overlapping injections would crash a "
                    "fail-stop node twice"
                )
            self._armed.add(failure.node)

            def crash(f=failure):
                yield sim.timeout(f.time)
                if self.events.node_failed(f.node):
                    return  # already dead (e.g. STONITH'd deposed head)
                self.events.fail_node(f.node)
                self.injected.append(f)
                if on_fail is not None:
                    on_fail(f.node)

            sim.process(crash(), name=f"failure@{failure.node}")


class _TimerWheel:
    """Interns same-instant timeout events (batched heartbeat timers).

    Every ring sender sleeps ``interval`` from the same instant, and
    co-started monitors arm identical deadlines: private timeouts cost
    one timer event *per process per tick*, so an n-node ring
    pays O(n) timer events every heartbeat window — the dominant event
    source in long steady-state runs.  The wheel keys timers by their
    absolute firing time and hands every waiter of one instant the
    *same* event, collapsing that to O(1) timer events per tick.

    Timing is preserved exactly: ``after(d)`` fires at ``now + d``,
    the same instant a private ``sim.timeout(d)`` would fire (the key
    *is* the firing time, so sharing never changes when anyone wakes).
    What changes is the event *stream* — fewer timer events, and
    co-scheduled waiters wake through one shared event rather than n
    consecutive private ones — so the wheel is asserted by FT *result*
    equality (wheel on vs off) instead of digests, and can be disabled
    per ring with ``use_wheel=False``.
    """

    __slots__ = ("sim", "_slots", "created", "interned")

    def __init__(self, sim):
        self.sim = sim
        #: Absolute fire time → the shared pending timer for that instant.
        self._slots: dict[float, Any] = {}
        #: Diagnostics: timers actually scheduled vs. waits absorbed by
        #: an existing timer (the tests assert interning happens).
        self.created = 0
        self.interned = 0

    def after(self, delay: float):
        """An event firing ``delay`` seconds from now, shared with every
        other waiter whose wait ends at the same instant."""
        when = self.sim.now + delay
        ev = self._slots.get(when)
        if ev is not None and not ev._processed:
            self.interned += 1
            return ev
        if len(self._slots) >= 64:
            # Drop fired instants so the table tracks live timers only.
            self._slots = {
                t: e for t, e in self._slots.items() if not e._processed
            }
        ev = self.sim.timeout(delay)
        self._slots[when] = ev
        self.created += 1
        return ev


class HeartbeatRing:
    """Ring-topology liveness monitoring (§3.1), loss-hardened.

    Node ``i`` heartbeats to ``(i+1) % n`` every ``interval``; the
    monitor on the successor counts consecutive ``timeout`` windows
    without a beat.  After ``suspect_windows`` misses the monitor
    reports the suspect to the head node, which pings the suspect
    directly and declares it dead only if no pong arrives within
    ``ping_timeout`` — so a node behind a lossy or degraded link is
    cleared rather than killed.  After a detection the monitor re-wires
    to the next living predecessor so later failures are still caught.

    **Suspecting the head itself** cannot route through the head: the
    confirm step would be a self-confirmation loop through the very
    node under suspicion.  Instead the suspecting monitor (the head's
    ring successor) pings the head directly and, if it stays silent,
    asks the head's *other* live ring neighbor for a second opinion
    (:data:`VERIFY_TAG`).  Only when both neighbors fail to reach the
    head — a quorum of its ring neighborhood — is the head declared
    dead, firing :attr:`on_head_detect` so the runtime can elect a
    standby and :meth:`rebase` the ring's confirm machinery there.

    Heartbeats and suspect reports travel as datagrams (the ring
    communicator opts out of reliable transport — retransmitting a
    heartbeat would defeat its purpose); pings use a separate
    communicator that inherits the world's transport.

    Health counters (missed windows, suspect reports, cleared
    suspicions, false positives, detections) are mirrored to the
    cluster's :mod:`repro.obs` observer under ``hb.*`` so failover runs
    are debuggable from a trace.
    """

    def __init__(
        self,
        cluster: Cluster,
        mpi: MpiWorld,
        events: EventSystem,
        interval: float = 1.0 * MILLISECOND,
        timeout: float = 3.5 * MILLISECOND,
        heartbeat_bytes: float = 16.0,
        suspect_windows: int = 2,
        ping_timeout: float = 1.0 * MILLISECOND,
        use_wheel: bool = True,
    ):
        if interval <= 0 or timeout <= interval:
            raise ValueError("need 0 < interval < timeout")
        if suspect_windows < 1:
            raise ValueError("suspect_windows must be >= 1")
        if ping_timeout <= 0:
            raise ValueError("ping_timeout must be > 0")
        self.cluster = cluster
        self.sim = cluster.sim
        self.events = events
        self.interval = interval
        self.timeout = timeout
        self.heartbeat_bytes = heartbeat_bytes
        self.suspect_windows = suspect_windows
        self.ping_timeout = ping_timeout
        self.head = 0
        self.comm = mpi.new_communicator(reliable=False, service=True)
        self.ping_comm = mpi.new_communicator(service=True)
        self.on_detect: Callable[[int, int], None] | None = None
        #: Called instead of :attr:`on_detect` when the declared node is
        #: the *current head* — the failover trigger.
        self.on_head_detect: Callable[[int, int], None] | None = None
        #: Observability sink for ``hb.*`` health counters.
        self.obs = cluster.obs
        #: (dead_node, detected_by, detection_time) records.
        self.detections: list[tuple[int, int, float]] = []
        #: Suspects that answered the head's ping (kept alive).
        self.suspicions_cleared = 0
        #: Nodes declared dead that had not actually failed.
        self.false_positives = 0
        #: Heartbeat windows that elapsed without a beat (raw misses,
        #: before the suspect threshold).
        self.missed_windows = 0
        self._dead: set[int] = set()
        self._confirming: set[int] = set()
        self._pong_seq = itertools.count()
        self._stopped = False
        #: Ring-neighbor scan cursors.  Dead/failed nodes never come
        #: back, so each node's live successor/predecessor only ever
        #: advances — resuming the skip scan from the last answer makes
        #: the per-window neighbor lookup O(1) amortized instead of
        #: O(dead) per window.
        self._succ_cache: dict[int, int] = {}
        self._pred_cache: dict[int, int] = {}
        #: Per-source suspect-report window: one wheel-interned timer
        #: event per reporter.  While a reporter's previous report is
        #: still inside its window the new one is suppressed, so a mass
        #: failure costs the head one report per *source* per window
        #: instead of an unbounded fan-in on SUSPECT_TAG.
        self._report_gate: dict[int, object] = {}
        #: Batched timers for the periodic sender/monitor waits; pings
        #: and verdicts keep private timers (they are rare and their
        #: deadlines are almost never aligned).
        self.wheel = _TimerWheel(self.sim) if use_wheel else None
        self._after = self.wheel.after if use_wheel else self.sim.timeout

    def start(self) -> None:
        n = self.cluster.num_nodes
        if n < 2:
            return
        for node in range(n):
            self.sim.process(self._sender(node), name=f"hb-send{node}")
            self.sim.process(self._monitor(node), name=f"hb-mon{node}")
            self.sim.process(self._responder(node), name=f"hb-pong{node}")
            self.sim.process(self._verifier(node), name=f"hb-verify{node}")
        self.sim.process(
            self._confirm_service(self.head), name=f"hb-confirm{self.head}"
        )

    def rebase(self, new_head: int) -> None:
        """Re-root the confirm machinery at an elected head (failover)."""
        self.head = new_head
        if not self._stopped:
            self.sim.process(
                self._confirm_service(new_head), name=f"hb-confirm{new_head}"
            )

    def stop(self) -> None:
        """End monitoring (called at runtime shutdown)."""
        self._stopped = True

    def _alive(self, node: int) -> bool:
        return not self.events.node_failed(node) and node not in self._dead

    def _sender(self, node: int):
        n = self.cluster.num_nodes
        rank = self.comm.rank(node)
        seq = 0
        while not self._stopped:
            if self.events.node_failed(node):
                return  # this node has crashed; no more beats
            # Skip dead successors so the ring stays closed.  The scan
            # resumes from the previous window's successor: failures are
            # permanent, so the first live successor only moves forward
            # and the cursor makes this O(1) amortized.
            successor = self._succ_cache.get(node, (node + 1) % n)
            while not self._alive(successor) and successor != node:
                successor = (successor + 1) % n
            self._succ_cache[node] = successor
            if successor != node:
                rank.isend(successor, ("hb", node, seq),
                           self.heartbeat_bytes, tag=HB_TAG)
            seq += 1
            yield self._after(self.interval)

    def _monitor(self, node: int):
        rank = self.comm.rank(node)
        watched_prev: int | None = None
        misses = 0
        while not self._stopped:
            if self.events.node_failed(node):
                return
            watched = self._predecessor(node)
            if watched is None:
                return  # no other live node to monitor
            if watched != watched_prev:
                watched_prev = watched
                misses = 0
            req = rank.irecv(src=watched, tag=HB_TAG)
            deadline = self._after(self.timeout)
            yield AnyOf(self.sim, [req.event, deadline])
            if self._stopped or self.events.node_failed(node):
                # Withdraw the pending receive on the way out: a monitor
                # that stops watching must not leave a matching slot
                # behind to swallow a late beat.
                req.cancel()
                return
            if req.test():
                misses = 0
                continue  # a beat arrived in time
            # Withdraw the unmatched receive before the next window so a
            # late beat from a slow-but-alive predecessor can never be
            # swallowed by a request nobody is watching anymore.
            req.cancel()
            misses += 1
            self.missed_windows += 1
            self.obs.count("hb.missed_windows")
            if misses < self.suspect_windows:
                continue
            misses = 0
            if watched in self._dead or watched in self._confirming:
                continue
            self.obs.count("hb.suspect_reports")
            if watched == self.head:
                # Suspecting the head cannot route through the head:
                # confirm locally with a neighbor quorum instead.
                self._confirming.add(watched)
                self.sim.process(
                    self._confirm_head(watched, node),
                    name=f"hb-headping{watched}",
                )
                continue
            # Suspect: the fabric may merely have dropped or delayed the
            # beats, so ask the head to confirm with a direct ping — at
            # most one report per window from this source (the gate
            # timer is wheel-interned, so it is usually the very same
            # event as a monitor deadline).
            gate = self._report_gate.get(node)
            if gate is not None and not gate._processed:
                self.obs.count("hb.reports_suppressed")
                continue
            self._report_gate[node] = self._after(self.timeout)
            rank.isend(self.head, ("suspect", watched, node),
                       self.heartbeat_bytes, tag=SUSPECT_TAG)

    def _confirm_service(self, service_head: int):
        """Head-side loop turning suspect reports into ping confirms.

        One instance runs per head incarnation; a deposed or crashed
        instance drains away on its next wakeup.
        """
        rank = self.comm.rank(service_head)
        while not self._stopped:
            msg = yield from rank.recv(tag=SUSPECT_TAG)
            if self._stopped:
                return
            if self.head != service_head or self.events.node_failed(
                service_head
            ):
                return  # deposed by a failover (or died): stand down
            _kind, suspect, reporter = msg.payload
            if suspect in self._dead or suspect in self._confirming:
                continue
            self._confirming.add(suspect)
            self.sim.process(
                self._confirm(suspect, reporter), name=f"hb-ping{suspect}"
            )

    def _ping(self, pinger: int, target: int):
        """Generator: ping ``target`` from ``pinger``.

        Returns True when the target stayed *silent* past
        ``ping_timeout`` (no pong), False when it answered.
        """
        reply_tag = _PONG_TAG_BASE + next(self._pong_seq)
        rank = self.ping_comm.rank(pinger)
        pong = rank.irecv(src=target, tag=reply_tag)
        rank.isend(target, reply_tag, self.heartbeat_bytes, tag=PING_TAG)
        yield AnyOf(self.sim, [pong.event, self.sim.timeout(self.ping_timeout)])
        if pong.test():
            return False
        pong.cancel()
        return True

    def _confirm(self, suspect: int, reporter: int):
        """Ping ``suspect`` from the head; declare dead only on silence."""
        silent = yield from self._ping(self.head, suspect)
        self._confirming.discard(suspect)
        if not silent:
            self.suspicions_cleared += 1
            self.obs.count("hb.suspicions_cleared")
            return  # alive after all — the window misses were transient
        if not self.events.node_failed(suspect):
            self.false_positives += 1
            self.obs.count("hb.false_positives")
        self._declare(suspect, reporter)

    def _confirm_head(self, suspect: int, reporter: int):
        """Confirm a *head* suspicion via its ring-neighbor quorum.

        The reporter (the head's ring successor, whose monitor raised
        the suspicion) pings the head itself; if silent, it asks the
        head's other live ring neighbor to ping too.  Both neighbors
        silent — or the witness itself unreachable, leaving no one able
        to prove the head alive — escalates to a declaration, which the
        runtime turns into an election.
        """
        try:
            silent = yield from self._ping(reporter, suspect)
            if self._stopped or suspect != self.head or suspect in self._dead:
                return
            if not silent:
                self.suspicions_cleared += 1
                self.obs.count("hb.suspicions_cleared")
                return
            witness = self._other_neighbor(suspect, reporter)
            if witness is not None:
                verdict = yield from self._second_opinion(
                    witness, suspect, reporter
                )
                if (
                    self._stopped
                    or suspect != self.head
                    or suspect in self._dead
                ):
                    return
                if verdict is False:
                    # The witness reached the head: the reporter's link
                    # was the problem, not the head.
                    self.suspicions_cleared += 1
                    self.obs.count("hb.suspicions_cleared")
                    return
            if not self.events.node_failed(suspect):
                self.false_positives += 1
                self.obs.count("hb.false_positives")
            self._declare(suspect, reporter)
        finally:
            self._confirming.discard(suspect)

    def _second_opinion(self, witness: int, target: int, requester: int):
        """Generator: ask ``witness`` to ping ``target`` on our behalf.

        Returns True when the witness found the target silent, False
        when the witness reached it, and None when the witness itself
        never answered — the caller treats None as assent, since
        neither neighbor can then prove the head alive.
        """
        reply_tag = _PONG_TAG_BASE + next(self._pong_seq)
        rank = self.ping_comm.rank(requester)
        verdict = rank.irecv(src=witness, tag=reply_tag)
        rank.isend(witness, ("verify", target, reply_tag),
                   self.heartbeat_bytes, tag=VERIFY_TAG)
        budget = 3.0 * self.ping_timeout  # witness ping + both legs' slack
        yield AnyOf(self.sim, [verdict.event, self.sim.timeout(budget)])
        if verdict.test():
            return bool(verdict.event.value.payload[1])
        verdict.cancel()
        return None

    def _verifier(self, node: int):
        """Answer verify requests: ping the named target, report back."""
        rank = self.ping_comm.rank(node)
        while not self._stopped:
            msg = yield from rank.recv(tag=VERIFY_TAG)
            if self._stopped:
                return
            if self.events.node_failed(node):
                return  # a dead node verifies nothing
            _kind, target, reply_tag = msg.payload
            silent = yield from self._ping(node, target)
            if self.events.node_failed(node):
                return
            rank.isend(msg.src, ("verdict", silent), self.heartbeat_bytes,
                       tag=reply_tag)

    def _responder(self, node: int):
        """Answer head pings (the liveness proof of the confirm step)."""
        rank = self.ping_comm.rank(node)
        while not self._stopped:
            msg = yield from rank.recv(tag=PING_TAG)
            if self._stopped:
                return
            if self.events.node_failed(node):
                return  # a dead node answers nothing
            rank.isend(msg.src, ("pong", node), self.heartbeat_bytes,
                       tag=msg.payload)

    def _predecessor(self, node: int) -> int | None:
        """The nearest ring predecessor this node *believes* is alive.

        Declarations are permanent, so the answer only ever moves
        further back around the ring; the scan resumes from the cached
        previous answer — O(1) amortized across the whole run instead
        of O(dead) per heartbeat window.
        """
        n = self.cluster.num_nodes
        pred = self._pred_cache.get(node, (node - 1) % n)
        while pred != node:
            if pred not in self._dead:
                self._pred_cache[node] = pred
                return pred
            pred = (pred - 1) % n
        return None

    def _other_neighbor(self, around: int, excluding: int) -> int | None:
        """The nearest live ring predecessor of ``around`` that is not
        ``excluding`` — the second member of the head-death quorum."""
        n = self.cluster.num_nodes
        pred = (around - 1) % n
        while pred != around:
            if pred != excluding and self._alive(pred):
                return pred
            pred = (pred - 1) % n
        return None

    def _declare(self, dead: int, by: int) -> None:
        if dead in self._dead:
            return
        self._dead.add(dead)
        self.detections.append((dead, by, self.sim.now))
        self.obs.count("hb.detections")
        if dead == self.head and self.on_head_detect is not None:
            self.on_head_detect(dead, by)
        elif self.on_detect is not None:
            self.on_detect(dead, by)


@dataclass(frozen=True)
class FailoverEvent:
    """Telemetry for one head failover (detection → election → resume)."""

    epoch: int
    old_head: int
    new_head: int
    failed_at: float
    declared_at: float
    elected_at: float
    resumed_at: float
    replayed_records: int
    redispatched_tasks: int

    @property
    def detection_time(self) -> float:
        """Crash (or STONITH of a falsely declared head) → ring quorum
        declaration."""
        return self.declared_at - self.failed_at

    @property
    def election_time(self) -> float:
        """Declaration → elected winner known."""
        return self.elected_at - self.declared_at

    @property
    def recovery_time(self) -> float:
        """Declaration → new head resumed dispatching (includes the
        announcement round and the log-replay rebuild)."""
        return self.resumed_at - self.declared_at


@dataclass
class FTRunResult:
    """Outcome of a fault-tolerant execution."""

    makespan: float
    schedule: Schedule
    failures: list[int] = field(default_factory=list)
    detections: list[tuple[int, int, float]] = field(default_factory=list)
    reexecuted_tasks: int = 0
    task_attempts: dict[int, int] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    #: Bytes moved over the fabric during the run.
    network_bytes: float = 0.0
    network_messages: int = 0
    #: Suspect→confirm outcomes: suspicions the head's ping cleared, and
    #: detection errors against ground truth (a false positive is an
    #: alive node declared dead; a false negative is a crashed node the
    #: ring never declared).
    suspicions_cleared: int = 0
    false_positive_detections: int = 0
    false_negative_detections: int = 0
    #: Checkpoint activity (0 unless ``checkpoint_interval`` > 0).
    checkpoints_taken: int = 0
    checkpoint_restores: int = 0
    #: Straggler mitigation: backup dispatches issued / races they won.
    speculative_attempts: int = 0
    speculation_wins: int = 0
    #: Reliable-transport counters (drops, retransmissions, acks,
    #: duplicates) — empty dict when the fabric is clean.
    transport: dict[str, int] = field(default_factory=dict)
    #: Head-failover telemetry (zero/empty when the head survived or
    #: replication was off).
    head_failovers: int = 0
    failovers: list[FailoverEvent] = field(default_factory=list)
    #: The node serving as head when the run finished (0 = no failover).
    final_head: int = 0
    #: Commit-log / replication activity (``head_standbys > 0`` only).
    log_records_appended: int = 0
    replication_bytes: float = 0.0
    log_flushes: int = 0
    replication: dict[str, float] = field(default_factory=dict)
    #: Raw heartbeat windows that elapsed without a beat (ring health).
    missed_heartbeat_windows: int = 0
    #: The run's :class:`~repro.obs.observer.Observer` when the config
    #: enabled tracing (``OMPCConfig.trace``); ``None`` otherwise.
    obs: Observer | None = None
    #: Correctness findings when the config enabled analysis
    #: (``OMPCConfig.analysis``); ``None`` otherwise.
    analysis: AnalysisReport | None = None


class FaultTolerantRuntime:
    """OMPC with the §3.1 heartbeat/restart mechanism enabled."""

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        config: OMPCConfig | None = None,
        scheduler: Scheduler | None = None,
        heartbeat_interval: float = 1.0 * MILLISECOND,
        heartbeat_timeout: float = 3.5 * MILLISECOND,
        transport: TransportConfig | None = None,
        heartbeat_wheel: bool = True,
    ):
        if cluster_spec.num_nodes < 3:
            raise ValueError(
                "fault tolerance needs a head node plus at least two "
                "workers (a lone worker's failure is unrecoverable)"
            )
        self.cluster_spec = cluster_spec
        self.config = config or OMPCConfig()
        if self.config.head_shards > 1:
            raise ValueError(
                "FaultTolerantRuntime drives a single head; sharded "
                "runs (head_shards > 1) go through OMPCRuntime, which "
                "delegates to repro.core.shard.ShardedRuntime"
            )
        self.scheduler = scheduler or HeftScheduler(
            exec_slots_per_node=self.config.event_handlers
        )
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_wheel = heartbeat_wheel
        #: Explicit transport override; by default the reliable transport
        #: switches on exactly when the fault plan is lossy.
        self.transport = transport
        self.last_cluster: Cluster | None = None

    # ------------------------------------------------------------------
    def run(
        self,
        program: OmpProgram,
        failures: Sequence[NodeFailure] = (),
        fault_plan: FaultPlan | None = None,
    ) -> FTRunResult:
        """Execute ``program`` on a fresh cluster and drive the clock."""
        main_proc, finish = self.launch(
            program, failures=failures, fault_plan=fault_plan
        )
        main_proc.sim.run(until=main_proc)
        return finish()

    def launch(
        self,
        program: OmpProgram,
        failures: Sequence[NodeFailure] = (),
        fault_plan: FaultPlan | None = None,
        cluster=None,
    ):
        """Set up one execution and return ``(main_process, finish)``.

        Mirrors :meth:`OMPCRuntime.launch`: with ``cluster=None`` a
        private machine is built and the caller drives the clock via
        ``run``; with an externally-owned cluster (in practice a
        :class:`~repro.cluster.partition.ClusterView`) the execution
        joins an already-ticking simulation.  Failure times stay
        relative to runtime startup either way (the injector arms after
        startup completes).  A ``fault_plan`` cannot be combined with an
        external cluster — plans install on the physical machine, which
        the partition's owner must do before carving views.
        """
        program.validate()
        failures = tuple(failures)
        shared = cluster is not None
        cluster = bind_cluster(self.cluster_spec, cluster)
        if shared and fault_plan is not None:
            raise ValueError(
                "fault_plan must be installed on the physical cluster, "
                "not passed to a launch on a shared cluster view"
            )
        self.last_cluster = cluster
        active = fault_plan.install(cluster) if fault_plan is not None else None
        transport = self.transport
        ambient = active if active is not None else cluster.faults
        if transport is None and ambient is not None and ambient.plan.lossy:
            transport = TransportConfig()
        engine = Engine(cluster, self.config, program, transport=transport)
        sim, mpi, events, dm = engine.sim, engine.mpi, engine.events, engine.dm
        analysis, tiering, graph = engine.analysis, engine.tiering, engine.graph
        cfg = self.config
        if cfg.gossip:
            # SWIM-style gossip membership (repro.core.gossip): O(1)
            # probes per node per round instead of the ring's O(N)
            # suspect-report fan-in at the head.  Feeds the exact same
            # suspect -> head-confirm pipeline via on_detect /
            # on_head_detect, so failover below is unchanged.
            from repro.core.gossip import GossipMembership

            ring = GossipMembership(
                cluster, mpi, events,
                interval=cfg.gossip_interval,
                ping_timeout=cfg.heartbeat_ping_timeout,
                fanout=cfg.gossip_fanout,
                piggyback=cfg.gossip_piggyback,
                seed=cfg.gossip_seed,
                use_wheel=self.heartbeat_wheel,
            )
        else:
            ring = HeartbeatRing(
                cluster, mpi, events,
                interval=self.heartbeat_interval,
                timeout=self.heartbeat_timeout,
                suspect_windows=cfg.heartbeat_suspect_windows,
                ping_timeout=cfg.heartbeat_ping_timeout,
                use_wheel=self.heartbeat_wheel,
            )

        # -- head-state replication (head failover) ----------------------
        # Standbys are the lowest-id workers; they keep executing tasks
        # like any other worker while also mirroring the head's log.
        n_standbys = min(cfg.head_standbys, cluster.num_nodes - 1)
        if n_standbys > 0:
            log = HeadLog(cfg.log_record_bytes)
            repl = Replicator(
                sim, mpi, events, log,
                standbys=list(range(1, 1 + n_standbys)),
                head=HOST,
                max_lag=cfg.replication_max_lag,
                election_bytes=cfg.log_record_bytes,
            )
        else:
            log = None
            repl = None

        schedule = self.scheduler.schedule(graph, cluster)
        result = engine.result = FTRunResult(makespan=0.0, schedule=schedule)

        #: Every mapped buffer by id (bootstrap snapshots, log replay).
        all_buffers: dict[int, Buffer] = {}
        for t in graph.tasks():
            for d in t.deps:
                all_buffers.setdefault(d.buffer.buffer_id, d.buffer)
            for b in t.buffers:
                all_buffers.setdefault(b.buffer_id, b)

        #: The node currently acting as head (rebound on failover).
        home = HOST
        dead: set[int] = set()
        live_workers = lambda: [  # noqa: E731 - tiny local helper
            n for n in range(1, cluster.num_nodes) if n not in dead
        ]

        remaining = {t.task_id: graph.in_degree(t) for t in graph.tasks()}
        pending = len(remaining)
        all_done = sim.event("all-tasks-done")
        slots = engine.slots
        #: Which task last produced each buffer's current value.
        writer_of: dict[int, Task] = {}
        #: Monotone write counter per buffer (checkpoint freshness).
        write_version: dict[int, int] = {}
        #: Full write history per buffer: (version, task) in commit
        #: order — checkpoint recovery replays every write newer than
        #: the snapshot, not just the last one.
        write_log: dict[int, list[tuple[int, Task]]] = {}
        #: Written buffers by id (the checkpointer's worklist).
        written_buffers: dict[int, Buffer] = {}
        #: Head-side snapshots: buffer id → (version, pristine copy).
        checkpoints: dict[int, tuple[int, Any]] = {}
        #: Checkpoint reads in flight: buffer id → (source node, event
        #: fired when the read lands, if a DELETE waits on it).  The
        #: read's request may still be retransmitting toward the source
        #: when exit-data deletes that copy.
        ckpt_reading: dict[int, tuple[int, Any]] = {}
        #: Task ids whose completion is recorded (after a failover this
        #: is rebuilt from the adopted replica — the authoritative view).
        completed: set[int] = set()
        #: Post-failover re-dispatch overrides: task id → surviving
        #: original target, and the ids the workers must dedup.
        forced_target: dict[int, int] = {}
        dedup_tasks: set[int] = set()
        attempts: dict[int, int] = {}
        exec_attempt = itertools.count(1)
        # Serialize recoveries of the same buffer.
        recovering: dict[int, object] = {}
        #: Head-side processes of the current head incarnation.  All are
        #: interrupted when that head dies: their frames must unwind
        #: before the elected successor rebuilds state, so no stale
        #: completion can race the rebuilt directory.
        epoch_procs: list[Any] = []
        failovers: list[FailoverEvent] = []
        head_declared: dict[int, Any] = {}
        ckpt_stop = False

        def cur_epoch() -> int:
            return log.epoch if log is not None else 0

        def log_append(kind: str, nbytes: float | None = None,
                       **data: Any) -> None:
            if repl is None:
                return
            log.append(kind, nbytes=nbytes, **data)
            repl.notify()

        def spawn(gen, name: str):
            """Spawn an epoch-scoped head-side process.

            The wrapper absorbs the failover-teardown Interrupt: these
            frames have no waiter by design, and a failing process with
            no waiter crashes the simulation.  A *simulation-level*
            error (e.g. :class:`ClusterExhausted` when permanent
            failures drain the last worker) is routed to ``all_done``
            instead of being re-raised, so it propagates through the
            main process — which tears this run's machinery down and
            reports the failure to *this job's* caller — rather than
            aborting the whole simulator (and every co-tenant sharing
            it).
            """
            def shielded(g=gen):
                try:
                    yield from g
                except Interrupt:
                    return
                except SimulationError as exc:
                    done = all_done  # current epoch's barrier
                    if not done.triggered:
                        done.fail(exc)
                    return

            proc = sim.process(shielded(), name=name)
            epoch_procs.append(proc)
            return proc

        def declared_event(node: int):
            ev = head_declared.get(node)
            if ev is None:
                ev = sim.event(f"head-declared:{node}")
                head_declared[node] = ev
            return ev

        def on_head_death(node: int, by: int) -> None:
            """Ring verdict on the head: STONITH, then wake the failover.

            A falsely declared head is killed for real before any
            successor takes over — two live heads racing the same
            workers would be worse than one wrongly lost node.
            """
            if not events.node_failed(node):
                events.fail_node(node)
            ev = declared_event(node)
            if not ev.triggered:
                ev.succeed((by, sim.now))

        def target_node(task: Task) -> int:
            forced = forced_target.get(task.task_id)
            if forced is not None and forced not in dead:
                return forced
            node = schedule.node_of(task)
            if node in dead and node != HOST:
                # Deterministic re-map: spread by task id over survivors.
                survivors = live_workers()
                if not survivors:
                    raise ClusterExhausted("all worker nodes have failed")
                node = survivors[task.task_id % len(survivors)]
            return node

        def complete(task: Task) -> None:
            nonlocal pending
            completed.add(task.task_id)
            pending -= 1
            for succ in graph.successors(task):
                remaining[succ.task_id] -= 1
                if remaining[succ.task_id] == 0:
                    spawn(run_task(succ), name=f"ft-task:{succ.name}")
            if pending == 0 and not all_done.triggered:
                # (an aborting run may have failed the barrier already
                # while sibling frames were still draining)
                all_done.succeed()

        # -- buffer movement and recovery -------------------------------
        def ensure_available(buffer: Buffer, chain: frozenset = frozenset()):
            """Generator: guarantee a live copy of ``buffer`` exists.

            ``chain`` carries the buffer ids already being recovered on
            this call stack: needing one of them again means the lost
            value can only be rebuilt from itself (an in-place/INOUT
            producer), which is unrecoverable *without checkpoints* —
            with checkpointing on, the snapshot breaks the cycle.
            """
            bid = buffer.buffer_id
            while True:
                locations = dm.locations(buffer) - dead
                if locations:
                    return
                entry = checkpoints.get(bid)
                if bid in chain:
                    if entry is None:
                        raise RecoveryError(
                            f"buffer {buffer.name} can only be rebuilt "
                            "from its own lost value (in-place producer); "
                            "checkpoint-free lineage recovery cannot help"
                        )
                    # A recursive loss mid-replay of this very buffer:
                    # the in-flight restore sequence is void, tell the
                    # owning frame to start over from the snapshot.
                    raise _RecoveryRestart(bid)
                token = recovering.get(bid)
                if token is not None:
                    yield token  # someone else is already recovering it
                    continue
                producer = writer_of.get(bid)
                if entry is None and producer is None:
                    raise RecoveryError(
                        f"buffer {buffer.name} lost with no recorded "
                        "producer; its initial value existed only on the "
                        "failed node"
                    )
                done = sim.event(f"recover:{buffer.name}")
                recovering[bid] = done
                try:
                    if entry is not None:
                        yield from restore_and_replay(buffer, chain)
                    else:
                        yield from execute_once(producer, chain | {bid})
                        result.reexecuted_tasks += 1
                finally:
                    del recovering[bid]
                    done.succeed()

        def restore_and_replay(buffer: Buffer, chain: frozenset):
            """Generator: rebuild ``buffer`` from its newest checkpoint.

            Restores the snapshot to the head, then replays — in commit
            order — every write newer than the snapshot, so multi-step
            in-place chains come back complete, not just their last
            link.  If a replayed copy is lost again mid-sequence the
            whole sequence restarts from a fresh restore (partial
            replays would otherwise double-apply in-place writes).
            """
            bid = buffer.buffer_id
            while True:
                version, snap = checkpoints[bid]
                _restore_into(buffer, snap)
                dm.commit_restore(buffer)
                result.checkpoint_restores += 1
                cluster.trace.count("ft.checkpoint_restores")
                # Replays append to the log too; keep each task's first
                # occurrence only, in original commit order.
                seen: set[int] = set()
                pending = []
                for ver, task in write_log.get(bid, []):
                    if ver > version and task.task_id not in seen:
                        seen.add(task.task_id)
                        pending.append(task)
                try:
                    for task in pending:
                        yield from execute_once(task, chain | {bid})
                        result.reexecuted_tasks += 1
                except _RecoveryRestart as restart:
                    if restart.buffer_id != bid:
                        raise
                    continue
                return

        def safe_source_move(buffer: Buffer, dst: int, chain: frozenset = frozenset()):
            """Generator: materialize ``buffer`` on ``dst``.

            Retries with a fresh source if the source node crashes
            mid-transfer; a crash of ``dst`` propagates to the caller
            (the whole task attempt restarts elsewhere).
            """
            if tiering is not None and dst != home:
                yield from engine.fetch_gate(buffer, dst)
            while True:
                yield from ensure_available(buffer, chain)
                locations = dm.locations(buffer) - dead
                if dst in locations:
                    return
                src = dm.latest(buffer)
                if src in dead or src not in locations:
                    src = home if home in locations else min(locations)
                if src == home:
                    op = events.submit(dst, buffer.buffer_id, buffer.data,
                                       buffer.nbytes, origin=home)
                    watch = [dst]
                else:
                    op = events.exchange(src, dst, buffer.buffer_id,
                                         buffer.nbytes, origin=home)
                    watch = [src, dst]
                try:
                    yield from guarded(watch, op)
                except _NodeCrashed as crash:
                    if crash.node == home:
                        # The head died under us: the failover path owns
                        # recovery; park until the teardown interrupt.
                        yield sim.event("park-for-failover")
                        continue
                    handle_node_death(crash.node)
                    if crash.node == dst:
                        raise  # the task itself must move
                    continue  # source died: pick another source
                if src not in dm.locations(buffer) - dead:
                    # The source was declared dead mid-transfer (possibly
                    # a false positive under heavy transients) and its
                    # copy invalidated; redo the move from a live source.
                    continue
                dm.commit_move(Move(buffer, src, dst))
                return

        # -- task execution with failure racing ---------------------------
        def execute_once(task: Task, chain: frozenset = frozenset()):
            """Generator: run ``task`` to completion, retrying on crashes."""
            recovery = bool(chain)  # lineage/replay re-execution
            while True:
                node = target_node(task)
                attempts[task.task_id] = attempts.get(task.task_id, 0) + 1
                if repl is not None and not recovery:
                    if task.kind in (TaskKind.CLASSICAL, TaskKind.TARGET):
                        log_append(
                            "dispatch", task_id=task.task_id,
                            node=home if task.kind == TaskKind.CLASSICAL
                            else node,
                        )
                        if any(
                            d.type.writes and d.type.reads for d in task.deps
                        ):
                            # INOUT fence: an ambiguous in-place mutation
                            # must be *detectable* from every replica
                            # before it can happen.
                            yield from repl.flush()
                        else:
                            yield from repl.throttle()
                    else:
                        yield from repl.throttle()
                try:
                    if task.kind == TaskKind.CLASSICAL:
                        yield from run_classical(task, recovery)
                    elif task.kind == TaskKind.TARGET_ENTER_DATA:
                        yield from run_enter_data(task, node)
                    elif task.kind == TaskKind.TARGET_EXIT_DATA:
                        yield from run_exit_data(task)
                    elif speculatable(task):
                        yield from run_target_speculative(task, node, chain)
                    else:
                        yield from run_target(task, node, chain)
                    return
                except _NodeCrashed as crash:
                    if crash.node == home:
                        # The head itself died under this frame; the
                        # failover path owns recovery — park until the
                        # epoch teardown interrupts us.
                        yield sim.event("park-for-failover")
                        continue
                    handle_node_death(crash.node)
                    continue  # retry on a survivor

        def run_classical(task: Task, recovery: bool = False):
            analysis.on_host_task(task, dm)
            head = cluster.node(home)
            req = head.cpu.request()
            try:
                yield req
            except Interrupt:
                # Teardown while queued: withdraw the request (a slot
                # granted in the same instant is handed back) so the
                # epoch swap cannot leak CPU capacity.
                if not head.cpu.cancel(req):
                    head.cpu.release()
                raise
            try:
                if task.cost:
                    yield sim.timeout(head.compute_time(task.cost))
                if task.fn is not None:
                    task.fn(*(d.buffer.data for d in task.deps))
            finally:
                head.cpu.release()
            record_writes(task, home, recovery)

        def run_enter_data(task: Task, node: int):
            if node == HOST or node in dead:
                node = home
            if node != home:
                if tiering is not None and tiering.manages(node):
                    # One buffer at a time: a working set larger than the
                    # device is legal for enter data — buffers entered
                    # earlier are clean replicas (the host image
                    # survives) the tier may drop; consumers re-fetch
                    # them read-through.  Each buffer commits (and logs)
                    # as soon as it lands, so a subsequent eviction
                    # updates a directory that already knows the copy.
                    for buf in task.buffers:
                        bid = [buf.buffer_id]
                        dm.pin(bid)
                        try:
                            yield from make_room(task, node, [buf], bid)
                            yield from safe_source_move(buf, node)
                            dm.commit_enter_data(buf, node)
                            log_append("enter_data",
                                       buffer_id=buf.buffer_id, node=node)
                        finally:
                            dm.unpin(bid)
                    return
                for buf in task.buffers:
                    yield from safe_source_move(buf, node)
                for buf in task.buffers:
                    dm.commit_enter_data(buf, node)
                    log_append("enter_data", buffer_id=buf.buffer_id,
                               node=node)

        def run_exit_data(task: Task):
            for buf in task.buffers:
                while True:
                    yield from ensure_available(buf)
                    locations = dm.locations(buf) - dead
                    if home in locations and dm.latest(buf) == home:
                        break
                    src = dm.latest(buf)
                    if src in dead or src not in locations:
                        src = min(locations)
                    if src == home:
                        break
                    payload = yield from events.retrieve(
                        src, buf.buffer_id, buf.nbytes, origin=home
                    )
                    if src not in dm.locations(buf) - dead:
                        continue  # source declared dead mid-retrieve
                    buf.data = payload
                    dm.commit_move(Move(buf, src, home))
                    break
                log_append("exit_data", buffer_id=buf.buffer_id, home=home)
                yield from purge_stale(dm.commit_exit_data(buf))

        def purge_stale(stale):
            """Generator: physically delete invalidated worker copies.

            With replication on, physical deletes are skipped entirely
            (a tombstone model): the directory has already dropped the
            stale copies so nothing will read them, and a deferred
            DELETE racing a post-failover re-materialization of the
            same buffer could destroy the only live copy.
            """
            if repl is not None:
                return
            for buf, holder in stale:
                bid = buf.buffer_id
                while ckpt_reading.get(bid, (None,))[0] == holder:
                    yield ckpt_reading[bid][1]  # let the snapshot land
                if holder != home and holder not in dead:
                    yield from events.delete(holder, bid, origin=home)
                    dm.mem_release(buf, holder)

        # -- tiered data plane under fault tolerance ----------------------
        def perform_eviction(ev):
            """Generator: physically evict one buffer (spill if dirty).

            A victim on a node that died since planning needs no work —
            the crash wiped the device and ``dm.on_node_failure``
            already dropped the tier accounting.
            """
            buf, node = ev.buffer, ev.node
            try:
                if node in dead:
                    return
                if ev.spill:
                    payload = yield from events.retrieve(
                        node, buf.buffer_id, buf.nbytes, origin=home
                    )
                    if node in dead or node not in dm.locations(buf):
                        return
                    buf.data = payload
                    dm.commit_move(Move(buf, node, HOST))
                    cluster.trace.count("mem.spill_bytes", buf.nbytes)
                try:
                    dm.commit_evict(buf, node)
                except ValueError:
                    return  # became the last live copy since planning
                if node not in dead:
                    # Unlike purge_stale's deferred deletes, an eviction
                    # delete is safe under replication: it follows the
                    # completed spill/directory update in the same frame,
                    # and the bytes provably live at home or on another
                    # replica before the device entry is dropped.
                    yield from events.delete(node, buf.buffer_id,
                                             origin=home)
                cluster.trace.count("mem.evict")
            finally:
                dm.mem_release(buf, node)

        def make_room(task: Task, node: int, incoming, pinned_ids):
            """Generator: plan + perform evictions so ``incoming`` fits.

            Backs off on :class:`MemoryWait` by *simulated time* rather
            than the plain runtime's release turnstile: each retry
            releases this frame's pins first, so the last frame standing
            re-plans against the true state and either proceeds or
            raises the fatal task-attributed error.  Time-based back-off
            cannot livelock — co-tenant kernels finish while we sleep.
            """
            backoff = 1
            while True:
                try:
                    busy = tiering.evicting(node)
                    if any(bid in busy for bid in pinned_ids):
                        # One of our own buffers is mid-eviction: let it
                        # land (re-fetch happens on re-plan) before
                        # committing to this placement.
                        raise MemoryWait
                    evictions = dm.plan_evictions(task, node, incoming)
                    break
                except MemoryWait:
                    dm.unpin(pinned_ids)
                    try:
                        yield sim.timeout(cfg.mem_fetch_backoff * backoff)
                        backoff = min(backoff * 2, 64)
                    finally:
                        dm.pin(pinned_ids)
            for ev in evictions:
                yield from perform_eviction(ev)

        def run_target(task: Task, node: int, chain: frozenset = frozenset(),
                       attempt: int = 0):
            if tiering is not None and node != home and tiering.manages(node):
                yield from run_target_tiered(task, node, chain, attempt)
                return
            moves, allocs = dm.plan_for_task(task, node)
            for buf in allocs:
                yield from guarded(node, events.alloc(node, buf.buffer_id,
                                                      payload=buf.data,
                                                      origin=home,
                                                      nbytes=buf.nbytes))
                dm.commit_alloc(buf, node)
            if node == home:
                # Self-dispatch (the elected head doubles as a worker):
                # the directory counts the host image as home-resident,
                # but the node's device table only holds explicit
                # allocations.  Materialize missing deps by reference —
                # a host-to-own-device copy moves no bytes.
                mem = events.memories[node]
                for dep in task.deps:
                    if (
                        dm.is_resident(dep.buffer, node)
                        and dep.buffer.buffer_id not in mem
                    ):
                        yield from guarded(node, events.alloc(
                            node, dep.buffer.buffer_id,
                            payload=dep.buffer.data, origin=home,
                            nbytes=dep.buffer.nbytes,
                        ))
            for dep in task.deps:
                if task.dep_type_for(dep.buffer).reads and not dm.is_resident(
                    dep.buffer, node
                ):
                    yield from safe_source_move(dep.buffer, node, chain)
            dedup = not chain and task.task_id in dedup_tasks
            yield from guarded(node, events.execute(
                node, task, origin=home, attempt=attempt,
                dedup=dedup, fo_epoch=cur_epoch(),
            ))
            record_writes(task, node, recovery=bool(chain))
            yield from purge_stale(dm.commit_task_done(task, node))

        def run_target_tiered(task: Task, node: int, chain: frozenset,
                              attempt: int):
            """``run_target`` with device-capacity admission control.

            The task's buffers are pinned for the frame's lifetime so
            concurrent planners never evict an in-use dependency; the
            plan/back-off loop mirrors the plain runtime's, with
            simulated-time back-off standing in for its release
            turnstile (see :func:`make_room`).
            """
            dep_ids = sorted({d.buffer.buffer_id for d in task.deps})
            dm.pin(dep_ids)
            try:
                backoff = 1
                while True:
                    try:
                        busy = tiering.evicting(node)
                        if any(bid in busy for bid in dep_ids):
                            raise MemoryWait  # let our dep's eviction land
                        _moves, allocs = dm.plan_for_task(task, node)
                        needed = [
                            d.buffer for d in task.deps
                            if task.dep_type_for(d.buffer).reads
                            and not dm.is_resident(d.buffer, node)
                        ]
                        incoming = list(allocs) + needed
                        evictions = dm.plan_evictions(task, node, incoming)
                        break
                    except MemoryWait:
                        dm.unpin(dep_ids)
                        try:
                            yield sim.timeout(
                                cfg.mem_fetch_backoff * backoff
                            )
                            backoff = min(backoff * 2, 64)
                        finally:
                            dm.pin(dep_ids)
                needed_ids = {b.buffer_id for b in needed}
                for bid in sorted({
                    d.buffer.buffer_id for d in task.deps
                    if task.dep_type_for(d.buffer).reads
                }):
                    cluster.trace.count(
                        "mem.miss" if bid in needed_ids else "mem.hit"
                    )
                for ev in evictions:
                    yield from perform_eviction(ev)
                for buf in allocs:
                    yield from guarded(node, events.alloc(
                        node, buf.buffer_id, payload=buf.data, origin=home,
                        nbytes=buf.nbytes, label=buf.name, owner=task.name,
                    ))
                    dm.commit_alloc(buf, node)
                for dep in task.deps:
                    if task.dep_type_for(dep.buffer).reads and (
                        not dm.is_resident(dep.buffer, node)
                    ):
                        yield from safe_source_move(dep.buffer, node, chain)
                dedup = not chain and task.task_id in dedup_tasks
                yield from guarded(node, events.execute(
                    node, task, origin=home, attempt=attempt,
                    dedup=dedup, fo_epoch=cur_epoch(),
                ))
                record_writes(task, node, recovery=bool(chain))
                yield from purge_stale(dm.commit_task_done(task, node))
            finally:
                dm.unpin(dep_ids)

        # -- straggler mitigation -----------------------------------------
        def speculatable(task: Task) -> bool:
            """Target tasks eligible for speculative re-dispatch.

            Only pure-``out`` writers qualify: a losing attempt's kernel
            launch is revoked, but one that already ran merely rewrote
            outputs it fully overwrites — the same idempotence contract
            lineage recovery relies on.  INOUT writers are excluded.
            """
            return (
                cfg.straggler_factor > 0
                # Speculation doubles a task's transient footprint (both
                # attempts stage full working sets); under a bounded
                # device budget the duplicate attempt could itself force
                # the eviction storm it is trying to outrun, so tiered
                # runs fall back to plain (admission-controlled) dispatch.
                and tiering is None
                and task.kind == TaskKind.TARGET
                and task.cost > 0
                and all(not (d.type.writes and d.type.reads) for d in task.deps)
                and len(live_workers()) > 1
            )

        def run_target_speculative(task: Task, node: int, chain: frozenset):
            """Generator: race a backup attempt against a straggler.

            The primary attempt gets ``straggler_factor`` times its cost
            estimate; past that, a second attempt starts on another live
            worker and whichever finishes first wins.  The loser's
            kernel launch is revoked through the event system so a
            late-finishing attempt cannot clobber downstream writes.
            """
            estimate = cluster.node(node).compute_time(task.cost)
            attempt_a = next(exec_attempt)
            primary = sim.process(
                run_target(task, node, chain, attempt_a),
                name=f"ft-spec:{task.name}.a",
            )
            p_done = sim.event(f"settle:{task.name}.a")
            primary.add_callback(lambda _ev: p_done.succeed())
            yield AnyOf(sim, [
                p_done, sim.timeout(cfg.straggler_factor * estimate)
            ])
            if not primary.triggered:
                spare = [n for n in live_workers() if n != node]
                if spare:
                    backup_node = spare[task.task_id % len(spare)]
                    attempt_b = next(exec_attempt)
                    attempts[task.task_id] = attempts.get(task.task_id, 0) + 1
                    result.speculative_attempts += 1
                    cluster.trace.count("ft.speculative_attempts")
                    backup = sim.process(
                        run_target(task, backup_node, chain, attempt_b),
                        name=f"ft-spec:{task.name}.b",
                    )
                    b_done = sim.event(f"settle:{task.name}.b")
                    backup.add_callback(lambda _ev: b_done.succeed())
                    yield AnyOf(sim, [p_done, b_done])
                    first, first_att, second, second_att, second_done = (
                        (primary, attempt_a, backup, attempt_b, b_done)
                        if primary.triggered
                        else (backup, attempt_b, primary, attempt_a, p_done)
                    )
                    if first.ok:
                        if first is backup:
                            result.speculation_wins += 1
                        events.cancel_execution(task.task_id, second_att)
                        if second.is_alive:
                            second.interrupt("lost speculation race")
                        return
                    # The first finisher crashed; absorb its node's death
                    # and let the surviving attempt decide the task.
                    if not isinstance(first.value, _NodeCrashed):
                        raise first.value
                    handle_node_death(first.value.node)
                    if not second.triggered:
                        yield second_done
                    if second.ok:
                        if second is backup:
                            result.speculation_wins += 1
                        return
                    raise second.value  # both attempts crashed: retry
            if not primary.triggered:
                yield p_done  # no spare worker: just wait the straggler out
            if not primary.ok:
                raise primary.value
            return

        def record_writes(task: Task, node: int,
                          recovery: bool = False) -> None:
            for buf in task.writes:
                writer_of[buf.buffer_id] = task
                written_buffers[buf.buffer_id] = buf
                if recovery:
                    # Replays re-derive an already-recorded write: the
                    # version counter must stay aligned with what a
                    # standby reconstructs from the log, or checkpoint
                    # freshness comparisons diverge after a failover.
                    continue
                version = write_version.get(buf.buffer_id, 0) + 1
                write_version[buf.buffer_id] = version
                write_log.setdefault(buf.buffer_id, []).append((version, task))
            if not recovery:
                log_append("task_done", task_id=task.task_id, node=node)

        def guarded(nodes, operation):
            """Generator: race ``operation`` against any of ``nodes`` dying.

            A crash mid-operation may strand the remote half of the
            event (e.g. an EXCHANGE destination waiting on a dead
            source); the origin-side process is interrupted and the
            crash is reported to the caller for retry.
            """
            if isinstance(nodes, int):
                nodes = [nodes]
            for node in nodes:
                if node in dead or events.node_failed(node):
                    raise _NodeCrashed(node)
            proc = sim.process(operation, name="ft-op")
            races = [proc] + [events.failure_event(n) for n in nodes]
            yield AnyOf(sim, races)
            if proc.triggered:
                if not proc.ok:
                    raise proc.value
                return proc.value
            if proc.is_alive:
                proc.interrupt("node failure")
            crashed = next(n for n in nodes if events.node_failed(n))
            raise _NodeCrashed(crashed)

        def handle_node_death(node: int) -> None:
            if node in dead or node == home:
                return  # the head's own death is the failover path's job
            dead.add(node)
            dm.on_node_failure(node)
            result.failures.append(node)
            log_append("node_dead", node=node)

        def run_task(task: Task):
            req = slots.request()
            try:
                yield req
            except Interrupt:
                # Teardown while queued for a head thread: withdraw the
                # request (a slot granted in the same instant is handed
                # back) so the epoch swap cannot leak capacity.
                if not slots.cancel(req):
                    slots.release()
                raise
            analysis.task_begin(task)
            try:
                yield from execute_once(task)
            finally:
                slots.release()
            if task.kind.is_data_movement:
                # ENTER/EXIT completions carry no writes, so they are
                # logged here rather than through record_writes.
                log_append("task_done", task_id=task.task_id, node=home)
            analysis.task_end(task)
            complete(task)

        # -- checkpointing ------------------------------------------------
        def checkpointer():
            """Generator: periodically snapshot written buffers head-side.

            Every snapshot is retrieved through the event system, so
            checkpoint traffic is charged like any other data movement.
            Only buffers whose newest write postdates their last
            snapshot are refreshed.
            """
            while not ckpt_stop:
                yield sim.timeout(cfg.checkpoint_interval)
                if ckpt_stop:
                    return
                for bid in sorted(written_buffers):
                    buf = written_buffers[bid]
                    version = write_version.get(bid, 0)
                    entry = checkpoints.get(bid)
                    if entry is not None and entry[0] >= version:
                        continue  # snapshot already current
                    locations = dm.locations(buf) - dead
                    if not locations:
                        continue  # already lost; recovery owns it now
                    src = dm.latest(buf)
                    if src in dead or src not in locations:
                        src = home if home in locations else min(locations)
                    if src == home:
                        checkpoints[bid] = (version, _snapshot(buf.data))
                    else:
                        ckpt_reading[bid] = (src, sim.event(f"ckpt-read:{bid}"))
                        try:
                            payload = yield from guarded(
                                [src],
                                events.retrieve(src, bid, buf.nbytes,
                                                origin=home),
                            )
                        except _NodeCrashed as crash:
                            handle_node_death(crash.node)
                            continue
                        finally:
                            landed = ckpt_reading.pop(bid)[1]
                            if landed.callbacks:  # a DELETE waits
                                landed.succeed()
                        if write_version.get(bid, 0) != version:
                            continue  # changed mid-flight; next round
                        checkpoints[bid] = (version, _snapshot(payload))
                    result.checkpoints_taken += 1
                    cluster.trace.count("ft.checkpoints")
                    # Snapshots ride the log by reference: the stored
                    # copy is pristine (restores copy out of it), so
                    # sharing it with the replicas is safe.
                    log_append(
                        "checkpoint",
                        nbytes=cfg.log_record_bytes + buf.nbytes,
                        buffer_id=bid, version=version,
                        snap=checkpoints[bid][1],
                    )

        # -- head failover ------------------------------------------------
        def start_epoch() -> None:
            """Spawn the head-side services of the current incarnation."""
            if repl is not None:
                for s in repl.live_standbys():
                    spawn(repl.pump(s), name=f"repl-pump{s}.e{cur_epoch()}")
            if cfg.checkpoint_interval > 0:
                spawn(checkpointer(), name=f"ft-checkpoint.e{cur_epoch()}")

        def rebuild_from_log(old_head: int) -> int:
            """Replay the adopted replica into fresh head state.

            Only *logged* transitions are replayed — completions, data
            enter/exit, node deaths, checkpoints — which yields a
            conservative directory: every logged write pinned its buffer
            to the writing node, so dropping knowledge of intermediate
            moves can only forget extra replicas, never invent one.

            Returns the number of in-doubt dispatches re-issued.
            """
            nonlocal dm, tiering
            dm2 = DataManager(analysis=dm.analysis)
            ckpt2: dict[int, tuple[int, Any]] = {}
            done2: set[int] = set()
            dispatched: dict[int, int] = {}
            writer2: dict[int, Task] = {}
            wver2: dict[int, int] = {}
            wlog2: dict[int, list[tuple[int, Task]]] = {}
            wbuf2: dict[int, Buffer] = {}
            dropped: set[int] = set()
            for rec in log.records:
                d = rec.data
                if rec.kind == "bootstrap":
                    for bid, snap in d["snapshots"]:
                        ckpt2[bid] = (0, snap)
                elif rec.kind == "dispatch":
                    dispatched[d["task_id"]] = d["node"]
                elif rec.kind == "task_done":
                    tid = d["task_id"]
                    done2.add(tid)
                    dispatched.pop(tid, None)
                    task = graph.task(tid)
                    for buf in task.writes:
                        writer2[buf.buffer_id] = task
                        wbuf2[buf.buffer_id] = buf
                        ver = wver2.get(buf.buffer_id, 0) + 1
                        wver2[buf.buffer_id] = ver
                        wlog2.setdefault(buf.buffer_id, []).append(
                            (ver, task)
                        )
                    if task.kind == TaskKind.TARGET:
                        dm2.commit_task_done(task, d["node"])
                elif rec.kind == "enter_data":
                    dm2.commit_enter_data(
                        all_buffers[d["buffer_id"]], d["node"]
                    )
                elif rec.kind == "exit_data":
                    # Apply with the home that was current when logged.
                    dm2.rehome(d["home"])
                    dm2.commit_exit_data(all_buffers[d["buffer_id"]])
                elif rec.kind == "node_dead":
                    n = d["node"]
                    dropped.add(n)
                    if n != dm2.home:
                        dm2.on_node_failure(n)
                elif rec.kind == "checkpoint":
                    ckpt2[d["buffer_id"]] = (d["version"], d["snap"])
            dm2.rehome(home)  # ``home`` is already the elected winner
            for n in sorted((dead | {old_head}) - dropped):
                if n != home:
                    dm2.on_node_failure(n)
                    log_append("node_dead", node=n)
            # In-doubt dispatches: a dispatch record with no matching
            # completion.  Completed-but-unreplicated work re-runs; the
            # worker-side dedup (task id) and epoch fencing keep that
            # idempotent when the original target survives.
            redispatched = 0
            forced_target.clear()
            dedup_tasks.clear()
            for tid in sorted(dispatched):
                if tid in done2:
                    continue
                redispatched += 1
                node = dispatched[tid]
                task = graph.task(tid)
                alive = (
                    node != old_head
                    and node not in dead
                    and not events.node_failed(node)
                )
                if alive:
                    forced_target[tid] = node
                    dedup_tasks.add(tid)
                    continue
                if node != old_head and not events.node_failed(node):
                    # In-doubt target (declared dead but physically still
                    # running): fence it for real so no zombie in-place
                    # mutation can land after the restore below.
                    events.fail_node(node)
                for dep in task.deps:
                    if dep.type.writes and dep.type.reads:
                        # The lost dispatch may or may not have applied
                        # its in-place mutation; only a snapshot restore
                        # plus write-log replay is well-defined.
                        dm2.invalidate(dep.buffer)
            # Swap the rebuilt state in.
            dm = dm2
            if tiering is not None:
                # Re-arm the tiered store on the rebuilt directory.  The
                # new head reconstructs a conservative residency mirror
                # from the replayed directory: every replica the log
                # still knows about is charged; replicas the log forgot
                # are tombstones the eviction pass collects naturally.
                engine.configure_tiering(dm)
                tiering = dm.tiering
                for bid in sorted(all_buffers):
                    buf = all_buffers[bid]
                    for n in sorted(dm.locations(buf)):
                        if n != HOST and n not in dead and tiering.manages(n):
                            tiering.charge(n, buf)
            checkpoints.clear()
            checkpoints.update(ckpt2)
            writer_of.clear()
            writer_of.update(writer2)
            write_version.clear()
            write_version.update(wver2)
            write_log.clear()
            write_log.update(wlog2)
            written_buffers.clear()
            written_buffers.update(wbuf2)
            completed.clear()
            completed.update(done2)
            recovering.clear()
            return redispatched

        def failover():
            """Generator: elect, adopt, rebuild, resume (one head death)."""
            nonlocal home, pending, all_done
            old_head = home
            failed_at = sim.now
            # Tear down the dead head's epoch first: every head-side
            # frame unwinds before the successor rebuilds state.
            for proc in epoch_procs:
                if proc.is_alive:
                    proc.interrupt("head failover")
            epoch_procs.clear()
            if repl is None:
                raise RecoveryError(
                    "head node failed with no standbys configured "
                    "(OMPCConfig.head_standbys = 0); head state is "
                    "unrecoverable"
                )
            if old_head not in dead:
                dead.add(old_head)
                result.failures.append(old_head)
            if not any(
                n != old_head and not events.node_failed(n)
                for n in range(cluster.num_nodes)
            ):
                raise RecoveryError("head node failed and no live node "
                                    "remains to elect a successor")
            by, declared_at = yield declared_event(old_head)
            election = yield from repl.elect(
                by, exclude=frozenset(dead | ring._dead | {old_head})
            )
            if election is None:
                raise RecoveryError(
                    "head node failed and no live standby replica "
                    "survives to take over (raise "
                    "OMPCConfig.head_standbys)"
                )
            winner, votes = election
            elected_at = sim.now
            yield from repl.announce(by, winner, [
                n for n in range(cluster.num_nodes)
                if n != old_head and not events.node_failed(n)
            ])
            log.adopt(list(repl.replicas[winner]), log.epoch + 1)
            repl.set_head(winner, votes)
            home = winner
            ring.rebase(winner)
            # The successor replays its replica into fresh control
            # state; the replay is CPU work charged per record.
            replay_cost = len(log.records) * cfg.log_replay_unit_cost
            if replay_cost:
                yield sim.timeout(replay_cost)
            redispatched = rebuild_from_log(old_head)
            # Rebuild the dependency frontier from the replicated
            # completed set and relaunch whatever is runnable.
            remaining.clear()
            pending = 0
            for t in graph.tasks():
                if t.task_id in completed:
                    continue
                remaining[t.task_id] = sum(
                    1 for p in graph.predecessors(t)
                    if p.task_id not in completed
                )
                pending += 1
            all_done = sim.event("all-tasks-done")
            start_epoch()
            failovers.append(FailoverEvent(
                epoch=log.epoch,
                old_head=old_head,
                new_head=winner,
                failed_at=failed_at,
                declared_at=declared_at,
                elected_at=elected_at,
                resumed_at=sim.now,
                replayed_records=len(log.records),
                redispatched_tasks=redispatched,
            ))
            cluster.trace.count("ft.head_failovers")
            if pending == 0:
                all_done.succeed()
                return
            for t in graph.tasks():
                if t.task_id not in completed and remaining[t.task_id] == 0:
                    spawn(run_task(t), name=f"ft-task:{t.name}")

        # -- failure plumbing ---------------------------------------------
        def on_detect(dead_node: int, by: int) -> None:
            # The head learns through the ring; recovery state updates
            # immediately (in-flight guards race the failure event).
            handle_node_death(dead_node)

        ring.on_detect = on_detect
        ring.on_head_detect = on_head_death
        injector = FailureInjector(events)

        def main():
            nonlocal ckpt_stop
            try:
                yield from main_body()
            except BaseException:
                # Unrecoverable abort (or a preemption interrupt from
                # the workload manager): tear this job's machinery down
                # so a shared simulation (multi-tenant cluster views) is
                # not left with orphaned heartbeat/gate processes
                # ticking forever after the error propagates out.  An
                # abort during startup finds the event system not yet
                # started — nothing to tear down there.
                ckpt_stop = True
                ring.stop()
                engine.abort()
                raise

        def main_body():
            nonlocal ckpt_stop
            yield sim.timeout(cfg.startup_time)
            events.start()
            ring.start()
            injector.arm(failures)
            if repl is not None:
                repl.start()
                # Bootstrap fence: every buffer's pristine initial value
                # reaches every standby before any task may run, so even
                # a first-write INOUT loss is restorable after failover.
                snaps = tuple(
                    (bid, _snapshot(all_buffers[bid].data))
                    for bid in sorted(all_buffers)
                )
                log_append(
                    "bootstrap",
                    nbytes=cfg.log_record_bytes + sum(
                        all_buffers[bid].nbytes for bid in sorted(all_buffers)
                    ),
                    snapshots=snaps,
                )
            start_epoch()
            if repl is not None:
                yield from repl.flush()
            creation = len(remaining) * cfg.task_creation_overhead
            if creation:
                yield sim.timeout(creation)
            sched_cost = (
                graph.num_edges
                * max(cluster.num_nodes - 1, 1)
                * cfg.schedule_unit_cost
            )
            if sched_cost:
                yield sim.timeout(sched_cost)
            if pending == 0:
                all_done.succeed()
            else:
                for root in graph.roots():
                    spawn(run_task(root), name=f"ft-task:{root.name}")
            while True:
                done = all_done
                yield AnyOf(sim, [done, events.failure_event(home)])
                if done.triggered:
                    break
                yield from failover()
            ckpt_stop = True
            ring.stop()
            if not events.node_failed(home):
                yield from events.shutdown(origin=home)
            yield sim.timeout(cfg.shutdown_time)

        main_proc = sim.process(main(), name="ompc-ft-main")

        def finish() -> FTRunResult:
            engine.finish(failed=dead)
            result.detections = list(ring.detections)
            result.task_attempts = dict(attempts)
            result.suspicions_cleared = ring.suspicions_cleared
            result.false_positive_detections = ring.false_positives
            declared = {d for d, _by, _t in ring.detections}
            result.false_negative_detections = len(
                {f.node for f in injector.injected} - declared
            )
            result.transport = dict(mpi.stats)
            result.missed_heartbeat_windows = ring.missed_windows
            result.final_head = home
            result.head_failovers = len(failovers)
            result.failovers = list(failovers)
            if repl is not None:
                result.log_records_appended = log.appended
                result.replication_bytes = repl.stats["bytes_sent"]
                result.log_flushes = repl.stats["flushes"]
                result.replication = dict(repl.stats)
            if active is not None:
                result.counters["faults.dropped_messages"] = (
                    active.dropped_messages
                )
            return result

        return main_proc, finish


def _snapshot(payload: Any) -> Any:
    """A pristine copy of a device payload for checkpoint storage."""
    if payload is None:
        return None

    if isinstance(payload, np.ndarray):
        return payload.copy()
    return _copy.deepcopy(payload)


def _restore_into(buffer: Any, snapshot: Any) -> None:
    """Restore a snapshot into a buffer, preserving payload identity.

    Payloads travel by reference in the simulation, so host code may
    hold the very array object ``buffer.data`` points at.  Copying the
    snapshot *into* that array (rather than rebinding ``buffer.data`` to
    a fresh one) keeps those aliases live across a recovery — matching
    OpenMP mapped-buffer semantics, where the original host storage is
    what gets refilled.
    """
    fresh = _snapshot(snapshot)  # the stored copy stays pristine
    data = buffer.data
    if (
        isinstance(data, np.ndarray)
        and isinstance(fresh, np.ndarray)
        and data.shape == fresh.shape
        and data.dtype == fresh.dtype
    ):
        np.copyto(data, fresh)
    else:
        buffer.data = fresh


class _NodeCrashed(Exception):
    """Internal control flow: the target node died mid-operation."""

    def __init__(self, node: int):
        super().__init__(f"node {node} crashed")
        self.node = node


class _RecoveryRestart(Exception):
    """Internal control flow: a checkpoint restore sequence was itself
    hit by a failure and must start over from the snapshot."""

    def __init__(self, buffer_id: int):
        super().__init__(f"recovery of buffer {buffer_id} must restart")
        self.buffer_id = buffer_id
