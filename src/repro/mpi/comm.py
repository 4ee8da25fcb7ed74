"""Communicators, ranks, and point-to-point messaging.

Matching semantics follow MPI: a receive names ``(source, tag)`` within
one communicator; either may be a wildcard.  Matching is FIFO over the
arrival order at the receiver, which — combined with per-(comm, src)
sequence numbers — preserves the non-overtaking rule.

Protocol model: *eager*.  A send charges a per-message software overhead
plus the fabric transfer time (VCI-contended), then the message lands in
the receiver's matching queue.  The sender never blocks on the receiver;
this matches how MPICH handles the small-to-medium control messages the
OMPC event system exchanges, and the bulk-data sends in our workloads
are always pre-posted on the receive side.

Reliable transport
------------------
A clean fabric delivers every message, so the default path is
fire-and-forget.  When the cluster carries a lossy
:class:`~repro.core.faultmodel.FaultPlan`, construct the world with a
:class:`TransportConfig`: point-to-point sends then carry their
per-(comm, src) sequence number end to end, the receiving NIC
acknowledges each delivery, and the sender retransmits on an exponential
-backoff timer until acked or a configurable retry cap is exceeded.
Duplicates created by lost acks are suppressed at the receiver by
``(src, seq)``, in state bounded by the out-of-order window;
retransmissions and acks travel through the same VCI-contended fabric
as first transmissions, so loss costs simulated time rather than
correctness.  Under loss, retransmitted messages may
arrive after later first-try messages — the non-overtaking guarantee is
relaxed to what an unordered reliable datagram transport provides, which
every consumer in this codebase tolerates (matching is tag-isolated).
Acks model NIC-level delivery receipts: a crashed node's queue still
acks (the origin detects death through the §3.1 failure machinery, not
through transport timeouts).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any

from repro.analysis.hooks import NULL_ANALYSIS
from repro.cluster.machine import Cluster
from repro.mpi.datatypes import Message
from repro.mpi.errors import MpiError
from repro.mpi.matchtable import MatchStore
from repro.mpi.request import Request
from repro.sim.primitives import AnyOf
from repro.util.units import MICROSECOND

#: Receive-source wildcard (``MPI_ANY_SOURCE``).
ANY_SOURCE = -1
#: Receive-tag wildcard (``MPI_ANY_TAG``).
ANY_TAG = -1


@dataclass(frozen=True)
class TransportConfig:
    """Parameters of the reliable (ack + retransmit) transport.

    ``rto`` is the *base* retransmission timeout added on top of an
    estimate of the message's own uncontended round trip (so bulk
    messages do not spuriously retransmit merely because they serialize
    longer than small ones); each retry multiplies the base by
    ``backoff``.  Exceeding ``max_retries`` raises :class:`MpiError` —
    the fabric is considered broken, not merely lossy.
    """

    ack_bytes: float = 16.0
    rto: float = 100.0 * MICROSECOND
    backoff: float = 2.0
    max_retries: int = 16

    def __post_init__(self) -> None:
        if self.ack_bytes < 0:
            raise ValueError("ack_bytes must be >= 0")
        if self.rto <= 0:
            raise ValueError("rto must be > 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


class MpiWorld:
    """All MPI state for one cluster: ranks, queues, communicators.

    ``overhead`` is the per-message software cost (matching, packing,
    progress-engine work) charged on the sending side; 0.5 µs is in line
    with measured MPICH/UCX small-message overheads.  ``transport``
    enables the reliable ack/retransmit protocol on every communicator
    that does not opt out (see :meth:`new_communicator`).
    """

    def __init__(
        self,
        cluster: Cluster,
        overhead: float = 0.5 * MICROSECOND,
        transport: TransportConfig | None = None,
    ):
        if overhead < 0:
            raise ValueError("overhead must be >= 0")
        self.cluster = cluster
        self.sim = cluster.sim
        self.overhead = overhead
        self.transport = transport
        #: Observability sink, captured from the cluster at construction
        #: (install an observer via ``Cluster.install_observer`` first).
        self.obs = cluster.obs
        #: Correctness-analysis sink, captured likewise (install via
        #: ``Cluster.install_analysis`` before constructing the world).
        self.analysis = getattr(cluster, "analysis", NULL_ANALYSIS)
        #: Transport-level counters (drops seen, retransmissions, acks,
        #: duplicate deliveries suppressed).
        self.stats: dict[str, int] = {
            "drops": 0, "retransmissions": 0, "acks": 0, "duplicates": 0,
        }
        self._next_comm_id = 0
        # Matching queues are per (rank, comm); one MatchStore per pair,
        # lazily created, so traffic on one communicator never scans
        # another's.
        self._queues: dict[tuple[int, int], MatchStore] = {}
        self.world = self.new_communicator()

    @property
    def size(self) -> int:
        return self.cluster.num_nodes

    def new_communicator(
        self, reliable: bool | None = None, service: bool = False,
    ) -> "Communicator":
        """Create a communicator.

        ``reliable=False`` opts this communicator out of the world's
        reliable transport even when one is configured — datagram
        semantics for traffic whose loss is handled at the protocol
        level (heartbeats).  ``None`` inherits the world default.

        ``service=True`` marks infrastructure traffic (heartbeats,
        pings, head-log replication): the MPI checker skips it entirely
        — persistent service loops legitimately hold pending receives
        at shutdown, and datagrams are lost by design, so auditing them
        would only produce noise.
        """
        transport = self.transport if reliable is not False else None
        comm = Communicator(self, self._next_comm_id, transport, service)
        self.analysis.mpi.register_comm(comm.comm_id, service)
        self._next_comm_id += 1
        return comm

    def _queue(self, rank: int, comm_id: int) -> MatchStore:
        key = (rank, comm_id)
        store = self._queues.get(key)
        if store is None:
            store = self._queues[key] = MatchStore(
                self.sim, name=f"mpi.q{rank}.c{comm_id}")
        return store

    def _dropped(self, src: int, dst: int) -> bool:
        """Consult the installed fault plan for one drop decision."""
        faults = self.cluster.network.faults
        if faults is None or src == dst:
            return False
        if faults.drops(src, dst):
            self.stats["drops"] += 1
            return True
        return False


class Communicator:
    """An isolated message-matching context (like ``MPI_Comm``)."""

    def __init__(
        self,
        mpi: MpiWorld,
        comm_id: int,
        transport: TransportConfig | None = None,
        service: bool = False,
    ):
        self.mpi = mpi
        self.comm_id = comm_id
        self.transport = transport
        self.service = service
        self._send_seq: dict[int, int] = defaultdict(int)
        #: Reliable-mode dedup per source: every seq below the mark is
        #: done (delivered, or its send gave up), plus the done seqs
        #: above it.  State is bounded by the out-of-order window.
        self._done_below: dict[int, int] = {}
        self._done_above: dict[int, set[int]] = {}
        #: Pending ack events keyed by (src, dst, seq).
        self._ack_waiters: dict[tuple[int, int, int], Any] = {}

    @property
    def size(self) -> int:
        return self.mpi.size

    def rank(self, rank_id: int) -> "Rank":
        """Bind a rank identity for issuing operations."""
        self._check_rank(rank_id)
        return Rank(self, rank_id)

    def dup(self) -> "Communicator":
        """Duplicate: a new communicator over the same group."""
        return self.mpi.new_communicator(
            reliable=self.transport is not None if self.mpi.transport else None,
            service=self.service,
        )

    def _check_rank(self, rank_id: int) -> None:
        if not 0 <= rank_id < self.size:
            raise MpiError(f"rank {rank_id} out of range [0, {self.size})")

    # -- internals shared by Rank --------------------------------------------
    def _isend(self, src: int, dst: int, payload: Any, nbytes: float, tag: int) -> Request:
        self._check_rank(src)
        self._check_rank(dst)
        if tag < 0:
            raise MpiError(f"send tag must be >= 0, got {tag}")
        seq = self._send_seq[src]
        self._send_seq[src] = seq + 1
        msg = Message(self.comm_id, src, dst, tag, payload, nbytes, seq)
        if self.transport is not None and src != dst:
            gen = self._deliver_reliable(msg)
        else:
            if self.transport is not None:
                self._mark_done(src, seq)  # self-sends skip the transport
            gen = self._deliver(msg)
        proc = self.mpi.sim.process(gen, name=f"isend:{src}->{dst}:t{tag}")
        request = Request(proc, "send")
        if self.mpi.analysis.enabled and not self.service:
            self.mpi.analysis.mpi.on_isend(
                request, self.comm_id, src, dst, tag
            )
        return request

    def _deliver(self, msg: Message):
        sim = self.mpi.sim
        obs = self.mpi.obs
        # One ``enabled`` check instead of four no-op dispatches (and
        # their f-string arguments) per message — this generator runs
        # once per point-to-point send, the hottest MPI path there is.
        enabled = obs.enabled
        if enabled:
            open_span = obs.begin(
                "mpi", f"send t{msg.tag}", msg.src,
                dst=msg.dst, nbytes=msg.nbytes, seq=msg.seq,
            )
        if self.mpi.overhead:
            yield sim.timeout(self.mpi.overhead)
        yield from self.mpi.cluster.network.transfer(msg.src, msg.dst, msg.nbytes)
        if self.mpi._dropped(msg.src, msg.dst):
            if enabled:
                obs.end(open_span, dropped=True)
            return  # lost in the fabric; fire-and-forget senders never know
        if enabled:
            flow = obs.new_flow()
            obs.end(open_span, flow_id=flow, flow_phase="s")
        yield self.mpi._queue(msg.dst, self.comm_id).put(msg)
        if enabled:
            obs.instant(
                "mpi", f"recv t{msg.tag}", msg.dst,
                flow_id=flow, flow_phase="f", src=msg.src,
            )

    # -- reliable transport ---------------------------------------------------
    def _deliver_reliable(self, msg: Message):
        """Generator: send with ack + exponential-backoff retransmission.

        Local completion (the isend Request) means *acked*, not merely
        serialized — the eager-protocol guarantee a lossy fabric can
        actually keep.
        """
        sim = self.mpi.sim
        obs = self.mpi.obs
        enabled = obs.enabled
        tc = self.transport
        net = self.mpi.cluster.network
        key = (msg.src, msg.dst, msg.seq)
        ack = sim.event(f"mpi-ack:{key}")
        self._ack_waiters[key] = ack
        # The wait window covers the ack's own uncontended round trip.
        rto = tc.rto + 2 * net.transfer_time(msg.dst, msg.src, tc.ack_bytes)
        flow: int | None = None
        accepted_once = False
        try:
            for attempt in range(tc.max_retries + 1):
                if attempt:
                    self.mpi.stats["retransmissions"] += 1
                if enabled:
                    open_span = obs.begin(
                        "mpi", f"send t{msg.tag}", msg.src,
                        dst=msg.dst, nbytes=msg.nbytes, seq=msg.seq,
                        attempt=attempt,
                    )
                if self.mpi.overhead:
                    yield sim.timeout(self.mpi.overhead)
                yield from net.transfer(msg.src, msg.dst, msg.nbytes)
                if not self.mpi._dropped(msg.src, msg.dst):
                    # Only the first accepted transmission carries the
                    # flow arrow; duplicates are suppressed downstream.
                    fresh = not accepted_once
                    accepted_once = True
                    if fresh and enabled:
                        flow = obs.new_flow()
                    self._transport_accept(msg, flow if fresh else None)
                    if enabled:
                        obs.end(
                            open_span,
                            flow_id=flow if fresh else None,
                            flow_phase="s" if fresh else None,
                        )
                elif enabled:
                    obs.end(open_span, dropped=True)
                if ack.triggered:
                    return
                yield AnyOf(sim, [ack, sim.timeout(rto)])
                if ack.triggered:
                    return
                rto *= tc.backoff
            raise MpiError(
                f"reliable send {msg.src}->{msg.dst} seq={msg.seq} "
                f"tag={msg.tag} unacked after {tc.max_retries} retries"
            )
        finally:
            self._ack_waiters.pop(key, None)
            if not accepted_once:
                self._mark_done(msg.src, msg.seq)  # never arrives now

    def _mark_done(self, src: int, seq: int) -> bool:
        """Record ``seq`` from ``src`` as done; False if it already was."""
        low = self._done_below.get(src, 0)
        above = self._done_above.setdefault(src, set())
        if seq < low or seq in above:
            return False
        above.add(seq)
        while low in above:
            above.remove(low)
            low += 1
        self._done_below[src] = low
        return True

    def _transport_accept(self, msg: Message, flow_id: int | None = None) -> None:
        """Receiver-side transport: dedup, enqueue, and schedule the ack."""
        obs = self.mpi.obs
        enabled = obs.enabled
        if not self._mark_done(msg.src, msg.seq):
            self.mpi.stats["duplicates"] += 1
            if enabled:
                obs.instant("mpi", f"dup t{msg.tag}", msg.dst, src=msg.src)
        else:
            self.mpi._queue(msg.dst, self.comm_id).put(msg)
            if enabled:
                obs.instant(
                    "mpi", f"recv t{msg.tag}", msg.dst,
                    flow_id=flow_id,
                    flow_phase="f" if flow_id is not None else None,
                    src=msg.src,
                )
        self.mpi.sim.process(
            self._send_ack(msg), name=f"mpi-ack:{msg.dst}->{msg.src}"
        )

    def _send_ack(self, msg: Message):
        sim = self.mpi.sim
        tc = self.transport
        obs = self.mpi.obs
        enabled = obs.enabled
        if enabled:
            open_span = obs.begin(
                "mpi", f"ack t{msg.tag}", msg.dst, dst=msg.src, seq=msg.seq
            )
        if self.mpi.overhead:
            yield sim.timeout(self.mpi.overhead)
        yield from self.mpi.cluster.network.transfer(
            msg.dst, msg.src, tc.ack_bytes
        )
        self.mpi.stats["acks"] += 1
        dropped = self.mpi._dropped(msg.dst, msg.src)
        if enabled:
            obs.end(open_span, dropped=dropped)
        if dropped:
            return  # the ack itself was lost; the sender will retransmit
        ack = self._ack_waiters.get((msg.src, msg.dst, msg.seq))
        if ack is not None and not ack.triggered:
            ack.succeed()

    def _irecv(self, dst: int, src: int, tag: int) -> Request:
        self._check_rank(dst)
        if src != ANY_SOURCE:
            self._check_rank(src)
        if tag < 0 and tag != ANY_TAG:
            raise MpiError(f"recv tag must be >= 0 or ANY_TAG, got {tag}")

        store = self.mpi._queue(dst, self.comm_id)
        get = store.get_match(src, tag)
        request = Request(get, "recv", canceller=lambda: store.cancel(get))
        if self.mpi.analysis.enabled and not self.service:
            self.mpi.analysis.mpi.on_irecv(
                request, self.comm_id, dst, src, tag
            )
        return request


class Rank:
    """A rank identity bound to one communicator.

    All methods that move data are generators (``yield from``) or return
    :class:`Request` handles; they must be driven from inside a sim
    process running "on" the corresponding node.
    """

    def __init__(self, comm: Communicator, rank_id: int):
        self.comm = comm
        self.rank_id = rank_id

    @property
    def size(self) -> int:
        return self.comm.size

    def on(self, comm: Communicator) -> "Rank":
        """This same rank identity on a different communicator."""
        return comm.rank(self.rank_id)

    # -- nonblocking -------------------------------------------------------
    def isend(self, dst: int, payload: Any, nbytes: float = 0.0, tag: int = 0) -> Request:
        return self.comm._isend(self.rank_id, dst, payload, nbytes, tag)

    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        return self.comm._irecv(self.rank_id, src, tag)

    # -- blocking (generators) ------------------------------------------------
    def send(self, dst: int, payload: Any, nbytes: float = 0.0, tag: int = 0):
        """Generator: send and wait for local completion."""
        req = self.isend(dst, payload, nbytes, tag)
        yield from req.wait()

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Generator: receive the next matching message (returns it)."""
        req = self.irecv(src, tag)
        msg = yield from req.wait()
        return msg
