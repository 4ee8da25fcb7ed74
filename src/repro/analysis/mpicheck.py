"""MPI correctness checking (MUST-style), at finalize.

The checker observes every nonblocking operation on non-service
communicators (:meth:`on_isend` / :meth:`on_irecv`, called from
``Communicator``) and every ``wait``/``test``/``cancel`` on the
resulting :class:`~repro.mpi.request.Request` handles.  At finalize it
reports:

* **unmatched-send** — a delivered message still sitting in a matching
  queue (no receive ever consumed it);
* **unmatched-recv** — a posted receive that never matched (and was
  never cancelled);
* **leaked-request** — a completed request whose owner never waited,
  tested, or cancelled it (like ``MPI_Request_free`` misuse);
* **deadlock-cycle** — blocked ``wait`` s on receives forming a cycle
  in the wait-for graph (rank A waits on B while B waits on A).

Infrastructure traffic opts out with ``new_communicator(service=True)``
(heartbeats, pings, head-log replication): persistent service loops
legitimately hold a pending receive at shutdown, and fire-and-forget
datagrams are lost by design.  Traffic to or from failed nodes is
likewise excluded — a crash strands messages by definition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.findings import Finding, Severity

#: Mirrors :data:`repro.mpi.comm.ANY_SOURCE` (importing it would cycle).
_ANY_SOURCE = -1


@dataclass
class _Record:
    """Lifecycle of one tracked request."""

    kind: str  # "send" | "recv"
    comm_id: int
    owner: int  # the rank that posted the operation
    peer: int  # dst for sends, src for recvs (may be ANY_SOURCE)
    tag: int
    waited: bool = False
    tested: bool = False
    completed: bool = False


@dataclass
class MpiCheckStats:
    tracked_requests: int = 0
    service_comms: int = 0


class MpiChecker:
    """Request/message auditing across all communicators of a run."""

    def __init__(self):
        self._service: set[int] = set()
        self._records: list[tuple[object, _Record]] = []
        self._by_request: dict[int, _Record] = {}
        self.stats = MpiCheckStats()
        self.findings: list[Finding] = []

    # -- registration (called from repro.mpi) ------------------------------
    def register_comm(self, comm_id: int, service: bool) -> None:
        if service:
            self._service.add(comm_id)
            self.stats.service_comms += 1

    def is_service(self, comm_id: int) -> bool:
        return comm_id in self._service

    def _track(self, request, record: _Record) -> None:
        request.observer = self
        self._records.append((request, record))
        self._by_request[id(request)] = record
        self.stats.tracked_requests += 1

    def on_isend(self, request, comm_id: int, src: int, dst: int,
                 tag: int) -> None:
        self._track(request, _Record("send", comm_id, src, dst, tag))

    def on_irecv(self, request, comm_id: int, dst: int, src: int,
                 tag: int) -> None:
        self._track(request, _Record("recv", comm_id, dst, src, tag))

    # -- Request lifecycle hooks ------------------------------------------
    def on_wait(self, request) -> None:
        rec = self._by_request.get(id(request))
        if rec is not None:
            rec.waited = True

    def on_complete(self, request) -> None:
        rec = self._by_request.get(id(request))
        if rec is not None:
            rec.completed = True

    def on_test(self, request) -> None:
        rec = self._by_request.get(id(request))
        if rec is not None:
            rec.tested = True

    def on_cancel(self, request) -> None:
        """A successful cancel deregisters the request entirely — a
        cancelled receive is *not* a leak (the satellite fix)."""
        rec = self._by_request.pop(id(request), None)
        if rec is not None:
            self._records = [
                (req, r) for req, r in self._records if r is not rec
            ]

    # -- finalize ----------------------------------------------------------
    def finalize(self, worlds=(), failed=frozenset()) -> list[Finding]:
        failed = set(failed)

        def involves_failed(*nodes: int) -> bool:
            return any(n in failed for n in nodes)

        # Leftover queued messages: delivered but never received.
        unmatched_sends: dict[tuple[int, int, int], int] = {}
        for world in worlds:
            for (rank_id, comm_id), store in world._queues.items():
                if comm_id in self._service or rank_id in failed:
                    continue
                for msg in store.items:
                    if involves_failed(msg.src, msg.dst):
                        continue
                    key = (msg.src, msg.dst, msg.tag)
                    unmatched_sends[key] = unmatched_sends.get(key, 0) + 1
        for (src, dst, tag), count in sorted(unmatched_sends.items()):
            times = f" ({count}×)" if count > 1 else ""
            self.findings.append(Finding(
                rule="unmatched-send",
                severity=Severity.WARNING,
                message=(
                    f"message {src}→{dst} tag={tag} was delivered but "
                    f"never received{times}"
                ),
                analyzer="mpi",
            ))

        # Request audit.
        blocked: list[_Record] = []
        leaks: dict[tuple[str, int, int, int], int] = {}
        pending_recvs: dict[tuple[int, int, int], int] = {}
        for request, rec in self._records:
            if involves_failed(rec.owner, rec.peer):
                continue
            completed = rec.completed or request.event.triggered
            consumed = rec.waited or rec.tested
            if completed and not consumed:
                key = (rec.kind, rec.owner, rec.peer, rec.tag)
                leaks[key] = leaks.get(key, 0) + 1
            elif not completed and rec.kind == "recv":
                key = (rec.owner, rec.peer, rec.tag)
                pending_recvs[key] = pending_recvs.get(key, 0) + 1
                if rec.waited:
                    blocked.append(rec)
        for (kind, owner, peer, tag), count in sorted(leaks.items()):
            times = f" ({count}×)" if count > 1 else ""
            self.findings.append(Finding(
                rule="leaked-request",
                severity=Severity.WARNING,
                message=(
                    f"nonblocking {kind} on rank {owner} (peer {peer}, "
                    f"tag={tag}) completed but was never waited, tested, "
                    f"or cancelled{times}"
                ),
                analyzer="mpi",
            ))
        for (owner, peer, tag), count in sorted(pending_recvs.items()):
            src = "ANY_SOURCE" if peer == _ANY_SOURCE else str(peer)
            times = f" ({count}×)" if count > 1 else ""
            self.findings.append(Finding(
                rule="unmatched-recv",
                severity=Severity.WARNING,
                message=(
                    f"receive posted on rank {owner} (src {src}, "
                    f"tag={tag}) never matched a message and was never "
                    f"cancelled{times}"
                ),
                analyzer="mpi",
            ))

        # Wait-for graph over blocked waits: rank → the rank it needs a
        # message from.  A cycle means nobody can ever progress.
        wait_for = {
            (rec.owner, rec.peer) for rec in blocked
            if rec.peer != _ANY_SOURCE
        }
        for cycle in _simple_cycles(wait_for):
            ranks = " → ".join(str(r) for r in cycle + [cycle[0]])
            self.findings.append(Finding(
                rule="deadlock-cycle",
                severity=Severity.ERROR,
                message=(
                    f"blocking receives form a wait-for cycle: {ranks}"
                ),
                analyzer="mpi",
            ))
        return self.findings


def _simple_cycles(edges: set[tuple[int, int]]) -> list[list[int]]:
    """Every simple cycle, sorted, each starting at its smallest node:
    a depth-first search from each node through larger nodes only."""
    succ: dict[int, list[int]] = {}
    for u, v in sorted(edges):
        succ.setdefault(u, []).append(v)
    cycles: list[list[int]] = []
    for start in succ:
        path = [start]
        stack = [iter(succ[start])]
        while stack:
            for nxt in stack[-1]:
                if nxt == start:
                    cycles.append(list(path))
                elif nxt > start and nxt in succ and nxt not in path:
                    path.append(nxt)
                    stack.append(iter(succ[nxt]))
                    break
            else:
                stack.pop()
                path.pop()
    return sorted(cycles)
