"""The Data Management module (§4.3).

Lives at the agnostic layer and keeps one coherent view of where every
mapped buffer resides across the cluster.  Location ``HOST`` (node 0)
is the head node; workers are nodes 1..N.  After a head failover the
directory is *rehomed* at the elected standby (:meth:`DataManager.rehome`)
and the host image follows it.

Coherency rules (verbatim from the paper):

* **Enter data** — after scheduling, each buffer is sent to the first
  node that will use it.
* **Exit data** — the buffer is retrieved from any of its previous
  locations to the head node and, if no longer used, removed from the
  entire cluster.
* **Target regions** — a buffer not present on the executing node is
  forwarded (copied) from its most recent location.  After execution,
  an ``inout``/``out`` dependency leaves the buffer *only* on the
  executing node (all other copies removed); a read-only buffer stays
  replicated for future reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.omp.task import Buffer, Task

#: Node id of the host (head node) in location maps.
HOST = 0


@dataclass(frozen=True)
class Move:
    """One planned copy: ``src → dst`` of a buffer."""

    buffer: Buffer
    src: int
    dst: int

    @property
    def from_host(self) -> bool:
        return self.src == HOST

    @property
    def to_host(self) -> bool:
        return self.dst == HOST


@dataclass
class _BufferState:
    """Where valid copies of one buffer live."""

    buffer: Buffer
    locations: set[int] = field(default_factory=lambda: {HOST})
    latest: int = HOST


class DataManager:
    """Head-side tracking of buffer locations and transfer planning.

    The manager only *plans* moves; the runtime performs them through
    the device plugin and then calls the ``commit_*`` methods.  Keeping
    planning pure makes the coherency logic directly unit-testable.
    """

    def __init__(self, home: int = HOST, analysis=None):
        self._state: dict[int, _BufferState] = {}
        #: The node hosting the program's "host" buffer image.  Node 0
        #: until a head failover rehomes the directory at the elected
        #: standby (host payloads travel by reference, so the new head
        #: serves the same objects).
        self.home = home
        #: Correctness-analysis sink (see :mod:`repro.analysis`): fed
        #: mapping events and read-before-map checks; ``None`` disables.
        self.analysis = analysis
        #: Tiered-store director (:mod:`repro.core.tiering`); ``None``
        #: keeps the hard-overflow behavior.  Installed via
        #: :meth:`configure_tiering` by runtimes with
        #: ``eviction_policy != "none"``.
        self.tiering = None

    # -- tiered store (repro.core.tiering) ---------------------------------
    def configure_tiering(
        self,
        capacities: dict[int, float],
        policy,
        capacity_fn=None,
        refetch_cost_fn=None,
    ) -> None:
        """Enable the tiered device→host→remote store.

        ``capacities`` maps worker node id → device capacity in bytes;
        ``policy`` is an :class:`repro.core.tiering.EvictionPolicy`.
        """
        from repro.core.tiering import MemoryDirector

        self.tiering = MemoryDirector(
            capacities,
            policy,
            capacity_fn=capacity_fn,
            refetch_cost_fn=refetch_cost_fn,
        )

    def pin(self, buffer_ids) -> None:
        """Protect buffers of an in-flight task frame from eviction."""
        if self.tiering is not None:
            self.tiering.pin(buffer_ids)

    def unpin(self, buffer_ids) -> None:
        if self.tiering is not None:
            self.tiering.unpin(buffer_ids)

    def mem_release(self, buffer: Buffer, node: int) -> None:
        """Account a completed physical DELETE on ``node``."""
        if self.tiering is not None:
            self.tiering.release(node, buffer.buffer_id)

    def _is_sole_copy(self, buffer: Buffer, node: int) -> bool:
        """True when ``node`` holds the only valid copy (dirty: eviction
        must spill to the host, not drop)."""
        return self._st(buffer).locations == {node}

    def plan_evictions(
        self, task: Task, node: int, incoming: list[Buffer]
    ):
        """Plan evictions to make room for ``incoming`` on ``node``.

        Delegates to the director (see
        :meth:`repro.core.tiering.MemoryDirector.plan`); charges the
        newcomers on success.  No-op (empty list) without tiering.
        """
        if self.tiering is None or not self.tiering.manages(node):
            return []
        self.tiering.touch(
            node, (d.buffer.buffer_id for d in task.deps)
        )
        return self.tiering.plan(task, node, incoming, self._is_sole_copy)

    def commit_evict(self, buffer: Buffer, node: int) -> None:
        """Update the directory after a buffer was evicted from ``node``.

        For a spill the caller already committed the device→host move,
        so dropping ``node`` leaves the host copy valid; for a clean
        drop another replica survives by construction.  ``latest`` is
        redirected deterministically (home if valid, else the smallest
        surviving holder).
        """
        st = self._st(buffer)
        st.locations.discard(node)
        if not st.locations:
            raise ValueError(
                f"eviction of {buffer.name} from node {node} would drop "
                f"the last valid copy"
            )
        if st.latest == node:
            st.latest = (
                self.home if self.home in st.locations
                else min(st.locations)
            )

    def rehome(self, node: int) -> None:
        """Move the host designation to ``node`` (head failover)."""
        self.home = node

    def _st(self, buffer: Buffer) -> _BufferState:
        st = self._state.get(buffer.buffer_id)
        if st is None:
            st = _BufferState(
                buffer, locations={self.home}, latest=self.home
            )
            self._state[buffer.buffer_id] = st
        return st

    # -- queries -----------------------------------------------------------
    def locations(self, buffer: Buffer) -> set[int]:
        """Nodes currently holding a valid copy."""
        return set(self._st(buffer).locations)

    def latest(self, buffer: Buffer) -> int:
        """The most recent (authoritative) location."""
        return self._st(buffer).latest

    def is_resident(self, buffer: Buffer, node: int) -> bool:
        return node in self._st(buffer).locations

    def host_is_stale(self, buffer: Buffer) -> int | None:
        """If the host image of ``buffer`` is invalid, the node holding
        the authoritative copy; ``None`` when the host copy is current.

        A device-side write invalidates the host replica
        (:meth:`commit_task_done`); until a ``target exit data``
        retrieves the value, a classical task reading the buffer on the
        host sees stale bytes — the race detector's stale-host-read
        diagnostic.
        """
        st = self._st(buffer)
        if self.home in st.locations:
            return None
        return st.latest

    # -- enter data ----------------------------------------------------------
    def plan_enter_data(self, buffer: Buffer, first_user_node: int) -> list[Move]:
        """Send the buffer to the first node that will use it (§4.3)."""
        st = self._st(buffer)
        if first_user_node in st.locations:
            return []
        return [Move(buffer, st.latest, first_user_node)]

    def commit_enter_data(self, buffer: Buffer, node: int) -> None:
        st = self._st(buffer)
        st.locations.add(node)
        st.latest = node
        if self.analysis is not None:
            self.analysis.on_mapped(buffer)

    # -- target regions ----------------------------------------------------
    def plan_for_task(self, task: Task, node: int) -> tuple[list[Move], list[Buffer]]:
        """What must happen before ``task`` may run on ``node``.

        Returns ``(moves, allocs)``: dependence buffers that are *read*
        and not resident are copied from their most recent location;
        buffers the task only *writes* (pure ``out`` dependence) need a
        device allocation but no data transfer — the task overwrites
        them entirely, so copying would move dead bytes.
        """
        moves: list[Move] = []
        allocs: list[Buffer] = []
        planned: set[int] = set()
        for dep in task.deps:
            st = self._st(dep.buffer)
            if self.analysis is not None and task.dep_type_for(
                dep.buffer
            ).reads:
                self.analysis.check_mapped(task, dep.buffer)
            if node in st.locations or dep.buffer.buffer_id in planned:
                continue
            planned.add(dep.buffer.buffer_id)
            if task.dep_type_for(dep.buffer).reads:
                moves.append(Move(dep.buffer, st.latest, node))
            else:
                allocs.append(dep.buffer)
        return moves, allocs

    def commit_alloc(self, buffer: Buffer, node: int) -> None:
        """Record a data-less device allocation (pure ``out`` dependence).

        The node joins the location set so co-resident readers skip
        redundant moves; ``latest`` is untouched — the node holds no
        meaningful bytes until the writer's ``commit_task_done``.
        """
        self._st(buffer).locations.add(node)
        if self.analysis is not None:
            self.analysis.on_mapped(buffer)

    def commit_move(self, move: Move) -> None:
        st = self._st(move.buffer)
        if move.src not in st.locations:
            raise ValueError(
                f"move of {move.buffer.name} from node {move.src}, which "
                f"holds no valid copy (valid: {sorted(st.locations)})"
            )
        st.locations.add(move.dst)

    def commit_task_done(
        self,
        task: Task,
        node: int,
        written_ids: set[int] | None = None,
    ) -> list[tuple[Buffer, int]]:
        """Update coherency after ``task`` ran on ``node``.

        Returns the stale copies to delete: ``(buffer, holder_node)``
        pairs for every invalidated replica of written buffers.  The
        caller issues DELETE events for pairs on worker nodes.

        ``written_ids`` optionally overrides the declared write set with
        the set the device *detected* (§7's page-protection write
        detection); buffers outside it are treated as read-only even if
        declared ``out``/``inout``.
        """
        stale: list[tuple[Buffer, int]] = []
        for dep in task.deps:
            st = self._st(dep.buffer)
            writes = (
                dep.buffer.buffer_id in written_ids
                if written_ids is not None
                else dep.type.writes
            )
            if writes:
                for holder in sorted(st.locations - {node}):
                    stale.append((dep.buffer, holder))
                st.locations = {node}
                st.latest = node
                if self.analysis is not None:
                    self.analysis.on_mapped(dep.buffer)
            else:
                # Read-only: keep all copies for future reuse.
                st.locations.add(node)
        return stale

    def commit_restore(self, buffer: Buffer, node: int | None = None) -> None:
        """Re-materialize a buffer on ``node`` after total copy loss.

        Used by checkpoint recovery: every previous location is gone
        (the failed nodes were already dropped by
        :meth:`on_node_failure`), and the restored bytes become the sole
        authoritative copy.  ``node`` defaults to the current home.
        """
        if node is None:
            node = self.home
        st = self._st(buffer)
        st.locations = {node}
        st.latest = node

    def invalidate(self, buffer: Buffer) -> None:
        """Drop *every* copy of ``buffer`` from the directory.

        Head failover uses this for buffers with an ambiguous in-place
        (INOUT) dispatch in the adopted log — the value may or may not
        carry the mutation, so only a checkpoint restore plus write-log
        replay can reproduce a well-defined state.
        """
        self._st(buffer).locations.clear()

    # -- failures -----------------------------------------------------------
    def on_node_failure(self, node: int) -> list[Buffer]:
        """Drop every copy held by a failed node (§3.1 fault tolerance).

        Returns the buffers whose *only* valid copy was lost — their
        producing tasks must be re-executed (lineage recovery).  For
        buffers with surviving replicas, ``latest`` is redirected to a
        deterministic survivor.
        """
        if node == self.home:
            raise ValueError(
                "cannot drop the home node's copies; rehome the "
                "directory at the elected head first (head failover)"
            )
        if self.tiering is not None:
            self.tiering.forget_node(node)
        lost: list[Buffer] = []
        for state in self._state.values():
            if node not in state.locations:
                continue
            state.locations.discard(node)
            if not state.locations:
                lost.append(state.buffer)
                continue
            if state.latest == node:
                state.latest = min(state.locations)
        return lost

    # -- exit data ----------------------------------------------------------
    def plan_exit_data(self, buffer: Buffer) -> list[Move]:
        """Retrieve the final value to the head node."""
        st = self._st(buffer)
        if self.home in st.locations and st.latest == self.home:
            return []
        return [Move(buffer, st.latest, self.home)]

    def commit_exit_data(self, buffer: Buffer) -> list[tuple[Buffer, int]]:
        """Mark the buffer host-resident; return worker copies to remove.

        "If needed (i.e., the program will not use the data anymore),
        the buffer is removed from the entire cluster."
        """
        st = self._st(buffer)
        removals = [
            (buffer, holder)
            for holder in sorted(st.locations - {self.home})
        ]
        st.locations = {self.home}
        st.latest = self.home
        return removals
