"""Slotted MPI message matching.

MPI matching pairs an arriving message with the *earliest-posted*
pending receive whose ``(src, tag)`` pattern it fits, and a posted
receive with the *earliest-arrived* buffered message it fits.  A
:class:`~repro.sim.resources.Store` with predicate getters does exactly
that with linear scans; :class:`MatchStore` makes both directions O(1)
for the common case:

* buffered messages live in per-``(src, tag)`` slots, stamped with a
  global arrival sequence so wildcard receives compare slot heads; a
  per-tag arrival FIFO serves ``ANY_SOURCE``-by-tag (mass fan-in);
* pending receives live in buckets keyed by their own pattern (``-1``
  wildcards), stamped with a posting sequence, so a delivery compares
  the heads of the at most four buckets it fits;
* ``cancel`` pops cancelled entries off the head of their bucket.

State is bounded by live traffic, not history: every bucket, slot and
FIFO head is live, and a drained bucket, slot or FIFO is deleted (data
transfers use one tag each, so kept empties grow with message count).
``tests/mpi/test_matchtable.py`` replays random operation sequences
against the predicate Store to pin the equivalence.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.core import Event, Simulator

#: Wildcards (mirrors :data:`repro.mpi.comm.ANY_SOURCE` / ``ANY_TAG``
#: without a circular import).
_ANY = -1
_WILD = (_ANY, _ANY)


class MatchStore:
    """One ``(rank, communicator)`` matching queue.

    Messages enter through :meth:`put` and receives are posted through
    :meth:`get_match`; the queue is unbounded, as MPI matching queues
    are.
    """

    __slots__ = ("sim", "name", "_put_name", "_get_name", "_slots",
                 "_tag_fifo", "_arrival", "_waiting", "_posted",
                 "_pending", "_n_items")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name or "store"
        self._put_name = "put:" + self.name
        self._get_name = "get:" + self.name
        #: Buffered messages per (src, tag), as (arrival_seq, msg).
        self._slots: dict[tuple[int, int], deque[tuple[int, Any]]] = {}
        #: Per-tag arrival FIFO of (arrival_seq, slot_key).  An
        #: ``ANY_SOURCE``-by-tag receive takes this FIFO's head instead
        #: of scanning every live ``(src, tag)`` slot: with N sources
        #: fanning in on one tag (the event system's drain pattern) the
        #: slot scan is O(N) per receive — O(N^2) per drain.  Entries
        #: whose message another pattern consumed go stale; they are
        #: swept off the head after every consumption, and within one
        #: slot arrivals strictly increase, so the head is always the
        #: tag's earliest buffered arrival.
        self._tag_fifo: dict[int, deque[tuple[int, tuple[int, int]]]] = {}
        self._arrival = 0
        #: Pending receives per pattern bucket — the receive's own
        #: ``(src, tag)`` with ``-1`` wildcards — as (post_seq, event).
        self._waiting: dict[tuple[int, int], deque[tuple[int, Event]]] = {}
        self._posted = 0
        #: Receives still pending -> their bucket's pattern.  Bucket
        #: entries missing from here were cancelled.
        self._pending: dict[Event, tuple[int, int]] = {}
        self._n_items = 0

    def __len__(self) -> int:
        return self._n_items

    @property
    def items(self) -> tuple:
        """Buffered messages in arrival order (inspection only)."""
        entries = [e for slot in self._slots.values() for e in slot]
        entries.sort(key=lambda e: e[0])
        return tuple(msg for _arr, msg in entries)

    def peek(self, filter=None) -> Any | None:
        for item in self.items:
            if filter is None or filter(item):
                return item
        return None

    # -- matching ----------------------------------------------------------
    def _trim(self, pattern: tuple[int, int]) -> None:
        """Pop cancelled entries off a bucket's head; drop it if empty."""
        bucket = self._waiting[pattern]
        pending = self._pending
        while bucket and bucket[0][1] not in pending:
            bucket.popleft()
        if not bucket:
            del self._waiting[pattern]

    def put(self, item: Any) -> Event:
        ev = self.sim.event(self._put_name)
        ev._value = item  # inlined succeed() on a fresh event
        self.sim._schedule(ev)
        src = item.src
        tag = item.tag
        # Earliest-posted pending receive among the four pattern buckets
        # the message fits (every bucket head is live).
        best = pattern = None
        for key in ((src, tag), (_ANY, tag), (src, _ANY), _WILD):
            cand = self._waiting.get(key)
            if cand is not None and (best is None or cand[0][0] < best[0][0]):
                best, pattern = cand, key
        if best is not None:
            gev = best.popleft()[1]
            del self._pending[gev]
            self._trim(pattern)
            gev._value = item
            self.sim._schedule(gev)
            return ev
        slot = self._slots.get((src, tag))
        if slot is None:
            slot = self._slots[(src, tag)] = deque()
        slot.append((self._arrival, item))
        fifo = self._tag_fifo.get(tag)
        if fifo is None:
            fifo = self._tag_fifo[tag] = deque()
        fifo.append((self._arrival, (src, tag)))
        self._arrival += 1
        self._n_items += 1
        return ev

    def get_match(self, src: int, tag: int) -> Event:
        """Post a receive for ``(src, tag)`` (either may be ``-1``/ANY)."""
        ev = self.sim.event(self._get_name)
        # Earliest-arrival buffered message matching the pattern.
        best_key: tuple[int, int] | None = None
        if src != _ANY and tag != _ANY:
            if (src, tag) in self._slots:
                best_key = (src, tag)
        elif src == _ANY and tag != _ANY:
            fifo = self._tag_fifo.get(tag)
            if fifo is not None:
                best_key = fifo[0][1]
        else:
            # Wildcard: compare the heads of the matching slots.  Slots
            # are deleted when drained, so this scans live traffic
            # classes, not history.
            best_arr = -1
            for key, slot in self._slots.items():
                if src != _ANY and key[0] != src:
                    continue
                if tag != _ANY and key[1] != tag:
                    continue
                arr = slot[0][0]
                if best_key is None or arr < best_arr:
                    best_key = key
                    best_arr = arr
        if best_key is not None:
            slot = self._slots[best_key]
            _arr, item = slot.popleft()
            if not slot:
                del self._slots[best_key]
            self._n_items -= 1
            # Sweep consumed messages off the tag FIFO's head.
            fifo = self._tag_fifo[best_key[1]]
            while fifo:
                arr, key = fifo[0]
                slot = self._slots.get(key)
                if slot is not None and slot[0][0] == arr:
                    break
                fifo.popleft()
            else:
                del self._tag_fifo[best_key[1]]
            ev._value = item  # inlined succeed()
            self.sim._schedule(ev)
            return ev
        pattern = (src, tag)
        bucket = self._waiting.get(pattern)
        if bucket is None:
            bucket = self._waiting[pattern] = deque()
        bucket.append((self._posted, ev))
        self._posted += 1
        self._pending[ev] = pattern
        return ev

    def cancel(self, get_event: Event) -> bool:
        """Withdraw a pending receive; True if it was still pending."""
        pattern = self._pending.pop(get_event, None)
        if pattern is None:
            return False
        self._trim(pattern)
        return True
