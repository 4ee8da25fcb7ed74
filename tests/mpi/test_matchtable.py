"""MatchStore: slotted MPI matching equivalent to the linear-scan Store,
in state bounded by live traffic."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import count

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.mpi import ANY_SOURCE, ANY_TAG, MpiWorld
from repro.mpi.matchtable import MatchStore
from repro.sim.core import Simulator
from repro.sim.resources import Store

_ids = count()


@dataclass
class Msg:
    src: int
    tag: int
    uid: int = field(default_factory=lambda: next(_ids))


def _pred(src: int, tag: int):
    return lambda m: ((src == ANY_SOURCE or m.src == src)
                      and (tag == ANY_TAG or m.tag == tag))


class TestMatching:
    def test_exact_match_is_fifo_per_src_tag(self):
        store = MatchStore(Simulator())
        m1, m2 = Msg(0, 1), Msg(0, 1)
        store.put(m1)
        store.put(m2)
        assert store.get_match(0, 1).value is m1
        assert store.get_match(0, 1).value is m2
        assert len(store) == 0

    def test_any_source_picks_earliest_arrival_across_slots(self):
        store = MatchStore(Simulator())
        first, second = Msg(3, 7), Msg(1, 7)
        store.put(first)
        store.put(second)
        store.put(Msg(2, 8))  # different tag; must not match
        assert store.get_match(ANY_SOURCE, 7).value is first
        assert store.get_match(ANY_SOURCE, 7).value is second

    def test_any_tag_picks_earliest_arrival_for_source(self):
        store = MatchStore(Simulator())
        first, second = Msg(2, 9), Msg(2, 4)
        store.put(Msg(0, 9))  # different src; must not match
        store.put(first)
        store.put(second)
        assert store.get_match(2, ANY_TAG).value is first
        assert store.get_match(2, ANY_TAG).value is second

    def test_fully_wild_receive_sees_global_arrival_order(self):
        store = MatchStore(Simulator())
        msgs = [Msg(2, 9), Msg(0, 1), Msg(5, 5)]
        for m in msgs:
            store.put(m)
        got = [store.get_match(ANY_SOURCE, ANY_TAG).value for _ in msgs]
        assert got == msgs

    def test_put_prefers_earliest_posted_receive(self):
        # A wildcard posted before an exact receive must win the message
        # (the reference dispatch scans getters in FIFO order).
        store = MatchStore(Simulator())
        wild = store.get_match(ANY_SOURCE, ANY_TAG)
        exact = store.get_match(0, 5)
        msg = Msg(0, 5)
        store.put(msg)
        assert wild.value is msg
        assert not exact.triggered
        late = Msg(0, 5)
        store.put(late)
        assert exact.value is late

    def test_unmatched_receive_waits_for_put(self):
        store = MatchStore(Simulator())
        recv = store.get_match(1, 2)
        assert not recv.triggered
        msg = Msg(1, 2)
        store.put(msg)
        assert recv.value is msg

    def test_predicate_get_is_disabled(self):
        # Receives go through get_match; there is no predicate get()
        # that would reintroduce the linear scan.
        store = MatchStore(Simulator())
        with pytest.raises(AttributeError):
            store.get(lambda m: True)

    def test_items_and_peek_in_arrival_order(self):
        store = MatchStore(Simulator())
        msgs = [Msg(1, 1), Msg(0, 0), Msg(1, 1)]
        for m in msgs:
            store.put(m)
        assert list(store.items) == msgs
        assert len(store) == 3
        assert store.peek() is msgs[0]
        assert store.peek(lambda m: m.src == 0) is msgs[1]
        assert store.peek(lambda m: m.src == 9) is None


class TestTagFifo:
    """The ANY_SOURCE-by-tag per-tag arrival FIFO (the mass fan-in
    fast path) must survive other patterns consuming its entries."""

    def test_stale_head_discarded_after_exact_receive(self):
        store = MatchStore(Simulator())
        first, second = Msg(1, 7), Msg(2, 7)
        store.put(first)
        store.put(second)
        # An exact receive consumes the FIFO's head out from under it.
        assert store.get_match(1, 7).value is first
        assert store.get_match(ANY_SOURCE, 7).value is second

    def test_stale_entries_from_fully_wild_receive(self):
        store = MatchStore(Simulator())
        msgs = [Msg(0, 5), Msg(1, 5), Msg(2, 5)]
        for m in msgs:
            store.put(m)
        assert store.get_match(ANY_SOURCE, ANY_TAG).value is msgs[0]
        assert store.get_match(ANY_SOURCE, 5).value is msgs[1]
        assert store.get_match(ANY_SOURCE, 5).value is msgs[2]

    def test_fifo_drained_and_rebuilt(self):
        store = MatchStore(Simulator())
        store.put(Msg(4, 9))
        assert store.get_match(ANY_SOURCE, 9).value.src == 4
        assert 9 not in store._tag_fifo  # drained FIFOs are deleted
        late = Msg(5, 9)
        store.put(late)
        assert store.get_match(ANY_SOURCE, 9).value is late

    def test_mass_fan_in_drains_in_arrival_order(self):
        store = MatchStore(Simulator())
        msgs = [Msg(src, 2) for src in range(64)]
        for m in msgs:
            store.put(m)
        got = [store.get_match(ANY_SOURCE, 2).value for _ in msgs]
        assert got == msgs
        assert len(store) == 0


class TestCancel:
    def test_cancel_withdraws_pending_receive(self):
        store = MatchStore(Simulator())
        recv = store.get_match(0, 0)
        assert store.cancel(recv) is True
        assert store.cancel(recv) is False  # already withdrawn
        msg = Msg(0, 0)
        store.put(msg)
        assert not recv.triggered  # cancelled: the message buffers
        assert store.get_match(0, 0).value is msg

    def test_cancelled_head_does_not_block_later_receives(self):
        store = MatchStore(Simulator())
        dead = store.get_match(ANY_SOURCE, 3)
        live = store.get_match(ANY_SOURCE, 3)
        store.cancel(dead)
        msg = Msg(7, 3)
        store.put(msg)
        assert live.value is msg

    def test_cancel_matched_receive_is_a_noop(self):
        store = MatchStore(Simulator())
        store.put(Msg(0, 0))
        recv = store.get_match(0, 0)
        assert recv.triggered
        assert store.cancel(recv) is False


class TestBoundedState:
    """Match state follows live traffic: drained buckets, slots and
    FIFOs are deleted, and cancelled receives leave their buckets."""

    @staticmethod
    def assert_drained(store):
        assert store._slots == {}
        assert store._tag_fifo == {}
        assert store._waiting == {}  # exact, by-tag, by-src, wild buckets
        assert store._pending == {}
        assert len(store) == 0

    def test_unique_tag_exchanges_and_cancels_leave_nothing(self):
        store = MatchStore(Simulator())
        for tag in range(200):
            src = tag % 5
            # Receive first (pending bucket), then message first
            # (slot + tag FIFO), through each pattern in turn.
            patterns = [(src, tag), (ANY_SOURCE, tag), (src, ANY_TAG),
                        (ANY_SOURCE, ANY_TAG)]
            pattern = patterns[tag % 4]
            recv = store.get_match(*pattern)
            msg = Msg(src, tag)
            store.put(msg)
            assert recv.value is msg
            late = Msg(src, tag)
            store.put(late)
            assert store.get_match(*pattern).value is late
            # A receive that never matches, withdrawn.
            assert store.cancel(store.get_match(*pattern))
        self.assert_drained(store)

    def test_cancelled_entries_behind_a_live_head_are_swept(self):
        store = MatchStore(Simulator())
        live = store.get_match(0, 1)
        dead = [store.get_match(0, 1) for _ in range(3)]
        for ev in dead:
            assert store.cancel(ev)
        assert len(store._waiting[(0, 1)]) == 4  # live head shields them
        store.put(Msg(0, 1))
        assert live.triggered
        self.assert_drained(store)

    def test_consumed_fifo_entries_are_swept(self):
        # Exact receives consume what the ANY_SOURCE-by-tag FIFO
        # recorded; the FIFO must not outlive its messages.
        store = MatchStore(Simulator())
        for src in range(4):
            store.put(Msg(src, 9))
        for src in (1, 3, 2, 0):
            assert store.get_match(src, 9).value.src == src
        self.assert_drained(store)


class TestReferenceEquivalence:
    """Randomized puts/receives/cancels replayed against the reference
    Store with predicate getters: same deliveries in the same order."""

    def _run(self, seed: int):
        rng = random.Random(seed)
        ops = []
        for _ in range(300):
            roll = rng.random()
            if roll < 0.45:
                ops.append(("put", rng.randrange(3), rng.randrange(3)))
            elif roll < 0.9:
                ops.append((
                    "get",
                    rng.choice([ANY_SOURCE, 0, 1, 2]),
                    rng.choice([ANY_TAG, 0, 1, 2]),
                ))
            else:
                ops.append(("cancel", rng.randrange(8), 0))

        def replay(store, post_get):
            gets, cancels = [], []
            for op, a, b in ops:
                if op == "put":
                    store.put(Msg(a, b))
                elif op == "get":
                    gets.append(post_get(store, a, b))
                elif gets:
                    ev = gets[a % len(gets)]
                    cancels.append(store.cancel(ev))
            outcome = [
                (ev.value.src, ev.value.tag) if ev.triggered else None
                for ev in gets
            ]
            return outcome, cancels, [(m.src, m.tag) for m in store.items]

        store = MatchStore(Simulator())
        fast = replay(store, lambda s, src, tag: s.get_match(src, tag))
        # No drained container survives, and every head is live.
        assert all(b and b[0][1] in store._pending
                   for b in store._waiting.values())
        assert all(store._slots.values())
        for fifo in store._tag_fifo.values():
            arr, key = fifo[0]
            assert store._slots[key][0][0] == arr
        ref = replay(
            Store(Simulator()),
            lambda s, src, tag: s.get(_pred(src, tag)),
        )
        assert fast == ref

    @pytest.mark.parametrize("seed", range(10))
    def test_random_op_sequences(self, seed):
        self._run(seed)


class TestIsendGuards:
    def _world(self):
        cluster = Cluster(ClusterSpec(num_nodes=2))
        return cluster, MpiWorld(cluster, overhead=0.0)

    @pytest.mark.parametrize(
        "nbytes", [float("nan"), float("inf"), -float("inf"), -1.0]
    )
    def test_isend_rejects_non_finite_nbytes(self, nbytes):
        _cluster, mpi = self._world()
        with pytest.raises(ValueError):
            mpi.world.rank(0).isend(1, None, nbytes=nbytes)

    def test_isend_world_uses_match_store(self):
        # The fast kernel's wiring: world queues are MatchStores, so
        # receives go through the slotted path, not predicate scans.
        cluster, mpi = self._world()
        sim = cluster.sim

        def sender():
            yield from mpi.world.rank(0).send(1, "payload", nbytes=10, tag=3)

        def receiver():
            msg = yield from mpi.world.rank(1).recv(src=0, tag=3)
            return msg.payload

        sim.process(sender())
        recv = sim.process(receiver())
        assert sim.run(until=recv) == "payload"
        assert type(mpi._queue(1, mpi.world.comm_id)) is MatchStore
