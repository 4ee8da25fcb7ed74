"""Tests for the reliable (ack + retransmit) MPI transport under loss."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NetworkSpec
from repro.core.faultmodel import FaultPlan, LinkLoss
from repro.mpi import MpiError, MpiWorld, TransportConfig


def make_world(n=2, plan=None, transport=None, overhead=0.0):
    net = NetworkSpec(latency=1e-6, bandwidth=1e9)
    cluster = Cluster(ClusterSpec(num_nodes=n, network=net))
    if plan is not None:
        plan.install(cluster)
    mpi = MpiWorld(cluster, overhead=overhead, transport=transport)
    return cluster, mpi


class TestTransportConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            TransportConfig(rto=0.0)
        with pytest.raises(ValueError):
            TransportConfig(backoff=0.5)
        with pytest.raises(ValueError):
            TransportConfig(max_retries=-1)
        with pytest.raises(ValueError):
            TransportConfig(ack_bytes=-1.0)


class TestReliableDelivery:
    def test_clean_fabric_one_send_one_ack(self):
        cluster, mpi = make_world(transport=TransportConfig())
        sim = cluster.sim

        def sender():
            yield from mpi.world.rank(0).send(1, "x", nbytes=100, tag=3)

        def receiver():
            msg = yield from mpi.world.rank(1).recv(src=0, tag=3)
            return msg.payload

        sim.process(sender())
        p = sim.process(receiver())
        assert sim.run(until=p) == "x"
        sim.run()  # drain the in-flight ack
        assert mpi.stats["retransmissions"] == 0
        assert mpi.stats["acks"] == 1
        assert mpi.stats["duplicates"] == 0

    def test_lossy_fabric_retransmits_until_delivered(self):
        plan = FaultPlan(seed=5, losses=[LinkLoss(probability=0.5)])
        cluster, mpi = make_world(plan=plan, transport=TransportConfig())
        sim = cluster.sim

        def sender():
            r = mpi.world.rank(0)
            for i in range(32):
                yield from r.send(1, i, nbytes=64, tag=1)

        def receiver():
            r = mpi.world.rank(1)
            got = []
            for _ in range(32):
                msg = yield from r.recv(src=0, tag=1)
                got.append(msg.payload)
            return got

        sim.process(sender())
        p = sim.process(receiver())
        got = sim.run(until=p)
        # Every message arrives exactly once despite the lossy link.
        assert sorted(got) == list(range(32))
        assert mpi.stats["drops"] > 0
        assert mpi.stats["retransmissions"] > 0

    def test_loss_costs_time_not_correctness(self):
        def elapsed(plan):
            cluster, mpi = make_world(plan=plan, transport=TransportConfig())
            sim = cluster.sim

            def sender():
                r = mpi.world.rank(0)
                for i in range(16):
                    yield from r.send(1, i, nbytes=1000)

            def receiver():
                r = mpi.world.rank(1)
                for _ in range(16):
                    yield from r.recv(src=0)
                return sim.now

            sim.process(sender())
            p = sim.process(receiver())
            sim.run(until=p)
            return sim.now

        clean = elapsed(None)
        lossy = elapsed(FaultPlan(seed=9, losses=[LinkLoss(probability=0.4)]))
        assert lossy > clean

    def test_broken_fabric_raises_after_retry_cap(self):
        plan = FaultPlan(losses=[LinkLoss(probability=1.0)])
        cluster, mpi = make_world(
            plan=plan, transport=TransportConfig(max_retries=3)
        )
        sim = cluster.sim

        def sender():
            yield from mpi.world.rank(0).send(1, "x", nbytes=10)

        p = sim.process(sender())
        with pytest.raises(MpiError, match="unacked after 3 retries"):
            sim.run(until=p)
        assert mpi.stats["retransmissions"] == 3

    def test_lost_acks_cause_deduped_duplicates(self):
        # Forward link is clean; every ack (1 -> 0) is eaten, so the
        # sender keeps retransmitting and the receiver must suppress the
        # duplicates, delivering the payload exactly once.
        plan = FaultPlan(losses=[LinkLoss(probability=1.0, src=1, dst=0)])
        cluster, mpi = make_world(
            plan=plan, transport=TransportConfig(max_retries=2)
        )
        sim = cluster.sim

        def sender():
            yield from mpi.world.rank(0).send(1, "x", nbytes=10)

        def receiver():
            got = []
            r = mpi.world.rank(1)
            msg = yield from r.recv(src=0)
            got.append(msg.payload)
            return got

        recv_p = sim.process(receiver())
        send_p = sim.process(sender())
        with pytest.raises(MpiError):
            sim.run(until=send_p)
        assert recv_p.value == ["x"]  # delivered exactly once
        assert mpi.stats["duplicates"] == 2

    def test_self_send_never_dropped(self):
        plan = FaultPlan(losses=[LinkLoss(probability=1.0)])
        cluster, mpi = make_world(plan=plan, transport=TransportConfig())
        sim = cluster.sim

        def roundtrip():
            r = mpi.world.rank(0)
            r.isend(0, "local", nbytes=8, tag=2)
            msg = yield from r.recv(src=0, tag=2)
            return msg.payload

        p = sim.process(roundtrip())
        assert sim.run(until=p) == "local"


class TestDatagramOptOut:
    def test_unreliable_comm_drops_silently(self):
        plan = FaultPlan(losses=[LinkLoss(probability=1.0)])
        cluster, mpi = make_world(plan=plan, transport=TransportConfig())
        datagram = mpi.new_communicator(reliable=False)
        sim = cluster.sim

        def sender():
            yield from datagram.rank(0).send(1, "gone", nbytes=16)

        req = datagram.rank(1).irecv(src=0)
        p = sim.process(sender())
        sim.run(until=p)  # the send completes locally (fire-and-forget)
        sim.run(until=1.0)
        assert not req.test()  # nothing ever arrives
        assert mpi.stats["retransmissions"] == 0
        assert cluster.faults.dropped_messages == 1


class TestRecvCancellation:
    def test_cancelled_recv_never_matches(self):
        cluster, mpi = make_world()
        sim = cluster.sim
        stale = mpi.world.rank(1).irecv(src=0, tag=7)
        assert stale.cancel()
        assert stale.cancelled

        def sender():
            yield from mpi.world.rank(0).send(1, "beat", nbytes=16, tag=7)

        p = sim.process(sender())
        sim.run(until=p)
        sim.run(until=1.0)
        # The message must not have been swallowed by the cancelled
        # request: a fresh receive still gets it.
        assert not stale.test()
        fresh = mpi.world.rank(1).irecv(src=0, tag=7)
        sim.run(until=2.0)
        assert fresh.test()
        assert fresh.event.value.payload == "beat"

    def test_cancel_after_completion_is_refused(self):
        cluster, mpi = make_world()
        sim = cluster.sim

        def sender():
            yield from mpi.world.rank(0).send(1, "x", nbytes=16, tag=1)

        req = mpi.world.rank(1).irecv(src=0, tag=1)
        p = sim.process(sender())
        sim.run(until=p)
        sim.run(until=1.0)
        assert req.test()
        assert not req.cancel()
        assert not req.cancelled

    def test_cancel_is_idempotent(self):
        cluster, mpi = make_world()
        req = mpi.world.rank(1).irecv(src=0, tag=1)
        assert req.cancel()
        assert not req.cancel()  # second call reports already-cancelled

    def test_send_requests_are_not_cancellable(self):
        cluster, mpi = make_world()
        req = mpi.world.rank(0).isend(1, "x", nbytes=16)
        assert not req.cancel()


class TestDedupState:
    """Duplicate suppression keeps a per-source high-water mark plus the
    done seqs above it: state bounded by the out-of-order window, not by
    the number of messages ever delivered."""

    def test_lossy_run_leaves_only_high_water_marks(self):
        plan = FaultPlan(seed=3, losses=[LinkLoss(probability=0.3)])
        cluster, mpi = make_world(n=3, plan=plan, transport=TransportConfig())
        sim = cluster.sim
        comm = mpi.world
        widest: list[int] = [0]

        def watch(_t, _p, _ev):
            above = sum(len(s) for s in comm._done_above.values())
            widest[0] = max(widest[0], above)
            for src, seqs in comm._done_above.items():
                low = comm._done_below.get(src, 0)
                assert all(low < seq < comm._send_seq[src] for seq in seqs)

        sim._event_tap = watch

        def sender(src):
            r = comm.rank(src)
            reqs = [r.isend(dst, (src, i), nbytes=256, tag=dst)
                    for i in range(40) for dst in range(3)]
            for req in reqs:
                yield from req.wait()

        def receiver(dst):
            r = comm.rank(dst)
            got = []
            for _ in range(80):
                msg = yield from r.recv(tag=dst)
                got.append(msg.payload)
            return got

        for src in (0, 1):
            sim.process(sender(src))
        procs = [sim.process(receiver(dst)) for dst in range(3)]
        sim.run()
        assert mpi.stats["retransmissions"] > 0
        assert mpi.stats["duplicates"] > 0
        for dst, proc in enumerate(procs):
            # Exactly once each, self-sends included.
            assert sorted(proc.value) == sorted(
                (src, i) for src in (0, 1) for i in range(40)
            )
        # Out-of-order delivery happened, and drained back to nothing.
        assert widest[0] > 0
        assert comm._done_below == {0: 120, 1: 120}
        assert not any(comm._done_above.values())

    def test_abandoned_send_does_not_stall_the_mark(self):
        # Every transmission on 0 -> 1 is lost; the send gives up, and
        # its seq must not hold back the mark for later seqs to rank 2.
        plan = FaultPlan(losses=[LinkLoss(probability=1.0, src=0, dst=1)])
        cluster, mpi = make_world(
            n=3, plan=plan, transport=TransportConfig(max_retries=2)
        )
        sim = cluster.sim
        comm = mpi.world

        def doomed():
            try:
                yield from comm.rank(0).send(1, "lost", nbytes=16, tag=1)
            except MpiError:
                return "gave up"

        gave_up = sim.process(doomed())
        later = [comm.rank(0).isend(2, i, nbytes=16, tag=2) for i in range(5)]
        sim.run()
        assert gave_up.value == "gave up"
        assert all(req.event.ok for req in later)
        assert comm._done_below == {0: 6}
        assert not any(comm._done_above.values())
