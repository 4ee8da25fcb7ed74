"""Tests for cluster partitioning: ClusterView and NodePool."""

import numpy as np
import pytest

from repro.cluster import ClusterView, NodePool, PartitionError
from repro.cluster.machine import Cluster, ClusterSpec
from repro.core import OMPCConfig, OMPCRuntime
from repro.omp import OmpProgram
from repro.omp.task import depend_in, depend_out


def small_program(tasks: int = 4, cost: float = 0.01) -> OmpProgram:
    prog = OmpProgram("part-test")
    src = np.arange(8.0)
    buf = prog.buffer(src.nbytes, data=src, name="in")
    prog.target_enter_data(buf)
    outs = []
    for i in range(tasks):
        out = prog.buffer(64, name=f"out{i}")
        outs.append(out)
        prog.target(depend=[depend_in(buf), depend_out(out)],
                    cost=cost, name=f"t{i}")
    prog.target_exit_data(*outs)
    return prog


class TestClusterView:
    def test_virtual_numbering(self):
        cluster = Cluster(ClusterSpec(num_nodes=8))
        view = ClusterView(cluster, (3, 5, 6))
        assert view.num_nodes == 3
        assert [n.node_id for n in view.nodes] == [0, 1, 2]
        assert [n.physical_id for n in view.nodes] == [3, 5, 6]
        assert view.physical_id(2) == 6
        assert view.head.physical_id == 3

    def test_shares_physical_resources(self):
        cluster = Cluster(ClusterSpec(num_nodes=6))
        view = ClusterView(cluster, (2, 4))
        assert view.node(0).cpu is cluster.node(2).cpu
        assert view.node(1).cpu is cluster.node(4).cpu

    def test_rejects_bad_node_sets(self):
        cluster = Cluster(ClusterSpec(num_nodes=4))
        with pytest.raises(PartitionError):
            ClusterView(cluster, ())
        with pytest.raises(PartitionError):
            ClusterView(cluster, (1, 1))
        with pytest.raises(PartitionError):
            ClusterView(cluster, (3, 4))

    def test_runtime_executes_on_view(self):
        cluster = Cluster(ClusterSpec(num_nodes=8))
        view = ClusterView(cluster, (1, 2, 3))
        runtime = OMPCRuntime(view.spec, OMPCConfig())
        proc, finish = runtime.launch(small_program(), cluster=view)
        cluster.sim.run(until=proc)
        result = finish()
        assert result.makespan > 0
        assert len(result.task_intervals) >= 4

    def test_view_matches_standalone_run(self):
        """A job on a view behaves exactly as on its own cluster."""
        alone = OMPCRuntime(ClusterSpec(num_nodes=3), OMPCConfig())
        expected = alone.run(small_program())

        cluster = Cluster(ClusterSpec(num_nodes=8))
        view = ClusterView(cluster, (4, 5, 6))
        runtime = OMPCRuntime(view.spec, OMPCConfig())
        proc, finish = runtime.launch(small_program(), cluster=view)
        cluster.sim.run(until=proc)
        result = finish()
        assert result.makespan == expected.makespan
        assert len(result.task_intervals) == len(expected.task_intervals)

    def test_disjoint_views_isolated_counters(self):
        cluster = Cluster(ClusterSpec(num_nodes=8))
        va = ClusterView(cluster, (1, 2, 3), name="a")
        vb = ClusterView(cluster, (4, 5, 6), name="b")
        ra = OMPCRuntime(va.spec, OMPCConfig())
        rb = OMPCRuntime(vb.spec, OMPCConfig())
        pa, fa = ra.launch(small_program(), cluster=va)
        pb, fb = rb.launch(small_program(), cluster=vb)
        cluster.sim.run(until=pa)
        cluster.sim.run(until=pb)
        res_a, res_b = fa(), fb()
        assert len(res_a.task_intervals) == len(res_b.task_intervals)
        # Per-view network counters only see their own traffic.
        assert va.network.total_bytes == vb.network.total_bytes
        assert va.network.total_bytes > 0
        # The physical fabric carried both.
        assert cluster.network.total_bytes >= 2 * va.network.total_bytes


class TestNodePool:
    def test_reserved_node_never_allocated(self):
        cluster = Cluster(ClusterSpec(num_nodes=5))
        pool = NodePool(cluster, reserved=(0,))
        assert pool.capacity == 4
        got = pool.allocate(4, holder="j")
        assert 0 not in got

    def test_lowest_ids_first_deterministic(self):
        cluster = Cluster(ClusterSpec(num_nodes=8))
        pool = NodePool(cluster)
        assert pool.allocate(3, holder="a") == (1, 2, 3)
        assert pool.allocate(2, holder="b") == (4, 5)
        pool.release((1, 2, 3))
        assert pool.allocate(2, holder="c") == (1, 2)

    def test_allocate_more_than_free_raises(self):
        cluster = Cluster(ClusterSpec(num_nodes=4))
        pool = NodePool(cluster)
        pool.allocate(2, holder="a")
        with pytest.raises(PartitionError):
            pool.allocate(2, holder="b")

    def test_retire_shrinks_capacity(self):
        cluster = Cluster(ClusterSpec(num_nodes=5))
        pool = NodePool(cluster)
        got = pool.allocate(2, holder="a")
        pool.retire(got[0])
        pool.release(got)
        assert pool.capacity == 3
        assert got[0] not in pool.free_nodes()

    def test_holder_tracking(self):
        cluster = Cluster(ClusterSpec(num_nodes=5))
        pool = NodePool(cluster)
        got = pool.allocate(2, holder="jobA")
        assert pool.holder_of(got[0]) == "jobA"
        pool.release(got)
        assert pool.holder_of(got[0]) is None
