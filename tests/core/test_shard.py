"""Tests for the sharded control plane (repro.core.shard)."""

import pytest

from repro.cluster import ClusterSpec, shard_reserved
from repro.cluster.partition import PartitionError
from repro.core import OMPCConfig, OMPCRuntime
from repro.core.shard import (
    BlockPolicy,
    ConsistentHashPolicy,
    ShardDirectory,
    ShardedRuntime,
    ShardPlaneError,
    ShardRunResult,
    make_partition_policy,
    stable_hash,
)
from repro.obs.exporter import to_chrome_trace, validate_chrome_trace
from repro.omp.task import TaskKind
from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec
from repro.taskbench.bench import build_omp_program

BANDWIDTH = 100e9 / 8.0


def stencil(width=16, steps=4):
    spec = TaskBenchSpec.with_ccr(
        width, steps, Pattern.STENCIL_1D, KernelSpec.paper_50ms(),
        1.0, BANDWIDTH,
    )
    return build_omp_program(spec)


class TestPartitionPolicies:
    def test_stable_hash_is_deterministic_and_salted(self):
        assert stable_hash("t1") == stable_hash("t1")
        assert stable_hash("t1") != stable_hash("t2")
        assert stable_hash("t1") != stable_hash("t1", salt="ring")

    def test_consistent_hash_covers_all_shards(self):
        policy = ConsistentHashPolicy(4)
        owners = {policy.shard_of(i) for i in range(256)}
        assert owners == {0, 1, 2, 3}

    def test_consistent_hash_is_stable_under_repeat(self):
        a = ConsistentHashPolicy(4)
        b = ConsistentHashPolicy(4)
        assert [a.shard_of(i) for i in range(64)] == \
               [b.shard_of(i) for i in range(64)]

    def test_block_policy_is_contiguous(self):
        policy = BlockPolicy(4)
        keys = list(range(100))
        policy.prepare(keys)
        # Non-decreasing over the policy's key order: contiguous blocks.
        ordered = sorted(keys, key=lambda k: (str(type(k)), str(k)))
        owners = [policy.shard_of(k) for k in ordered]
        assert owners == sorted(owners)
        assert set(owners) == {0, 1, 2, 3}

    def test_make_partition_policy(self):
        assert isinstance(make_partition_policy("hash", 2),
                          ConsistentHashPolicy)
        assert isinstance(make_partition_policy("block", 2), BlockPolicy)
        with pytest.raises(ValueError):
            make_partition_policy("nope", 2)


class TestShardDirectory:
    def make(self, shards=4, policy="hash"):
        prog = stencil()
        prog.validate()
        return prog, ShardDirectory(prog.graph, shards, policy=policy)

    def test_every_task_owned(self):
        prog, directory = self.make()
        for task in prog.graph.tasks():
            sid = directory.owner_of(task.task_id)
            assert 0 <= sid < 4
        total = sum(len(directory.tasks_of(s)) for s in range(4))
        assert total == len(list(prog.graph.tasks()))

    def test_host_work_pinned_to_shard_zero(self):
        prog, directory = self.make()
        for task in prog.graph.tasks():
            if task.kind in (TaskKind.CLASSICAL, TaskKind.TARGET_EXIT_DATA):
                assert directory.owner_of(task.task_id) == 0

    def test_cross_edges_match_ownership(self):
        prog, directory = self.make()
        for pid, cid, sp, sc in directory.cross_edges:
            assert sp != sc
            assert directory.owner_of(pid) == sp
            assert directory.owner_of(cid) == sc

    def test_lease_needs_cover_cross_edges(self):
        prog, directory = self.make()
        needs = directory.lease_needs()
        for pid, _cid, sp, sc in directory.cross_edges:
            assert pid in needs[sc]
            assert sp != sc

    def test_subgraph_keeps_internal_edges_only(self):
        prog, directory = self.make()
        for s in range(4):
            sub = directory.subgraph(s)
            owned = {t.task_id for t in directory.tasks_of(s)}
            assert {t.task_id for t in sub.tasks()} == owned
            for pred, succ in sub.edges():
                assert pred.task_id in owned
                assert succ.task_id in owned

    def test_block_policy_directory(self):
        prog, directory = self.make(policy="block")
        stats = directory.stats()
        assert stats["tasks"] == len(list(prog.graph.tasks()))


class TestShardReserved:
    def test_reserved_prefix(self):
        assert shard_reserved(1) == (0,)
        assert shard_reserved(4) == (0, 1, 2, 3)
        with pytest.raises(PartitionError):
            shard_reserved(0)


class TestShardedRuntimeValidation:
    def test_single_shard_rejected(self):
        with pytest.raises(ValueError, match="head_shards"):
            ShardedRuntime(ClusterSpec(num_nodes=8),
                           OMPCConfig(head_shards=1))

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            ShardedRuntime(ClusterSpec(num_nodes=4),
                           OMPCConfig(head_shards=4))

    def test_injection_requires_gossip_and_standbys(self):
        with pytest.raises(ValueError):
            ShardedRuntime(
                ClusterSpec(num_nodes=16),
                OMPCConfig(head_shards=2, head_standbys=1),
                inject_failures=((0.1, 1),),
            )
        with pytest.raises(ValueError):
            ShardedRuntime(
                ClusterSpec(num_nodes=16),
                OMPCConfig(head_shards=2, gossip=True),
                inject_failures=((0.1, 1),),
            )

    def test_root_manager_unkillable(self):
        with pytest.raises(ValueError, match="node 0"):
            ShardedRuntime(
                ClusterSpec(num_nodes=16),
                OMPCConfig(head_shards=2, gossip=True, head_standbys=1),
                inject_failures=((0.1, 0),),
            )


class TestShardedExecution:
    def test_two_shard_run_completes_all_tasks(self):
        prog = stencil()
        cfg = OMPCConfig(head_shards=2)
        runtime = OMPCRuntime(ClusterSpec(num_nodes=16), cfg)
        res = runtime.run(prog)
        assert isinstance(res, ShardRunResult)
        assert res.makespan > 0
        num_tasks = len(list(prog.graph.tasks()))
        assert res.counters["shard.dispatches"] == num_tasks
        assert len(res.task_intervals) == num_tasks
        assert res.counters["shard.forwards"] > 0
        assert res.counters["shard.forwards"] == res.counters["shard.leases"]
        assert set(res.shard_stats) == {0, 1}
        assert sum(s.dispatched for s in res.shard_stats.values()) \
            == num_tasks
        report = res.utilization_report()
        assert "shard" in report and "busy%" in report

    def test_traced_run_has_per_task_spans(self):
        # The sharded plane runs the engine's shared target steps, so a
        # traced run carries each target region's fetch/execute/commit
        # spans, and the whole trace exports cleanly.
        prog = stencil(width=8, steps=2)
        cfg = OMPCConfig(head_shards=2, trace=True)
        res = OMPCRuntime(ClusterSpec(num_nodes=8), cfg).run(prog)
        targets = [t.name for t in prog.graph.tasks()
                   if t.kind == TaskKind.TARGET]
        assert targets
        for phase in ("fetch", "execute", "commit"):
            spans = {s.name for s in res.obs.find(cat="task")
                     if s.name.endswith(f":{phase}")}
            assert spans == {f"{name}:{phase}" for name in targets}
        assert validate_chrome_trace(to_chrome_trace(res.obs)) == []

    def test_traced_failover_exports_a_valid_trace(self):
        cfg = OMPCConfig(head_shards=4, gossip=True, head_standbys=1,
                         trace=True)
        runtime = ShardedRuntime(ClusterSpec(num_nodes=16), cfg,
                                 inject_failures=((0.08, 2),))
        res = runtime.run(stencil(width=16, steps=4))
        assert res.counters["shard.failovers"] == 1
        assert any(s.name.endswith(":execute")
                   for s in res.obs.find(cat="task"))
        assert validate_chrome_trace(to_chrome_trace(res.obs)) == []

    def test_delegation_preserves_results_shape(self):
        runtime = OMPCRuntime(ClusterSpec(num_nodes=16),
                              OMPCConfig(head_shards=4))
        res = runtime.run(stencil())
        assert res.startup_time > 0
        assert res.shutdown_time > 0
        assert runtime.last_cluster is not None

    def test_gossip_run_records_rounds(self):
        cfg = OMPCConfig(head_shards=2, gossip=True)
        runtime = OMPCRuntime(ClusterSpec(num_nodes=16), cfg)
        res = runtime.run(stencil())
        assert res.gossip_rounds > 0
        assert res.detections == []

    def test_manager_failover_recovers_and_dedups(self):
        prog = stencil(width=32, steps=6)
        cfg = OMPCConfig(head_shards=4, gossip=True, head_standbys=1)
        runtime = ShardedRuntime(ClusterSpec(num_nodes=32), cfg,
                                 inject_failures=((0.08, 2),))
        main, finish = runtime.launch(prog)
        main.sim.run(until=main)
        res = finish()
        assert res.makespan > 0
        assert [d for d, _by, _t in res.detections] == [2]
        assert res.counters["shard.failovers"] == 1
        failed_over = [s for s in res.shard_stats.values()
                       if s.failovers == 1]
        assert len(failed_over) == 1
        assert failed_over[0].manager != 2  # a standby took over
        num_tasks = len(list(prog.graph.tasks()))
        assert len(res.task_intervals) == num_tasks

    def test_tiering_combination_rejected(self):
        cfg = OMPCConfig(head_shards=2, device_memory_bytes=1e9,
                         eviction_policy="lru")
        with pytest.raises(ValueError, match="tier"):
            ShardedRuntime(ClusterSpec(num_nodes=16), cfg)
