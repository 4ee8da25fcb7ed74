"""Golden event-stream digests, committed as constants.

A comparison *inside one tree* (hooks on vs off, as in
``test_kernel_digest``) passes a refactor that reorders both runs the
same way.  These tests pin the event stream itself.  Each scenario's
SHA-256 over every processed ``(time, priority, name)`` — the same tap
``test_kernel_digest`` uses — is recorded together with its makespan
and the simulator's event count (``sim._seq``).  A refactor of the
runtimes must reproduce all three exactly.

A digest may change only for a reason stated in CHANGES.md.  To
re-record after such a change, run::

    PYTHONPATH=src python -m tests.property.test_golden_digests

and paste the printed table over ``GOLDEN``.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.cluster.machine import Cluster, ClusterSpec
from repro.core.config import OMPCConfig
from repro.core.faultmodel import FaultPlan, LinkLoss, MemoryPressure
from repro.core.faults import FaultTolerantRuntime, NodeFailure
from repro.core.runtime import OMPCRuntime
from repro.omp.api import OmpProgram
from repro.omp.task import (
    Dep,
    DepType,
    depend_in,
    depend_inout,
    depend_out,
)
from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec
from repro.taskbench.bench import build_omp_program
from repro.util.units import MILLISECOND

from tests.property.test_kernel_digest import _tap_all_sims

BANDWIDTH = 100e9 / 8.0
KB = 1024.0

#: Zero fixed overheads, as in the FT failover suites.
FAST = OMPCConfig(
    startup_time=0.0, shutdown_time=0.0, first_event_interval=0.0,
    event_origin_overhead=0.0, event_handler_overhead=0.0,
    task_creation_overhead=0.0, schedule_unit_cost=0.0,
)

#: name -> (SHA-256 of the event stream, makespan, ``sim._seq``).
GOLDEN: dict[str, tuple[str, float, int]] = {
    "ft_head_failover": (
        "b1406277b0ab0960506df6ffe64758d8a807c04bcf4f4b69ef4723b32973ac94",
        0.12004934399999999, 8000,
    ),
    "ft_tiered_worker_crash": (
        "f21436388a8e177bfe9ffa97025b5fc1b5e4639ae3b1f35d896f9a5ea98eb32e",
        0.02757234320000006, 2376,
    ),
    "ft_worker_crash_lossy_checkpointed": (
        "4b805525bfb6b0cf823da733054b8089a759dd7d2f8d5f4adaca6dd18230bdc6",
        0.16101227327999929, 11248,
    ),
    "overload_1x": (
        "de46255b6f85d83862dcaa1504ba38c9c104954011752619fb43d5adb9b6d731",
        0.7364163033272895, 25373,
    ),
    "plain_trace_analysis": (
        "e625f6049820c3f8492a966553e7c0e43ba6da94ca178d61fd1f8c0b7cd8c94b",
        0.3296665732509088, 2646,
    ),
    "sharded_k2_gossip": (
        "64717ee650e70111730649bf8f7d642799b6707d4bd97b44dad478cd6e3f52db",
        0.3784849880785311, 74706,
    ),
    "sharded_k2_traced": (
        "64717ee650e70111730649bf8f7d642799b6707d4bd97b44dad478cd6e3f52db",
        0.3784849880785311, 74706,
    ),
    "sharded_k4_gossip": (
        "2f1b8cd03ad6a310f7e6209582f50fc97beaf32139aaceb3adedb94cd116c066",
        0.48613855458141, 193346,
    ),
    "sharded_manager_failover": (
        "3ae243d78107754365818e797b5b5163088722194b49d565bfc0184adce4eedb",
        0.8319539297424778, 648169,
    ),
    "taskbench_all_to_all": (
        "c28d44611f9daafe90cdfcfa67a03a244b71950e85d66ff9555a8b98d8f69ff6",
        0.8713520714681041, 9320,
    ),
    "taskbench_fft": (
        "fe25b57108c846283b5f83459768e8507a0efc5ed602f7616c2aead9a47b94d9",
        0.36422924803199985, 2867,
    ),
    "taskbench_spread": (
        "ace532ba52773d1dcfdb11c10971df3ac6a750d90348ab03f8fc4eb41bf7f988",
        0.6929398739477667, 5246,
    ),
    "taskbench_stencil_1d": (
        "e625f6049820c3f8492a966553e7c0e43ba6da94ca178d61fd1f8c0b7cd8c94b",
        0.3296665732509088, 2646,
    ),
    "taskbench_tree": (
        "89209b593cd848b039d979f0c062325c317c7174efdcf3c1c7f50b6e71ca0dd2",
        0.5879515490666662, 2806,
    ),
    "tiered_fault_arm": (
        "8eb1a88b69a1099d3689883d0d812a0c32ca2fffac21fb8d72502f69a6d43206",
        0.026748416000000066, 1766,
    ),
    "tiered_pressured": (
        "6c8d7583db49f0e57698a43b69c02a7fc460e1f0f012eb5fb02dce64a4b5027c",
        0.02792534752000014, 3166,
    ),
}


# -- programs ------------------------------------------------------------
def _taskbench(pattern: Pattern, width: int, steps: int):
    return build_omp_program(TaskBenchSpec.with_ccr(
        width, steps, pattern, KernelSpec.paper_50ms(), 1.0, BANDWIDTH
    ))


def _pipeline(n: int = 8, nbytes: float = 2 * KB):
    """Stage, bump in place (dirty sole copies), copy out."""
    prog = OmpProgram("mem-prop")
    bufs = [prog.buffer(nbytes, data=np.zeros(4), name=f"b{i}")
            for i in range(n)]
    outs = [prog.buffer(nbytes, data=np.zeros(4), name=f"o{i}")
            for i in range(n)]
    prog.target_enter_data(*bufs)
    for i, b in enumerate(bufs):
        def bump(x, i=i):
            x += i + 1
        prog.target(bump, depend=[Dep(b, DepType.INOUT)],
                    cost=0.2 * MILLISECOND, name=f"bump{i}")
    for i, (b, o) in enumerate(zip(bufs, outs)):
        def copy(x, y):
            y[:] = 2 * x
        prog.target(copy, depend=[depend_in(b), depend_out(o)],
                    cost=0.2 * MILLISECOND, name=f"copy{i}")
    prog.target_exit_data(*outs)
    return prog


def _mixed(units: int = 4, cost: float = 0.03):
    """Independent shots from one model plus a serial INOUT chain."""
    prog = OmpProgram("mixed")
    model = np.arange(16.0)
    model_buf = prog.buffer(model.nbytes, data=model, name="model")
    prog.target_enter_data(model_buf)
    out_bufs = []
    for i in range(units):
        out = np.zeros(16)
        buf = prog.buffer(out.nbytes, data=out, name=f"out{i}")
        out_bufs.append(buf)
        prog.target(
            fn=lambda m, o: np.copyto(o, m * 2.0),
            depend=[depend_in(model_buf), depend_out(buf)],
            cost=cost, name=f"shot{i}",
        )
    prog.target_exit_data(*out_bufs)
    x = np.zeros(8)
    xbuf = prog.buffer(x.nbytes, data=x, name="x")
    prog.target_enter_data(xbuf)
    for i in range(units):
        prog.target(
            fn=lambda v: np.add(v, 1.0, out=v),
            depend=[depend_inout(xbuf)],
            cost=cost, name=f"step{i}",
        )
    prog.target_exit_data(xbuf)
    return prog


# -- scenarios: each returns (makespan, simulator) ------------------------
def _plain(nodes: int, program, config: OMPCConfig, cluster=None):
    runtime = OMPCRuntime(ClusterSpec(num_nodes=nodes), config)
    if cluster is None:
        res = runtime.run(program)
    else:
        proc, finish = runtime.launch(program, cluster=cluster)
        cluster.sim.run(until=proc)
        res = finish()
    return res.makespan, runtime.last_cluster.sim


def _ft(nodes: int, program, config: OMPCConfig, **run_kw):
    runtime = FaultTolerantRuntime(ClusterSpec(num_nodes=nodes), config)
    res = runtime.run(program, **run_kw)
    return res, runtime.last_cluster.sim


def _pattern(pattern: Pattern):
    return lambda: _plain(4, _taskbench(pattern, 8, 4), OMPCConfig())


def _hooks_on():
    return _plain(4, _taskbench(Pattern.STENCIL_1D, 8, 4),
                  OMPCConfig(trace=True, analysis=True))


def _tiered_pressured():
    # 8-buffer working set per pipeline stage against 2-buffer devices.
    cfg = OMPCConfig(device_memory_bytes=4 * KB, eviction_policy="lru")
    return _plain(3, _pipeline(), cfg)


def _tiered_fault_arm():
    # MemoryPressure: capacity shrink plus seeded fetch failures.
    cluster = Cluster(ClusterSpec(num_nodes=3))
    FaultPlan(seed=7, pressures=[
        MemoryPressure(node=1, start=0.0, capacity_factor=0.5,
                       fetch_fail_prob=0.3),
    ]).install(cluster)
    cfg = OMPCConfig(device_memory_bytes=8 * 2 * KB,
                     eviction_policy="lru", mem_fetch_retries=50)
    return _plain(3, _pipeline(n=6), cfg, cluster=cluster)


def _sharded(shards: int, nodes: int):
    cfg = OMPCConfig(head_shards=shards, gossip=True)
    return lambda: _plain(nodes, _taskbench(Pattern.STENCIL_1D, 2 * nodes,
                                            3), cfg)


def _sharded_traced():
    cfg = OMPCConfig(head_shards=2, gossip=True, trace=True, analysis=True)
    return _plain(8, _taskbench(Pattern.STENCIL_1D, 16, 3), cfg)


def _sharded_failover():
    from repro.core.shard import ShardedRuntime

    cfg = OMPCConfig(head_shards=4, gossip=True, head_standbys=1)
    runtime = ShardedRuntime(ClusterSpec(num_nodes=32), cfg,
                             inject_failures=((0.08, 2),))
    res = runtime.run(_taskbench(Pattern.STENCIL_1D, 32, 6))
    assert res.counters["shard.failovers"] == 1
    return res.makespan, runtime.last_cluster.sim


def _ft_worker_crash_lossy_checkpointed():
    cfg = dataclasses.replace(FAST, checkpoint_interval=0.02)
    plan = FaultPlan(seed=11, losses=[LinkLoss(probability=0.05)])
    res, sim = _ft(5, _mixed(), cfg, fault_plan=plan,
                   failures=[NodeFailure(time=0.07, node=1)])
    assert res.checkpoint_restores and res.reexecuted_tasks
    assert res.transport["retransmissions"]
    return res.makespan, sim


def _ft_head_failover():
    cfg = dataclasses.replace(FAST, head_standbys=2)
    res, sim = _ft(5, _mixed(), cfg,
                   failures=[NodeFailure(time=0.02, node=0)])
    assert res.head_failovers == 1
    return res.makespan, sim


def _ft_tiered_worker_crash():
    cfg = OMPCConfig(device_memory_bytes=3 * 2 * KB, eviction_policy="lru",
                     trace=True)
    res, sim = _ft(4, _pipeline(n=6), cfg,
                   failures=[NodeFailure(time=0.3 * MILLISECOND, node=2)])
    assert res.failures == [2] and res.counters["mem.evict"]
    return res.makespan, sim


def _overload_1x():
    from repro.bench.jobscmd import run_overload

    manager, report = run_overload("backfill", load=1.0, quick=True)
    return report.horizon, manager.sim


SCENARIOS = {
    "taskbench_stencil_1d": _pattern(Pattern.STENCIL_1D),
    "taskbench_fft": _pattern(Pattern.FFT),
    "taskbench_tree": _pattern(Pattern.TREE),
    "taskbench_all_to_all": _pattern(Pattern.ALL_TO_ALL),
    "taskbench_spread": _pattern(Pattern.SPREAD),
    "plain_trace_analysis": _hooks_on,
    "tiered_pressured": _tiered_pressured,
    "tiered_fault_arm": _tiered_fault_arm,
    "sharded_k2_gossip": _sharded(2, 8),
    "sharded_k4_gossip": _sharded(4, 16),
    "sharded_k2_traced": _sharded_traced,
    "sharded_manager_failover": _sharded_failover,
    "ft_worker_crash_lossy_checkpointed": _ft_worker_crash_lossy_checkpointed,
    "ft_head_failover": _ft_head_failover,
    "ft_tiered_worker_crash": _ft_tiered_worker_crash,
    "overload_1x": _overload_1x,
}


def record(name: str) -> tuple[str, float, int]:
    """Run one scenario under the tap; return its golden triple."""
    digest = hashlib.sha256()
    with _tap_all_sims(digest):
        makespan, sim = SCENARIOS[name]()
    return digest.hexdigest(), makespan, sim._seq


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_stream_matches_golden(name):
    digest, makespan, events = record(name)
    want_digest, want_makespan, want_events = GOLDEN[name]
    assert (makespan, events) == (want_makespan, want_events), (
        f"{name}: makespan/event count moved"
    )
    assert digest == want_digest, f"{name}: event stream reordered"


def test_every_scenario_is_pinned():
    assert set(GOLDEN) == set(SCENARIOS)


if __name__ == "__main__":
    print("GOLDEN: dict[str, tuple[str, float, int]] = {")
    for _name in sorted(SCENARIOS):
        _d, _m, _e = record(_name)
        print(f'    "{_name}": (\n        "{_d}",\n        {_m!r}, {_e},\n    ),')
    print("}")
