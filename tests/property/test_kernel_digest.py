"""Event-stream digests: hooks never perturb the simulation.

An event-order digest is a SHA-256 over every processed event's
``(time, priority, name)``, captured via ``sim._event_tap``.  Any
reordering — even of two same-time events — changes it.

Observer and analysis hooks promise zero simulated cost: a run with
every span, counter and checker call on must process the exact event
stream of the same run with the hooks off.  These tests check that
inside one tree, and check the hooks-off stream against the committed
golden digests of ``test_golden_digests``, so a change that reorders
both the same way still fails.  Scenarios cover several Task Bench
dependence patterns, the Fig. 5 workload shape and the multi-tenant
overload day.
"""

from __future__ import annotations

import hashlib
import struct
from contextlib import contextmanager

import pytest

from repro.cluster.machine import ClusterSpec
from repro.core.config import OMPCConfig
from repro.core.runtime import OMPCRuntime
from repro.sim.core import Simulator
from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec
from repro.taskbench.bench import build_omp_program

BANDWIDTH = 100e9 / 8.0


@contextmanager
def _tap_all_sims(digest: "hashlib._Hash"):
    """Attach an event-order tap to every Simulator built in the block.

    Runtimes construct their simulator internally, so the tap is
    installed by wrapping ``Simulator.__init__`` for the duration.
    """
    orig = Simulator.__init__

    def tapped(self, *args, **kwargs):
        orig(self, *args, **kwargs)

        def tap(t, priority, event, _d=digest, _p=struct.pack):
            _d.update(_p("<dI", t, priority))
            _d.update(event.name.encode())

        self._event_tap = tap

    Simulator.__init__ = tapped
    try:
        yield
    finally:
        Simulator.__init__ = orig


def _run_traced(scenario):
    """Run ``scenario()`` under the tap; return (digest, result)."""
    digest = hashlib.sha256()
    with _tap_all_sims(digest):
        result = scenario()
    return digest.hexdigest(), result


def _golden_digest(name: str) -> str:
    # Imported here: test_golden_digests imports this module's tap.
    from tests.property.test_golden_digests import GOLDEN

    return GOLDEN[name][0]


def _fig5_scenario(pattern: Pattern, nodes: int, steps: int,
                   trace: bool = False, analysis: bool = False):
    spec = TaskBenchSpec.with_ccr(
        2 * nodes, steps, pattern, KernelSpec.paper_50ms(), 1.0, BANDWIDTH
    )

    def scenario():
        runtime = OMPCRuntime(
            ClusterSpec(num_nodes=nodes),
            OMPCConfig(trace=trace, analysis=analysis),
        )
        res = runtime.run(build_omp_program(spec))
        cluster = runtime.last_cluster
        net = cluster.network
        return (
            res.makespan,
            net.total_bytes,
            net.total_messages,
            cluster.sim._seq,
        )

    return scenario


def _assert_hooks_invisible(pattern: Pattern, golden: str):
    off_digest, off_result = _run_traced(_fig5_scenario(pattern, 4, 4))
    on_digest, on_result = _run_traced(
        _fig5_scenario(pattern, 4, 4, trace=True, analysis=True)
    )
    assert off_digest == _golden_digest(golden), "event stream reordered"
    assert on_digest == off_digest, "hooks perturbed the event stream"
    assert on_result == off_result


@pytest.mark.parametrize("pattern", [
    Pattern.STENCIL_1D,
    Pattern.FFT,
    Pattern.TREE,
    Pattern.ALL_TO_ALL,
    Pattern.SPREAD,
])
def test_taskbench_patterns_bit_identical(pattern):
    _assert_hooks_invisible(pattern, f"taskbench_{pattern.value}")


def test_fig5_shape_bit_identical_with_hooks_off_and_on():
    # The golden hooks-on scenario pins the same stream as hooks off.
    _assert_hooks_invisible(Pattern.STENCIL_1D, "plain_trace_analysis")


def test_overload_day_bit_identical():
    from repro.bench.jobscmd import overload_counts, run_overload

    def scenario():
        manager, report = run_overload("backfill", load=1.0, quick=True)
        counts = overload_counts(manager, report)
        return counts, report.horizon, manager.sim._seq

    first_digest, first_result = _run_traced(scenario)
    second_digest, second_result = _run_traced(scenario)
    assert first_digest == _golden_digest("overload_1x")
    assert (second_digest, second_result) == (first_digest, first_result)
