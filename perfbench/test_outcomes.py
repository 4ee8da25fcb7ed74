"""Outcome classifier, watchdog and the workloads' oracles."""

import pytest

from outcomes import (
    CLASSES,
    HANG,
    OK,
    TYPED_ERROR,
    UNTYPED_ERROR,
    WRONG_OUTPUT,
    EventBudgetExceeded,
    Tally,
    Watchdog,
    classify,
)


def test_every_class_is_reachable():
    from repro.core.memory import DeviceMemoryError
    from repro.sim.errors import SimulationError

    assert classify(None) == OK
    assert classify(None, output_ok=False) == WRONG_OUTPUT
    assert classify(DeviceMemoryError("full")) == TYPED_ERROR
    assert classify(SimulationError("x")) == TYPED_ERROR
    assert classify(ValueError("would drop the last valid copy")) \
        == UNTYPED_ERROR
    assert classify(KeyError(3)) == UNTYPED_ERROR
    assert classify(EventBudgetExceeded(10)) == HANG
    assert set(CLASSES) == {OK, TYPED_ERROR, UNTYPED_ERROR, WRONG_OUTPUT,
                            HANG}


def test_subclass_of_a_repro_error_is_typed():
    from repro.core.faults import RecoveryError

    class Local(RecoveryError):
        pass

    assert classify(Local("x")) == TYPED_ERROR


def test_watchdog_turns_a_livelock_into_a_hang():
    from repro.sim.core import Simulator

    sim = Simulator()

    def spin():
        while True:
            yield sim.timeout(1e-3)

    proc = sim.process(spin())
    Watchdog(500).attach(sim)
    with pytest.raises(EventBudgetExceeded) as err:
        sim.run(until=proc)
    assert classify(err.value) == HANG
    assert sim.now < 1.0


def test_watchdog_lets_a_run_within_budget_finish():
    from repro.sim.core import Simulator

    sim = Simulator()

    def short():
        for _ in range(10):
            yield sim.timeout(1.0)
        return "done"

    proc = sim.process(short())
    dog = Watchdog(100)
    dog.attach(sim)
    assert sim.run(until=proc) == "done"
    assert 10 <= dog.processed <= 100


def test_watchdog_rejects_a_zero_budget():
    with pytest.raises(ValueError):
        Watchdog(0)


def test_tally_counts_attempted_and_failed():
    tally = Tally()
    tally.add(OK, 3)
    tally.add(TYPED_ERROR, 2, "rung 2x: DeviceMemoryError", "node 4: ...")
    tally.add(HANG)
    assert tally.attempted == 6
    assert tally.failed == 3
    assert tally.as_dict()[TYPED_ERROR] == 2
    assert tally.details[TYPED_ERROR, "rung 2x: DeviceMemoryError"] == 2
    with pytest.raises(ValueError):
        tally.add("crashed")


def test_tiered_serial_oracle_matches_an_unpressured_run():
    from repro.cluster import ClusterSpec
    from repro.core import FaultTolerantRuntime

    from workloads import TieredRecovery

    wl = TieredRecovery()
    prog, outputs = wl.build(3)
    FaultTolerantRuntime(ClusterSpec(num_nodes=wl.nodes),
                         wl.base_config()).run(prog)
    assert [x.tobytes() for x in outputs] == wl.serial_outputs(3)
    # A different seed gives different inputs.
    assert wl.serial_outputs(4) != wl.serial_outputs(3)


def test_tiered_crash_node_is_a_seeded_worker():
    from workloads import TieredRecovery

    wl = TieredRecovery()
    nodes = {wl.crash_node(seed) for seed in range(40)}
    assert nodes <= set(range(2, wl.nodes))
    assert len(nodes) > 1
    assert wl.crash_node(5) == wl.crash_node(5)
