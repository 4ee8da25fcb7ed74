"""Self-time arithmetic, generator resumes and trace fidelity."""

import pytest

from spans import (
    LAYERS,
    SpanRecorder,
    event_tap,
    install,
    layer_of_module,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_spans_subtract_their_children():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.open("sim", "run")          # t = 0
    clock.now = 2.0
    rec.open("net", "transfer")     # t = 2
    clock.now = 3.0
    rec.open("mpi", "isend")        # t = 3
    clock.now = 4.0
    rec.close()                     # mpi: 1
    clock.now = 5.0
    rec.close()                     # net: 3 - 1 = 2
    clock.now = 10.0
    rec.close()                     # sim: 10 - 3 = 7
    assert rec.self_s == {"sim": 7.0, "net": 2.0, "mpi": 1.0}
    assert rec.inclusive_s["run"] == 10.0
    assert rec.inclusive_s["transfer"] == 3.0
    assert sum(rec.self_s.values()) == 10.0
    assert rec.depth == 0


def test_same_layer_nesting_never_double_counts():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.open("events", "submit")
    clock.now = 1.0
    rec.open("events", "alloc")
    clock.now = 4.0
    rec.close()
    clock.now = 6.0
    rec.close()
    assert rec.self_s["events"] == 6.0
    assert rec.spans["events"] == 2


def test_sibling_children_all_subtract():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.open("sim", "run")
    for start in (1.0, 3.0):
        clock.now = start
        rec.open("net", "transfer")
        clock.now = start + 0.5
        rec.close()
    clock.now = 5.0
    rec.close()
    assert rec.self_s["sim"] == 4.0
    assert rec.self_s["net"] == 1.0


def test_generator_span_covers_each_resume_not_the_suspension():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def body():
        clock.now += 1.0            # first resume: 1 s of work
        got = yield "a"
        clock.now += 2.0            # second resume: 2 s of work
        yield got
        clock.now += 4.0            # last resume: 4 s, then return
        return "done"

    gen = rec.trace_generator("net", "transfer", body())
    assert gen.__name__ == "body"
    assert next(gen) == "a"
    clock.now += 100.0              # suspended: not charged
    assert gen.send("b") == "b"
    clock.now += 100.0
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert rec.self_s["net"] == 7.0
    assert rec.spans["net"] == 3
    assert rec.depth == 0


def test_generator_resume_nested_in_a_parent_span():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def body():
        clock.now += 3.0
        yield 1

    gen = rec.trace_generator("net", "transfer", body())
    rec.open("sim", "run")
    clock.now += 1.0
    next(gen)                       # a resume inside the kernel's span
    clock.now += 1.0
    rec.close()
    assert rec.self_s == {"net": 3.0, "sim": 2.0}


def test_generator_wrapper_passes_throws_closes_and_yield_from():
    rec = SpanRecorder()
    log = []

    def inner():
        try:
            yield 1
        except KeyError as exc:
            log.append(("caught", exc.args[0]))
            yield 2
        try:
            yield 3
        finally:
            log.append("closed")
        return "unreached"

    gen = rec.trace_generator("events", "submit", inner())
    assert next(gen) == 1
    assert gen.throw(KeyError("k")) == 2
    assert next(gen) == 3
    gen.close()
    assert log == [("caught", "k"), "closed"]
    assert rec.depth == 0

    def outer():
        result = yield from rec.trace_generator("mpi", "recv", sub())
        return result * 2

    def sub():
        value = yield "wait"
        return value + 1

    gen = outer()
    assert next(gen) == "wait"
    with pytest.raises(StopIteration) as stop:
        gen.send(20)
    assert stop.value.value == 42


def test_exception_inside_a_resume_closes_its_span():
    rec = SpanRecorder()

    def body():
        yield 1
        raise ValueError("boom")

    gen = rec.trace_generator("dm", "plan", body())
    next(gen)
    with pytest.raises(ValueError):
        next(gen)
    assert rec.depth == 0
    assert rec.spans["dm"] == 2


def test_layer_of_module_uses_the_longest_prefix():
    assert layer_of_module("repro.sim.core") == "sim"
    assert layer_of_module("repro.cluster.network") == "net"
    assert layer_of_module("repro.cluster.node") == "rt"
    assert layer_of_module("repro.core.shard.plane") == "shard"
    assert layer_of_module("repro.core.scheduler.heft") == "heft"
    assert layer_of_module("repro.core.runtime") == "rt"
    assert layer_of_module(None) == "rt"
    assert set(LAYERS) >= {"sim", "net", "mpi", "events", "rt"}


def test_install_restores_every_patched_attribute():
    from repro.cluster.network import Network
    from repro.sim.core import Simulator

    before = (Simulator.__dict__["run"], Simulator.__dict__["process"],
              Network.__dict__["transfer"])
    restore = install(SpanRecorder())
    assert Simulator.__dict__["run"] is not before[0]
    restore()
    after = (Simulator.__dict__["run"], Simulator.__dict__["process"],
             Network.__dict__["transfer"])
    assert after == before


def _small_run(rec=None):
    from repro.cluster.machine import ClusterSpec
    from repro.core import OMPCConfig, OMPCRuntime
    from repro.taskbench import KernelSpec, Pattern, TaskBenchSpec
    from repro.taskbench.bench import build_omp_program

    spec = TaskBenchSpec.with_ccr(8, 4, Pattern.STENCIL_1D,
                                  KernelSpec.from_duration(1e-3), 1.0,
                                  100e9 / 8.0)
    runtime = OMPCRuntime(ClusterSpec(num_nodes=4), OMPCConfig())
    proc, finish = runtime.launch(build_omp_program(spec))
    sim = proc.sim
    if rec is not None:
        sim._event_tap = event_tap(rec)
    sim.run(until=proc)
    result = finish()
    return result.makespan, sim._seq, sorted(result.task_intervals.items())


def test_traced_run_reproduces_the_untraced_run_exactly():
    plain = _small_run()
    rec = SpanRecorder()
    restore = install(rec)
    try:
        traced = _small_run(rec)
    finally:
        restore()
    assert traced == plain
    assert rec.depth == 0
    own = rec.profile()
    assert own["sim"] > 0 and own["net"] > 0 and own["mpi"] > 0
    assert own["events"] > 0
    assert rec.calls["Network.transfer"] > 0
    assert rec.calls["HeftScheduler.schedule"] == 1
    assert rec.amounts["heft.tasks"] == 32
    assert rec.calls["OMPCRuntime.launch"] == 1
